import math

import numpy as np
import pytest

from crowdvol import anthro, meshvol, scenegen
from crowdvol.datamodel import (
    default_config,
    default_taxonomy,
    frame_to_json_line,
    identity_camera,
    validate_frame,
)
from crowdvol.rng import SplitMix64, mix_seed
from crowdvol.special import ndtri


def small_cfg(**overrides):
    defaults = dict(
        frames_per_split=(("train", 4), ("val", 2), ("test", 3)),
        pool_sizes=(("train", 6), ("val", 3), ("test", 4)),
        persons_range=(1, 5),
    )
    defaults.update(overrides)
    return scenegen.SceneConfig(**defaults)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_principal_point():
    cam = identity_camera(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)
    x, y, _ = scenegen._pinhole(scenegen._rigid(cam.rotation, np.array([[0.0, 0.0, 2.0]]), cam.translation), cam)
    assert (x[0], y[0]) == (960.0, 540.0)


def test_project_hand_arithmetic():
    cam = identity_camera(fx=1000.0, fy=900.0, cx=960.0, cy=540.0)
    x, y, _ = scenegen._pinhole(scenegen._rigid(cam.rotation, np.array([[0.5, 0.25, 2.0]]), cam.translation), cam)
    assert x[0] == 960.0 + 1000.0 * 0.5 / 2.0  # 1210
    assert x[0] == 1210.0
    assert y[0] == 540.0 + 900.0 * 0.25 / 2.0


def test_project_behind_camera_is_off_image():
    cam = identity_camera()
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    x, y, z = scenegen._pinhole(scenegen._rigid(cam.rotation, points, cam.translation), cam)
    assert x.tolist() == y.tolist() == [-1.0, -1.0]
    assert z.tolist() == [0.0, -1.0]


def test_look_at_camera_centers_target():
    cam = scenegen.look_at_camera((0.0, -2.0, 1.5), (0.0, 5.0, 1.0), 600.0, 600.0, 320.0, 240.0)
    x, y, _ = scenegen._pinhole(scenegen._rigid(cam.rotation, np.array([[0.0, 5.0, 1.0]]), cam.translation), cam)
    assert x[0] == pytest.approx(320.0, abs=1e-9)
    assert y[0] == pytest.approx(240.0, abs=1e-9)


# ---------------------------------------------------------------------------
# humanoid bodies
# ---------------------------------------------------------------------------

def test_humanoid_hits_target_volume():
    sample = anthro.PersonSample(
        gender="male", height_m=1.75, mass_kg=70.0, bmi=70.0 / 1.75**2, volume_dm3=70.0
    )
    body = scenegen.build_humanoid(sample, seed=1)
    mesh_volume = meshvol.signed_volume(body.mesh) * 1000.0
    assert abs(mesh_volume - 70.0) <= 0.01 * 70.0
    assert abs(body.total_volume_dm3 - 70.0) <= 0.01 * 70.0


def test_humanoid_torso_anchor_count():
    sample = anthro.sample_population(anthro.default_model(), 1, seed=5)[0]
    body = scenegen.build_humanoid(sample, seed=2)
    tax = default_taxonomy()
    torso_kps = tax.keypoint_map[tax.id_of("torso")]
    assert body.anchors.shape == (17, 3)
    assert sum(1 for kp in range(len(body.anchors)) if kp in torso_kps) == 5


def test_humanoid_deterministic():
    sample = anthro.sample_population(anthro.default_model(), 1, seed=6)[0]
    a = scenegen.build_humanoid(sample, seed=3)
    b = scenegen.build_humanoid(sample, seed=3)
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert np.array_equal(a.mesh.faces, b.mesh.faces)
    assert a.part_volumes_dm3 == b.part_volumes_dm3
    c = scenegen.build_humanoid(sample, seed=4)
    assert not np.array_equal(a.mesh.vertices, c.mesh.vertices)


def test_humanoid_part_volumes_match_mesh_split():
    for i in range(10):
        sample = anthro.sample_population(anthro.default_model(), 1, seed=40 + i)[0]
        body = scenegen.build_humanoid(sample, seed=i)
        parts = meshvol.split_parts(body.mesh, default_taxonomy())
        for pid, analytic in body.part_volumes_dm3.items():
            assert abs(parts.volumes[pid] - analytic) <= 5e-3 * analytic


def test_humanoid_annotation_closure():
    sample = anthro.sample_population(anthro.default_model(), 1, seed=50)[0]
    body = scenegen.build_humanoid(sample, seed=0)
    total = math.fsum(body.part_volumes_dm3.values())
    assert abs(total - body.total_volume_dm3) <= 1e-6 * body.total_volume_dm3
    assert float(np.float32(body.total_volume_dm3)) == body.total_volume_dm3


def test_humanoid_solids_are_the_closed_forms():
    sample = anthro.sample_population(anthro.default_model(), 1, seed=51)[0]
    body = scenegen.build_humanoid(sample, seed=5)
    assert set(body.solids) == set(body.part_volumes_dm3)
    for pid, solids in body.solids.items():
        closed_form = 1000.0 * math.fsum(
            math.pi * (z1 - z0) * (r0 * r0 + r0 * r1 + r1 * r1) / 3.0
            for z0, z1, r0, r1 in solids
        )
        # part volumes are the closed forms, rescaled once onto the
        # float32-rounded total
        assert body.part_volumes_dm3[pid] == pytest.approx(closed_form, rel=1e-7)


def test_humanoid_unreachable_volume():
    sample = anthro.PersonSample(gender="male", height_m=1.75, mass_kg=70.0, bmi=22.9, volume_dm3=2000.0)
    with pytest.raises(scenegen.BodyBuildError, match="unreachable"):
        scenegen.build_humanoid(sample, seed=0)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_zero_person_range():
    cfg = small_cfg(persons_range=(0, 0))
    pools = scenegen.build_identity_pools(cfg, seed=0)
    frame = scenegen.generate_frame(cfg, pools["train"], seed=0, frame_idx=0)
    assert frame.n_persons == 0
    validate_frame(frame)


def test_frame_byte_determinism():
    cfg = small_cfg()
    pools = scenegen.build_identity_pools(cfg, seed=3)
    a = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=1)
    b = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=1)
    assert frame_to_json_line(a) == frame_to_json_line(b)
    c = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=2)
    assert frame_to_json_line(a) != frame_to_json_line(c)


def test_generated_frames_validate_and_close():
    cfg = small_cfg(frames_per_split=(("train", 40), ("val", 2), ("test", 2)))
    pools = scenegen.build_identity_pools(cfg, seed=9)
    for idx in range(40):
        frame = scenegen.generate_frame(cfg, pools["train"], seed=9, frame_idx=idx)
        validate_frame(frame)
        for p in frame.persons:
            assert 0 <= p.head_px[0] < cfg.image_w
            assert 0 <= p.head_px[1] < cfg.image_h
            s = math.fsum(p.part_volumes_dm3.values())
            assert abs(s - p.volume_dm3) <= 1e-6 * p.volume_dm3


def test_head_pixels_unique_within_frame():
    from crowdvol.densitymap import nearest_pixel

    cfg = small_cfg(persons_range=(5, 8))
    pools = scenegen.build_identity_pools(cfg, seed=2)
    for idx in range(10):
        frame = scenegen.generate_frame(cfg, pools["train"], seed=2, frame_idx=idx)
        pixels = [
            (nearest_pixel(p.head_px[0], cfg.image_w), nearest_pixel(p.head_px[1], cfg.image_h))
            for p in frame.persons
        ]
        assert len(set(pixels)) == len(pixels)


def test_ground_discs_do_not_overlap():
    # placement positions are not stored in annotations, so probe the rule
    # where it lives: duplicate characters in a frame must still end up at
    # distinct spots (distinct bboxes), across many frames
    cfg = small_cfg(persons_range=(4, 6), pool_sizes=(("train", 2), ("val", 2), ("test", 2)))
    pools = scenegen.build_identity_pools(cfg, seed=4)
    for idx in range(20):
        frame = scenegen.generate_frame(cfg, pools["train"], seed=4, frame_idx=idx)
        boxes = [p.bbox_px for p in frame.persons]
        assert len(set(boxes)) == len(boxes)


def test_placement_failure_suggests_fix():
    cfg = small_cfg(persons_range=(30, 30), area_w=0.8, area_d=0.8)
    pools = scenegen.build_identity_pools(cfg, seed=0)
    with pytest.raises(scenegen.PlacementError, match="persons_range|area"):
        scenegen.generate_frame(cfg, pools["train"], seed=0, frame_idx=0)


def test_birds_eye_frames_use_top_down_camera():
    cfg = small_cfg(tag_probs=(("birds_eye", 1.0), ("night", 0.0), ("rain", 0.0), ("heavy_occlusion", 0.0)))
    pools = scenegen.build_identity_pools(cfg, seed=1)
    frame = scenegen.generate_frame(cfg, pools["train"], seed=1, frame_idx=0)
    assert "birds_eye" in frame.scene_tags
    # camera z axis (third row) points straight down in world coordinates
    forward_world = frame.camera.rotation[2]
    assert forward_world[2] == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_split_identities_disjoint():
    cfg = small_cfg()
    data = scenegen.generate_dataset(cfg, seed=11)
    ids = {
        split: {p.character_id for f in frames for p in f.persons}
        for split, frames in data.items()
    }
    assert ids["train"] & ids["val"] == set()
    assert ids["train"] & ids["test"] == set()
    assert ids["val"] & ids["test"] == set()


def test_dataset_frame_counts():
    cfg = small_cfg()
    data = scenegen.generate_dataset(cfg, seed=12)
    assert len(data["train"]) == 4
    assert len(data["val"]) == 2
    assert len(data["test"]) == 3


def test_dataset_regeneration_identical():
    cfg = small_cfg()
    a = scenegen.generate_dataset(cfg, seed=13)
    b = scenegen.generate_dataset(cfg, seed=13)
    for split in a:
        assert [frame_to_json_line(f) for f in a[split]] == [frame_to_json_line(f) for f in b[split]]


def test_workers_do_not_change_output():
    cfg = small_cfg()
    serial = scenegen.generate_dataset(cfg, seed=14, workers=1)
    parallel = scenegen.generate_dataset(cfg, seed=14, workers=3)
    for split in serial:
        assert [frame_to_json_line(f) for f in serial[split]] == [
            frame_to_json_line(f) for f in parallel[split]
        ]


def test_scene_config_roundtrip():
    cfg = small_cfg(area_y0=2.5, area_w=6.0)
    back = scenegen.scene_config_from_pairs(scenegen.scene_config_to_pairs(cfg))
    assert back == cfg


def test_shipped_scene_cfg_lists_the_scene_defaults():
    cfg = scenegen.SceneConfig()
    model_keys = set(anthro.model_to_config(cfg.model))
    shipped = default_config("scene")
    assert shipped == {k: v for k, v in scenegen.scene_config_to_pairs(cfg).items() if k not in model_keys}


def test_scene_config_keeps_partial_model_overrides():
    cfg = scenegen.scene_config_from_pairs({"gender_mix": "0.25"})
    assert cfg.model.gender_mix == 0.25
    assert cfg.model.male == scenegen.SceneConfig().model.male


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_splitmix_scalar_matches_batch():
    a = SplitMix64(99)
    scalars = [a.uniform() for _ in range(64)]
    b = SplitMix64(99)
    assert np.array_equal(np.array(scalars), b.uniforms(64))


def test_splitmix_normals_match():
    """normal() inverts the CDF of exactly one uniform, so a population
    sampler's stream stays aligned draw for draw."""
    a = SplitMix64(7)
    scalars = [a.normal() for _ in range(5_000)]
    b = SplitMix64(7)
    assert scalars == [ndtri(u) for u in b.uniforms(5_000).tolist()]
    assert a.normal() == b.normal()


def test_splitmix_randints_continue_the_scalar_stream():
    a = SplitMix64(13)
    scalars = [a.randint(-2, 40) for _ in range(50)]
    b = SplitMix64(13)
    batch = np.concatenate([b.randints(-2, 40, 20), [b.randint(-2, 40)], b.randints(-2, 40, 29)])
    assert batch.dtype == np.int64
    assert batch.tolist() == scalars


def test_mix_seed_order_sensitive():
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert mix_seed(1, 2) == mix_seed(1, 2)


def test_randint_bounds():
    rng = SplitMix64(5)
    draws = [rng.randint(3, 9) for _ in range(500)]
    assert min(draws) == 3 and max(draws) == 9
