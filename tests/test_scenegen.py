import json
import math
from dataclasses import replace

import numpy as np
import pytest

from crowdvol import anthro, evalharness, meshvol, scenegen
from crowdvol.cli import main
from crowdvol.datamodel import ValidationError, default_taxonomy, frame_to_json_line
from crowdvol.densitymap import integrate, render_ppvdm
from crowdvol.rng import SplitMix64, mix_seed
from crowdvol.special import ndtri
from conftest import DENSE_PAIRS, generate_dataset, identity_camera, part_id, smoothing, uniforms


def small_cfg(**overrides):
    defaults = dict(
        frames_per_split={"train": 4, "val": 2, "test": 3},
        pool_sizes={"train": 6, "val": 3, "test": 4},
        persons_range=(1, 5),
    )
    defaults.update(overrides)
    return replace(scenegen.scene_config_from_pairs({}), **defaults)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def project(cam, point):
    return scenegen._pinhole(cam, *scenegen._rigid(cam.rotation, point, cam.translation))


def test_project_principal_point():
    cam = identity_camera(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)
    assert project(cam, (0.0, 0.0, 2.0)) == (960.0, 540.0)


def test_project_hand_arithmetic():
    cam = identity_camera(fx=1000.0, fy=900.0, cx=960.0, cy=540.0)
    x, y = project(cam, (0.5, 0.25, 2.0))
    assert x == 960.0 + 1000.0 * 0.5 / 2.0  # 1210
    assert x == 1210.0
    assert y == 540.0 + 900.0 * 0.25 / 2.0


def test_look_at_camera_centers_target():
    cam = scenegen.look_at_camera((0.0, -2.0, 1.5), (0.0, 5.0, 1.0), 600.0, 600.0, 320.0, 240.0)
    x, y = project(cam, (0.0, 5.0, 1.0))
    assert x == pytest.approx(320.0, abs=1e-9)
    assert y == pytest.approx(240.0, abs=1e-9)


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
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=5)[0]
    body = scenegen.build_humanoid(sample, seed=2)
    tax = default_taxonomy()
    torso_kps = tax.keypoint_map[part_id(tax, "torso")]
    assert body.anchors.shape == (17, 3)
    assert sum(1 for kp in range(len(body.anchors)) if kp in torso_kps) == 5


def test_humanoid_anchors_lie_on_the_axis_inside_their_parts_band():
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=5)[0]
    body = scenegen.build_humanoid(sample, seed=2)
    assert not body.anchors[:, :2].any()
    for pid, kps in default_taxonomy().keypoint_map.items():
        z = body.mesh.vertices[body.mesh.vertex_labels == pid, 2]
        heights = body.anchors[sorted(kps), 2]
        assert np.all((z.min() < heights) & (heights < z.max())), pid
        assert np.all(np.diff(heights) < 0), pid  # from the top down in id order


def test_humanoid_deterministic():
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=6)[0]
    a = scenegen.build_humanoid(sample, seed=3)
    b = scenegen.build_humanoid(sample, seed=3)
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert np.array_equal(a.mesh.faces, b.mesh.faces)
    assert a.part_volumes_dm3 == b.part_volumes_dm3
    c = scenegen.build_humanoid(sample, seed=4)
    assert not np.array_equal(a.mesh.vertices, c.mesh.vertices)


def test_humanoid_part_volumes_match_mesh_split():
    for i in range(10):
        sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=40 + i)[0]
        body = scenegen.build_humanoid(sample, seed=i)
        parts = meshvol.split_parts(body.mesh, default_taxonomy())
        for pid, analytic in body.part_volumes_dm3.items():
            assert abs(parts.volumes[pid] - analytic) <= 5e-3 * analytic


def test_humanoid_annotation_closure():
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=50)[0]
    body = scenegen.build_humanoid(sample, seed=0)
    total = math.fsum(body.part_volumes_dm3.values())
    assert abs(total - body.total_volume_dm3) <= 1e-6 * body.total_volume_dm3
    assert float(np.float32(body.total_volume_dm3)) == body.total_volume_dm3


def test_humanoid_solids_are_the_closed_forms():
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=51)[0]
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
    with pytest.raises(ValidationError, match="unreachable for height"):
        scenegen.build_humanoid(sample, seed=0)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_zero_person_range():
    cfg = small_cfg(persons_range=(0, 0))
    pools = scenegen.build_identity_pools(cfg, seed=0)
    frame = scenegen.generate_frame(cfg, pools["train"], seed=0, frame_idx=0)
    assert frame.n_persons == 0  # and the frame checked itself when built


def test_frame_byte_determinism():
    cfg = small_cfg()
    pools = scenegen.build_identity_pools(cfg, seed=3)
    a = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=1)
    b = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=1)
    assert frame_to_json_line(a) == frame_to_json_line(b)
    c = scenegen.generate_frame(cfg, pools["val"], seed=3, frame_idx=2)
    assert frame_to_json_line(a) != frame_to_json_line(c)


def test_generated_frames_validate_and_close():
    cfg = small_cfg(frames_per_split={"train": 40, "val": 2, "test": 2})
    pools = scenegen.build_identity_pools(cfg, seed=9)
    for idx in range(40):
        frame = scenegen.generate_frame(cfg, pools["train"], seed=9, frame_idx=idx)  # checked when built
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
    cfg = small_cfg(persons_range=(4, 6), pool_sizes={"train": 2, "val": 2, "test": 2})
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
    cfg = small_cfg(birds_eye_prob=1.0)
    pools = scenegen.build_identity_pools(cfg, seed=1)
    frame = scenegen.generate_frame(cfg, pools["train"], seed=1, frame_idx=0)
    assert "birds_eye" in frame.scene_tags
    # camera z axis (third row) points straight down in world coordinates
    forward_world = frame.camera.rotation[2]
    assert forward_world[2] == pytest.approx(-1.0, abs=1e-12)


def test_birds_eye_is_the_one_drawn_tag_and_the_first_uniform_of_a_frame():
    assert [key for key in scenegen.default_config("scene") if key.startswith("tag.")] == ["tag.birds_eye"]
    for birds_eye in (0.2, 0.0, 1.0):
        cfg = small_cfg(birds_eye_prob=birds_eye)
        data = generate_dataset(cfg, seed=3)
        for split_index, split in enumerate(scenegen.SPLIT_NAMES):
            for idx, frame in enumerate(data[split]):
                first = SplitMix64(mix_seed(3, 0xF0 + split_index, idx)).uniform()
                assert ("birds_eye" in frame.scene_tags) == (first < birds_eye)
                assert frame.scene_tags <= {"birds_eye", "heavy_occlusion"}
        frames = [f for split in data.values() for f in split]
        assert any("birds_eye" in f.scene_tags for f in frames) == (birds_eye > 0)
        assert all("birds_eye" in f.scene_tags for f in frames) == (birds_eye == 1.0)


def test_subset_presets_name_the_two_scene_tags():
    assert evalharness.SUBSETS == {
        "all": (set(), set()),
        "S1": (set(), {"heavy_occlusion"}),
        "S2": ({"birds_eye"}, set()),
    }


def test_heavy_occlusion_tags_the_frames_whose_hidden_share_reaches_the_threshold(tmp_path):
    # The share is recomputed from the written JSONL: the in-image keypoints
    # with visible 0 over all in-image keypoints.
    outcomes = set()
    for seed in (1, 2):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0
        for split in scenegen.SPLIT_NAMES:
            for line in (tmp_path / str(seed) / f"{split}.jsonl").read_text().splitlines():
                frame = json.loads(line)
                flags = [visible for person in frame["persons"] for x, y, _, visible in person["keypoints"]
                         if 0 <= x < frame["image_w"] and 0 <= y < frame["image_h"]]
                heavy = bool(flags) and flags.count(0) / len(flags) >= scenegen.HEAVY_OCCLUSION_SHARE
                assert ("heavy_occlusion" in frame["scene_tags"]) == heavy, frame["frame_id"]
                outcomes.add(heavy)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def default_scenes():
    """Every frame of the default scene at seeds 1-3."""
    cfg = scenegen.scene_config_from_pairs({})
    return [f for seed in (1, 2, 3) for frames in generate_dataset(cfg, seed).values() for f in frames]


def in_image_keypoints_outside_their_bbox(frames) -> list[str]:
    return [
        f"{person.person_id} keypoint {kp}"
        for frame in frames
        for person in frame.persons
        for kp, (x, y, _, _) in enumerate(person.keypoints)
        if 0 <= x < frame.image_w and 0 <= y < frame.image_h
        and not (person.bbox_px[0] <= x <= person.bbox_px[2] and person.bbox_px[1] <= y <= person.bbox_px[3])
    ]


def test_every_in_image_keypoint_lies_in_its_own_bbox(default_scenes):
    assert in_image_keypoints_outside_their_bbox(default_scenes) == []
    dense = generate_dataset(scenegen.scene_config_from_pairs(DENSE_PAIRS), seed=1)["test"]
    assert len(dense) == 2
    assert in_image_keypoints_outside_their_bbox(dense) == []


def test_sigma0_part_map_holds_each_kept_persons_volume_in_their_bbox(default_scenes):
    # A map's mass over a region is the volume in it: each person that
    # decoupling keeps (no other bbox overlaps theirs) finds exactly their
    # own volume inside their bbox.
    kept = 0
    for frame in default_scenes:
        dmap = render_ppvdm(frame, default_taxonomy(), smoothing(sigma_px=0.0))
        overlapping = evalharness._overlapping([p.bbox_px for p in frame.persons], 0.0)
        for person, overlaps in zip(frame.persons, overlapping):
            if not overlaps:
                kept += 1
                assert integrate(dmap, person.bbox_px) == pytest.approx(person.volume_dm3, rel=1e-12, abs=0)
    assert kept > 100


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_split_identities_disjoint():
    cfg = small_cfg()
    data = generate_dataset(cfg, seed=11)
    ids = {
        split: {p.character_id for f in frames for p in f.persons}
        for split, frames in data.items()
    }
    assert ids["train"] & ids["val"] == set()
    assert ids["train"] & ids["test"] == set()
    assert ids["val"] & ids["test"] == set()


def test_dataset_frame_counts():
    cfg = small_cfg()
    data = generate_dataset(cfg, seed=12)
    assert len(data["train"]) == 4
    assert len(data["val"]) == 2
    assert len(data["test"]) == 3


def test_dataset_regeneration_identical():
    cfg = small_cfg()
    a = generate_dataset(cfg, seed=13)
    b = generate_dataset(cfg, seed=13)
    for split in a:
        assert [frame_to_json_line(f) for f in a[split]] == [frame_to_json_line(f) for f in b[split]]


def test_workers_do_not_change_output():
    cfg = small_cfg()
    serial = generate_dataset(cfg, seed=14, workers=1)
    parallel = generate_dataset(cfg, seed=14, workers=3)
    for split in serial:
        assert [frame_to_json_line(f) for f in serial[split]] == [
            frame_to_json_line(f) for f in parallel[split]
        ]


def test_scene_config_keeps_partial_model_overrides():
    cfg = scenegen.scene_config_from_pairs({"gender_mix": "0.25"})
    assert cfg.model.gender_mix == 0.25
    assert cfg.model.male == scenegen.scene_config_from_pairs({}).model.male


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_splitmix_scalar_matches_batch():
    a = SplitMix64(99)
    scalars = [a.uniform() for _ in range(64)]
    b = SplitMix64(99)
    assert np.array_equal(np.array(scalars), uniforms(b, 64))


def test_splitmix_normals_match():
    """An untruncated normal draw inverts the CDF of exactly one uniform, with
    the bits of mean + std * ndtri(u), so a population sampler's stream stays
    aligned draw for draw."""
    mu, sigma = 0.4885800148186709, 0.04  # the shipped female log height
    for mean, std in ((0.0, 1.0), (mu, sigma)):
        a = SplitMix64(7)
        scalars = [anthro._truncated_normal(a, mean, std, -math.inf, math.inf) for _ in range(5_000)]
        b = SplitMix64(7)
        assert scalars == [mean + std * ndtri(u) for u in uniforms(b, 5_000).tolist()]
        assert a.uniform() == b.uniform()


def test_splitmix_uniform_stays_below_one():
    """At this seed the first output has its top 53 bits set, where
    (2**53 - 0.5) * 2**-53 rounds to 1.0 and its normal to inf; that draw
    takes the largest double below 1, and no other draw moves."""
    seed = 0x31628AF67B2131AB
    below_one = math.nextafter(1.0, 0.0)
    z = SplitMix64(seed).next_u64s(1000)
    unclamped = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert unclamped[0] == 1.0
    rng = SplitMix64(seed)
    draws = [rng.uniform() for _ in range(1000)]
    assert draws[0] == below_one and draws[1:] == unclamped[1:].tolist()
    assert uniforms(SplitMix64(seed), 1000).tolist() == draws
    assert math.isfinite(anthro._truncated_normal(SplitMix64(seed), 0.0, 1.0, -math.inf, math.inf))


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
