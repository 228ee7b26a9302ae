"""The array code of the dense path against the loop versions it replaced.

`loop_reference` keeps the per-pair placement and occlusion loops, the
per-stamp kernel and the pairwise box-overlap loop. Frames, maps and
decoupling reports must equal theirs exactly.
"""
import math

import numpy as np
import pytest

import loop_reference as ref
from conftest import make_frame, make_person
from crowdvol import evalharness as eh
from crowdvol import scenegen
from crowdvol.datamodel import Keypoint, frame_to_json_line
from crowdvol.densitymap import SmoothingConfig, render_ppvdm, render_vdm

# A dense crowd at 1920x1080, as in the benchmark's dense workload.
DENSE_PAIRS = {
    "image_w": "1920",
    "image_h": "1080",
    "focal.lo": "1000.0",
    "focal.hi": "1200.0",
    "persons.min": "280",
    "persons.max": "320",
    "area.w": "12.0",
    "area.d": "40.0",
    "area.y0": "10.0",
    "tag.birds_eye": "0.0",
    "frames.train": "0",
    "frames.val": "0",
    "frames.test": "2",
}

SIGMAS = (0.0, 1.5, 4.0)


@pytest.fixture(scope="module")
def dense_frames():
    """(new, reference) frame pairs of the dense scene, seeds 0-2."""
    cfg = scenegen.scene_config_from_pairs(DENSE_PAIRS)
    pairs = []
    for seed in range(3):
        pool = scenegen.build_identity_pools(cfg, seed)["test"]
        for idx in range(cfg.frames_for("test")):
            pairs.append((
                scenegen.generate_frame(cfg, pool, seed, idx),
                ref.generate_frame(cfg, pool, seed, idx),
            ))
    return pairs


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def assert_same_json(new, old):
    """Equal JSON lines; on a mismatch, show only the text around the first
    difference (pytest's diff of two long lines takes minutes)."""
    a, b = frame_to_json_line(new), frame_to_json_line(old)
    if a != b:
        at = next((k for k, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
        pytest.fail(f"{new.frame_id}: JSON differs at {at}: {a[at - 60:at + 60]!r} != {b[at - 60:at + 60]!r}")


def test_dense_frames_match_loop_reference(dense_frames):
    for new, old in dense_frames:
        assert new.n_persons >= 280
        assert_same_json(new, old)
    hidden = sum(not kp.visible for new, _ in dense_frames for p in new.persons for kp in p.keypoints)
    assert hidden > 0


def test_default_scene_frames_match_loop_reference():
    cfg = scenegen.SceneConfig()
    tags: set[str] = set()
    for seed in range(10):
        pools = scenegen.build_identity_pools(cfg, seed)
        for split in scenegen.SPLIT_NAMES:
            for idx in range(cfg.frames_for(split)):
                new = scenegen.generate_frame(cfg, pools[split], seed, idx)
                old = ref.generate_frame(cfg, pools[split], seed, idx)
                assert_same_json(new, old)
                tags |= new.scene_tags
    assert {"birds_eye", "heavy_occlusion"} <= tags


def test_rigid_rows_equal_single_matvecs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rot = rng.normal(size=(3, 3))
        points = rng.normal(size=(17, 3)) * rng.uniform(0.1, 50.0)
        shift = rng.normal(size=3) * 10.0
        rows = scenegen._rigid(rot, points, shift)
        assert np.array_equal(rows, np.array([rot @ p + shift for p in points]))


def test_disc_grid_matches_all_pairs_near_cell_edges():
    rng = np.random.default_rng(11)
    radii = rng.uniform(0.2, 0.4, size=60)
    grid = scenegen._DiscGrid(float(radii.max()))
    cell = grid.cell
    placed: list[tuple[float, float, float]] = []
    # A lattice of discs one cell apart, centred on and just beside cell
    # edges, on both sides of x = 0.
    for k, r in enumerate(radii):
        x = float((k % 9 - 4) * cell + rng.choice([-1e-12, 0.0, 1e-12]))
        y = float((k // 9 - 3) * cell + rng.choice([-1e-12, 0.0, 1e-12]))
        if not ref.disc_conflict(x, y, float(r), placed):
            grid.add(x, y, float(r))
            placed.append((x, y, float(r)))
    assert len(placed) == len(radii)
    for qx, qy, qr in placed:
        # Candidates at the conflict distance, just inside and just outside,
        # in every direction: these cross cell edges.
        for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            for r in (0.2, float(radii.max())):
                for d in (qr + r - 1e-9, qr + r, qr + r + 1e-9):
                    x = qx + d * math.cos(angle)
                    y = qy + d * math.sin(angle)
                    assert grid.overlaps(x, y, r) == ref.disc_conflict(x, y, r, placed)
    for x, y in rng.uniform(-5.0 * cell, 5.0 * cell, size=(2000, 2)):
        assert grid.overlaps(float(x), float(y), 0.3) == ref.disc_conflict(float(x), float(y), 0.3, placed)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def _edge_frame(w: int, h: int):
    """Heads and keypoints on and within a kernel radius of every edge and
    corner, including the half-open band [size - 0.5, size)."""
    spots = []
    for x in (0.0, 0.4, 0.5, 3.0, 7.0, w / 2.0, w - 7.2, w - 1.0, w - 0.5, w - 1e-9):
        for y in (0.0, 0.5, 5.6, h / 2.0, h - 6.0, h - 0.5, h - 1e-9):
            if 0 <= x < w and 0 <= y < h:
                spots.append((x, y))
    persons = []
    for k, (x, y) in enumerate(spots):
        kx, ky = spots[(k * 5 + 3) % len(spots)]
        keypoints = (
            Keypoint(x=kx, y=ky, part_id=1, visible=True),
            Keypoint(x=x, y=ky, part_id=1, visible=k % 3 != 0),
            Keypoint(x=kx, y=y, part_id=2, visible=True),
            Keypoint(x=-1.0, y=-1.0, part_id=2, visible=False),
        )
        persons.append(make_person(
            person_id=f"p{k}", head=(x, y), volume=60.0 + k,
            parts={0: 10.0, 1: 30.0 + k, 2: 20.0, 3: 0.0}, keypoints=keypoints,
        ))
    return make_frame(persons, w=w, h=h)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", [(64, 48), (20, 10), (7, 41)])
def test_maps_at_edges_and_corners_match_per_stamp_kernels(sigma, size):
    frame = _edge_frame(*size)
    cfg = SmoothingConfig(sigma_px=sigma)
    assert np.array_equal(render_vdm(frame, cfg).values, ref.render_vdm(frame, cfg).values)
    assert np.array_equal(render_ppvdm(frame, None, cfg).values, ref.render_ppvdm(frame, None, cfg).values)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_dense_maps_match_per_stamp_kernels(dense_frames, sigma):
    frame = dense_frames[0][0]
    cfg = SmoothingConfig(sigma_px=sigma)
    assert np.array_equal(render_ppvdm(frame, None, cfg).values, ref.render_ppvdm(frame, None, cfg).values)
    assert np.array_equal(render_vdm(frame, cfg).values, ref.render_vdm(frame, cfg).values)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def _grid_box_frame(n: int, seed: int):
    """n boxes on an integer grid, so shared edges, identical and nested
    boxes all occur."""
    rng = np.random.default_rng(seed)
    persons = []
    for k in range(n):
        x0, y0 = (int(v) for v in rng.integers(0, 60, size=2))
        bw, bh = (int(v) for v in rng.integers(1, 12, size=2))
        box = (float(x0), float(y0), float(min(x0 + bw, 64)), float(min(y0 + bh, 64)))
        persons.append(make_person(person_id=f"p{k}", head=(box[0], box[1]), volume=50.0 + k,
                                   parts={0: 50.0 + k}, bbox=box))
    return make_frame(persons, frame_id=f"grid{seed}")


@pytest.mark.parametrize("threshold", [0.0, 0.3])
def test_decoupling_matches_pairwise_loop(dense_frames, threshold):
    frames = [
        make_frame([], frame_id="empty"),
        make_frame([make_person()], frame_id="single"),
        dense_frames[0][0],
        _grid_box_frame(300, 1),
        _grid_box_frame(40, 2),
    ]
    maps = eh.PredictionSet({f.frame_id: render_vdm(f, SmoothingConfig(sigma_px=0.0)) for f in frames})
    got = eh.decoupling_eval(frames, maps, iou_threshold=threshold)
    want = ref.decoupling_eval(frames, maps, iou_threshold=threshold)
    assert got == want
    assert 0 < got.dropped_overlap < got.total_persons


def test_overlap_flags_flip_exactly_at_the_reference_iou():
    # A threshold one ulp below the loop's IoU drops both boxes and the IoU
    # itself keeps both, so the array IoU must equal it to the last bit.
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        a, b = (
            (float(x0), float(y0), float(x0 + w), float(y0 + h))
            for x0, y0, w, h in rng.uniform([0, 0, 5, 5], [10, 10, 20, 20], size=(2, 4))
        )
        iou = ref.bbox_iou(a, b)
        if iou == 0.0:
            continue
        assert eh._overlapping([a, b], float(np.nextafter(iou, 0.0))) == [True, True]
        assert eh._overlapping([a, b], iou) == [False, False]
        checked += 1
    assert checked > 250
