"""The array code of the dense path against the loop versions it replaced.

`loop_reference` keeps the per-pair placement and occlusion loops, the
per-point projection in Python floats, the per-stamp kernel, the pairwise
box-overlap loop and the per-face volume term. Frames, maps, decoupling
reports and mesh volumes must equal theirs exactly.
"""
import itertools
import math

import numpy as np
import pytest

import loop_reference as ref
from conftest import (
    DENSE_PAIRS,
    identity_camera,
    make_frame,
    make_frusta_body,
    make_person,
    make_random_convex,
    smoothing,
)
from crowdvol import evalharness as eh
from crowdvol import meshvol, scenegen
from crowdvol.datamodel import Keypoint, TriMesh, default_taxonomy, frame_to_json_line
from crowdvol.densitymap import BoxGrid, render_ppvdm, render_vdm

SIGMAS = (0.0, 1.5, 4.0)


@pytest.fixture(scope="module")
def dense_frames():
    """(new, reference) frame pairs of the dense scene, seeds 0-2."""
    cfg = scenegen.scene_config_from_pairs(DENSE_PAIRS)
    pairs = []
    for seed in range(3):
        pool = scenegen.build_identity_pools(cfg, seed)["test"]
        for idx in range(cfg.frames_per_split["test"]):
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
    cfg = scenegen.scene_config_from_pairs({})
    tags: set[str] = set()
    for seed in range(10):
        pools = scenegen.build_identity_pools(cfg, seed)
        for split in scenegen.SPLIT_NAMES:
            for idx in range(cfg.frames_per_split[split]):
                new = scenegen.generate_frame(cfg, pools[split], seed, idx)
                old = ref.generate_frame(cfg, pools[split], seed, idx)
                assert_same_json(new, old)
                tags |= new.scene_tags
    assert {"birds_eye", "heavy_occlusion"} <= tags


def test_rigid_and_pinhole_batches_equal_scalar_floats():
    # Rows of poses against columns of points, as _project_bodies batches
    # them, give each point's bits in Python floats alone.
    rng = np.random.default_rng(5)
    cam = identity_camera(fx=1100.0, fy=1050.0, cx=961.5, cy=538.25)
    for _ in range(30):
        rot, shift = rng.normal(size=(7, 3, 3)), rng.normal(size=(7, 3)) * 10.0
        points = rng.normal(size=(17, 3)) * rng.uniform(0.1, 50.0)
        pose = np.concatenate([rot.reshape(7, 9), shift], axis=1).T[:, :, None]
        x, y, z = scenegen._rigid((pose[0:3], pose[3:6], pose[6:9]), points.T, pose[9:12])
        px, py = scenegen._pinhole(cam, x, y, z)
        for m in range(7):
            for k, point in enumerate(points.tolist()):
                want = ref.rigid(rot[m].tolist(), point, shift[m].tolist())
                assert [x[m, k], y[m, k], z[m, k]] == want
                assert (px[m, k], py[m, k]) == ref.pixel(want, cam)
                assert scenegen._rigid(rot[m].tolist(), point, shift[m].tolist()) == want


def all_pairs_hidden(boxes, depths, kx, ky, kz, owner):
    """The occlusion test on every keypoint-box pair, in blocks of keypoints."""
    hidden = []
    for s in range(0, len(kx), 500):
        x, y, z = kx[s:s + 500, None], ky[s:s + 500, None], kz[s:s + 500, None]
        covered = (
            (depths < z)
            & (boxes[:, 0] <= x) & (x <= boxes[:, 2])
            & (boxes[:, 1] <= y) & (y <= boxes[:, 3])
        )
        covered[np.arange(len(x)), owner[s:s + 500]] = False
        hidden.append(covered.any(axis=1))
    return np.concatenate(hidden)


CROWD_PAIRS = {
    **DENSE_PAIRS, "focal.lo": "300.0", "focal.hi": "320.0", "persons.min": "1000", "persons.max": "1000",
    "area.w": "60.0", "area.d": "80.0", "frames.test": "1",
}


@pytest.fixture(scope="module")
def crowd_frame():
    """The one test frame of 1,000 persons of the CROWD_PAIRS scene, seed 1."""
    cfg = scenegen.scene_config_from_pairs(CROWD_PAIRS)
    frame = scenegen.generate_frame(cfg, scenegen.build_identity_pools(cfg, 1)["test"], 1, 0)
    assert frame.n_persons == 1000
    return frame


def test_occlusion_grid_matches_all_pairs_on_a_crowd(crowd_frame):
    frame = crowd_frame
    boxes = np.array([p.bbox_px for p in frame.persons])
    kps = np.array([(kp.x, kp.y, i) for i, p in enumerate(frame.persons) for kp in p.keypoints
                    if 0 <= kp.x < frame.image_w and 0 <= kp.y < frame.image_h])
    # Keypoints on box corners and edges and on grid-cell edges, with
    # depths drawn so that many pairs tie on depth too.
    rng = np.random.default_rng(2)
    of = rng.integers(0, len(boxes), size=3000)
    corners = np.column_stack([boxes[of, rng.integers(0, 2, size=3000) * 2],
                               boxes[of, 1 + rng.integers(0, 2, size=3000) * 2],
                               (of + rng.integers(1, len(boxes), size=3000)) % len(boxes)])
    cells = np.column_stack([rng.integers(0, 60, size=1000) * 32.0, rng.uniform(0, 1080, size=1000),
                             rng.integers(0, len(boxes), size=1000)])
    kps = np.concatenate([kps, corners, cells])
    kps = kps[(kps[:, 0] < frame.image_w) & (kps[:, 1] < frame.image_h)]
    depths = rng.integers(10, 60, size=len(boxes)).astype(float)
    kz = rng.integers(10, 60, size=len(kps)).astype(float)
    kx, ky, owner = kps[:, 0], kps[:, 1], kps[:, 2].astype(np.int64)
    got = scenegen._occluded(boxes, depths, kx, ky, kz, owner)
    want = all_pairs_hidden(boxes, depths, kx, ky, kz, owner)
    assert np.array_equal(got, want)
    assert 0.1 < want.mean() < 0.9


def test_occlusion_grid_matches_all_pairs_on_image_wide_boxes():
    # Boxes that span the whole image make the grid coarsen its cells.
    rng = np.random.default_rng(4)
    w, h = 4000, 3000
    corners = np.sort(rng.uniform(0, [w, h], size=(2, 300, 2)), axis=0)
    boxes = np.concatenate([corners[0], corners[1]], axis=1)
    boxes[::3] = [0.0, 0.0, w, h]
    kx, ky = rng.uniform(0, w, size=5000), rng.uniform(0, h, size=5000)
    kz, depths = rng.uniform(1, 9, size=5000), rng.uniform(1, 9, size=300)
    owner = rng.integers(0, 300, size=5000)
    got = scenegen._occluded(boxes, depths, kx, ky, kz, owner)
    assert np.array_equal(got, all_pairs_hidden(boxes, depths, kx, ky, kz, owner))


def far_boxes(rng, n: int) -> np.ndarray:
    """Boxes around and past +-2**20 px, where BoxGrid clips coordinates,
    some reaching 1e9 px."""
    anchors = np.array([-3e6, -2.0**20, 0.0, 2.0**20 - 50.0, 2.0**20, 5e6])
    lo = anchors[rng.integers(0, len(anchors), size=(n, 2))] + rng.uniform(-100, 100, size=(n, 2))
    boxes = np.concatenate([lo, lo + rng.uniform(1, 200, size=(n, 2))], axis=1)
    boxes[::25, 2:] = 1e9
    return boxes


def test_occlusion_grid_matches_all_pairs_beyond_the_clipped_coordinates():
    rng = np.random.default_rng(6)
    boxes = far_boxes(rng, 300)
    of = rng.integers(0, 300, size=4000)
    kx = boxes[of, 2 * rng.integers(0, 2, size=4000)] + rng.choice([0.0, -1.0, 1.0], size=4000)
    ky = boxes[of, 1 + 2 * rng.integers(0, 2, size=4000)] + rng.choice([0.0, -1.0, 1.0], size=4000)
    kz, depths = rng.uniform(1, 9, size=4000), rng.uniform(1, 9, size=300)
    owner = rng.integers(0, 300, size=4000)
    want = all_pairs_hidden(boxes, depths, kx, ky, kz, owner)
    assert np.array_equal(scenegen._occluded(boxes, depths, kx, ky, kz, owner), want)
    assert 0.1 < want.mean() < 0.9


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
            person_id=f"p{k}", head=(x, y), volume=60.0 + k, bbox=(0.0, 0.0, float(w), float(h)),
            parts={0: 10.0, 1: 30.0 + k, 2: 20.0, 3: 0.0}, keypoints=keypoints,
        ))
    return make_frame(persons, w=w, h=h)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", [(64, 48), (20, 10), (7, 41)])
def test_maps_at_edges_and_corners_match_per_stamp_kernels(sigma, size):
    frame = _edge_frame(*size)
    cfg = smoothing(sigma_px=sigma)
    assert np.array_equal(render_vdm(frame, cfg).values, ref.render_vdm(frame, cfg).values)
    assert np.array_equal(render_ppvdm(frame, default_taxonomy(), cfg).values, ref.render_ppvdm(frame, default_taxonomy(), cfg).values)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_dense_maps_match_per_stamp_kernels(dense_frames, sigma):
    frame = dense_frames[0][0]
    cfg = smoothing(sigma_px=sigma)
    assert np.array_equal(render_ppvdm(frame, default_taxonomy(), cfg).values, ref.render_ppvdm(frame, default_taxonomy(), cfg).values)
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
    maps = {f.frame_id: render_vdm(f, smoothing(sigma_px=0.0)) for f in frames}
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


def pair_ious(boxes) -> list[list[float]]:
    """Each box's positive `bbox_iou` values with the other boxes, from the
    scalar loop on every pair."""
    boxes = [tuple(map(float, b)) for b in boxes]
    ious: list[list[float]] = [[] for _ in boxes]
    for i, j in itertools.combinations(range(len(boxes)), 2):
        iou = ref.bbox_iou(boxes[i], boxes[j])
        if iou > 0:
            ious[i].append(iou)
            ious[j].append(iou)
    return ious


def loop_overlapping(ious, threshold: float) -> list[bool]:
    """The overlap flags of the pairwise loop at `threshold` >= 0."""
    return [any(iou > threshold for iou in row) for row in ious]


def test_overlap_grid_matches_all_pairs_on_a_crowd(crowd_frame):
    boxes = [p.bbox_px for p in crowd_frame.persons]
    ious = pair_ious(boxes)
    # One ulp below a box's largest IoU flags it, and that IoU does not.
    largest = sorted(max(row) for row in ious if row)
    median = largest[len(largest) // 2]
    thresholds = (0.0, 0.3, float(np.nextafter(median, 0.0)), median)
    for threshold in thresholds:
        assert eh._overlapping(boxes, threshold) == loop_overlapping(ious, threshold)
    flags = [loop_overlapping(ious, threshold) for threshold in thresholds]
    assert 0 < sum(flags[1]) < sum(flags[0]) < len(boxes)
    assert flags[2] != flags[3]


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.9])
def test_overlap_grid_matches_all_pairs_on_image_wide_boxes(threshold):
    # Boxes that span most of the image make the grid coarsen its cells.
    rng = np.random.default_rng(4)
    w, h = 4000.0, 3000.0
    corners = np.sort(rng.uniform(0, [w, h], size=(2, 300, 2)), axis=0)
    boxes = np.concatenate([corners[0], corners[1]], axis=1)
    boxes[::3, :2] = rng.uniform(0, 50, size=(100, 2))
    boxes[::3, 2:] = [w, h] - rng.uniform(0, 50, size=(100, 2))
    assert BoxGrid(boxes).cell > 32.0
    assert eh._overlapping(boxes.tolist(), threshold) == loop_overlapping(pair_ious(boxes), threshold)


@pytest.mark.parametrize("threshold", [0.0, 0.3])
def test_overlap_grid_matches_all_pairs_beyond_the_clipped_coordinates(threshold):
    boxes = far_boxes(np.random.default_rng(7), 300)
    want = loop_overlapping(pair_ious(boxes), threshold)
    assert eh._overlapping(boxes.tolist(), threshold) == want
    assert 0 < sum(want) < len(want)


def test_boxes_touching_on_cell_lines_do_not_overlap():
    # A 2x2 block of cells with a fifth box at its corner: boxes share edges
    # and corners on the lines between the grid's 32 px cells, so each
    # intersection has zero area.
    c = 32.0
    boxes = [(0.0, 0.0, c, c), (c, 0.0, 2 * c, c), (c, c, 2 * c, 2 * c), (0.0, c, c, 2 * c),
             (2 * c, 2 * c, 3 * c, 3 * c)]
    assert BoxGrid(np.array(boxes)).cell == c
    assert eh._overlapping(boxes, 0.0) == loop_overlapping(pair_ious(boxes), 0.0) == [False] * 5
    # One ulp across the line x = 32 is a positive intersection.
    below = float(np.nextafter(c, 0.0))
    nudged = [boxes[0], (below, 2 * c, 2 * c, 3 * c), (below, 0.0, 2 * c, c)]
    assert eh._overlapping(nudged, 0.0) == loop_overlapping(pair_ious(nudged), 0.0) == [True, False, True]


def test_duplicate_boxes_overlap_with_iou_one():
    boxes = [(10.0, 20.0, 50.0, 120.0), (200.0, 20.0, 240.0, 120.0), (10.0, 20.0, 50.0, 120.0)]
    for threshold, want in ((0.0, [True, False, True]), (float(np.nextafter(1.0, 0.0)), [True, False, True]),
                            (1.0, [False, False, False])):
        assert eh._overlapping(boxes, threshold) == loop_overlapping(pair_ious(boxes), threshold) == want


def test_overlap_groups_pair_only_within_a_group(crowd_frame):
    # Frames in one grid, each a group: the flags are each frame's own, and
    # the same box in two frames is no overlap.
    frames = [[p.bbox_px for p in crowd_frame.persons[:400]], [p.bbox_px for p in crowd_frame.persons[300:700]],
              [crowd_frame.persons[0].bbox_px], [], [crowd_frame.persons[1].bbox_px] * 2]
    group = np.repeat(np.arange(len(frames)), [len(f) for f in frames])
    want = [flag for boxes in frames for flag in loop_overlapping(pair_ious(boxes), 0.0)]
    assert eh._overlapping([b for boxes in frames for b in boxes], 0.0, group) == want


def _shell(mesh, thickness: float):
    """`mesh` plus a copy shrunk by `thickness` about the vertex mean and
    turned inside out: a closed mesh whose volume is a small difference of
    large tetrahedron terms, so a term rounded another way moves its bits."""
    center = mesh.vertices.mean(axis=0)
    inner = center + (mesh.vertices - center) * (1.0 - thickness)
    return TriMesh(vertices=np.concatenate([mesh.vertices, inner]),
                   faces=np.concatenate([mesh.faces, mesh.faces[:, ::-1] + mesh.n_vertices]))


@pytest.mark.parametrize("seed", range(4))
def test_signed_volume_equals_per_face_float_loop(seed):
    convex, _ = make_random_convex(seed, n_points=300)
    for mesh in (convex, make_frusta_body(24 + seed, 3)):
        assert meshvol.signed_volume(mesh) == ref.signed_volume(mesh)
        assert meshvol.signed_volume(_shell(mesh, 1e-6)) == ref.signed_volume(_shell(mesh, 1e-6))
