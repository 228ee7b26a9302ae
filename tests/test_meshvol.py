import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import split_reference
from crowdvol import meshvol, scenegen
from crowdvol.datamodel import TriMesh, default_taxonomy
from crowdvol.rng import SplitMix64
from conftest import (
    make_box,
    make_icosphere,
    make_pinched_octahedra,
    make_random_convex,
    make_stacked_cubes,
    make_tetrahedron,
    make_w_notch_prism,
)


# ---------------------------------------------------------------------------
# signed_volume
# ---------------------------------------------------------------------------

def test_unit_cube_volume(unit_cube):
    assert meshvol.signed_volume(unit_cube) == pytest.approx(1.0, abs=1e-15)


def test_tetrahedron_volume_exact():
    # hand integration: V = |det([v1-v0, v2-v0, v3-v0])| / 6 = 1/6
    vol = meshvol.signed_volume(make_tetrahedron())
    assert abs(vol - 1.0 / 6.0) <= 1e-12


def test_icosphere_close_to_and_below_ball():
    ball = 4.0 * math.pi / 3.0
    vol = meshvol.signed_volume(make_icosphere(radius=1.0, subdivisions=4))
    assert vol < ball
    assert abs(vol - ball) / ball < 0.01


def test_inverted_orientation_is_an_error():
    with pytest.raises(meshvol.InvertedOrientationError):
        meshvol.signed_volume(make_box(flip=True))


def test_non_watertight_is_an_error(unit_cube):
    open_mesh = TriMesh(vertices=unit_cube.vertices, faces=unit_cube.faces[:-1])
    with pytest.raises(meshvol.NonWatertightError):
        meshvol.signed_volume(open_mesh)


def test_volume_against_qhull_oracle():
    for seed in range(20):
        mesh, hull_volume = make_random_convex(seed)
        assert meshvol.signed_volume(mesh) == pytest.approx(hull_volume, rel=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(11)
    for seed in range(100):
        mesh, _ = make_random_convex(seed)
        base = meshvol.signed_volume(mesh)
        shift = rng.uniform(-100.0, 100.0, size=3)
        moved = TriMesh(vertices=mesh.vertices + shift, faces=mesh.faces)
        assert abs(meshvol.signed_volume(moved) - base) <= 1e-9 * base


def test_scaling_covariance():
    rng = np.random.default_rng(12)
    for seed in range(100):
        mesh, _ = make_random_convex(seed)
        base = meshvol.signed_volume(mesh)
        sx, sy, sz = rng.uniform(0.3, 3.0, size=3)
        scaled = TriMesh(vertices=mesh.vertices * [sx, sy, sz], faces=mesh.faces)
        assert abs(meshvol.signed_volume(scaled) - sx * sy * sz * base) <= 1e-9 * sx * sy * sz * base


def test_empty_mesh_volume_zero():
    empty = TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64))
    assert meshvol.signed_volume(empty) == 0.0


# ---------------------------------------------------------------------------
# is_watertight
# ---------------------------------------------------------------------------

def test_watertight_cube(unit_cube):
    ok, bad = meshvol.is_watertight(unit_cube)
    assert ok and bad == []


def test_cube_missing_face_exposes_three_edges(unit_cube):
    open_mesh = TriMesh(vertices=unit_cube.vertices, faces=unit_cube.faces[:-1])
    ok, bad = meshvol.is_watertight(open_mesh)
    assert not ok
    assert len(bad) == 3


def test_two_disjoint_cubes_watertight():
    a = make_box()
    b = make_box(origin=(5.0, 0.0, 0.0))
    both = TriMesh(
        vertices=np.concatenate([a.vertices, b.vertices]),
        faces=np.concatenate([a.faces, b.faces + 8]),
    )
    ok, bad = meshvol.is_watertight(both)
    assert ok and bad == []
    assert meshvol.signed_volume(both) == pytest.approx(2.0, abs=1e-14)


def test_duplicated_face_not_watertight(unit_cube):
    doubled = TriMesh(
        vertices=unit_cube.vertices,
        faces=np.concatenate([unit_cube.faces, unit_cube.faces[:1]]),
    )
    ok, bad = meshvol.is_watertight(doubled)
    assert not ok and bad


def _broken_variants(faces: np.ndarray) -> list[np.ndarray]:
    """The faces as given, with the last one missing, with the first one
    duplicated, with the first one flipped, and all of them twice over."""
    return [faces, faces[:-1], np.concatenate([faces, faces[:1]]),
            np.concatenate([faces[:1, ::-1], faces[1:]]), np.concatenate([faces, faces])]


def test_watertight_matches_binary_search_reference(unit_cube):
    rng = np.random.default_rng(5)
    cases = [(unit_cube, faces) for faces in _broken_variants(unit_cube.faces)]
    for seed in range(20):
        hull, _ = make_random_convex(seed)
        cases += [(hull, hull.faces), (hull, np.delete(hull.faces, rng.integers(hull.n_faces), axis=0))]
    n_open = 0
    for mesh, faces in cases:
        broken = TriMesh(vertices=mesh.vertices, faces=faces)
        got = meshvol.is_watertight(broken)
        assert got == split_reference.is_watertight(broken)
        n_open += not got[0]
    assert n_open == 4 + 20


# ---------------------------------------------------------------------------
# fit_boundary_plane
# ---------------------------------------------------------------------------

def _brute_force_best_plane(pts: np.ndarray, tol: float):
    """Independent re-implementation of the selection rule: enumerate all
    triples, apply (max traversed, min RMS, lexicographic) by hand."""
    best = None
    for i, j, k in combinations(range(len(pts)), 3):
        cr = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(cr)
        if norm <= 1e-12:
            continue
        n = cr / norm
        d = float(n @ pts[i])
        for comp in n:
            if comp != 0.0:
                if comp < 0.0:
                    n, d = -n, -d
                break
        dist = np.abs(pts @ n - d)
        count = int((dist <= tol).sum())
        outside = dist[dist > tol]
        rms = float(np.sqrt(np.mean(outside**2))) if outside.size else 0.0
        key = (-count, rms, n[0], n[1], n[2], d)
        if best is None or key < best[0]:
            best = (key, n, d)
    return best[1], best[2]


def test_coplanar_points_recovered_exactly():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), np.zeros(10)])
    fit = meshvol.fit_boundary_plane(pts, tol=5e-3)
    assert np.array_equal(fit.plane.normal, [0.0, 0.0, 1.0])
    assert fit.plane.offset == 0.0
    assert len(fit.traversed) == 10
    assert fit.rms_distance == 0.0


def test_square_plus_apex_matches_exhaustive_oracle():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 1.0]], dtype=float)
    tol = 5e-3
    fit = meshvol.fit_boundary_plane(pts, tol)
    oracle_n, oracle_d = _brute_force_best_plane(pts, tol)
    assert np.array_equal(fit.plane.normal, oracle_n)
    assert fit.plane.offset == oracle_d
    assert np.array_equal(fit.plane.normal, [0.0, 0.0, 1.0])
    assert fit.plane.offset == 0.0
    assert sorted(fit.traversed.tolist()) == [0, 1, 2, 3]
    assert fit.rms_distance == pytest.approx(1.0)


def test_random_point_clouds_match_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pts = rng.normal(size=(9, 3))
        tol = 0.3
        fit = meshvol.fit_boundary_plane(pts, tol)
        oracle_n, oracle_d = _brute_force_best_plane(pts, tol)
        # same candidate selected; normal/offset may differ in the last ulp
        # because the oracle accumulates dot products differently
        assert np.allclose(fit.plane.normal, oracle_n, atol=1e-12)
        assert fit.plane.offset == pytest.approx(oracle_d, abs=1e-12)


def test_three_points_unique_plane():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]], dtype=float)
    fit = meshvol.fit_boundary_plane(pts, tol=1e-6)
    assert len(fit.traversed) == 3
    assert np.allclose(np.abs(pts @ fit.plane.normal - fit.plane.offset), 0.0, atol=1e-12)


def test_collinear_points_error():
    pts = np.array([[float(i), 2.0 * i, 0.0] for i in range(6)])
    with pytest.raises(meshvol.CollinearPointsError):
        meshvol.fit_boundary_plane(pts)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_fit_rejects_tolerance_outside_zero_to_inf(tol):
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError, match="plane tolerance must be positive and finite"):
        meshvol.fit_boundary_plane(pts, tol)


def test_fit_is_deterministic_on_large_sets():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(60, 3))  # above the exhaustive limit
    a = meshvol.fit_boundary_plane(pts, tol=0.2)
    b = meshvol.fit_boundary_plane(pts, tol=0.2)
    assert np.array_equal(a.plane.normal, b.plane.normal)
    assert a.plane.offset == b.plane.offset
    assert np.array_equal(a.traversed, b.traversed)


@pytest.mark.parametrize("n_pts", [9, 25, 31, 80, 300])
def test_fit_matches_full_rms_reference(n_pts):
    """Noisy points near a plane, with some outside the tolerance, so the
    RMS of the tied candidates is summed; coarse coordinates make ties."""
    rng = np.random.default_rng(n_pts)
    for trial in range(6):
        pts = np.column_stack([rng.uniform(-1, 1, (n_pts, 2)), rng.normal(0.0, 0.02, n_pts)])
        if trial % 2:
            pts = np.round(pts * 20.0) / 20.0
        got = meshvol.fit_boundary_plane(pts, tol=0.01)
        want = split_reference.fit_boundary_plane(pts, tol=0.01)
        assert 0 < len(got.traversed) < n_pts and got.rms_distance > 0.0
        assert np.array_equal(got.plane.normal, want.plane.normal)
        assert got.plane.offset == want.plane.offset
        assert np.array_equal(got.traversed, want.traversed)
        assert got.rms_distance == want.rms_distance


# ---------------------------------------------------------------------------
# split_by_plane
# ---------------------------------------------------------------------------

def test_split_cube_in_half(unit_cube):
    plane = meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=0.5)
    neg, pos = meshvol.split_by_plane(unit_cube, plane)
    assert meshvol.signed_volume(neg) == pytest.approx(0.5, rel=1e-12)
    assert meshvol.signed_volume(pos) == pytest.approx(0.5, rel=1e-12)
    assert meshvol.is_watertight(neg)[0]
    assert meshvol.is_watertight(pos)[0]


def test_split_plane_misses_mesh(unit_cube):
    plane = meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=-4.0)
    neg, pos = meshvol.split_by_plane(unit_cube, plane)
    assert neg.n_faces == 0
    assert meshvol.signed_volume(pos) == pytest.approx(1.0, abs=1e-15)


def test_split_additivity_on_random_convex_meshes():
    rng = np.random.default_rng(31)
    for seed in range(100):
        mesh, _ = make_random_convex(seed)
        parent = meshvol.signed_volume(mesh)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        interior = mesh.vertices.mean(axis=0) + rng.normal(scale=0.2, size=3)
        plane = meshvol.Plane(normal=normal, offset=float(normal @ interior))
        neg, pos = meshvol.split_by_plane(mesh, plane)
        child_sum = meshvol.signed_volume(neg) + meshvol.signed_volume(pos)
        assert abs(child_sum - parent) <= 1e-9 * parent
        assert meshvol.is_watertight(neg)[0]
        assert meshvol.is_watertight(pos)[0]


def test_split_through_exact_vertices(unit_cube):
    # plane through the bottom face: all of its vertices have exact sign 0
    plane = meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0)
    neg, pos = meshvol.split_by_plane(unit_cube, plane)
    assert meshvol.signed_volume(neg) == 0.0
    assert meshvol.signed_volume(pos) == pytest.approx(1.0, abs=1e-15)


def _assert_same_halves(mesh, plane):
    got = meshvol.split_by_plane(mesh, plane)
    want = split_reference.split_by_plane(mesh, plane)
    for g, w in zip(got, want):
        assert np.array_equal(g.vertices, w.vertices)
        assert np.array_equal(g.faces, w.faces)


def test_split_matches_loop_reference():
    rng = np.random.default_rng(41)
    for seed in range(20):
        mesh, _ = make_random_convex(seed)
        for _ in range(3):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            interior = mesh.vertices.mean(axis=0) + rng.normal(scale=0.3, size=3)
            _assert_same_halves(mesh, meshvol.Plane(normal=normal, offset=float(normal @ interior)))
        # a plane through one hull vertex puts a sign-0 vertex on the cut
        _assert_same_halves(mesh, meshvol.Plane(normal=normal, offset=float(normal @ mesh.vertices[seed])))
    cube = make_box()
    for offset in (0.0, 0.5, 1.0):
        _assert_same_halves(cube, meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=offset))
    diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    _assert_same_halves(cube, meshvol.Plane(normal=diagonal, offset=float(diagonal @ [1.0, 0.0, 0.0])))
    sphere = make_icosphere(radius=1.0, subdivisions=3)
    tilted = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    for offset in (0.0, 0.3, -0.7):
        _assert_same_halves(sphere, meshvol.Plane(normal=tilted, offset=offset))
        _assert_same_halves(sphere, meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=offset))


def test_pinched_cross_section_splits_into_simple_loops():
    mesh = make_pinched_octahedra()
    neg, pos = meshvol.split_by_plane(mesh, meshvol.Plane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0))
    for half in (neg, pos):
        assert meshvol.is_watertight(half) == (True, [])
        assert abs(meshvol.signed_volume(half) - 4.0 / 3.0) <= 1e-12


_PINCH_SCRIPT = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from conftest import make_pinched_octahedra
from crowdvol import meshvol
halves = meshvol.split_by_plane(make_pinched_octahedra(), meshvol.Plane(np.array([0.0, 0.0, 1.0]), 0.0))
print(hashlib.sha256(b"".join(h.vertices.tobytes() + h.faces.tobytes() for h in halves)).hexdigest())
"""


def test_pinched_split_independent_of_hash_seed():
    tests_dir = Path(__file__).resolve().parent
    src = str(tests_dir.parent / "src")
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _PINCH_SCRIPT, str(tests_dir)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("up", [1.0, -1.0])
def test_w_notch_prism_cut_at_pinch_height(up):
    # The notch tips lie on the cut, so the teeth above it touch the block
    # below only along the tip lines.
    mesh = make_w_notch_prism()
    neg, pos = meshvol.split_by_plane(mesh, meshvol.Plane(normal=np.array([0.0, 0.0, up]), offset=up))
    below, teeth = (neg, pos) if up > 0 else (pos, neg)
    assert meshvol.signed_volume(below) == pytest.approx(4.0, rel=1e-12)
    assert meshvol.signed_volume(teeth) == pytest.approx(2.0, rel=1e-12)
    assert meshvol.is_watertight(neg)[0] and meshvol.is_watertight(pos)[0]
    _assert_same_halves(mesh, meshvol.Plane(normal=np.array([0.0, 0.0, up]), offset=up))


def test_unclosable_boundary_is_a_mesh_error():
    # Faces (0, 1, 2) and (0, 1, 3) share the directed edge (0, 1): vertex 0
    # then has two incoming open edges and one outgoing, so no loop closes.
    faces = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
    with pytest.raises(meshvol.MeshError, match="does not close"):
        meshvol._boundary_loops(faces, np.ones(4, dtype=bool))


@pytest.mark.parametrize("n_pts", [31, 100, 6914])
def test_candidate_triples_match_scalar_draws(n_pts):
    rng = SplitMix64(meshvol._PLANE_SEARCH_SEED)
    rows = []
    for _ in range(meshvol._RANDOM_TRIPLES):
        i, j, k = (rng.randint(0, n_pts - 1) for _ in range(3))
        if i != j and j != k and i != k:
            rows.append((i, j, k))
    assert np.array_equal(meshvol._candidate_triples(n_pts), np.array(rows, dtype=np.int64))


# ---------------------------------------------------------------------------
# split_parts
# ---------------------------------------------------------------------------

def test_single_part_labeling(unit_cube):
    labeled = TriMesh(
        vertices=unit_cube.vertices,
        faces=unit_cube.faces,
        vertex_labels=np.zeros(8, dtype=np.int64),
    )
    parts = meshvol.split_parts(labeled, default_taxonomy())
    assert set(parts.volumes) == {0}
    assert parts.volumes[0] == pytest.approx(1000.0, rel=1e-12)
    assert parts.total_dm3 == pytest.approx(1000.0, rel=1e-12)


def test_two_stacked_cubes_split_at_shared_ring():
    mesh = make_stacked_cubes()
    parts = meshvol.split_parts(mesh, default_taxonomy())
    assert parts.volumes[0] == pytest.approx(1000.0, rel=1e-9)
    assert parts.volumes[1] == pytest.approx(1000.0, rel=1e-9)
    assert parts.total_dm3 == pytest.approx(2000.0, rel=1e-12)


def test_split_parts_requires_labels(unit_cube):
    with pytest.raises(Exception, match="labels"):
        meshvol.split_parts(unit_cube, default_taxonomy())


def _assert_same_adjacency(mesh):
    parts, boundaries = meshvol.part_adjacency(mesh)
    want_parts, want_boundaries = split_reference.part_adjacency(mesh)
    assert parts == want_parts and sorted(boundaries) == sorted(want_boundaries)
    for key, vertices in want_boundaries.items():
        assert boundaries[key].dtype == np.int64 and np.array_equal(boundaries[key], vertices)


def test_part_adjacency_matches_loop_reference():
    pools = scenegen.build_identity_pools(scenegen.SceneConfig(), 3)
    bodies = [char.body.mesh for pool in pools.values() for char in pool.characters]
    assert len(bodies) > 50
    for mesh in bodies + [make_stacked_cubes()]:
        _assert_same_adjacency(mesh)
    cube = make_box()
    for labels in (np.arange(8) % 3, np.zeros(8)):
        _assert_same_adjacency(TriMesh(vertices=cube.vertices, faces=cube.faces, vertex_labels=labels))


def test_non_tree_adjacency_rejected():
    # three parts pairwise adjacent around a single cube: 3 nodes, 3 edges
    cube = make_box()
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int64)
    mesh = TriMesh(vertices=cube.vertices, faces=cube.faces, vertex_labels=labels)
    with pytest.raises(meshvol.NonTreeAdjacencyError):
        meshvol.split_parts(mesh, default_taxonomy())


def test_single_face_parts_split_or_fail_plane_fit():
    # A part made of one hull face's three vertices is flat: its leaf volume
    # sums to rounding noise of either sign and must read as zero.
    taxonomy = default_taxonomy()
    split = 0
    for seed in range(60):
        mesh, hull_volume = make_random_convex(seed)
        for face in mesh.faces:
            labels = np.ones(mesh.n_vertices, dtype=np.int64)
            labels[face] = 0
            labeled = TriMesh(vertices=mesh.vertices, faces=mesh.faces, vertex_labels=labels)
            try:
                parts = meshvol.split_parts(labeled, taxonomy)
            except meshvol.PlaneFitError:
                continue
            split += 1
            assert abs(sum(parts.volumes.values()) - hull_volume * 1000.0) <= 1e-9 * hull_volume * 1000.0
    assert split > 0


def test_part_volumes_closure_validator():
    with pytest.raises(Exception, match="close"):
        meshvol.PartVolumes(volumes={0: 50.0, 1: 40.0}, total_dm3=100.0)
    meshvol.PartVolumes(volumes={0: 50.0, 1: 50.2}, total_dm3=100.0)  # within 0.5%
