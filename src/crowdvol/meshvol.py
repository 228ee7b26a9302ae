"""Watertight-mesh volumes, boundary-plane fitting, and part splitting.

Volumes come from the divergence theorem: V = sum over faces of
dot(v0, cross(v1, v2)) / 6 for an outward-oriented closed surface. Vertices
are re-centered on the mesh centroid first so the result is stable under
large world-space translations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .datamodel import TriMesh, PartTaxonomy, ValidationError
from .rng import SplitMix64

M3_TO_DM3 = 1000.0

# Default traversal tolerance for boundary-plane fitting, meters.
DEFAULT_PLANE_TOL = 5e-3

_PLANE_SEARCH_SEED = 0x13A5EEDB0A4D
_EXHAUSTIVE_LIMIT = 30
_RANDOM_TRIPLES = 2000
# Volumes within this many machine epsilons of diagonal**3 count as zero.
_ZERO_VOLUME_ULPS = 64


class MeshError(ValueError):
    """Base class for geometric failures."""


class NonWatertightError(MeshError):
    def __init__(self, edges: list[tuple[int, int]]):
        self.edges = edges
        preview = ", ".join(str(e) for e in edges[:8])
        more = "" if len(edges) <= 8 else f" (+{len(edges) - 8} more)"
        super().__init__(f"mesh is not watertight; offending edges: {preview}{more}")


class InvertedOrientationError(MeshError):
    pass


class CollinearPointsError(MeshError):
    pass


class PlaneFitError(MeshError):
    pass


class NonTreeAdjacencyError(MeshError):
    pass


@dataclass(frozen=True)
class Plane:
    """Oriented plane: point p lies on it iff dot(normal, p) == offset."""

    normal: np.ndarray  # (3,), unit length
    offset: float  # meters

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        if abs(float(np.linalg.norm(n)) - 1.0) > 1e-12:
            raise ValidationError("plane normal must be unit length")
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.normal - self.offset


@dataclass(frozen=True)
class PlaneFit:
    plane: Plane
    traversed: np.ndarray  # indices of points within tol of the plane
    rms_distance: float  # RMS distance of the non-traversed points


@dataclass(frozen=True)
class PartVolumes:
    """Per-part volumes in dm^3; parts must close to the total within 0.5%."""

    volumes: dict[int, float]
    total_dm3: float

    def __post_init__(self):
        part_sum = math.fsum(self.volumes.values())
        if self.total_dm3 <= 0:
            raise ValidationError("total volume must be positive")
        if abs(part_sum - self.total_dm3) > 5e-3 * self.total_dm3:
            raise ValidationError(
                f"part volumes sum {part_sum} does not close to total {self.total_dm3} within 0.5%"
            )


# ---------------------------------------------------------------------------
# Watertightness and volume
# ---------------------------------------------------------------------------

def _directed_edges(mesh: TriMesh) -> np.ndarray:
    f = mesh.faces
    return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)


def is_watertight(mesh: TriMesh) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every undirected edge is shared by exactly two faces with
    opposite directed orientation. The diagnostic lists offending edges."""
    if mesh.n_faces == 0:
        return True, []
    edges = _directed_edges(mesh)
    n = mesh.n_vertices
    keys = edges[:, 0] * n + edges[:, 1]
    rev_keys = edges[:, 1] * n + edges[:, 0]
    offenders: set[int] = set()
    uniq, counts = np.unique(keys, return_counts=True)
    offenders.update(int(k) for k in uniq[counts > 1])
    missing = np.setdiff1d(keys, rev_keys)
    offenders.update(int(k) for k in missing)
    if not offenders:
        return True, []
    bad = sorted((k // n, k % n) for k in offenders)
    return False, bad


def signed_volume(mesh: TriMesh) -> float:
    """Enclosed volume in m^3 of a watertight, outward-oriented mesh."""
    if mesh.n_faces == 0:
        return 0.0
    ok, bad_edges = is_watertight(mesh)
    if not ok:
        raise NonWatertightError(bad_edges)
    center = mesh.vertices.mean(axis=0)
    v = mesh.vertices - center
    a = v[mesh.faces[:, 0]]
    b = v[mesh.faces[:, 1]]
    c = v[mesh.faces[:, 2]]
    terms = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
    vol = math.fsum(terms.tolist())
    # A flat surface (a zero-volume leaf of split_parts) sums to rounding
    # noise of either sign. Its tetra terms are noise-sized too, so the noise
    # floor is scaled by the bounding-box diagonal cubed instead.
    diagonal = float(np.linalg.norm(np.ptp(v, axis=0)))
    if abs(vol) <= _ZERO_VOLUME_ULPS * np.finfo(np.float64).eps * diagonal**3:
        return 0.0
    if vol < 0:
        raise InvertedOrientationError(
            f"mesh encloses negative volume {vol}; orientation is inverted"
        )
    return vol


# ---------------------------------------------------------------------------
# Boundary-plane fitting
# ---------------------------------------------------------------------------

def _least_squares_plane(points: np.ndarray) -> tuple[np.ndarray, float] | None:
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        return None  # collinear point set
    n = vt[2] / np.linalg.norm(vt[2])
    return n, float(n @ centroid)


def _candidate_planes(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical candidate (normals, offsets); degenerate triples dropped."""
    n_pts = len(pts)
    if n_pts <= _EXHAUSTIVE_LIMIT:
        triples = np.array(list(combinations(range(n_pts), 3)), dtype=np.int64)
    else:
        rng = SplitMix64(_PLANE_SEARCH_SEED)
        rows = []
        for _ in range(_RANDOM_TRIPLES):
            i = rng.randint(0, n_pts - 1)
            j = rng.randint(0, n_pts - 1)
            k = rng.randint(0, n_pts - 1)
            if i != j and j != k and i != k:
                rows.append((i, j, k))
        triples = np.array(rows, dtype=np.int64)
    p0 = pts[triples[:, 0]]
    e1 = pts[triples[:, 1]] - p0
    e2 = pts[triples[:, 2]] - p0
    cr = np.cross(e1, e2)
    norms = np.linalg.norm(cr, axis=1)
    scale = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    valid = norms > 1e-12 * np.maximum(scale, 1e-300)
    normals = cr[valid] / norms[valid, None]
    offsets = np.einsum("ij,ij->i", normals, p0[valid])
    if n_pts > _EXHAUSTIVE_LIMIT:
        lsq = _least_squares_plane(pts)
        if lsq is not None:
            normals = np.concatenate([normals, lsq[0][None, :]], axis=0)
            offsets = np.concatenate([offsets, [lsq[1]]])
    # canonical form: first nonzero normal component positive
    lead = np.where(normals[:, 0] != 0.0, np.sign(normals[:, 0]),
                    np.where(normals[:, 1] != 0.0, np.sign(normals[:, 1]), np.sign(normals[:, 2])))
    normals = normals * lead[:, None]
    offsets = offsets * lead
    return normals, offsets


def fit_boundary_plane(points, tol: float = DEFAULT_PLANE_TOL) -> PlaneFit:
    """Find the plane traversing the most points (distance <= tol).

    Candidates are all point triples when there are at most 30 points,
    otherwise 2000 seeded random triples plus the least-squares plane. Ties
    are broken by the minimum RMS distance of non-traversed points, then by
    the lexicographically smallest canonical (normal, offset).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_pts = len(pts)
    if n_pts < 3:
        raise CollinearPointsError(f"need at least 3 points, got {n_pts}")
    if _least_squares_plane(pts) is None:
        raise CollinearPointsError("all points are collinear")
    normals, offsets = _candidate_planes(pts)
    if len(normals) == 0:
        raise CollinearPointsError("no valid candidate planes; points are collinear")

    dists = np.abs(pts @ normals.T - offsets)  # (n_pts, n_candidates)
    inside = dists <= tol
    counts = inside.sum(axis=0)
    sq_outside = np.where(inside, 0.0, dists * dists).sum(axis=0)
    n_outside = n_pts - counts
    rms = np.sqrt(np.divide(sq_outside, np.maximum(n_outside, 1)))
    # lexsort is stable and keyed from the last array backwards; the first
    # row after sorting realizes the total tie-break order.
    order = np.lexsort((offsets, normals[:, 2], normals[:, 1], normals[:, 0], rms, -counts))
    best = int(order[0])

    plane = Plane(normal=normals[best], offset=float(offsets[best]))
    traversed_idx = np.nonzero(inside[:, best])[0]
    return PlaneFit(plane=plane, traversed=traversed_idx, rms_distance=float(rms[best]))


# ---------------------------------------------------------------------------
# Plane splitting
# ---------------------------------------------------------------------------

def _compact(vertices: np.ndarray, faces: list[tuple[int, int, int]]) -> TriMesh:
    if not faces:
        return TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64))
    farr = np.asarray(faces, dtype=np.int64)
    used = np.unique(farr)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(vertices=vertices[used], faces=remap[farr])


def _boundary_loops(faces: list[tuple[int, int, int]]) -> list[list[int]]:
    """Closed loops of the open boundary, traversed against edge direction."""
    seen: set[tuple[int, int]] = set()
    for a, b, c in faces:
        seen.update(((a, b), (b, c), (c, a)))
    nxt: dict[int, int] = {}
    for u, v in seen:
        if (v, u) not in seen:
            nxt[v] = u  # reversed: the cap must contain (v, u)
    loops: list[list[int]] = []
    remaining = dict(nxt)
    while remaining:
        start = min(remaining)
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            loop.append(cur)
            cur = remaining.pop(cur)
        loops.append(loop)
    return loops


def split_by_plane(mesh: TriMesh, plane: Plane) -> tuple[TriMesh, TriMesh]:
    """Split a watertight mesh, returning the (negative, positive) halves.

    Both halves are watertight: the cut cross-section is fan-triangulated
    from its centroid and inserted into both halves with opposite
    orientations, so child volumes sum exactly to the parent volume.
    """
    ok, bad_edges = is_watertight(mesh)
    if not ok:
        raise NonWatertightError(bad_edges)
    if mesh.n_faces == 0:
        empty = TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64))
        return empty, empty

    s = plane.signed_distance(mesh.vertices)
    sign = np.sign(s).astype(np.int8)
    fsign = sign[mesh.faces]
    neg_mask = (fsign <= 0).all(axis=1)
    pos_mask = (fsign >= 0).all(axis=1) & (fsign > 0).any(axis=1)
    cross_mask = ~neg_mask & ~pos_mask

    extra_vertices: list[np.ndarray] = []
    cut_cache: dict[tuple[int, int], int] = {}
    n_orig = mesh.n_vertices

    def cut_point(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        idx = cut_cache.get(key)
        if idx is None:
            a, b = key
            t = s[a] / (s[a] - s[b])
            extra_vertices.append(mesh.vertices[a] + t * (mesh.vertices[b] - mesh.vertices[a]))
            idx = n_orig + len(extra_vertices) - 1
            cut_cache[key] = idx
        return idx

    neg_faces = [tuple(f) for f in mesh.faces[neg_mask]]
    pos_faces = [tuple(f) for f in mesh.faces[pos_mask]]

    for face in mesh.faces[cross_mask]:
        a, b, c = (int(v) for v in face)
        sa, sb, sc = int(sign[a]), int(sign[b]), int(sign[c])
        # Rotate so the on-plane vertex (if any) or the lone-signed vertex is first.
        if 0 in (sa, sb, sc):
            while sign[a] != 0:
                a, b, c = b, c, a
            q = cut_point(b, c)
            if sign[b] > 0:
                pos_faces.append((a, b, q))
                neg_faces.append((a, q, c))
            else:
                neg_faces.append((a, b, q))
                pos_faces.append((a, q, c))
        else:
            while sign[b] == sign[a] or sign[c] != sign[b]:
                a, b, c = b, c, a
            q1 = cut_point(a, b)
            q2 = cut_point(c, a)
            if sign[a] < 0:
                neg_faces.append((a, q1, q2))
                pos_faces.append((q1, b, c))
                pos_faces.append((q1, c, q2))
            else:
                pos_faces.append((a, q1, q2))
                neg_faces.append((q1, b, c))
                neg_faces.append((q1, c, q2))

    all_vertices = mesh.vertices
    if extra_vertices:
        all_vertices = np.concatenate([mesh.vertices, np.asarray(extra_vertices)], axis=0)

    loops = _boundary_loops(neg_faces)
    if loops:
        caps_neg: list[tuple[int, int, int]] = []
        centroids: list[np.ndarray] = []
        base = len(all_vertices)
        for li, loop in enumerate(loops):
            centroids.append(all_vertices[loop].mean(axis=0))
            cidx = base + li
            for i in range(len(loop)):
                caps_neg.append((cidx, loop[i], loop[(i + 1) % len(loop)]))
        all_vertices = np.concatenate([all_vertices, np.asarray(centroids)], axis=0)
        neg_faces.extend(caps_neg)
        pos_faces.extend((ci, w2, w1) for ci, w1, w2 in caps_neg)

    return _compact(all_vertices, neg_faces), _compact(all_vertices, pos_faces)


# ---------------------------------------------------------------------------
# Labeled part splitting
# ---------------------------------------------------------------------------

def part_adjacency(mesh: TriMesh) -> tuple[list[int], dict[tuple[int, int], np.ndarray]]:
    """Part ids present plus, per adjacent pair, the boundary vertex indices.

    The boundary of a pair is collected one-sided: the frontier vertices of
    the smaller-id part (its vertices having a neighbor labeled with the
    other part). Collecting both frontiers would hand the plane fit two
    parallel vertex rings whose midway planes can out-score the actual
    interface under the RMS tie-break.
    """
    labels = mesh.vertex_labels
    if labels is None:
        raise ValidationError("mesh has no vertex labels")
    edges = _directed_edges(mesh)
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    mixed = lu != lv
    boundary: dict[tuple[int, int], set[int]] = {}
    for (u, v), a, b in zip(edges[mixed], lu[mixed], lv[mixed]):
        key = (int(min(a, b)), int(max(a, b)))
        frontier = int(u) if a < b else int(v)
        boundary.setdefault(key, set()).add(frontier)
    parts = sorted(int(p) for p in np.unique(labels))
    return parts, {k: np.array(sorted(v), dtype=np.int64) for k, v in boundary.items()}


def _check_tree(parts: list[int], pairs: list[tuple[int, int]]) -> None:
    if len(pairs) != len(parts) - 1:
        raise NonTreeAdjacencyError(
            f"part adjacency is not a tree: {len(parts)} parts, {len(pairs)} boundaries"
        )
    # connectivity check
    adj: dict[int, set[int]] = {p: set() for p in parts}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = {parts[0]}
    stack = [parts[0]]
    while stack:
        for nbr in adj[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    if len(seen) != len(parts):
        raise NonTreeAdjacencyError("part adjacency graph is disconnected")


def split_parts(mesh: TriMesh, taxonomy: PartTaxonomy, tol: float = DEFAULT_PLANE_TOL) -> PartVolumes:
    """Slice a labeled watertight mesh into its parts and return dm^3 volumes.

    Peels leaf parts off one at a time: the boundary vertices shared with the
    leaf's single neighbor define a fitted plane, the mesh is split there, and
    the leaf's side is measured. Splits are exactly volume-additive, so the
    parts close to the whole-mesh volume.
    """
    labels = mesh.vertex_labels
    if labels is None:
        raise ValidationError("split_parts requires per-vertex part labels")
    unknown = set(int(p) for p in np.unique(labels)) - set(taxonomy.part_ids)
    if unknown:
        raise ValidationError(f"labels reference part ids not in taxonomy: {sorted(unknown)}")
    total_dm3 = signed_volume(mesh) * M3_TO_DM3

    parts, boundaries = part_adjacency(mesh)
    if len(parts) == 1:
        return PartVolumes(volumes={parts[0]: total_dm3}, total_dm3=total_dm3)
    _check_tree(parts, list(boundaries))

    adj: dict[int, set[int]] = {p: set() for p in parts}
    for a, b in boundaries:
        adj[a].add(b)
        adj[b].add(a)

    bare = TriMesh(vertices=mesh.vertices, faces=mesh.faces)
    volumes: dict[int, float] = {}
    remaining = bare
    live = set(parts)
    while len(live) > 1:
        leaf = min(p for p in live if len(adj[p]) == 1)
        nbr = next(iter(adj[leaf]))
        key = (min(leaf, nbr), max(leaf, nbr))
        pts = mesh.vertices[boundaries[key]]
        try:
            fit = fit_boundary_plane(pts, tol)
        except MeshError as exc:
            raise PlaneFitError(f"plane fit failed between parts {leaf} and {nbr}: {exc}") from exc
        side = float(np.mean(fit.plane.signed_distance(mesh.vertices[labels == leaf])))
        if side == 0.0:
            raise PlaneFitError(f"cannot orient boundary plane between parts {leaf} and {nbr}")
        neg, pos = split_by_plane(remaining, fit.plane)
        part_mesh, remaining = (neg, pos) if side < 0 else (pos, neg)
        volumes[leaf] = signed_volume(part_mesh) * M3_TO_DM3
        live.remove(leaf)
        adj[nbr].discard(leaf)
        del adj[leaf]
    last = next(iter(live))
    volumes[last] = signed_volume(remaining) * M3_TO_DM3
    return PartVolumes(volumes=volumes, total_dm3=total_dm3)
