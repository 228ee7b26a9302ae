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
    exit_code = 4  # of the crowdvol command line

    def __init__(self, edges: list[tuple[int, int]]):
        self.edges = edges
        preview = ", ".join(str(e) for e in edges[:8])
        more = "" if len(edges) <= 8 else f" (+{len(edges) - 8} more)"
        super().__init__(f"mesh is not watertight; offending edges: {preview}{more}")


class PlaneFitError(MeshError):
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
        d = np.asarray(points, dtype=np.float64) @ self.normal
        d -= self.offset
        return d


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

def _directed_edges(faces: np.ndarray) -> np.ndarray:
    """Rows (u, v): every face's first edge, then every second, then every third."""
    edges = np.empty((3, len(faces), 2), dtype=faces.dtype)
    edges[:, :, 0] = faces.T
    edges[:2, :, 1] = faces[:, 1:].T
    edges[2, :, 1] = faces[:, 0]
    return edges.reshape(-1, 2)


def _edges_pair_up(faces: np.ndarray, n: int) -> bool:
    """True iff every undirected edge of the faces occurs exactly once in
    each direction.

    Directed edge (u, v) gets the key 2*(min*n + max) + (u > v). Sorted, the
    keys then pair up as (2k, 2k + 1) exactly when each undirected edge k
    occurs once forward and once backward.
    """
    keys = np.empty((3, len(faces)), dtype=np.int64)
    for slot in range(3):
        u, v, k = faces[:, slot], faces[:, (slot + 1) % 3], keys[slot]
        np.minimum(u, v, out=k)
        k *= n
        k += np.maximum(u, v)
        k *= 2
        k += u > v
    keys = keys.reshape(-1)
    keys.sort()
    first, second = keys[0::2], keys[1::2]
    return len(keys) % 2 == 0 and not (first & 1).any() and bool((second - first == 1).all())


def _unique(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """np.unique(a, axis=axis). Asking for the first indices too keeps
    np.unique from importing numpy.ma, as its plain form does on first use
    in numpy 2.3 and later: about 13 ms of every `label` process."""
    return np.unique(a, axis=axis, return_index=True)[0]


def _unpaired(keys: np.ndarray, n: int) -> np.ndarray:
    """Mask of the sorted directed-edge keys u*n + v whose reverse v*n + u
    is not among them."""
    src, dst = np.divmod(keys, n)
    rev = dst * n + src
    return keys[np.minimum(np.searchsorted(keys, rev), len(keys) - 1)] != rev


def is_watertight(mesh: TriMesh) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every undirected edge is shared by exactly two faces with
    opposite directed orientation. The diagnostic lists offending edges."""
    if mesh.n_faces == 0:
        return True, []
    n = mesh.n_vertices
    if _edges_pair_up(mesh.faces, n):
        return True, []
    edges = _directed_edges(mesh.faces)
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    repeated = keys[1:] == keys[:-1]
    offenders = np.unique(np.concatenate([keys[1:][repeated], keys[_unpaired(keys, n)]]))
    return False, [(int(k) // n, int(k) % n) for k in offenders]


def signed_volume(mesh: TriMesh) -> float:
    """Enclosed volume in m^3 of a watertight, outward-oriented mesh."""
    if mesh.n_faces == 0:
        return 0.0
    ok, bad_edges = is_watertight(mesh)
    if not ok:
        raise NonWatertightError(bad_edges)
    center = mesh.vertices.mean(axis=0)
    v = mesh.vertices - center
    x, y, z = v.T.copy()
    i, j, k = mesh.faces.T.copy()
    ax, ay, az = x[i], y[i], z[i]
    bx, by, bz = x[j], y[j], z[j]
    cx, cy, cz = x[k], y[k], z[k]
    # a . (b x c) as (p0 + p2) + p1 with p_k = a_k * (b x c)_k: the order in
    # which numpy's einsum("ij,ij->i") summed it, fixed here by elementwise ops.
    terms = ax * (by * cz - bz * cy)
    terms += az * (bx * cy - by * cx)
    terms += ay * (bz * cx - bx * cz)
    terms /= 6.0
    vol = math.fsum(terms.tolist())
    # A flat surface (a zero-volume leaf of split_parts) sums to rounding
    # noise of either sign. Its tetra terms are noise-sized too, so the noise
    # floor is scaled by the bounding-box diagonal cubed instead.
    diagonal = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    if abs(vol) <= _ZERO_VOLUME_ULPS * np.finfo(np.float64).eps * diagonal**3:
        return 0.0
    if vol < 0:
        raise MeshError(f"mesh encloses negative volume {vol}; orientation is inverted")
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


def _candidate_triples(n_pts: int) -> np.ndarray:
    """All point triples, or 2000 seeded draws less those repeating a point."""
    if n_pts <= _EXHAUSTIVE_LIMIT:
        return np.array(list(combinations(range(n_pts), 3)), dtype=np.int64)
    triples = SplitMix64(_PLANE_SEARCH_SEED).randints(0, n_pts - 1, 3 * _RANDOM_TRIPLES).reshape(-1, 3)
    i, j, k = triples.T
    return triples[(i != j) & (j != k) & (i != k)]


def _candidate_planes(pts: np.ndarray, lsq: tuple[np.ndarray, float]) -> tuple[np.ndarray, np.ndarray]:
    """Canonical candidate (normals, offsets); degenerate triples dropped.
    ``lsq`` is the least-squares plane of ``pts``."""
    n_pts = len(pts)
    triples = _candidate_triples(n_pts)
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
    if not 0 < tol < math.inf:
        raise ValueError(f"plane tolerance must be positive and finite, got {tol}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_pts = len(pts)
    if n_pts < 3:
        raise PlaneFitError(f"need at least 3 points, got {n_pts}")
    lsq = _least_squares_plane(pts)
    if lsq is None:
        raise PlaneFitError("all points are collinear")
    normals, offsets = _candidate_planes(pts, lsq)
    if len(normals) == 0:
        raise PlaneFitError("no valid candidate planes; points are collinear")

    dists = pts @ normals.T  # (n_pts, n_candidates)
    dists -= offsets
    np.abs(dists, out=dists)
    inside = dists <= tol
    counts = inside.sum(axis=0)
    # Only the candidates traversing the most points can come first, so the
    # RMS is taken for those alone.
    tied = np.flatnonzero(counts == counts.max())
    n_outside = n_pts - int(counts[tied[0]])
    if n_outside == 0:
        rms = np.zeros(len(tied))
    else:
        sq = dists[:, tied]
        sq *= sq
        sq[inside[:, tied]] = 0.0
        # The bits must match numpy's sum over all candidates, taken row by
        # row, as cumsum is, when there are two or more. A single candidate
        # comes from three points, and its plane traverses all of them.
        sq_outside = np.cumsum(sq, axis=0)[-1]
        rms = np.sqrt(sq_outside / n_outside)
    # lexsort is stable and keyed from the last array backwards; the first
    # row after sorting realizes the total tie-break order.
    order = np.lexsort((offsets[tied], normals[tied, 2], normals[tied, 1], normals[tied, 0], rms))
    best = int(tied[order[0]])

    plane = Plane(normal=normals[best], offset=float(offsets[best]))
    traversed_idx = np.nonzero(inside[:, best])[0]
    return PlaneFit(plane=plane, traversed=traversed_idx, rms_distance=float(rms[order[0]]))


# ---------------------------------------------------------------------------
# Plane splitting
# ---------------------------------------------------------------------------

def _compact(vertices: np.ndarray, *blocks: np.ndarray) -> TriMesh:
    """The mesh of the face blocks, stacked in order, over only the vertices
    they use, in index order."""
    used = np.zeros(len(vertices), dtype=bool)
    for block in blocks:
        used[block] = True
    remap = np.cumsum(used, dtype=np.int64)
    remap -= 1
    faces = np.empty((sum(len(block) for block in blocks), 3), dtype=np.int64)
    start = 0
    for block in blocks:
        np.take(remap, block, out=faces[start:start + len(block)])
        start += len(block)
    return TriMesh(vertices=vertices[used], faces=faces)


def _boundary_loops(faces: np.ndarray, on_plane: np.ndarray) -> list[list[int]]:
    """Closed loops of the open boundary, traversed against edge direction.

    Only an edge with both endpoints on the cut plane can be open: every face
    around a vertex off the plane lies on that vertex's side. Loops are
    walked from the smallest vertex not yet used. Where the cross-section
    pinches, a vertex has several outgoing edges; the walk takes the
    smallest target first and closes a loop whenever it comes back to a
    vertex already on its path, so every loop is simple.
    """
    edges = _directed_edges(faces)
    edges = edges[on_plane[edges].all(axis=1)]
    n = len(on_plane)
    keys = _unique(edges[:, 0] * n + edges[:, 1])
    u, v = np.divmod(keys[_unpaired(keys, n)], n)
    # The cap must contain each open edge (u, v) reversed, as v -> u.
    succ: dict[int, list[int]] = {}
    for src, dst in sorted(zip(v.tolist(), u.tolist())):
        succ.setdefault(src, []).append(dst)
    loops: list[list[int]] = []
    for start in succ:
        path, index = [start], {start: 0}
        while len(path) > 1 or succ[start]:
            targets = succ.get(path[-1])
            if not targets:
                raise MeshError("the cut cross-section does not close into loops")
            nxt = targets.pop(0)
            i = index.get(nxt)
            if i is None:
                index[nxt] = len(path)
                path.append(nxt)
            else:
                loops.append(path[i:])
                for w in path[i + 1:]:
                    del index[w]
                del path[i + 1:]
    return loops


def split_by_plane(mesh: TriMesh, plane: Plane) -> tuple[TriMesh, TriMesh]:
    """Split a watertight mesh, returning the (negative, positive) halves.

    Both halves are watertight: the cut cross-section is fan-triangulated
    from its centroid and inserted into both halves with opposite
    orientations, so child volumes sum exactly to the parent volume. Each
    half lists the parent's uncrossed faces first, then the pieces of the
    crossing faces in face order; cut points are numbered in the order the
    crossing faces first reach them.
    """
    ok, bad_edges = is_watertight(mesh)
    if not ok:
        raise NonWatertightError(bad_edges)
    if mesh.n_faces == 0:
        empty = TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64))
        return empty, empty

    n_orig = mesh.n_vertices
    s = plane.signed_distance(mesh.vertices)
    sign = np.sign(s).astype(np.int8)
    fsign = sign[mesh.faces]
    s0, s1, s2 = fsign.T
    fmax = np.maximum(np.maximum(s0, s1), s2)
    neg_mask = fmax <= 0
    pos_mask = (np.minimum(np.minimum(s0, s1), s2) >= 0) & (fmax > 0)
    cross = ~neg_mask & ~pos_mask

    # Rotate each crossing face so that its on-plane vertex (if any) or its
    # lone-signed vertex comes first.
    cs = fsign[cross]
    on_vertex = (cs == 0).any(axis=1)
    lone = np.where(cs[:, 0] == cs[:, 1], 2, np.where(cs[:, 1] == cs[:, 2], 0, 1))
    lead = np.where(on_vertex, np.argmin(np.abs(cs), axis=1), lone)
    rot = (lead[:, None] + np.arange(3)) % 3
    a, b, c = np.take_along_axis(mesh.faces[cross], rot, axis=1).T
    sa, sb, _ = np.take_along_axis(cs, rot, axis=1).T

    # Cut edges in creation order: (b, c) for a face with an on-plane
    # vertex (its first and second slots coincide), else (a, b) then (c, a).
    n_cuts = 2 - on_vertex.astype(np.int64)
    first = np.cumsum(n_cuts) - n_cuts
    second = first + n_cuts - 1
    eu = np.empty(int(n_cuts.sum()), dtype=np.int64)
    ev = np.empty_like(eu)
    eu[first], ev[first] = np.where(on_vertex, b, a), np.where(on_vertex, c, b)
    eu[second], ev[second] = np.where(on_vertex, b, c), np.where(on_vertex, c, a)
    keys, first_use, inverse = np.unique(
        np.minimum(eu, ev) * n_orig + np.maximum(eu, ev), return_index=True, return_inverse=True
    )
    order = np.argsort(first_use)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cut_ids = n_orig + rank[inverse]
    ka, kb = np.divmod(keys[order], n_orig)
    t = s[ka] / (s[ka] - s[kb])
    v = mesh.vertices
    all_vertices = np.concatenate([v, v[ka] + t[:, None] * (v[kb] - v[ka])])
    on_plane = np.concatenate([sign == 0, np.ones(len(ka), dtype=bool)])

    # Three piece slots per crossing face, each on the side given by `side`.
    # A face with an on-plane vertex fills two; its third slot has side 0.
    q1, q2 = cut_ids[first], cut_ids[second]
    pieces = np.where(
        on_vertex[:, None, None],
        np.stack([np.stack([a, b, q1], 1), np.stack([a, q1, c], 1), np.stack([a, b, q1], 1)], 1),
        np.stack([np.stack([a, q1, q2], 1), np.stack([q1, b, c], 1), np.stack([q1, c, q2], 1)], 1),
    ).reshape(-1, 3)
    side = np.where(
        on_vertex[:, None],
        np.stack([sb, -sb, np.zeros_like(sb)], 1),
        np.stack([sa, -sa, -sa], 1),
    ).ravel()
    neg_pieces, pos_pieces = pieces[side < 0], pieces[side > 0]

    # An open edge has both ends on the plane, so of the uncrossed faces only
    # those with two vertices on it can hold one: on the negative side, the
    # faces whose signs sum to -1 or 0.
    on_edge = neg_mask & (s0 + s1 + s2 >= -1)
    loops = _boundary_loops(np.concatenate([mesh.faces[on_edge], neg_pieces]), on_plane)
    caps = np.zeros((0, 3), dtype=np.int64)
    if loops:
        centroids = np.asarray([all_vertices[loop].mean(axis=0) for loop in loops])
        caps = np.stack([
            np.repeat(len(all_vertices) + np.arange(len(loops)), [len(loop) for loop in loops]),
            np.concatenate(loops),
            np.concatenate([loop[1:] + loop[:1] for loop in loops]),
        ], axis=1)
        all_vertices = np.concatenate([all_vertices, centroids])

    return (_compact(all_vertices, mesh.faces[neg_mask], neg_pieces, caps),
            _compact(all_vertices, mesh.faces[pos_mask], pos_pieces, caps[:, [0, 2, 1]]))


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
    faces = mesh.faces
    face_labels = labels[faces]
    # Rows (smaller id, larger id, frontier vertex) of the edges whose ends
    # are labeled differently.
    blocks = []
    for slot in range(3):
        nxt = (slot + 1) % 3
        a, b = face_labels[:, slot], face_labels[:, nxt]
        mixed = a != b
        a, b = a[mixed], b[mixed]
        frontier = np.where(a < b, faces[mixed, slot], faces[mixed, nxt])
        blocks.append(np.column_stack([np.minimum(a, b), np.maximum(a, b), frontier]))
    rows = _unique(np.concatenate(blocks), axis=0)
    pairs, starts = np.unique(rows[:, :2], axis=0, return_index=True)
    vertex_sets = np.split(rows[:, 2].copy(), starts[1:])
    parts = _unique(labels).tolist()
    return parts, {(a, b): vs for (a, b), vs in zip(pairs.tolist(), vertex_sets)}


def _tree_adjacency(parts: list[int], pairs: list[tuple[int, int]]) -> dict[int, set[int]]:
    """Neighbors of each part; raises unless the pairs form a spanning tree."""
    if len(pairs) != len(parts) - 1:
        raise MeshError(f"part adjacency is not a tree: {len(parts)} parts, {len(pairs)} boundaries")
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
        raise MeshError("part adjacency graph is disconnected")
    return adj


def split_parts(mesh: TriMesh, taxonomy: PartTaxonomy, tol: float = DEFAULT_PLANE_TOL) -> PartVolumes:
    """Slice a labeled watertight mesh into its parts and return dm^3 volumes.

    Peels leaf parts off one at a time: the boundary vertices shared with the
    leaf's single neighbor define a fitted plane, the mesh is split there, and
    the leaf's side is measured. Splits are exactly volume-additive, so the
    parts close to the whole-mesh volume.
    """
    parts, boundaries = part_adjacency(mesh)
    unknown = set(parts) - set(taxonomy.part_ids)
    if unknown:
        raise ValidationError(f"labels reference part ids not in taxonomy: {sorted(unknown)}")
    total_dm3 = signed_volume(mesh) * M3_TO_DM3
    if len(parts) == 1:
        return PartVolumes(volumes={parts[0]: total_dm3}, total_dm3=total_dm3)
    adj = _tree_adjacency(parts, list(boundaries))

    labels = mesh.vertex_labels
    volumes: dict[int, float] = {}
    remaining = mesh
    live = set(parts)
    pending = np.ones(len(labels), dtype=bool)  # vertices of the parts not yet measured
    while len(live) > 1:
        leaf = min(p for p in live if len(adj[p]) == 1)
        nbr = next(iter(adj[leaf]))
        key = (min(leaf, nbr), max(leaf, nbr))
        pts = mesh.vertices[boundaries[key]]
        try:
            fit = fit_boundary_plane(pts, tol)
        except MeshError as exc:
            raise PlaneFitError(f"plane fit failed between parts {leaf} and {nbr}: {exc}") from exc
        dist = fit.plane.signed_distance(mesh.vertices)
        is_leaf = labels == leaf
        side = float(np.mean(dist[is_leaf]))
        if side == 0.0:
            raise PlaneFitError(f"cannot orient boundary plane between parts {leaf} and {nbr}")
        # The plane cuts the whole remaining mesh: a vertex of a part not yet
        # measured that lies beyond tol on the leaf's side would go to the leaf.
        pending &= ~is_leaf
        reach = np.where(pending, dist if side > 0 else -dist, -np.inf)
        worst = int(np.argmax(reach))
        if reach[worst] > tol:
            raise PlaneFitError(f"boundary plane between parts {leaf} and {nbr} cuts part {labels[worst]}: one of its "
                                f"vertices lies {float(reach[worst])!r} m on part {leaf}'s side, beyond tol {tol!r}")
        neg, pos = split_by_plane(remaining, fit.plane)
        part_mesh, remaining = (neg, pos) if side < 0 else (pos, neg)
        volumes[leaf] = signed_volume(part_mesh) * M3_TO_DM3
        live.remove(leaf)
        adj[nbr].discard(leaf)
        del adj[leaf]
    last = next(iter(live))
    volumes[last] = signed_volume(remaining) * M3_TO_DM3
    return PartVolumes(volumes=volumes, total_dm3=total_dm3)
