"""Earlier meshvol implementations kept as oracles for the current ones.

- `split_by_plane` is the per-face split the array version replaced. It
  builds the same halves face by face: cut points numbered in
  first-creation order, uncrossed faces first, then each crossing face's
  products in face order, and one fan cap per boundary loop. The array
  version must reproduce its vertex and face arrays exactly. It does not
  validate its input and, like the original, assumes one outgoing boundary
  edge per vertex.
- `is_watertight` looks up the reverse of every sorted directed-edge key
  with a binary search.
- `part_adjacency` collects frontier vertices one mixed-label edge at a
  time.
- `fit_boundary_plane` takes the RMS distance of every candidate plane, not
  only of those traversing the most points.

meshvol must return the same flags, offender lists, vertex sets and planes,
bit for bit.
"""
from __future__ import annotations

import numpy as np

from crowdvol import meshvol
from crowdvol.datamodel import TriMesh


def _directed_edges(faces: np.ndarray) -> np.ndarray:
    return np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)


def is_watertight(mesh: TriMesh) -> tuple[bool, list[tuple[int, int]]]:
    if mesh.n_faces == 0:
        return True, []
    edges = _directed_edges(mesh.faces)
    n = mesh.n_vertices
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    repeated = keys[1:] == keys[:-1]
    src, dst = np.divmod(keys, n)
    rev = dst * n + src
    unpaired = keys[np.minimum(np.searchsorted(keys, rev), len(keys) - 1)] != rev
    if not repeated.any() and not unpaired.any():
        return True, []
    offenders = np.unique(np.concatenate([keys[1:][repeated], keys[unpaired]]))
    return False, [(int(k) // n, int(k) % n) for k in offenders]


def part_adjacency(mesh: TriMesh) -> tuple[list[int], dict[tuple[int, int], np.ndarray]]:
    labels = mesh.vertex_labels
    edges = _directed_edges(mesh.faces)
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    mixed = lu != lv
    boundary: dict[tuple[int, int], set[int]] = {}
    for (u, v), a, b in zip(edges[mixed], lu[mixed], lv[mixed]):
        key = (int(min(a, b)), int(max(a, b)))
        frontier = int(u) if a < b else int(v)
        boundary.setdefault(key, set()).add(frontier)
    parts = sorted(int(p) for p in np.unique(labels))
    return parts, {k: np.array(sorted(v), dtype=np.int64) for k, v in boundary.items()}


def fit_boundary_plane(points, tol: float) -> meshvol.PlaneFit:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_pts = len(pts)
    normals, offsets = meshvol._candidate_planes(pts, meshvol._least_squares_plane(pts))
    dists = np.abs(pts @ normals.T - offsets)
    inside = dists <= tol
    counts = inside.sum(axis=0)
    sq_outside = np.where(inside, 0.0, dists * dists).sum(axis=0)
    n_outside = n_pts - counts
    rms = np.sqrt(np.divide(sq_outside, np.maximum(n_outside, 1)))
    order = np.lexsort((offsets, normals[:, 2], normals[:, 1], normals[:, 0], rms, -counts))
    best = int(order[0])
    plane = meshvol.Plane(normal=normals[best], offset=float(offsets[best]))
    return meshvol.PlaneFit(plane=plane, traversed=np.nonzero(inside[:, best])[0], rms_distance=float(rms[best]))


def _compact(vertices: np.ndarray, faces: list[tuple[int, int, int]]) -> TriMesh:
    if not faces:
        return TriMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64))
    farr = np.asarray(faces, dtype=np.int64)
    used = np.unique(farr)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriMesh(vertices=vertices[used], faces=remap[farr])


def boundary_loops(faces: list[tuple[int, int, int]]) -> list[list[int]]:
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


def split_by_plane(mesh: TriMesh, plane) -> tuple[TriMesh, TriMesh]:
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

    loops = boundary_loops(neg_faces)
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
