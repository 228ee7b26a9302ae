"""Shared geometry builders and annotation factories for the test suite."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from crowdvol.datamodel import (
    CameraParams,
    FrameAnnotation,
    Keypoint,
    PersonAnnotation,
    TriMesh,
    identity_camera,
)


def make_box(sx=1.0, sy=1.0, sz=1.0, origin=(0.0, 0.0, 0.0), flip=False) -> TriMesh:
    ox, oy, oz = origin
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        dtype=np.float64,
    ) * [sx, sy, sz] + [ox, oy, oz]
    f = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom
            [4, 5, 6], [4, 6, 7],  # top
            [0, 1, 5], [0, 5, 4],  # y = 0
            [1, 2, 6], [1, 6, 5],  # x = 1
            [2, 3, 7], [2, 7, 6],  # y = 1
            [3, 0, 4], [3, 4, 7],  # x = 0
        ],
        dtype=np.int64,
    )
    if flip:
        f = f[:, [0, 2, 1]]
    return TriMesh(vertices=v, faces=f)


def make_tetrahedron() -> TriMesh:
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float64)
    f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]], dtype=np.int64)
    return TriMesh(vertices=v, faces=f)


def make_icosphere(radius: float = 1.0, subdivisions: int = 4) -> TriMesh:
    """Icosahedron vertices on the sphere, each face split 4-ways per level,
    midpoints re-projected onto the sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=np.float64) / np.linalg.norm(v) * radius for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m) * radius)
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    mesh = TriMesh(vertices=np.asarray(verts), faces=np.asarray(faces, dtype=np.int64))
    # orient all faces outward (convex, centered at the origin)
    a = mesh.vertices[mesh.faces[:, 0]]
    normals = np.cross(mesh.vertices[mesh.faces[:, 1]] - a, mesh.vertices[mesh.faces[:, 2]] - a)
    assert (np.einsum("ij,ij->i", normals, a) > 0).all(), "icosphere faces must be outward"
    return mesh


def make_random_convex(seed: int, n_points: int = 30, scale: float = 1.0):
    """Random convex polyhedron plus its qhull volume as an independent oracle."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 3)) * scale
    hull = ConvexHull(points)
    centroid = points[hull.vertices].mean(axis=0)
    faces = []
    for simplex in hull.simplices:
        a, b, c = points[simplex]
        if np.dot(np.cross(b - a, c - a), a - centroid) < 0:
            simplex = simplex[[0, 2, 1]]
        faces.append(simplex)
    mesh = TriMesh(vertices=points, faces=np.asarray(faces, dtype=np.int64))
    return mesh, float(hull.volume)


def make_stacked_cubes() -> TriMesh:
    """Two stacked unit cubes forming one closed surface, the lower cube
    labeled part 0 (including the shared ring at z=1), the upper part 1."""
    v = []
    for z in (0.0, 1.0, 2.0):
        for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)):
            v.append((float(x), float(y), z))
    v = np.asarray(v)
    faces = [(0, 2, 1), (0, 3, 2), (8, 9, 10), (8, 10, 11)]  # bottom, top
    for ring in (0, 4):  # side quads of each cube
        for j in range(4):
            k = (j + 1) % 4
            a, b = ring + j, ring + k
            c, d = ring + 4 + k, ring + 4 + j
            faces += [(a, b, c), (a, c, d)]
    labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
    return TriMesh(vertices=v, faces=np.asarray(faces, dtype=np.int64), vertex_labels=labels)


def make_pinched_octahedra() -> TriMesh:
    """Two unit octahedra centred at (-1, 0, 0) and (1, 0, 0) sharing their
    vertex at the origin, 8/3 m^3 in all. Cut at z = 0, the cross-section is
    two squares that meet at the origin."""
    axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    octa = np.array(
        [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)],
        dtype=np.int64,
    )
    # left octahedron: vertices 0-5, its +x vertex 0 at the origin; the right
    # one's -x vertex maps onto it and its other five become 6-10
    right = np.array([6, 0, 7, 8, 9, 10], dtype=np.int64)
    vertices = np.concatenate([axes + [-1.0, 0.0, 0.0], np.delete(axes, 1, axis=0) + [1.0, 0.0, 0.0]])
    return TriMesh(vertices=vertices, faces=np.concatenate([octa, right[octa]]))


def make_w_notch_prism() -> TriMesh:
    """Unit-deep prism along y over the x-z profile (0,0) (4,0) (4,2) (3,1)
    (2,2) (1,1) (0,2): a 4 x 2 block with two V notches whose tips reach
    z = 1. It holds 4 m^3 below z = 1 and 2 m^3 (three teeth) above."""
    profile = [(0, 0), (4, 0), (4, 2), (3, 1), (2, 2), (1, 1), (0, 2)]
    front = [(x, 0.0, z) for x, z in profile]
    back = [(x, 1.0, z) for x, z in profile]
    n = len(profile)
    # the profile is counter-clockwise in (x, z), so these face -y
    caps = [(0, 1, 3), (1, 2, 3), (0, 3, 5), (3, 4, 5), (0, 5, 6)]
    faces = list(caps) + [(a + n, c + n, b + n) for a, b, c in caps]
    for i in range(n):
        j = (i + 1) % n
        faces += [(i, j + n, j), (i, i + n, j + n)]
    return TriMesh(vertices=np.asarray(front + back, dtype=np.float64), faces=np.asarray(faces, dtype=np.int64))


def make_frusta_body(sides: int, rings_per_part: int) -> TriMesh:
    """A labeled stack of polygon rings closed by a fan at each end: parts
    8, 6, 1 and 0 from the bottom, like a humanoid's calves, thigh, torso and
    head. Ring radii vary smoothly and each vertex's height is jittered by up
    to 8 mm, more than the default plane tolerance, so a boundary ring is
    not quite planar and some of its points lie outside the fitted plane."""
    parts = (8, 6, 1, 0)
    n_rings = len(parts) * rings_per_part
    ring = np.repeat(np.arange(n_rings), sides)
    j = np.tile(np.arange(sides), n_rings)
    angle = 2.0 * np.pi * j / sides
    radius = 0.1 + 0.03 * np.cos(0.7 * ring)
    z = 0.05 * ring + 0.008 * np.sin(3.7 * j + ring)
    bottom, top = len(ring), len(ring) + 1
    vertices = np.concatenate([
        np.column_stack([radius * np.cos(angle), radius * np.sin(angle), z]),
        [[0.0, 0.0, -0.05], [0.0, 0.0, 0.05 * n_rings]],
    ])
    labels = np.concatenate([np.repeat(parts, rings_per_part * sides), [parts[0], parts[-1]]])
    k = (np.arange(sides) + 1) % sides
    faces = []
    for r in range(n_rings - 1):
        a, b = r * sides, (r + 1) * sides
        faces.append(np.column_stack([a + np.arange(sides), a + k, b + k]))
        faces.append(np.column_stack([a + np.arange(sides), b + k, b + np.arange(sides)]))
    last = (n_rings - 1) * sides
    faces.append(np.column_stack([np.full(sides, bottom), k, np.arange(sides)]))
    faces.append(np.column_stack([np.full(sides, top), last + np.arange(sides), last + k]))
    return TriMesh(vertices=vertices, faces=np.concatenate(faces), vertex_labels=labels)


def make_person(
    person_id: str = "p0",
    head=(32.0, 32.0),
    volume: float = 70.0,
    parts: dict[int, float] | None = None,
    bbox=(10.0, 10.0, 54.0, 60.0),
    keypoints: tuple[Keypoint, ...] = (),
    character_id: str = "c0",
) -> PersonAnnotation:
    if parts is None:
        parts = {0: volume}
    return PersonAnnotation(
        person_id=person_id,
        character_id=character_id,
        head_px=head,
        bbox_px=bbox,
        volume_dm3=volume,
        part_volumes_dm3=parts,
        keypoints=keypoints,
    )


def make_frame(
    persons=(),
    frame_id: str = "f0",
    w: int = 64,
    h: int = 64,
    tags=frozenset(),
    camera: CameraParams | None = None,
) -> FrameAnnotation:
    return FrameAnnotation(
        frame_id=frame_id,
        image_w=w,
        image_h=h,
        persons=tuple(persons),
        scene_tags=frozenset(tags),
        camera=camera if camera is not None else identity_camera(),
    )


@pytest.fixture
def unit_cube() -> TriMesh:
    return make_box()
