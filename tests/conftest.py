"""Shared geometry builders, annotation factories and library shorthands
for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from crowdvol import scenegen
from crowdvol.cli import build_parser
from crowdvol.datamodel import (
    CameraParams,
    FrameAnnotation,
    Keypoint,
    PartTaxonomy,
    PersonAnnotation,
    TriMesh,
)
from crowdvol.densitymap import SmoothingConfig
from crowdvol.metrics import ScatterPoint
from crowdvol.rng import SplitMix64

# A dense crowd at 1920x1080, as in the benchmark's dense workload, with two
# test frames.
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


def identity_camera(fx: float = 1000.0, fy: float = 1000.0, cx: float = 0.0, cy: float = 0.0) -> CameraParams:
    """Camera at the world origin looking down +z."""
    return CameraParams(fx=fx, fy=fy, cx=cx, cy=cy, rotation=np.eye(3), translation=np.zeros(3))


def part_id(taxonomy: PartTaxonomy, name: str) -> int:
    return {pname: pid for pid, pname in taxonomy.parts}[name]


def smoothing(**fields) -> SmoothingConfig:
    """The smoothing `crowdvol maps` runs without flags, with `fields`
    replacing any of its values."""
    args = build_parser().parse_args(["maps", "annotations.jsonl", "--out", "maps"])
    return SmoothingConfig(**{"sigma_px": args.sigma, "truncation_radius": args.truncation, **fields})


def uniforms(rng: SplitMix64, n: int) -> np.ndarray:
    """The next n `rng.uniform()` draws as one array, through `next_u64s`."""
    z = rng.next_u64s(n)
    return np.minimum(((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53, math.nextafter(1.0, 0.0))


def generate_dataset(cfg: scenegen.SceneConfig, seed: int, workers: int = 1) -> dict[str, list[FrameAnnotation]]:
    """Every split of the scene, as `crowdvol gen` generates them."""
    pools = scenegen.build_identity_pools(cfg, seed)
    return {split: scenegen.generate_split(cfg, pools[split], seed, workers) for split in scenegen.SPLIT_NAMES}


def oracular_count_estimator(frames: list[FrameAnnotation], mean_volume_dm3: float) -> dict[str, float]:
    """Counting-based reference fed with ground-truth person counts:
    V_hat = count * dataset mean person volume."""
    return {f.frame_id: f.n_persons * mean_volume_dm3 for f in frames}


def scatter_ratio(point: ScatterPoint) -> float | None:
    """ae / ppae, which recovers the person count; None when ae == 0."""
    return None if point.ae == 0.0 else point.ae / point.ppae


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


def make_voxel_body(voxels: dict[tuple[int, int, int], int]) -> TriMesh:
    """Unit cubes, one per (x, y, z) key and labeled with its part id, meshed
    face by face over shared corners: each face between a voxel and empty
    space becomes two outward triangles. A vertex takes the smallest part id
    among the voxels it touches, as build_humanoid labels its boundary rings.
    When every part boundary is a face between two voxels, each part's
    volume is its voxel count in m^3."""
    index: dict[tuple[int, int, int], int] = {}
    faces = []
    for (x, y, z) in voxels:
        for axis in range(3):
            u, v = (axis + 1) % 3, (axis + 2) % 3  # the face's quad turns from u to v: normal +axis
            for step in (0, 1):
                near = [x, y, z]
                near[axis] += 2 * step - 1
                if tuple(near) in voxels:
                    continue
                quad = []
                for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                    corner = [x, y, z]
                    corner[axis] += step
                    corner[u] += du
                    corner[v] += dv
                    quad.append(index.setdefault(tuple(corner), len(index)))
                if not step:
                    quad.reverse()
                faces += [quad[:3], [quad[0], quad[2], quad[3]]]
    corners = list(index)
    labels = [min(voxels.get((cx - dx, cy - dy, cz - dz), math.inf)
                  for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)) for cx, cy, cz in corners]
    return TriMesh(vertices=np.asarray(corners, dtype=np.float64), faces=np.asarray(faces, dtype=np.int64),
                   vertex_labels=np.asarray(labels, dtype=np.int64))


# Part 0 is one voxel on the +x face of part 1 (2 x 1 x 2), at its top;
# part 2 is a 4 x 1 x 2 base under part 1. The plane x = 2 that peels part 0
# also passes through part 2, whose half at x > 2 lies on part 0's side.
PLANE_CROSSES_PART = {
    (2, 0, 3): 0,
    **{(x, 0, z): 1 for x in (0, 1) for z in (2, 3)},
    **{(x, 0, z): 2 for x in range(4) for z in (0, 1)},
}


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
