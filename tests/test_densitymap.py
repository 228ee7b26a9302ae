import math
import tracemalloc

import numpy as np
import pytest

from crowdvol import densitymap as dmod
from crowdvol.datamodel import DensityMap, Keypoint, default_taxonomy
from crowdvol.densitymap import SmoothingConfig, integrate, nearest_pixel, render_ppvdm, render_vdm
import loop_reference as ref
from conftest import make_frame, make_person, part_id, smoothing

SIGMA0 = smoothing(sigma_px=0.0)


def torso_keypoints(visible_flags, xs=None):
    """Five torso keypoints (part 1 owns five ids in the default taxonomy)."""
    tax = default_taxonomy()
    kp_ids = tax.keypoint_map[part_id(tax, "torso")]
    assert len(kp_ids) == 5
    xs = xs if xs is not None else [10.0, 15.0, 20.0, 25.0, 30.0]
    return tuple(
        Keypoint(x=xs[i], y=40.0, part_id=1, visible=visible_flags[i]) for i in range(5)
    )


# ---------------------------------------------------------------------------
# nearest pixel
# ---------------------------------------------------------------------------

def test_nearest_pixel_ties_toward_smaller_index():
    assert nearest_pixel(31.5, 64) == 31
    assert nearest_pixel(31.49, 64) == 31
    assert nearest_pixel(31.51, 64) == 32
    assert nearest_pixel(63.7, 64) == 63  # edge band rounds onto the last pixel
    assert nearest_pixel(0.0, 64) == 0


# ---------------------------------------------------------------------------
# render_vdm
# ---------------------------------------------------------------------------

def test_vdm_zero_persons():
    dmap = render_vdm(make_frame([]), SIGMA0)
    assert dmap.total() == 0.0
    assert not dmap.values.any()


def test_vdm_delta_case():
    frame = make_frame([make_person(head=(32.0, 32.0), volume=70.0)])
    dmap = render_vdm(frame, SIGMA0)
    assert dmap.values[32, 32] == 70.0
    assert np.count_nonzero(dmap.values) == 1


def test_vdm_border_renormalization_matches_brute_force():
    # head 2 px from the border; the oracle sums the truncated kernel weights
    # that fall inside the image and divides, pixel by pixel
    w = h = 64
    head = (2.0, 30.0)
    sigma, trunc = 4.0, 4.0
    frame = make_frame([make_person(head=head, volume=70.0)], w=w, h=h)
    dmap = render_vdm(frame, SmoothingConfig(sigma_px=sigma, truncation_radius=trunc))

    radius = int(math.ceil(trunc * sigma))
    ix, iy = 2, 30
    weights = {}
    total_w = 0.0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            px, py = ix + dx, iy + dy
            if 0 <= px < w and 0 <= py < h:
                wgt = math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma))
                weights[(px, py)] = wgt
                total_w += wgt
    expected = np.zeros((h, w))
    for (px, py), wgt in weights.items():
        expected[py, px] = 70.0 * wgt / total_w
    assert np.allclose(dmap.values, expected, rtol=1e-12, atol=1e-15)
    assert abs(dmap.total() - 70.0) <= 1e-6 * 70.0


def test_vdm_mass_conservation_across_sigmas():
    rng = np.random.default_rng(5)
    for sigma in (0.0, 2.0, 4.0, 8.0):
        cfg = smoothing(sigma_px=sigma)
        for trial in range(20):
            persons = [
                make_person(
                    person_id=f"p{i}",
                    head=(float(rng.uniform(0, 64)), float(rng.uniform(0, 64))),
                    volume=float(rng.uniform(40, 110)),
                )
                for i in range(rng.integers(1, 9))
            ]
            frame = make_frame(persons)
            total = sum(p.volume_dm3 for p in persons)
            assert abs(render_vdm(frame, cfg).total() - total) <= 1e-6 * total


@pytest.mark.parametrize("sigma, truncation", [(2000.0, 4.0), (1e6, 4.0), (4.0, 1e300), (1e10, 1e300), (1e300, 4.0)])
def test_huge_kernels_conserve_mass_and_stay_within_the_image(monkeypatch, sigma, truncation):
    # No stamp fits a full kernel this wide, so none is built: every kernel
    # is clipped to the image.
    shapes = []

    def recording(*args):
        shapes.append(kernel(*args).shape)
        return kernel(*args)

    kernel = dmod._kernel
    monkeypatch.setattr(dmod, "_kernel", recording)
    heads = [(0.0, 0.0), (31.5, 20.2), (63.9, 47.9), (10.0, 40.0)]
    persons = [make_person(person_id=f"p{i}", head=head, volume=50.0 + i, bbox=(0.0, 0.0, 64.0, 48.0))
               for i, head in enumerate(heads)]
    frame = make_frame(persons, w=64, h=48)
    cfg = smoothing(sigma_px=sigma, truncation_radius=truncation)
    dmap = render_vdm(frame, cfg)
    total = sum(p.volume_dm3 for p in persons)
    assert abs(dmap.total() - total) <= 1e-6 * total
    assert len(shapes) == len(persons)
    assert all(h <= frame.image_h and w <= frame.image_w for h, w in shapes)
    if math.isfinite(sigma * truncation):  # the per-stamp loop's radius
        assert np.array_equal(dmap.values, ref.render_vdm(frame, cfg).values)


def test_wide_kernels_keep_memory_at_a_few_maps():
    # Every stamp is clipped at sigma 1000; no kernel outlives its stamp.
    persons = [make_person(person_id=f"p{i}", head=(10.0 * i + 3.0, 7.0 * i + 2.0), volume=60.0) for i in range(20)]
    frame = make_frame(persons, w=200, h=150)
    cfg = smoothing(sigma_px=1000.0)
    tracemalloc.start()
    try:
        render_vdm(frame, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * frame.image_w * frame.image_h * 8


def test_vdm_peak_nonincreasing_in_sigma():
    peaks = []
    for sigma in (0.0, 1.0, 2.0, 4.0, 8.0):
        frame = make_frame([make_person(head=(32.0, 32.0), volume=70.0)])
        dmap = render_vdm(frame, smoothing(sigma_px=sigma))
        peaks.append(dmap.values.max())
    assert all(a >= b for a, b in zip(peaks[:-1], peaks[1:]))


def test_vdm_linearity_exact():
    persons = [
        make_person(person_id="a", head=(10.0, 10.0), volume=50.0),
        make_person(person_id="b", head=(12.0, 11.0), volume=60.0),
        make_person(person_id="c", head=(50.0, 50.0), volume=70.0),
    ]
    cfg = smoothing(sigma_px=3.0)
    joint = render_vdm(make_frame(persons), cfg)
    acc = np.zeros_like(joint.values)
    for p in persons:
        acc = acc + render_vdm(make_frame([p]), cfg).values
    assert np.array_equal(joint.values, acc)


# ---------------------------------------------------------------------------
# render_ppvdm
# ---------------------------------------------------------------------------

def test_ppvdm_torso_fifths():
    person = make_person(
        volume=30.0,
        parts={1: 30.0},
        keypoints=torso_keypoints([True] * 5),
    )
    dmap = render_ppvdm(make_frame([person]), default_taxonomy(), SIGMA0)
    nonzero = np.nonzero(dmap.values)
    assert len(nonzero[0]) == 5
    assert np.allclose(dmap.values[nonzero], 6.0)
    assert dmap.values[40, 10] == 30.0 / 5.0


def test_ppvdm_redistributes_to_remaining_keypoints():
    person = make_person(
        volume=30.0,
        parts={1: 30.0},
        keypoints=torso_keypoints([True, False, True, False, True]),
    )
    dmap = render_ppvdm(make_frame([person]), default_taxonomy(), SIGMA0)
    nonzero = np.nonzero(dmap.values)
    assert len(nonzero[0]) == 3
    assert np.allclose(dmap.values[nonzero], 10.0)


def test_ppvdm_out_of_image_keypoint_redistributes():
    kps = torso_keypoints([True] * 5, xs=[10.0, 15.0, 20.0, 25.0, 300.0])  # last outside
    person = make_person(volume=30.0, parts={1: 30.0}, keypoints=kps)
    dmap = render_ppvdm(make_frame([person]), default_taxonomy(), SIGMA0)
    assert np.count_nonzero(dmap.values) == 4
    assert dmap.values[40, 10] == 7.5


def test_ppvdm_falls_back_to_head():
    person = make_person(
        head=(32.0, 32.0),
        volume=30.0,
        parts={1: 30.0},
        keypoints=torso_keypoints([False] * 5),
    )
    dmap = render_ppvdm(make_frame([person]), default_taxonomy(), SIGMA0)
    assert dmap.values[32, 32] == 30.0
    assert np.count_nonzero(dmap.values) == 1


def test_ppvdm_total_equals_vdm_total():
    rng = np.random.default_rng(6)
    for sigma in (0.0, 4.0):
        cfg = smoothing(sigma_px=sigma)
        persons = []
        for i in range(6):
            torso = float(rng.uniform(20, 40))
            head_v = float(rng.uniform(2, 6))
            persons.append(
                make_person(
                    person_id=f"p{i}",
                    head=(float(rng.uniform(0, 64)), float(rng.uniform(0, 64))),
                    volume=torso + head_v,
                    parts={1: torso, 0: head_v},
                    keypoints=torso_keypoints([True, True, False, True, True]),
                )
            )
        frame = make_frame(persons)
        v = render_vdm(frame, cfg).total()
        pp = render_ppvdm(frame, default_taxonomy(), cfg).total()
        assert abs(pp - v) <= 1e-6 * v


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_full_image():
    frame = make_frame([make_person(head=(32.0, 32.0), volume=70.0)])
    dmap = render_vdm(frame, smoothing(sigma_px=4.0))
    assert integrate(dmap, (0, 0, 64, 64)) == dmap.total()


def test_integrate_sigma0_impulse():
    frame = make_frame([make_person(head=(32.0, 32.0), volume=70.0)])
    dmap = render_vdm(frame, SIGMA0)
    assert integrate(dmap, (30.0, 30.0, 35.0, 35.0)) == 70.0
    assert integrate(dmap, (0.0, 0.0, 30.0, 30.0)) == 0.0


def test_integrate_partition_additivity():
    persons = [
        make_person(person_id="a", head=(10.0, 20.0), volume=50.0),
        make_person(person_id="b", head=(50.0, 20.0), volume=60.0),
    ]
    dmap = render_vdm(make_frame(persons), SIGMA0)
    left = integrate(dmap, (0.0, 0.0, 32.0, 64.0))
    right = integrate(dmap, (32.0, 0.0, 64.0, 64.0))
    assert left == 50.0 and right == 60.0
    assert left + right == dmap.total()


def test_integrate_pixel_membership_is_half_open():
    values = np.zeros((4, 4))
    values[2, 2] = 5.0
    dmap = DensityMap(values)
    assert integrate(dmap, (0.0, 0.0, 2.0, 2.0)) == 0.0  # pixel 2 excluded: 2 < 2 fails
    assert integrate(dmap, (0.0, 0.0, 2.5, 2.5)) == 5.0
    assert integrate(dmap, (2.0, 2.0, 3.0, 3.0)) == 5.0


def test_integrate_bbox_outside_image_is_error():
    dmap = DensityMap(np.zeros((4, 4)))
    with pytest.raises(Exception, match="outside"):
        integrate(dmap, (-1.0, 0.0, 2.0, 2.0))
    with pytest.raises(Exception, match="outside"):
        integrate(dmap, (0.0, 0.0, 5.0, 2.0))
