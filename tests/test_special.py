"""The Cephes ports in crowdvol.special equal scipy.special bit for bit."""
import math

import numpy as np
import pytest

from crowdvol import special
from crowdvol.rng import SplitMix64

scipy_special = pytest.importorskip("scipy.special")


def assert_bit_equal(port, reference, xs):
    xs = np.asarray(xs, dtype=np.float64)
    got = np.array([port(x) for x in xs.tolist()])
    want = reference(xs)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"{int((~same).sum())} mismatches, first at {xs[~same][:5].tolist()}"


def ulp_neighbours(points, steps=1):
    """Each point and the floats up to `steps` ulp below and above it."""
    out = []
    for p in points:
        lo = hi = p
        out.append(p)
        for _ in range(steps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def test_ndtri_on_splitmix_uniforms():
    assert_bit_equal(special.ndtri, scipy_special.ndtri, SplitMix64(7).uniforms(1_000_000))


def test_ndtri_lower_tail_down_to_smallest_subnormal():
    rng = np.random.default_rng(11)
    xs = np.concatenate([10.0 ** rng.uniform(-324.0, -1.0, 100_000), [5e-324, 1e-320, 2.2250738585072014e-308]])
    assert_bit_equal(special.ndtri, scipy_special.ndtri, xs)


def test_ndtri_within_1e_16_of_one():
    rng = np.random.default_rng(12)
    xs = 1.0 - rng.uniform(0.0, 1e-16, 50_000)
    assert_bit_equal(special.ndtri, scipy_special.ndtri, np.concatenate([xs, [1.0 - 2.0**-53]]))


def test_ndtri_branch_points():
    assert_bit_equal(special.ndtri, scipy_special.ndtri,
                     ulp_neighbours([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)], steps=2))


def test_ndtri_outside_the_open_interval():
    xs = [0.0, 1.0, -0.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, -math.inf, math.inf, math.nan]
    assert_bit_equal(special.ndtri, scipy_special.ndtri, xs)
    assert special.ndtri(0.0) == -math.inf and special.ndtri(1.0) == math.inf
    assert math.isnan(special.ndtri(-1.0)) and math.isnan(special.ndtri(math.inf))


def test_ndtr_on_a_dense_grid():
    grid = np.concatenate([np.linspace(-40.0, 40.0, 200_001), np.linspace(-1.5, 1.5, 100_001)])
    assert_bit_equal(special.ndtr, scipy_special.ndtr, grid)


def test_ndtr_on_normal_draws():
    assert_bit_equal(special.ndtr, scipy_special.ndtr, np.random.default_rng(13).standard_normal(100_000))


def test_ndtr_branch_points():
    # |a| = 1: erf/erfc switch; sqrt(2): erfc falls back to 1 - erf below it;
    # 8 sqrt(2): erfc's x < 8 coefficient switch.
    points = [s * b for b in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)) for s in (1.0, -1.0)]
    assert_bit_equal(special.ndtr, scipy_special.ndtr, ulp_neighbours(points))


def test_ndtr_far_tails_and_specials():
    xs = [40.0, -40.0, 1e3, -1e3, math.inf, -math.inf, math.nan, 0.0, -0.0]
    assert_bit_equal(special.ndtr, scipy_special.ndtr, xs)
    assert special.ndtr(-math.inf) == 0.0 and special.ndtr(math.inf) == 1.0

