"""The Cephes `ndtri` port in crowdvol.special equals scipy.special's bit
for bit; `LogNormalParams.cdf`, from libm's `erfc`, is accurate against
scipy.stats."""
import math

import numpy as np
import pytest

from crowdvol import special
from crowdvol.anthro import LogNormalParams, model_from_config
from crowdvol.rng import SplitMix64
from conftest import uniforms

scipy_special = pytest.importorskip("scipy.special")
lognorm = pytest.importorskip("scipy.stats").lognorm


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
    assert_bit_equal(special.ndtri, scipy_special.ndtri, uniforms(SplitMix64(7), 1_000_000))


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


def test_lognormal_cdf_against_scipy():
    """Within 1e-13 relative of scipy for |z| <= 8, on the shipped model's
    log-normals; 0 at and below x = 0, and positive deep in the lower tail."""
    model = model_from_config({})
    z = np.concatenate([np.linspace(-8.0, 8.0, 20_001), uniforms(SplitMix64(3), 10_000) * 16.0 - 8.0])
    for gender in (model.female, model.male):
        for params in (gender.mass, gender.height):
            xs = np.exp(params.mu + params.sigma * z)
            got = np.array([params.cdf(x) for x in xs.tolist()])
            want = lognorm.cdf(xs, s=params.sigma, scale=math.exp(params.mu))
            assert (np.abs(got - want) <= 1e-13 * want).all()
    params = LogNormalParams(mu=0.0, sigma=1.0)
    assert params.cdf(0.0) == params.cdf(-1.0) == 0.0 and params.cdf(math.inf) == 1.0
    assert params.cdf(math.exp(-38.0)) > 0.0  # subnormal, about 2.9e-316
