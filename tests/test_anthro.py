import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import lognorm, truncnorm

from crowdvol import anthro, meshvol
from crowdvol.datamodel import TriMesh, ValidationError, default_config
from conftest import make_random_convex


# ---------------------------------------------------------------------------
# Population sampling
# ---------------------------------------------------------------------------

def test_sample_population_empty():
    assert anthro.sample_population(anthro.default_model(), 0, seed=1) == []


def test_population_median_height():
    # median of a log-normal is exp(mu)
    params = anthro.LogNormalParams(mu=math.log(1.70), sigma=0.04)
    gender = anthro.GenderParams(mass=anthro.LogNormalParams(math.log(70.0), 0.15), height=params)
    model = anthro.AnthropometricModel(female=gender, male=gender)
    samples = anthro.sample_population(model, 100_000, seed=7)
    median = float(np.median([s.height_m for s in samples]))
    assert 1.695 <= median <= 1.705


def test_population_respects_bmi_range():
    model = anthro.default_model()
    lo, hi = model.bmi_range
    for s in anthro.sample_population(model, 20_000, seed=3):
        assert lo <= s.bmi <= hi
        assert s.bmi == pytest.approx(s.mass_kg / s.height_m**2, rel=1e-12)
        assert s.volume_dm3 == pytest.approx(s.mass_kg / model.body_density * 1000.0, rel=1e-15)


def test_population_determinism():
    model = anthro.default_model()
    assert anthro.sample_population(model, 500, seed=9) == anthro.sample_population(model, 500, seed=9)
    assert anthro.sample_population(model, 500, seed=9) != anthro.sample_population(model, 500, seed=10)


def test_gender_mix():
    model = anthro.default_model()
    samples = anthro.sample_population(model, 100_000, seed=5)
    female = sum(1 for s in samples if s.gender == "female") / len(samples)
    assert abs(female - model.gender_mix) <= 0.01


def test_infeasible_model_raises():
    # BMI window that the height/mass marginals essentially never hit
    gender = anthro.GenderParams(
        mass=anthro.LogNormalParams(math.log(78.0), 0.01),
        height=anthro.LogNormalParams(math.log(1.76), 0.01),
    )
    model = anthro.AnthropometricModel(female=gender, male=gender, bmi_range=(49.0, 50.0))
    with pytest.raises(anthro.InfeasibleModelError):
        anthro.sample_population(model, 10, seed=0)


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def test_mass_volume_paper_density():
    assert anthro.volume_from_mass(70.0, 1000.0) == 0.07
    assert anthro.volume_from_mass(1000.0, 1000.0) == 1.0


def test_mass_volume_roundtrip():
    """Each sampled person's volume is its mass over the model's body density."""
    model = replace(anthro.default_model(), body_density=985.0)
    for s in anthro.sample_population(model, 1000, seed=2):
        assert abs(s.volume_dm3 / 1000.0 * 985.0 - s.mass_kg) <= 1e-15 * s.mass_kg


def test_conversion_rejects_nonpositive():
    with pytest.raises(ValueError):
        anthro.volume_from_mass(0.0)


# ---------------------------------------------------------------------------
# Truncated-normal scaling
# ---------------------------------------------------------------------------

def test_scaling_stays_in_bounds():
    cfg = anthro.default_scaling()
    for seed in range(2000):
        for f, tn in zip(anthro.sample_scaling(cfg, seed), (cfg.x, cfg.y, cfg.z)):
            assert tn.lower <= f <= tn.upper


def test_scaling_degenerate_truncation():
    tn = anthro.TruncatedNormal(mean=1.0, std=0.1, lower=1.2, upper=1.2 + 1e-4)
    cfg = anthro.ScalingConfig(x=tn, y=tn, z=tn)
    fx, fy, fz = anthro.sample_scaling(cfg, seed=4)
    for f in (fx, fy, fz):
        assert abs(f - 1.2) <= 1e-4


def test_scaling_mean_matches_truncnorm_oracle():
    tn = anthro.TruncatedNormal(mean=1.0, std=0.08, lower=0.85, upper=1.2)
    cfg = anthro.ScalingConfig(x=tn, y=tn, z=tn)
    draws = [anthro.sample_scaling(cfg, seed)[0] for seed in range(100_000)]
    a, b = (tn.lower - tn.mean) / tn.std, (tn.upper - tn.mean) / tn.std
    expected = truncnorm.mean(a, b, loc=tn.mean, scale=tn.std)
    assert abs(np.mean(draws) - expected) <= 0.01 * abs(expected)


def test_scaling_determinism():
    cfg = anthro.default_scaling()
    assert anthro.sample_scaling(cfg, 123) == anthro.sample_scaling(cfg, 123)


# ---------------------------------------------------------------------------
# Mesh scaling
# ---------------------------------------------------------------------------

def _pinned(value):
    """A truncated normal whose every draw is `value`."""
    return anthro.TruncatedNormal(mean=value, std=1e-300, lower=value / 2.0, upper=value * 2.0)


def test_apply_scaling_identity():
    samples = anthro.sample_population(anthro.default_model(), 50, seed=4)
    unit = anthro.ScalingConfig(x=_pinned(1.0), y=_pinned(1.0), z=_pinned(1.0))
    assert anthro.scale_samples(samples, unit, seed=5) == samples


def test_apply_scaling_doubles_cube():
    samples = anthro.sample_population(anthro.default_model(), 50, seed=6)
    wide = anthro.ScalingConfig(x=_pinned(2.0), y=_pinned(1.0), z=_pinned(1.0))
    for s, t in zip(samples, anthro.scale_samples(samples, wide, seed=7)):
        assert t.height_m == s.height_m
        assert t.mass_kg == 2.0 * s.mass_kg
        assert t.volume_dm3 == 2.0 * s.volume_dm3


def test_apply_scaling_rejects_nonpositive():
    with pytest.raises(ValidationError, match="positive"):
        anthro.TruncatedNormal(mean=1.0, std=0.1, lower=0.0, upper=1.5)
    with pytest.raises(ValidationError, match="positive"):
        anthro.TruncatedNormal(mean=1.0, std=0.1, lower=-0.5, upper=1.5)


def test_apply_scaling_volume_ratio():
    """Scaling a mesh per axis scales its volume by sx*sy*sz: the identity
    scale_samples applies to each sample's mass and volume."""
    rng = np.random.default_rng(8)
    for seed in range(30):
        mesh, _ = make_random_convex(seed)
        sx, sy, sz = rng.uniform(0.4, 2.5, size=3)
        base = meshvol.signed_volume(mesh)
        scaled = meshvol.signed_volume(TriMesh(vertices=mesh.vertices * [sx, sy, sz], faces=mesh.faces))
        assert abs(scaled - sx * sy * sz * base) <= 1e-9 * scaled


def test_scale_samples_keeps_the_body_density():
    model = replace(anthro.default_model(), body_density=985.0)
    samples = anthro.sample_population(model, 200, seed=9)
    unit = anthro.TruncatedNormal(mean=1.0, std=1e-300, lower=0.5, upper=1.5)
    same = anthro.scale_samples(samples, anthro.ScalingConfig(x=unit, y=unit, z=unit), seed=10)
    for s, t in zip(samples, same):
        assert abs(t.volume_dm3 - s.volume_dm3) <= 1e-12 * s.volume_dm3
    scaled = anthro.scale_samples(samples, anthro.default_scaling(), seed=11)
    assert any(t.mass_kg != s.mass_kg for s, t in zip(samples, scaled))
    for s, t in zip(samples, scaled):
        density = s.mass_kg / s.volume_dm3
        assert abs(t.mass_kg / t.volume_dm3 - density) <= 1e-12 * density


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

def test_kl_two_bin_hand_case():
    # Construct samples and a target whose two-bin reduction is exactly
    # p = (0.5, 0.5), q = (0.25, 0.75): D = 0.5 ln 2 + 0.5 ln(2/3).
    lo, hi = 1.0, 3.0
    mid = (lo + hi) / 2.0
    mu = math.log(2.2)

    def q_first(sigma):
        cdf = lambda x: lognorm.cdf(x, s=sigma, scale=math.exp(mu))
        return (cdf(mid) - cdf(lo)) / (cdf(hi) - cdf(lo)) - 0.25

    sigma = brentq(q_first, 1e-3, 5.0, xtol=1e-15)
    target = anthro.LogNormalParams(mu=mu, sigma=sigma)
    samples = [lo, lo + 0.3, mid + 0.3, hi]  # two per bin
    d = anthro.kl_divergence(samples, target, bins=2)
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert d == pytest.approx(expected, abs=1e-9)


def test_kl_self_divergence_small():
    target = anthro.LogNormalParams(mu=math.log(1.7), sigma=0.05)
    samples = np.random.default_rng(11).lognormal(target.mu, target.sigma, 1_000_000)
    assert anthro.kl_divergence(samples, target, bins=50) <= 0.01


def test_kl_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(50):
        target = anthro.LogNormalParams(mu=rng.uniform(-1, 1), sigma=rng.uniform(0.05, 0.5))
        samples = rng.uniform(0.5, 3.0, size=200)
        assert anthro.kl_divergence(samples, target, bins=10) >= 0.0


def test_kl_needs_two_samples():
    target = anthro.LogNormalParams(mu=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        anthro.kl_divergence([1.0], target)
    with pytest.raises(ValueError):
        anthro.kl_divergence([1.0, 1.0], target)  # degenerate support


def test_kl_no_target_mass_error():
    # target so far away that the CDF difference over the support underflows
    target = anthro.LogNormalParams(mu=math.log(1e-30), sigma=1e-3)
    with pytest.raises(ValueError, match="no probability mass"):
        anthro.kl_divergence([1.0, 2.0, 3.0], target, bins=2)


# ---------------------------------------------------------------------------
# Alignment reporting
# ---------------------------------------------------------------------------

def test_alignment_no_change():
    target = anthro.LogNormalParams(mu=math.log(1.7), sigma=0.05)
    samples = np.random.default_rng(21).lognormal(target.mu, target.sigma, 5000).tolist()
    report = anthro.alignment_report(samples, samples, target)
    assert report.pct_change == 0.0
    assert report.kl_before == report.kl_after


def test_alignment_fields_consistent():
    target = anthro.LogNormalParams(mu=math.log(1.7), sigma=0.05)
    before = np.random.default_rng(2).lognormal(math.log(1.7), 0.01, 5000)
    after = np.random.default_rng(3).lognormal(target.mu, target.sigma, 5000)
    rep = anthro.alignment_report(before, after, target)
    assert rep.kl_after == pytest.approx(rep.kl_before * (1.0 - rep.pct_change), rel=1e-12)


def test_narrow_population_scaling_decreases_kl():
    target_sigma = 0.04
    target = anthro.LogNormalParams(mu=math.log(1.70), sigma=target_sigma)
    narrow = anthro.LogNormalParams(mu=math.log(1.70), sigma=target_sigma / 5.0)
    heights = np.random.default_rng(31).lognormal(narrow.mu, narrow.sigma, 20_000)
    samples = [
        anthro.PersonSample(gender="female", height_m=h, mass_kg=65.0, bmi=65.0 / h**2, volume_dm3=65.0)
        for h in heights
    ]
    tn = anthro.TruncatedNormal(mean=1.0, std=0.04, lower=0.86, upper=1.16)
    cfg = anthro.ScalingConfig(x=tn, y=tn, z=tn)
    scaled = anthro.scale_samples(samples, cfg, seed=32)
    rep = anthro.alignment_report(
        [s.height_m for s in samples], [s.height_m for s in scaled], target
    )
    assert rep.kl_after < rep.kl_before
    assert rep.pct_change > 0.0  # a decrease, reported as a positive fraction


# ---------------------------------------------------------------------------
# Config round trips
# ---------------------------------------------------------------------------

def test_model_config_roundtrip():
    model = anthro.default_model()
    back = anthro.model_from_config(anthro.model_to_config(model))
    assert back == model


def test_partial_model_config_overrides_the_shipped_model():
    model = anthro.model_from_config({"gender_mix": "0.25", "male.mass.sigma": "0.2"})
    default = anthro.default_model()
    assert model.gender_mix == 0.25 and model.male.mass.sigma == 0.2
    assert (model.female, model.male.height, model.bmi_range) == (default.female, default.male.height, default.bmi_range)
    assert anthro.scaling_from_config({"scale.z.std": "0.1"}).z.std == 0.1


@pytest.mark.parametrize("pairs, message", [
    ({"female.mass.sigmaa": "0.2"}, "m.cfg: unknown model config key 'female.mass.sigmaa'; did you mean "
                                    "'female.mass.sigma'?"),
    ({"bogus": "1"}, "m.cfg: unknown model config key 'bogus'"),
    ({"bmi.lo": "low"}, "m.cfg: bmi.lo='low' is not a valid float"),
])
def test_model_config_errors_name_file_and_key(pairs, message):
    with pytest.raises(anthro.ParseError, match=re.escape(message)):
        anthro.model_from_config(pairs, "m.cfg")


def test_scaling_config_rejects_unknown_keys():
    with pytest.raises(anthro.ParseError, match="unknown scaling config key 'scale.w.std'"):
        anthro.scaling_from_config({"scale.w.std": "0.1"})


@pytest.mark.parametrize("mu, sigma", [(math.nan, 0.1), (math.inf, 0.1), (0.0, 0.0), (0.0, math.inf), (0.0, math.nan)])
def test_lognormal_needs_finite_parameters(mu, sigma):
    with pytest.raises(anthro.ValidationError, match="need a finite mu and 0 < sigma < inf"):
        anthro.LogNormalParams(mu, sigma)


def test_scaling_config_roundtrip():
    assert anthro.scaling_from_config(default_config("scaling")) == anthro.default_scaling()


def test_samples_csv_roundtrip(tmp_path):
    samples = anthro.sample_population(anthro.default_model(), 50, seed=77)
    path = tmp_path / "samples.csv"
    anthro.write_samples_csv(samples, path)
    assert anthro.read_samples_csv(path) == samples
