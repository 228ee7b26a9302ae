import math
import re
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import truncnorm

from crowdvol import anthro, meshvol
from crowdvol.datamodel import TriMesh, ValidationError, default_config
from conftest import make_random_convex


# ---------------------------------------------------------------------------
# Population sampling
# ---------------------------------------------------------------------------

def test_sample_population_empty():
    assert anthro.sample_population(anthro.model_from_config({}), 0, seed=1) == []


def test_population_median_height():
    # median of a log-normal is exp(mu)
    params = anthro.LogNormalParams(mu=math.log(1.70), sigma=0.04)
    gender = anthro.GenderParams(mass=anthro.LogNormalParams(math.log(70.0), 0.15), height=params)
    model = replace(anthro.model_from_config({}), female=gender, male=gender)
    samples = anthro.sample_population(model, 100_000, seed=7)
    median = float(np.median([s.height_m for s in samples]))
    assert 1.695 <= median <= 1.705


def test_population_respects_bmi_range():
    model = anthro.model_from_config({})
    lo, hi = model.bmi_range
    for s in anthro.sample_population(model, 20_000, seed=3):
        assert lo <= s.bmi <= hi
        assert s.bmi == pytest.approx(s.mass_kg / s.height_m**2, rel=1e-12)
        assert s.volume_dm3 == pytest.approx(s.mass_kg / model.body_density * 1000.0, rel=1e-15)


@pytest.mark.parametrize("lo", [20.0, 20.01, 20.05])
def test_population_bmi_stays_in_a_window_a_few_ulps_wide(lo):
    # exp(log(lo)) rounds below lo for each lo here, and about 4% of the
    # draws' exp() leave a window this narrow: the stored BMI is clamped after exp
    assert math.exp(math.log(lo)) < lo
    model = replace(anthro.model_from_config({}), bmi_range=(lo, lo * (1.0 + 1e-14)))
    for s in anthro.sample_population(model, 2000, seed=11):
        assert lo <= s.bmi <= lo * (1.0 + 1e-14)


def _log_columns(samples, gender):
    held = [s for s in samples if s.gender == gender]
    return np.log([s.height_m for s in held]), np.log([s.mass_kg for s in held]), np.log([s.bmi for s in held])


@pytest.mark.parametrize("gender", ["female", "male"])
def test_population_marginals_and_correlation_match_the_model(gender):
    """Log height and log mass keep the configured log-normals, since the
    default BMI window cuts under 1e-5 of log BMI's mass, and log BMI is
    drawn independently of log height, so corr(log h, log m) = 2 sigma_h / sigma_m.
    Each tolerance is 4 standard errors at the gender's sample count n."""
    model = anthro.model_from_config({})
    params = model.params_for(gender)
    log_h, log_m, _ = _log_columns(anthro.sample_population(model, 20_000, seed=7), gender)
    n = len(log_h)
    for values, target in ((log_h, params.height), (log_m, params.mass)):
        assert abs(values.mean() - target.mu) <= 4.0 * target.sigma / math.sqrt(n)
        assert abs(values.std() - target.sigma) <= 4.0 * target.sigma / math.sqrt(2.0 * n)
    rho = 2.0 * params.height.sigma / params.mass.sigma
    assert abs(np.corrcoef(log_h, log_m)[0, 1] - rho) <= 4.0 * (1.0 - rho**2) / math.sqrt(n - 3)


@pytest.mark.parametrize("gender", ["female", "male"])
def test_population_log_bmi_follows_its_truncated_normal(gender):
    """In a window that cuts both tails, log BMI has the mean and sd of the
    truncated normal, and stays uncorrelated with log height."""
    model = replace(anthro.model_from_config({}), bmi_range=(21.0, 27.0))
    log_h, _, log_bmi = _log_columns(anthro.sample_population(model, 20_000, seed=8), gender)
    bmi = model.params_for(gender).bmi
    a, b = (math.log(21.0) - bmi.mu) / bmi.sigma, (math.log(27.0) - bmi.mu) / bmi.sigma
    sd = truncnorm.std(a, b, loc=bmi.mu, scale=bmi.sigma)
    n = len(log_bmi)
    assert abs(log_bmi.mean() - truncnorm.mean(a, b, loc=bmi.mu, scale=bmi.sigma)) <= 4.0 * sd / math.sqrt(n)
    assert abs(log_bmi.std() - sd) <= 4.0 * sd / math.sqrt(2.0 * n)
    assert abs(np.corrcoef(log_h, log_bmi)[0, 1]) <= 4.0 / math.sqrt(n - 3)


def test_population_determinism():
    model = anthro.model_from_config({})
    assert anthro.sample_population(model, 500, seed=9) == anthro.sample_population(model, 500, seed=9)
    assert anthro.sample_population(model, 500, seed=9) != anthro.sample_population(model, 500, seed=10)


def test_gender_mix():
    model = anthro.model_from_config({})
    samples = anthro.sample_population(model, 100_000, seed=5)
    female = sum(1 for s in samples if s.gender == "female") / len(samples)
    assert abs(female - model.gender_mix) <= 0.01


def test_infeasible_model_raises():
    # log BMI = log mass - 2 log height needs sigma_m > 2 sigma_h: rejected when the model is built
    narrow = anthro.LogNormalParams(math.log(78.0), 0.01)
    with pytest.raises(ValidationError, match=re.escape("mass.sigma=0.01 must exceed 2 * height.sigma=0.01")):
        anthro.GenderParams(mass=narrow, height=anthro.LogNormalParams(math.log(1.76), 0.01))
    with pytest.raises(ValidationError, match=re.escape("male: mass.sigma=0.16 must exceed 2 * height.sigma=0.08")):
        anthro.model_from_config({"male.height.sigma": "0.08"})
    # a BMI window 111 sds of log BMI above its mean: its probability rounds to 0
    height = anthro.LogNormalParams(math.log(1.76), 0.004)
    gender = anthro.GenderParams(mass=narrow, height=height)
    model = replace(anthro.model_from_config({}), female=gender, male=gender, bmi_range=(49.0, 50.0))
    with pytest.raises(ValidationError, match=r"BMI range \[49.0, 50.0\]: log BMI ~ N\(.*\) has no probability in"):
        anthro.sample_population(model, 10, seed=0)
    # 29 sds above it, the mirrored tail still holds probability: every draw lands in the window
    gender = anthro.GenderParams(mass=anthro.LogNormalParams(math.log(78.0), 0.024), height=height)
    model = replace(model, female=gender, male=gender)
    assert all(49.0 <= s.bmi <= 50.0 for s in anthro.sample_population(model, 10, seed=0))


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def test_mass_volume_paper_density():
    assert anthro.volume_from_mass(70.0, 1000.0) == 0.07
    assert anthro.volume_from_mass(1000.0, 1000.0) == 1.0


def test_mass_volume_roundtrip():
    """Each sampled person's volume is its mass over the model's body density."""
    model = replace(anthro.model_from_config({}), body_density=985.0)
    for s in anthro.sample_population(model, 1000, seed=2):
        assert abs(s.volume_dm3 / 1000.0 * 985.0 - s.mass_kg) <= 1e-15 * s.mass_kg


def test_conversion_rejects_nonpositive():
    with pytest.raises(ValueError):
        anthro.volume_from_mass(0.0, 1000.0)


# ---------------------------------------------------------------------------
# Truncated-normal scaling
# ---------------------------------------------------------------------------

def test_scaling_stays_in_bounds():
    cfg = anthro.scaling_from_config({})
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


@pytest.mark.parametrize("lower, upper", [(1.2, 1.3), (0.7, 0.8)])
def test_scaling_window_20_to_30_sds_from_the_mean(lower, upper):
    # Above the mean the window is drawn as its mirror image below it, where
    # the normal CDF keeps its precision; at 1 - 1e-89 it would round to 1.
    tn = anthro.TruncatedNormal(mean=1.0, std=0.01, lower=lower, upper=upper)
    cfg = anthro.ScalingConfig(x=tn, y=tn, z=tn)
    draws = np.array([anthro.sample_scaling(cfg, seed) for seed in range(3000)]).reshape(-1)
    assert ((lower <= draws) & (draws <= upper)).all()
    a, b = (lower - tn.mean) / tn.std, (upper - tn.mean) / tn.std
    sd = truncnorm.std(a, b, loc=tn.mean, scale=tn.std)
    assert abs(draws.mean() - truncnorm.mean(a, b, loc=tn.mean, scale=tn.std)) <= 4.0 * sd / math.sqrt(draws.size)


def test_scaling_determinism():
    cfg = anthro.scaling_from_config({})
    assert anthro.sample_scaling(cfg, 123) == anthro.sample_scaling(cfg, 123)


# ---------------------------------------------------------------------------
# Mesh scaling
# ---------------------------------------------------------------------------

def _pinned(value):
    """A truncated normal whose every draw is `value`."""
    return anthro.TruncatedNormal(mean=value, std=1e-300, lower=value / 2.0, upper=value * 2.0)


def test_apply_scaling_identity():
    samples = anthro.sample_population(anthro.model_from_config({}), 50, seed=4)
    unit = anthro.ScalingConfig(x=_pinned(1.0), y=_pinned(1.0), z=_pinned(1.0))
    assert anthro.scale_samples(samples, unit, seed=5) == samples


def test_apply_scaling_doubles_cube():
    samples = anthro.sample_population(anthro.model_from_config({}), 50, seed=6)
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
    model = replace(anthro.model_from_config({}), body_density=985.0)
    samples = anthro.sample_population(model, 200, seed=9)
    unit = anthro.TruncatedNormal(mean=1.0, std=1e-300, lower=0.5, upper=1.5)
    same = anthro.scale_samples(samples, anthro.ScalingConfig(x=unit, y=unit, z=unit), seed=10)
    for s, t in zip(samples, same):
        assert abs(t.volume_dm3 - s.volume_dm3) <= 1e-12 * s.volume_dm3
    scaled = anthro.scale_samples(samples, anthro.scaling_from_config({}), seed=11)
    assert any(t.mass_kg != s.mass_kg for s, t in zip(samples, scaled))
    for s, t in zip(samples, scaled):
        density = s.mass_kg / s.volume_dm3
        assert abs(t.mass_kg / t.volume_dm3 - density) <= 1e-12 * density


# ---------------------------------------------------------------------------
# KL divergence of the fitted log-normal, and the KS distance
# ---------------------------------------------------------------------------

def test_kl_of_the_fitted_lognormal_hand_case():
    # logs 0, l and 2l with l = log 2: the maximum-likelihood fit (divide by
    # n, not n - 1) is mu_hat = l and sigma_hat = l sqrt(2/3). Against
    # N(0, l^2), r = sqrt(2/3) and z = 1: KL = log(3/2)/2 + (2/3 + 1)/2 - 1/2.
    l = math.log(2.0)
    target = anthro.LogNormalParams(mu=0.0, sigma=l)
    expected = 0.5 * math.log(1.5) + 1.0 / 3.0
    assert anthro.kl_divergence([1.0, 2.0, 4.0], target) == pytest.approx(expected, rel=1e-15)
    # the same fit against N(l, (2l)^2): r = sqrt(2/3)/2 and z = 0
    wide = anthro.LogNormalParams(mu=l, sigma=2.0 * l)
    expected = -math.log(math.sqrt(2.0 / 3.0) / 2.0) + (2.0 / 3.0 / 4.0) / 2.0 - 0.5
    assert anthro.kl_divergence([4.0, 1.0, 2.0], wide) == pytest.approx(expected, rel=1e-15)


def test_kl_tells_exact_draws_from_a_ten_percent_sigma_error():
    # n = 2,000 exact log-normal draws score at most 0.0016 nats over seeds
    # 0-19, and draws whose sigma is 10% too wide at least 0.0042
    target = anthro.model_from_config({}).female.mass
    exact, wide = [], []
    for seed in range(20):
        exact.append(anthro.kl_divergence(np.random.default_rng(seed).lognormal(target.mu, target.sigma, 2000), target))
        wide.append(anthro.kl_divergence(
            np.random.default_rng(seed).lognormal(target.mu, 1.1 * target.sigma, 2000), target))
    assert max(exact) < min(wide)


def test_kl_self_divergence_small():
    target = anthro.LogNormalParams(mu=math.log(1.7), sigma=0.05)
    samples = np.random.default_rng(11).lognormal(target.mu, target.sigma, 1_000_000)
    assert anthro.kl_divergence(samples, target) <= 1e-5


def test_kl_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(50):
        target = anthro.LogNormalParams(mu=rng.uniform(-1, 1), sigma=rng.uniform(0.05, 0.5))
        samples = rng.uniform(0.5, 3.0, size=200)
        assert anthro.kl_divergence(samples, target) >= 0.0


def test_kl_needs_two_samples():
    target = anthro.LogNormalParams(mu=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="at least 2 samples"):
        anthro.kl_divergence([1.0], target)
    with pytest.raises(ValueError, match="^the height column has no spread$"):
        anthro.kl_divergence([1.0, 1.0], target, "the height column")


def test_ks_hand_cases():
    # u = (0.1, 0.2, 0.9): D = max(1/3 - 0.1, 2/3 - 0.2, 1 - 0.9, 0.1, 0.9 - 2/3) = 2/3 - 0.2
    target = anthro.LogNormalParams(mu=0.0, sigma=1.0)
    at = lambda u: math.exp(NormalDist().inv_cdf(u))
    assert anthro.ks_statistic([at(0.9), at(0.1), at(0.2)], target) == pytest.approx(2.0 / 3.0 - 0.2, rel=1e-12)
    # samples at u = (i - 1/2)/n give the smallest D there is, 1/(2n)
    assert anthro.ks_statistic([at((i - 0.5) / 8) for i in range(1, 9)], target) == pytest.approx(1 / 16, rel=1e-12)


@pytest.mark.parametrize("gender", ["female", "male"])
def test_population_marginals_pass_the_ks_check(gender):
    # the sampler's height and mass marginals are the model's log-normals:
    # D stays below 1.63/sqrt(n), the alpha = 0.01 critical value
    model = anthro.model_from_config({})
    samples = [s for s in anthro.sample_population(model, 20_000, seed=7) if s.gender == gender]
    params = model.params_for(gender)
    bound = 1.63 / math.sqrt(len(samples))
    assert anthro.ks_statistic([s.height_m for s in samples], params.height) < bound
    assert anthro.ks_statistic([s.mass_kg for s in samples], params.mass) < bound


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


def test_alignment_change_from_a_zero_kl():
    # logs mu - sigma and mu + sigma fit the target exactly, so KL is 0 and
    # the change from it is IEEE's (0 - after) / 0 instead of a raise
    target = anthro.LogNormalParams(mu=0.5, sigma=0.25)
    exact = [math.exp(0.25), math.exp(0.75)]
    assert anthro.kl_divergence(exact, target) == 0.0
    assert math.isnan(anthro.alignment_report(exact, exact, target).pct_change)
    assert anthro.alignment_report(exact, [1.0, 2.0], target).pct_change == -math.inf


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
# Model configs
# ---------------------------------------------------------------------------

def test_partial_model_config_overrides_the_shipped_model():
    model = anthro.model_from_config({"gender_mix": "0.25", "male.mass.sigma": "0.2"})
    default = anthro.model_from_config({})
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
    assert anthro.scaling_from_config(default_config("scaling")) == anthro.scaling_from_config({})


def test_samples_csv_roundtrip(tmp_path):
    samples = anthro.sample_population(anthro.model_from_config({}), 50, seed=77)
    path = tmp_path / "samples.csv"
    anthro.write_samples_csv(samples, path)
    assert anthro.read_samples_csv(path) == samples
