"""Population anthropometrics: log-normal mass/height models, BMI-truncated
sampling, truncated-normal mesh scaling, and alignment statistics: the KL
divergence of the fitted log-normal and the KS distance to the exact CDF.

Masses are in kg, heights in meters, volumes in dm^3 unless noted. Mass and
volume convert through the model's average body density (kg/m^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .datamodel import ParseError, ValidationError, config_getter, csv_text, default_config, read_csv
from .rng import SplitMix64, mix_seed
from .special import ndtri


@dataclass(frozen=True)
class LogNormalParams:
    """Log-space mean and standard deviation of a log-normal variable."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.sigma < math.inf):
            raise ValidationError(f"need a finite mu and 0 < sigma < inf, got mu={self.mu}, sigma={self.sigma}")

    def cdf(self, x: float) -> float:
        """P(X <= x), from libm's `log` and `erfc`."""
        if not x > 0:
            return 0.0
        return 0.5 * math.erfc((self.mu - math.log(x)) / (self.sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class GenderParams:
    """A gender's log-normal mass and height, with sigma_m > 2 sigma_h (see `bmi`)."""

    mass: LogNormalParams  # kg
    height: LogNormalParams  # m

    def __post_init__(self):
        if not self.mass.sigma > 2.0 * self.height.sigma:
            raise ValidationError(f"mass.sigma={self.mass.sigma!r} must exceed 2 * height.sigma={self.height.sigma!r}, "
                                  "so that log BMI = log mass - 2 log height has a positive variance")
        self.bmi  # raises ValidationError if its mu or sigma leaves the float range

    @property
    def bmi(self) -> LogNormalParams:
        """Log BMI (kg/m^2): mu_m - 2 mu_h, and sigma_m^2 - 4 sigma_h^2 for sigma^2."""
        m, h = self.mass, self.height
        return LogNormalParams(m.mu - 2.0 * h.mu, math.sqrt((m.sigma - 2.0 * h.sigma) * (m.sigma + 2.0 * h.sigma)))


@dataclass(frozen=True)
class AnthropometricModel:
    """A population model; `model_from_config({})` is the shipped model.cfg."""

    female: GenderParams
    male: GenderParams
    gender_mix: float  # probability of sampling a female
    bmi_range: tuple[float, float]  # kg/m^2
    body_density: float  # kg/m^3

    def __post_init__(self):
        lo, hi = self.bmi_range
        if not 0 < lo < hi:
            raise ValidationError(f"bmi_range must satisfy 0 < lo < hi, got {self.bmi_range}")
        if not self.body_density > 0:
            raise ValidationError("body_density must be positive")
        if not 0.0 <= self.gender_mix <= 1.0:
            raise ValidationError("gender_mix must lie in [0, 1]")

    def params_for(self, gender: str) -> GenderParams:
        return self.female if gender == "female" else self.male


@dataclass(frozen=True)
class TruncatedNormal:
    mean: float
    std: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValidationError("truncation bounds must satisfy lower < upper")
        if not self.lower > 0:
            raise ValidationError("lower truncation bound must be positive")
        if not self.std > 0:
            raise ValidationError("std must be positive")


@dataclass(frozen=True)
class ScalingConfig:
    """Per-axis truncated-normal scaling factors (x, y, z)."""

    x: TruncatedNormal
    y: TruncatedNormal
    z: TruncatedNormal


@dataclass(frozen=True)
class PersonSample:
    gender: str
    height_m: float
    mass_kg: float
    bmi: float  # mass / height^2
    volume_dm3: float  # mass / body_density, converted to dm^3


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def volume_from_mass(mass_kg: float, density: float) -> float:
    if not (mass_kg > 0 and density > 0):
        raise ValueError("mass and density must be positive")
    return mass_kg / density


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _truncated_normal(stream: SplitMix64, mean: float, std: float, lower: float, upper: float) -> float:
    """One draw of N(mean, std^2) truncated to [lower, upper], bounds that may
    be infinite: `special.ndtri` of one uniform draw strictly between the
    bounds' CDFs, clamped to the bounds against rounding. A window above the
    mean is drawn as the mirror image of one below it, where the CDF from
    libm's `erfc` keeps its precision. A window whose probability rounds to
    0 raises ValidationError."""
    flip = lower > mean
    lo, hi = (mean - upper, mean - lower) if flip else (lower - mean, upper - mean)
    scale = std * math.sqrt(2.0)
    a, b = 0.5 * math.erfc(-lo / scale), 0.5 * math.erfc(-hi / scale)
    if not b > a:
        raise ValidationError(f"N({mean!r}, {std!r}^2) has no probability in [{lower!r}, {upper!r}] "
                              "at double precision")
    z = std * ndtri(a + (b - a) * stream.uniform())
    return min(max(mean - z if flip else mean + z, lower), upper)


def sample_population(model: AnthropometricModel, n: int, seed: int) -> list[PersonSample]:
    """Draw n persons: log height from the gender's log-normal, and log BMI
    independently of it, from its log-normal truncated to the model's BMI
    range; mass is BMI * height^2. A gender whose BMI range holds no
    probability at double precision raises ValidationError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    stream = SplitMix64(seed)
    lo, hi = model.bmi_range
    log_bmi_of = {"female": model.female.bmi, "male": model.male.bmi}
    samples: list[PersonSample] = []
    for _ in range(n):
        gender = "female" if stream.uniform() < model.gender_mix else "male"
        height_params, bmi_params = model.params_for(gender).height, log_bmi_of[gender]
        height = math.exp(_truncated_normal(stream, height_params.mu, height_params.sigma, -math.inf, math.inf))
        try:
            log_bmi = _truncated_normal(stream, bmi_params.mu, bmi_params.sigma, math.log(lo), math.log(hi))
        except ValidationError as exc:
            raise ValidationError(f"{gender} BMI range [{lo!r}, {hi!r}]: log BMI ~ {exc}") from None
        bmi = min(max(math.exp(log_bmi), lo), hi)  # exp(log lo) can round below lo
        mass = bmi * height * height
        samples.append(PersonSample(gender, height, mass, bmi, volume_from_mass(mass, model.body_density) * 1000.0))
    return samples


def sample_scaling(cfg: ScalingConfig, seed: int) -> tuple[float, float, float]:
    """One (x, y, z) scaling triple, each factor drawn from its truncated normal."""
    stream = SplitMix64(seed)
    return tuple(_truncated_normal(stream, tn.mean, tn.std, tn.lower, tn.upper) for tn in (cfg.x, cfg.y, cfg.z))


def scale_samples(samples: list[PersonSample], cfg: ScalingConfig, seed: int) -> list[PersonSample]:
    """Population-level effect of per-person mesh scaling: the vertical factor
    stretches height, the product of all three scales volume and mass alike,
    so each sample keeps its body density, and BMI scales by sx * sy / sz."""
    out = []
    for i, s in enumerate(samples):
        sx, sy, sz = sample_scaling(cfg, mix_seed(seed, i))
        factor = sx * sy * sz
        out.append(PersonSample(s.gender, s.height_m * sz, s.mass_kg * factor, s.bmi * factor / (sz * sz),
                                s.volume_dm3 * factor))
    return out


# ---------------------------------------------------------------------------
# Alignment statistics against a log-normal target
# ---------------------------------------------------------------------------

def kl_divergence(samples, target: LogNormalParams, name: str = "the sample set") -> float:
    """KL(N(mu_hat, sigma_hat^2) || N(mu, sigma^2)) in nats (Kullback 1959), clamped at 0, for the maximum-
    likelihood fit to the samples' logs. Products, not powers or sigma^2, so a tiny sigma gives inf, not an
    error. Fewer than 2 samples, or logs all equal (`name` has no spread), raise ValueError."""
    logs = [math.log(x) for x in samples]
    if len(logs) < 2:
        raise ValueError("need at least 2 samples")
    if min(logs) == max(logs):
        raise ValueError(f"{name} has no spread")
    mu_hat = math.fsum(logs) / len(logs)
    sigma_hat = math.sqrt(math.fsum((v - mu_hat) * (v - mu_hat) for v in logs) / len(logs))
    r, z = sigma_hat / target.sigma, (mu_hat - target.mu) / target.sigma
    return max(0.0, -math.log(r) + (r * r + z * z) / 2.0 - 0.5)


def ks_statistic(samples, target: LogNormalParams) -> float:
    """Kolmogorov-Smirnov D against the target's exact CDF (Stephens 1974): the largest of
    i/n - u_(i) and u_(i) - (i-1)/n over the sorted u = F(x). Compare it with 1.36/sqrt(n)."""
    u = sorted(target.cdf(x) for x in samples)
    return max(max(i / len(u) - ui, ui - (i - 1) / len(u)) for i, ui in enumerate(u, 1))


@dataclass(frozen=True)
class AlignmentReport:
    kl_before: float
    kl_after: float
    ks_before: float
    ks_after: float

    @property
    def pct_change(self) -> float:
        """(kl_before - kl_after) / kl_before, positive for a decrease; from a KL of 0, IEEE's -inf or nan."""
        if self.kl_before == 0.0:
            return -math.inf if self.kl_after else math.nan
        return (self.kl_before - self.kl_after) / self.kl_before


def alignment_report(before, after, target: LogNormalParams, names=("the before set", "the after set")):
    """Both sets' KL and KS D against the target; `names` name a set without spread."""
    return AlignmentReport(kl_divergence(before, target, names[0]), kl_divergence(after, target, names[1]),
                           ks_statistic(before, target), ks_statistic(after, target))


# ---------------------------------------------------------------------------
# Config and sample-file I/O
# ---------------------------------------------------------------------------

def build_model(get) -> AnthropometricModel:
    """The model a config_getter's `get` describes, by model.cfg's keys."""
    def lognormal(prefix: str) -> LogNormalParams:
        try:
            return LogNormalParams(get(f"{prefix}.mu", float), get(f"{prefix}.sigma", float))
        except ValidationError as exc:
            raise ValidationError(f"{prefix}: {exc}") from None

    def gender(name: str) -> GenderParams:
        mass, height = lognormal(f"{name}.mass"), lognormal(f"{name}.height")
        try:
            return GenderParams(mass=mass, height=height)
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from None

    return AnthropometricModel(
        female=gender("female"),
        male=gender("male"),
        gender_mix=get("gender_mix", float),
        bmi_range=(get("bmi.lo", float), get("bmi.hi", float)),
        body_density=get("body_density", float),
    )


def model_from_config(pairs: dict[str, str], source: str = "<config>") -> AnthropometricModel:
    """The shipped model.cfg with `pairs` overriding any of its keys. A
    value out of range raises ValidationError naming `source`."""
    get = config_getter(pairs, default_config("model"), "model", source)
    try:
        return build_model(get)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def scaling_from_config(pairs: dict[str, str], source: str = "<config>") -> ScalingConfig:
    """The shipped scaling.cfg with `pairs` overriding any of its keys."""
    get = config_getter(pairs, default_config("scaling"), "scaling", source)

    def axis(name: str) -> TruncatedNormal:
        return TruncatedNormal(*(get(f"scale.{name}.{field}", float) for field in ("mean", "std", "lower", "upper")))

    return ScalingConfig(x=axis("x"), y=axis("y"), z=axis("z"))


_SAMPLE_COLUMNS = ("gender", "height_m", "mass_kg", "bmi", "volume_dm3")


def write_samples_csv(samples: list[PersonSample], path) -> None:
    rows = [(s.gender, s.height_m, s.mass_kg, s.bmi, s.volume_dm3) for s in samples]
    Path(path).write_text(csv_text([_SAMPLE_COLUMNS] + rows), encoding="utf-8")


def read_samples_csv(path) -> list[PersonSample]:
    """Rows written by write_samples_csv. A missing column, a value that is
    not a number, a gender other than female or male, or a height, mass,
    BMI or volume that is not a finite number > 0 raises ParseError naming
    the file and line."""
    out: list[PersonSample] = []
    for where, row in read_csv(path, _SAMPLE_COLUMNS):
        try:
            values = [float(row[col]) for col in _SAMPLE_COLUMNS[1:]]
        except ValueError:
            raise ParseError(f"{where}: bad or missing value") from None
        for col, value in zip(_SAMPLE_COLUMNS[1:], values):
            if not 0 < value < math.inf:
                raise ParseError(f"{where}: {col} must be a finite number > 0, got {row[col]!r}")
        if row["gender"] not in ("female", "male"):
            raise ParseError(f"{where}: gender must be female or male, got {row['gender']!r}")
        out.append(PersonSample(row["gender"], *values))
    return out
