"""Population anthropometrics: log-normal mass/height models, BMI-constrained
sampling, truncated-normal mesh scaling, and KL-divergence alignment reports.

Masses are in kg, heights in meters, volumes in dm^3 unless noted. Mass and
volume convert through the model's average body density (kg/m^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import ParseError, ValidationError, config_getter, csv_text, default_config, read_csv
from .rng import SplitMix64, mix_seed


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
    mass: LogNormalParams  # kg
    height: LogNormalParams  # m


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
        if not lo < hi:
            raise ValidationError(f"bmi_range must satisfy lo < hi, got {self.bmi_range}")
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

_REJECTION_WINDOW = 1000
_MIN_ACCEPT_RATE = 0.01


def sample_population(model: AnthropometricModel, n: int, seed: int) -> list[PersonSample]:
    """Draw n persons; heights and masses come from the gender's log-normals
    and draws with BMI outside the model range are rejected and redrawn. A
    model whose BMI window rejects over 99% of draws raises ValidationError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    stream = SplitMix64(seed)
    lo, hi = model.bmi_range
    samples: list[PersonSample] = []
    window_draws = 0
    window_accepts = 0
    for _ in range(n):
        gender = "female" if stream.uniform() < model.gender_mix else "male"
        params = model.params_for(gender)
        while True:
            height = math.exp(params.height.mu + params.height.sigma * stream.normal())
            mass = math.exp(params.mass.mu + params.mass.sigma * stream.normal())
            window_draws += 1
            bmi = mass / (height * height)
            if lo <= bmi <= hi:
                window_accepts += 1
                break
            if window_draws >= _REJECTION_WINDOW:
                if window_accepts < _MIN_ACCEPT_RATE * window_draws:
                    raise ValidationError(
                        f"BMI rejection rate exceeded 99% over {window_draws} draws"
                    )
                window_draws = 0
                window_accepts = 0
        if window_draws >= _REJECTION_WINDOW:
            window_draws = 0
            window_accepts = 0
        volume_m3 = volume_from_mass(mass, model.body_density)
        samples.append(
            PersonSample(
                gender=gender,
                height_m=height,
                mass_kg=mass,
                bmi=bmi,
                volume_dm3=volume_m3 * 1000.0,
            )
        )
    return samples


def sample_scaling(cfg: ScalingConfig, seed: int, max_attempts: int = 1_000_000) -> tuple[float, float, float]:
    """One (x, y, z) scaling triple, each factor drawn by rejection from its
    truncated normal."""
    stream = SplitMix64(seed)
    out = []
    for tn in (cfg.x, cfg.y, cfg.z):
        for _ in range(max_attempts):
            value = tn.mean + tn.std * stream.normal()
            if tn.lower <= value <= tn.upper:
                out.append(value)
                break
        else:
            raise ValidationError(
                f"no draw landed in [{tn.lower}, {tn.upper}] after {max_attempts} attempts"
            )
    return out[0], out[1], out[2]


def scale_samples(samples: list[PersonSample], cfg: ScalingConfig, seed: int) -> list[PersonSample]:
    """Population-level effect of per-person mesh scaling: the vertical factor
    stretches height, the product of all three scales volume and mass alike,
    so each sample keeps its body density."""
    out = []
    for i, s in enumerate(samples):
        sx, sy, sz = sample_scaling(cfg, mix_seed(seed, i))
        height = s.height_m * sz
        factor = sx * sy * sz
        mass = s.mass_kg * factor
        out.append(
            PersonSample(
                gender=s.gender,
                height_m=height,
                mass_kg=mass,
                bmi=mass / (height * height),
                volume_dm3=s.volume_dm3 * factor,
            )
        )
    return out


# ---------------------------------------------------------------------------
# KL divergence and alignment reporting
# ---------------------------------------------------------------------------

def kl_divergence(samples, target: LogNormalParams, bins: int = 50) -> float:
    """Histogram KL divergence D(empirical || target) in nats.

    The samples are binned over [min, max] with equal-width bins; the target
    is reduced to the probability mass it assigns to each bin (CDF
    differences), renormalized over the histogram support.
    """
    arr = np.asarray(samples, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if (arr <= 0).any():
        raise ValueError("samples must be positive")
    lo, hi = float(arr.min()), float(arr.max())
    if not hi > lo:
        raise ValueError("samples are all identical; histogram support is degenerate")
    counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    p = counts / counts.sum()
    cdf = np.array([target.cdf(edge) for edge in edges.tolist()])
    support_mass = cdf[-1] - cdf[0]
    if support_mass <= 0:
        raise ValueError("target has no probability mass on the sample support")
    q = np.diff(cdf) / support_mass
    mask = p > 0
    if (q[mask] <= 0).any():
        return math.inf
    return max(0.0, math.fsum(pi * math.log(pi / qi) for pi, qi in zip(p[mask].tolist(), q[mask].tolist())))


@dataclass(frozen=True)
class AlignmentReport:
    kl_before: float
    kl_after: float
    pct_change: float  # (before - after) / before; positive means a decrease


def alignment_report(before, after, target: LogNormalParams, bins: int = 50) -> AlignmentReport:
    kl_before = kl_divergence(before, target, bins)
    kl_after = kl_divergence(after, target, bins)
    return AlignmentReport(
        kl_before=kl_before,
        kl_after=kl_after,
        pct_change=(kl_before - kl_after) / kl_before,
    )


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

    return AnthropometricModel(
        female=GenderParams(mass=lognormal("female.mass"), height=lognormal("female.height")),
        male=GenderParams(mass=lognormal("male.mass"), height=lognormal("male.height")),
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
