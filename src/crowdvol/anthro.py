"""Population anthropometrics: log-normal mass/height models, BMI-constrained
sampling, truncated-normal mesh scaling, and KL-divergence alignment reports.

Masses are in kg, heights in meters, volumes in dm^3 unless noted. Mass and
volume convert through a configurable average body density (default
1000 kg/m^3).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .datamodel import ParseError, TriMesh, ValidationError, open_text
from .rng import SplitMix64, mix_seed

DEFAULT_BODY_DENSITY = 1000.0  # kg/m^3
DEFAULT_BMI_RANGE = (10.0, 50.0)  # kg/m^2


class SamplingError(RuntimeError):
    pass


class InfeasibleModelError(SamplingError):
    """BMI-range rejection discards more than 99% of draws."""


@dataclass(frozen=True)
class LogNormalParams:
    """Log-space mean and standard deviation of a log-normal variable."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")

    def median(self) -> float:
        return math.exp(self.mu)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        positive = x > 0
        out[positive] = ndtr((np.log(x[positive]) - self.mu) / self.sigma)
        return out


@dataclass(frozen=True)
class GenderParams:
    mass: LogNormalParams  # kg
    height: LogNormalParams  # m


@dataclass(frozen=True)
class AnthropometricModel:
    female: GenderParams
    male: GenderParams
    gender_mix: float = 0.5  # probability of sampling a female
    bmi_range: tuple[float, float] = DEFAULT_BMI_RANGE
    body_density: float = DEFAULT_BODY_DENSITY

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


@lru_cache(maxsize=1)
def default_model() -> AnthropometricModel:
    """Shipped defaults (configs/model.cfg); order-of-magnitude realistic,
    fully overridable through the same key=value format."""
    from .datamodel import default_config_text, parse_keyvalues

    return model_from_config(parse_keyvalues(default_config_text("model"), "model.cfg"))


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


@lru_cache(maxsize=1)
def default_scaling() -> ScalingConfig:
    """Shipped defaults (configs/scaling.cfg)."""
    from .datamodel import default_config_text, parse_keyvalues

    return scaling_from_config(parse_keyvalues(default_config_text("scaling"), "scaling.cfg"))


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

def mass_from_volume(volume_m3: float, density: float = DEFAULT_BODY_DENSITY) -> float:
    if not (volume_m3 > 0 and density > 0):
        raise ValueError("volume and density must be positive")
    return volume_m3 * density


def volume_from_mass(mass_kg: float, density: float = DEFAULT_BODY_DENSITY) -> float:
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
    and draws with BMI outside the model range are rejected and redrawn."""
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
                    raise InfeasibleModelError(
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


def sample_lognormal(params: LogNormalParams, n: int, seed: int) -> np.ndarray:
    """Vectorized draw of n log-normal values (no rejection)."""
    stream = SplitMix64(seed)
    return np.exp(params.mu + params.sigma * stream.normals(n))


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
            raise SamplingError(
                f"no draw landed in [{tn.lower}, {tn.upper}] after {max_attempts} attempts"
            )
    return out[0], out[1], out[2]


def apply_scaling(mesh: TriMesh, sx: float, sy: float, sz: float) -> TriMesh:
    """Scale vertex coordinates per axis; volume scales by sx*sy*sz."""
    if not (sx > 0 and sy > 0 and sz > 0):
        raise ValueError("scaling factors must be positive")
    return TriMesh(
        vertices=mesh.vertices * np.array([sx, sy, sz]),
        faces=mesh.faces,
        vertex_labels=mesh.vertex_labels,
    )


def scale_samples(samples: list[PersonSample], cfg: ScalingConfig, seed: int,
                  density: float = DEFAULT_BODY_DENSITY) -> list[PersonSample]:
    """Population-level effect of per-person mesh scaling: the vertical factor
    stretches height, the product of all three scales volume and thus mass."""
    out = []
    for i, s in enumerate(samples):
        sx, sy, sz = sample_scaling(cfg, mix_seed(seed, i))
        height = s.height_m * sz
        mass = s.mass_kg * (sx * sy * sz)
        out.append(
            PersonSample(
                gender=s.gender,
                height_m=height,
                mass_kg=mass,
                bmi=mass / (height * height),
                volume_dm3=mass / density * 1000.0,
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
    cdf = target.cdf(edges)
    support_mass = cdf[-1] - cdf[0]
    if support_mass <= 0:
        raise ValueError("target has no probability mass on the sample support")
    q = np.diff(cdf) / support_mass
    mask = p > 0
    if (q[mask] <= 0).any():
        return math.inf
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


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


def write_alignment_csv(reports: dict[str, AlignmentReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "before", "after", "pct_change"])
        for name, rep in reports.items():
            writer.writerow([name, repr(rep.kl_before), repr(rep.kl_after), repr(rep.pct_change)])


# ---------------------------------------------------------------------------
# Config and sample-file I/O
# ---------------------------------------------------------------------------

def model_to_config(model: AnthropometricModel) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for gender in ("female", "male"):
        gp = model.params_for(gender)
        pairs[f"{gender}.mass.mu"] = repr(gp.mass.mu)
        pairs[f"{gender}.mass.sigma"] = repr(gp.mass.sigma)
        pairs[f"{gender}.height.mu"] = repr(gp.height.mu)
        pairs[f"{gender}.height.sigma"] = repr(gp.height.sigma)
    pairs["gender_mix"] = repr(model.gender_mix)
    pairs["bmi.lo"] = repr(model.bmi_range[0])
    pairs["bmi.hi"] = repr(model.bmi_range[1])
    pairs["body_density"] = repr(model.body_density)
    return pairs


def model_from_config(pairs: dict[str, str]) -> AnthropometricModel:
    def gender(name: str) -> GenderParams:
        return GenderParams(
            mass=LogNormalParams(float(pairs[f"{name}.mass.mu"]), float(pairs[f"{name}.mass.sigma"])),
            height=LogNormalParams(float(pairs[f"{name}.height.mu"]), float(pairs[f"{name}.height.sigma"])),
        )

    return AnthropometricModel(
        female=gender("female"),
        male=gender("male"),
        gender_mix=float(pairs.get("gender_mix", "0.5")),
        bmi_range=(float(pairs.get("bmi.lo", "10")), float(pairs.get("bmi.hi", "50"))),
        body_density=float(pairs.get("body_density", "1000")),
    )


def scaling_to_config(cfg: ScalingConfig) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for axis in ("x", "y", "z"):
        tn: TruncatedNormal = getattr(cfg, axis)
        pairs[f"scale.{axis}.mean"] = repr(tn.mean)
        pairs[f"scale.{axis}.std"] = repr(tn.std)
        pairs[f"scale.{axis}.lower"] = repr(tn.lower)
        pairs[f"scale.{axis}.upper"] = repr(tn.upper)
    return pairs


def scaling_from_config(pairs: dict[str, str]) -> ScalingConfig:
    def axis(name: str) -> TruncatedNormal:
        return TruncatedNormal(
            mean=float(pairs[f"scale.{name}.mean"]),
            std=float(pairs[f"scale.{name}.std"]),
            lower=float(pairs[f"scale.{name}.lower"]),
            upper=float(pairs[f"scale.{name}.upper"]),
        )

    return ScalingConfig(x=axis("x"), y=axis("y"), z=axis("z"))


def write_samples_csv(samples: list[PersonSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gender", "height_m", "mass_kg", "bmi", "volume_dm3"])
        for s in samples:
            writer.writerow([s.gender, repr(s.height_m), repr(s.mass_kg), repr(s.bmi), repr(s.volume_dm3)])


_SAMPLE_COLUMNS = ("gender", "height_m", "mass_kg", "bmi", "volume_dm3")


def read_samples_csv(path) -> list[PersonSample]:
    """Rows written by write_samples_csv. A missing column or a value that is
    not a number raises ParseError naming the file."""
    out: list[PersonSample] = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in _SAMPLE_COLUMNS if col not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(f"{path}: missing column {', '.join(missing)}")
        for row in reader:
            try:
                out.append(
                    PersonSample(
                        gender=row["gender"],
                        height_m=float(row["height_m"]),
                        mass_kg=float(row["mass_kg"]),
                        bmi=float(row["bmi"]),
                        volume_dm3=float(row["volume_dm3"]),
                    )
                )
            except (TypeError, ValueError):
                raise ParseError(f"{path}: line {reader.line_num}: bad or missing value") from None
    return out
