"""Deterministic random streams based on the splitmix64 generator.

Every stochastic component of the toolkit draws from these streams so that
outputs are a pure function of the configured seed, independent of platform,
worker count, or library version. Normals come from the Cephes `ndtri` port
in `special`, so they depend only on the seed and on libm's `log` and `sqrt`.
"""
from __future__ import annotations

import numpy as np

from .special import ndtri

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix_seed(*parts: int) -> int:
    """Combine integers into a single 64-bit seed, order sensitive."""
    state = 0x8F1BBCDC8F1BBCDC
    for part in parts:
        state = _splitmix_output((state + (part & 0xFFFFFFFFFFFFFFFF) + _GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    return state


def _splitmix_output(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * _MIX2) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _outputs_for_counters(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64: output i depends only on seed and stream index."""
    with np.errstate(over="ignore"):
        state = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + counters * np.uint64(_GOLDEN)) & _MASK64
        z = state
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)) & _MASK64
        return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix64 stream.

    The i-th output is a pure function of (seed, i), so drawing values one at
    a time and drawing them in a batch yield bit-identical sequences.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._index = 0

    def next_u64(self) -> int:
        self._index += 1
        state = (self.seed + self._index * _GOLDEN) & 0xFFFFFFFFFFFFFFFF
        return _splitmix_output(state)

    def uniform(self) -> float:
        """Uniform draw in the open interval (0, 1)."""
        return (float(self.next_u64() >> 11) + 0.5) * 2.0**-53

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, as n next_u64 calls would give."""
        counters = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        return _outputs_for_counters(self.seed, counters)

    def uniforms(self, n: int) -> np.ndarray:
        z = self.next_u64s(n)
        return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via the inverse CDF of one uniform draw."""
        return ndtri(self.uniform())

    def randint(self, lo: int, hi: int) -> int:
        """Integer uniform on [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def randints(self, lo: int, hi: int, n: int) -> np.ndarray:
        """n draws of randint(lo, hi) as an int64 array."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + (self.next_u64s(n) % np.uint64(hi - lo + 1)).astype(np.int64)
