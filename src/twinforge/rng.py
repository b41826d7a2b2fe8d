"""Counter-based deterministic random streams.

Every draw is a pure function of (key, counter): no hidden state, so streams
are reproducible bit-for-bit regardless of generation order, chunking, or
thread count. Mixing is splitmix64 over uint64, uniforms come from the top
53 bits, and gaussians use an Irwin-Hall(12) sum, which needs only adds and
one multiply (exact IEEE ops, so platform-independent) and is hard-bounded
to +/-6 sigma.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidSpec, shown

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# counters per logical sample; 12 for the gaussian, the rest for extra draws
DRAWS_PER_SAMPLE = 16


def _u64(x: int) -> np.uint64:
    return np.uint64(x & 0xFFFFFFFFFFFFFFFF)


def fnv1a64(text: str) -> np.uint64:
    """Stable 64-bit hash of a string (FNV-1a over UTF-8 bytes), accumulated
    in a Python int and wrapped as np.uint64 once."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = (h ^ b) * _FNV_PRIME & 0xFFFFFFFFFFFFFFFF
    return np.uint64(h)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def check_seed(seed: int) -> None:
    """A seed, an int but not a bool, names one run only inside [0, 2**64):
    stream_key keys its streams on the seed modulo 2**64. The simulator's
    scenario and the k-means++ seeding check a seed here."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidSpec(f"seed must be an integer, got {shown(seed)}")
    if not 0 <= seed < 2**64:
        raise InvalidSpec(f"seed must be in [0, 2**64), got {shown(seed, str)}")


def stream_key(seed: int, *labels: str) -> np.uint64:
    """Derive a stream key from an integer seed and string labels."""
    k = _splitmix64(np.asarray(_u64(seed)))
    for label in labels:
        with np.errstate(over="ignore"):
            k = _splitmix64(k ^ fnv1a64(label))
    return np.uint64(k)


def uniforms(key: np.uint64, counters) -> np.ndarray:
    """Uniform [0, 1) doubles, one per counter."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _splitmix64(key + c * _GOLDEN)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def gaussians(key: np.uint64, index) -> np.ndarray:
    """Unit gaussians, one per sample index (Irwin-Hall 12-sum, |z| <= 6)."""
    idx = np.asarray(index, dtype=np.uint64)
    base = idx * np.uint64(DRAWS_PER_SAMPLE)
    counters = base[..., None] + np.arange(12, dtype=np.uint64)
    return uniforms(key, counters).sum(axis=-1) - 6.0


def bernoulli(key: np.uint64, index, p: float) -> np.ndarray:
    """Boolean draws at probability p, one per sample index (slot 12)."""
    idx = np.asarray(index, dtype=np.uint64)
    c = idx * np.uint64(DRAWS_PER_SAMPLE) + np.uint64(12)
    return uniforms(key, c) < p
