"""Deterministic 64-bit seed derivation (splitmix64 output stream) and the complex-normal draw.

Every randomized routine in the package takes an explicit seed. Experiment
drivers expand one master seed into per-trial sub-seeds with
``split_seed(master, k)``; the rule is stateless, so trial k can be replayed
in isolation.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

SEED_SPLIT_NAME = "splitmix64"


def split_seed(master: int, stream: int) -> int:
    """Return the ``stream``-th 64-bit sub-seed of ``master``.

    This is the splitmix64 generator seeded at ``master``: the internal state
    advances by the golden-ratio increment, so sub-seed k is the k-th output
    and is independent of how many other streams are drawn.
    """
    if stream < 0:
        raise ValueError("stream index must be non-negative")
    x = (master + (stream + 1) * _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return (x ^ (x >> 31)) & MASK64


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for an arbitrary (possibly negative) 64-bit seed."""
    return np.random.default_rng(seed & MASK64)


def _gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """rng.standard_normal(shape) + 1j * rng.standard_normal(shape), bit for bit.

    Filled in place, without the two complex temporaries of the expression.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z
