"""Exact polarization arithmetic for erasure channel blocks.

Erasure probabilities are kept as (log eps, log(1-eps)) array pairs and the
threshold 2^(-N^beta) as its log, so that polarized values far below 1e-300
stay representable.  Boolean adversary realizations are propagated exactly
with OR/AND logic instead of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")
_LN2 = math.log(2.0)


def _log1m_from_log_arr(x: np.ndarray) -> np.ndarray:
    # both branches are safe for x <= 0 once divide-by-zero warnings are off
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > -_LN2, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
    # exp(-inf) = 0 -> log1p(0) = 0 exactly; exp(0) = 1 -> log(0) = -inf exactly
    return out


@dataclass(frozen=True, eq=False)
class PolarizationProfile:
    """Per-index erasure/full-noise probabilities of a polarized length-N block.

    Entry i-1 (0-based storage) belongs to the generated channel whose
    reliability governs the successive-cancellation decoder's i-th decision.
    """

    n: int
    rho: float
    log_eps: np.ndarray = field(repr=False)
    log_one_minus_eps: np.ndarray = field(repr=False)

    def __post_init__(self):
        N = 1 << self.n
        if len(self.log_eps) != N or len(self.log_one_minus_eps) != N:
            raise ValueError(f"profile length must be {N}")
        mean = float(np.exp(self.log_eps).mean())
        if abs(mean - self.rho) > 1e-9:
            raise ValueError(
                f"profile mean {mean} drifted from rho={self.rho}; kernel bug?"
            )


def _next_level(log_eps: np.ndarray, log_1m: np.ndarray):
    """Double a stationary profile level: entry i spawns (minus, plus) at 2i, 2i+1."""
    plus_le = log_eps + log_eps
    minus_l1m = log_1m + log_1m
    out_le = np.empty(2 * len(log_eps))
    out_l1m = np.empty_like(out_le)
    out_le[0::2] = _log1m_from_log_arr(minus_l1m)
    out_le[1::2] = plus_le
    out_l1m[0::2] = minus_l1m
    out_l1m[1::2] = _log1m_from_log_arr(plus_le)
    return out_le, out_l1m


def bec_profile_stages(rho: float, n: int):
    """Yield the polarization profile after each stage q = 0..n.

    Stage q is a PolarizationProfile of length 2^q; the last yield is the
    full bec_profile(rho, n).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if n < 0:
        raise ValueError(f"stage count must be >= 0, got {n}")
    # the extremes are exact, and log(1 - 0) is +0.0 where log1p(-0.0) is -0.0
    if rho == 0.0:
        seed = (NEG_INF, 0.0)
    elif rho == 1.0:
        seed = (0.0, NEG_INF)
    else:
        seed = (math.log(rho), math.log1p(-rho))
    log_eps = np.array([seed[0]])
    log_1m = np.array([seed[1]])
    yield PolarizationProfile(0, rho, log_eps, log_1m)
    for q in range(1, n + 1):
        log_eps, log_1m = _next_level(log_eps, log_1m)
        yield PolarizationProfile(q, rho, log_eps, log_1m)


def bec_profile(rho: float, n: int) -> PolarizationProfile:
    """Polarize a stationary erasure block of parameter rho through n stages.

    Parameters
    ----------
    rho : float
        Initial erasure probability in [0, 1] (equivalently, the full-noise
        fraction of an adversarial block under independent sampling).
    n : int
        Number of stages; the result has length N = 2^n.

    Returns
    -------
    PolarizationProfile
        Exact log-domain profile, index-aligned with the decoder schedule.
    """
    profile = None
    for profile in bec_profile_stages(rho, n):
        pass
    return profile


def check_block_length(length: int) -> int:
    """Return n for a block length 2^n; raise ValueError for any other length."""
    if length <= 0 or (length & (length - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {length}")
    return length.bit_length() - 1


def realize_profile(mask) -> np.ndarray:
    """Exact per-index noise indicators of the generated channels for one mask.

    Applies the non-stationary pairing in place: at stage q (Q = 2^q) the
    block entries (i, i+Q) map to (i OR i+Q, i AND i+Q) interleaved, so output
    position i is the i-th decoder decision's channel.  Returns a boolean
    vector the same length as the mask.
    """
    z = np.array(mask, dtype=bool)
    for q in range(check_block_length(len(z))):
        Q = 1 << q
        blk = z.reshape(-1, 2 * Q)
        a = blk[:, :Q]
        b = blk[:, Q:]
        out = np.empty_like(blk)
        out[:, 0::2] = a | b
        out[:, 1::2] = a & b
        z = out.reshape(-1)
    return z


def delta_threshold(N: int, beta: float) -> float:
    """Log of the polarization threshold 2^(-N^beta), never materialized linearly."""
    n = check_block_length(N)
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 0.5), got {beta}")
    return -math.pow(2.0, n * beta) * _LN2
