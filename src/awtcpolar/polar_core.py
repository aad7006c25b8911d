"""Exact polarization arithmetic for erasure channel blocks.

Erasure probabilities are kept as (log eps, log(1-eps)) array pairs and the
threshold 2^(-N^beta) as its log, so that polarized values far below 1e-300
stay representable.  Boolean adversary realizations are propagated exactly
with OR/AND logic instead of floats: one butterfly, realize_packed, runs on
natural-order rows packed into 64-bit words and leaves each decision's
indicator at its bit-reversed position; realize_profile unpacks that and
reverses it, and callers that only count bits (count_bits) skip both.

The package's input checks live here too, one per rule: checked_bits,
check_fractions and checked_int.
"""

from __future__ import annotations

import functools
import math
import operator
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


def checked_bits(a, name: str, top: int = 1) -> np.ndarray:
    """a as uint8 bits (top 1) or trits (top 2), rejecting every other value,
    which the cast alone would wrap (257 to a one, 258 to an erasure)."""
    a = np.asarray(a)
    if a.dtype in (np.int8, np.uint8):
        out = a.view(np.uint8)  # a negative int8 views as 128 or more
        bad = out.max(initial=0) > top  # max allocates no mask of a's size
    else:
        with np.errstate(invalid="ignore"):  # NaN casts to garbage, then fails the compare
            out = a.astype(np.uint8, copy=False)
        bad = not np.array_equal(out, a) or out.max(initial=0) > top
    if bad:
        kind = "bits: 0 or 1" if top == 1 else "trits: 0, 1 or 2 (erased)"
        raise ValueError(f"{name} must be {kind}")
    return out


def check_fractions(rho_w: float, rho_r: float) -> None:
    """Reject a write/read budget outside rho_w, rho_r >= 0, rho_w + rho_r < 1;
    every comparison with NaN is False, so NaN fails too."""
    if not (rho_w >= 0.0 and rho_r >= 0.0 and rho_w + rho_r < 1.0):
        raise ValueError("fractions must be non-negative with rho_w + rho_r < 1, "
                         f"got {rho_w} + {rho_r}")


def checked_int(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer; a float would
    truncate (4.7 to 4) or pass a range check unnoticed, so it fails."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_block_length(length: int) -> int:
    """Return n for a block length 2^n; raise ValueError for any other length."""
    if length <= 0 or (length & (length - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {length}")
    return length.bit_length() - 1


@functools.lru_cache(maxsize=None)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """0-based bit-reversal permutation of length 2^n (an involution)."""
    perm = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.flags.writeable = False
    return perm


_WORD = 64
# the low half of every 2h-bit block of a little-endian 64-bit word
_LOW_HALF = {
    1: np.uint64(0x5555555555555555),
    2: np.uint64(0x3333333333333333),
    4: np.uint64(0x0F0F0F0F0F0F0F0F),
    8: np.uint64(0x00FF00FF00FF00FF),
    16: np.uint64(0x0000FFFF0000FFFF),
    32: np.uint64(0x00000000FFFFFFFF),
}


def pack_rows(bits) -> np.ndarray:
    """Boolean rows (rows, N) packed little-endian into 64-bit words, shape
    (rows, max(1, N/64)); a row shorter than a word is zero-padded."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] < _WORD // 8:
        packed = np.pad(packed, ((0, 0), (0, _WORD // 8 - packed.shape[-1])))
    return np.ascontiguousarray(packed).view("<u8")


@functools.lru_cache(maxsize=None)
def _byte_popcount() -> np.ndarray:
    """Set bits of every byte value: numpy 2's bitwise_count, for numpy 1."""
    return np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1, dtype=np.uint8)


def count_bits(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of C-contiguous 64-bit words, summed over the
    last axis."""
    return _byte_popcount()[words.view(np.uint8)].sum(axis=-1, dtype=np.intp)


def realize_packed(words: np.ndarray, n: int) -> np.ndarray:
    """The OR/AND butterfly of realize_profile on packed rows, in place.

    words holds rows of N = 2^n mask bits in natural order, packed by
    pack_rows (C-contiguous, shape (rows, max(1, N/64))).  For h = 1, 2,
    ..., N/2, within every block of 2h, (z[i], z[i+h]) -> (z[i] | z[i+h],
    z[i] & z[i+h]).  Afterwards bit j of a row holds the noise indicator of
    decision rev(j), rev being bit_reversal_permutation(n).  Stages with
    h < 64 pair the bits inside each word by masked shifts; the others pair
    whole words.  The padding of a row shorter than a word is never paired
    with its bits.  Returns words.
    """
    N = 1 << n
    rows = words.shape[0]
    h = 1
    t, u = np.empty_like(words), np.empty_like(words)
    while h < min(N, _WORD):
        keep, shift = _LOW_HALF[h], np.uint64(h)
        # t marks the pairs (0, 1), the only ones OR/AND changes: to (1, 0)
        np.right_shift(words, shift, out=t)
        np.bitwise_and(t, keep, out=t)
        np.invert(words, out=u)
        np.bitwise_and(t, u, out=t)
        # flip both bits of each marked pair: t * (2^h + 1) is t | t << h,
        # since t has no bit in any high half
        np.multiply(t, np.uint64((1 << h) + 1), out=t)
        np.bitwise_xor(words, t, out=words)
        h *= 2
    spare = np.empty(words.size // 2, dtype=words.dtype)
    while h < N:
        pairs = words.reshape(rows, N // (2 * h), 2, h // _WORD)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        both = spare.reshape(low.shape)
        np.bitwise_and(low, high, out=both)
        np.bitwise_or(low, high, out=low)
        high[...] = both
        h *= 2
    return words


def realize_profile(mask) -> np.ndarray:
    """Exact per-index noise indicators of the generated channels.

    mask is one block's full-noise indicators, shape (N,), or independent
    blocks' masks stacked as (rows, N); the boolean result has the same
    shape, output position i holding the i-th decoder decision's channel.

    The non-stationary pairing (at stage q the block entries (i, i+2^q) map
    to (i OR i+2^q, i AND i+2^q) interleaved) equals the in-place OR/AND
    butterfly of realize_packed on the natural-order mask, followed by a
    bit reversal of its output.  mask holds bools or 0/1 values.
    """
    z = checked_bits(mask, "mask")
    if z.ndim not in (1, 2):
        raise ValueError(f"mask must be (N,) or stacked (rows, N), got shape {z.shape}")
    N = z.shape[-1]
    n = check_block_length(N)
    words = realize_packed(pack_rows(z.reshape(-1, N)), n)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=N, bitorder="little")
    return bits.view(bool)[:, bit_reversal_permutation(n)].reshape(z.shape)


def delta_threshold(N: int, beta: float) -> float:
    """Log of the polarization threshold 2^(-N^beta), never materialized linearly."""
    n = check_block_length(N)
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 0.5), got {beta}")
    return -math.pow(2.0, n * beta) * _LN2
