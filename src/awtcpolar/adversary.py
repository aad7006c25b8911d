"""Adversarial read/write sampling and its effect on transmissions.

An action is two boolean masks over the N 0-based codeword positions, True on
the written set S_w and on the read set S_r.  The adversary erases the bits it
writes (Bob sees '?') and captures the bits it reads (Eve sees everything else
as '?').  With k = floor(rho * N), uniform marks where the k smallest of N
uniform keys fall, keys tied with the k-th smallest taken in position order
(the first k of a stable sort), and prefix the first k positions; bernoulli
keeps each position with probability rho, so its Binomial(N, rho) size can
exceed k.  The two sets are drawn independently and may overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polar_core import check_fractions, checked_bits


class Strategy(Enum):
    UNIFORM = "uniform"
    BERNOULLI = "bernoulli"
    PREFIX = "prefix"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown strategy {name!r}; choose from "
                f"{[s.value for s in cls]}"
            ) from None


def _is_mask(mask, shape) -> bool:
    return isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape


@dataclass(frozen=True, eq=False)
class AdversaryAction:
    """One adversary move as two masks over 0-based positions: write is True
    on the written set S_w, read is True on the read set S_r."""

    write: np.ndarray
    read: np.ndarray

    def __post_init__(self):
        shape = (np.size(self.write),)
        if not (_is_mask(self.write, shape) and _is_mask(self.read, shape)):
            raise ValueError("write and read must be 1-D boolean masks of one length")


def _draw_mask(N: int, rho: float, strategy: Strategy, rng: np.random.Generator) -> np.ndarray:
    if strategy is Strategy.BERNOULLI:
        return rng.random(N) < rho
    size = math.floor(rho * N)
    if strategy is Strategy.PREFIX:
        mask = np.zeros(N, dtype=bool)
        mask[:size] = True
        return mask
    # where the size smallest of N uniform keys fall: a uniform size-subset
    keys = rng.random(N)
    cut = np.partition(keys, size - 1)[size - 1] if size else -1.0
    mask = keys <= cut
    excess = np.count_nonzero(mask) - size
    if excess:
        # keys tied with the cut are taken in position order, as a stable sort takes them
        mask[np.flatnonzero(keys == cut)[-excess:]] = False
    return mask


def sample_action(
    N: int,
    rho_w: float,
    rho_r: float,
    strategy: Strategy,
    rng: np.random.Generator,
) -> AdversaryAction:
    """Draw S_w then S_r (in that order, independently) from one rng stream."""
    check_fractions(rho_w, rho_r)
    write = _draw_mask(N, rho_w, strategy, rng)
    read = _draw_mask(N, rho_r, strategy, rng)
    return AdversaryAction(write=write, read=read)


def _checked_block(x, mask) -> tuple:
    """x as uint8 bits and mask's bytes, once x holds bits and mask is a
    boolean mask of x's shape."""
    x = checked_bits(x, "codeword")
    if not _is_mask(mask, x.shape):
        raise ValueError(f"need a boolean mask of shape {x.shape}, one entry per position")
    return x, mask.view(np.uint8)


def apply_write(x, write) -> np.ndarray:
    """Bob's observation: x with every written position erased.  x is one
    block (N,) or a stacked session (T, N); write is a mask of its shape.
    Returns int8 trits."""
    x, w = _checked_block(x, write)
    # w - 1 is 0xFF where x is kept and 0 where written; w << 1 is Trit.ERASED (2)
    return (x & (w - 1) | w << 1).view(np.int8)


def apply_read(x, read) -> np.ndarray:
    """Eve's observation: x erased everywhere except the positions she reads.
    x is one block (N,) or a stacked session (T, N); read is a mask of its
    shape.  Returns int8 trits."""
    x, r = _checked_block(x, read)
    # -r is 0xFF where x is read and 0 elsewhere; (r ^ 1) << 1 is Trit.ERASED there
    return (x & -r | (r ^ 1) << 1).view(np.int8)


def write_equivalent_mask(actions) -> np.ndarray:
    """Bob's equivalent channel blocks, one row per action: True (full noise)
    where written."""
    return np.stack([action.write for action in actions])


def read_equivalent_mask(actions) -> np.ndarray:
    """Eve's equivalent channel blocks, one row per action: True (full noise)
    where not read."""
    return ~np.stack([action.read for action in actions])
