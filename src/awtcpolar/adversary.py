"""Adversarial read/write sampling and its effect on transmissions.

An action is two boolean masks over the N 0-based codeword positions, True on
the written set S_w and on the read set S_r.  The adversary erases the bits it
writes (Bob sees '?') and captures the bits it reads (Eve sees everything else
as '?').  With k = floor(rho * N), uniform marks where the k smallest of N
uniform keys fall, keys tied with the k-th smallest taken in position order
(the first k of a stable sort), and prefix the first k positions; bernoulli
keeps each position with probability rho, so its Binomial(N, rho) size can
exceed k.  The two sets are drawn independently and may overlap.  The
actions of a sequence of generators, one block per entry, are drawn in one
pass as stacked masks, row t the action a one-block draw on the t-th entry
would give; a session's T actions are those of one generator listed T
times, its T successive blocks.  A stacked draw fills its keys, chunk by
chunk, into one buffer it reuses, one rng.random(out=...) call per run of
consecutive rows that share a generator, and cuts each side in one reused
buffer.  An action's equivalent channel blocks are its own masks: Bob's
full-noise block is the write mask, Eve's the complement of the read mask.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polar_core import check_fractions, checked_bits, checked_int


class Strategy(Enum):
    UNIFORM = "uniform"
    BERNOULLI = "bernoulli"
    PREFIX = "prefix"


def _is_mask(mask, shape) -> bool:
    return isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape


@dataclass(frozen=True, eq=False)
class AdversaryAction:
    """One adversary move as two masks over 0-based positions: write is True
    on the written set S_w, read is True on the read set S_r.  The masks are
    one block's (N,) or a session's stacked (T, N), one row per block."""

    write: np.ndarray
    read: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.write)
        if not (len(shape) in (1, 2) and _is_mask(self.write, shape)
                and _is_mask(self.read, shape)):
            raise ValueError("write and read must be 1-D boolean masks of one length, "
                             "or (rows, N) stacks of them")


# keys a stacked draw holds at once: max(2^14, 2N), as a chunk holds at least
# one block's two sides; 128 KiB up to n=13 instead of a whole session's
# (3.3 MB at n=12, T=50), 256 KiB for a block at n=14
_CHUNK_KEYS = 1 << 14


def _draw_masks(N: int, rngs, rhos: tuple, strategy: Strategy) -> np.ndarray:
    """(2, len(rngs), N) masks: [0, t] and [1, t] are the sets of rhos[0] and
    rhos[1] one one-block draw on rngs[t] gives, drawing rhos[0]'s keys before
    rhos[1]'s.  A generator listed for several rows gives them its successive
    blocks, in row order."""
    rows = len(rngs)
    masks = np.zeros((2, rows, N), dtype=bool)
    sizes = [math.floor(rho * N) for rho in rhos]
    if strategy is Strategy.PREFIX:
        for mask, size in zip(masks, sizes):
            mask[:, :size] = True
        return masks
    step = max(1, min(rows, _CHUNK_KEYS // (2 * N)))
    # one key buffer and one partition buffer serve every chunk
    buffer = np.empty((step, 2, N))
    work = np.empty((step, N), dtype=np.int64) if strategy is Strategy.UNIFORM else None
    for lo in range(0, rows, step):
        keys = buffer[:min(step, rows - lo)]
        start = 0
        for rng, run in itertools.groupby(rngs[lo: lo + step]):
            # doubles fill in order: a block's write keys, then its read keys,
            # block after block of a run of rows that share one generator
            stop = start + sum(1 for _ in run)
            rng.random(out=keys[start:stop])
            start = stop
        for side, (rho, size) in enumerate(zip(rhos, sizes)):
            side_keys, mask = keys[:, side], masks[side, lo: lo + step]
            if strategy is Strategy.BERNOULLI:
                np.less(side_keys, rho, out=mask)
                continue
            # where the size smallest of N uniform keys fall: a uniform size-subset.
            # The keys are non-negative doubles m * 2^-53, whose bit patterns
            # order as int64s do and are equal only when the keys are, so the
            # cut is selected on the faster integer view.
            cut = -1.0
            if size:
                selected = work[:len(keys)]
                np.copyto(selected, side_keys.view(np.int64))
                selected.partition(size - 1)
                cut = selected[:, size - 1:size].view(np.float64)
            np.less_equal(side_keys, cut, out=mask)
            # every row marks at least size keys; more only where keys tie with its cut
            if np.count_nonzero(mask) > size * len(mask):
                counts = np.count_nonzero(mask, axis=-1)
                for t in np.flatnonzero(counts > size):
                    # tied keys are taken in position order, as a stable sort takes them
                    mask[t, np.flatnonzero(side_keys[t] == cut[t])[size - counts[t]:]] = False
    return masks


def sample_action(
    N: int,
    rho_w: float,
    rho_r: float,
    strategy: Strategy,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> AdversaryAction:
    """Draw S_w then S_r (in that order, independently) from one rng stream.
    With rng a sequence of generators, draw one block per entry as
    (len(rng), N) masks: row t is the action of a one-block call on rng[t],
    a generator listed for several rows giving them its successive blocks in
    row order, and every generator ends where those calls leave it.  So
    [rng] * T draws a session's T actions in one pass.  N must be a
    positive integer, a power of two or not."""
    if checked_int(N, "N") <= 0:
        raise ValueError(f"N must be a positive integer, got {N}")
    check_fractions(rho_w, rho_r)
    stacked = isinstance(rng, Sequence)
    write, read = _draw_masks(N, rng if stacked else [rng], (rho_w, rho_r), strategy)
    if not stacked:
        write, read = write[0], read[0]
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


def write_equivalent_mask(action: AdversaryAction) -> np.ndarray:
    """Bob's equivalent channel blocks of an action, one row per block of a
    stacked one: True (full noise) where written, the write mask itself."""
    return action.write


def read_equivalent_mask(action: AdversaryAction) -> np.ndarray:
    """Eve's equivalent channel blocks of an action, one row per block of a
    stacked one: True (full noise) where not read."""
    return ~action.read
