"""Multi-block chaining polar encoder and three-valued erasure SC decoder.

Encoding computes x = u R F^(x n) (bit-reversal then butterfly).  Decoding
runs successive cancellation over the alphabet {0, 1, erased}: a check node
knows its bit only if both inputs are known, a variable node prefers the
direct look and otherwise corrects the crossed look with the partial sum.
A subtree whose inputs are all known or all erased is committed in one step
(the Rate-1 and Rate-0 nodes of fast SC decoders); every other subtree
splits.  The recursion runs on stacked rows of independent blocks at once
(inter-frame decoding): a node commits the rows that are settled there and
splits on the mixed ones.  Every width-8 subtree is decoded by table lookup
instead (see _leaf_table).  Chain bits carried between blocks are plain uint8
arrays: they occupy the sink set B and are decoded by substitution, never from
the channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .construction import IndexPartition
from .polar_core import bit_reversal_permutation, check_block_length


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    ERASED = 2


class InternalInconsistency(RuntimeError):
    """Two known messages disagreed; impossible unless index conventions broke."""


def _butterfly(bits: np.ndarray) -> np.ndarray:
    """GF(2) multiply of each row (last axis) by F^(x n); its own inverse."""
    out = bits.copy()
    h = 1
    while h < out.shape[-1]:
        blk = out.reshape(*out.shape[:-1], -1, 2 * h)
        blk[..., :h] ^= blk[..., h:]
        h *= 2
    return out


def polar_transform(u) -> np.ndarray:
    """Encode u into the codeword x = u R F^(x n) over GF(2)."""
    u = np.asarray(u, dtype=np.uint8)
    n = check_block_length(len(u))
    return _butterfly(u[bit_reversal_permutation(n)])


@dataclass(frozen=True, eq=False)
class DecodeResult:
    u: np.ndarray  # (N,) for one observation, (rows, N) for stacked ones
    erased_decisions: int  # total over the rows
    # 1-based indices of decisions forced on an erasure; one array per row
    # (a tuple) for stacked observations
    guessed: np.ndarray | tuple


class _Decoding(NamedTuple):
    """The state one decode call shares with every node of its recursion."""

    # (rows, N): the fill (guesses, or 0, where decided; the fixed bits
    # elsewhere) until decisions overwrite it
    u: np.ndarray
    unresolved: np.ndarray  # (rows, N): erased leaves
    decide: np.ndarray  # (N,): positions decided from the channel
    strict: bool
    # the decide flags of every width-_LEAF subtree packed to a byte, in u
    # order; None decodes those subtrees by recursion (as when building their
    # tables)
    decide_bytes: list | None


_LEAF = 8  # width of the table-decoded subtrees; a known pattern is one byte
# the parity of every byte, and of every 16-bit word from those of its bytes
_BYTE_PARITY = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8) & 1
_PARITY = (_BYTE_PARITY[:, None] ^ _BYTE_PARITY).ravel()


def _descend(d: _Decoding, rows, k: np.ndarray, v: np.ndarray, base: int) -> np.ndarray:
    """Decode the subtree at u-offset base for some rows of d.

    k and v are the rows' known flags and bit values at the subtree's input,
    shape (len(rows), width); rows is slice(None) for every row of d, else
    their indices.  Returns the subtree's re-encoded bits.
    """
    width = k.shape[1]
    if width == _LEAF and d.decide_bytes is not None:
        return _leaf(d, rows, k, v, base)
    known = np.count_nonzero(k)
    if known == 0 or known == k.size:
        # every row all erased or all known (always so at width 1): commit
        return _commit(d, rows, v if known else None, base, width)
    if len(k) > 1:
        per_row = np.count_nonzero(k, axis=1)
        settled = (per_row == 0) | (per_row == width)
        if settled.any():
            # commit the settled rows, compact the mixed ones and split them
            out = np.empty_like(v)
            for sel in (per_row == 0, per_row == width, ~settled):
                if sel.any():
                    sub = np.flatnonzero(sel) if isinstance(rows, slice) else rows[sel]
                    out[sel] = _descend(d, sub, k[sel], v[sel], base)
            return out
    h = width // 2
    ka, va = k[:, :h], v[:, :h]
    kb, vb = k[:, h:], v[:, h:]
    left = _descend(d, rows, ka & kb, va ^ vb, base)
    right = _descend(d, rows, ka | kb, np.where(kb, vb, va ^ left), base + h)
    return np.concatenate([left ^ right, right], axis=1)


def _commit(d: _Decoding, rows, v: np.ndarray | None, base: int, width: int) -> np.ndarray:
    """Commit a subtree whose rows are all known (v, their input bits) or all
    erased (v None, the fill stands); returns its re-encoded bits."""
    sl = slice(base, base + width)
    u = d.u[rows, sl]  # a view for slice(None), else a copy written back below
    if v is not None:
        implied = _butterfly(v)
        np.copyto(u, implied, where=d.decide[sl])
        if d.strict and (u != implied).any():
            raise InternalInconsistency(
                f"channel contradicts a fixed bit in u[{base + 1}..{base + width}]"
            )
        if not isinstance(rows, slice):
            d.u[rows, sl] = u
    else:
        d.unresolved[rows, sl] = True
    return _butterfly(u)


@functools.cache
def _leaf_table(decide_byte: int) -> tuple:
    """Lookup tables of a width-_LEAF subtree whose decide flags pack to decide_byte.

    Given the pattern p of the subtree's input known flags (packed little
    endian), every flag inside it is fixed and every value step is an XOR or
    a choice by a flag, so its decisions and re-encoded bits are GF(2)-linear
    in the word w = v | f << 8 of its input bits v and fill f.  Returns
    (masks, erased): masks[p, j] is the mask whose parity with w gives
    decision j (j < 8) or re-encoded bit j - 8; erased[p] flags the erased
    leaves.  The masks are read off one recursive decode of the 16 basis
    words under each of the 256 patterns.
    """
    pattern = np.repeat(np.arange(256, dtype=np.uint8), 2 * _LEAF)
    k = np.unpackbits(pattern[:, None], axis=1, bitorder="little").astype(bool)
    basis = np.tile(np.eye(2 * _LEAF, dtype=np.uint8), (256, 1))
    decide = np.unpackbits(np.array([decide_byte], dtype=np.uint8), bitorder="little")
    d = _Decoding(basis[:, _LEAF:].copy(), np.zeros(k.shape, dtype=bool),
                  decide.astype(bool), False, None)
    out = _descend(d, slice(None), k, basis[:, :_LEAF], 0)
    # (pattern, basis word, output bit) -> (pattern, output bit) masks over w
    bits = np.concatenate([d.u, out], axis=1).reshape(256, 2 * _LEAF, 2 * _LEAF)
    weights = np.uint16(1) << np.arange(2 * _LEAF, dtype=np.uint16)
    masks = np.bitwise_or.reduce(bits * weights[:, None], axis=1).astype(np.uint16)
    erased = d.unresolved[:: 2 * _LEAF].copy()
    masks.flags.writeable = erased.flags.writeable = False  # shared by every decode
    return masks, erased


def _leaf(d: _Decoding, rows, k: np.ndarray, v: np.ndarray, base: int) -> np.ndarray:
    """Decode a width-_LEAF subtree by lookup; returns its re-encoded bits.

    Strict mode also decodes every position as a decision (decide byte 0xFF):
    the two agree exactly when no known fixed position reads a bit other
    than its fixed one.
    """
    sl = slice(base, base + _LEAF)
    masks, erased = _leaf_table(d.decide_bytes[base // _LEAF])
    p = np.packbits(k, axis=1, bitorder="little")[:, 0]
    w = np.packbits(np.concatenate([v, d.u[rows, sl]], axis=1), axis=1,
                    bitorder="little").view("<u2")[:, 0]
    bits = _PARITY[masks[p] & w[:, None]]
    if d.strict:
        every = _PARITY[_leaf_table(0xFF)[0][p, :_LEAF] & w[:, None]]
        if (every != bits[:, :_LEAF]).any():
            raise InternalInconsistency(
                f"channel contradicts a fixed bit in u[{base + 1}..{base + _LEAF}]"
            )
    d.u[rows, sl] = bits[:, :_LEAF]
    d.unresolved[rows, sl] = erased[p]
    return bits[:, _LEAF:]


class ChainCodec:
    """Encoder/decoder pair bound to one index partition; immutable once built."""

    def __init__(self, partition: IndexPartition):
        self.partition = partition
        self.N = partition.N
        self.n = check_block_length(self.N)
        self._perm = bit_reversal_permutation(self.n)
        self._info0 = partition.info - 1
        self._e0 = partition.chain_source - 1
        self._r0 = partition.random - 1
        self._b0 = partition.chain_sink - 1
        # info, chain source and random positions are decided from the channel
        decide = np.ones(self.N, dtype=bool)
        decide[partition.frozen - 1] = False
        decide[self._b0] = False
        decide.flags.writeable = False
        self._decide = decide

    @property
    def message_size(self) -> int:
        return len(self._info0)

    @property
    def chain_size(self) -> int:
        return len(self._b0)

    def preshared_state(self, rng: np.random.Generator) -> np.ndarray:
        """The pre-shared uniform bits for block 1's chain sink B."""
        return rng.integers(0, 2, size=self.chain_size, dtype=np.uint8)

    # -- encoding --------------------------------------------------------

    def encode_block(self, msg, chain, rng: np.random.Generator):
        """Encode one message block; returns (codeword, chain bits for block t+1).

        chain holds the bits for the sink set B: the pre-shared bits in block
        1, afterwards the previous block's u[E], rank-paired (the i-th
        smallest E index feeds the i-th smallest B index).  E and R positions
        take fresh uniform bits (one draw of |E|+|R| bits, E filled first,
        both in ascending index order); F is all-zero frozen.
        """
        msg = np.asarray(msg, dtype=np.uint8)
        if len(msg) != self.message_size:
            raise ValueError(f"message must have {self.message_size} bits, got {len(msg)}")
        if len(chain) != self.chain_size:
            raise ValueError(f"chain must carry {self.chain_size} bits, got {len(chain)}")
        u = np.zeros(self.N, dtype=np.uint8)
        u[self._info0] = msg
        fresh = rng.integers(0, 2, size=len(self._e0) + len(self._r0), dtype=np.uint8)
        u[self._e0] = fresh[: len(self._e0)]
        u[self._r0] = fresh[len(self._e0):]
        u[self._b0] = chain
        return polar_transform(u), u[self._e0]

    def encode_session(self, messages, preshared, rng: np.random.Generator):
        """Encode T blocks with chaining; returns the list of codewords."""
        chain = preshared
        codewords = []
        for msg in messages:
            x, chain = self.encode_block(msg, chain, rng)
            codewords.append(x)
        return codewords

    # -- decoding --------------------------------------------------------

    def sc_decode_block(
        self,
        y,
        chain: np.ndarray | None,
        guess_bits: np.ndarray | None = None,
        strict: bool = False,
    ) -> DecodeResult:
        """Successive-cancellation decode of trit observations.

        y is one block's observation, shape (N,), or independent blocks'
        observations stacked as (rows, N), all decoded in one recursion with
        the same chain bits.  chain supplies the B decisions; passing None
        demotes B to ordinary channel decisions (an eavesdropper without the
        pre-shared bits).  Erased decisions resolve to guess_bits (same shape
        as y; default 0) and are counted and reported.

        strict=True verifies, at every all-known node and every table-decoded
        subtree, that no fixed (frozen or chain) bit contradicts the bits the
        inputs imply.  Every disagreement between known messages that the
        recursion can produce surfaces there.  Under pure erasures with
        correct side information (chain bits and guesses) a contradiction is
        impossible, so one firing means broken index conventions; a *wrong*
        guess or chain bit corrupts later partial sums and can trip the check
        legitimately, so strict mode belongs in clean-path tests only.
        """
        y = np.asarray(y, dtype=np.int8)
        if y.ndim not in (1, 2):
            raise ValueError(f"observations must be (N,) or (rows, N), got shape {y.shape}")
        if y.shape[-1] != self.N:
            raise ValueError(f"observation length {y.shape[-1]} != N={self.N}")
        if ((y < 0) | (y > 2)).any():
            raise ValueError("observations must be trits: 0, 1 or 2 (erased)")
        if guess_bits is not None:
            guess_bits = np.asarray(guess_bits, dtype=np.uint8)
            if guess_bits.shape != y.shape:
                raise ValueError(f"guess_bits shape {guess_bits.shape} != {y.shape}")
            guess_bits = guess_bits.reshape(-1, self.N)
        obs = y.reshape(-1, self.N)

        decide = self._decide
        if chain is None:
            decide = decide.copy()
            decide[self._b0] = True
        elif len(chain) != self.chain_size:
            raise ValueError("chain size mismatch")
        # u starts as the fill: the guesses (or 0) where decided, the fixed
        # bits elsewhere; decisions overwrite it
        u_hat = np.zeros(obs.shape, dtype=np.uint8) if guess_bits is None else guess_bits * decide
        if chain is not None:
            u_hat[:, self._b0] = chain
        decide_bytes = None
        if self.N >= _LEAF:
            decide_bytes = np.packbits(decide.reshape(-1, _LEAF), axis=1,
                                       bitorder="little").ravel().tolist()
        d = _Decoding(u_hat, np.zeros(obs.shape, dtype=bool), decide, strict, decide_bytes)
        known = (obs != Trit.ERASED)[:, self._perm]
        value = (obs == Trit.ONE).astype(np.uint8)[:, self._perm]
        _descend(d, slice(None), known, value, 0)

        guessed = [np.flatnonzero(row) + 1 for row in d.unresolved & decide]
        erased = sum(map(len, guessed))
        if y.ndim == 1:
            return DecodeResult(u=u_hat[0], erased_decisions=erased, guessed=guessed[0])
        return DecodeResult(u=u_hat, erased_decisions=erased, guessed=tuple(guessed))

    def extract_message(self, u: np.ndarray) -> np.ndarray:
        """The information bits of a decoded u, or of each row of stacked ones."""
        return u[..., self._info0]

    def decode_session(self, observations, preshared, strict: bool = False,
                       rng: np.random.Generator | None = None):
        """Decode T blocks, threading each block's decoded u[E] into the next
        block's B so that chain errors propagate as they would on air.

        preshared=None decodes as a receiver without the pre-shared bits.  With
        rng, each block's erased decisions resolve to N fresh coin flips from
        it, else to 0.  Without a chain (|B| = 0) the blocks are independent
        and all T are decoded in one stacked sc_decode_block call; otherwise
        block by block.  Returns (message estimates, erased-decision counts).
        """
        observations = list(observations)
        guesses = [None if rng is None else rng.integers(0, 2, size=self.N, dtype=np.uint8)
                   for _ in observations]
        if self.chain_size == 0 and observations:
            res = self.sc_decode_block(np.stack(observations), preshared, strict=strict,
                                       guess_bits=None if rng is None else np.stack(guesses))
            return list(self.extract_message(res.u)), [len(g) for g in res.guessed]
        chain = preshared
        messages, counts = [], []
        for y, guess in zip(observations, guesses):
            res = self.sc_decode_block(y, chain, guess_bits=guess, strict=strict)
            messages.append(self.extract_message(res.u))
            counts.append(res.erased_decisions)
            chain = res.u[self._e0]
        return messages, counts
