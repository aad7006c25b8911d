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
instead (see _leaf_table).  Each node works in place: it overwrites its input
bits with its re-encoded bits, so the recursion allocates no outputs.  Chain
bits carried between blocks are plain uint8 arrays: they occupy the sink set B
and are decoded by substitution, never from the channel.
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
    """Encode u into the codeword x = u R F^(x n) over GF(2).

    u is one block, shape (N,), or independent blocks stacked as (rows, N).
    """
    u = np.asarray(u, dtype=np.uint8)
    if u.ndim not in (1, 2):
        raise ValueError(f"u must be (N,) or stacked (rows, N), got shape {u.shape}")
    n = check_block_length(u.shape[-1])
    return _butterfly(u[..., bit_reversal_permutation(n)])


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


def _descend(d: _Decoding, rows, k: np.ndarray, v: np.ndarray, base: int) -> None:
    """Decode the subtree at u-offset base for some rows of d, in place.

    k and v are the rows' known flags and bit values at the subtree's input,
    shape (len(rows), width); rows is slice(None) for every row of d, else
    their indices.  The subtree owns both arrays: it overwrites v with its
    re-encoded bits and may overwrite k, so no node allocates an output.
    """
    width = k.shape[1]
    if width == _LEAF and d.decide_bytes is not None:
        return _leaf(d, rows, k, v, base)
    known = np.count_nonzero(k)
    if known == 0 or known == k.size:
        # every row all erased or all known (always so at width 1): commit
        return _commit(d, rows, v, known > 0, base)
    # settled rows are split off above the table-decoded subtrees only: a
    # width-2*_LEAF node's two lookups cost the same with or without them
    if len(k) > 1 and (width > 2 * _LEAF or d.decide_bytes is None):
        per_row = k.sum(axis=1)
        settled = (per_row == 0) | (per_row == width)
        if settled.any():
            # commit the settled rows, compact the mixed ones and split them
            for sel in (per_row == 0, per_row == width, ~settled):
                if sel.any():
                    sub = np.flatnonzero(sel) if isinstance(rows, slice) else rows[sel]
                    part = v[sel]
                    _descend(d, sub, k[sel], part, base)
                    v[sel] = part
            return
    h = width // 2
    ka, va = k[:, :h], v[:, :h]
    kb, vb = k[:, h:], v[:, h:]
    left = va ^ vb
    _descend(d, rows, ka & kb, left, base)
    # the right child's input, vb where known, else va ^ left, is built over
    # va and re-encoded there; then v becomes (left ^ right, right)
    va ^= left
    np.copyto(va, vb, where=kb)
    kb |= ka
    _descend(d, rows, kb, va, base + h)
    vb[...] = va
    va ^= left


def _commit(d: _Decoding, rows, v: np.ndarray, known: bool, base: int) -> None:
    """Commit a subtree whose rows are all known (v holds their input bits)
    or all erased (the fill stands); overwrites v with its re-encoded bits."""
    sl = slice(base, base + v.shape[1])
    u = d.u[rows, sl]  # a view for slice(None), else a copy written back below
    if not known:
        d.unresolved[rows, sl] = True
        v[...] = _butterfly(u)
        return
    implied = _butterfly(v)
    np.copyto(u, implied, where=d.decide[sl])
    if not isinstance(rows, slice):
        d.u[rows, sl] = u
    # F^(x n) is its own inverse, so u re-encodes to v unless a fixed bit differs
    if not np.array_equal(u, implied):
        if d.strict:
            raise InternalInconsistency(
                f"channel contradicts a fixed bit in u[{base + 1}..{sl.stop}]"
            )
        v[...] = _butterfly(u)


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
    out = basis[:, :_LEAF].copy()
    _descend(d, slice(None), k, out, 0)
    # (pattern, basis word, output bit) -> (pattern, output bit) masks over w
    bits = np.concatenate([d.u, out], axis=1).reshape(256, 2 * _LEAF, 2 * _LEAF)
    weights = np.uint16(1) << np.arange(2 * _LEAF, dtype=np.uint16)
    masks = np.bitwise_or.reduce(bits * weights[:, None], axis=1).astype(np.uint16)
    erased = d.unresolved[:: 2 * _LEAF].copy()
    masks.flags.writeable = erased.flags.writeable = False  # shared by every decode
    return masks, erased


def _leaf(d: _Decoding, rows, k: np.ndarray, v: np.ndarray, base: int) -> None:
    """Decode a width-_LEAF subtree by lookup; overwrites v with its re-encoded bits.

    Strict mode also decodes every position as a decision (decide byte 0xFF):
    the two agree exactly when no known fixed position reads a bit other
    than its fixed one.
    """
    sl = slice(base, base + _LEAF)
    masks, erased = _leaf_table(d.decide_bytes[base // _LEAF])
    # each row packs to one byte p and one 16-bit word w: packing the
    # flattened rows, and take in place of fancy indexing, cost a third
    p = np.packbits(k.reshape(-1), bitorder="little")
    w = np.packbits(np.concatenate([v, d.u[rows, sl]], axis=1).reshape(-1),
                    bitorder="little").view("<u2")
    bits = _PARITY.take(masks.take(p, axis=0) & w[:, None])
    if d.strict:
        every = _PARITY.take(_leaf_table(0xFF)[0].take(p, axis=0)[:, :_LEAF] & w[:, None])
        if (every != bits[:, :_LEAF]).any():
            raise InternalInconsistency(
                f"channel contradicts a fixed bit in u[{base + 1}..{base + _LEAF}]"
            )
    d.u[rows, sl] = bits[:, :_LEAF]
    d.unresolved[rows, sl] = erased.take(p, axis=0)
    v[...] = bits[:, _LEAF:]


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

    def _session_u(self, messages, preshared, rng: np.random.Generator) -> np.ndarray:
        """The (T, N) input rows u of a chained session of T messages.

        Block 1's sink set B holds the pre-shared bits, block t+1's the
        previous block's u[E], rank-paired (the i-th smallest E index feeds
        the i-th smallest B index).  E and R positions take fresh uniform
        bits (one draw of |E|+|R| bits per block, in block order, E filled
        first, both in ascending index order); F is all-zero frozen.
        """
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.ndim != 2 or messages.shape[1] != self.message_size:
            raise ValueError(f"messages must have {self.message_size} bits each, "
                             f"got shape {messages.shape}")
        if len(preshared) != self.chain_size:
            raise ValueError(f"chain must carry {self.chain_size} bits, got {len(preshared)}")
        u = np.zeros((len(messages), self.N), dtype=np.uint8)
        u[:, self._info0] = messages
        for row in u:
            fresh = rng.integers(0, 2, size=len(self._e0) + len(self._r0), dtype=np.uint8)
            row[self._e0] = fresh[: len(self._e0)]
            row[self._r0] = fresh[len(self._e0):]
        u[:1, self._b0] = preshared
        u[1:, self._b0] = u[:-1, self._e0]
        return u

    def encode_block(self, msg, chain, rng: np.random.Generator):
        """Encode one message block; returns (codeword, chain bits for block t+1).

        chain holds the bits for the sink set B (see _session_u).
        """
        u = self._session_u(np.asarray(msg, dtype=np.uint8)[None], chain, rng)[0]
        return polar_transform(u), u[self._e0]

    def encode_session(self, messages, preshared, rng: np.random.Generator) -> np.ndarray:
        """Encode T chained blocks; returns the (T, N) codewords.

        Block t+1's chain bits are block t's drawn u[E], known before any
        block is transformed, so all T blocks take one stacked transform.
        The bits equal T chained encode_block calls on the same rng.
        """
        return polar_transform(self._session_u(messages, preshared, rng))

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
        observations stacked as (rows, N), all decoded in one recursion.
        chain supplies the B decisions, shape (|B|,) for every row or
        (rows, |B|) one per row; passing None demotes B to ordinary channel
        decisions (an eavesdropper without the pre-shared bits).  Erased
        decisions resolve to guess_bits (same shape as y; default 0) and are
        counted and reported.

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
        if (y.view(np.uint8) > Trit.ERASED).any():  # negative int8 views as >= 128
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
        else:
            chain = np.asarray(chain, dtype=np.uint8)
            if chain.shape not in ((self.chain_size,), (len(obs), self.chain_size)):
                raise ValueError(f"chain shape {chain.shape} fits neither "
                                 f"({self.chain_size},) nor ({len(obs)}, {self.chain_size})")
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
        # one permuted copy; a trit's low bit is its value where it is known
        # (an erasure's is 0), so the copy becomes the values in place
        value = np.take(obs, self._perm, axis=1).view(np.uint8)
        known = value != Trit.ERASED
        value &= 1
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
                       guess_bits=None):
        """Decode chained sessions, threading each block's decoded u[E] into
        the next block's B so that chain errors propagate as they would on air.

        observations is one session of T blocks, shape (T, N), or S
        independent sessions stacked as (S, T, N); preshared is (|B|,) or
        (S, |B|), or None to decode as a receiver without the pre-shared
        bits.  Erased decisions resolve to guess_bits (the observations'
        shape; default 0).  Without a chain (|B| = 0) every block is
        independent and all are decoded in one stacked sc_decode_block call;
        otherwise block t of every session is decoded in one call, t = 1..T.
        Returns the message estimates, an array of shape (T, K) or (S, T, K),
        and the erased-decision counts as a list of T ints, or S such lists.
        """
        obs = np.asarray(observations, dtype=np.int8)
        if obs.ndim not in (2, 3) or obs.shape[-1] != self.N:
            raise ValueError(f"observations must be (T, {self.N}) or (S, T, {self.N}), "
                             f"got shape {obs.shape}")
        if guess_bits is not None:
            guess_bits = np.asarray(guess_bits, dtype=np.uint8)
            if guess_bits.shape != obs.shape:
                raise ValueError(f"guess_bits shape {guess_bits.shape} != {obs.shape}")
        lead = obs.shape[:-1]  # (T,) or (S, T)
        if preshared is not None:
            preshared = np.asarray(preshared, dtype=np.uint8)
            if preshared.shape != lead[:-1] + (self.chain_size,):
                raise ValueError(f"preshared shape {preshared.shape} != "
                                 f"{lead[:-1] + (self.chain_size,)}")
        if self.chain_size == 0:
            # preshared holds no bits; flattened, it is the (0,) chain of every row
            res = self.sc_decode_block(
                obs.reshape(-1, self.N), None if preshared is None else preshared.reshape(0),
                guess_bits=None if guess_bits is None else guess_bits.reshape(-1, self.N),
                strict=strict)
            messages = self.extract_message(res.u)
            counts = np.array([len(g) for g in res.guessed], dtype=int)
        else:
            S, T = (1,) + lead if obs.ndim == 2 else lead
            sessions = obs.reshape(S, T, self.N)
            guesses = None if guess_bits is None else guess_bits.reshape(sessions.shape)
            chain = None if preshared is None else preshared.reshape(S, self.chain_size)
            messages = np.empty((S, T, self.message_size), dtype=np.uint8)
            counts = np.empty((S, T), dtype=int)
            for t in range(T):
                res = self.sc_decode_block(
                    sessions[:, t], chain, guess_bits=None if guesses is None else guesses[:, t],
                    strict=strict)
                messages[:, t] = self.extract_message(res.u)
                counts[:, t] = [len(g) for g in res.guessed]
                chain = res.u[:, self._e0]
        return messages.reshape(lead + (self.message_size,)), counts.reshape(lead).tolist()
