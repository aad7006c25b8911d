"""Multi-block chaining polar encoder and three-valued erasure SC decoder.

Encoding computes x = u R F^(x n) (bit-reversal then butterfly).  Decoding
runs successive cancellation over the alphabet {0, 1, erased}: a check node
knows its bit only if both inputs are known, a variable node prefers the
direct look and otherwise corrects the crossed look with the partial sum.
A subtree whose inputs are all known or all erased is committed in one step
(the Rate-1 and Rate-0 nodes of fast SC decoders); every other subtree
splits.  The recursion runs on stacked rows of independent blocks at once
(inter-frame decoding), all through the same node sequence: a node commits
only when every row is all known or all erased there, else every row
splits.  Every row is packed 8 positions per byte, little endian, in u
order (known flags, values, fill and decisions, erased flags), and the
stack is stored position-major, (N/8, rows): each byte position's rows
are contiguous, so every half a node takes is a contiguous block and a
node's XORs and masked copies move one bit per position.  A commit
re-encodes with one byte table (F^(x 3) inside a byte) and byte-level
stages.  Every width-8 subtree, one byte, is decoded by table lookup
instead (see _byte_tables): one byte-indexed lookup of its values, two
nibble-indexed ones of its fill.  Every width-16 subtree is decoded in one
step of two such leaves, without the commit checks; a code shorter than 8
is decoded as the last N inputs of one width-8 subtree whose other inputs
are frozen and erased.  Each node works in place: it overwrites its input
bits with its re-encoded bits, so the recursion allocates no outputs.
Chain bits carried between blocks are plain uint8 arrays: they occupy the
sink set B and are decoded by substitution, never from the channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .construction import IndexPartition
from .polar_core import bit_reversal_permutation, check_block_length


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    ERASED = 2


def _checked(a, name: str, top: int = 1) -> np.ndarray:
    """a as uint8 bits (top 1) or trits (top 2), rejecting every other value,
    which the cast alone would wrap (257 to a one, 258 to an erasure)."""
    a = np.asarray(a)
    out = a.astype(np.uint8, copy=False)
    if not np.array_equal(out, a) or (out > top).any():
        kind = "bits: 0 or 1" if top == 1 else "trits: 0, 1 or 2 (erased)"
        raise ValueError(f"{name} must be {kind}")
    return out


def random_bit_rows(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """A (rows, size) uint8 array of uniform bits, equal bit for bit, and in
    the generator state it leaves, to rows calls of
    rng.integers(0, 2, size=size, dtype=np.uint8) stacked.

    One padded draw is exact because numpy draws bounded uint8 values four
    to a uint32 (a 0..1 draw never rejects) and starts a fresh uint32 at
    every call: a call of size bits takes ceil(size / 4) uint32s, as does
    each padded row of the one draw.
    """
    padded = rng.integers(0, 2, size=(rows, -(-size // 4) * 4), dtype=np.uint8)
    return padded[:, :size]


def _xor_stages(a: np.ndarray) -> np.ndarray:
    """Multiply each column (axis 0) of a by F^(x m), m = log2 of its length, in place."""
    h = 1
    while h < len(a):
        blk = a.reshape(len(a) // (2 * h), 2 * h, *a.shape[1:])
        blk[:, :h] ^= blk[:, h:]
        h *= 2
    return a


# F^(x 3) on the eight positions packed in a byte (little endian)
_BYTE_BUTTERFLY = np.packbits(
    _xor_stages(np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0,
                              bitorder="little")), axis=0, bitorder="little").ravel()


def _butterfly(packed: np.ndarray) -> np.ndarray:
    """GF(2) multiply of each packed column (axis 0, 8 positions per byte) by
    F^(x n): one table lookup per byte, then the byte-level stages.  A code
    shorter than a byte is zero above its N bits, which F^(x 3) keeps out of
    its first N outputs.  Its own inverse."""
    return _xor_stages(_BYTE_BUTTERFLY.take(packed))


def _pack(bits: np.ndarray, pad: int = 0) -> np.ndarray:
    """Rows of bits (last axis) as position-major bytes, 8 positions per
    byte, little endian: (rows, N) gives (N/8, rows), each byte position's
    rows contiguous; (N,) gives (N/8,).

    pad > 0 shifts a row shorter than a byte into the byte's last N
    positions, leaving the first pad ones 0.
    """
    packed = np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little").T)
    packed <<= pad
    return packed


def _unpack(packed: np.ndarray, N: int, pad: int = 0) -> np.ndarray:
    """Inverse of _pack for rows of N bits.  The bytes are moved back to the
    last axis first, as _pack packs there: either step on a strided axis
    is several times slower."""
    rows = np.ascontiguousarray(packed.T)
    return np.unpackbits(rows, axis=-1, bitorder="little")[..., pad: pad + N]


def polar_transform(u) -> np.ndarray:
    """Encode u into the codeword x = u R F^(x n) over GF(2).

    u is one block, shape (N,), or independent blocks stacked as (rows, N).
    """
    u = _checked(u, "u")
    if u.ndim not in (1, 2):
        raise ValueError(f"u must be (N,) or stacked (rows, N), got shape {u.shape}")
    n = check_block_length(u.shape[-1])
    return _unpack(_butterfly(_pack(u[..., bit_reversal_permutation(n)])), 1 << n)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Three arrays of the observation's shape, (N,) or (rows, N)."""

    u: np.ndarray  # the decoded bits; fixed positions hold their fixed bits
    erased: np.ndarray  # decisions forced on an erasure (resolved to the guess)
    residual: np.ndarray  # known fixed positions whose implied bit is the other one

    @property
    def erased_decisions(self) -> int:
        return int(np.count_nonzero(self.erased))


def _descend(u: np.ndarray, unresolved: np.ndarray, decide: np.ndarray,
             k: np.ndarray, v: np.ndarray) -> None:
    """Decode one subtree for every row of the stack, in place.

    Every array is packed 8 positions per byte, little endian, in u order,
    position-major (one byte position per line, the rows of the stack
    contiguous along it), and covers the subtree only: u (width/8, rows)
    holds the fill (guesses, or 0, where decided; the fixed bits elsewhere)
    until decisions, and implied bits at fixed positions, overwrite it;
    unresolved (width/8, rows) receives the erased leaves; decide (width/8,)
    marks the positions decided from the channel.  k and v are the known
    flags and bit values at the subtree's input.  The subtree owns both: it
    overwrites v with its re-encoded bits and may overwrite k, so no node
    allocates an output.  Width-16 subtrees are decoded in one step of two
    leaf lookups, width-8 ones (codes of N <= 8 only) in one.
    """
    width = len(k)
    if width == 1:
        v[0] = _leaf(u[0], unresolved[0], decide[0], k[0], v[0])
        return
    if width == 2:
        return _pair(u, unresolved, decide, k, v)
    nonzero = np.count_nonzero(k)
    if not nonzero:
        return _commit(u, unresolved, decide, v, False)
    if nonzero == k.size and k.min() == 0xFF:
        return _commit(u, unresolved, decide, v, True)
    h = width // 2
    ka, va = k[:h], v[:h]
    kb, vb = k[h:], v[h:]
    left = va ^ vb
    _descend(u[:h], unresolved[:h], decide[:h], ka & kb, left)
    # the right child's input, vb where known, else va ^ left, is built over
    # va and re-encoded there; then v becomes (left ^ right, right)
    va ^= left
    va ^= (va ^ vb) & kb
    kb |= ka
    _descend(u[h:], unresolved[h:], decide[h:], kb, va)
    vb[...] = va
    va ^= left


def _pair(u: np.ndarray, unresolved: np.ndarray, decide: np.ndarray,
          k: np.ndarray, v: np.ndarray) -> None:
    """Decode a width-16 subtree (two bytes) in one step: the left byte's
    lookup, the right byte's input, the right byte's lookup."""
    (ka, kb), (va, vb) = k, v
    left = _leaf(u[0], unresolved[0], decide[0], ka & kb, va ^ vb)
    va ^= left
    va ^= (va ^ vb) & kb
    vb[...] = _leaf(u[1], unresolved[1], decide[1], ka | kb, va)
    np.bitwise_xor(left, vb, out=va)


def _commit(u: np.ndarray, unresolved: np.ndarray, decide: np.ndarray,
            v: np.ndarray, known: bool) -> None:
    """Commit a subtree whose every row is all known (v holds their input
    bits) or all erased (the fill stands); overwrites v with its re-encoded bits.

    A known subtree stores its implied bits in u at fixed positions too, for
    sc_decode_block to compare with the fill, but re-encodes the fixed bits.
    """
    if not known:
        unresolved[...] = 0xFF
        v[...] = _butterfly(u)
        return
    implied = _butterfly(v)
    u ^= (u ^ implied) & decide[:, None]
    # F^(x n) is its own inverse, so u re-encodes to v unless a fixed bit differs
    if not np.array_equal(u, implied):
        v[...] = _butterfly(u)
    u[...] = implied


def _sc_bits(k: np.ndarray, v: np.ndarray, f: np.ndarray, decide: np.ndarray) -> tuple:
    """Plain SC of unpacked rows (known flags k, values v, fill f), without
    shortcuts; returns (u, unresolved, re-encoded bits), each of k's shape.

    A known leaf's u is its implied bit, and it re-encodes its decision if
    decided, else its fixed bit (the fill); an erased leaf takes the fill.
    """
    if k.shape[1] == 1:
        return np.where(k, v, f), ~k, np.where(k & decide, v, f)
    h = k.shape[1] // 2
    ka, kb, va, vb = k[:, :h], k[:, h:], v[:, :h], v[:, h:]
    ul, el, xl = _sc_bits(ka & kb, va ^ vb, f[:, :h], decide[:h])
    ur, er, xr = _sc_bits(ka | kb, np.where(kb, vb, va ^ xl), f[:, h:], decide[h:])
    return np.hstack([ul, ur]), np.hstack([el, er]), np.hstack([xl ^ xr, xr])


def _span(basis: np.ndarray) -> np.ndarray:
    """span[..., j]: the XOR of basis[..., i] over the set bits i of j, for
    basis (..., m) and every j < 2^m, built up one bit at a time."""
    out = np.zeros(basis.shape[:-1] + (1 << basis.shape[-1],), dtype=basis.dtype)
    for i in range(basis.shape[-1]):
        out[..., 1 << i: 2 << i] = out[..., : 1 << i] ^ basis[..., i, None]
    return out


@functools.cache
def _byte_tables(decide_byte: int) -> tuple:
    """Lookup tables of a width-8 subtree whose decide flags pack to decide_byte.

    Given the byte p of the subtree's input known flags, every flag inside
    it is fixed and every value step is an XOR or a choice by a flag, so
    its decision byte (a fixed position's implied bit, or its fill if
    erased) and its re-encoded byte are GF(2)-linear in its value byte v
    and its fill byte f.  Returns (tv, tf, erased): the output word
    decisions | re-encoded << 8 is
    tv[p << 8 | v] ^ tf[p << 5 | f & 15] ^ tf[p << 5 | 16 | f >> 4].
    tv is byte-indexed (65,536 uint16, 128 KB); tf is nibble-indexed
    (256 x 2 x 16 uint16, 16 KB): a byte-indexed fill table decodes about
    1.2x faster but adds 128 KB of peak memory per decide byte.  erased[p]
    is the byte of erased leaves.  They are read off one plain SC of the 16
    basis words under each of the 256 patterns.
    """
    pattern = np.repeat(np.arange(256, dtype=np.uint8), 16)
    k = np.unpackbits(pattern[:, None], axis=1, bitorder="little").astype(bool)
    basis = np.tile(np.eye(16, dtype=np.uint8), (256, 1))
    decide = np.unpackbits(np.array([decide_byte], dtype=np.uint8), bitorder="little")
    u, unresolved, x = _sc_bits(k, basis[:, :8], basis[:, 8:], decide.astype(bool))
    # words[p, b]: the output word of basis word b under pattern p
    low, high = _pack(np.hstack([u, x])).astype(np.uint16)
    words = (low | high << 8).reshape(256, 16)
    tv = _span(words[:, :8]).ravel()
    tf = _span(words[:, 8:].reshape(256, 2, 4)).ravel()
    erased = _pack(unresolved[::16]).ravel()
    for table in (tv, tf, erased):
        table.flags.writeable = False  # shared by every decode
    return tv, tf, erased


# p << 8 and p << 5 for every known-flag byte p: where p's block starts in tv and in tf
_AT_V = np.arange(256, dtype=np.intp) << 8
_AT_F = np.arange(256, dtype=np.intp) << 5


def _leaf(u: np.ndarray, unresolved: np.ndarray, decide_byte: int, k: np.ndarray,
          v: np.ndarray) -> np.ndarray:
    """Decode one byte position (a width-8 subtree) of every row by lookup:
    writes the decisions into u and the erased flags into unresolved, and
    returns the re-encoded byte.  u, unresolved, k and v are (rows,)."""
    tv, tf, erased = _byte_tables(int(decide_byte))
    p = k.astype(np.intp)
    word = tv[_AT_V[p] | v]
    at = _AT_F[p]
    word ^= tf[at | (u & 15)]
    at |= 16
    word ^= tf[at | (u >> 4)]
    u[...] = word  # the assignment keeps the low byte: the decisions
    unresolved[...] = erased[p]
    return word.view(np.uint8)[1::2]  # the high byte (little endian): re-encoded


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
        bits (the bits of one |E|+|R|-bit draw per block, in block order, E
        filled first, both in ascending index order; random_bit_rows draws
        all T at once); F is all-zero frozen.
        """
        messages = _checked(messages, "messages")
        preshared = _checked(preshared, "chain")
        if messages.ndim != 2 or messages.shape[1] != self.message_size:
            raise ValueError(f"messages must have {self.message_size} bits each, "
                             f"got shape {messages.shape}")
        if len(preshared) != self.chain_size:
            raise ValueError(f"chain must carry {self.chain_size} bits, got {len(preshared)}")
        u = np.zeros((len(messages), self.N), dtype=np.uint8)
        u[:, self._info0] = messages
        fresh = random_bit_rows(rng, len(u), len(self._e0) + len(self._r0))
        u[:, self._e0] = fresh[:, : len(self._e0)]
        u[:, self._r0] = fresh[:, len(self._e0):]
        u[:1, self._b0] = preshared
        u[1:, self._b0] = u[:-1, self._e0]
        return u

    def encode_block(self, msg, chain, rng: np.random.Generator):
        """Encode one message block; returns (codeword, chain bits for block t+1).

        chain holds the bits for the sink set B (see _session_u).
        """
        u = self._session_u(np.asarray(msg)[None], chain, rng)[0]
        return polar_transform(u), u[self._e0]

    def encode_session(self, messages, preshared, rng: np.random.Generator) -> np.ndarray:
        """Encode T chained blocks; returns the (T, N) codewords.

        Block t+1's chain bits are block t's drawn u[E], known before any
        block is transformed, so all T blocks take one stacked transform.
        The bits equal T chained encode_block calls on the same rng.
        """
        return polar_transform(self._session_u(messages, preshared, rng))

    # -- decoding --------------------------------------------------------

    def sc_decode_block(self, y, chain: np.ndarray | None,
                        guess_bits: np.ndarray | None = None) -> DecodeResult:
        """Successive-cancellation decode of trit observations.

        y is one block's observation, shape (N,), or independent blocks'
        observations stacked as (rows, N), all decoded in one recursion.
        chain supplies the B decisions, shape (|B|,) for every row or
        (rows, |B|) one per row; passing None demotes B to ordinary channel
        decisions (an eavesdropper without the pre-shared bits).  Erased
        decisions resolve to guess_bits (same shape as y; default 0).

        Returns u, erased and residual, each of y's shape.  erased marks the
        decisions forced on an erasure.  residual marks the fixed positions
        (frozen, or B when chain is given) that are known and imply the
        other bit; u holds the fixed bit there.  Pure erasures with correct
        chain bits and guesses leave no residual; a wrong guess or chain bit
        corrupts later partial sums and can leave one legitimately.
        """
        y = _checked(y, "observations", Trit.ERASED)
        if y.ndim not in (1, 2):
            raise ValueError(f"observations must be (N,) or (rows, N), got shape {y.shape}")
        if y.shape[-1] != self.N:
            raise ValueError(f"observation length {y.shape[-1]} != N={self.N}")
        if guess_bits is not None:
            guess_bits = _checked(guess_bits, "guess_bits")
            if guess_bits.shape != y.shape:
                raise ValueError(f"guess_bits shape {guess_bits.shape} != {y.shape}")
            guess_bits = guess_bits.reshape(-1, self.N)
        obs = y.reshape(-1, self.N)

        decide = self._decide
        if chain is None:
            decide = decide.copy()
            decide[self._b0] = True
        else:
            chain = _checked(chain, "chain")
            if chain.shape not in ((self.chain_size,), (len(obs), self.chain_size)):
                raise ValueError(f"chain shape {chain.shape} fits neither "
                                 f"({self.chain_size},) nor ({len(obs)}, {self.chain_size})")
        # u starts as the fill: the guesses (or 0) where decided, the fixed
        # bits elsewhere; decisions overwrite it.  A code shorter than a byte
        # is decoded as the last N inputs of a width-8 subtree whose first
        # 8 - N positions are frozen and erased.
        pad = max(0, 8 - self.N)
        fill = np.zeros(obs.shape, dtype=np.uint8) if guess_bits is None else guess_bits * decide
        if chain is not None:
            fill[:, self._b0] = chain
        fill = _pack(fill, pad)
        decide = _pack(decide, pad)
        u = fill.copy()
        unresolved = np.zeros_like(fill)
        # one permuted copy; a trit's low bit is its value where it is known
        # (an erasure's is 0)
        value = np.take(obs, self._perm, axis=1)
        known = _pack(value != Trit.ERASED, pad)
        value &= 1
        value = _pack(value, pad)
        _descend(u, unresolved, decide, known, value)

        # known fixed positions hold their implied bits: compare, then restore
        decide = decide[:, None]
        residual = (u ^ fill) & ~decide
        u ^= residual
        erased = unresolved & decide
        return DecodeResult(_unpack(u, self.N, pad).reshape(y.shape),
                            *(_unpack(a, self.N, pad).view(bool).reshape(y.shape)
                              for a in (erased, residual)))

    def extract_message(self, u: np.ndarray) -> np.ndarray:
        """The information bits of a decoded u, or of each row of stacked ones."""
        return u[..., self._info0]

    def decode_session(self, observations, preshared, guess_bits=None):
        """Decode chained sessions, threading each block's decoded u[E] into
        the next block's B so that chain errors propagate as they would on air.

        observations is one session of T blocks, shape (T, N), or S
        independent sessions stacked as (S, T, N); preshared is (|B|,) or
        (S, |B|), or None to decode as a receiver without the pre-shared
        bits.  Erased decisions resolve to guess_bits (the observations'
        shape; default 0).  Block t of every session is decoded in one
        sc_decode_block call, t = 1..T, which checks the values; without a
        chain (|B| = 0) the blocks are independent and all S·T are one call.
        Returns the message estimates, an array of shape (T, K) or (S, T, K),
        and the erased-decision counts as a list of T ints, or S such lists.
        """
        obs = np.asarray(observations)
        if obs.ndim not in (2, 3) or obs.shape[-1] != self.N:
            raise ValueError(f"observations must be (T, {self.N}) or (S, T, {self.N}), "
                             f"got shape {obs.shape}")
        lead = obs.shape[:-1]  # (T,) or (S, T)
        if guess_bits is not None and np.shape(guess_bits) != obs.shape:
            raise ValueError(f"guess_bits shape {np.shape(guess_bits)} != {obs.shape}")
        if preshared is not None and np.shape(preshared) != lead[:-1] + (self.chain_size,):
            raise ValueError(f"preshared shape {np.shape(preshared)} != "
                             f"{lead[:-1] + (self.chain_size,)}")
        # without a chain (|B| = 0) the blocks are independent: one call decodes all
        T = lead[-1] if self.chain_size else 1
        sessions = obs.reshape(-1, T, self.N)
        S = len(sessions)
        guesses = None if guess_bits is None else np.reshape(guess_bits, sessions.shape)
        chain = None if preshared is None else np.reshape(preshared, (S, self.chain_size))
        messages = np.empty((S, T, self.message_size), dtype=np.uint8)
        counts = np.empty((S, T), dtype=int)
        for t in range(T):
            res = self.sc_decode_block(
                sessions[:, t], chain, guess_bits=None if guesses is None else guesses[:, t])
            messages[:, t] = self.extract_message(res.u)
            counts[:, t] = np.count_nonzero(res.erased, axis=1)
            chain = res.u[:, self._e0]
        return messages.reshape(lead + (self.message_size,)), counts.reshape(lead).tolist()
