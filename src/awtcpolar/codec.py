"""Multi-block chaining polar encoder and three-valued erasure SC decoder.

Encoding computes x = u R F^(x n) (bit-reversal then butterfly).  Decoding
runs successive cancellation over the alphabet {0, 1, erased}: a check node
knows its bit only if both inputs are known, a variable node prefers the
direct look and otherwise corrects the crossed look with the partial sum.
Which inputs are known depends on the erasure pattern alone, never on the
bit values, so a decode runs in two passes over stacked rows of
independent blocks (inter-frame decoding), every row through the same node
sequence.  Every row is packed 8 positions per byte, little endian, in u
order, and the stack is stored position-major, (N/8, rows): each byte
position's rows are contiguous, so every half a node takes is a contiguous
block and a node's XORs and masked copies move one bit per position.

The flag pass (_flag_pass) pairs the known flags level by level, a node's
halves (a, b) giving its children (a & b, a | b): realize_profile's
butterfly on known instead of noise flags, in one vectorized step per
level.  From the levels it reads every node's commit decision (a subtree
whose inputs are all known or all erased in every row is committed in one
step, the Rate-1 and Rate-0 nodes of fast SC decoders, else every row
splits), every leaf's erased byte and so the whole erased output, and
every width-8 leaf's value-table offset (_value_table).  The value pass
(_descend) then moves values only: a split node XORs and selects by its
flags, a commit re-encodes with one byte table (F^(x 3) inside a byte) and
byte-level stages, a leaf is one table gather, and a width-16 subtree is
one step of two leaves.  Each node works in place, overwriting its input
bits with its re-encoded bits.  A code shorter than 8 is decoded as the
last N inputs of one width-8 subtree whose other inputs are frozen and
erased.

Both passes run with a zero fill: erased decisions and fixed positions
re-encode as 0.  The fill f (guesses where decided, chain bits on B, else
0) is a coset shift: with the erasure pattern fixed every SC step is an
XOR or a choice by a known flag, so SC(y, f) = SC(y + fG, 0) + f on the
decided positions, with the same residual.  Chain bits carried between
blocks are plain uint8 arrays on the sink set B, decoded by substitution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .construction import IndexPartition
from .polar_core import bit_reversal_permutation, check_block_length, checked_bits


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    ERASED = 2


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


def _byte_table(stages) -> np.ndarray:
    """stages run on the eight positions (axis 0) of every byte value,
    unpacked little endian, then packed back: a 256-entry byte table."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0, bitorder="little")
    return np.packbits(stages(bits), axis=0, bitorder="little").ravel()


# F^(x 3) on the eight positions packed in a byte (little endian)
_BYTE_BUTTERFLY = _byte_table(_xor_stages)


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
    u = checked_bits(u, "u")
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


def _flag_levels(known: np.ndarray) -> list:
    """The input known flags of every node of the recursion, from the root's
    known (N/8, rows), packed as it is: level d holds the nodes of width
    N/8 >> d bytes in order, and level d + 1 pairs each node's halves (a, b)
    into its children's inputs (a & b, a | b), which is realize_profile's
    OR/AND pairing on known rather than noise flags.  The last level holds
    every leaf's known byte."""
    levels = [known]
    width, rows = known.shape
    while width > 1:
        nodes = len(known) // width
        width //= 2
        pairs = known.reshape(nodes, 2, width, rows)
        known = np.empty_like(known)
        children = known.reshape(nodes, 2, width, rows)
        np.bitwise_and(pairs[:, 0], pairs[:, 1], out=children[:, 0])
        np.bitwise_or(pairs[:, 0], pairs[:, 1], out=children[:, 1])
        levels.append(known)
    return levels


# the erased leaves of a width-8 subtree under each input known byte: the
# flag pass run on its eight positions, its last level complemented
_LEAF_ERASED = ~_byte_table(lambda known: _flag_levels(known)[-1])


def _flag_pass(known: np.ndarray, decide: np.ndarray, tvs: list) -> tuple:
    """The first pass of a decode: everything that depends on the known
    flags alone, before any value moves.  known is the packed (N/8, rows)
    stack, decide the packed (N/8,) decided positions, tvs each leaf byte's
    value table (ChainCodec._schedule).  Returns the value pass's _Values,
    u all zero, and the erased decisions: each leaf's erased byte under its
    known byte, on the decided positions.
    """
    levels = _flag_levels(known)
    leaf = levels[-1]
    erased_at = known_at = ()  # nodes under 4 bytes (32 positions) never commit
    if len(leaf) >= 4:
        erased_at = (leaf.max(axis=1, initial=0) == 0).tolist()
        known_at = (leaf.min(axis=1, initial=0xFF) == 0xFF).tolist()
    plan = _Values(np.zeros_like(leaf), decide,
                   {len(leaf) >> d: k for d, k in enumerate(levels)},
                   erased_at, known_at, tvs, np.left_shift(leaf, 8, dtype=np.intp))
    return plan, _LEAF_ERASED.take(leaf) & decide[:, None]


@dataclass(eq=False, slots=True)
class _Values:
    """What the value pass reads, each packed and position-major like u.

    A node of width w bytes at byte offset lo commits its subtree when every
    row is erased there (erased_at[lo + w - 1]) or known (known_at[lo]): by
    the flag pairing, a node's last leaf byte is the OR of its input bytes
    and its first leaf byte their AND.
    """

    u: np.ndarray  # (N/8, rows): zero, then the decisions and implied bits
    decide: np.ndarray  # (N/8,): the positions decided from the channel
    flags: dict  # width w in bytes: the input known flags of the nodes of width w
    erased_at: list  # leaf byte j is 0 in every row
    known_at: list  # leaf byte j is 0xFF in every row
    tvs: list  # leaf byte j's value table (of its decide byte)
    at: np.ndarray  # (N/8, rows) intp: where each leaf's pattern p starts in tv, p << 8


def _descend(plan: _Values, lo: int, v: np.ndarray) -> None:
    """Decode the subtree at byte offset lo whose input bits are v, for every
    row of the stack, in place: v (width/8, rows) holds the subtree's input
    values and receives its re-encoded bits, and the decisions go into
    plan.u.  The known flags come from the flag pass (plan), so only values
    move here.  Width-16 subtrees are decoded in one step of two leaf
    lookups, width-8 ones (codes of N <= 8 only) in one.
    """
    width = len(v)
    if width == 2:
        return _pair(plan, lo, v)
    if width == 1:
        v[0] = _leaf(plan.u[lo], plan.tvs[lo], plan.at[lo], v[0])
        return
    hi = lo + width
    if plan.erased_at[hi - 1]:
        return _commit(plan.u[lo:hi], plan.decide[lo:hi], v, False)
    if plan.known_at[lo]:
        return _commit(plan.u[lo:hi], plan.decide[lo:hi], v, True)
    h = width // 2
    va, vb = v[:h], v[h:]
    left = va ^ vb
    _descend(plan, lo, left)
    # the right child's input, vb where known, else va ^ left, is built over
    # va and re-encoded there; then v becomes (left ^ right, right)
    va ^= left
    va ^= (va ^ vb) & plan.flags[width][lo + h: hi]
    _descend(plan, lo + h, va)
    vb[...] = va
    va ^= left


def _pair(plan: _Values, j: int, v: np.ndarray) -> None:
    """Decode the width-16 subtree of leaf bytes j and j + 1 in one step: the
    left byte's lookup, the right byte's input, the right byte's lookup."""
    u, tvs, at = plan.u, plan.tvs, plan.at
    va, vb = v[0], v[1]  # indexing: unpacking iterates, several times slower
    left = _leaf(u[j], tvs[j], at[j], va ^ vb)
    va ^= left
    va ^= (va ^ vb) & plan.flags[2][j + 1]
    j += 1
    vb[...] = _leaf(u[j], tvs[j], at[j], va)
    np.bitwise_xor(left, vb, out=va)


def _commit(u: np.ndarray, decide: np.ndarray, v: np.ndarray, known: bool) -> None:
    """Commit a subtree whose every row is all known (v holds their input
    bits) or all erased (its decisions stay 0); overwrites v with its
    re-encoded bits.  A known subtree stores its implied bits in u at fixed
    positions too, for sc_decode_block to read as the residual, but
    re-encodes the fixed bits as 0.
    """
    if not known:
        v[...] = 0
        return
    implied = _butterfly(v)
    u[...] = implied
    # F^(x n) is its own inverse, so the decisions re-encode to v unless a
    # fixed position implies 1
    fixed = implied & ~decide[:, None]
    if fixed.any():
        v ^= _butterfly(fixed)


def _sc_bits(k: np.ndarray, v: np.ndarray, decide: np.ndarray) -> tuple:
    """Plain zero-fill SC of unpacked rows (known flags k, values v), without
    shortcuts; returns (u, unresolved, re-encoded bits), each of k's shape.

    A known leaf's u is its implied bit, and it re-encodes its decision if
    decided, else 0; an erased leaf decides and re-encodes 0.
    """
    if k.shape[1] == 1:
        return v & k, ~k, v & (k & decide)
    h = k.shape[1] // 2
    ka, kb, va, vb = k[:, :h], k[:, h:], v[:, :h], v[:, h:]
    ul, el, xl = _sc_bits(ka & kb, va ^ vb, decide[:h])
    ur, er, xr = _sc_bits(ka | kb, np.where(kb, vb, va ^ xl), decide[h:])
    return np.hstack([ul, ur]), np.hstack([el, er]), np.hstack([xl ^ xr, xr])


def _span(basis: np.ndarray) -> np.ndarray:
    """span[..., j]: the XOR of basis[..., i] over the set bits i of j, for
    basis (..., m) and every j < 2^m, built up one bit at a time."""
    out = np.zeros(basis.shape[:-1] + (1 << basis.shape[-1],), dtype=basis.dtype)
    for i in range(basis.shape[-1]):
        out[..., 1 << i: 2 << i] = out[..., : 1 << i] ^ basis[..., i, None]
    return out


@functools.cache
def _value_table(decide_byte: int) -> np.ndarray:
    """The lookup table of a width-8 subtree whose decide flags pack to
    decide_byte, decoded with a zero fill.

    Given the byte p of the subtree's input known flags, every flag inside
    it is fixed and every value step is an XOR or a choice by a flag, so
    its decision byte (a fixed position's implied bit, or 0 if erased) and
    its re-encoded byte are GF(2)-linear in its value byte v: the output
    word decisions | re-encoded << 8 is tv[p << 8 | v] (65,536 uint16,
    128 KB).  Read off one plain SC of the 8 basis bytes under each of the
    256 patterns.
    """
    pattern = np.repeat(np.arange(256, dtype=np.uint8), 8)
    k = np.unpackbits(pattern[:, None], axis=1, bitorder="little").astype(bool)
    basis = np.tile(np.eye(8, dtype=np.uint8), (256, 1))
    decide = np.unpackbits(np.array([decide_byte], dtype=np.uint8), bitorder="little")
    u, _, x = _sc_bits(k, basis, decide.astype(bool))
    # words[p, b]: the output word of basis byte b under pattern p
    low, high = _pack(np.hstack([u, x])).astype(np.uint16)
    tv = _span((low | high << 8).reshape(256, 8)).ravel()
    tv.flags.writeable = False  # shared by every decode
    return tv


def _leaf(u: np.ndarray, tv: np.ndarray, at: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Decode one byte position (a width-8 subtree) of every row by lookup:
    writes the decisions into u and returns the re-encoded byte.  u and v
    are (rows,) bytes; at holds each row's p << 8 (intp), where its known
    byte p starts in tv."""
    word = tv[at | v]
    u[...] = word  # the assignment keeps the low byte: the decisions
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
        self._schedules = {}

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
        messages = checked_bits(messages, "messages")
        if messages.ndim != 2 or messages.shape[1] != self.message_size:
            raise ValueError(f"messages must have {self.message_size} bits each, "
                             f"got shape {messages.shape}")
        if len(preshared) != self.chain_size:
            raise ValueError(f"B needs {self.chain_size} chain bits, got {len(preshared)}")
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
        u = self._session_u(np.asarray(msg)[None], checked_bits(chain, "chain"), rng)[0]
        return polar_transform(u), u[self._e0]

    def encode_session(self, messages, preshared, rng: np.random.Generator) -> np.ndarray:
        """Encode T chained blocks; returns the (T, N) codewords.

        Block t+1's chain bits are block t's drawn u[E], known before any
        block is transformed, so all T blocks take one stacked transform.
        The bits equal T chained encode_block calls on the same rng.
        """
        return polar_transform(
            self._session_u(messages, checked_bits(preshared, "preshared"), rng))

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
        corrupts later partial sums and can leave one legitimately.  Guesses
        and chain bits enter as a coset shift of one zero-fill decode.
        """
        y = checked_bits(y, "observations", Trit.ERASED)
        if y.ndim not in (1, 2):
            raise ValueError(f"observations must be (N,) or (rows, N), got shape {y.shape}")
        if y.shape[-1] != self.N:
            raise ValueError(f"observation length {y.shape[-1]} != N={self.N}")
        if guess_bits is not None:
            guess_bits = checked_bits(guess_bits, "guess_bits")
            if guess_bits.shape != y.shape:
                raise ValueError(f"guess_bits shape {guess_bits.shape} != {y.shape}")
            guess_bits = guess_bits.reshape(-1, self.N)
        obs = y.reshape(-1, self.N)

        decide, packed_decide, tvs = self._schedule(chain is None)
        if chain is not None:
            chain = checked_bits(chain, "chain")
            if chain.shape not in ((self.chain_size,), (len(obs), self.chain_size)):
                raise ValueError(f"chain shape {chain.shape} fits neither "
                                 f"({self.chain_size},) nor ({len(obs)}, {self.chain_size})")
        # the fill: the guesses (or 0) where decided, the fixed bits
        # elsewhere.  A code shorter than a byte is decoded as the last N
        # inputs of a width-8 subtree whose first 8 - N positions are frozen
        # and erased.
        pad = max(0, 8 - self.N)
        fill = np.zeros(obs.shape, dtype=np.uint8) if guess_bits is None else guess_bits * decide
        if chain is not None:
            fill[:, self._b0] = chain
        fill = _pack(fill, pad)
        # one permuted copy; a trit's low bit is its value where it is known
        # (an erasure's is 0)
        value = np.take(obs, self._perm, axis=1)
        known = _pack(value != Trit.ERASED, pad)
        value &= 1
        value = _pack(value, pad)
        # the coset shift: the values are u F^(x n) in this order, so the
        # fill's codeword is its butterfly; erased values are never read
        value ^= _butterfly(fill)

        plan, erased = _flag_pass(known, packed_decide, tvs)
        _descend(plan, 0, value)

        # known fixed positions hold their shifted implied bits, the residual:
        # clear them, then shift every position back by the fill
        u = plan.u
        residual = u & ~packed_decide[:, None]
        u ^= residual
        u ^= fill
        return DecodeResult(_unpack(u, self.N, pad).reshape(y.shape),
                            *(_unpack(a, self.N, pad).view(bool).reshape(y.shape)
                              for a in (erased, residual)))

    def _schedule(self, chain_free: bool) -> tuple:
        """The decide flags of a decode with chain bits (B fixed) or without
        them (B decided), unpacked and packed, and each leaf byte's value
        table.  Built at the first such decode."""
        schedule = self._schedules.get(chain_free)
        if schedule is None:
            decide = self._decide
            if chain_free:
                decide = decide.copy()
                decide[self._b0] = True
            packed = _pack(decide, max(0, 8 - self.N))
            tvs = [_value_table(byte) for byte in packed.tolist()]
            schedule = self._schedules[chain_free] = (decide, packed, tvs)
        return schedule

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
        sc_decode_block call, t = 1..T, which checks the observations and
        guesses; without a chain (|B| = 0) the blocks are independent and all
        S·T are one call.
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
        if preshared is not None:
            preshared = checked_bits(preshared, "preshared")
            if preshared.shape != lead[:-1] + (self.chain_size,):
                raise ValueError(f"preshared shape {preshared.shape} != "
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
