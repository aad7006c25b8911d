"""Multi-block chaining polar encoder and three-valued erasure SC decoder.

Encoding computes x = u R F^(x n) (bit-reversal then butterfly).  Decoding
runs successive cancellation over the alphabet {0, 1, erased}: a check node
knows its bit only if both inputs are known, a variable node prefers the
direct look and otherwise corrects the crossed look with the partial sum.
Chain bits carried between blocks occupy the sink set B and are decoded by
substitution, never from the channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .construction import IndexPartition
from .polar_core import check_block_length


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    ERASED = 2


class Role(IntEnum):
    DECIDE = 0  # info, chain source and random positions: decided from the channel
    FROZEN = 1
    CHAIN = 2


class InternalInconsistency(RuntimeError):
    """Two known messages disagreed; impossible unless index conventions broke."""


def trits_from_str(s: str) -> np.ndarray:
    table = {"0": Trit.ZERO, "1": Trit.ONE, "?": Trit.ERASED}
    try:
        return np.array([table[c] for c in s], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"observation strings use only 0, 1 and ?, got {exc}") from exc


def trits_to_str(y: np.ndarray) -> str:
    return "".join("01?"[int(v)] for v in y)


@functools.lru_cache(maxsize=None)
def bit_reversal_permutation(n: int) -> np.ndarray:
    """0-based bit-reversal permutation of length 2^n (an involution)."""
    perm = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.flags.writeable = False
    return perm


def _butterfly(bits: np.ndarray) -> np.ndarray:
    """In-place GF(2) multiply by F^(x n); its own inverse."""
    out = bits.copy()
    h = 1
    while h < len(out):
        blk = out.reshape(-1, 2 * h)
        blk[:, :h] ^= blk[:, h:]
        h *= 2
    return out


def polar_transform(u) -> np.ndarray:
    """Encode u into the codeword x = u R F^(x n) over GF(2)."""
    u = np.asarray(u, dtype=np.uint8)
    n = check_block_length(len(u))
    return _butterfly(u[bit_reversal_permutation(n)])


@dataclass(frozen=True, eq=False)
class ChainState:
    """Bits destined for the sink set B of the next block.

    For block 1 these are the pre-shared random bits; afterwards they are the
    e_bits of the chain source E from the previous block, rank-paired (i-th
    smallest E index feeds the i-th smallest B index).
    """

    e_bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e_bits", np.asarray(self.e_bits, dtype=np.uint8))

    @classmethod
    def preshared(cls, size: int, rng: np.random.Generator) -> "ChainState":
        return cls(rng.integers(0, 2, size=size, dtype=np.uint8))


@dataclass(frozen=True, eq=False)
class DecodeResult:
    u: np.ndarray
    erased_decisions: int
    guessed: np.ndarray  # 1-based indices of decisions forced on an erasure


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
        self._f0 = partition.frozen - 1
        self._b0 = partition.chain_sink - 1
        roles = np.full(self.N, Role.DECIDE, dtype=np.int8)
        roles[self._f0] = Role.FROZEN
        roles[self._b0] = Role.CHAIN
        roles.flags.writeable = False
        self._roles = roles

    @property
    def message_size(self) -> int:
        return len(self._info0)

    @property
    def chain_size(self) -> int:
        return len(self._b0)

    def preshared_state(self, rng: np.random.Generator) -> ChainState:
        return ChainState.preshared(self.chain_size, rng)

    # -- encoding --------------------------------------------------------

    def encode_block(self, msg, chain: ChainState, rng: np.random.Generator):
        """Encode one message block; returns (codeword, chain state for block t+1).

        E and R positions take fresh uniform bits (one draw of |E|+|R| bits,
        E filled first, both in ascending index order); F is all-zero frozen.
        """
        msg = np.asarray(msg, dtype=np.uint8)
        if len(msg) != self.message_size:
            raise ValueError(f"message must have {self.message_size} bits, got {len(msg)}")
        if len(chain.e_bits) != self.chain_size:
            raise ValueError(f"chain must carry {self.chain_size} bits, got {len(chain.e_bits)}")
        u = np.zeros(self.N, dtype=np.uint8)
        u[self._info0] = msg
        fresh = rng.integers(0, 2, size=len(self._e0) + len(self._r0), dtype=np.uint8)
        u[self._e0] = fresh[: len(self._e0)]
        u[self._r0] = fresh[len(self._e0):]
        u[self._b0] = chain.e_bits
        return _butterfly(u[self._perm]), ChainState(u[self._e0])

    def encode_session(self, messages, preshared: ChainState, rng: np.random.Generator):
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
        chain: ChainState | None,
        guess_bits: np.ndarray | None = None,
        strict: bool = False,
    ) -> DecodeResult:
        """Successive-cancellation decode of one block of trit observations.

        chain supplies the B decisions; passing None demotes B to ordinary
        channel decisions (an eavesdropper without the pre-shared bits).
        Erased decisions resolve to guess_bits[position] (default 0) and are
        counted and reported.

        strict=True disables subtree shortcuts and verifies that no two known
        messages ever disagree.  Under pure erasures with correct side
        information (chain bits and guesses) a disagreement is impossible, so
        one firing means broken index conventions; note that a *wrong* forced
        guess or chain bit corrupts later partial sums and can trip the check
        legitimately, so strict mode belongs in clean-path tests only.
        """
        y = np.asarray(y, dtype=np.int8)
        if len(y) != self.N:
            raise ValueError(f"observation length {len(y)} != N={self.N}")
        if ((y < 0) | (y > 2)).any():
            raise ValueError("observations must be trits: 0, 1 or 2 (erased)")

        fixed = np.zeros(self.N, dtype=np.uint8)
        roles = self._roles
        if chain is None:
            roles = roles.copy()
            roles[self._b0] = Role.DECIDE
        else:
            if len(chain.e_bits) != self.chain_size:
                raise ValueError("chain size mismatch")
            fixed[self._b0] = chain.e_bits

        known = (y != Trit.ERASED)[self._perm]
        value = (y == Trit.ONE).astype(np.uint8)[self._perm]
        decide = roles == Role.DECIDE

        u_hat = np.zeros(self.N, dtype=np.uint8)
        guessed: list[int] = []

        def settle(base: int, width: int, implied: np.ndarray | None) -> np.ndarray:
            """Commit decisions for leaves [base, base+width) in one shot."""
            sl = slice(base, base + width)
            dec = decide[sl]
            if implied is None:
                u = fixed[sl].copy()
                if guess_bits is not None:
                    u[dec] = guess_bits[sl][dec]
                guessed.extend((base + np.flatnonzero(dec)).tolist())
            else:
                u = np.where(dec, implied, fixed[sl]).astype(np.uint8)
            u_hat[sl] = u
            return u

        def descend(k: np.ndarray, v: np.ndarray, base: int) -> np.ndarray:
            width = len(k)
            if width == 1:
                if decide[base]:
                    if k[0]:
                        u = int(v[0])
                    else:
                        u = 0 if guess_bits is None else int(guess_bits[base])
                        guessed.append(base)
                else:
                    u = int(fixed[base])
                    if strict and k[0] and int(v[0]) != u:
                        raise InternalInconsistency(
                            f"channel contradicts fixed bit at position {base + 1}"
                        )
                u_hat[base] = u
                return np.array([u], dtype=np.uint8)
            if not strict:
                if k.all():
                    return _butterfly(settle(base, width, _butterfly(v)))
                if not k.any():
                    return _butterfly(settle(base, width, None))
            h = width // 2
            ka, va = k[:h], v[:h]
            kb, vb = k[h:], v[h:]
            left = descend(ka & kb, va ^ vb, base)
            if strict and bool((ka & kb & ((va ^ left) != vb)).any()):
                raise InternalInconsistency(
                    f"known messages disagree under node at u-base {base + 1}"
                )
            gv = np.where(kb, vb, va ^ left).astype(np.uint8)
            right = descend(ka | kb, gv, base + h)
            return np.concatenate([left ^ right, right])

        descend(known, value, 0)
        guessed_idx = np.sort(np.array(guessed, dtype=np.int64)) + 1
        return DecodeResult(u=u_hat, erased_decisions=len(guessed), guessed=guessed_idx)

    def extract_message(self, u: np.ndarray) -> np.ndarray:
        return u[self._info0]

    def extract_chain(self, u: np.ndarray) -> ChainState:
        return ChainState(u[self._e0])

    def decode_session(self, observations, preshared: ChainState, strict: bool = False):
        """Decode T blocks in order, threading each block's decoded E into the
        next block's B so that chain errors propagate as they would on air.

        Returns (list of message estimates, list of per-block erased-decision
        counts).
        """
        chain = preshared
        messages = []
        counts = []
        for y in observations:
            res = self.sc_decode_block(y, chain, strict=strict)
            messages.append(self.extract_message(res.u))
            counts.append(res.erased_decisions)
            chain = self.extract_chain(res.u)
        return messages, counts
