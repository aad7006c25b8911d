"""Multi-block chaining polar encoder and three-valued erasure SC decoder.

Encoding computes x = u R F^(x n) (bit-reversal then butterfly).  Decoding
runs successive cancellation over the alphabet {0, 1, erased}: a check node
knows its bit only if both inputs are known, a variable node prefers the
direct look and otherwise corrects the crossed look with the partial sum.
A subtree whose inputs are all known or all erased is committed in one step
(the Rate-1 and Rate-0 nodes of fast SC decoders); every other subtree
splits.  Chain bits carried between blocks are plain uint8 arrays: they
occupy the sink set B and are decoded by substitution, never from the
channel.
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
        return _butterfly(u[self._perm]), u[self._e0]

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
        """Successive-cancellation decode of one block of trit observations.

        chain supplies the B decisions; passing None demotes B to ordinary
        channel decisions (an eavesdropper without the pre-shared bits).
        Erased decisions resolve to guess_bits[position] (default 0) and are
        counted and reported.

        strict=True verifies that no two known messages ever disagree: at a
        mixed node, the left child's bits must agree with every input pair
        whose halves are both known; at an all-known node, no fixed (frozen
        or chain) bit may contradict the bits the inputs imply.  Inside an
        all-known subtree a node-by-node recursion's checks reduce to exactly
        that condition, so the shortcut loses none.  Under pure erasures with
        correct side information (chain bits and guesses) a disagreement is
        impossible, so one firing means broken index conventions; a *wrong*
        guess or chain bit corrupts later partial sums and can trip the check
        legitimately, so strict mode belongs in clean-path tests only.
        """
        y = np.asarray(y, dtype=np.int8)
        if len(y) != self.N:
            raise ValueError(f"observation length {len(y)} != N={self.N}")
        if ((y < 0) | (y > 2)).any():
            raise ValueError("observations must be trits: 0, 1 or 2 (erased)")

        # u_hat starts as the fixed bits; decisions overwrite their positions
        u_hat = np.zeros(self.N, dtype=np.uint8)
        decide = self._decide
        if chain is None:
            decide = decide.copy()
            decide[self._b0] = True
        else:
            if len(chain) != self.chain_size:
                raise ValueError("chain size mismatch")
            u_hat[self._b0] = chain
        unresolved = np.zeros(self.N, dtype=bool)

        def descend(k: np.ndarray, v: np.ndarray, base: int) -> np.ndarray:
            width = len(k)
            known = np.count_nonzero(k)
            if known == 0 or known == width:
                # all erased or all known (always so at width 1): commit the
                # whole subtree at once and return its re-encoded bits
                sl = slice(base, base + width)
                u = u_hat[sl]
                dec = decide[sl]
                if known:
                    implied = _butterfly(v)
                    np.copyto(u, implied, where=dec)
                    if strict and (u != implied).any():
                        raise InternalInconsistency(
                            f"channel contradicts a fixed bit in u[{base + 1}..{base + width}]"
                        )
                else:
                    if guess_bits is not None:
                        np.copyto(u, guess_bits[sl], where=dec)
                    unresolved[sl] = True
                return _butterfly(u)
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

        known = (y != Trit.ERASED)[self._perm]
        value = (y == Trit.ONE).astype(np.uint8)[self._perm]
        descend(known, value, 0)
        guessed = np.flatnonzero(unresolved & decide) + 1
        return DecodeResult(u=u_hat, erased_decisions=len(guessed), guessed=guessed)

    def extract_message(self, u: np.ndarray) -> np.ndarray:
        return u[self._info0]

    def decode_session(self, observations, preshared, strict: bool = False,
                       rng: np.random.Generator | None = None):
        """Decode T blocks in order, threading each block's decoded u[E] into the
        next block's B so that chain errors propagate as they would on air.

        preshared=None decodes as a receiver without the pre-shared bits.  With
        rng, each block's erased decisions resolve to N fresh coin flips from
        it, else to 0.  Returns (message estimates, erased-decision counts).
        """
        chain = preshared
        messages = []
        counts = []
        for y in observations:
            guess = None if rng is None else rng.integers(0, 2, size=self.N, dtype=np.uint8)
            res = self.sc_decode_block(y, chain, guess_bits=guess, strict=strict)
            messages.append(self.extract_message(res.u))
            counts.append(res.erased_decisions)
            chain = res.u[self._e0]
        return messages, counts
