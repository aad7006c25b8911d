"""Transform, three-valued SC decoding and chaining behavior tests."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from awtcpolar.adversary import Strategy, apply_read, apply_write, sample_action
from awtcpolar import codec as codec_module
from awtcpolar.codec import ChainCodec, Trit, polar_transform, random_bit_rows
from awtcpolar.construction import (
    CodeConfig,
    IndexPartition,
    InfeasibleConstruction,
    build_partition,
)
from awtcpolar.polar_core import bit_reversal_permutation, realize_profile

from _trits import trits_from_str, trits_to_str


def flat_partition(N, **named):
    """Helper: partition with the named sets and everything else as info."""
    sets = {
        "chain_source": np.array([], dtype=np.int64),
        "random": np.array([], dtype=np.int64),
        "frozen": np.array([], dtype=np.int64),
        "chain_sink": np.array([], dtype=np.int64),
    }
    sets.update({k: np.asarray(v, dtype=np.int64) for k, v in named.items()})
    used = np.concatenate(list(sets.values())) if sets else np.array([], dtype=np.int64)
    info = named.get("info")
    if info is None:
        info = np.setdiff1d(np.arange(1, N + 1), used)
        return IndexPartition(N=N, info=info, **sets)
    return IndexPartition(N=N, **sets)


def plain_sc_decode(codec, y, chain, guess_bits):
    """SC over erasures by plain recursion, without subtree shortcuts or tables.

    The reference for the decoder's fast paths: returns (u, 1-based guessed
    positions, 1-based contradicted positions) for one observation.  chain
    None decides B from the channel; guess_bits None guesses 0.  A position
    is contradicted when it is fixed (frozen, or B with chain bits) and its
    leaf is known with a bit other than the fixed one: exactly the decoder's
    residual.
    """
    part = codec.partition
    decide = np.ones(codec.N, dtype=bool)
    decide[part.frozen - 1] = False
    fixed = np.zeros(codec.N, dtype=np.uint8)
    if chain is not None:
        decide[part.chain_sink - 1] = False
        fixed[part.chain_sink - 1] = chain
    if guess_bits is None:
        guess_bits = np.zeros(codec.N, dtype=np.uint8)
    u_hat = np.zeros(codec.N, dtype=np.uint8)
    guessed, contradicted = [], []

    def descend(k, v, base):
        if len(k) == 1:
            if not decide[base]:
                u_hat[base] = fixed[base]
                if k[0] and v[0] != fixed[base]:
                    contradicted.append(base + 1)
            elif k[0]:
                u_hat[base] = v[0]
            else:
                u_hat[base] = guess_bits[base]
                guessed.append(base + 1)
            return u_hat[base: base + 1].copy()
        h = len(k) // 2
        left = descend(k[:h] & k[h:], v[:h] ^ v[h:], base)
        right = descend(k[:h] | k[h:], np.where(k[h:], v[h:], v[:h] ^ left), base + h)
        return np.concatenate([left ^ right, right])

    perm = bit_reversal_permutation(codec.n)
    descend((y != Trit.ERASED)[perm], (y == Trit.ONE).astype(np.uint8)[perm], 0)
    return u_hat, np.array(guessed, dtype=np.int64), np.array(contradicted, dtype=np.int64)


def erase(x, positions):
    y = np.asarray(x, dtype=np.int8).copy()
    y[np.asarray(positions, dtype=np.int64)] = Trit.ERASED
    return y


class TestPolarTransform:
    def test_kernel_rows(self):
        np.testing.assert_array_equal(polar_transform([1, 0]), [1, 0])
        np.testing.assert_array_equal(polar_transform([1, 1]), [0, 1])

    def test_first_unit_vector(self):
        np.testing.assert_array_equal(polar_transform([1, 0, 0, 0]), [1, 0, 0, 0])

    def test_bit_reversal_routing(self):
        # index 2 routes through reversed index 3: third row of the 4x4 transform
        np.testing.assert_array_equal(polar_transform([0, 1, 0, 0]), [1, 0, 1, 0])

    def test_linear(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            N = 1 << int(rng.integers(1, 8))
            a = rng.integers(0, 2, N, dtype=np.uint8)
            b = rng.integers(0, 2, N, dtype=np.uint8)
            np.testing.assert_array_equal(
                polar_transform(a ^ b), polar_transform(a) ^ polar_transform(b)
            )

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            N = 1 << int(rng.integers(0, 10))
            u = rng.integers(0, 2, N, dtype=np.uint8)
            np.testing.assert_array_equal(polar_transform(polar_transform(u)), u)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            polar_transform([1, 0, 1])

    def test_stacked_rows_transform_along_the_last_axis(self):
        """A (rows, N) stack is transformed row by row; its row count is not
        its block length, so rows of a non-power-of-two length are rejected
        whatever their number."""
        rng = np.random.default_rng(2)
        for shape in ((8, 4), (3, 16), (1, 2), (5, 1)):
            u = rng.integers(0, 2, shape, dtype=np.uint8)
            np.testing.assert_array_equal(polar_transform(u),
                                          [polar_transform(row) for row in u])
        for shape in ((8, 3), (4, 6), (2, 2, 4), ()):
            with pytest.raises(ValueError):
                polar_transform(np.zeros(shape, dtype=np.uint8))

    def test_matches_explicit_generator_matrix(self):
        """x = u B_N F^(x n) mod 2, with B_N the bit-reversal permutation
        matrix and F^(x n) built by np.kron, for n = 0..10, on one block and
        on a stack of blocks: every entry of the generator is pinned, where
        the tests above check values for N <= 4 only."""
        rng = np.random.default_rng(3)
        # float matrices use the fast matrix product; every sum is an exact integer
        F = np.array([[1.0, 0.0], [1.0, 1.0]])
        kernel = np.ones((1, 1))
        for n in range(11):
            N = 1 << n
            generator = np.eye(N)[:, bit_reversal_permutation(n)] @ kernel
            for u in (rng.integers(0, 2, N, dtype=np.uint8),
                      rng.integers(0, 2, (5, N), dtype=np.uint8)):
                np.testing.assert_array_equal(polar_transform(u), (u @ generator) % 2)
            kernel = np.kron(kernel, F)

    def test_bit_reversal_permutation(self):
        np.testing.assert_array_equal(bit_reversal_permutation(2), [0, 2, 1, 3])
        for n in range(7):
            perm = bit_reversal_permutation(n)
            np.testing.assert_array_equal(perm[perm], np.arange(1 << n))


class TestTrits:
    def test_round_trip(self):
        y = trits_from_str("01?10?")
        assert trits_to_str(y) == "01?10?"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            trits_from_str("01x")


class TestEncodeBlock:
    def test_degenerate_partition_is_plain_transform(self):
        codec = ChainCodec(flat_partition(8))
        msg = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        x, chain = codec.encode_block(msg, np.array([], dtype=np.uint8),
                                      np.random.default_rng(0))
        np.testing.assert_array_equal(x, polar_transform(msg))
        assert len(chain) == 0

    def test_deterministic_with_seed(self):
        part = build_partition(CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3))
        codec = ChainCodec(part)
        msg = np.ones(codec.message_size, dtype=np.uint8)
        chain = codec.preshared_state(np.random.default_rng(42))
        x1, c1 = codec.encode_block(msg, chain, np.random.default_rng(7))
        x2, c2 = codec.encode_block(msg, chain, np.random.default_rng(7))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(c1, c2)

    def test_next_block_sink_carries_source_bits(self):
        part = build_partition(CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3))
        codec = ChainCodec(part)
        rng = np.random.default_rng(5)
        chain = codec.preshared_state(rng)
        msgs = rng.integers(0, 2, (2, codec.message_size), dtype=np.uint8)
        x1, chain1 = codec.encode_block(msgs[0], chain, rng)
        x2, _ = codec.encode_block(msgs[1], chain1, rng)
        # invert both codewords and compare u^B of block 2 with u^E of block 1
        perm = bit_reversal_permutation(codec.n)
        u1 = polar_transform(x1)
        u2 = polar_transform(x2)
        np.testing.assert_array_equal(
            u2[part.chain_sink - 1], u1[part.chain_source - 1]
        )

    def test_size_mismatch(self):
        codec = ChainCodec(flat_partition(8))
        with pytest.raises(ValueError):
            codec.encode_block(np.zeros(5, dtype=np.uint8),
                               np.array([], dtype=np.uint8),
                               np.random.default_rng(0))

    @pytest.mark.parametrize("cfg", [
        CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3),  # |B| = 3
        CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3),  # |B| = 2
        CodeConfig(n=8, beta=0.26, rho_w=0.2, rho_r=0.4),  # |B| = 0
    ])
    def test_session_equals_chained_block_loop(self, cfg):
        """encode_session's one stacked transform gives the codewords, and
        leaves the rng where, T chained encode_block calls do."""
        codec = ChainCodec(build_partition(cfg))
        rng = np.random.default_rng(6)
        preshared = codec.preshared_state(rng)
        msgs = rng.integers(0, 2, (4, codec.message_size), dtype=np.uint8)
        session_rng, loop_rng = np.random.default_rng(9), np.random.default_rng(9)
        codewords = codec.encode_session(msgs, preshared, session_rng)
        assert codewords.shape == (4, codec.N)
        chain = preshared
        for msg, x in zip(msgs, codewords):
            expected, chain = codec.encode_block(msg, chain, loop_rng)
            np.testing.assert_array_equal(x, expected)
        assert session_rng.integers(2**62) == loop_rng.integers(2**62)


# cells with a live chain (|B| >= 1) at n <= 10; random cells rarely have one
LIVE_CHAIN_CELLS = (
    CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3),  # |B| = 2
    CodeConfig(n=9, beta=0.3, rho_w=0.3, rho_r=0.4),  # |B| = 4
    CodeConfig(n=10, beta=0.26, rho_w=0.3, rho_r=0.4),  # |B| = 1
    CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3),  # |B| = 3
)


class TestScDecodeBlock:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(9)
        for cfg in [
            CodeConfig(n=4, beta=0.3, rho_w=0.1, rho_r=0.2),
            CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3),
        ]:
            part = build_partition(cfg)
            codec = ChainCodec(part)
            for _ in range(20):
                chain = codec.preshared_state(rng)
                msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
                x, _ = codec.encode_block(msg, chain, rng)
                res = codec.sc_decode_block(x.astype(np.int8), chain)
                assert res.erased_decisions == 0
                np.testing.assert_array_equal(codec.extract_message(res.u), msg)

    def test_all_erased_all_frozen(self):
        part = flat_partition(4, info=np.array([], dtype=np.int64), frozen=[1, 2, 3, 4])
        codec = ChainCodec(part)
        res = codec.sc_decode_block(trits_from_str("????"),
                                    np.array([], dtype=np.uint8))
        np.testing.assert_array_equal(res.u, [0, 0, 0, 0])
        assert res.erased_decisions == 0

    def test_hand_traced_single_info(self):
        # u = 0000 sent, first observation erased, info set {4}: the lone
        # decision sees an intact plus-channel and recovers 0 without guessing
        part = flat_partition(4, info=[4], frozen=[1, 2, 3])
        codec = ChainCodec(part)
        res = codec.sc_decode_block(trits_from_str("?000"),
                                    np.array([], dtype=np.uint8))
        np.testing.assert_array_equal(res.u, [0, 0, 0, 0])
        assert res.erased_decisions == 0

    def test_erasure_monotonicity(self):
        rng = np.random.default_rng(21)
        part = build_partition(CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4))
        codec = ChainCodec(part)
        for _ in range(30):
            chain = codec.preshared_state(rng)
            msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
            x, _ = codec.encode_block(msg, chain, rng)
            base = rng.permutation(64)[: rng.integers(0, 40)]
            extra = np.union1d(base, rng.permutation(64)[: rng.integers(0, 40)])
            few = codec.sc_decode_block(erase(x, base), chain)
            more = codec.sc_decode_block(erase(x, extra), chain)
            assert more.erased_decisions >= few.erased_decisions

    def test_forced_guesses_match_boolean_polarization(self):
        rng = np.random.default_rng(33)
        part = build_partition(CodeConfig(n=7, beta=0.3, rho_w=0.2, rho_r=0.4))
        codec = ChainCodec(part)
        decide = np.sort(np.concatenate([part.info, part.chain_source, part.random]))
        for _ in range(50):
            chain = codec.preshared_state(rng)
            msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
            x, _ = codec.encode_block(msg, chain, rng)
            mask = rng.random(128) < rng.random()
            res = codec.sc_decode_block(erase(x, np.flatnonzero(mask)), chain)
            realized = np.flatnonzero(realize_profile(mask)) + 1
            np.testing.assert_array_equal(
                np.flatnonzero(res.erased) + 1, np.intersect1d(realized, decide)
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(cfg=st.one_of(
        st.sampled_from(LIVE_CHAIN_CELLS),
        st.builds(CodeConfig, n=st.integers(1, 10), beta=st.floats(0.05, 0.49),
                  rho_w=st.floats(0.0, 0.45), rho_r=st.floats(0.0, 0.45))),
        strategy=st.sampled_from(list(Strategy)), seed=st.integers(0, 2**32 - 1))
    def test_property_block_without_forced_guess_decodes_to_sent_u(self, cfg, strategy, seed):
        """A block whose write realization leaves no decided position noisy,
        decoded with its true chain bits, returns the sent u whatever the
        guesses, with no erased decision and no residual.  Sweeps rely on
        it to skip Bob's decode of such blocks.  The write is the strategy's
        draw with as few of its positions (in a random order) cleared as
        leave no forced guess."""
        try:
            part = build_partition(cfg)
        except InfeasibleConstruction:
            assume(False)
        codec = ChainCodec(part)
        rng = np.random.default_rng(seed)
        decide = np.zeros(part.N, dtype=bool)
        decide[np.concatenate([part.info, part.chain_source, part.random]) - 1] = True
        write = sample_action(part.N, cfg.rho_w, cfg.rho_r, strategy, rng).write
        order = rng.permutation(np.flatnonzero(write))

        def cleared(k):
            w = write.copy()
            w[order[:k]] = False
            return w

        lo, hi = 0, len(order)  # clearing every written position leaves no forced guess
        while lo < hi:
            mid = (lo + hi) // 2
            if (realize_profile(cleared(mid)) & decide).any():
                lo = mid + 1
            else:
                hi = mid
        chain = codec.preshared_state(rng)
        msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
        x, _ = codec.encode_block(msg, chain, rng)
        y = apply_write(x, cleared(lo))
        sent = polar_transform(x)  # the transform is its own inverse
        for guesses in (None, rng.integers(0, 2, part.N, dtype=np.uint8)):
            res = codec.sc_decode_block(y, chain, guess_bits=guesses)
            np.testing.assert_array_equal(res.u, sent)
            assert not res.erased.any() and not res.residual.any()

    def test_shortcuts_equal_plain_recursion(self):
        rng = np.random.default_rng(17)
        part = build_partition(CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4))
        codec = ChainCodec(part)
        for _ in range(40):
            chain = codec.preshared_state(rng)
            msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
            x, _ = codec.encode_block(msg, chain, rng)
            guess = rng.integers(0, 2, 64, dtype=np.uint8)
            y = erase(x, np.flatnonzero(rng.random(64) < 0.3))
            fast = codec.sc_decode_block(y, chain, guess_bits=guess)
            slow_u, slow_guessed, _ = plain_sc_decode(codec, y, chain, guess)
            np.testing.assert_array_equal(fast.u, slow_u)
            np.testing.assert_array_equal(np.flatnonzero(fast.erased) + 1, slow_guessed)

    def test_strict_accepts_erasures_with_correct_guesses(self):
        # guesses that happen to equal the transmitted bits never poison the
        # partial sums, so no fixed position reads the other bit, even under
        # heavy erasing
        rng = np.random.default_rng(23)
        part = build_partition(CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4))
        codec = ChainCodec(part)
        for _ in range(30):
            chain = codec.preshared_state(rng)
            msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
            x, _ = codec.encode_block(msg, chain, rng)
            truth = polar_transform(x)  # involution recovers u
            y = erase(x, np.flatnonzero(rng.random(64) < 0.4))
            res = codec.sc_decode_block(y, chain, guess_bits=truth)
            np.testing.assert_array_equal(res.u, truth)
            assert not res.residual.any()

    def test_strict_flags_corrupted_observation(self):
        # bit flips are outside the erasure model; the residual shows them
        part = flat_partition(2, info=[2], frozen=[1])
        codec = ChainCodec(part)
        chain = np.array([], dtype=np.uint8)
        x = polar_transform([0, 1])  # frozen zero, message one
        bad = x.astype(np.int8).copy()
        bad[0] ^= 1
        res = codec.sc_decode_block(bad, chain)
        np.testing.assert_array_equal(np.flatnonzero(res.residual) + 1, [1])
        assert res.u[0] == 0  # the frozen bit stands

    def test_without_chain_sink_becomes_decision(self):
        part = build_partition(CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3))
        codec = ChainCodec(part)
        rng = np.random.default_rng(3)
        chain = codec.preshared_state(rng)
        msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
        x, _ = codec.encode_block(msg, chain, rng)
        res = codec.sc_decode_block(x.astype(np.int8), None)
        # noiseless: even without the pre-shared bits everything is implied
        np.testing.assert_array_equal(res.u[part.chain_sink - 1], chain)

    def test_guess_bits_supply_coin_flips(self):
        part = flat_partition(4)
        codec = ChainCodec(part)
        chain = np.array([], dtype=np.uint8)
        res0 = codec.sc_decode_block(trits_from_str("????"), chain)
        np.testing.assert_array_equal(res0.u, [0, 0, 0, 0])
        res1 = codec.sc_decode_block(trits_from_str("????"), chain,
                                     guess_bits=np.array([1, 1, 0, 1], dtype=np.uint8))
        np.testing.assert_array_equal(res1.u, [1, 1, 0, 1])
        assert res0.erased_decisions == res1.erased_decisions == 4

    def test_rejects_bad_observation(self):
        codec = ChainCodec(flat_partition(4))
        chain = np.array([], dtype=np.uint8)
        with pytest.raises(ValueError):
            codec.sc_decode_block(np.array([0, 1, 3, 0], dtype=np.int8), chain)
        with pytest.raises(ValueError):
            codec.sc_decode_block(np.zeros(5, dtype=np.int8), chain)

    @pytest.mark.parametrize("bad", [258, 257, -1, 2.5])
    def test_rejects_non_trits_before_any_cast(self, bad):
        """258 and 257 would wrap to an erasure and a one in int8."""
        codec = ChainCodec(flat_partition(4))
        y = np.array([0, 1, 2, bad])
        with pytest.raises(ValueError, match="trits"):
            codec.sc_decode_block(y, None)
        with pytest.raises(ValueError, match="trits"):
            codec.decode_session(y[None], None)

    @pytest.mark.parametrize("bad", [2, 257, -1, 0.5])
    def test_rejects_non_bits_before_any_cast(self, bad):
        """Messages, chain and pre-shared bits, guesses and transform inputs
        must be 0 or 1; 257 would wrap to 1.  Each error names the argument."""
        codec = ChainCodec(flat_partition(4, chain_source=[4], chain_sink=[1]))
        rng = np.random.default_rng(0)
        ok, y = np.zeros(2), np.zeros((1, 4), dtype=np.int8)
        calls = {
            "messages": [lambda: codec.encode_session([[bad, 0]], [0], rng),
                         lambda: codec.encode_block([0, bad], [0], rng)],
            "chain": [lambda: codec.encode_block([0, 0], [bad], rng),
                      lambda: codec.sc_decode_block(y, [bad])],
            "preshared": [lambda: codec.encode_session([ok], [bad], rng),
                          lambda: codec.decode_session(y, [bad])],
            "guess_bits": [lambda: codec.sc_decode_block(y, None, guess_bits=[[0, 0, 0, bad]]),
                           lambda: codec.decode_session(y, None, guess_bits=[[0, bad, 0, 0]])],
            "u": [lambda: polar_transform([bad, 0]), lambda: polar_transform(np.array([bad, 0]))],
        }
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError, match=f"{name} must be bits"):
                    fn()

    @pytest.mark.parametrize("dtype,bad", [(np.int8, -1), (np.int8, -128), (np.uint8, 3)])
    def test_rejects_out_of_range_bytes(self, dtype, bad):
        """int8 and uint8 inputs are checked on their bytes: a negative int8
        reads as 128 or more, and neither is a bit nor a trit."""
        codec = ChainCodec(flat_partition(4))
        row = np.array([0, 1, bad, 0], dtype=dtype)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="trits"):
            codec.sc_decode_block(row, None)
        with pytest.raises(ValueError, match="u must be bits"):
            polar_transform(row)
        with pytest.raises(ValueError, match="guess_bits must be bits"):
            codec.sc_decode_block(np.zeros(4, dtype=np.int8), None, guess_bits=row)
        with pytest.raises(ValueError, match="messages must be bits"):
            codec.encode_session(row[None, :codec.message_size], [], rng)


@st.composite
def stacked_cases(draw):
    """A random five-way partition at N <= 64 and 1..4 stacked observations
    of codewords whose frozen bits are 0 and whose B bits are the chain."""
    N = 1 << draw(st.integers(0, 6))
    roles = np.array(draw(st.lists(st.integers(0, 4), min_size=N, max_size=N)))
    sets = [np.flatnonzero(roles == r) + 1 for r in range(5)]
    pairs = min(len(sets[1]), len(sets[4]))  # |E| = |B|; the surplus is info
    info = np.sort(np.concatenate([sets[0], sets[1][pairs:], sets[4][pairs:]]))
    part = IndexPartition(N=N, info=info, chain_source=sets[1][:pairs], random=sets[2],
                          frozen=sets[3], chain_sink=sets[4][:pairs])
    rows = draw(st.integers(1, 4))
    bits = st.lists(st.booleans(), min_size=rows * N, max_size=rows * N).map(
        lambda b: np.array(b).reshape(rows, N))
    truth = draw(bits).astype(np.uint8)
    truth[:, part.frozen - 1] = 0
    chain = truth[0, part.chain_sink - 1]
    truth[:, part.chain_sink - 1] = chain
    y = np.array([polar_transform(u) for u in truth], dtype=np.int8)
    y[draw(bits)] = Trit.ERASED
    known = y != Trit.ERASED
    y[known & draw(bits) & draw(bits)] ^= 1  # flip about a quarter of the known bits
    return part, truth, chain, y, draw(bits).astype(np.uint8), draw(st.booleans())


def random_partition(N, rng):
    """A random five-way partition at N with random role shares, so whole
    bytes of one role occur."""
    roles = rng.choice(5, size=N, p=rng.dirichlet(np.full(5, 0.5)))
    sets = [np.flatnonzero(roles == r) + 1 for r in range(5)]
    pairs = min(len(sets[1]), len(sets[4]))  # |E| = |B|; the surplus is info
    info = np.sort(np.concatenate([sets[0], sets[1][pairs:], sets[4][pairs:]]))
    return IndexPartition(N=N, info=info, chain_source=sets[1][:pairs], random=sets[2],
                          frozen=sets[3], chain_sink=sets[4][:pairs])


@st.composite
def tall_stacks(draw):
    """16..64 stacked rows at n = 8..12 under a random five-way partition.

    Each row is all known, all erased, erased at random, or erased on one
    run of the decoding order, so its subtrees settle at several depths;
    about half the rows are codewords (frozen bits 0, B bits the row's
    chain), the rest random bits.  Guesses are random or None; chain bits
    are None, shared by every row or one set per row.
    """
    n = draw(st.integers(8, 12))
    rows = draw(st.integers(16, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = 1 << n
    part = random_partition(N, rng)
    chain = rng.integers(0, 2, (rows, len(part.chain_sink)), dtype=np.uint8)
    truth = rng.integers(0, 2, (rows, N), dtype=np.uint8)
    truth[:, part.frozen - 1] = 0
    truth[:, part.chain_sink - 1] = chain
    y = rng.integers(0, 2, (rows, N)).astype(np.int8)
    codeword = rng.random(rows) < 0.5
    y[codeword] = polar_transform(truth[codeword])
    erased = rng.random((rows, N)) < rng.random((rows, 1))
    kind = rng.integers(0, 4, rows)
    erased[kind == 0] = False
    erased[kind == 1] = True
    order = bit_reversal_permutation(n)
    for r in np.flatnonzero(kind == 3):
        a, b = np.sort(rng.integers(0, N + 1, 2))
        erased[r] = False
        erased[r, order[a:b]] = True
    y[erased] = Trit.ERASED
    guess = rng.integers(0, 2, (rows, N), dtype=np.uint8) if draw(st.booleans()) else None
    chain = draw(st.sampled_from([None, chain[0], chain]))
    return part, y, guess, chain, rng.choice(rows, 2, replace=False)


class TestStacked:
    """Stacked observations decode in one recursion exactly as row by row."""

    @staticmethod
    def assert_rows_equal(codec, y, chain, guess):
        stacked = codec.sc_decode_block(y, chain, guess_bits=guess)
        assert stacked.u.shape == stacked.erased.shape == stacked.residual.shape == y.shape
        for r in range(len(y)):
            one = codec.sc_decode_block(y[r], chain,
                                        guess_bits=None if guess is None else guess[r])
            np.testing.assert_array_equal(stacked.u[r], one.u)
            np.testing.assert_array_equal(stacked.erased[r], one.erased)
            np.testing.assert_array_equal(stacked.residual[r], one.residual)
        assert type(stacked.erased_decisions) is int
        assert stacked.erased_decisions == np.count_nonzero(stacked.erased)
        return stacked

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(stacked_cases())
    def test_property_stacked_equals_row_by_row(self, case):
        part, truth, chain, y, guess, with_chain = case
        codec = ChainCodec(part)
        chain = chain if with_chain else None
        self.assert_rows_equal(codec, y, chain, guess)
        self.assert_rows_equal(codec, y, chain, None)
        # the clean path: the transmitted codewords, erased where y is, and
        # truthful guesses, leaves no residual and recovers u
        clean = np.array([polar_transform(u) for u in truth], dtype=np.int8)
        clean[y == Trit.ERASED] = Trit.ERASED
        res = self.assert_rows_equal(codec, clean, chain, truth)
        assert not res.residual.any()
        np.testing.assert_array_equal(res.u, truth)

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(tall_stacks())
    def test_property_tall_stacks_equal_one_row_decodes(self, case):
        """Stacks that mix all-known, all-erased and partly erased rows
        decode every row exactly as its own one-row decode does, and two
        sampled rows as plain SC does."""
        part, y, guess, chain, sampled = case
        codec = ChainCodec(part)
        res = codec.sc_decode_block(y, chain, guess_bits=guess)
        chains = [chain if chain is None or chain.ndim == 1 else chain[r] for r in range(len(y))]
        guesses = [None if guess is None else guess[r] for r in range(len(y))]
        for r in range(len(y)):
            one = codec.sc_decode_block(y[r], chains[r], guess_bits=guesses[r])
            np.testing.assert_array_equal(res.u[r], one.u)
            np.testing.assert_array_equal(res.erased[r], one.erased)
            np.testing.assert_array_equal(res.residual[r], one.residual)
        for r in sampled:
            u, guessed, contradicted = plain_sc_decode(codec, y[r], chains[r], guesses[r])
            np.testing.assert_array_equal(res.u[r], u)
            np.testing.assert_array_equal(np.flatnonzero(res.erased[r]) + 1, guessed)
            np.testing.assert_array_equal(np.flatnonzero(res.residual[r]) + 1, contradicted)

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(n=st.integers(0, 12), rows=st.integers(0, 6), with_chain=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_property_erased_is_the_realized_noise_on_decided_positions(
            self, n, rows, with_chain, seed):
        """The flag pass alone sets erased: on every row it is the boolean
        polarization of the row's erasures (realize_profile) on the decided
        positions, B among them when no chain bits are given.  Rows are all
        known, all erased or erased at a random share of their own."""
        rng = np.random.default_rng(seed)
        N = 1 << n
        part = random_partition(N, rng)
        y = rng.integers(0, 2, (rows, N)).astype(np.int8)
        share = rng.choice([0.0, 1.0, rng.random()], size=(rows, 1))
        y[rng.random((rows, N)) < share] = Trit.ERASED
        chain = rng.integers(0, 2, len(part.chain_sink), dtype=np.uint8) if with_chain else None
        decided = np.ones(N, dtype=bool)
        decided[part.frozen - 1] = False
        if with_chain:
            decided[part.chain_sink - 1] = False
        res = ChainCodec(part).sc_decode_block(y, chain)
        realized = realize_profile(y == Trit.ERASED)
        assert res.erased.shape == (rows, N)
        for r in range(rows):
            np.testing.assert_array_equal(res.erased[r], realized[r] & decided)

    def test_one_row_stack_keeps_the_row_shape(self):
        codec = ChainCodec(flat_partition(4))
        chain = np.array([], dtype=np.uint8)
        y = trits_from_str("?01?")
        one = codec.sc_decode_block(y, chain)
        stacked = codec.sc_decode_block(y[None], chain)
        for mask in ("u", "erased", "residual"):
            assert getattr(one, mask).shape == (4,)
            assert getattr(stacked, mask).shape == (1, 4)
            np.testing.assert_array_equal(getattr(stacked, mask)[0], getattr(one, mask))

    def test_rejects_bad_stacks(self):
        codec = ChainCodec(flat_partition(4))
        chain = np.array([], dtype=np.uint8)
        with pytest.raises(ValueError, match="observation length 5 != N=4"):
            codec.sc_decode_block(np.zeros((2, 5), dtype=np.int8), chain)
        with pytest.raises(ValueError, match="trits"):
            codec.sc_decode_block(np.array([[0, 1, 2, 0], [0, 3, 0, 0]]), chain)
        with pytest.raises(ValueError, match="guess_bits shape"):
            codec.sc_decode_block(np.zeros((2, 4), dtype=np.int8), chain,
                                  guess_bits=np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match=r"\(N,\) or \(rows, N\)"):
            codec.sc_decode_block(np.zeros((1, 2, 4), dtype=np.int8), chain)

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_zero_row_stacks_give_empty_results(self, n):
        """No rows in, no rows out: the transform, a block decode with chain
        bits, without them or with guesses, and a session decode of S = 0."""
        N = 1 << n
        codec = ChainCodec(flat_partition(N, chain_source=[N], chain_sink=[1]))
        empty = np.zeros((0, N), dtype=np.int8)
        assert polar_transform(empty).shape == (0, N)
        for chain, guess in (([1], None), (np.zeros((0, 1), dtype=np.uint8), None),
                             (None, None), (None, np.zeros((0, N), dtype=np.uint8))):
            res = codec.sc_decode_block(empty, chain, guess_bits=guess)
            assert res.u.shape == res.erased.shape == res.residual.shape == (0, N)
            assert res.erased_decisions == 0
        for preshared in (np.zeros((0, 1), dtype=np.uint8), None):
            decoded = codec.decode_session(np.zeros((0, 3, N), dtype=np.int8), preshared)
            assert decoded.shape == (0, 3, codec.message_size)

    def test_decode_leaves_no_cyclic_garbage(self):
        """A decode's temporaries are freed by reference counting alone."""
        part = build_partition(CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4))
        codec = ChainCodec(part)
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, (4, 64)).astype(np.int8)
        chain = codec.preshared_state(rng)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                codec.sc_decode_block(y[0], chain)
                codec.sc_decode_block(y, chain)
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def trit_cases(draw, n_min, n_max):
    """A random five-way partition at N = 2^n (role shares drawn too, so whole
    bytes of one role occur), 1..4 rows of arbitrary trits with a random
    erased share, guesses or None, and chain bits or None."""
    n = draw(st.sampled_from(range(n_min, n_max + 1)))
    rows = draw(st.integers(1, 4))
    erased_share = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = 1 << n
    part = random_partition(N, rng)
    pairs = len(part.chain_sink)
    y = rng.integers(0, 2, (rows, N)).astype(np.int8)
    y[rng.random((rows, N)) < erased_share] = Trit.ERASED
    guess = rng.integers(0, 2, (rows, N), dtype=np.uint8) if draw(st.booleans()) else None
    chain = rng.integers(0, 2, pairs, dtype=np.uint8) if draw(st.booleans()) else None
    return part, y, guess, chain


class TestLeafTables:
    """Width-8 subtrees decode by table lookup exactly as by plain recursion."""

    @staticmethod
    def plain_rows(codec, y, chain, guess):
        return [plain_sc_decode(codec, y[r], chain, None if guess is None else guess[r])
                for r in range(len(y))]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(trit_cases(3, 10))
    def test_property_stacked_equals_plain_recursion(self, case):
        part, y, guess, chain = case
        codec = ChainCodec(part)
        res = codec.sc_decode_block(y, chain, guess_bits=guess)
        for r, (u, guessed, _) in enumerate(self.plain_rows(codec, y, chain, guess)):
            np.testing.assert_array_equal(res.u[r], u)
            np.testing.assert_array_equal(np.flatnonzero(res.erased[r]) + 1, guessed)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(trit_cases(1, 8))
    def test_property_residual_is_exactly_the_contradictions(self, case):
        """Each row's residual is the set of its known fixed positions that
        read the other bit, position by position."""
        part, y, guess, chain = case
        codec = ChainCodec(part)
        res = codec.sc_decode_block(y, chain, guess_bits=guess)
        for r, (_, _, contradicted) in enumerate(self.plain_rows(codec, y, chain, guess)):
            np.testing.assert_array_equal(np.flatnonzero(res.residual[r]) + 1, contradicted)

    def test_every_known_pattern_under_every_decide_byte(self):
        """N=8 blocks under each of the 256 decide bytes, one row per known
        pattern, random values and guesses: every table is built and used.
        Every 17th pattern, at an offset that moves with the byte, is checked
        against the plain recursion, so each pattern is checked 15 or 16 times."""
        rng = np.random.default_rng(8)
        pattern = np.arange(256, dtype=np.uint8)
        known = np.unpackbits(pattern[:, None], axis=1).astype(bool)
        for decide_byte in range(256):
            decided = np.unpackbits(np.array([decide_byte], dtype=np.uint8)).astype(bool)
            codec = ChainCodec(flat_partition(8, info=np.flatnonzero(decided) + 1,
                                              frozen=np.flatnonzero(~decided) + 1))
            y = rng.integers(0, 2, (256, 8)).astype(np.int8)
            y[~known] = Trit.ERASED
            guess = rng.integers(0, 2, (256, 8), dtype=np.uint8)
            res = codec.sc_decode_block(y, np.array([], dtype=np.uint8), guess_bits=guess)
            for r in range(decide_byte % 17, 256, 17):
                u, guessed, contradicted = plain_sc_decode(
                    codec, y[r], np.array([], dtype=np.uint8), guess[r])
                np.testing.assert_array_equal(res.u[r], u)
                np.testing.assert_array_equal(np.flatnonzero(res.erased[r]) + 1, guessed)
                np.testing.assert_array_equal(np.flatnonzero(res.residual[r]) + 1,
                                              contradicted)

    def test_every_known_pattern_pair_under_sampled_decide_pairs(self):
        """N=16 blocks, one fused width-16 step each, under 40 sampled pairs
        of decide bytes.  The input known bytes (ka, kb) run over (p, p),
        (p, ~p) and (p, random) for every p, so each leaf byte meets every
        known pattern (the left one ka & kb, the right one ka | kb); values
        and guesses are random.  Every 7th row, at an offset that moves with
        the pair, is checked against the plain recursion."""
        rng = np.random.default_rng(16)
        perm = bit_reversal_permutation(4)
        pattern = np.arange(256, dtype=np.uint8)
        ka = np.tile(pattern, 3)
        kb = np.concatenate([pattern, ~pattern, rng.integers(0, 256, 256, dtype=np.uint8)])
        # known flags in decoding order, then in observation order
        known = np.unpackbits(np.stack([ka, kb], axis=1), axis=1, bitorder="little")
        known = known.astype(bool)[:, perm]
        for pair, decide_bytes in enumerate(rng.integers(0, 256, (40, 2), dtype=np.uint8)):
            decided = np.unpackbits(decide_bytes, bitorder="little").astype(bool)
            codec = ChainCodec(flat_partition(16, info=np.flatnonzero(decided) + 1,
                                              frozen=np.flatnonzero(~decided) + 1))
            y = rng.integers(0, 2, known.shape).astype(np.int8)
            y[~known] = Trit.ERASED
            guess = rng.integers(0, 2, known.shape, dtype=np.uint8)
            res = codec.sc_decode_block(y, np.array([], dtype=np.uint8), guess_bits=guess)
            for r in range(pair % 7, len(y), 7):
                u, guessed, contradicted = plain_sc_decode(
                    codec, y[r], np.array([], dtype=np.uint8), guess[r])
                np.testing.assert_array_equal(res.u[r], u)
                np.testing.assert_array_equal(np.flatnonzero(res.erased[r]) + 1, guessed)
                np.testing.assert_array_equal(np.flatnonzero(res.residual[r]) + 1,
                                              contradicted)

    def test_leaf_lookup_equals_plain_sc_on_every_word(self):
        """One mixed decide byte's leaf entry points against zero-fill plain
        SC on all 65,536 (pattern, value) words: the value gather at the
        offset p << 8 and the erased byte of the pattern.  This covers every
        table entry; fills are checked end to end by the plain-recursion
        tests with random guesses and chains."""
        decide_byte = 0b10110100
        decide = np.unpackbits(np.array([decide_byte], dtype=np.uint8),
                               bitorder="little").astype(bool)
        tv = codec_module._value_table(decide_byte)
        word = np.arange(1 << 16)
        p, low = (word >> 8).astype(np.uint8), (word & 0xFF).astype(np.uint8)
        k = np.unpackbits(p[:, None], axis=1, bitorder="little").astype(bool)
        v = np.unpackbits(low[:, None], axis=1, bitorder="little")
        u, unresolved, x = codec_module._sc_bits(k, v, decide)
        decisions = np.zeros_like(low)
        encoded = codec_module._leaf(decisions, tv, p.astype(np.intp) << 8, low)
        erased = codec_module._LEAF_ERASED[p]
        for got, want in ((decisions, u), (encoded, x), (erased, unresolved)):
            np.testing.assert_array_equal(
                got, np.packbits(want, axis=1, bitorder="little").ravel())

    def test_tables_of_the_used_decide_bytes_are_read_only_and_small(self):
        """The decide bytes of every cell n = 8..14 x beta = 0.20, 0.26, 0.32
        at rho_w = 0.2, rho_r = 0.4, for Bob (B fixed) and Eve (B decided):
        their value tables are shared by every decode, so each is read-only,
        and together they stay within 2.5 MB of memory."""
        used = set()
        for n, beta in itertools.product(range(8, 15), (0.20, 0.26, 0.32)):
            part = build_partition(CodeConfig(n=n, beta=beta, rho_w=0.2, rho_r=0.4))
            decided = np.ones(part.N, dtype=bool)
            decided[part.frozen - 1] = False
            used |= set(np.packbits(decided, bitorder="little").tolist())
            decided[part.chain_sink - 1] = False
            used |= set(np.packbits(decided, bitorder="little").tolist())
        assert len(used) == 9
        tables = [codec_module._value_table(d) for d in sorted(used)]
        assert not any(t.flags.writeable for t in tables)
        assert sum(t.nbytes for t in tables) <= 2.5e6


class TestCosetShift:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(trit_cases(0, 8), st.integers(0, 2**32 - 1))
    def test_property_fill_is_a_coset_shift(self, case, seed):
        """SC commutes with adding a codeword: with the fill f (the guesses
        where decided, the chain bits on B, 0 elsewhere), a decode of y
        equals, row by row, the zero-fill decode of y + fG on its known
        positions with f added to u, and the same erased and residual
        flags.  The decoder rests on this identity, and so would
        superposing chain-bit rows and ML decoding by inactivation (ROADMAP
        directions 2 and 5)."""
        part, y, guess, chain = case
        codec = ChainCodec(part)
        if guess is None:
            guess = np.random.default_rng(seed).integers(0, 2, y.shape, dtype=np.uint8)
        sink = part.chain_sink - 1
        decided = np.ones(part.N, dtype=bool)
        decided[part.frozen - 1] = False
        if chain is not None:
            decided[sink] = False
        fill = guess * decided
        if chain is not None:
            fill[:, sink] = chain
        shifted = np.where(y == Trit.ERASED, y, y ^ polar_transform(fill)).astype(np.int8)
        zero = None if chain is None else np.zeros_like(chain)
        res0 = codec.sc_decode_block(shifted, zero, guess_bits=np.zeros_like(guess))
        res = codec.sc_decode_block(y, chain, guess_bits=guess)
        np.testing.assert_array_equal(res.u, res0.u ^ fill)
        np.testing.assert_array_equal(res.erased, res0.erased)
        np.testing.assert_array_equal(res.residual, res0.residual)


class TestRandomBitRows:
    def test_padded_draw_equals_row_draws(self):
        """The one draw of T rows equals T per-row draws of K bits, and
        leaves the generator where they leave it, for K = 0..9 and T = 1..5."""
        for K, T, seed in itertools.product(range(10), range(1, 6), range(3)):
            ours, rows = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_bit_rows(ours, T, K)
            want = [rows.integers(0, 2, size=K, dtype=np.uint8) for _ in range(T)]
            assert got.shape == (T, K) and got.dtype == np.uint8
            np.testing.assert_array_equal(got, np.reshape(want, (T, K)))
            np.testing.assert_array_equal(ours.integers(0, 2**32, 4), rows.integers(0, 2**32, 4))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(K=st.integers(0, 70), T=st.integers(1, 6), buffered=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_property_raw_draw_equals_row_draws(self, K, T, buffered, seed):
        """The raw-word draw equals T stacked rng.integers calls of K bits,
        entering with or without a buffered half word, and leaves the same
        generator state: the next 32-bit and 64-bit draws agree."""
        ours, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # one uint32 leaves the high half of its output buffered
            for rng in (ours, rows):
                rng.integers(0, 2**32, dtype=np.uint32)
        assert ours.bit_generator.state["has_uint32"] == buffered
        got = random_bit_rows(ours, T, K)
        want = [rows.integers(0, 2, size=K, dtype=np.uint8) for _ in range(T)]
        assert got.shape == (T, K) and got.dtype == np.uint8
        np.testing.assert_array_equal(got, np.reshape(want, (T, K)))
        assert ours.bit_generator.state == rows.bit_generator.state
        assert ours.integers(0, 2**32, dtype=np.uint32) == rows.integers(0, 2**32, dtype=np.uint32)
        assert ours.integers(0, 2**64, dtype=np.uint64) == rows.integers(0, 2**64, dtype=np.uint64)

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64,
                                        np.random.PCG64DXSM])
    def test_other_bit_generators_raise(self, bitgen):
        with pytest.raises(TypeError, match="PCG64"):
            random_bit_rows(np.random.Generator(bitgen(0)), 2, 5)


def scatter_session_u(part, messages, preshared, rng):
    """session_u built block by block with column scatters: block t's E and
    R bits from one rng.integers draw, E first, B from the pre-shared bits
    or block t-1's E, F zero."""
    e0, r0, b0 = part.chain_source - 1, part.random - 1, part.chain_sink - 1
    u = np.zeros((len(messages), part.N), dtype=np.uint8)
    u[:, part.info - 1] = messages
    for t in range(len(messages)):
        fresh = rng.integers(0, 2, size=len(e0) + len(r0), dtype=np.uint8)
        u[t, e0], u[t, r0] = fresh[: len(e0)], fresh[len(e0):]
        u[t, b0] = preshared if t == 0 else u[t - 1, e0]
    return u


class TestSessionU:
    @pytest.mark.parametrize("cfg,chain,info", [
        (CodeConfig(n=8, beta=0.26, rho_w=0.2, rho_r=0.4), 0, 44),
        (CodeConfig(n=9, beta=0.3, rho_w=0.3, rho_r=0.4), 4, 1),
        (CodeConfig(n=8, beta=0.22, rho_w=0.3, rho_r=0.5), 1, 0),
    ])
    def test_take_equals_scatter_reference(self, cfg, chain, info):
        """The one-take u equals the scatter-built reference, and leaves the
        rng where it does, on a chain-free cell, the n = 9 live-chain cell
        and a live-chain cell without information bits, at T = 0, 1, 2 and
        7."""
        part = build_partition(cfg)
        codec = ChainCodec(part)
        assert (codec.chain_size, codec.message_size) == (chain, info)
        rng = np.random.default_rng(3)
        for T in (0, 1, 2, 7):
            preshared = codec.preshared_state(rng)
            messages = rng.integers(0, 2, (T, info), dtype=np.uint8)
            ours, reference = np.random.default_rng(T), np.random.default_rng(T)
            u = codec.session_u(messages, preshared, ours)
            assert u.shape == (T, part.N) and u.dtype == np.uint8
            np.testing.assert_array_equal(
                u, scatter_session_u(part, messages, preshared, reference))
            assert ours.bit_generator.state == reference.bit_generator.state

    def test_preshared_state_is_one_integers_call(self):
        codec = ChainCodec(build_partition(CodeConfig(n=9, beta=0.3, rho_w=0.3, rho_r=0.4)))
        ours, reference = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            np.testing.assert_array_equal(
                codec.preshared_state(ours),
                reference.integers(0, 2, size=codec.chain_size, dtype=np.uint8))
        assert ours.bit_generator.state == reference.bit_generator.state


class TestExhaustive:
    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_every_input_round_trips(self, N):
        codec = ChainCodec(flat_partition(N))
        chain = np.array([], dtype=np.uint8)
        for bits in itertools.product((0, 1), repeat=N):
            u = np.array(bits, dtype=np.uint8)
            x = polar_transform(u)
            res = codec.sc_decode_block(x.astype(np.int8), chain)
            np.testing.assert_array_equal(res.u, u)
            assert res.erased_decisions == 0


def test_single_position_block_degenerates():
    part = build_partition(CodeConfig(n=0, beta=0.25, rho_w=0.0, rho_r=0.0))
    codec = ChainCodec(part)
    chain = np.array([], dtype=np.uint8)
    x, _ = codec.encode_block(np.array([1], dtype=np.uint8), chain,
                              np.random.default_rng(0))
    np.testing.assert_array_equal(x, [1])
    res = codec.sc_decode_block(x.astype(np.int8), chain)
    np.testing.assert_array_equal(res.u, [1])
    assert res.erased_decisions == 0


def block_loop(codec, obs, chain, guesses=None) -> list:
    """The sc_decode_block results of a session decoded block by block, each
    block's decoded u[E] the next block's chain bits."""
    results = []
    for t, y in enumerate(obs):
        results.append(codec.sc_decode_block(
            y, chain, guess_bits=None if guesses is None else guesses[t]))
        chain = results[-1].u[codec.partition.chain_source - 1]
    return results


class TestSessions:
    def _codec(self):
        return ChainCodec(build_partition(CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3)))

    @pytest.mark.parametrize("T", [1, 3])
    def test_session_round_trip(self, T):
        codec = self._codec()
        rng = np.random.default_rng(100 + T)
        preshared = codec.preshared_state(np.random.default_rng(55))
        msgs = rng.integers(0, 2, (T, codec.message_size), dtype=np.uint8)
        codewords = codec.encode_session(msgs, preshared, rng)
        obs = [x.astype(np.int8) for x in codewords]
        decoded = codec.decode_session(obs, preshared)
        np.testing.assert_array_equal(np.array(decoded), msgs)
        # with each block's true chain bits no decision is erased and no
        # fixed position reads the other bit
        u = polar_transform(codewords)
        chain = np.vstack([preshared, u[:-1, codec.partition.chain_source - 1]])
        res = codec.sc_decode_block(np.array(obs), chain)
        assert res.erased_decisions == 0 and not res.residual.any()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 10), beta=st.floats(0.05, 0.49), rho_w=st.floats(0.0, 0.45),
           rho_r=st.floats(0.0, 0.45), T=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(n=10, beta=0.45, rho_w=0.1, rho_r=0.3, T=3, seed=1)  # |B| = 3
    @example(n=8, beta=0.35, rho_w=0.3, rho_r=0.3, T=4, seed=2)  # |B| = 2
    def test_property_erasure_free_round_trip(self, n, beta, rho_w, rho_r, T, seed):
        """With nothing erased, Bob (pre-shared bits) and an Eve who reads
        every position (no pre-shared bits) both recover every message
        without one erased decision, whether the chain is live or empty."""
        try:
            part = build_partition(CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=rho_r))
        except InfeasibleConstruction:
            assume(False)
        codec = ChainCodec(part)
        rng = np.random.default_rng(seed)
        preshared = codec.preshared_state(rng)
        msgs = rng.integers(0, 2, (T, codec.message_size), dtype=np.uint8)
        codewords = codec.encode_session(msgs, preshared, rng)
        everything = np.ones(codec.N, dtype=bool)
        coins = np.random.default_rng(seed).integers(0, 2, (T, codec.N), dtype=np.uint8)
        for obs, chain, guesses in (
            ([apply_write(x, ~everything) for x in codewords], preshared, None),
            ([apply_read(x, everything) for x in codewords], None, coins),
        ):
            decoded = codec.decode_session(obs, chain, guess_bits=guesses)
            assert [res.erased_decisions for res in block_loop(codec, obs, chain, guesses)
                    ] == [0] * T
            np.testing.assert_array_equal(np.array(decoded), msgs)

    def test_session_rng_guesses_like_a_block_loop(self):
        """decode_session(obs, None, guess_bits=...) is the block loop a
        receiver without the pre-shared bits runs: chain None first, then its
        own u[E], with block t's row of guess bits."""
        codec = self._codec()
        N = codec.N
        rng = np.random.default_rng(7)
        msgs = rng.integers(0, 2, (3, codec.message_size), dtype=np.uint8)
        codewords = codec.encode_session(msgs, codec.preshared_state(rng), rng)
        obs = [erase(x, np.flatnonzero(rng.random(N) < 0.7)) for x in codewords]
        guesses = np.random.default_rng(5).integers(0, 2, (3, N), dtype=np.uint8)

        decoded = codec.decode_session(obs, None, guess_bits=guesses)

        results = block_loop(codec, obs, None, guesses)
        for got, res in zip(decoded, results, strict=True):
            np.testing.assert_array_equal(got, codec.extract_message(res.u))
        assert sum(res.erased_decisions for res in results) > 0  # the guesses were used
        # the guesses matter: decoding with all-zero guesses differs
        assert not np.array_equal(np.array(decoded),
                                  np.array(codec.decode_session(obs, None)))

    @pytest.mark.parametrize("cfg,chain_size", [
        (CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3), 3),  # block by block
        (CodeConfig(n=8, beta=0.26, rho_w=0.2, rho_r=0.4), 0),  # one stacked call
    ])
    def test_session_equals_block_loop(self, cfg, chain_size):
        codec = ChainCodec(build_partition(cfg))
        assert codec.chain_size == chain_size
        rng = np.random.default_rng(11)
        preshared = codec.preshared_state(rng)
        msgs = rng.integers(0, 2, (5, codec.message_size), dtype=np.uint8)
        codewords = codec.encode_session(msgs, preshared, rng)
        bob, eve = [], []
        for x in codewords:
            action = sample_action(cfg.N, cfg.rho_w, cfg.rho_r, Strategy.UNIFORM, rng)
            bob.append(apply_write(x, action.write))
            eve.append(apply_read(x, action.read))

        coins = rng.integers(0, 2, (5, cfg.N), dtype=np.uint8)
        for obs, chain, guesses in ((bob, preshared, None), (eve, None, coins)):
            decoded = codec.decode_session(obs, chain, guess_bits=guesses)
            results = block_loop(codec, obs, chain, guesses)
            for got, res in zip(decoded, results, strict=True):
                np.testing.assert_array_equal(got, codec.extract_message(res.u))
        assert sum(res.erased_decisions for res in results) > 0  # Eve's guesses were used

    @pytest.mark.parametrize("cfg,chain_size", [
        (CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3), 3),  # block t of every session
        (CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3), 2),
        (CodeConfig(n=8, beta=0.26, rho_w=0.2, rho_r=0.4), 0),  # one stacked call
    ])
    def test_stacked_sessions_equal_a_session_loop(self, cfg, chain_size):
        """(S, T, N) sessions, each with its own pre-shared bits and guesses,
        decode as S one-session calls do, with and without the chain."""
        codec = ChainCodec(build_partition(cfg))
        assert codec.chain_size == chain_size
        S, T, N = 4, 3, cfg.N
        rng = np.random.default_rng(12)
        preshared = np.array([codec.preshared_state(rng) for _ in range(S)])
        msgs = rng.integers(0, 2, (S, T, codec.message_size), dtype=np.uint8)
        codewords = np.array([codec.encode_session(m, p, rng)
                              for m, p in zip(msgs, preshared)])
        obs = codewords.astype(np.int8)
        obs[rng.random(obs.shape) < 0.5] = Trit.ERASED
        guesses = rng.integers(0, 2, obs.shape, dtype=np.uint8)

        for chain, coins in ((preshared, None), (None, guesses), (preshared, guesses)):
            decoded = codec.decode_session(obs, chain, guess_bits=coins)
            assert decoded.shape == (S, T, codec.message_size)
            first = codec.sc_decode_block(obs[:, 0], chain,
                                          guess_bits=None if coins is None else coins[:, 0])
            assert first.erased_decisions > 0
            np.testing.assert_array_equal(decoded[:, 0], codec.extract_message(first.u))
            for s in range(S):
                one = codec.decode_session(
                    obs[s], None if chain is None else chain[s],
                    guess_bits=None if coins is None else coins[s])
                np.testing.assert_array_equal(decoded[s], one)

    def test_rejects_bad_sessions(self):
        codec = ChainCodec(build_partition(CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3)))
        obs = np.zeros((2, 3, codec.N), dtype=np.int8)
        preshared = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="observations must be"):
            codec.decode_session(obs[0, 0], preshared[0])
        with pytest.raises(ValueError, match="preshared shape"):
            codec.decode_session(obs, preshared[0])
        with pytest.raises(ValueError, match="guess_bits shape"):
            codec.decode_session(obs, preshared, guess_bits=np.zeros((3, codec.N)))
        with pytest.raises(ValueError, match="chain shape"):
            codec.sc_decode_block(obs[:, 0], np.zeros((3, 3), dtype=np.uint8))

    def test_wrong_chain_estimate_propagates(self):
        """A write pattern that knocks out one E channel of block 1 makes
        block 2 decode its paired B position from the wrong estimate."""
        codec = self._codec()
        part = codec.partition
        N = part.N
        rng_search = np.random.default_rng(0)
        hit_rank = None
        for attempt in range(10_000):
            mask = rng_search.random(N) < 0.3
            z = realize_profile(mask)
            hits = np.flatnonzero(z[part.chain_source - 1])
            if len(hits) == 1:
                hit_rank = int(hits[0])
                break
        assert hit_rank is not None, "no single-E-hit mask found"

        # find an encoder seed whose block-1 E bit at that rank is 1, so the
        # forced guess (0) is provably wrong
        for seed in range(100):
            rng = np.random.default_rng(seed)
            preshared = codec.preshared_state(np.random.default_rng(1))
            msgs = rng.integers(0, 2, (2, codec.message_size), dtype=np.uint8)
            alice = preshared
            x1, alice = codec.encode_block(msgs[0], alice, rng)
            if alice[hit_rank] == 1:
                x2, _ = codec.encode_block(msgs[1], alice, rng)
                break
        else:
            pytest.fail("no seed produced a 1 bit on the hit E channel")

        y1 = erase(x1, np.flatnonzero(mask))
        res1 = codec.sc_decode_block(y1, preshared)
        est = res1.u[part.chain_source - 1]
        assert est[hit_rank] == 0  # forced guess resolved to zero
        assert alice[hit_rank] == 1

        res2 = codec.sc_decode_block(x2.astype(np.int8), est)
        b_pos = part.chain_sink - 1
        # block 2's sink decisions echo the (wrong) estimate, not the truth
        np.testing.assert_array_equal(res2.u[b_pos], est)
        assert res2.u[b_pos][hit_rank] != alice[hit_rank]
        # the rest of block 2 is unharmed: its message decodes cleanly
        np.testing.assert_array_equal(codec.extract_message(res2.u), msgs[1])
