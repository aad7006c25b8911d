"""Adversary sampling and observation-channel tests."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awtcpolar import adversary
from awtcpolar.adversary import (
    AdversaryAction,
    Strategy,
    apply_read,
    apply_write,
    read_equivalent_mask,
    sample_action,
    write_equivalent_mask,
)

from _set_draw import set_draw
from _trits import trits_to_str


def bits(s: str) -> np.ndarray:
    """A boolean mask written as 0s and 1s, position 0 first."""
    return np.array([c == "1" for c in s])


class TiedKeys:
    """A stand-in generator whose uniform keys take only a few distinct
    values, so many tie with the k-th smallest."""

    def __init__(self, values, seed):
        self.values, self.source = values, np.random.default_rng(seed)

    def random(self, size=None, out=None):
        keys = self.source.integers(0, self.values, size if out is None else out.shape)
        if out is None:
            return keys / self.values
        return np.divide(keys, self.values, out=out)


def warm_draw_peak(N, fresh) -> int:
    """tracemalloc's peak over a uniform draw on the generator or generator
    sequence fresh() returns, taken after a first draw has warmed numpy up."""
    sample_action(N, 0.2, 0.4, Strategy.UNIFORM, fresh())
    rng = fresh()
    tracemalloc.start()
    try:
        sample_action(N, 0.2, 0.4, Strategy.UNIFORM, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampling:
    def test_uniform_sizes(self):
        """Both masks hold exactly floor(rho*N) positions at every n = 0..14,
        none when rho*N < 1."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            action = sample_action(4, 0.5, 0.25, Strategy.UNIFORM, rng)
            assert action.write.sum() == 2
            assert action.read.sum() == 1
        for N in (1 << n for n in range(15)):
            for rho_w, rho_r in ((0.0, 0.0), (0.5 / N, 0.2), (0.2, 0.4), (0.4, 0.5), (0.999, 0.0)):
                action = sample_action(N, rho_w, rho_r, Strategy.UNIFORM, rng)
                assert np.count_nonzero(action.write) == math.floor(rho_w * N)
                assert np.count_nonzero(action.read) == math.floor(rho_r * N)

    def test_zero_fraction_empty(self):
        rng = np.random.default_rng(1)
        for strategy in Strategy:
            action = sample_action(8, 0.0, 0.5, strategy, rng)
            assert not action.write.any()

    def test_prefix_deterministic(self):
        rng = np.random.default_rng(2)
        action = sample_action(8, 0.25, 1 / 8, Strategy.PREFIX, rng)
        np.testing.assert_array_equal(action.write, bits("11000000"))
        np.testing.assert_array_equal(action.read, bits("10000000"))

    def test_floor_sizing(self):
        rng = np.random.default_rng(3)
        action = sample_action(10, 0.35, 0.19, Strategy.UNIFORM, rng)
        assert action.write.sum() == 3  # floor(3.5)
        assert action.read.sum() == 1  # floor(1.9)

    def test_rejects_bad_fractions(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_action(8, 0.6, 0.5, Strategy.UNIFORM, rng)
        with pytest.raises(ValueError):
            sample_action(8, -0.1, 0.2, Strategy.UNIFORM, rng)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_rejects_nan_fractions(self, strategy):
        """Every range comparison with NaN is False, so a NaN fraction must
        fail the check rather than reach a draw."""
        rng = np.random.default_rng(5)
        for rho_w, rho_r in ((float("nan"), 0.2), (0.2, float("nan"))):
            with pytest.raises(ValueError, match="fractions"):
                sample_action(8, rho_w, rho_r, strategy, rng)

    def test_uniform_inclusion_is_flat(self):
        # chi-squared sanity check of per-index inclusion counts
        rng = np.random.default_rng(6)
        N, draws = 64, 10_000
        counts = np.zeros(N)
        for _ in range(draws):
            action = sample_action(N, 0.25, 0.0, Strategy.UNIFORM, rng)
            counts += action.write
        expected = draws * 16 / N
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 110  # ~99.9th percentile of chi2 with 63 dof

    @pytest.mark.parametrize("N, rho, seed", [
        (2, 0.5, 20), (4, 0.5, 21), (8, 0.375, 22), (16, 0.25, 23), (16, 0.75, 24),
    ])
    def test_uniform_inclusion_and_pair_frequencies(self, N, rho, seed):
        """Over 20,000 draws at a fixed seed, every position is written with
        frequency k/N and every pair of positions with k(k-1)/(N(N-1)), each
        to within 5 standard errors of a mean of 20,000 Bernoulli draws.  A
        draw that favours or avoids any position or pair fails."""
        draws, k = 20_000, math.floor(rho * N)
        rng = np.random.default_rng(seed)
        masks = np.array([sample_action(N, rho, 0.0, Strategy.UNIFORM, rng).write
                          for _ in range(draws)], dtype=np.float64)
        assert (masks.sum(axis=1) == k).all()
        together = masks.T @ masks / draws
        for observed, p in ((np.diag(together), k / N),
                            (together[~np.eye(N, dtype=bool)], k * (k - 1) / (N * (N - 1)))):
            tolerance = 5.0 * math.sqrt(p * (1.0 - p) / draws)
            assert np.abs(observed - p).max() <= tolerance, (p, observed)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(0, 12), rho_w=st.floats(0.0, 0.99), share=st.floats(0.0, 0.99),
           strategy=st.sampled_from(Strategy), seed=st.integers(0, 2**32 - 1))
    def test_property_masks_equal_set_draw(self, n, rho_w, share, strategy, seed):
        """The masks mark exactly the 1-based sets of the reference draw,
        which fully sorts the uniform keys the sampler partially selects,
        and the draw leaves the generator where the reference left it."""
        N = 1 << n
        rho_r = share * (1.0 - rho_w)
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        action = sample_action(N, rho_w, rho_r, strategy, rng)
        write_set, read_set = set_draw(N, rho_w, rho_r, strategy, reference)
        assert len(action.write) == len(action.read) == N
        np.testing.assert_array_equal(np.flatnonzero(action.write) + 1, write_set)
        np.testing.assert_array_equal(np.flatnonzero(action.read) + 1, read_set)
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(0, 6), values=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_property_tied_keys_taken_in_position_order(self, n, values, seed):
        """With keys of a few distinct values, many tie with the k-th
        smallest; the uniform masks still mark the reference draw's sets, the
        first k positions of a stable sort, at every k = 0..N-1."""

        N = 1 << n
        for k in range(N):
            rho_w, rho_r = k / N, (N - 1 - k) / N
            action = sample_action(N, rho_w, rho_r, Strategy.UNIFORM, TiedKeys(values, seed))
            write_set, read_set = set_draw(N, rho_w, rho_r, Strategy.UNIFORM,
                                           TiedKeys(values, seed))
            np.testing.assert_array_equal(np.flatnonzero(action.write) + 1, write_set)
            np.testing.assert_array_equal(np.flatnonzero(action.read) + 1, read_set)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(0, 10), blocks=st.integers(1, 40), rows_per_chunk=st.sampled_from(
               [None, 1, 2, 3, 7]), rho_w=st.floats(0.0, 0.99), share=st.floats(0.0, 0.99),
           strategy=st.sampled_from(Strategy), seed=st.integers(0, 2**32 - 1))
    def test_property_session_draw_equals_block_draws(self, n, blocks, rows_per_chunk, rho_w,
                                                      share, strategy, seed):
        """A session's T actions drawn in one call on [rng] * T are (T, N)
        masks whose row t is the t-th of T one-block calls on the same
        generator, which ends in the same state.  Fractions below 1/N (k = 0)
        included; the draw runs at its own chunk size or with a few rows per
        chunk, so T spans several chunks at every N."""
        N = 1 << n
        rho_r = share * (1.0 - rho_w)
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        chunk = adversary._CHUNK_KEYS if rows_per_chunk is None else rows_per_chunk * 2 * N
        with mock.patch.object(adversary, "_CHUNK_KEYS", chunk):
            session = sample_action(N, rho_w, rho_r, strategy, [rng] * blocks)
        actions = [sample_action(N, rho_w, rho_r, strategy, reference) for _ in range(blocks)]
        assert session.write.shape == session.read.shape == (blocks, N)
        np.testing.assert_array_equal(session.write, [a.write for a in actions])
        np.testing.assert_array_equal(session.read, [a.read for a in actions])
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(0, 6), blocks=st.integers(1, 12), values=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_property_session_draw_takes_tied_keys_in_position_order(self, n, blocks, values,
                                                                     seed):
        """Tied keys drawn as one session of T blocks ([rng] * T), three rows
        per chunk: row t marks the t-th pair of sets that successive reference
        draws give, the first k positions of a stable sort, at every
        k = 0..N-1."""

        N = 1 << n
        for k in range(N):
            rho_w, rho_r = k / N, (N - 1 - k) / N
            with mock.patch.object(adversary, "_CHUNK_KEYS", 3 * 2 * N):
                session = sample_action(N, rho_w, rho_r, Strategy.UNIFORM,
                                        [TiedKeys(values, seed)] * blocks)
            reference = TiedKeys(values, seed)
            for write, read in zip(session.write, session.read, strict=True):
                write_set, read_set = set_draw(N, rho_w, rho_r, Strategy.UNIFORM, reference)
                np.testing.assert_array_equal(np.flatnonzero(write) + 1, write_set)
                np.testing.assert_array_equal(np.flatnonzero(read) + 1, read_set)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(0, 10), rows=st.integers(0, 40), rows_per_chunk=st.sampled_from(
               [None, 1, 2, 3, 7]), rho_w=st.floats(0.0, 0.99), share=st.floats(0.0, 0.99),
           strategy=st.sampled_from(Strategy), seed=st.integers(0, 2**32 - 1))
    @example(n=6, rows=5, rows_per_chunk=2, rho_w=0.01, share=0.0,
             strategy=Strategy.UNIFORM, seed=1)  # k = 0 on both sides
    @example(n=6, rows=5, rows_per_chunk=2, rho_w=0.01, share=0.0,
             strategy=Strategy.BERNOULLI, seed=1)
    def test_property_generator_sequence_draw_equals_block_draws(
            self, n, rows, rows_per_chunk, rho_w, share, strategy, seed):
        """One call on a sequence of generators gives (len(rngs), N) masks
        whose row t is a one-block call on rngs[t], and every generator ends
        where that call leaves it.  The draw runs at its own chunk size or
        with a few rows per chunk, so the rows span several chunks."""
        N = 1 << n
        rho_r = share * (1.0 - rho_w)
        rngs = [np.random.default_rng([seed, t]) for t in range(rows)]
        references = [np.random.default_rng([seed, t]) for t in range(rows)]
        chunk = adversary._CHUNK_KEYS if rows_per_chunk is None else rows_per_chunk * 2 * N
        with mock.patch.object(adversary, "_CHUNK_KEYS", chunk):
            stacked = sample_action(N, rho_w, rho_r, strategy, rngs)
        actions = [sample_action(N, rho_w, rho_r, strategy, r) for r in references]
        assert stacked.write.shape == stacked.read.shape == (rows, N)
        np.testing.assert_array_equal(stacked.write, np.reshape([a.write for a in actions],
                                                                (rows, N)))
        np.testing.assert_array_equal(stacked.read, np.reshape([a.read for a in actions],
                                                               (rows, N)))
        for rng, reference in zip(rngs, references, strict=True):
            assert rng.bit_generator.state == reference.bit_generator.state

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(0, 6), rows=st.integers(1, 12), values=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_property_generator_sequence_takes_tied_keys_in_position_order(self, n, rows,
                                                                           values, seed):
        """Tied keys drawn from a sequence of generators, three rows per
        chunk: row t marks the sets of a one-block call on the t-th
        generator, the first k positions of a stable sort, at every
        k = 0..N-1, and each generator's source ends where that call's does."""
        N = 1 << n
        for k in range(N):
            rho_w, rho_r = k / N, (N - 1 - k) / N
            rngs = [TiedKeys(values, seed + t) for t in range(rows)]
            with mock.patch.object(adversary, "_CHUNK_KEYS", 3 * 2 * N):
                stacked = sample_action(N, rho_w, rho_r, Strategy.UNIFORM, rngs)
            for t, (write, read) in enumerate(zip(stacked.write, stacked.read, strict=True)):
                reference = TiedKeys(values, seed + t)
                action = sample_action(N, rho_w, rho_r, Strategy.UNIFORM, reference)
                np.testing.assert_array_equal(write, action.write)
                np.testing.assert_array_equal(read, action.read)
                assert (rngs[t].source.bit_generator.state
                        == reference.source.bit_generator.state)

    @pytest.mark.parametrize("rows_per_chunk", [None, 2])
    @pytest.mark.parametrize("strategy", [Strategy.UNIFORM, Strategy.BERNOULLI])
    def test_runs_of_one_generator_equal_block_draws(self, strategy, rows_per_chunk):
        """On [g1] * 3 + [g2] * 2 + [g1], runs of rows that share a generator,
        g1 coming back after g2, row t is a one-block call on the t-th entry
        and both generators end where those calls leave them, with runs whole
        in one chunk or cut by two-row chunks."""
        N = 64
        g1, g2 = np.random.default_rng(1), np.random.default_rng(2)
        r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
        chunk = adversary._CHUNK_KEYS if rows_per_chunk is None else rows_per_chunk * 2 * N
        with mock.patch.object(adversary, "_CHUNK_KEYS", chunk):
            stacked = sample_action(N, 0.2, 0.4, strategy, [g1] * 3 + [g2] * 2 + [g1])
        actions = [sample_action(N, 0.2, 0.4, strategy, r) for r in [r1] * 3 + [r2] * 2 + [r1]]
        np.testing.assert_array_equal(stacked.write, [a.write for a in actions])
        np.testing.assert_array_equal(stacked.read, [a.read for a in actions])
        assert g1.bit_generator.state == r1.bit_generator.state
        assert g2.bit_generator.state == r2.bit_generator.state

    def test_session_spanning_chunks_equals_block_draws(self):
        """An n = 12, T = 50 session, [rng] * 50, spans 25 chunks of two rows
        at the real chunk size; row t is the t-th of 50 one-block calls and
        the generator ends where they leave it."""
        N, T = 4096, 50
        assert -(-T // (adversary._CHUNK_KEYS // (2 * N))) == 25
        rng, reference = np.random.default_rng(12), np.random.default_rng(12)
        session = sample_action(N, 0.2, 0.4, Strategy.UNIFORM, [rng] * T)
        actions = [sample_action(N, 0.2, 0.4, Strategy.UNIFORM, reference) for _ in range(T)]
        np.testing.assert_array_equal(session.write, [a.write for a in actions])
        np.testing.assert_array_equal(session.read, [a.read for a in actions])
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_run_in_a_chunk_is_one_fill(self):
        """A session at N = 256 fills its keys with one rng.random(out=...)
        call per chunk of 32 rows; a sequence of distinct generators with one
        call per row."""
        N, T = 256, 50
        calls = []

        class Counted:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, out):
                calls.append(len(out))
                return self.rng.random(out=out)

        sample_action(N, 0.2, 0.4, Strategy.UNIFORM, [Counted(0)] * T)
        assert calls == [32, 18]
        calls.clear()
        sample_action(N, 0.2, 0.4, Strategy.UNIFORM, [Counted(t) for t in range(3)])
        assert calls == [1, 1, 1]

    def test_session_draw_holds_one_chunk_of_keys(self):
        """A uniform session draw at N = 4096, T = 50 holds its two (T, N)
        masks (0.4 MB) and at most 200 KiB of working memory at a time: one
        chunk's _CHUNK_KEYS keys (128 KiB) and one side's partition buffer
        (64 KiB).  The session's keys drawn at once (3.3 MB) would exceed it
        (610,752 B measured)."""
        N, T = 4096, 50
        peak = warm_draw_peak(N, lambda: [np.random.default_rng(0)] * T)
        assert peak <= 2 * T * N + 200 * 1024, peak

    def test_one_block_draw_holds_both_sides_keys(self):
        """A chunk holds at least one block, so a one-block uniform draw at
        N = 2^14 holds its 2N keys (256 KiB) at once, more than _CHUNK_KEYS:
        its peak is its masks, max(_CHUNK_KEYS, 2N) keys and one side's
        partition buffer of N keys, which the two sides take in turn
        (430,136 B measured)."""
        N = 1 << 14
        keys = max(adversary._CHUNK_KEYS, 2 * N)
        peak = warm_draw_peak(N, lambda: np.random.default_rng(0))
        assert peak <= 2 * N + 8 * keys + 8 * N + (1 << 13), peak

    def test_generator_sequence_draw_holds_one_chunk_of_keys(self):
        """A bounds group of 4 generators at N = 2^14 holds its (4, N) masks,
        one block's 2N keys and one side's partition buffer of N keys: its
        key buffer is chunk-sized, not group-sized (1 MiB) (528,432 B
        measured)."""
        N, rows = 1 << 14, 4
        keys = max(adversary._CHUNK_KEYS, 2 * N)
        peak = warm_draw_peak(N, lambda: [np.random.default_rng(t) for t in range(rows)])
        assert peak <= 2 * rows * N + 8 * keys + 8 * N + (1 << 13), peak


class TestObservations:
    def test_write_nothing(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(apply_write(x, bits("0000")), x)

    def test_write_everything(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_write(x, bits("1111"))) == "????"

    def test_write_pattern(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_write(x, bits("0110"))) == "1??0"

    def test_read_everything(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(apply_read(x, bits("1111")), x)

    def test_read_nothing(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_read(x, bits("0000"))) == "????"

    def test_read_pattern(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_read(x, bits("1001"))) == "1??0"

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            N = 16
            x = rng.integers(0, 2, N).astype(np.int8)
            subset = np.zeros(N, dtype=bool)
            subset[rng.permutation(N)[:5]] = True
            perm = rng.permutation(N)
            for apply_fn in (apply_write, apply_read):
                direct = apply_fn(x, subset)[perm]
                via_perm = apply_fn(x[perm], subset[perm])
                np.testing.assert_array_equal(direct, via_perm)

    def test_stacked_session_equals_block_by_block(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, (5, 16)).astype(np.int8)
        masks = rng.random((5, 16)) < 0.4
        for apply_fn in (apply_write, apply_read):
            stacked = apply_fn(x, masks)
            assert stacked.shape == (5, 16) and stacked.dtype == np.int8
            for row, block, mask in zip(stacked, x, masks):
                np.testing.assert_array_equal(row, apply_fn(block, mask))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(shape=st.sampled_from([(16,), (1, 8), (5, 16)]),
           dtype=st.sampled_from([np.int8, np.uint8]), seed=st.integers(0, 2**32 - 1))
    def test_property_bit_ops_equal_where_form(self, shape, dtype, seed):
        """Every int8 or uint8 codeword of bits gives the bytes of the
        np.where form on an int8 copy, for one block and a stacked session."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, shape).astype(np.uint8).view(dtype)
        mask = rng.random(shape) < rng.random()
        before = x.copy()
        as_int8 = x.astype(np.int8)
        erased = np.int8(2)
        for apply_fn, expected in ((apply_write, np.where(mask, erased, as_int8)),
                                   (apply_read, np.where(mask, as_int8, erased))):
            got = apply_fn(x, mask)
            assert got.dtype == np.int8 and got.shape == shape
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(x, before)

    def test_rejects_non_bits(self):
        """A codeword value other than 0 or 1 is an error, not an erasure."""
        mask = np.zeros(2, dtype=bool)
        for bad in (np.array([2, 1]), np.array([3, 0]), np.array([255, 1], dtype=np.uint8),
                    np.array([-1, 0], dtype=np.int8), [2, 1]):
            for apply_fn in (apply_write, apply_read):
                with pytest.raises(ValueError, match="codeword must be bits"):
                    apply_fn(bad, mask)

    def test_rejects_index_sets_and_wrong_shapes(self):
        # an index array would read as a truthy mask and erase everything
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        for apply_fn in (apply_write, apply_read):
            for bad in (np.arange(1, 5), [], bits("011"), bits("01101"),
                        np.stack([bits("0110")] * 2), list(bits("0110"))):
                with pytest.raises(ValueError, match="boolean mask of shape"):
                    apply_fn(x, bad)
            with pytest.raises(ValueError, match="boolean mask of shape"):
                apply_fn(np.stack([x, x]), bits("0110"))


class TestEquivalentMasks:
    def test_write_mask_marks_written(self):
        action = AdversaryAction(write=bits("01001000"), read=bits("10000000"))
        np.testing.assert_array_equal(
            write_equivalent_mask(action),
            [False, True, False, False, True, False, False, False],
        )

    def test_read_mask_marks_unread(self):
        action = AdversaryAction(write=bits("0000"), read=bits("1001"))
        np.testing.assert_array_equal(read_equivalent_mask(action),
                                      [False, True, True, False])

    def test_mask_popcounts(self):
        rng = np.random.default_rng(8)
        action = sample_action(64, 0.25, 0.25, Strategy.UNIFORM, rng)
        assert write_equivalent_mask(action).sum() == math.floor(0.25 * 64)
        assert read_equivalent_mask(action).sum() == 64 - math.floor(0.25 * 64)

    def test_stacked_masks_are_one_row_per_action(self):
        """A stacked action's equivalent blocks hold one row per block, Bob's
        being the write mask itself."""
        rng = np.random.default_rng(3)
        actions = [sample_action(16, 0.25, 0.25, s, rng)
                   for s in (Strategy.UNIFORM, Strategy.BERNOULLI, Strategy.PREFIX)]
        stacked = AdversaryAction(write=np.vstack([a.write for a in actions]),
                                  read=np.vstack([a.read for a in actions]))
        assert write_equivalent_mask(stacked) is stacked.write
        for helper, block in ((write_equivalent_mask, lambda a: a.write),
                              (read_equivalent_mask, lambda a: ~a.read)):
            rows = helper(stacked)
            assert rows.shape == (3, 16) and rows.dtype == bool
            for action, row in zip(actions, rows):
                np.testing.assert_array_equal(row, block(action))

    def test_action_rejects_malformed_masks(self):
        for write, read in (
            (np.array([5]), bits("1")),  # an index set, not a mask
            (bits("1000"), bits("10")),  # lengths differ
            (np.stack([bits("10")] * 2), np.stack([bits("01")] * 3)),  # stacks differ
            (np.stack([bits("10")] * 2)[None], np.stack([bits("01")] * 2)[None]),  # 3-D
            ([True, False], [False, True]),  # not arrays
        ):
            with pytest.raises(ValueError, match="1-D boolean masks"):
                AdversaryAction(write=write, read=read)
