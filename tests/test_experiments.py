"""Bound trials, end-to-end trials and sweep determinism tests."""

import concurrent.futures
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _serial_pool import SerialPool
from awtcpolar import experiments
from awtcpolar.adversary import (
    AdversaryAction,
    Strategy,
    apply_read,
    apply_write,
    read_equivalent_mask,
    sample_action,
    write_equivalent_mask,
)
from awtcpolar.codec import ChainCodec, polar_transform, random_bit_rows
from awtcpolar.construction import (
    CodeConfig,
    IndexPartition,
    InfeasibleConstruction,
    build_partition,
)
from awtcpolar.experiments import (
    AggregateRow,
    Cell,
    SweepSpec,
    aggregate,
    block_bound_counts,
    bounds_trial,
    derive_trial_seeds,
    end_to_end_trial,
    read_aggregates_csv,
    run_sweep,
    write_aggregates_csv,
    write_trials_csv,
)
from awtcpolar.polar_core import bec_profile, realize_profile

from _stage_loop import stage_loop_realize


def single_info_partition(N, info_index):
    rest = np.setdiff1d(np.arange(1, N + 1), [info_index])
    return IndexPartition(
        N=N,
        info=np.array([info_index], dtype=np.int64),
        chain_source=np.array([], dtype=np.int64),
        random=np.array([], dtype=np.int64),
        frozen=rest,
        chain_sink=np.array([], dtype=np.int64),
    )


def stack_counts(part, actions):
    """block_bound_counts over the equivalent blocks of the actions stacked
    into one action, one row per action."""
    action = AdversaryAction(write=np.vstack([a.write for a in actions]),
                             read=np.vstack([a.read for a in actions]))
    return block_bound_counts(part, write_equivalent_mask(action),
                              read_equivalent_mask(action))


def counts_of(part, action):
    """Row 0 of block_bound_counts over a one-action stack: (ir, e, leak)."""
    return tuple(int(c[0]) for c in stack_counts(part, [action]))


def action_of(N, write=(), read=()):
    """An action from 1-based written and read positions."""
    masks = np.zeros((2, N), dtype=bool)
    masks[0, np.asarray(write, dtype=np.int64) - 1] = True
    masks[1, np.asarray(read, dtype=np.int64) - 1] = True
    return AdversaryAction(write=masks[0], read=masks[1])


class TestBerBound:
    def test_no_writes_is_zero(self):
        cfg = CodeConfig(n=3, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=5)
        part = build_partition(cfg)
        assert counts_of(part, action_of(8))[:2] == (0, 0)

    def test_full_write_counts_everything(self):
        cfg = CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3, blocks=4)
        part = build_partition(cfg)
        action = action_of(256, write=range(1, 257))
        ir = len(part.info) + len(part.chain_source) + len(part.random)
        assert counts_of(part, action) == (ir, len(part.chain_source), 0)

    def test_crafted_single_erasure_misses_info(self):
        # one write only breaks the all-minus channel 1; info sits at 8
        part = single_info_partition(8, 8)
        assert counts_of(part, action_of(8, write=[1]))[:2] == (0, 0)
        np.testing.assert_array_equal(
            realize_profile([1, 0, 0, 0, 0, 0, 0, 0]),
            [True] + [False] * 7,
        )

    def test_integer_valued(self):
        rng = np.random.default_rng(0)
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=7)
        part = build_partition(cfg)
        actions = [sample_action(64, 0.2, 0.4, Strategy.UNIFORM, rng) for _ in range(20)]
        counts = stack_counts(part, actions)
        assert all(c.shape == (20,) and np.issubdtype(c.dtype, np.integer) for c in counts)
        for ir, e, leak in zip(*counts):
            assert 0 <= e <= ir and leak >= 0


class TestLeakBound:
    def test_reading_nothing_leaks_nothing(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        assert counts_of(part, action_of(64))[2] == 0

    def test_reading_everything_leaks_i_and_f(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        action = action_of(64, read=range(1, 65))
        i_f = len(part.info) + len(part.chain_source) + len(part.frozen)
        assert counts_of(part, action)[2] == i_f

    def test_matches_eavesdropper_decoding_oracle(self):
        # the leak count must equal the number of decision leaves inside I union F
        # that an SC pass over Eve's observation resolves without guessing
        cfg = CodeConfig(n=3, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=1)
        part = build_partition(cfg)
        probe = ChainCodec(
            IndexPartition(
                N=8,
                info=np.arange(1, 9),
                chain_source=np.array([], dtype=np.int64),
                random=np.array([], dtype=np.int64),
                frozen=np.array([], dtype=np.int64),
                chain_sink=np.array([], dtype=np.int64),
            )
        )
        i_f = np.sort(np.concatenate([part.info, part.chain_source, part.frozen]))
        rng = np.random.default_rng(1)
        from awtcpolar.codec import polar_transform

        for _ in range(100):
            action = sample_action(8, 0.2, 0.4, Strategy.UNIFORM, rng)
            x = polar_transform(rng.integers(0, 2, 8, dtype=np.uint8))
            z = apply_read(x, action.read)
            res = probe.sc_decode_block(z, np.array([], dtype=np.uint8))
            known = np.flatnonzero(~res.erased) + 1
            expected = len(np.intersect1d(known, i_f))
            assert counts_of(part, action)[2] == expected


def reference_counts(part, write, noise):
    """The bound terms of one row of the equivalent blocks from the
    stage-loop realization, summed over each set's index positions."""
    i_full = np.concatenate([part.info, part.chain_source])
    ir0 = np.concatenate([i_full, part.random]) - 1
    i_f0 = np.concatenate([i_full, part.frozen]) - 1
    zw = stage_loop_realize(write)
    zr = stage_loop_realize(noise)
    return int(zw[ir0].sum()), int(zw[part.chain_source - 1].sum()), int((~zr[i_f0]).sum())


class TestStackedBoundCounts:
    STRATEGIES = (Strategy.UNIFORM, Strategy.PREFIX, Strategy.BERNOULLI)

    @pytest.mark.parametrize("cfg", [
        CodeConfig(n=1, beta=0.3, rho_w=0.2, rho_r=0.4),
        CodeConfig(n=2, beta=0.3, rho_w=0.2, rho_r=0.4),
        CodeConfig(n=3, beta=0.3, rho_w=0.2, rho_r=0.4),
        CodeConfig(n=5, beta=0.3, rho_w=0.2, rho_r=0.4),
        CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4),
        CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3),  # live chain, |E| = 2
        CodeConfig(n=10, beta=0.26, rho_w=0.2, rho_r=0.4),
    ])
    def test_mixed_strategies_equal_reference_counts(self, cfg):
        part = build_partition(cfg)
        rng = np.random.default_rng(cfg.n)
        actions = [sample_action(cfg.N, cfg.rho_w, cfg.rho_r, self.STRATEGIES[k % 3], rng)
                   for k in range(13)]
        expected = np.array([reference_counts(part, a.write, ~a.read) for a in actions]).T
        np.testing.assert_array_equal(stack_counts(part, actions), expected)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 8), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_property_random_stacks_equal_reference_counts(self, n, rows, seed):
        """Any (rows, N) stacks on any partition, N < 64 included, where
        pack_rows pads each row's word."""
        N = 1 << n
        rng = np.random.default_rng(seed)
        order = rng.permutation(np.arange(1, N + 1))
        pairs = rng.integers(0, N // 2 + 1)
        labels = rng.integers(0, 3, N - 2 * pairs)
        rest = order[2 * pairs:]
        part = IndexPartition(N=N, info=np.sort(rest[labels == 0]),
                              chain_source=np.sort(order[:pairs]),
                              random=np.sort(rest[labels == 1]),
                              frozen=np.sort(rest[labels == 2]),
                              chain_sink=np.sort(order[pairs: 2 * pairs]))
        write, noise = rng.random((2, rows, N)) < rng.random((2, 1, 1))
        expected = np.array([reference_counts(part, w, z)
                             for w, z in zip(write, noise)], dtype=np.intp).reshape(rows, 3)
        np.testing.assert_array_equal(block_bound_counts(part, write, noise), expected.T)

    def test_streams_one_slice_at_a_time(self, monkeypatch):
        """A bounds chunk draws each group of _GROUP_BITS // N trials in one
        sample_action call just before its one realize_packed call, which
        takes both sides' 2 * rows packed words, and every trial's row
        equals the reference counts of its row of the group's masks."""
        cfg = CodeConfig(n=5, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        monkeypatch.setattr(experiments, "_GROUP_BITS", 4 * cfg.N)
        drawn, seen = [], []
        sample, realize = experiments.sample_action, experiments.realize_packed

        def sampling(*args):
            drawn.append(sample(*args))
            return drawn[-1]

        def recording_realize(words, n):
            seen.append((len(words), len(drawn)))
            return realize(words, n)

        monkeypatch.setattr(experiments, "sample_action", sampling)
        monkeypatch.setattr(experiments, "realize_packed", recording_realize)
        rows = experiments._run_chunk(("bounds", cfg, part, Strategy.UNIFORM,
                                       [(t, 40 + t) for t in range(10)]))
        # one realization of 2 * rows words per group, each group drawn just before
        assert seen == [(8, 1), (8, 2), (4, 3)]
        assert [action.write.shape for action in drawn] == [(4, cfg.N), (4, cfg.N), (2, cfg.N)]
        masks = [pair for action in drawn for pair in zip(action.write, action.read)]
        for row, (write, read) in zip(rows, masks, strict=True):
            ir, e, leak = reference_counts(part, write, ~read)
            assert (row.ber_bound, row.leak_bound) == (3 * ir + 2 * e, 3 * leak)

    def test_no_actions(self):
        part = build_partition(CodeConfig(n=4, beta=0.3, rho_w=0.2, rho_r=0.4))
        empty = np.zeros((0, 16), dtype=bool)
        counts = block_bound_counts(part, empty, empty)
        assert len(counts) == 3 and all(c.shape == (0,) for c in counts)

    @pytest.mark.parametrize("n,N", [(4, 32), (4, 8), (7, 256)])
    def test_rejects_masks_of_another_length(self, n, N):
        """Rows of any other length than the partition's N are refused, also
        when they fit one packed word as the partition's rows do."""
        part = build_partition(CodeConfig(n=n, beta=0.3, rho_w=0.2, rho_r=0.4))
        rng = np.random.default_rng(n)
        actions = [sample_action(N, 0.2, 0.4, Strategy.UNIFORM, rng) for _ in range(3)]
        with pytest.raises(ValueError, match=f"\\(rows, {part.N}\\)"):
            stack_counts(part, actions)

    def test_rejects_stacks_that_are_not_one_boolean_shape(self):
        part = build_partition(CodeConfig(n=4, beta=0.3, rho_w=0.2, rho_r=0.4))
        masks = np.zeros((2, 16), dtype=bool)
        for write, noise in ((masks, masks[:1]), (masks[0], masks[0]),
                             (masks.astype(np.uint8), masks), (masks, masks.tolist())):
            with pytest.raises(ValueError, match="boolean stacks of one shape"):
                block_bound_counts(part, write, noise)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_chunk_equals_one_seed_trials(self, strategy):
        cfg = CodeConfig(n=7, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=6)
        part = build_partition(cfg)
        trial_seeds = [(t, 1000 + 7 * t) for t in range(9)]
        chunk = experiments._run_chunk(("bounds", cfg, part, strategy, trial_seeds))
        assert chunk == [bounds_trial(cfg, part, strategy, seed, trial)
                         for trial, seed in trial_seeds]


class TestTrials:
    def test_bounds_trial_row(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        row = bounds_trial(cfg, part, Strategy.UNIFORM, seed=123, trial=9)
        assert row.cell.kind == "bounds" and row.trial == 9 and row.seed == 123
        assert row.bob_bit_errors is None
        action = sample_action(64, 0.2, 0.4, Strategy.UNIFORM, np.random.default_rng(123))
        ir, e, leak = counts_of(part, action)
        assert row.ber_bound == 3 * ir + 2 * e and row.leak_bound == 3 * leak

    def test_bernoulli_mean_matches_profile_expectation(self):
        cfg = CodeConfig(n=3, beta=0.3, rho_w=0.25, rho_r=0.4, blocks=4)
        part = build_partition(cfg)
        profile = np.exp(bec_profile(cfg.rho_w, cfg.n).log_eps)
        ir0 = np.sort(np.concatenate([part.info, part.chain_source, part.random])) - 1
        e0 = part.chain_source - 1
        analytic = cfg.blocks * profile[ir0].sum() + (cfg.blocks - 1) * profile[e0].sum()
        vals = []
        rng = np.random.default_rng(77)
        for _ in range(800):
            action = sample_action(8, cfg.rho_w, cfg.rho_r, Strategy.BERNOULLI, rng)
            ir, e, _ = counts_of(part, action)
            vals.append(cfg.blocks * ir + (cfg.blocks - 1) * e)
        vals = np.array(vals)
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - analytic) <= 3 * stderr + 1e-12

    def test_end_to_end_silent_adversary(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.0, rho_r=0.0, blocks=4)
        part = build_partition(cfg)
        row = end_to_end_trial(cfg, part, Strategy.UNIFORM, seed=5, trial=0)
        assert row.bob_bit_errors == 0 and row.erased_decisions == 0
        assert row.ber_bound == 0.0 and row.leak_bound == 0.0
        # Eve sees nothing, so she coin-flips every message bit
        assert row.message_bits == 4 * 64
        assert 0.35 < row.eve_bit_errors / row.message_bits < 0.65

    def test_end_to_end_deterministic(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        a = end_to_end_trial(cfg, part, Strategy.UNIFORM, seed=99, trial=1)
        b = end_to_end_trial(cfg, part, Strategy.UNIFORM, seed=99, trial=1)
        assert a == b

    def test_zero_bound_implies_zero_bob_errors(self):
        cfg = CodeConfig(n=5, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        part = build_partition(cfg)
        seen_zero = 0
        for seed in range(60):
            row = end_to_end_trial(cfg, part, Strategy.UNIFORM, seed=seed, trial=0)
            if row.ber_bound == 0.0:
                seen_zero += 1
                assert row.bob_bit_errors == 0
        assert seen_zero > 0  # the implication was actually exercised

    def test_bob_errors_only_with_guesses(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.3, rho_r=0.3, blocks=2)
        part = build_partition(cfg)
        for seed in range(30):
            row = end_to_end_trial(cfg, part, Strategy.UNIFORM, seed=seed, trial=0)
            if row.erased_decisions == 0:
                assert row.bob_bit_errors == 0

    def test_prefix_strategy_is_reproducible_without_rng_state(self):
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.25, rho_r=0.25, blocks=2)
        part = build_partition(cfg)
        a = end_to_end_trial(cfg, part, Strategy.PREFIX, seed=4, trial=0)
        b = end_to_end_trial(cfg, part, Strategy.PREFIX, seed=4, trial=0)
        assert a == b


CHUNK_CELLS = (
    CodeConfig(n=6, beta=0.3, rho_w=0.3, rho_r=0.3, blocks=3),  # |B| = 0
    CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3, blocks=3),  # |B| = 3
)


# further live-chain cells; at n=9 a wrong chain bit turns up in Bob's errors
LIVE_CHAIN_CELLS = (
    CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3, blocks=3),  # |B| = 2
    CodeConfig(n=9, beta=0.3, rho_w=0.3, rho_r=0.4, blocks=3),  # |B| = 4
)


@st.composite
def end_to_end_chunks(draw):
    """A trial kind, a cell with or without a live chain, a strategy, 1..5
    (trial, seed) pairs, the cut points of a split of them and a group cap:
    the default, or two trials' rows (two blocks, or two sessions), so that
    a chunk spans several groups and may end in a partial one."""
    kind = draw(st.sampled_from(experiments.KINDS))
    cfg = draw(st.sampled_from(CHUNK_CELLS + LIVE_CHAIN_CELLS))
    strategy = draw(st.sampled_from(list(Strategy)))
    size = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    trials = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size))
    cuts = sorted(draw(st.sets(st.integers(1, size), max_size=size)) | {0, size})
    rows = 1 if kind == "bounds" else cfg.blocks
    group_bits = draw(st.sampled_from([experiments._GROUP_BITS, 2 * rows * cfg.N]))
    return kind, cfg, strategy, list(zip(trials, seeds)), cuts, group_bits


class TestEndToEndChunks:
    PARTITIONS = {cfg: build_partition(cfg) for cfg in CHUNK_CELLS + LIVE_CHAIN_CELLS}

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(end_to_end_chunks())
    @example(("end_to_end", LIVE_CHAIN_CELLS[1], Strategy.UNIFORM,
              [(t, 40 + t) for t in range(5)], [0, 1, 5],
              2 * LIVE_CHAIN_CELLS[1].blocks * LIVE_CHAIN_CELLS[1].N))
    @example(("bounds", CHUNK_CELLS[0], Strategy.UNIFORM, [(t, 40 + t) for t in range(5)],
              [0, 1, 5], 2 * CHUNK_CELLS[0].N))
    def test_property_chunk_equals_splits_and_one_seed_trials(self, case):
        """A chunk's rows do not depend on which trials share it or its
        groups: any split of the chunk, and each trial on its own, give the
        same rows, for both trial kinds, at the default group cap and at two
        trials' rows a group."""
        kind, cfg, strategy, trial_seeds, cuts, group_bits = case
        part = self.PARTITIONS[cfg]
        one_trial = bounds_trial if kind == "bounds" else end_to_end_trial
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_GROUP_BITS", group_bits)
            chunk = experiments._run_chunk((kind, cfg, part, strategy, trial_seeds))
            split = [row for lo, hi in zip(cuts, cuts[1:]) for row in experiments._run_chunk(
                (kind, cfg, part, strategy, trial_seeds[lo:hi]))]
            singles = [one_trial(cfg, part, strategy, seed, trial)
                       for trial, seed in trial_seeds]
        assert chunk == split == singles

    def test_chunk_decodes_in_capped_groups(self, monkeypatch):
        """A 40-trial n=10, T=50 chunk is decoded in groups of whole sessions,
        each no taller than experiments._GROUP_BITS stacked bits: 10 sessions,
        one bound count and one decode call per side and group.  Bob's calls
        hold exactly the group's damaged blocks, those whose bound term ir
        counts a forced guess; Eve's hold exactly its leaking blocks, those
        whose leak term counts a noiseless position.  The rows around a group
        boundary equal the one-seed trials."""
        cfg = CodeConfig(n=10, beta=0.26, rho_w=0.2, rho_r=0.4, blocks=50)
        part = build_partition(cfg)
        assert ChainCodec(part).chain_size == 0  # each side's unit is a block
        calls, irs, leaks = [], [], []
        decode = ChainCodec.sc_decode_block
        bound_counts = experiments.block_bound_counts

        def recording(codec, y, chain, guess_bits=None):
            res = decode(codec, y, chain, guess_bits=guess_bits)
            side = "bob" if guess_bits is None else "eve"
            calls.append((side, len(y), res.erased.any(axis=1)))
            return res

        def recording_counts(partition, write, noise):
            counts = bound_counts(partition, write, noise)
            irs.append(counts[0])  # one call per group, its sessions' blocks' terms
            leaks.append(counts[2])
            return counts

        monkeypatch.setattr(ChainCodec, "sc_decode_block", recording)
        monkeypatch.setattr(experiments, "block_bound_counts", recording_counts)
        trial_seeds = [(t, 500 + t) for t in range(40)]
        chunk = experiments._run_chunk(("end_to_end", cfg, part, Strategy.UNIFORM, trial_seeds))
        sessions = experiments._GROUP_BITS // (cfg.blocks * cfg.N)
        assert sessions == 10
        assert [len(terms) for terms in irs] == [sessions * cfg.blocks] * 4  # 4 groups
        damaged, leaking = ([np.count_nonzero(terms) for terms in per_group]
                            for per_group in (irs, leaks))
        assert [side for side, _, _ in calls] == ["bob", "eve"] * 4
        assert [rows for side, rows, _ in calls if side == "bob"] == damaged
        assert all(forced.all() for side, _, forced in calls if side == "bob")
        assert [rows for side, rows, _ in calls if side == "eve"] == leaking
        for skipped in (damaged, leaking):  # both skips were exercised
            assert 0 < sum(skipped) < 40 * cfg.blocks
        assert all(rows * cfg.N <= experiments._GROUP_BITS for _, rows, _ in calls)
        for trial in (9, 10, 39):
            assert chunk[trial] == end_to_end_trial(cfg, part, Strategy.UNIFORM,
                                                    500 + trial, trial)

    def test_masks_stacked_once_per_group(self, monkeypatch):
        """Each decode group takes its one stacked action's write and read
        equivalent blocks once, S·T rows each, for the bound terms of all its
        blocks: a 4-trial chunk in one group, and the same chunk capped at 3
        sessions a group, so that it spans a full group and a partial one."""
        cfg = CHUNK_CELLS[1]
        stacked = {"write_equivalent_mask": [], "read_equivalent_mask": []}
        for name in stacked:
            def counting(action, name=name, stack=getattr(experiments, name)):
                rows = stack(action)
                stacked[name].append(len(rows))
                return rows
            monkeypatch.setattr(experiments, name, counting)
        trial_seeds = [(t, 70 + t) for t in range(4)]
        task = ("end_to_end", cfg, self.PARTITIONS[cfg], Strategy.UNIFORM, trial_seeds)
        experiments._run_chunk(task)
        assert stacked == {name: [4 * cfg.blocks] for name in stacked}
        for rows in stacked.values():
            rows.clear()
        monkeypatch.setattr(experiments, "_GROUP_BITS", 3 * cfg.blocks * cfg.N)
        experiments._run_chunk(task)
        assert stacked == {name: [3 * cfg.blocks, cfg.blocks] for name in stacked}

    @pytest.mark.parametrize("kind", experiments.KINDS)
    def test_bound_counts_read_the_actions_own_write_mask(self, monkeypatch, kind):
        """Bob's equivalent blocks reach block_bound_counts as the group's
        action's own write mask, not a copy of it, in every group of a chunk
        of either kind."""
        cfg = CHUNK_CELLS[1]
        drawn, seen = [], []
        sample, bound_counts = experiments.sample_action, experiments.block_bound_counts

        def sampling(*args):
            drawn.append(sample(*args))
            return drawn[-1]

        def recording_counts(partition, write, noise):
            seen.append(write)
            return bound_counts(partition, write, noise)

        monkeypatch.setattr(experiments, "sample_action", sampling)
        monkeypatch.setattr(experiments, "block_bound_counts", recording_counts)
        rows = 1 if kind == "bounds" else cfg.blocks
        monkeypatch.setattr(experiments, "_GROUP_BITS", 2 * rows * cfg.N)
        experiments._run_chunk((kind, cfg, self.PARTITIONS[cfg], Strategy.UNIFORM,
                                [(t, 70 + t) for t in range(3)]))
        assert len(seen) == len(drawn) == 2
        assert all(np.shares_memory(write, action.write) for write, action in zip(seen, drawn))

    def test_skipped_blocks_change_no_row(self, monkeypatch):
        """Every trial's erased_decisions is the sum over its blocks of the
        forced guesses its own T actions cause, the decided positions that
        the write realization leaves noisy; a trial with none reports no Bob
        error; and Bob's error count equals a decode of every block of the
        session.  Bob's decode of the blocks (with a live chain, the
        sessions) without a forced guess is skipped, so a wrong count, a lost
        error or a wrong chain bit would show here.  The full observation is
        rebuilt from each session's input rows u and its T rows of the
        group's write masks, since the harness transforms and observes only
        the blocks a side decodes.  Cells with |B| = 0, 3, 2 and 4 under
        every strategy."""
        drawn, sessions = [], []
        sample, session_u = experiments.sample_action, ChainCodec.session_u

        def sampling(*args, **kwargs):
            drawn.append(sample(*args, **kwargs))
            return drawn[-1]

        def drawing_u(codec, messages, preshared, rng):
            u = session_u(codec, messages, preshared, rng)
            sessions.append((codec, np.copy(messages), np.copy(preshared), u.copy()))
            return u

        monkeypatch.setattr(experiments, "sample_action", sampling)
        monkeypatch.setattr(ChainCodec, "session_u", drawing_u)
        clean = 0
        for cfg in CHUNK_CELLS + LIVE_CHAIN_CELLS:
            part = build_partition(cfg)
            decide = np.zeros(cfg.N, dtype=bool)
            decide[np.concatenate([part.info, part.chain_source, part.random]) - 1] = True
            for strategy in Strategy:
                for record in (drawn, sessions):
                    record.clear()
                rows = experiments._run_chunk(
                    ("end_to_end", cfg, part, strategy, [(t, 900 + t) for t in range(15)]))
                writes = np.vstack([action.write for action in drawn])
                forced = np.count_nonzero(realize_profile(writes) & decide, axis=1)
                forced = forced.reshape(len(rows), cfg.blocks).sum(axis=1)
                assert [row.erased_decisions for row in rows] == forced.tolist()
                for row, (codec, msgs, preshared, u), write in zip(
                        rows, sessions, writes.reshape(-1, cfg.blocks, cfg.N), strict=True):
                    obs = apply_write(polar_transform(u), write)
                    decoded = codec.decode_session(obs, preshared)
                    assert row.bob_bit_errors == np.count_nonzero(decoded != msgs)
                    if row.erased_decisions == 0:
                        clean += 1
                        assert row.bob_bit_errors == 0
        assert 0 < clean < 180  # both kinds of trial were seen


def full_decode_trial(cfg, part, strategy, trial, seed):
    """A trial row from a pipeline that decodes every block for both sides:
    encode_session, one session draw of T actions, then decode_session on
    each side's whole observation, from the five streams the harness draws."""
    codec = ChainCodec(part)
    T, N, K = cfg.blocks, cfg.N, codec.message_size
    msg_rng, enc_rng, pre_rng, adv_rng, eve_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
    preshared = codec.preshared_state(pre_rng)
    sent = random_bit_rows(msg_rng, T, K)
    codewords = codec.encode_session(sent, preshared, enc_rng)
    action = sample_action(N, cfg.rho_w, cfg.rho_r, strategy, [adv_rng] * T)
    ir, e, leak = block_bound_counts(part, write_equivalent_mask(action),
                                     read_equivalent_mask(action))
    bob = codec.decode_session(apply_write(codewords, action.write), preshared)
    eve = codec.decode_session(apply_read(codewords, action.read), None,
                               guess_bits=random_bit_rows(eve_rng, T, N))
    return experiments.TrialResult(
        cell=Cell.of("end_to_end", cfg, strategy), trial=trial, seed=seed,
        ber_bound=float(ir.sum() + e[:-1].sum()), leak_bound=float(leak.sum()),
        bob_bit_errors=np.count_nonzero(bob != sent),
        eve_bit_errors=np.count_nonzero(eve != sent),
        message_bits=T * K, erased_decisions=int(ir.sum()))


# the cells at n <= 8 of reference_chunks' grid with a live chain (|B| > 0)
# are rare (9 of 849 feasible), so the draws take one of these half the time:
# the first live chain (|B| = 1), |B| = 2, a live chain with |I| = 0, and an
# n = 9 chain (|B| = 4) where Eve can read an information bit of an earlier
# block of a session whose last block leaks nothing
LIVE_CHAIN_GRID = ((6, 0.28, 0.3, 0.4), (8, 0.35, 0.3, 0.3), (8, 0.22, 0.3, 0.5),
                   (9, 0.3, 0.3, 0.4))
NO_INFO = CodeConfig(n=2, beta=0.45, rho_w=0.2, rho_r=0.4, blocks=4)
# the n = 9 cell's uniform session at seed 24: block 1 leaks, block 2 does not
EARLY_LEAK = CodeConfig(*LIVE_CHAIN_GRID[-1], blocks=2)


def eve_leaks_and_coin_errors(cfg, part, strategy, seed):
    """A session's per-block leak terms, and Eve's bit errors had she
    decoded none of its blocks (her estimate then being her coin flips)."""
    codec = ChainCodec(part)
    msg_rng, _, _, adv_rng, eve_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
    sent = random_bit_rows(msg_rng, cfg.blocks, codec.message_size)
    action = sample_action(cfg.N, cfg.rho_w, cfg.rho_r, strategy, [adv_rng] * cfg.blocks)
    leak = block_bound_counts(part, write_equivalent_mask(action),
                              read_equivalent_mask(action))[2]
    coins = codec.extract_message(random_bit_rows(eve_rng, cfg.blocks, cfg.N))
    return leak.tolist(), np.count_nonzero(coins != sent)


@st.composite
def reference_chunks(draw):
    """A feasible cell at n <= 8 or of LIVE_CHAIN_GRID, T <= 4, a strategy
    and 1..4 (trial, seed) pairs."""
    n, beta, rho_w, rho_r = draw(st.sampled_from(LIVE_CHAIN_GRID) | st.tuples(
        st.integers(1, 8), st.sampled_from([0.2, 0.26, 0.3, 0.35, 0.45]),
        st.sampled_from([0.1, 0.2, 0.3]), st.sampled_from([0.2, 0.3, 0.4, 0.5])))
    cfg = CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=rho_r, blocks=draw(st.integers(1, 4)))
    try:
        part = build_partition(cfg)
    except InfeasibleConstruction:
        assume(False)
    strategy = draw(st.sampled_from(list(Strategy)))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    return cfg, part, strategy, list(enumerate(seeds))


class TestFullDecodeReference:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(reference_chunks())
    @example((NO_INFO, build_partition(NO_INFO), Strategy.UNIFORM, [(0, 1), (1, 2)]))
    @example((EARLY_LEAK, build_partition(EARLY_LEAK), Strategy.UNIFORM, [(0, 24)]))
    def test_property_chunk_equals_full_decode(self, case):
        """Each side decodes only the blocks (with a live chain, the
        sessions) its bound terms leave open, and only those blocks are
        transformed and observed; a chunk's rows still equal, row for row,
        a pipeline that decodes every block for both sides."""
        cfg, part, strategy, trial_seeds = case
        rows = experiments._run_chunk(("end_to_end", cfg, part, strategy, trial_seeds))
        assert rows == [full_decode_trial(cfg, part, strategy, trial, seed)
                        for trial, seed in trial_seeds]

    def test_draws_hold_live_chains_and_empty_information_sets(self):
        """Every LIVE_CHAIN_GRID cell has a live chain, the third with
        |I| = 0 as NO_INFO has; at the first, Eve's uniform reads leak in some
        sessions and in others not, so both of her paths are compared.  In
        EARLY_LEAK's example session only block 1 leaks, and decoding it
        changes Eve's errors, so a rule that picked her live-chain sessions by
        their last block alone would change that row."""
        codecs = [ChainCodec(build_partition(CodeConfig(*cell, blocks=3)))
                  for cell in LIVE_CHAIN_GRID]
        assert all(codec.chain_size for codec in codecs)
        assert codecs[2].message_size == ChainCodec(build_partition(NO_INFO)).message_size == 0
        first = CodeConfig(*LIVE_CHAIN_GRID[0], blocks=3)
        leaks = [full_decode_trial(first, build_partition(first), Strategy.UNIFORM, 0,
                                   seed).leak_bound > 0 for seed in range(1, 9)]
        assert any(leaks) and not all(leaks)
        part = build_partition(EARLY_LEAK)
        leak, coin_errors = eve_leaks_and_coin_errors(EARLY_LEAK, part, Strategy.UNIFORM, 24)
        assert leak[0] > 0 and leak[1] == 0
        assert full_decode_trial(EARLY_LEAK, part, Strategy.UNIFORM, 0,
                                 24).eve_bit_errors != coin_errors


class TestSeeds:
    def test_deterministic_and_distinct(self):
        cell = Cell("bounds", 8, 0.25, 0.2, 0.4, 10, Strategy.UNIFORM.value)
        [s0] = derive_trial_seeds(1, cell, [0])
        assert derive_trial_seeds(1, cell, [0]) == [s0]
        seeds = set(derive_trial_seeds(1, cell, range(100)))
        assert len(seeds) == 100
        [other] = derive_trial_seeds(2, cell, [0])
        assert other != s0

    @pytest.mark.parametrize("base_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1])
    def test_seed_pass_equals_seed_sequence(self, base_seed):
        """One cell's seeds, derived in one pass, equal one SeedSequence per
        trial over the whole key, for every kind and strategy, at base seeds
        of one to three 32-bit words and at the first and last trial."""
        trials = [0, 1, 2**20 - 1]
        for kind in experiments.KINDS:
            for strategy in Strategy:
                cell = Cell(kind, 9, 0.26, 0.2, 0.4, 50, strategy.value)
                key = (base_seed, experiments.KINDS.index(kind), 9, 260_000_000,
                       200_000_000, 400_000_000, 50, list(Strategy).index(strategy))
                expected = [int(np.random.SeedSequence(key + (t,))
                                .generate_state(1, np.uint64)[0]) for t in trials]
                assert derive_trial_seeds(base_seed, cell, trials) == expected
                assert [derive_trial_seeds(base_seed, cell, [t])[0] for t in trials] == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(base_seed=st.integers(2**32, 2**100),
           trials=st.lists(st.integers(0, 2**32 - 1), max_size=4))
    @example(base_seed=2**32, trials=[])
    @example(base_seed=2**64 - 1, trials=[0, 2**32 - 1])
    def test_property_seeds_of_long_base_seeds(self, base_seed, trials):
        """Base seeds of two or more 32-bit words, no trials and the last
        trial index 2^32 - 1 seed as one SeedSequence per trial does."""
        cell = Cell("end_to_end", 12, 0.26, 0.2, 0.4, 50, Strategy.PREFIX.value)
        key = (base_seed, 1, 12, 260_000_000, 200_000_000, 400_000_000, 50,
               list(Strategy).index(Strategy.PREFIX))
        assert derive_trial_seeds(base_seed, cell, trials) == [
            int(np.random.SeedSequence(key + (t,)).generate_state(1, np.uint64)[0])
            for t in trials]

    COLUMNS = 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(words=st.lists(st.one_of(
               st.integers(0, 2**32 - 1),
               st.lists(st.integers(0, 2**32 - 1), min_size=COLUMNS, max_size=COLUMNS)),
               min_size=1, max_size=12),
           n_words=st.integers(1, 4))
    def test_property_seed_mix_equals_seed_sequence(self, words, n_words):
        """The shared SeedSequence mix, over 1 to 12 entropy words each an
        int or a uint32 array, gives every column's
        SeedSequence(words).generate_state(n_words, uint64)."""
        entropy = [w if isinstance(w, int) else np.array(w, dtype=np.uint32) for w in words]
        state = experiments._seed_sequence_state(entropy, n_words)
        assert len(state) == n_words and all(w.dtype == np.uint64 for w in state)
        state = np.broadcast_to(np.stack(state, axis=-1), (self.COLUMNS, n_words))
        for c in range(self.COLUMNS):
            column = [w if isinstance(w, int) else w[c] for w in words]
            np.testing.assert_array_equal(
                state[c], np.random.SeedSequence(column).generate_state(n_words, np.uint64))

    def test_seed_pass_rejects_trials_past_one_word(self):
        cell = Cell("bounds", 8, 0.25, 0.2, 0.4, 10, Strategy.UNIFORM.value)
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="trial indices"):
                experiments.derive_trial_seeds(0, cell, [0, bad])

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(2.0), "3", 2**64])
    def test_seed_pass_rejects_trials_not_integers(self, bad):
        """A float index would truncate ([1.7] seeding as [1]) and an index
        past int64 would overflow its cast, so both fail by name."""
        cell = Cell("bounds", 8, 0.25, 0.2, 0.4, 10, Strategy.UNIFORM.value)
        with pytest.raises(ValueError, match="trial ind"):
            experiments.derive_trial_seeds(0, cell, [0, bad])
        assert derive_trial_seeds(0, cell, np.arange(3)) == derive_trial_seeds(0, cell, range(3))

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(drawn=st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_state_pass_equals_default_rng(self, drawn):
        """Every seed's state words, hashed in one pass, equal its own
        SeedSequence's, and a generator seeded from them starts where
        default_rng(seed) does.  Seeds below 2^32 are one entropy word,
        the others two."""
        seeds = self.EDGE_SEEDS + drawn
        states = experiments._seed_states(seeds)
        assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
        for seed, words in zip(seeds, states, strict=True):
            np.testing.assert_array_equal(
                words, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            rng = np.random.Generator(np.random.PCG64(experiments._preset_seed_type()(words)))
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_state_pass_rejects_seeds_not_64_bit_ints(self, bad):
        with pytest.raises(ValueError, match="seed"):
            experiments._seed_states([0, bad])

    @pytest.mark.parametrize("count", [1, 2, 300, 700])
    def test_bounds_trials_equal_default_rng_loop(self, monkeypatch, count):
        """A chunk of 1 to 700 bounds trials, over groups of 256 at n = 8,
        equals a loop that draws each trial's action from default_rng(seed)."""
        cfg = CodeConfig(n=8, beta=0.26, rho_w=0.2, rho_r=0.4, blocks=7)
        part = build_partition(cfg)
        monkeypatch.setattr(experiments, "_GROUP_BITS", 256 * cfg.N)
        seeds = np.random.default_rng(count).integers(0, 2**64 - 1, count, dtype=np.uint64,
                                                      endpoint=True).tolist()
        seeds[:len(self.EDGE_SEEDS)] = self.EDGE_SEEDS[:count]
        rows = experiments._run_chunk(("bounds", cfg, part, Strategy.UNIFORM,
                                       list(enumerate(seeds))))
        assert len(rows) == count
        for row, seed in zip(rows, seeds, strict=True):
            action = sample_action(cfg.N, cfg.rho_w, cfg.rho_r, Strategy.UNIFORM,
                                   np.random.default_rng(seed))
            ir, e, leak = counts_of(part, action)
            assert (row.seed, row.ber_bound, row.leak_bound) == (seed, 7 * ir + 6 * e, 7 * leak)

    def test_bounds_chunk_builds_no_seed_sequence(self, monkeypatch):
        """A 500-trial bounds chunk hashes its seeds in one pass and builds no
        SeedSequence per trial.  default_rng builds its SeedSequence inside
        numpy, past the module attribute, so both names are counted."""
        built = dict.fromkeys(("SeedSequence", "default_rng"), 0)
        for name in built:
            def counting(*args, name=name, build=getattr(np.random, name), **kwargs):
                built[name] += 1
                return build(*args, **kwargs)
            monkeypatch.setattr(experiments.np.random, name, counting)
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=5)
        trial_seeds = [(t, 3000 + t) for t in range(500)]
        rows = experiments._run_chunk(("bounds", cfg, build_partition(cfg), Strategy.UNIFORM,
                                       trial_seeds))
        assert len(rows) == 500
        assert built == {"SeedSequence": 0, "default_rng": 0}

    def test_cli_import_leaves_numpy_random_unloaded(self):
        """The seed-state type is made on first use: importing numpy.random
        would add about 15 ms to every run's set-up."""
        code = "import sys, awtcpolar.cli; print('numpy.random' in sys.modules)"
        src = str(Path(experiments.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestSweep:
    def _spec(self, **over):
        base = dict(kind="bounds", n_list=(5, 6), beta_list=(0.3,), rho_w=0.2,
                    rho_r=0.4, blocks=3, strategy=Strategy.UNIFORM, trials=6,
                    base_seed=42)
        base.update(over)
        return SweepSpec(**base)

    def test_single_cell_single_trial(self):
        spec = self._spec(n_list=(5,), trials=1)
        result = run_sweep(spec)
        assert len(result.results) == 1
        row = result.results[0]
        cfg = CodeConfig(n=5, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
        expected = bounds_trial(
            cfg, build_partition(cfg), Strategy.UNIFORM,
            seed=derive_trial_seeds(42, Cell.of("bounds", cfg, Strategy.UNIFORM), [0])[0],
            trial=0,
        )
        assert row == expected

    def test_parallel_matches_serial(self):
        spec = self._spec()
        serial = run_sweep(spec, parallelism=1)
        parallel = run_sweep(spec, parallelism=2)
        bufs = []
        for res in (serial, parallel):
            buf = io.StringIO()
            write_trials_csv(res.results, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_end_to_end_parallel_matches_serial(self, monkeypatch):
        """Chunks, and the decode groups inside them, split the trials
        differently at each parallelism; the CSV bytes do not change.  The
        n=8 cell has no chain, the n=10 cell a live one (|B| = 3); a serial
        chunk of 12 sessions at n=10, T=50 takes two decode groups."""
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        spec = self._spec(kind="end_to_end", n_list=(8, 10), beta_list=(0.45,), rho_w=0.1,
                          rho_r=0.3, blocks=50, trials=12, base_seed=8)
        outputs = set()
        for parallelism in (1, 2, 3):
            result = run_sweep(spec, parallelism=parallelism)
            trials, aggregates = io.StringIO(), io.StringIO()
            write_trials_csv(result.results, trials)
            write_aggregates_csv(result.aggregates, aggregates)
            outputs.add((trials.getvalue(), aggregates.getvalue()))
        assert len(outputs) == 1

    def test_serial_cli_run_leaves_process_pool_unloaded(self, tmp_path):
        """The pool and its 32 modules (multiprocessing, socket, logging, ...)
        load only when a sweep runs more than one worker; at the default
        parallelism they would be a seventh of every run's set-up.  The
        parallel run that does load them writes the serial run's bytes."""
        code = f"""
import os, sys
from pathlib import Path
from awtcpolar import cli
runs, loaded = {{}}, {{}}
for parallelism in (1, 2):
    out = Path({str(tmp_path)!r}) / str(parallelism)
    argv = ["simulate", "--n", "6", "--beta", "0.3", "--blocks", "3", "--trials", "2",
            "--seed", "5", "--parallelism", str(parallelism), "--no-plot",
            "--out-dir", str(out)]
    assert cli.main(argv) == 0
    runs[parallelism] = (out / "trials.csv").read_bytes()
    loaded[parallelism] = [name in sys.modules
                           for name in ("concurrent.futures", "multiprocessing")]
    os.cpu_count = lambda: 2  # two workers on any host
print(loaded, runs[1] == runs[2])
"""
        src = str(Path(experiments.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout.splitlines()[-1] == "{1: [False, False], 2: [True, True]} True"

    def test_end_to_end_kind(self):
        spec = self._spec(kind="end_to_end", n_list=(5,), trials=3)
        result = run_sweep(spec)
        assert all(r.cell.kind == "end_to_end" for r in result.results)
        metrics = {a.metric for a in result.aggregates}
        assert {"bob_ber", "eve_ber", "ber_bound", "leak_bound"} <= metrics

    def test_partition_built_once_per_cell(self, monkeypatch):
        built = []

        def counting_build(config):
            built.append((config.n, config.beta))
            return build_partition(config)

        monkeypatch.setattr(experiments, "build_partition", counting_build)
        run_sweep(self._spec(kind="end_to_end", trials=2))
        assert built == [(5, 0.3), (6, 0.3)]

    @pytest.mark.parametrize("parallelism,cpus,trials,expected", [
        (5000, 4, 3, 3),  # capped by the task count
        (3, 2, 8, 2),  # capped by the CPU count
        (2, 4, 8, 2),  # the requested count
        (4, 1, 8, None),  # one worker runs serially, no pool
    ])
    def test_worker_count_clamped(self, monkeypatch, parallelism, cpus, trials, expected):
        pools = []

        def serial_pool(max_workers):
            pools.append(max_workers)
            return SerialPool(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        spec = self._spec(n_list=(5,), trials=trials)
        result = run_sweep(spec, parallelism=parallelism)
        assert pools == ([] if expected is None else [expected])
        assert result == run_sweep(spec, parallelism=1)

    def test_infeasible_cell_recorded_not_fatal(self):
        spec = self._spec(n_list=(5,), beta_list=(0.3, 0.4))
        result = run_sweep(spec)
        assert len(result.infeasible) == 1
        assert result.infeasible[0]["beta"] == 0.4
        assert {r.cell.beta for r in result.results} == {0.3}

    def test_aggregate_statistics(self):
        spec = self._spec(n_list=(5,), trials=8)
        result = run_sweep(spec)
        rows = [a for a in result.aggregates if a.metric == "ber_bound"]
        assert len(rows) == 1
        vals = np.array([r.ber_bound for r in result.results])
        assert rows[0].mean == pytest.approx(vals.mean())
        assert rows[0].stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(8))
        assert rows[0].trials == 8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self._spec(trials=0)
        with pytest.raises(ValueError):
            self._spec(kind="nonsense")
        with pytest.raises(ValueError):
            self._spec(n_list=())
        # every cell is checked, not only the first
        with pytest.raises(ValueError, match="n must be"):
            self._spec(n_list=(6, -1))
        with pytest.raises(ValueError, match="beta must"):
            self._spec(beta_list=(0.2, 0.7))
        # a repeated grid value would run the same seeded trials twice
        with pytest.raises(ValueError, match="n grid repeats"):
            self._spec(n_list=(6, 6))
        with pytest.raises(ValueError, match="beta grid repeats"):
            self._spec(beta_list=(0.3, 0.3))
        # distinct betas that round to the same seed key would share trials
        with pytest.raises(ValueError, match="would share trial seeds"):
            self._spec(beta_list=(0.3, 0.3000000001))

    @pytest.mark.parametrize("field,value", [("n_list", (4.7,)), ("blocks", 2.5),
                                             ("trials", 2.5), ("base_seed", 1.5)])
    def test_rejects_non_integral_fields(self, field, value):
        """A float would truncate (n 4.7 runs n=4, seed 1.5 draws seed 1's
        trials) or reach the CSVs and the decoder as a float."""
        name = "n" if field == "n_list" else field
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            self._spec(**{field: value})

    def test_numpy_integer_fields_pass_as_ints(self):
        spec = self._spec(n_list=(np.int64(5),), blocks=np.int32(3), trials=np.uint8(6),
                          base_seed=np.int64(42))
        assert spec == self._spec(n_list=(5,))
        assert all(type(v) is int for v in (*spec.n_list, spec.trials, spec.base_seed))

    def test_session_size_limit(self):
        """An end-to-end session of more than MAX_SESSION_BITS bits at the
        grid's largest n is refused when the spec is built, before anything
        is allocated; a bounds sweep holds one action per trial and is not."""
        blocks = experiments.MAX_SESSION_BITS >> 16
        self._spec(kind="end_to_end", n_list=(8, 16), blocks=blocks)
        for n_list, T in (((8, 16), blocks + 1), ((16,), 10**7), ((20,), 17)):
            with pytest.raises(ValueError, match="MAX_SESSION_BITS"):
                self._spec(kind="end_to_end", n_list=n_list, blocks=T)
            self._spec(kind="bounds", n_list=n_list, blocks=T)

    def test_trial_count_limit(self):
        """trials x cells over MAX_TRIALS is refused when the spec is built,
        before any seed is derived; the limit itself is accepted."""
        cap = experiments.MAX_TRIALS
        self._spec(n_list=(5, 6), beta_list=(0.2, 0.3), trials=cap // 4)
        for n_list, trials in (((5, 6), cap // 2 + 1), ((5,), cap + 1), ((4,), 10**12)):
            for kind in ("bounds", "end_to_end"):
                with pytest.raises(ValueError, match="MAX_TRIALS"):
                    self._spec(kind=kind, n_list=n_list, trials=trials)


class TestComplementaryReadWrite:
    def test_reader_on_exact_write_complement_stays_consistent(self):
        # not samplable (the fraction constraint forbids rho_w + rho_r = 1)
        # but constructible: Eve reads exactly the positions she left intact
        rng = np.random.default_rng(9)
        cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=4)
        part = build_partition(cfg)
        decisions = len(part.info) + len(part.chain_source) + len(part.random)
        i_f = len(part.info) + len(part.chain_source) + len(part.frozen)
        for _ in range(20):
            write = np.zeros(64, dtype=bool)
            write[rng.permutation(64)[:12]] = True
            action = AdversaryAction(write=write, read=~write)
            ir, e, leak = counts_of(part, action)
            # with S_r = S_w^c both sides see the same realization, so the
            # two bounds count complementary channel sets
            assert 0 <= e <= ir <= decisions
            assert 0 <= leak <= i_f


class TestGoldenTrialCsv:
    def test_single_cell_single_trial_bytes_frozen(self):
        # pins the seed-derivation chain: any change to trial seeding or CSV
        # formatting shows up as a diff against these exact bytes
        spec = SweepSpec(kind="bounds", n_list=(6,), beta_list=(0.3,), rho_w=0.2,
                         rho_r=0.4, blocks=10, strategy=Strategy.UNIFORM, trials=1,
                         base_seed=12345)
        result = run_sweep(spec)
        buf = io.StringIO()
        write_trials_csv(result.results, buf)
        assert buf.getvalue() == (
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,"
            "erased_decisions\r\n"
            "bounds,64,6,0.3,0.2,0.4,10,uniform,0,12991368382244676200,"
            "0.0,0.0,,,,\r\n"
        )

    def test_end_to_end_trial_bytes_frozen(self):
        # pins the end-to-end stream split, Eve's decoder and the error counts;
        # this trial's writes force no guess, so Bob decodes no block
        spec = SweepSpec(kind="end_to_end", n_list=(6,), beta_list=(0.3,), rho_w=0.3,
                         rho_r=0.3, blocks=3, strategy=Strategy.UNIFORM, trials=1,
                         base_seed=3)
        result = run_sweep(spec)
        buf = io.StringIO()
        write_trials_csv(result.results, buf)
        assert buf.getvalue() == (
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,"
            "erased_decisions\r\n"
            "end_to_end,64,6,0.3,0.3,0.3,3,uniform,0,17727436766698190686,"
            "0.0,0.0,0,10,24,0\r\n"
        )

    @pytest.mark.parametrize("strategy, kind, rows", [
        (Strategy.BERNOULLI, "bounds", [
            "bounds,64,6,0.3,0.2,0.4,10,bernoulli,0,6794145248185273929,0.0,0.0,,,,",
            "bounds,64,6,0.3,0.2,0.4,10,bernoulli,1,8541982365252673180,0.0,10.0,,,,",
        ]),
        (Strategy.BERNOULLI, "end_to_end", [
            "end_to_end,64,6,0.3,0.3,0.3,3,bernoulli,0,3376322492991912982,"
            "2.0,0.0,1,13,24,2",
            "end_to_end,64,6,0.3,0.3,0.3,3,bernoulli,1,12901642967798064437,"
            "1.0,5.0,0,16,24,1",
        ]),
        (Strategy.PREFIX, "bounds", [
            "bounds,64,6,0.3,0.2,0.4,10,prefix,0,12306093840587331247,50.0,70.0,,,,",
            "bounds,64,6,0.3,0.2,0.4,10,prefix,1,16381782886511214861,50.0,70.0,,,,",
        ]),
        (Strategy.PREFIX, "end_to_end", [
            "end_to_end,64,6,0.3,0.3,0.3,3,prefix,0,15193605812930814908,"
            "15.0,15.0,2,12,24,15",
            "end_to_end,64,6,0.3,0.3,0.3,3,prefix,1,469125049840394849,"
            "15.0,15.0,2,6,24,15",
        ]),
    ])
    def test_other_strategies_bytes_frozen(self, strategy, kind, rows):
        # pins each sampler's draws: bounds cells as in the uniform bounds
        # case above, end-to-end cells as in the uniform end-to-end case
        rho_w, blocks, base_seed = (0.2, 10, 12345) if kind == "bounds" else (0.3, 3, 3)
        spec = SweepSpec(kind=kind, n_list=(6,), beta_list=(0.3,), rho_w=rho_w,
                         rho_r=0.4 if kind == "bounds" else 0.3, blocks=blocks,
                         strategy=strategy, trials=2, base_seed=base_seed)
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            *rows,
        ]) + "\r\n"

    @pytest.mark.parametrize("strategy, rows", [
        (Strategy.UNIFORM, [
            "end_to_end,1024,10,0.45,0.1,0.3,3,uniform,0,10601355881830110474,"
            "0.0,0.0,0,167,315,0",
            "end_to_end,1024,10,0.45,0.1,0.3,3,uniform,1,10544600363491441194,"
            "0.0,0.0,0,167,315,0",
            "end_to_end,1024,10,0.45,0.1,0.3,3,uniform,2,6062050022270885089,"
            "0.0,0.0,0,151,315,0",
        ]),
        (Strategy.PREFIX, [
            "end_to_end,1024,10,0.45,0.1,0.3,3,prefix,0,311600452708395945,"
            "114.0,252.0,9,128,315,114",
            "end_to_end,1024,10,0.45,0.1,0.3,3,prefix,1,5811087000931136237,"
            "114.0,252.0,6,119,315,114",
            "end_to_end,1024,10,0.45,0.1,0.3,3,prefix,2,65219527623745221,"
            "114.0,252.0,10,117,315,114",
        ]),
    ])
    def test_live_chain_bytes_frozen(self, strategy, rows):
        # |B| = 3 at this cell, so both sides thread the chain from block to
        # block; the prefix rows pin Bob's guesses carried through the chain
        spec = SweepSpec(kind="end_to_end", n_list=(10,), beta_list=(0.45,), rho_w=0.1,
                         rho_r=0.3, blocks=3, strategy=strategy, trials=3, base_seed=11)
        assert ChainCodec(build_partition(next(spec.configs()))).chain_size == 3
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            *rows,
        ]) + "\r\n"

    @pytest.mark.parametrize("strategy, rows", [
        (Strategy.UNIFORM, [
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,0,6973472301746567127,0.0,0.0,0,4,5,0",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,1,8208341833156044171,0.0,2.0,0,2,5,0",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,2,1741412835885037853,0.0,0.0,0,1,5,0",
        ]),
        (Strategy.BERNOULLI, [
            "end_to_end,512,9,0.3,0.3,0.4,5,bernoulli,0,13630092718974567829,"
            "3.0,0.0,1,0,5,3",
            "end_to_end,512,9,0.3,0.3,0.4,5,bernoulli,1,13773745684710505867,"
            "1.0,0.0,0,1,5,1",
            "end_to_end,512,9,0.3,0.3,0.4,5,bernoulli,2,16163938625148213357,"
            "0.0,0.0,0,3,5,0",
        ]),
        (Strategy.PREFIX, [
            "end_to_end,512,9,0.3,0.3,0.4,5,prefix,0,15146872578273835586,"
            "324.0,350.0,0,2,5,320",
            "end_to_end,512,9,0.3,0.3,0.4,5,prefix,1,4829840623438648147,"
            "324.0,350.0,0,2,5,320",
            "end_to_end,512,9,0.3,0.3,0.4,5,prefix,2,14623613672339028089,"
            "324.0,350.0,0,0,5,320",
        ]),
    ])
    def test_damaged_live_chain_bytes_frozen(self, strategy, rows):
        # |B| = 4 and some sessions hold a damaged block, so Bob decodes them
        # with each block's chain taken from its predecessor's decoded u[E]:
        # decoding every block with the pre-shared bits instead turns
        # bernoulli row 1 into Bob errors.  No uniform row holds a damaged
        # block (erased_decisions 0), so Bob decodes no uniform session
        spec = SweepSpec(kind="end_to_end", n_list=(9,), beta_list=(0.3,), rho_w=0.3,
                         rho_r=0.4, blocks=5, strategy=strategy, trials=3, base_seed=13)
        assert ChainCodec(build_partition(next(spec.configs()))).chain_size == 4
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            *rows,
        ]) + "\r\n"

    def test_damaged_uniform_live_chain_bytes_frozen(self):
        # the |B| = 4 cell above at base seed 5: uniform writes force guesses
        # in trials 0 and 2, so Bob decodes those sessions through the chain
        # and the uniform draw's sets show in his error count
        spec = SweepSpec(kind="end_to_end", n_list=(9,), beta_list=(0.3,), rho_w=0.3,
                         rho_r=0.4, blocks=5, strategy=Strategy.UNIFORM, trials=3,
                         base_seed=5)
        assert ChainCodec(build_partition(next(spec.configs()))).chain_size == 4
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,0,4610683011220217894,2.0,0.0,1,3,5,2",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,1,10904536229691649491,0.0,0.0,0,4,5,0",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,2,17472808380654468265,3.0,1.0,0,3,5,2",
        ]) + "\r\n"

    def test_wide_chain_free_bytes_frozen(self):
        # N = 4096 without a chain: Eve decodes through the widest nodes; no
        # write here forces a guess, so Bob decodes no block
        spec = SweepSpec(kind="end_to_end", n_list=(12,), beta_list=(0.26,), rho_w=0.2,
                         rho_r=0.4, blocks=4, strategy=Strategy.UNIFORM, trials=2,
                         base_seed=13)
        assert ChainCodec(build_partition(next(spec.configs()))).chain_size == 0
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            "end_to_end,4096,12,0.26,0.2,0.4,4,uniform,0,17917990950421138390,"
            "0.0,1.0,0,1707,3408,0",
            "end_to_end,4096,12,0.26,0.2,0.4,4,uniform,1,8762620967831483339,"
            "0.0,0.0,0,1744,3408,0",
        ]) + "\r\n"

    def test_wide_damaged_bytes_frozen(self):
        # N = 4096 without a chain, and each trial's writes force one guess,
        # so Bob decodes a damaged block through the widest nodes and the
        # uniform draw's sets show in his error counts
        spec = SweepSpec(kind="end_to_end", n_list=(12,), beta_list=(0.26,), rho_w=0.2,
                         rho_r=0.4, blocks=3, strategy=Strategy.UNIFORM, trials=2,
                         base_seed=9)
        buf = io.StringIO()
        write_trials_csv(run_sweep(spec).results, buf)
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,trial,seed,ber_bound,"
            "leak_bound,bob_bit_errors,eve_bit_errors,message_bits,erased_decisions",
            "end_to_end,4096,12,0.26,0.2,0.4,3,uniform,0,12107039720501303330,"
            "1.0,1.0,14,1258,2556,1",
            "end_to_end,4096,12,0.26,0.2,0.4,3,uniform,1,24725391748399995,"
            "1.0,0.0,15,1284,2556,1",
        ]) + "\r\n"

    def test_aggregates_bytes_frozen(self):
        spec = SweepSpec(kind="end_to_end", n_list=(5, 6), beta_list=(0.3,), rho_w=0.3,
                         rho_r=0.3, blocks=2, strategy=Strategy.UNIFORM, trials=3,
                         base_seed=7)
        result = run_sweep(spec)
        buf = io.StringIO()
        write_aggregates_csv(result.aggregates, buf)
        prefix5 = "end_to_end,32,5,0.3,0.3,0.3,2,uniform,"
        prefix6 = "end_to_end,64,6,0.3,0.3,0.3,2,uniform,"
        assert buf.getvalue() == "\r\n".join([
            "kind,N,n,beta,rho_w,rho_r,T,strategy,metric,mean,stderr,trials",
            prefix5 + "ber_bound,0.0,0.0,3",
            prefix5 + "leak_bound,0.0,0.0,3",
            prefix5 + "bob_ber,0.0,0.0,3",
            prefix5 + "eve_ber,0.5,0.07216878364870323,3",
            prefix5 + "erased_decisions,0.0,0.0,3",
            prefix6 + "ber_bound,0.6666666666666666,0.33333333333333337,3",
            prefix6 + "leak_bound,0.3333333333333333,0.33333333333333337,3",
            prefix6 + "bob_ber,0.125,0.09547032697824667,3",
            prefix6 + "eve_ber,0.5833333333333334,0.04166666666666667,3",
            prefix6 + "erased_decisions,0.6666666666666666,0.33333333333333337,3",
        ]) + "\r\n"


class TestCsvRoundTrip:
    def test_trials(self):
        spec = SweepSpec(kind="end_to_end", n_list=(5,), beta_list=(0.3,), rho_w=0.2,
                         rho_r=0.4, blocks=2, strategy=Strategy.UNIFORM, trials=3,
                         base_seed=7)
        result = run_sweep(spec)
        buf = io.StringIO()
        write_trials_csv(result.results, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert len(rows) == len(result.results)
        for row, r in zip(rows, result.results):
            assert int(row["N"]) == r.cell.N and row["kind"] == r.cell.kind
            assert int(row["trial"]) == r.trial and int(row["seed"]) == r.seed
            assert float(row["ber_bound"]) == r.ber_bound
            assert float(row["leak_bound"]) == r.leak_bound
            assert int(row["bob_bit_errors"]) == r.bob_bit_errors
            assert int(row["eve_bit_errors"]) == r.eve_bit_errors
            assert int(row["message_bits"]) == r.message_bits
            assert int(row["erased_decisions"]) == r.erased_decisions

    def test_aggregates(self):
        spec = SweepSpec(kind="bounds", n_list=(5,), beta_list=(0.3,), rho_w=0.2,
                         rho_r=0.4, blocks=2, strategy=Strategy.UNIFORM, trials=4,
                         base_seed=7)
        result = run_sweep(spec)
        buf = io.StringIO()
        write_aggregates_csv(result.aggregates, buf)
        buf.seek(0)
        back = read_aggregates_csv(buf)
        buf2 = io.StringIO()
        write_aggregates_csv(back, buf2)
        assert buf.getvalue() == buf2.getvalue()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(st.builds(
        AggregateRow,
        cell=st.builds(Cell, kind=st.sampled_from(experiments.KINDS), n=st.integers(0, 20),
                       beta=st.floats(0.0, 0.5), rho_w=st.floats(0.0, 1.0),
                       rho_r=st.floats(0.0, 1.0), T=st.integers(1, 10**6),
                       strategy=st.sampled_from([s.value for s in Strategy])),
        metric=st.sampled_from(["ber_bound", "leak_bound", "bob_ber", "eve_ber",
                                "erased_decisions"]),
        mean=st.floats(allow_nan=False),
        stderr=st.floats(min_value=0.0, allow_nan=False),
        trials=st.integers(0, 10**9),
    ), max_size=5))
    def test_property_aggregates_round_trip(self, rows):
        """Random cells, means and standard errors read back equal, however
        long a float's repr (subnormals, 17 significant digits, infinities)."""
        buf = io.StringIO()
        write_aggregates_csv(rows, buf)
        buf.seek(0)
        assert read_aggregates_csv(buf) == rows
