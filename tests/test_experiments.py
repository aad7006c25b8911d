"""Bound trials, end-to-end trials and sweep determinism tests."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awtcpolar import experiments
from awtcpolar.adversary import AdversaryAction, Strategy, apply_read, sample_action
from awtcpolar.codec import ChainCodec
from awtcpolar.construction import CodeConfig, IndexPartition, build_partition
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


def counts_of(part, action):
    """Row 0 of block_bound_counts over a one-action stack: (ir, e, leak)."""
    return tuple(int(c[0]) for c in block_bound_counts(part, [action]))


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
        counts = block_bound_counts(part, actions)
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


def reference_counts(part, action):
    """The bound terms of one action from the stage-loop realization,
    summed over each set's index positions."""
    i_full = np.concatenate([part.info, part.chain_source])
    ir0 = np.concatenate([i_full, part.random]) - 1
    i_f0 = np.concatenate([i_full, part.frozen]) - 1
    zw = stage_loop_realize(action.write)
    zr = stage_loop_realize(~action.read)
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
    def test_mixed_strategies_equal_reference_counts(self, monkeypatch, cfg):
        part = build_partition(cfg)
        rng = np.random.default_rng(cfg.n)
        actions = [sample_action(cfg.N, cfg.rho_w, cfg.rho_r, self.STRATEGIES[k % 3], rng)
                   for k in range(13)]
        expected = np.array([reference_counts(part, a) for a in actions]).T
        whole = block_bound_counts(part, actions)
        np.testing.assert_array_equal(np.array(whole), expected)
        # three rows per realization: slice boundaries inside the stack
        monkeypatch.setattr(experiments, "_SLICE_BITS", 3 * cfg.N)
        np.testing.assert_array_equal(np.array(block_bound_counts(part, iter(actions))),
                                      expected)

    def test_streams_one_slice_at_a_time(self, monkeypatch):
        cfg = CodeConfig(n=5, beta=0.3, rho_w=0.2, rho_r=0.4)
        part = build_partition(cfg)
        monkeypatch.setattr(experiments, "_SLICE_BITS", 4 * cfg.N)
        drawn, seen = [], []
        realize = experiments.realize_packed

        def recording_realize(words, n):
            seen.append((len(words), len(drawn)))
            return realize(words, n)

        def actions():
            rng = np.random.default_rng(0)
            for _ in range(10):
                drawn.append(1)
                yield sample_action(cfg.N, cfg.rho_w, cfg.rho_r, Strategy.UNIFORM, rng)

        monkeypatch.setattr(experiments, "realize_packed", recording_realize)
        counts = block_bound_counts(part, actions())
        assert [len(c) for c in counts] == [10, 10, 10]
        # write and read realizations per slice, each slice drawn just before
        assert seen == [(4, 4), (4, 4), (4, 8), (4, 8), (2, 10), (2, 10)]

    def test_no_actions(self):
        part = build_partition(CodeConfig(n=4, beta=0.3, rho_w=0.2, rho_r=0.4))
        counts = block_bound_counts(part, [])
        assert len(counts) == 3 and all(c.shape == (0,) for c in counts)

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
    """A cell with or without a live chain, a strategy, 1..5 (trial, seed)
    pairs and the cut points of a split of them."""
    cfg = draw(st.sampled_from(CHUNK_CELLS))
    strategy = draw(st.sampled_from(list(Strategy)))
    size = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    trials = draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size))
    cuts = sorted(draw(st.sets(st.integers(1, size), max_size=size)) | {0, size})
    return cfg, strategy, list(zip(trials, seeds)), cuts


class TestEndToEndChunks:
    PARTITIONS = {cfg: build_partition(cfg) for cfg in CHUNK_CELLS}

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(end_to_end_chunks())
    def test_property_chunk_equals_splits_and_one_seed_trials(self, case):
        """A chunk's rows do not depend on which trials share it: any split
        of the chunk, and each trial on its own, give the same rows."""
        cfg, strategy, trial_seeds, cuts = case
        part = self.PARTITIONS[cfg]
        chunk = experiments._run_chunk(("end_to_end", cfg, part, strategy, trial_seeds))
        split = [row for lo, hi in zip(cuts, cuts[1:]) for row in experiments._run_chunk(
            ("end_to_end", cfg, part, strategy, trial_seeds[lo:hi]))]
        assert chunk == split == [end_to_end_trial(cfg, part, strategy, seed, trial)
                                  for trial, seed in trial_seeds]

    def test_chunk_decodes_in_capped_groups(self, monkeypatch):
        """A 40-trial n=10, T=50 chunk is decoded in groups of whole sessions,
        each no taller than experiments._GROUP_BITS stacked bits: 10 sessions,
        one call per side and group.  Eve's calls hold all 500 blocks of their
        group; Bob's hold exactly its damaged blocks, those whose bound term
        ir counts a forced guess.  The rows around a group boundary equal the
        one-seed trials."""
        cfg = CodeConfig(n=10, beta=0.26, rho_w=0.2, rho_r=0.4, blocks=50)
        part = build_partition(cfg)
        assert ChainCodec(part).chain_size == 0  # Bob's unit is a block
        calls, irs = [], []
        decode = ChainCodec.sc_decode_block
        bound_counts = experiments.block_bound_counts

        def recording(codec, y, chain, guess_bits=None):
            res = decode(codec, y, chain, guess_bits=guess_bits)
            side = "bob" if guess_bits is None else "eve"
            calls.append((side, len(y), res.erased.any(axis=1)))
            return res

        def recording_counts(partition, actions):
            counts = bound_counts(partition, actions)
            irs.append(counts[0])  # one call per trial, its T blocks' terms
            return counts

        monkeypatch.setattr(ChainCodec, "sc_decode_block", recording)
        monkeypatch.setattr(experiments, "block_bound_counts", recording_counts)
        trial_seeds = [(t, 500 + t) for t in range(40)]
        chunk = experiments._run_chunk(("end_to_end", cfg, part, Strategy.UNIFORM, trial_seeds))
        sessions = experiments._GROUP_BITS // (cfg.blocks * cfg.N)
        assert sessions == 10 and len(irs) == 40
        damaged = [sum(np.count_nonzero(ir) for ir in irs[lo: lo + sessions])
                   for lo in range(0, 40, sessions)]
        assert [side for side, _, _ in calls] == ["bob", "eve"] * 4  # 4 groups
        assert [rows for side, rows, _ in calls if side == "bob"] == damaged
        assert all(forced.all() for side, _, forced in calls if side == "bob")
        assert [rows for side, rows, _ in calls if side == "eve"] == [sessions * cfg.blocks] * 4
        assert 0 < sum(damaged) < 40 * cfg.blocks  # the skip was exercised
        assert all(rows * cfg.N <= experiments._GROUP_BITS for _, rows, _ in calls)
        for trial in (9, 10, 39):
            assert chunk[trial] == end_to_end_trial(cfg, part, Strategy.UNIFORM,
                                                    500 + trial, trial)

    def test_skipped_blocks_change_no_row(self, monkeypatch):
        """Every trial's erased_decisions is the sum over its blocks of the
        forced guesses its own T actions cause, the decided positions that
        the write realization leaves noisy; a trial with none reports no Bob
        error; and Bob's error count equals a decode of every block of the
        session.  Bob's decode of the blocks (with a live chain, the
        sessions) without a forced guess is skipped, so a wrong count, a lost
        error or a wrong chain bit would show here.  Cells with |B| = 0, 3,
        2 and 4 under every strategy."""
        drawn, sessions, observed = [], [], []
        sample, encode = experiments.sample_action, ChainCodec.encode_session
        write = experiments.apply_write

        def sampling(*args, **kwargs):
            drawn.append(sample(*args, **kwargs))
            return drawn[-1]

        def encoding(codec, messages, preshared, rng):
            sessions.append((codec, np.copy(messages), np.copy(preshared)))
            return encode(codec, messages, preshared, rng)

        def writing(x, mask):
            observed.append(write(x, mask))
            return observed[-1]

        monkeypatch.setattr(experiments, "sample_action", sampling)
        monkeypatch.setattr(ChainCodec, "encode_session", encoding)
        monkeypatch.setattr(experiments, "apply_write", writing)
        clean = 0
        for cfg in CHUNK_CELLS + LIVE_CHAIN_CELLS:
            part = build_partition(cfg)
            decide = np.zeros(cfg.N, dtype=bool)
            decide[np.concatenate([part.info, part.chain_source, part.random]) - 1] = True
            for strategy in Strategy:
                for record in (drawn, sessions, observed):
                    record.clear()
                rows = experiments._run_chunk(
                    ("end_to_end", cfg, part, strategy, [(t, 900 + t) for t in range(15)]))
                writes = np.array([action.write for action in drawn])
                forced = np.count_nonzero(realize_profile(writes) & decide, axis=1)
                forced = forced.reshape(len(rows), cfg.blocks).sum(axis=1)
                assert [row.erased_decisions for row in rows] == forced.tolist()
                for row, (codec, msgs, preshared), obs in zip(rows, sessions, observed,
                                                             strict=True):
                    decoded, _ = codec.decode_session(obs, preshared)
                    assert row.bob_bit_errors == np.count_nonzero(decoded != msgs)
                    if row.erased_decisions == 0:
                        clean += 1
                        assert row.bob_bit_errors == 0
        assert 0 < clean < 180  # both kinds of trial were seen


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

    def test_seed_pass_rejects_trials_past_one_word(self):
        cell = Cell("bounds", 8, 0.25, 0.2, 0.4, 10, Strategy.UNIFORM.value)
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="trial indices"):
                experiments.derive_trial_seeds(0, cell, [0, bad])


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

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
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
            "20.0,0.0,,,,\r\n"
        )

    def test_end_to_end_trial_bytes_frozen(self):
        # pins the end-to-end stream split, both decoders and the error counts
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
            "1.0,0.0,3,10,24,1\r\n"
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
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,1,8208341833156044171,1.0,1.0,0,2,5,1",
            "end_to_end,512,9,0.3,0.3,0.4,5,uniform,2,1741412835885037853,2.0,2.0,0,1,5,2",
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
        # decoding every block with the pre-shared bits instead turns the
        # uniform rows 1, 2 and bernoulli row 1 into Bob errors
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

    def test_wide_chain_free_bytes_frozen(self):
        # N = 4096 without a chain: both sides decode through the widest nodes
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
            "1.0,1.0,131,1707,3408,1",
            "end_to_end,4096,12,0.26,0.2,0.4,4,uniform,1,8762620967831483339,"
            "0.0,0.0,0,1744,3408,0",
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
            prefix5 + "ber_bound,0.6666666666666666,0.33333333333333337,3",
            prefix5 + "leak_bound,0.0,0.0,3",
            prefix5 + "bob_ber,0.125,0.07216878364870323,3",
            prefix5 + "eve_ber,0.5,0.07216878364870323,3",
            prefix5 + "erased_decisions,0.6666666666666666,0.33333333333333337,3",
            prefix6 + "ber_bound,1.0,0.5773502691896258,3",
            prefix6 + "leak_bound,0.3333333333333333,0.33333333333333337,3",
            prefix6 + "bob_ber,0.08333333333333333,0.055119818980512304,3",
            prefix6 + "eve_ber,0.5833333333333334,0.04166666666666667,3",
            prefix6 + "erased_decisions,1.0,0.5773502691896258,3",
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
