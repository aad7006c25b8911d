"""Adversary sampling and observation-channel tests."""

import numpy as np
import pytest

from awtcpolar.adversary import (
    AdversaryAction,
    Strategy,
    apply_read,
    apply_write,
    read_equivalent_mask,
    sample_action,
    write_equivalent_mask,
)

from _trits import trits_to_str


class TestSampling:
    def test_uniform_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            action = sample_action(4, 0.5, 0.25, Strategy.UNIFORM, rng)
            assert len(action.write_set) == 2
            assert len(action.read_set) == 1

    def test_zero_fraction_empty(self):
        rng = np.random.default_rng(1)
        for strategy in Strategy:
            action = sample_action(8, 0.0, 0.5, strategy, rng)
            assert len(action.write_set) == 0

    def test_prefix_deterministic(self):
        rng = np.random.default_rng(2)
        action = sample_action(8, 0.25, 1 / 8, Strategy.PREFIX, rng)
        np.testing.assert_array_equal(action.write_set, [1, 2])
        np.testing.assert_array_equal(action.read_set, [1])

    def test_floor_sizing(self):
        rng = np.random.default_rng(3)
        action = sample_action(10, 0.35, 0.19, Strategy.UNIFORM, rng)
        assert len(action.write_set) == 3  # floor(3.5)
        assert len(action.read_set) == 1  # floor(1.9)

    def test_sets_sorted_unique_in_range(self):
        rng = np.random.default_rng(4)
        for strategy in (Strategy.UNIFORM, Strategy.BERNOULLI):
            for _ in range(20):
                action = sample_action(64, 0.3, 0.4, strategy, rng)
                for s in (action.write_set, action.read_set):
                    assert np.array_equal(np.unique(s), s)
                    if len(s):
                        assert 1 <= s.min() and s.max() <= 64

    def test_rejects_bad_fractions(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_action(8, 0.6, 0.5, Strategy.UNIFORM, rng)
        with pytest.raises(ValueError):
            sample_action(8, -0.1, 0.2, Strategy.UNIFORM, rng)

    def test_strategy_parse(self):
        assert Strategy.parse("Uniform") is Strategy.UNIFORM
        with pytest.raises(ValueError):
            Strategy.parse("sneaky")

    def test_uniform_inclusion_is_flat(self):
        # chi-squared sanity check of per-index inclusion counts
        rng = np.random.default_rng(6)
        N, draws = 64, 10_000
        counts = np.zeros(N)
        for _ in range(draws):
            action = sample_action(N, 0.25, 0.0, Strategy.UNIFORM, rng)
            counts[action.write_set - 1] += 1
        expected = draws * 16 / N
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 110  # ~99.9th percentile of chi2 with 63 dof


class TestObservations:
    def test_write_nothing(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(apply_write(x, []), x)

    def test_write_everything(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_write(x, [1, 2, 3, 4])) == "????"

    def test_write_pattern(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_write(x, [2, 3])) == "1??0"

    def test_read_everything(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(apply_read(x, [1, 2, 3, 4]), x)

    def test_read_nothing(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_read(x, [])) == "????"

    def test_read_pattern(self):
        x = np.array([1, 0, 1, 0], dtype=np.int8)
        assert trits_to_str(apply_read(x, [1, 4])) == "1??0"

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            N = 16
            x = rng.integers(0, 2, N).astype(np.int8)
            subset = np.sort(rng.permutation(N)[:5]) + 1
            perm = rng.permutation(N)
            inv = np.empty(N, dtype=np.int64)
            inv[perm] = np.arange(N)
            permuted_set = np.sort(inv[subset - 1] + 1)
            for apply_fn in (apply_write, apply_read):
                direct = apply_fn(x, subset)[perm]
                via_perm = apply_fn(x[perm], permuted_set)
                np.testing.assert_array_equal(direct, via_perm)


class TestEquivalentMasks:
    def test_write_mask_marks_written(self):
        action = AdversaryAction(N=8, write_set=np.array([2, 5]), read_set=np.array([1]))
        mask = write_equivalent_mask(action)
        np.testing.assert_array_equal(
            mask, [False, True, False, False, True, False, False, False]
        )

    def test_read_mask_marks_unread(self):
        action = AdversaryAction(N=4, write_set=np.array([], dtype=np.int64),
                                 read_set=np.array([1, 4]))
        mask = read_equivalent_mask(action)
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_mask_popcounts(self):
        rng = np.random.default_rng(8)
        action = sample_action(64, 0.25, 0.25, Strategy.UNIFORM, rng)
        assert write_equivalent_mask(action).sum() == len(action.write_set)
        assert read_equivalent_mask(action).sum() == 64 - len(action.read_set)

    def test_stacked_masks_are_one_row_per_action(self):
        rng = np.random.default_rng(3)
        actions = [sample_action(16, 0.25, 0.25, s, rng)
                   for s in (Strategy.UNIFORM, Strategy.BERNOULLI, Strategy.PREFIX)]
        for helper in (write_equivalent_mask, read_equivalent_mask):
            stacked = helper(actions)
            assert stacked.shape == (3, 16) and stacked.dtype == bool
            for action, row in zip(actions, stacked):
                np.testing.assert_array_equal(row, helper(action))

    def test_stacked_masks_reject_empty_and_mixed_lengths(self):
        small = AdversaryAction(N=4, write_set=np.array([1]), read_set=np.array([2]))
        large = AdversaryAction(N=8, write_set=np.array([1]), read_set=np.array([2]))
        for helper in (write_equivalent_mask, read_equivalent_mask):
            with pytest.raises(ValueError, match="at least one action"):
                helper([])
            with pytest.raises(ValueError, match="one block length"):
                helper([small, large])

    def test_action_validates_range(self):
        with pytest.raises(ValueError):
            AdversaryAction(N=4, write_set=np.array([5]), read_set=np.array([1]))
