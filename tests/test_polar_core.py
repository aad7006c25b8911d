"""Exact-value and property tests for the polarization arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awtcpolar.adversary import AdversaryAction, write_equivalent_mask
from awtcpolar.polar_core import (
    MAX_N,
    NEG_INF,
    PolarizationProfile,
    _log1m_from_log_arr,
    _next_level,
    bec_profile,
    bit_reversal_permutation,
    count_bits,
    delta_threshold,
    pack_rows,
    realize_packed,
    realize_profile,
)

from _stage_loop import stage_loop_realize


def exact_profile(rho: Fraction, n: int):
    """Independent oracle: the erasure recursion in exact rational arithmetic."""
    level = [rho]
    for _ in range(n):
        nxt = []
        for z in level:
            nxt.extend((2 * z - z * z, z * z))
        level = nxt
    return level


def exact_entry(rho: Fraction, n: int, index: int) -> Fraction:
    """Second oracle: closed form from the bits of index-1 (MSB = first step)."""
    z = rho
    for bit in format(index - 1, f"0{n}b"):
        z = z * z if bit == "1" else 2 * z - z * z
    return z


def kernel_pairs(*eps):
    """One polarization step on each eps: [(minus, plus), ...], each leg the
    pair (log eps, log(1-eps))."""
    seeds = [bec_profile(e, 0) for e in eps]
    le, l1m = _next_level(np.concatenate([s.log_eps for s in seeds]),
                          np.concatenate([s.log_one_minus_eps for s in seeds]))
    legs = list(zip(le.tolist(), l1m.tolist()))
    return list(zip(legs[0::2], legs[1::2]))


class TestKernel:
    def test_half_half(self):
        [(minus, plus)] = kernel_pairs(0.5)
        assert math.exp(minus[0]) == pytest.approx(0.75, abs=1e-15)
        assert math.exp(plus[0]) == pytest.approx(0.25, abs=1e-15)

    def test_absorbing_identity(self):
        (minus1, plus1), (minus0, plus0) = kernel_pairs(1.0, 0.0)
        for leg in (minus1, plus1):
            assert leg == (0.0, NEG_INF)
        for leg in (minus0, plus0):
            assert leg == (NEG_INF, 0.0)

    def test_direct_formula(self):
        (minus2, plus2), (minus4, plus4) = kernel_pairs(0.2, 0.4)
        assert math.exp(minus2[0]) == pytest.approx(0.36, abs=1e-15)
        assert math.exp(plus2[0]) == pytest.approx(0.04, abs=1e-15)
        assert math.exp(minus4[0]) == pytest.approx(0.64, abs=1e-15)
        assert math.exp(plus4[0]) == pytest.approx(0.16, abs=1e-15)

    def test_extremes_stay_symbolic(self):
        for minus, plus in kernel_pairs(1.0, 0.0, 0.0, 1.0):
            for log_eps, log_one_minus_eps in (minus, plus):
                assert log_eps in (0.0, NEG_INF)
                assert log_one_minus_eps in (0.0, NEG_INF)

    def test_dominance(self):
        eps = np.random.default_rng(7).random(200)
        for e, (minus, plus) in zip(eps, kernel_pairs(*eps)):
            assert math.exp(plus[0]) <= e + 1e-12
            assert math.exp(minus[0]) >= e - 1e-12


class TestLogProb:
    """The (log eps, log(1-eps)) pair representation of a probability."""

    def test_from_linear_extremes(self):
        # stage 0 seeds the recursion with exact legs, +0.0 and not -0.0
        for rho, legs in ((0.0, (NEG_INF, 0.0)), (1.0, (0.0, NEG_INF))):
            stage0 = bec_profile(rho, 0)
            for got, want in zip((stage0.log_eps[0], stage0.log_one_minus_eps[0]), legs):
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_log1m_from_log(self):
        out = _log1m_from_log_arr(np.array([NEG_INF, 0.0, math.log(0.25), math.log(0.75)]))
        assert out[0] == 0.0
        assert out[1] == NEG_INF
        assert out[2] == pytest.approx(math.log(0.75), abs=1e-15)
        assert out[3] == pytest.approx(math.log(0.25), abs=1e-15)


class TestBecProfile:
    def test_single_stage(self):
        prof = bec_profile(0.5, 1)
        np.testing.assert_allclose(np.exp(prof.log_eps), [0.75, 0.25], atol=1e-15)

    def test_noiseless_fixed_point(self):
        prof = bec_profile(0.0, 10)
        assert np.all(prof.log_eps == NEG_INF)
        assert np.all(prof.log_one_minus_eps == 0.0)

    def test_full_noise_fixed_point(self):
        prof = bec_profile(1.0, 6)
        assert np.all(prof.log_eps == 0.0)

    def test_three_stage_exact_vector(self):
        # brute force via exact rational arithmetic, three stages at rho = 1/2
        expected = [float(v) for v in exact_profile(Fraction(1, 2), 3)]
        assert expected == [
            0.99609375, 0.87890625, 0.80859375, 0.31640625,
            0.68359375, 0.19140625, 0.12109375, 0.00390625,
        ]
        np.testing.assert_allclose(np.exp(bec_profile(0.5, 3).log_eps), expected, atol=1e-15)

    @pytest.mark.parametrize("num,den,n", [(1, 4, 5), (3, 4, 4), (1, 10, 6), (2, 3, 5)])
    def test_matches_rational_oracle(self, num, den, n):
        expected = [float(v) for v in exact_profile(Fraction(num, den), n)]
        got = np.exp(bec_profile(num / den, n).log_eps)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_matches_bitstring_oracle(self):
        rho = Fraction(2, 7)
        prof = bec_profile(float(rho), 6)
        for index in (1, 2, 17, 40, 64):
            assert np.exp(prof.log_eps[index - 1]) == pytest.approx(
                float(exact_entry(rho, 6, index)), rel=1e-12
            )

    def test_stage_mean_conservation(self):
        for rho in (0.2, 0.5, 0.8):
            for stage in (bec_profile(rho, q) for q in range(9)):
                assert np.exp(stage.log_eps).mean() == pytest.approx(rho, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bec_profile(-0.1, 3)
        # unchecked, n = 64 would double both arrays until memory runs out
        for n in (-1, 2.5, MAX_N + 1, 64):
            with pytest.raises(ValueError):
                bec_profile(0.5, n)

    def test_profile_validates_length(self):
        with pytest.raises(ValueError):
            PolarizationProfile(2, 0.5, np.zeros(3), np.zeros(3))


class TestRealizeProfile:
    def test_pair(self):
        np.testing.assert_array_equal(realize_profile([1, 0]), [True, False])

    def test_hand_traced_quad(self):
        np.testing.assert_array_equal(
            realize_profile([1, 0, 0, 0]), [True, False, False, False]
        )

    def test_all_true(self):
        assert realize_profile(np.ones(16, dtype=bool)).all()

    def test_all_false(self):
        assert not realize_profile(np.zeros(16, dtype=bool)).any()

    def test_count_conservation(self):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            N = 1 << n
            for _ in range(20):
                mask = rng.random(N) < rng.random()
                assert realize_profile(mask).sum() == mask.sum()

    def test_single_bit_stays_single(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            N = 1 << int(rng.integers(1, 10))
            mask = np.zeros(N, dtype=bool)
            mask[rng.integers(0, N)] = True
            assert realize_profile(mask).sum() == 1

    def test_accepts_mask_type(self):
        action = AdversaryAction(write=np.array([True, False, False, False]),
                                 read=np.array([False, True, False, False]))
        mask = write_equivalent_mask(action)
        np.testing.assert_array_equal(realize_profile(mask), [True, False, False, False])
        assert mask.tolist() == [True, False, False, False]  # input left untouched

    def test_rejects_bad_length(self):
        for bad in ([1, 0, 1], [], np.zeros((2, 3), dtype=bool)):
            with pytest.raises(ValueError):
                realize_profile(bad)

    def test_rejects_bad_shape(self):
        for bad in (True, np.zeros((2, 2, 4), dtype=bool)):
            with pytest.raises(ValueError, match="stacked"):
                realize_profile(bad)

    def test_empty_stack(self):
        for N in (4, 256):
            out = realize_profile(np.zeros((0, N), dtype=bool))
            assert out.shape == (0, N) and out.dtype == bool

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(n=st.integers(0, 12), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 1.0))
    def test_property_stacked_equals_stage_loop(self, n, rows, seed, density):
        """Sub-word (N < 64), one-word and multi-word blocks alike: the
        stacked result equals row by row, equals the stage loop, and keeps
        each row's count of full-noise entries; the input is left untouched."""
        masks = np.random.default_rng(seed).random((rows, 1 << n)) < density
        before = masks.copy()
        stacked = realize_profile(masks)
        np.testing.assert_array_equal(masks, before)
        assert stacked.shape == masks.shape and stacked.dtype == bool
        for mask, got in zip(masks, stacked):
            np.testing.assert_array_equal(got, realize_profile(mask))
            np.testing.assert_array_equal(got, stage_loop_realize(mask))
        np.testing.assert_array_equal(stacked.sum(axis=1), masks.sum(axis=1))


class TestPackedCore:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(n=st.integers(0, 12), rows=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.0, 1.0))
    def test_property_core_then_reversal_equals_stage_loop(self, n, rows, seed, density):
        """The packed core on natural-order rows leaves decision rev(j) at
        bit j: unpacked and bit-reversed, each row equals the stage loop.  A
        row shorter than a word keeps its zero padding."""
        N = 1 << n
        masks = np.random.default_rng(seed).random((rows, N)) < density
        words = pack_rows(masks)
        assert words.shape == (rows, max(1, N // 64)) and words.dtype == np.uint64
        assert realize_packed(words, n) is words
        bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").view(bool)
        assert not bits[:, N:].any()
        realized = bits[:, :N][:, bit_reversal_permutation(n)]
        for mask, got in zip(masks, realized):
            np.testing.assert_array_equal(got, stage_loop_realize(mask))
        np.testing.assert_array_equal(count_bits(words), masks.sum(axis=1))

    def test_count_bits_counts_every_byte_value(self):
        words = np.arange(256, dtype=np.uint8).reshape(4, 64).view(np.uint64)
        expected = [sum(bin(b).count("1") for b in range(lo, lo + 64))
                    for lo in range(0, 256, 64)]
        assert count_bits(words).tolist() == expected


class TestDeltaThreshold:
    def test_power_of_two_exponent(self):
        assert math.exp(delta_threshold(256, 0.25)) == pytest.approx(0.0625, abs=1e-15)

    def test_small_block(self):
        d = math.exp(delta_threshold(2, 0.25))
        assert d == pytest.approx(2.0 ** -(2.0 ** 0.25), rel=1e-12)

    def test_huge_block_stays_in_log_domain(self):
        d = delta_threshold(2 ** 18, 0.32)
        assert d / math.log(2) == pytest.approx(-(2.0 ** (18 * 0.32)), rel=1e-12)
        assert math.isfinite(d)

    def test_rejects_bad_beta(self):
        for beta in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                delta_threshold(256, beta)
        with pytest.raises(ValueError):
            delta_threshold(255, 0.25)
