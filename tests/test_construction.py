"""Partition construction, set algebra and rate accounting tests."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awtcpolar.construction import (
    MAX_N,
    CodeConfig,
    IndexPartition,
    InfeasibleConstruction,
    build_partition,
    partition_to_csv,
    polarized_sets,
    rate_report,
)
from awtcpolar.polar_core import bec_profile, delta_threshold


class TestCodeConfig:
    def test_accepts_valid(self):
        cfg = CodeConfig(n=8, beta=0.25, rho_w=0.2, rho_r=0.4, blocks=50)
        assert cfg.N == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, beta=0.25, rho_w=0.1, rho_r=0.1),
            dict(n=4, beta=0.5, rho_w=0.1, rho_r=0.1),
            dict(n=4, beta=0.0, rho_w=0.1, rho_r=0.1),
            dict(n=4, beta=0.25, rho_w=-0.1, rho_r=0.1),
            dict(n=4, beta=0.25, rho_w=0.6, rho_r=0.5),
            dict(n=4, beta=0.25, rho_w=0.1, rho_r=0.1, blocks=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CodeConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [("n", 3.5), ("n", 4.0), ("blocks", 2.5)])
    def test_rejects_non_integral_fields(self, field, value):
        kwargs = dict(n=4, beta=0.25, rho_w=0.1, rho_r=0.1, blocks=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CodeConfig(**kwargs)

    def test_numpy_integer_fields_pass_as_ints(self):
        cfg = CodeConfig(n=np.int64(4), beta=0.25, rho_w=0.1, rho_r=0.1, blocks=np.uint8(2))
        assert cfg == CodeConfig(n=4, beta=0.25, rho_w=0.1, rho_r=0.1, blocks=2)
        assert type(cfg.n) is int and type(cfg.blocks) is int

    def test_stage_ceiling(self):
        assert CodeConfig(n=MAX_N, beta=0.25, rho_w=0.1, rho_r=0.1).N == 1 << MAX_N
        for n in (MAX_N + 1, 64):
            with pytest.raises(ValueError, match=f"n must be <= {MAX_N}"):
                CodeConfig(n=n, beta=0.25, rho_w=0.1, rho_r=0.1)


class TestPolarizedSets:
    def test_all_zero_profile(self):
        prof = bec_profile(0.0, 3)
        H, L = polarized_sets(prof, math.log(0.01))
        assert len(H) == 0
        np.testing.assert_array_equal(L, np.arange(1, 9))

    def test_all_one_profile(self):
        prof = bec_profile(1.0, 3)
        H, L = polarized_sets(prof, math.log(0.01))
        np.testing.assert_array_equal(H, np.arange(1, 9))
        assert len(L) == 0

    def test_three_stage_profile(self):
        # from the exact n=3 vector only 0.996... >= 0.99 and 0.0039... <= 0.01
        H, L = polarized_sets(bec_profile(0.5, 3), math.log(0.01))
        np.testing.assert_array_equal(H, [1])
        np.testing.assert_array_equal(L, [8])

    def test_disjoint_below_half(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prof = bec_profile(float(rng.uniform(0.05, 0.95)), 6)
            H, L = polarized_sets(prof, math.log(rng.uniform(1e-9, 0.49)))
            assert len(np.intersect1d(H, L)) == 0

    def test_tiny_delta_compared_in_log_domain(self):
        prof = bec_profile(0.2, 12)
        log_delta = delta_threshold(1 << 12, 0.49)  # delta ~ 2^-59
        H, L = polarized_sets(prof, log_delta)
        # the extreme corner entries polarize to exactly 0 and 1 only for rho in {0,1};
        # at rho=0.2 membership must still be decided without underflow artifacts
        assert prof.log_eps[np.asarray(L) - 1].max() <= log_delta
        assert prof.log_one_minus_eps[np.asarray(H) - 1].max() <= log_delta


class TestBuildPartition:
    def test_noiseless_blind_trivial(self):
        part = build_partition(CodeConfig(n=3, beta=0.45, rho_w=0.0, rho_r=0.0))
        np.testing.assert_array_equal(part.info, np.arange(1, 9))
        for name in ("chain_source", "random", "frozen", "chain_sink"):
            assert len(getattr(part, name)) == 0

    def test_golden_regression(self):
        # frozen from this implementation's first run and pinned since
        part = build_partition(CodeConfig(n=10, beta=0.25, rho_w=0.2, rho_r=0.4))
        assert part.sizes == {
            "info": 204, "chain_e": 0, "random": 523, "frozen": 297, "chain_b": 0,
        }
        buf = io.StringIO()
        partition_to_csv(part, buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "94d62eb8034df026bab3ccb18197b8dbc4d08e15240661fc1e329c37e11e5949"

    def test_tiny_block_degenerates_cleanly(self):
        # N=2 cannot polarize; the info set collapses to empty rather than lying
        part = build_partition(CodeConfig(n=1, beta=0.25, rho_w=0.5, rho_r=0.4))
        assert len(part.info) == 0

    def test_infeasible_raises_with_sizes(self):
        with pytest.raises(InfeasibleConstruction) as err:
            build_partition(CodeConfig(n=5, beta=0.4, rho_w=0.2, rho_r=0.4))
        assert err.value.i_size < err.value.b_size

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("beta", [0.2, 0.35])
    @pytest.mark.parametrize("rho_w,rho_r", [(0.1, 0.2), (0.3, 0.3), (0.0, 0.5)])
    def test_partition_covers_everything_once(self, n, beta, rho_w, rho_r):
        try:
            part = build_partition(CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=rho_r))
        except InfeasibleConstruction:
            return
        merged = np.concatenate(
            [part.info, part.chain_source, part.random, part.frozen, part.chain_sink]
        )
        np.testing.assert_array_equal(np.sort(merged), np.arange(1, part.N + 1))
        assert len(part.chain_source) == len(part.chain_sink)

    def test_chain_source_is_most_reliable_of_info(self):
        cfg = CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3)
        part = build_partition(cfg)
        assert len(part.chain_source) == 2
        prof = bec_profile(cfg.rho_w, cfg.n)
        full_i = np.sort(np.concatenate([part.info, part.chain_source]))
        e_worst = prof.log_eps[part.chain_source - 1].max()
        others = np.setdiff1d(full_i, part.chain_source)
        assert (prof.log_eps[others - 1] >= e_worst).all()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(n=st.integers(0, 12), beta=st.floats(0.01, 0.49), rho_w=st.floats(0.0, 0.98),
           share=st.floats(0.0, 1.0))
    @example(n=5, beta=0.4, rho_w=0.2, share=0.4 / 0.79)  # infeasible
    @example(n=8, beta=0.35, rho_w=0.3, share=0.3 / 0.69)  # a live chain
    def test_property_partition_meets_its_definitions(self, n, beta, rho_w, share):
        """With L_w = {i : P_w,i <= delta} and H_r = {i : P_r,i >= 1 - delta}
        (P_w the write profile at rho_w, P_r the read profile at 1 - rho_r,
        delta = 2^(-N^beta)): I = L_w & H_r, R = L_w - H_r, F = H_r - L_w,
        B the rest; E is the |B| most reliable indices of I (smallest P_w,
        ties to the smaller index); the build fails exactly when |I| < |B|."""
        cfg = CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=share * (0.99 - rho_w))
        log_delta = delta_threshold(cfg.N, beta)
        write = bec_profile(cfg.rho_w, n)
        low_w = set((np.flatnonzero(write.log_eps <= log_delta) + 1).tolist())
        high_r = set((np.flatnonzero(
            bec_profile(1.0 - cfg.rho_r, n).log_one_minus_eps <= log_delta) + 1).tolist())
        i_set = low_w & high_r
        b_set = set(range(1, cfg.N + 1)) - low_w - high_r
        try:
            part = build_partition(cfg)
        except InfeasibleConstruction as err:
            assert len(i_set) < len(b_set)
            assert (err.i_size, err.b_size) == (len(i_set), len(b_set))
            return
        assert len(i_set) >= len(b_set)
        e_set = set(part.chain_source.tolist())
        assert set(part.info.tolist()) | e_set == i_set
        assert set(part.random.tolist()) == low_w - high_r
        assert set(part.frozen.tolist()) == high_r - low_w
        assert set(part.chain_sink.tolist()) == b_set
        assert len(e_set) == len(b_set) and e_set <= i_set
        rank = {i: (write.log_eps[i - 1], i) for i in i_set}
        if e_set and i_set - e_set:
            assert max(rank[i] for i in e_set) < min(rank[i] for i in i_set - e_set)

    def test_determinism(self):
        cfg = CodeConfig(n=9, beta=0.3, rho_w=0.2, rho_r=0.4)
        a, b = build_partition(cfg), build_partition(cfg)
        for name in ("info", "chain_source", "random", "frozen", "chain_sink"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        bufs = []
        for part in (a, b):
            buf = io.StringIO()
            partition_to_csv(part, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_secrecy_rate_trend_micro(self):
        # non-decreasing in n up to one 0.005 step (full trend in acceptance)
        rates = []
        for n in range(8, 15):
            cfg = CodeConfig(n=n, beta=0.25, rho_w=0.2, rho_r=0.4)
            rates.append(rate_report(build_partition(cfg), cfg).secrecy_rate)
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.005

    def test_fraction_limits(self):
        prof = bec_profile(0.2, 14)
        H, L = polarized_sets(prof, delta_threshold(1 << 14, 0.2))
        assert abs(len(H) / 2 ** 14 - 0.2) < 0.05
        assert abs(len(L) / 2 ** 14 - 0.8) < 0.05


class TestRateReport:
    def test_division(self):
        part = IndexPartition(
            N=256,
            info=np.arange(1, 103),
            chain_source=np.array([], dtype=np.int64),
            random=np.array([], dtype=np.int64),
            frozen=np.arange(103, 257),
            chain_sink=np.array([], dtype=np.int64),
        )
        cfg = CodeConfig(n=8, beta=0.25, rho_w=0.2, rho_r=0.4)
        rep = rate_report(part, cfg)
        assert rep.secrecy_rate == 0.3984375
        assert rep.secrecy_capacity == pytest.approx(0.4)

    def test_capacity_extremes(self):
        cfg = CodeConfig(n=3, beta=0.25, rho_w=0.0, rho_r=0.0)
        rep = rate_report(build_partition(cfg), cfg)
        assert rep.secrecy_capacity == 1.0
        assert rep.secrecy_rate == 1.0 and rep.gap == 0.0


class TestPartitionValidation:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IndexPartition(
                N=4,
                info=np.array([1, 2]),
                chain_source=np.array([2]),
                random=np.array([3]),
                frozen=np.array([4]),
                chain_sink=np.array([4]),
            )

    def test_rejects_unbalanced_chain(self):
        with pytest.raises(ValueError):
            IndexPartition(
                N=4,
                info=np.array([1]),
                chain_source=np.array([2]),
                random=np.array([3, 4]),
                frozen=np.array([], dtype=np.int64),
                chain_sink=np.array([], dtype=np.int64),
            )


def test_partition_csv_round_trip():
    part = build_partition(CodeConfig(n=8, beta=0.35, rho_w=0.3, rho_r=0.3))
    buf = io.StringIO()
    partition_to_csv(part, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert [int(r["index"]) for r in rows] == list(range(1, 257))
    labels = np.array([r["class"] for r in rows])
    for name, label in (("info", "INFO"), ("chain_source", "CHAIN_E"),
                        ("random", "RANDOM"), ("frozen", "FROZEN"),
                        ("chain_sink", "CHAIN_B")):
        np.testing.assert_array_equal(np.flatnonzero(labels == label) + 1,
                                      getattr(part, name))
