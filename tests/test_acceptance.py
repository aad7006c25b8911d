"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen.  Every tolerance is pinned here; nothing is deferred
to later calibration.  The shared base seed for all Monte Carlo criteria is
0 and was fixed before any results were inspected.
"""

import itertools
import time

import numpy as np
import pytest

import _acceptance_log

from awtcpolar.adversary import Strategy, apply_write, sample_action
from awtcpolar.codec import ChainCodec, polar_transform
from awtcpolar.construction import (
    CodeConfig,
    IndexPartition,
    InfeasibleConstruction,
    build_partition,
    rate_report,
)
from awtcpolar.experiments import SweepSpec, run_sweep, write_trials_csv
from awtcpolar.polar_core import bec_profile, realize_profile

ACCEPTANCE_SEED = 0


def check(num, name, ok, detail=""):
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    _acceptance_log.LINES.append(line)  # replayed by the terminal summary hook
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def all_info_partition(N):
    empty = np.array([], dtype=np.int64)
    return IndexPartition(N=N, info=np.arange(1, N + 1), chain_source=empty,
                          random=empty, frozen=empty, chain_sink=empty)


def test_criterion_01_mean_conservation():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.1, 0.2, 0.4, 0.5, 0.8):
        for stage in (bec_profile(rho, q) for q in range(13)):
            worst = max(worst, abs(float(np.exp(stage.log_eps).mean()) - rho))
    elapsed = time.perf_counter() - t0
    check(1, "stage-wise mean conservation",
          worst <= 1e-9 and elapsed < 10.0,
          f"worst drift {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_count_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    ok = True
    for n in range(3, 15):
        N = 1 << n
        probs = rng.uniform(0.0, 1.0, size=1000)
        for p in probs:
            mask = rng.random(N) < p
            if int(realize_profile(mask).sum()) != int(mask.sum()):
                ok = False
                break
    elapsed = time.perf_counter() - t0
    check(2, "realization count conservation", ok and elapsed < 30.0,
          f"12000 masks up to N=2^14, {elapsed:.1f}s")


def test_criterion_03_bernoulli_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.25, 0.5, 0.75):
        expect = np.zeros(8)
        for bits in itertools.product((0, 1), repeat=8):
            mask = np.array(bits, dtype=bool)
            weight = rho ** mask.sum() * (1 - rho) ** (8 - mask.sum())
            expect += weight * realize_profile(mask)
        profile = np.exp(bec_profile(rho, 3).log_eps)
        worst = max(worst, float(np.abs(expect - profile).max()))
    elapsed = time.perf_counter() - t0
    check(3, "exhaustive independent-adversary oracle",
          worst <= 1e-12 and elapsed < 1.0,
          f"worst entry gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_round_trip():
    t0 = time.perf_counter()
    ok = True
    # exhaustive inputs through encode/decode at every N <= 16: all 2^N
    # inputs as one stack, plus one of them decoded as a single row
    for n in range(1, 5):
        N = 1 << n
        codec = ChainCodec(all_info_partition(N))
        chain = np.array([], dtype=np.uint8)
        u = np.array(list(itertools.product((0, 1), repeat=N)), dtype=np.uint8)
        res = codec.sc_decode_block(polar_transform(u).astype(np.int8), chain)
        spot = u[len(u) // 3]
        one = codec.sc_decode_block(polar_transform(spot).astype(np.int8), chain)
        if (res.erased_decisions or not np.array_equal(res.u, u)
                or one.erased_decisions or not np.array_equal(one.u, spot)):
            ok = False
            break
    # random multi-block sessions with a silent adversary decode exactly
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    sessions = 0
    while sessions < 100:
        n = int(rng.integers(3, 9))
        beta = float(rng.uniform(0.15, 0.45))
        rho_w = float(rng.uniform(0.0, 0.5))
        rho_r = float(rng.uniform(0.0, min(0.5, 0.99 - rho_w)))
        try:
            part = build_partition(CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=rho_r))
        except InfeasibleConstruction:
            continue
        codec = ChainCodec(part)
        preshared = codec.preshared_state(rng)
        msgs = rng.integers(0, 2, (3, codec.message_size), dtype=np.uint8)
        codewords = codec.encode_session(msgs, preshared, rng)
        obs = codewords.astype(np.int8)
        decoded = codec.decode_session(obs, preshared)
        # each block with its true chain bits: no erased decision, and no
        # fixed position reads the other bit
        u = polar_transform(codewords)
        chain = np.vstack([preshared, u[:-1, part.chain_source - 1]])
        res = codec.sc_decode_block(obs, chain)
        if res.erased.any() or not np.array_equal(decoded, msgs) or res.residual.any():
            ok = False
            break
        sessions += 1
    elapsed = time.perf_counter() - t0
    check(4, "erasure-free round trip", ok and elapsed < 30.0,
          f"exhaustive N<=16 plus {sessions} sessions, {elapsed:.1f}s")


def test_criterion_05_decoder_polarization_coincidence():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    pairs = 0
    ok = True
    while pairs < 200:
        n = int(rng.integers(3, 11))
        beta = float(rng.uniform(0.15, 0.45))
        rho_w = float(rng.uniform(0.0, 0.5))
        rho_r = float(rng.uniform(0.0, min(0.5, 0.99 - rho_w)))
        try:
            part = build_partition(CodeConfig(n=n, beta=beta, rho_w=rho_w, rho_r=rho_r))
        except InfeasibleConstruction:
            continue
        codec = ChainCodec(part)
        chain = codec.preshared_state(rng)
        msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
        x, _ = codec.encode_block(msg, chain, rng)
        mask = rng.random(part.N) < float(rng.uniform(0.0, 0.9))
        y = x.astype(np.int8).copy()
        y[mask] = 2
        res = codec.sc_decode_block(y, chain)
        decisions = np.sort(np.concatenate([part.info, part.chain_source, part.random]))
        expected = np.intersect1d(np.flatnonzero(realize_profile(mask)) + 1, decisions)
        if not np.array_equal(np.flatnonzero(res.erased) + 1, expected):
            ok = False
            break
        pairs += 1
    check(5, "forced guesses equal boolean polarization", ok,
          f"{pairs} random (config, mask) pairs up to N=2^10")


def test_criterion_06_secrecy_rate_trend():
    t0 = time.perf_counter()
    rates = {}
    for n in (10, 12, 14, 16):
        cfg = CodeConfig(n=n, beta=0.2, rho_w=0.2, rho_r=0.4)
        rates[n] = rate_report(build_partition(cfg), cfg)["secrecy_rate"]
    elapsed = time.perf_counter() - t0
    increasing = all(rates[b] > rates[a] for a, b in [(10, 12), (12, 14), (14, 16)])
    below_cap = all(r < 0.4 for r in rates.values())
    past_half = rates[16] > 0.2
    check(6, "secrecy rate climbs toward capacity 0.4",
          increasing and below_cap and past_half and elapsed < 120.0,
          "R_s " + " -> ".join(f"{rates[n]:.4f}" for n in (10, 12, 14, 16))
          + f", {elapsed:.1f}s")


def _significant_inversions(rows):
    """Increases along N that exceed twice the combined standard error."""
    rows = sorted(rows, key=lambda r: r.cell.n)
    bumps = []
    for lo, hi in zip(rows, rows[1:]):
        if hi.mean > lo.mean:
            limit = 2.0 * (lo.stderr ** 2 + hi.stderr ** 2) ** 0.5
            if hi.mean - lo.mean > limit:
                bumps.append((lo.cell.n, hi.cell.n, hi.mean - lo.mean, limit))
    return bumps


def test_criterion_07_bound_trends():
    t0 = time.perf_counter()
    spec = SweepSpec(kind="bounds", n_list=(8, 10, 12, 14),
                     beta_list=(0.20, 0.26, 0.32), rho_w=0.2, rho_r=0.4,
                     blocks=300, strategy=Strategy.UNIFORM, trials=200,
                     base_seed=ACCEPTANCE_SEED)
    result = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    ok = not result.infeasible and elapsed < 300.0
    details = []
    for metric in ("ber_bound", "leak_bound"):
        for beta in spec.beta_list:
            rows = [a for a in result.aggregates
                    if a.metric == metric and a.cell.beta == beta]
            bumps = _significant_inversions(rows)
            # a drift counts as an inversion only when it clears the noise
            # floor (two combined standard errors); at most one is tolerated
            if len(bumps) > 1:
                ok = False
                details.append(f"{metric}@beta={beta}: {len(bumps)} significant inversions")
    check(7, "bound values trend to zero with N", ok,
          "; ".join(details) or f"200 trials x 12 cells, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def end_to_end_sweep():
    t0 = time.perf_counter()
    spec = SweepSpec(kind="end_to_end", n_list=(8, 10, 12), beta_list=(0.26,),
                     rho_w=0.2, rho_r=0.4, blocks=50, strategy=Strategy.UNIFORM,
                     trials=20, base_seed=ACCEPTANCE_SEED)
    result = run_sweep(spec)
    return result, time.perf_counter() - t0


def test_criterion_08a_bob_ber_drop(end_to_end_sweep):
    result, elapsed = end_to_end_sweep
    bob = {a.cell.n: a.mean for a in result.aggregates if a.metric == "bob_ber"}
    ratio = bob[8] / bob[12] if bob[12] > 0 else float("inf")
    check("8a", "legitimate BER drops 10x from N=2^8 to N=2^12",
          ratio >= 10.0 and elapsed < 600.0,
          f"bob BER {bob[8]:.5f} -> {bob[12]:.5f}, ratio {ratio:.1f}x, {elapsed:.0f}s"
          + ("" if ratio >= 10.0 else "; known shortfall, see README"))


def test_criterion_08b_eve_ber_band(end_to_end_sweep):
    result, elapsed = end_to_end_sweep
    eve = {a.cell.n: a.mean for a in result.aggregates if a.metric == "eve_ber"}
    ok = all(0.45 <= eve[n] <= 0.55 for n in (8, 10, 12)) and elapsed < 600.0
    check("8b", "eavesdropper BER pinned near one half", ok,
          "eve BER " + ", ".join(f"n{n}:{eve[n]:.4f}" for n in (8, 10, 12)))


def test_criterion_09_parallel_determinism():
    spec = SweepSpec(kind="bounds", n_list=(8, 10), beta_list=(0.26, 0.3),
                     rho_w=0.2, rho_r=0.4, blocks=20, strategy=Strategy.UNIFORM,
                     trials=8, base_seed=ACCEPTANCE_SEED)
    csvs = []
    for parallelism in (1, 8):
        import io

        result = run_sweep(spec, parallelism=parallelism)
        buf = io.StringIO()
        write_trials_csv(result.results, buf)
        csvs.append(buf.getvalue())
    check(9, "sweeps are bit-identical at any parallelism", csvs[0] == csvs[1],
          f"{len(csvs[0].splitlines()) - 1} rows compared")


def test_criterion_10_performance():
    cfg = CodeConfig(n=16, beta=0.25, rho_w=0.2, rho_r=0.4)
    part = build_partition(cfg)
    codec = ChainCodec(part)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    chain = codec.preshared_state(rng)
    msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
    x, _ = codec.encode_block(msg, chain, rng)
    action = sample_action(cfg.N, 0.2, 0.4, Strategy.UNIFORM, rng)
    y = apply_write(x, action.write)

    t0 = time.perf_counter()
    codec.sc_decode_block(y, chain)
    decode_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    bec_profile(0.2, 18)
    profile_s = time.perf_counter() - t0

    check(10, "decode at N=2^16 and profile at n=18 under a second",
          decode_s < 1.0 and profile_s < 1.0,
          f"decode {decode_s * 1000:.0f}ms, profile {profile_s * 1000:.0f}ms")
