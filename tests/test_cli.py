"""CLI surface tests: files, exit codes, determinism and chart rendering."""

import concurrent.futures
import csv
import hashlib
import importlib.util
import json
import math
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from _serial_pool import SerialPool
from awtcpolar import cli, experiments
from awtcpolar.adversary import Strategy
from awtcpolar.cli import main
from awtcpolar.construction import MAX_N, build_partition
from awtcpolar.experiments import MAX_SESSION_BITS, MAX_TRIALS, read_aggregates_csv
from awtcpolar.svgplot import render_line_chart

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(*argv):
    return main([str(a) for a in argv])


class Hung(Exception):
    """A call outlived its time limit (no OSError, which main maps to exit 1)."""


@contextmanager
def time_limit(seconds: float):
    """Interrupt the body with Hung after seconds, through SIGALRM."""
    def expire(signum, frame):
        raise Hung(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


AGG_HEADER = ["kind", "N", "n", "beta", "rho_w", "rho_r", "T", "strategy", "metric", "mean",
              "stderr", "trials"]


# a field written one character past the csv module's field size limit (a
# marker, so that a failing example's repr stays short)
PAST_LIMIT = "<past the csv field size limit>"


def write_aggregates(path, rows, header=AGG_HEADER) -> None:
    """An aggregate CSV of header and rows, each row a list of fields."""
    huge = "u" * (csv.field_size_limit() + 1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [header, *([huge if f == PAST_LIMIT else f for f in row] for row in rows)])


def aggregate_row(n, metric, mean) -> list:
    return ["end_to_end", 32, n, 0.3, 0.2, 0.4, 2, "uniform", metric, mean, 0.0, 2]


# a value each parameter's flag can produce, none of them its default
FLAG_VALUES = {
    "n": 6, "beta": 0.3, "rho_w": 0.1, "rho_r": 0.3, "blocks": 2, "out_dir": "run",
    "n_list": [5, 6], "beta_list": [0.3, 0.35], "trials": 2, "seed": 4,
    "strategy": "bernoulli", "plot": False, "parallelism": 2,
}


def as_flags(config):
    argv = []
    for key, value in config.items():
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            argv += [f"--{flag}", ",".join(map(str, value)) if isinstance(value, list) else value]
    return argv


class TestConstruct:
    def test_writes_report_and_partition(self, tmp_path, capsys):
        code = run("construct", "--n", 10, "--beta", 0.25, "--rho-w", 0.2,
                   "--rho-r", 0.4, "--out-dir", tmp_path)
        assert code == 0
        captured = capsys.readouterr().out
        assert "0.400000" in captured  # capacity at the tested fractions
        assert (tmp_path / "partition.csv").exists()
        report = (tmp_path / "rate_report.csv").read_text().splitlines()
        header = report[0].split(",")
        values = dict(zip(header, report[1].split(",")))
        assert values["secrecy_capacity"] == "0.4"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "construct"
        assert manifest["parameters"]["n"] == 10

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("construct", "--n", 8, "--beta", 0.3, "--rho-w", 0.2,
                       "--rho-r", 0.4, "--out-dir", out) == 0
        for name in ("partition.csv", "rate_report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    RATE_HEADER = "secrecy_rate,secrecy_capacity,gap,N,info,chain_e,random,frozen,chain_b\n"

    @pytest.mark.parametrize("cell,partition_sha256,rate_row", [
        ((10, 0.25, 0.2, 0.4),
         "94d62eb8034df026bab3ccb18197b8dbc4d08e15240661fc1e329c37e11e5949",
         "0.19921875,0.4,0.20078125000000002,1024,204,0,523,297,0"),
        # the capacity's repr carries float rounding: 1 - 0.1 - 0.3
        ((7, 0.3, 0.1, 0.3),
         "17ebda4e6ae5e388ccdd9c1ec260fddf0fffe977786d6ddd9e120037ae39a8ca",
         "0.3671875,0.6000000000000001,0.2328125000000001,128,47,0,57,24,0"),
        # a live chain, |E| = |B| = 4
        ((9, 0.3, 0.3, 0.4),
         "addb95dd71d19b5d23a15b6eeed373c53fb8181caea03dfb44f34c65cb8e5f83",
         "0.001953125,0.29999999999999993,0.29804687499999993,512,1,4,279,224,4"),
    ])
    def test_output_bytes_frozen(self, tmp_path, cell, partition_sha256, rate_row):
        n, beta, rho_w, rho_r = cell
        assert run("construct", "--n", n, "--beta", beta, "--rho-w", rho_w,
                   "--rho-r", rho_r, "--out-dir", tmp_path) == 0
        digest = hashlib.sha256((tmp_path / "partition.csv").read_bytes()).hexdigest()
        assert digest == partition_sha256
        assert (tmp_path / "rate_report.csv").read_bytes() == \
            (self.RATE_HEADER + rate_row + "\n").encode()

    def test_validation_error_exits_one(self, tmp_path, capsys):
        code = run("construct", "--n", 8, "--rho-w", 0.6, "--rho-r", 0.5,
                   "--out-dir", tmp_path)
        assert code == 1
        assert "rho_w + rho_r" in capsys.readouterr().err

    def test_missing_n_exits_one(self, tmp_path):
        assert run("construct", "--out-dir", tmp_path) == 1

    def test_infeasible_exits_two(self, tmp_path, capsys):
        code = run("construct", "--n", 5, "--beta", 0.4, "--rho-w", 0.2,
                   "--rho-r", 0.4, "--out-dir", tmp_path)
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run("construct", "--frobnicate") == 1


@pytest.mark.parametrize("argv", [
    ["construct", "--n", 64],
    ["bounds", "--n-list", "8,40", "--trials", 2],
    ["simulate", "--n", MAX_N + 1, "--trials", 2],
])
def test_oversized_n_exits_one_before_building(tmp_path, monkeypatch, capsys, argv):
    def refuse(config):
        raise AssertionError(f"built a partition at n={config.n}")

    monkeypatch.setattr(cli, "build_partition", refuse)
    monkeypatch.setattr(experiments, "build_partition", refuse)
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"n must be <= {MAX_N}" in err
    assert not (tmp_path / "out").exists()


def test_oversized_session_exits_one_before_building(tmp_path, monkeypatch, capsys):
    """n=16, T=10^7 asks for a 655 Gbit session, far over
    experiments.MAX_SESSION_BITS: exit 1 before any cell is built."""
    def refuse(config):
        raise AssertionError(f"built a partition at n={config.n}")

    monkeypatch.setattr(experiments, "build_partition", refuse)
    assert run("simulate", "--n", 16, "--blocks", 10**7, "--trials", 1,
               "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_SESSION_BITS" in err
    assert not (tmp_path / "out").exists()


def test_huge_trial_count_exits_one_before_building(tmp_path, monkeypatch, capsys):
    """bounds --trials 10^12 is far over experiments.MAX_TRIALS: exit 1
    before any cell is built or any seed derived."""
    def refuse(*args):
        raise AssertionError("derived trial seeds or built a partition")

    monkeypatch.setattr(experiments, "build_partition", refuse)
    monkeypatch.setattr(experiments, "derive_trial_seeds", refuse)
    assert run("bounds", "--n", 4, "--trials", 10**12, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_TRIALS" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_one_before_building(tmp_path, monkeypatch, capsys, command,
                                                  source):
    """A negative base seed, which SeedSequence cannot take, is an error: exit
    1 before any cell is built, from the flag or from a config file."""
    def refuse(*args):
        raise AssertionError("built a partition")

    monkeypatch.setattr(experiments, "build_partition", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": -5}))
    seed = ["--seed", -5] if source == "flag" else ["--config", "cfg.json"]
    assert run(command, "--n", 4, "--trials", 1, "--blocks", 2, *seed) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["construct", "bounds", "simulate"])
@pytest.mark.parametrize("param", ["rho_w", "rho_r", "beta"])
def test_nan_fraction_exits_one(tmp_path, capsys, command, param):
    """A NaN fraction, which every range comparison lets through, is an
    error naming the parameter: exit 1 and no output directory."""
    out = tmp_path / "out"
    trials = [] if command == "construct" else ["--trials", 1]
    assert run(command, "--n", 4, "--" + param.replace("_", "-"), "nan", *trials,
               "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and param in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "bounds", "simulate", "plot"])
@pytest.mark.parametrize("under", [False, True])
def test_out_dir_through_a_file_exits_one_before_building(tmp_path, monkeypatch, capsys,
                                                          command, under):
    """An --out-dir that is an existing file, or a path under one, cannot be
    made: exit 1 with an error before any partition is built, and the file
    is left as it was."""
    def refuse(config):
        raise AssertionError(f"built a partition at n={config.n}")

    agg = tmp_path / "agg.csv"
    agg.write_text("kind,N,n,beta,rho_w,rho_r,T,strategy,metric,mean,stderr,trials\n"
                   "bounds,32,5,0.3,0.2,0.4,1,uniform,ber_bound,0.5,0.0,2\n")
    monkeypatch.setattr(cli, "build_partition", refuse)
    monkeypatch.setattr(experiments, "build_partition", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    args = {"construct": ["--n", 4], "bounds": ["--n", 4, "--trials", 1],
            "simulate": ["--n", 4, "--trials", 1], "plot": ["--aggregates", agg]}[command]
    assert run(command, *args, "--out-dir", blocker / "sub" if under else blocker) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "keep"


def test_unwritable_output_exits_one(tmp_path, capsys):
    """An OSError while writing outputs, here a directory where rate_report.csv
    goes, is an error: exit 1, no traceback."""
    (tmp_path / "rate_report.csv").mkdir()
    assert run("construct", "--n", 4, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rate_report.csv" in err


NAN, INF = float("nan"), float("inf")

# Per parameter: its small valid values, its boundary values (0, -1, 2^63,
# NaN, +-inf, an empty or repeated grid, a value past its cap; some of them
# valid) and a value of the wrong JSON type, whose flag text its flag cannot
# parse either (but out_dir's, which any text is).
FUZZ_VALUES = {
    "n": (st.integers(0, 6), [0, -1, 2**63, MAX_N + 1], "six"),
    "beta": (st.sampled_from([0.2, 0.25, 0.3, 0.4, 0.45]), [0, -1, 0.5, NAN, INF, -INF], "x"),
    "rho_w": (st.sampled_from([0.0, 0.1, 0.2, 0.3]), [0, -1, 1, NAN, INF, -INF], "x"),
    "rho_r": (st.sampled_from([0.0, 0.2, 0.4, 0.5]), [0, -1, 1, NAN, INF, -INF], "x"),
    "blocks": (st.integers(1, 4), [0, -1, 2**63, MAX_SESSION_BITS + 1], 2.0),
    "out_dir": (st.sampled_from(["run", "a/b"]), ["", "blocker", "blocker/sub"], 5),
    "n_list": (st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
               [[], [5, 5], [-1], [MAX_N + 1], [2**63]], ["five"]),
    "beta_list": (st.lists(st.sampled_from([0.2, 0.3, 0.4]), min_size=1, max_size=2,
                           unique=True),
                  [[], [0.3, 0.3], [0.3, 0.3000000001], [NAN], [INF]], ["x"]),
    "trials": (st.integers(1, 3), [0, -1, 2**63, MAX_TRIALS + 1], 2.0),
    "seed": (st.integers(0, 2**32), [0, -1, 2**63], "four"),
    "strategy": (st.sampled_from([s.value for s in Strategy]), ["Prefix"], 5),
    "plot": (st.booleans(), [], "no"),
    "parallelism": (st.integers(1, 3), [0, -1, 2**63], 1.5),
}


def flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def flag_arg(key: str, value) -> str:
    flag = "--" + key.replace("_", "-")
    if value is True or value is False:
        return flag if value else "--no-" + flag[2:]
    return f"{flag}={flag_text(value)}"


def parsed_flag(key: str, value):
    """What the flag given flag_arg(key, value) resolves to; None for a text
    it cannot parse, which exits 1 before anything runs."""
    kind = cli._PARAMS[key][0]
    if kind is bool or isinstance(kind, tuple):
        return value if kind is bool else flag_text(value)
    try:
        return kind(flag_text(value))
    except ValueError:
        return None


LAUNCH_DIR = Path.cwd()


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(0)
@given(data=st.data())
def test_fuzz_parameters(tmp_path, monkeypatch, capsys, data):
    """construct, bounds and simulate over draws from the parameter table:
    each parameter omitted, valid, at a boundary or of the wrong JSON type,
    given as a flag, a config key or both (up to two keys invalid at once).
    Every run exits 0, 1 or 2 without a traceback, an exit 1 says why, an
    exit 0's manifest holds the flag > config > default merge, and no
    oversized cell is built nor anything written outside the run's
    directory."""
    command = data.draw(st.sampled_from(["construct", "bounds", "simulate"]))
    params = cli._CODE_PARAMS if command == "construct" else cli._PARAMS
    bad = data.draw(st.sets(st.sampled_from(sorted(params)), max_size=2))
    flags, config = {}, {}
    for key in params:
        valid, boundary, wrong = FUZZ_VALUES[key]
        values = st.sampled_from([*boundary, wrong]) if key in bad else valid
        where = data.draw(st.sampled_from(["omit", "flag", "config", "both"]))
        if where in ("flag", "both"):
            flags[key] = data.draw(values)
        if where in ("config", "both"):
            config[key] = data.draw(values)
    merged = {key: parsed_flag(key, flags[key]) if key in flags
              else config.get(key, params[key][1]) for key in params}

    trials = merged.get("trials", 1)  # a draw, at most 3, or the default, 20

    def small_cells_only(cfg):
        assert cfg.n <= 6 and trials <= 20 and (command != "simulate" or cfg.blocks <= 4), \
            f"built a partition at {cfg} for {trials} trials"
        return build_partition(cfg)

    monkeypatch.setattr(cli, "build_partition", small_cells_only)
    monkeypatch.setattr(experiments, "build_partition", small_cells_only)
    # run_sweep imports the pool at call time, so it reads the patched name
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "blocker").write_text("keep")
    launch_entries = sorted(LAUNCH_DIR.iterdir())
    argv = [command, *(flag_arg(key, value) for key, value in flags.items())]
    if config:
        (work / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]

    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "error:" in err or "usage:" in err
    if code == 0:  # compared as JSON text: a NaN equals itself there, and 0 is no 0.0
        manifest = json.loads((Path(merged["out_dir"]) / "manifest.json").read_text())
        assert json.dumps(manifest["parameters"], sort_keys=True) == \
            json.dumps(merged, sort_keys=True)
    assert (work / "blocker").read_text() == "keep"
    assert sorted(tmp_path.iterdir()) == sorted(tmp_path / str(i) for i in
                                                range(len(list(tmp_path.iterdir()))))
    assert sorted(LAUNCH_DIR.iterdir()) == launch_entries


# aggregate fields as the fuzz draws them: small, huge or negative n; means
# that are BERs or any float (NaN and +-inf included); finite extremes, past
# half the float range, with an ulp of 1 or 2, or subnormal; every metric the
# charts plot, eve_ber's linear axis most often, one they do not and one no
# run writes
FUZZ_N = st.one_of(st.integers(4, 12), st.integers(),
                   st.sampled_from([2**63, 10**17, 10**400, -(10**400)]))
FUZZ_MEAN = st.one_of(st.floats(0, 1), st.floats())
EXTREME_MEANS = st.sampled_from([sys.float_info.max, 1e308, 2.0**53, 1e16, 4e-323, 5e-324])
FUZZ_METRIC = st.sampled_from(["eve_ber"] * 4 + ["ber_bound", "leak_bound", "bob_ber",
                                                 "erased_decisions", "bogus"])
WRONG_HEADERS = [AGG_HEADER[:-1], AGG_HEADER[:-1] + ["count"], AGG_HEADER[1:] + AGG_HEADER[:1]]


@st.composite
def aggregate_files(draw):
    """A header, right or wrong, and 0..4 rows of one of two kinds.  Rows at
    an extreme share one metric and one extreme magnitude of mean, each with
    its own sign and 0..2 ulps toward 0, at small n, so that a chart holds
    several points at that extreme.  Free rows draw each their own n, metric
    and mean, and one of them may be short, long or hold a field past the
    csv module's limit."""
    header = draw(st.sampled_from([AGG_HEADER] * 6 + WRONG_HEADERS))
    extreme = draw(st.booleans())
    metric, magnitude = draw(FUZZ_METRIC), draw(EXTREME_MEANS)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if extreme:
            mean = draw(st.sampled_from([magnitude, -magnitude]))
            for _ in range(draw(st.integers(0, 2))):
                mean = math.nextafter(mean, 0.0)
            rows.append(aggregate_row(draw(st.integers(4, 12)), metric, mean))
        else:
            rows.append(aggregate_row(draw(FUZZ_N), draw(FUZZ_METRIC), draw(FUZZ_MEAN)))
        rows[-1][3] = draw(st.sampled_from([0.2, 0.3]))
    fault = draw(st.sampled_from([None, "short", "long", "huge field"]))
    if rows and fault and not extreme:
        bad = draw(st.sampled_from(rows))
        if fault == "huge field":
            bad[7] = PAST_LIMIT
        else:
            bad[:] = bad[:-2] if fault == "short" else bad + ["7"]
    return header, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@seed(0)
@given(case=aggregate_files())
def test_fuzz_plot(tmp_path, monkeypatch, capsys, case):
    """plot over generated aggregate files: a right or wrong header; valid,
    short or long rows, or a field past the csv limit; finite extremes, NaN
    and infinite means; huge or negative n; no rows; only unknown metrics.
    Every call ends within a second with exit 0 or 1, an exit 1 says why
    without a traceback and writes nothing, and the SVGs land only in the
    run's output directory."""
    header, rows = case
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    monkeypatch.chdir(work)
    write_aggregates(work / "agg.csv", rows, header)
    launch_entries = sorted(LAUNCH_DIR.iterdir())
    with time_limit(1.0):
        code = main(["plot", "--aggregates", "agg.csv", "--out-dir", "charts"])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert "error:" in err
    written = sorted(p.relative_to(work) for p in work.rglob("*") if p.is_file())
    assert all(p == Path("agg.csv") or (code == 0 and p.parent == Path("charts")
                                        and p.suffix == ".svg") for p in written)
    assert len(written) > 1 or code == 1
    assert sorted(LAUNCH_DIR.iterdir()) == launch_entries


class TestGoldenManifest:
    """manifest.json bytes, out_dir masked, frozen for one run of each command."""

    @pytest.mark.parametrize("name,argv", [
        ("construct", ["construct", "--n", 7, "--beta", 0.3, "--rho-w", 0.1,
                       "--rho-r", 0.3, "--blocks", 4]),
        ("bounds_config", ["bounds", "--config", "cfg.json", "--blocks", 5, "--no-plot"]),
        ("simulate", ["simulate", "--n-list", "4,5", "--beta", 0.4, "--blocks", 3,
                      "--trials", 2, "--seed", 7, "--strategy", "prefix", "--no-plot"]),
    ])
    def test_manifest_bytes_frozen(self, tmp_path, monkeypatch, name, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n": 6, "beta": 0.3, "rho_w": 0.1, "trials": 3, "strategy": "bernoulli"}))
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 0
        manifest = (out / "manifest.json").read_text().replace(json.dumps(str(out)), '"OUT"')
        assert manifest == (DATA / f"manifest_{name}.json").read_text()


def load_bench(monkeypatch):
    """perfbench/run.py as a module, with the two benchmark modules it
    imports; none is left in sys.modules or compiled into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("yardstick", "layertrace", "run"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


class TestBenchmarkOutputs:
    """trials.csv of each benchmark workload's command line at --seed 1, the
    exact sweeps a performance change is timed on, frozen."""

    DIGESTS = {
        "sim_uniform": "00a471e19af7dff62a52a5bccba4e34c1c2ead0253e2151e50d64b5c5d9beb8a",
        "sim_prefix": "1efca532592641217bac86b90d1b8fad09beb160dec358e5f9f7ee14a1ae74f6",
        "bounds_grid": "33287f2cfeb835bb39a1205f559e2afe347e3e58eadc62377bd1d4b2395c337d",
    }

    @pytest.mark.parametrize("workload", DIGESTS)
    def test_trials_csv_frozen(self, tmp_path, monkeypatch, workload):
        argv = load_bench(monkeypatch).WORKLOADS[workload].argv(1, tmp_path)
        assert main(argv) == 0
        digest = hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest()
        assert digest == self.DIGESTS[workload]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "beta": 0.3, "rho_w": 0.1, "rho_r": 0.1}))
        code = run("construct", "--config", cfg, "--rho-w", 0.2,
                   "--out-dir", tmp_path / "out")
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["parameters"]["rho_w"] == 0.2  # flag wins
        assert manifest["parameters"]["beta"] == 0.3  # file fills the rest

    def test_successive_calls_resolve_flags_independently(self, tmp_path, monkeypatch):
        """The parser is built once per process, and a flag given in one
        call reverts to its default in the next."""
        monkeypatch.chdir(tmp_path)
        assert cli.build_parser() is cli.build_parser()
        given = {"beta": 0.3, "rho_w": 0.1, "rho_r": 0.3, "blocks": 2}
        assert run("construct", "--n", 6, *as_flags(given), "--out-dir", "first") == 0
        assert run("construct", "--n", 6, "--out-dir", "second") == 0
        for out, expected in (("first", given), ("second", {})):
            parameters = json.loads((tmp_path / out / "manifest.json").read_text())["parameters"]
            assert parameters == {key: expected.get(key, default)
                                  for key, (_, default, _) in cli._CODE_PARAMS.items()
                                  } | {"n": 6, "out_dir": out}

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "bogus": 1}))
        assert run("construct", "--config", cfg, "--out-dir", tmp_path / "out") == 1

    @pytest.mark.parametrize("argv,config", [
        (["bounds", "--n", 5], {"trials": None}),
        (["bounds", "--n", 5], {"trials": [3]}),
        (["bounds", "--n", 5], {"out_dir": None}),
        (["bounds", "--n", 5], {"out_dir": [3]}),
        (["bounds"], {"n_list": 5}),
        (["construct", "--n", 5], {"beta": None}),
        (["construct", "--n", 5], 5),
        (["construct", "--n", 5], "n"),
        (["construct", "--n", 5], ["n"]),
    ])
    def test_wrong_json_type_exits_one(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(*argv, "--config", "cfg.json") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [
        {"plot": "no"},
        {"seed": 1.5},
        {"blocks": True},
        {"parallelism": 1.9},
        {"n_list": [8.9]},
        {"rho_w": False},
        {"beta": "0.3"},
        {"beta_list": ["0.3"]},
        {"strategy": "Prefix"},
        {"strategy": 5},
        {"out_dir": 5},
        {"out_dir": True},
    ])
    def test_keys_reject_values_their_flag_cannot_produce(self, tmp_path, monkeypatch,
                                                          capsys, config):
        """A truthy string does not switch charts on, no number is truncated
        to an integer, no bool or string is read as a number, and a strategy
        or output directory is a string the flag would take, behind the
        manifest's back; the error names the key."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["bounds", "--n", 2, "--trials", 1] if "n_list" not in config else ["bounds"]
        assert run(*argv, "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(next(iter(config))) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["construct", "bounds", "simulate"])
    def test_flags_and_config_keys_agree(self, tmp_path, monkeypatch, capsys, command):
        """A command's config keys are its flags but --config, and a config
        file holding each at a value its flag produces writes the manifest
        those flags write: a flag added outside the parameter table fails."""
        monkeypatch.chdir(tmp_path)
        flags = set(vars(cli.build_parser().parse_args([command]))) - {"command", "config"}
        config = {key: FLAG_VALUES[key] for key in flags}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(command, "--config", "cfg.json") == 0
        from_config = (tmp_path / "run" / "manifest.json").read_text()
        assert json.loads(from_config)["parameters"] == config
        assert run(command, *as_flags(config)) == 0
        assert (tmp_path / "run" / "manifest.json").read_text() == from_config
        for key in {*FLAG_VALUES, "bogus"} - flags:
            (tmp_path / "cfg.json").write_text(json.dumps({key: FLAG_VALUES.get(key, 1)}))
            assert run(command, "--config", "cfg.json") == 1
            assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


class TestSweepCommands:
    def test_bounds_outputs(self, tmp_path):
        code = run("bounds", "--n-list", "5,6", "--beta-list", "0.25,0.3",
                   "--blocks", 10, "--trials", 4, "--seed", 3,
                   "--out-dir", tmp_path)
        assert code == 0
        with open(tmp_path / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert {r["kind"] for r in rows} == {"bounds"}
        with open(tmp_path / "aggregates.csv", newline="") as fh:
            aggs = read_aggregates_csv(fh)
        assert {a.metric for a in aggs} == {"ber_bound", "leak_bound"}
        assert (tmp_path / "ber_bound.svg").exists()
        assert (tmp_path / "leak_bound.svg").exists()

    def test_simulate_outputs(self, tmp_path):
        code = run("simulate", "--n", 5, "--beta", 0.3, "--blocks", 3,
                   "--trials", 3, "--seed", 1, "--out-dir", tmp_path)
        assert code == 0
        with open(tmp_path / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["kind"] == "end_to_end" for r in rows)
        assert all(r["message_bits"] != "" for r in rows)
        assert (tmp_path / "bob_ber.svg").exists()
        assert (tmp_path / "eve_ber.svg").exists()

    @pytest.mark.parametrize("strategy", ["uniform", "prefix", "bernoulli"])
    @pytest.mark.parametrize("cells", [
        ["--n", 2, "--beta", 0.45, "--rho-w", 0.2, "--rho-r", 0.4],
        ["--n-list", "1,3,6", "--beta", 0.25, "--rho-w", 0.3, "--rho-r", 0.3],
    ])
    def test_simulate_cells_without_information_bits(self, tmp_path, cells, strategy):
        """Feasible cells with |I| = 0 (n = 2 in the first grid, n = 1 and 3
        in the second) are simulated like any other: their rows carry no
        message bits and no bit errors, and their BERs read 0."""
        code = run("simulate", *cells, "--strategy", strategy, "--blocks", 3,
                   "--trials", 3, "--no-plot", "--out-dir", tmp_path)
        assert code == 0
        with open(tmp_path / "trials.csv", newline="") as fh:
            empty = [r for r in csv.DictReader(fh) if r["message_bits"] == "0"]
        assert len(empty) == 3 * (1 if "--n" in cells else 2)
        assert all(r["bob_bit_errors"] == r["eve_bit_errors"] == "0" for r in empty)
        with open(tmp_path / "aggregates.csv", newline="") as fh:
            bers = [a.mean for a in read_aggregates_csv(fh)
                    if a.metric in ("bob_ber", "eve_ber") and a.cell.n in (1, 2, 3)]
        assert bers and not any(bers)

    def test_no_plot_suppresses_svg(self, tmp_path):
        code = run("bounds", "--n", 5, "--beta", 0.3, "--trials", 2,
                   "--no-plot", "--out-dir", tmp_path)
        assert code == 0
        assert not list(tmp_path.glob("*.svg"))

    def test_zero_trials_exits_one(self, tmp_path):
        assert run("bounds", "--n", 5, "--trials", 0, "--out-dir", tmp_path) == 1

    @pytest.mark.parametrize("flags,message", [
        (["--n-list", "6,-1"], "n must be >= 0"),
        (["--n", 6, "--beta-list", "0.2,0.7"], "beta must lie in (0, 0.5)"),
        (["--n", 6, "--parallelism", 0], "parallelism must be >= 1"),
        (["--n-list", "6,6"], "n grid repeats a value"),
        (["--n", 6, "--beta-list", "0.3,0.3"], "beta grid repeats a value"),
        (["--n", 6, "--beta-list", "0.3,0.3000000001"], "would share trial seeds"),
    ])
    def test_invalid_sweep_exits_one(self, tmp_path, capsys, flags, message):
        assert run("bounds", *flags, "--trials", 2, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.iterdir())

    def test_all_cells_infeasible_exits_two(self, tmp_path):
        code = run("bounds", "--n", 5, "--beta", 0.4, "--rho-w", 0.2,
                   "--rho-r", 0.4, "--trials", 2, "--out-dir", tmp_path)
        assert code == 2

    def test_partially_infeasible_continues(self, tmp_path, capsys):
        code = run("bounds", "--n", 5, "--beta-list", "0.3,0.4", "--trials", 2,
                   "--no-plot", "--out-dir", tmp_path)
        assert code == 0
        assert "skipped infeasible" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["infeasible_cells"][0]["beta"] == 0.4

    def test_seed_reproducibility_across_parallelism(self, tmp_path):
        outs = []
        for name, par in (("p1", 1), ("p8", 8)):
            out = tmp_path / name
            assert run("bounds", "--n-list", "5,6", "--beta", 0.3, "--trials", 6,
                       "--seed", 11, "--parallelism", par, "--no-plot",
                       "--out-dir", out) == 0
            outs.append((out / "trials.csv").read_bytes())
        assert outs[0] == outs[1]


class TestPlotCommand:
    def test_rerender_from_aggregates(self, tmp_path):
        src = tmp_path / "sweep"
        assert run("simulate", "--n", 5, "--beta", 0.3, "--trials", 2,
                   "--no-plot", "--out-dir", src) == 0
        out = tmp_path / "charts"
        assert run("plot", "--aggregates", src / "aggregates.csv",
                   "--out-dir", out) == 0
        assert (out / "bob_ber.svg").exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert run("plot", "--aggregates", tmp_path / "nope.csv",
                   "--out-dir", tmp_path) == 1

    def test_empty_file_exits_one(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        assert run("plot", "--aggregates", tmp_path / "empty.csv",
                   "--out-dir", tmp_path) == 1

    @pytest.mark.parametrize("mean", ["nan", "inf"])
    def test_non_finite_mean_exits_one(self, tmp_path, capsys, mean):
        """An aggregate CSV may hold a non-finite mean (it reads back), but no
        chart can place it: exit 1 with an error and no output directory."""
        header = "kind,N,n,beta,rho_w,rho_r,T,strategy,metric,mean,stderr,trials"
        rows = [f"bounds,{1 << n},{n},0.3,0.2,0.4,1,uniform,ber_bound,{value},0.0,2"
                for n, value in ((5, 0.5), (6, mean))]
        (tmp_path / "agg.csv").write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "charts"
        assert run("plot", "--aggregates", tmp_path / "agg.csv", "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error: cannot plot ")
        assert not out.exists()

    @pytest.mark.parametrize("rows", [
        [(10**400, "ber_bound", 0.5)],  # an n past the float range
        [(10**17, "ber_bound", 0.5)],  # one n, whose unit widening rounds away
        [(5, "eve_ber", -1e308), (6, "eve_ber", 1e308)],  # a span past the float range
        [(5, "eve_ber", -1e16 - 4), (6, "eve_ber", -1e16)],  # a tick step below an ulp
        [(5, "eve_ber", sys.float_info.max)],  # ticks that pass the float range
        [(5, "eve_ber", 4e-323)],  # a tick step that rounds to 0
    ])
    def test_unscalable_axis_exits_one(self, tmp_path, capsys, rows):
        """Values a chart axis cannot scale (an overflowing n or span, or a
        span too narrow for its magnitude) are an error: exit 1 within a
        second, no traceback and no output directory."""
        write_aggregates(tmp_path / "agg.csv", [aggregate_row(*row) for row in rows])
        out = tmp_path / "charts"
        with time_limit(1.0):
            code = run("plot", "--aggregates", tmp_path / "agg.csv", "--out-dir", out)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot plot ")
        assert not out.exists()

    def test_log_clamp_below_the_float_range_exits_one(self, tmp_path, capsys):
        """A non-positive mean beside a subnormal one on a log axis: a decade
        below 5e-324 is 0, so the error names the axis and the mean it
        cannot place, not a bare math domain error."""
        write_aggregates(tmp_path / "agg.csv", [aggregate_row(5, "bob_ber", 5e-324),
                                                aggregate_row(6, "bob_ber", -0.5)])
        out = tmp_path / "charts"
        assert run("plot", "--aggregates", tmp_path / "agg.csv", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot plot ")
        assert "log Bob message BER axis cannot place -0.5 a decade below 5e-324" in err
        assert not out.exists()

    def test_short_row_exits_one(self, tmp_path, capsys):
        header = "kind,N,n,beta,rho_w,rho_r,T,strategy,metric,mean,stderr,trials"
        (tmp_path / "short.csv").write_text(header + "\nbounds,32,5,0.3\n")
        assert run("plot", "--aggregates", tmp_path / "short.csv",
                   "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: cannot read aggregates: ")

    def test_field_past_the_csv_limit_exits_one(self, tmp_path, capsys):
        """A field longer than the csv module reads (131,072 characters by
        default) is a read error: exit 1, no traceback."""
        row = aggregate_row(5, "eve_ber", 0.5)
        row[7] = PAST_LIMIT
        write_aggregates(tmp_path / "agg.csv", [row])
        assert run("plot", "--aggregates", tmp_path / "agg.csv", "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: cannot read aggregates: field larger")


class TestSvg:
    def test_golden_chart(self):
        series = [
            ("beta=0.2", [(8.0, 0.125), (10.0, 0.015), (12.0, 0.0)]),
            ("beta=0.3", [(8.0, 0.5), (10.0, 0.1), (12.0, 0.004)]),
        ]
        svg = render_line_chart(series, title="golden chart", x_label="log2 N",
                                y_label="metric", log_y=True)
        assert svg == (DATA / "golden_chart.svg").read_text()

    def test_log_axis_clamps_zeros(self):
        svg = render_line_chart([("a", [(1.0, 0.0), (2.0, 1.0)])], title="t",
                                x_label="x", y_label="y", log_y=True)
        assert 'fill="white"' in svg  # hollow marker for the clamped point

    def test_all_zero_series_falls_back_to_linear(self):
        svg = render_line_chart([("a", [(1.0, 0.0), (2.0, 0.0)])], title="t",
                                x_label="x", y_label="y", log_y=True)
        assert "1e" not in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([], title="t", x_label="x", y_label="y")

    @pytest.mark.parametrize("log_y", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, log_y, bad):
        for pts in ([(1.0, 0.5), (2.0, bad)], [(1.0, 0.5), (bad, 0.5)]):
            with pytest.raises(ValueError, match="non-finite"):
                render_line_chart([("a", pts)], title="t", x_label="x", y_label="y",
                                  log_y=log_y)
