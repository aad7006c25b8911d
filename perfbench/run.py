"""Benchmark of the awtcpolar sweeps, run through ``awtcpolar.cli.main``.

From the root of a checkout:

    python3 perfbench/run.py --workload sim_uniform --seed 1 --seconds 25 --trace 0

Each workload is one ``simulate`` or ``bounds`` command line, run in this
process with ``--parallelism 1`` and the workload seed as ``--seed``, over and
over (a closed loop) until ``--seconds`` have passed.  Every repetition's
``trials.csv`` is checked, and all repetitions of one invocation must write
the same bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
instrumentation.  Times are scaled by the host's speed, sampled with the
yardstick loops of yardstick.py; the unscaled ``trials_per_s`` and
``setup_s_unscaled`` are printed beside them.  ``--trace 1`` runs the untraced loop for half the time, then wraps
each layer's public functions (layertrace.py) for the other half and reports
the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a fuller record with provenance goes to
``.bench_out/<workload>/trace<0|1>/results.json``.  Exit status: 0 when every
output check passed, 1 when one failed, 2 when the current directory is not
an awtcpolar checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

import layertrace
from yardstick import PYTHON_NOMINAL_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 9
MIN_REPS = 3
RHO_W = 0.2
RHO_R = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "bounds"
    n_list: tuple
    beta_list: tuple
    blocks: int
    strategy: str
    trials: int  # per cell, per repetition

    @property
    def kind(self) -> str:
        return "end_to_end" if self.command == "simulate" else "bounds"

    @property
    def cells(self) -> list:
        return [(n, beta) for n in self.n_list for beta in self.beta_list]

    @property
    def trials_per_rep(self) -> int:
        return self.trials * len(self.cells)

    def argv(self, seed: int, out_dir: Path) -> list:
        return [
            self.command,
            "--n-list", ",".join(map(str, self.n_list)),
            "--beta-list", ",".join(map(str, self.beta_list)),
            "--rho-w", str(RHO_W), "--rho-r", str(RHO_R),
            "--blocks", str(self.blocks),
            "--strategy", self.strategy,
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--parallelism", "1",
            "--out-dir", str(out_dir),
        ]


# Why each workload exists is recorded in BENCHMARK.json; the sizes make one
# repetition take a few seconds on one core, so a run holds several of them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_uniform", "simulate", (8, 10, 12), (0.26,), 50, "uniform", 2),
        Workload("sim_prefix", "simulate", (10,), (0.26,), 50, "prefix", 2),
        Workload("bounds_grid", "bounds", (8, 10, 12, 14), (0.20, 0.26, 0.32), 300,
                 "uniform", 200),
    )
}
DECODE_NS = sorted({n for w in WORKLOADS.values() if w.kind == "end_to_end" for n in w.n_list})
TRIAL_NS = sorted({n for w in WORKLOADS.values() for n in w.n_list})
OUTCOME_UNITS = {"failed_frac": "ratio", "trials_per_s": "1/s", "slowdown": "ratio",
                 "setup_s_unscaled": "s", "bob_ber": "ratio", "eve_ber_gap": "ratio"}
# only what the sweep writes; manifest.json records the absolute out dir
OUTPUT_FILES = ("trials.csv", "aggregates.csv", "*.svg")
ERROR_COLUMNS = ("bob_bit_errors", "eve_bit_errors", "message_bits", "erased_decisions")


class NotACheckout(Exception):
    pass


@dataclass(frozen=True)
class Rep:
    """One call of cli.main and the check of what it wrote."""

    wall_s: float  # HostSpeed.clock() time, so without the speed samples
    attempted: int
    failed: int
    sha256: str | None  # None when cli.main raised or exited non-zero
    bob_errors: int = 0
    eve_errors: int = 0
    message_bits: int = 0
    slowdown: float = 1.0  # HostSpeed.slowdown() during the call

    @property
    def trials_per_s(self) -> float:
        return self.attempted / self.wall_s

    @property
    def trials_per_s_adj(self) -> float:
        """The rate on a host where the yardstick takes its nominal time."""
        return self.trials_per_s * self.slowdown


def import_program(root: Path):
    """Import awtcpolar.cli from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "awtcpolar" / "__init__.py").is_file():
        raise NotACheckout(f"no awtcpolar package under {src}")
    sys.path.insert(0, str(src))
    import awtcpolar.cli

    if src not in Path(awtcpolar.cli.__file__).resolve().parents:
        raise NotACheckout(f"awtcpolar was imported from {awtcpolar.cli.__file__}")
    return awtcpolar.cli


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise NotACheckout(f"no {path}")
    return json.loads(path.read_text())


def message_sizes(workload: Workload) -> dict:
    """|I| per cell, for the message_bits = k * T check."""
    from awtcpolar.construction import CodeConfig, build_partition

    return {
        (n, beta): len(build_partition(CodeConfig(n=n, beta=beta, rho_w=RHO_W, rho_r=RHO_R,
                                                  blocks=workload.blocks)).info)
        for n, beta in workload.cells
    }


def _row_ok(workload: Workload, row: dict, k_by_cell: dict) -> bool:
    try:
        n, beta = int(row["n"]), float(row["beta"])
        if (row["kind"], int(row["T"]), row["strategy"]) != (
                workload.kind, workload.blocks, workload.strategy):
            return False
        if int(row["N"]) != 1 << n or (n, beta) not in k_by_cell:
            return False
        for column in ("ber_bound", "leak_bound"):
            value = float(row[column])
            if not (value >= 0 and value.is_integer()):
                return False
        if workload.kind == "bounds":
            return all(row[column] == "" for column in ERROR_COLUMNS)
        bits = int(row["message_bits"])
        return (bits == k_by_cell[n, beta] * workload.blocks
                and 0 <= int(row["bob_bit_errors"]) <= bits
                and 0 <= int(row["eve_bit_errors"]) <= bits
                and int(row["erased_decisions"]) >= 0)
    except (KeyError, TypeError, ValueError):
        return False


def check_trials(workload: Workload, data: bytes, k_by_cell: dict):
    """Count the trials that are missing, repeated or break an invariant.

    Returns (failed, bob bit errors, eve bit errors, message bits), the error
    totals taken over the rows that passed.
    """
    expected = {(n, beta, t) for n, beta in workload.cells for t in range(workload.trials)}
    seen = set()
    failed = bob = eve = bits = 0
    for row in csv.DictReader(io.StringIO(data.decode("utf-8", "replace"))):
        try:
            key = (int(row["n"]), float(row["beta"]), int(row["trial"]))
        except (KeyError, TypeError, ValueError):
            key = None
        if key not in expected or key in seen:
            failed += 1
            continue
        seen.add(key)
        if not _row_ok(workload, row, k_by_cell):
            failed += 1
            continue
        if workload.kind == "end_to_end":
            bob += int(row["bob_bit_errors"])
            eve += int(row["eve_bit_errors"])
            bits += int(row["message_bits"])
    return failed + len(expected - seen), bob, eve, bits


def run_rep(cli, workload: Workload, seed: int, out_dir: Path, k_by_cell: dict,
            host: HostSpeed) -> Rep:
    trials_csv = out_dir / "trials.csv"
    trials_csv.unlink(missing_ok=True)
    attempted = workload.trials_per_rep
    start = host.clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()), host:
            code = cli.main(workload.argv(seed, out_dir))
    except Exception:
        traceback.print_exc()
        code = None
    wall = host.clock() - start
    slowdown = host.slowdown()
    if code != 0:
        print(f"cli.main returned {code}", file=sys.stderr)
        return Rep(wall, attempted, attempted, None, slowdown=slowdown)
    data = trials_csv.read_bytes()
    failed, bob, eve, bits = check_trials(workload, data, k_by_cell)
    return Rep(wall, attempted, failed, hashlib.sha256(data).hexdigest(), bob, eve, bits,
               slowdown)


def run_phase(rep, budget_s: float) -> list:
    """Repeat until the next repetition would likely end past the budget."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(rep())
        if reps[-1].sha256 is None:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > budget_s:
            break
    return reps


def measure_setup(workload: Workload, root: Path) -> list:
    """(set-up time, yardstick time) of SETUP_PROBES fresh interpreters, one
    after another."""
    probe = json.dumps({"cells": workload.cells, "rho_w": RHO_W, "rho_r": RHO_R,
                        "blocks": workload.blocks})
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), probe],
                              cwd=root, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probe_result = json.loads(done.stdout.splitlines()[-1])
        times.append((probe_result["setup_s"], probe_result["yardstick_s"]))
    return times


def provenance(root: Path, workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "awtcpolar").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "argv": workload.argv(seed, Path("<out>")),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_benchmark(workload: Workload, seed: int, seconds: int, trace: int, root: Path,
                  out_dir: Path) -> dict:
    """Run one workload and return the full results record."""
    spec = load_spec(root)
    cli = import_program(root)
    k_by_cell = message_sizes(workload)
    cli_dir = out_dir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)

    host = HostSpeed()

    def rep():
        return run_rep(cli, workload, seed, cli_dir, k_by_cell, host)

    metrics = {}
    tracer = None
    if trace:
        untraced = run_phase(rep, seconds / 2)
        tracer = layertrace.Tracer(layertrace.targets(), clock=host.clock)
        with tracer:
            traced = run_phase(rep, seconds / 2)
        reps = untraced + traced
        metrics.update(tracer.metrics(len(traced), DECODE_NS, TRIAL_NS))
        metrics["cli.write_outputs.bytes"] = sum(
            path.stat().st_size for pattern in OUTPUT_FILES for path in cli_dir.glob(pattern))
        metrics["trace.overhead_ratio"] = (
            statistics.median(r.trials_per_s_adj for r in untraced)
            / statistics.median(r.trials_per_s_adj for r in traced))
        tracer.write_spans(out_dir / "spans.jsonl")
    else:
        setup = measure_setup(workload, root)
        reps = run_phase(rep, seconds)
        metrics["trials_per_s_adj"] = statistics.median(r.trials_per_s_adj for r in reps)
        # scaled like trials_per_s_adj, by the yardstick each probe timed
        metrics["setup_s"] = statistics.median(s * PYTHON_NOMINAL_S / y for s, y in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every repetition of one invocation must write the same trials.csv
    digests = [r.sha256 for r in reps if r.sha256 is not None]
    reference = digests[0] if digests else None
    failed = sum(r.attempted if r.sha256 != reference else r.failed for r in reps)
    attempted = sum(r.attempted for r in reps)
    outcome = {
        "failed_frac": failed / attempted,
        "trials_per_s": statistics.median(r.trials_per_s for r in reps),
        "slowdown": statistics.median(r.slowdown for r in reps),
    }
    first = reps[0]
    if workload.kind == "end_to_end" and first.message_bits:
        outcome["bob_ber"] = first.bob_errors / first.message_bits
        outcome["eve_ber_gap"] = abs(first.eve_errors / first.message_bits - 0.5)
    if not trace:
        outcome["setup_s_unscaled"] = statistics.median(s for s, _ in setup)
    if trace:
        metrics["bob_ber"] = outcome.get("bob_ber", 0.0)
        metrics["eve_ber_gap"] = outcome.get("eve_ber_gap", 0.0)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(metrics))}")
    restored = tracer is None or tracer.restored()
    return {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
        "outcome": outcome,
        "trials_csv_sha256": reference,
        "wrappers_restored": restored,
        "rep_wall_s": [r.wall_s for r in reps],
        "provenance": provenance(root, workload, seed, seconds, trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    out_dir = root / ".bench_out" / workload.name / f"trace{args.trace}"
    try:
        result = run_benchmark(workload, args.seed, args.seconds, args.trace, root, out_dir)
    except NotACheckout as exc:
        print(f"error: {exc}; run from the root of an awtcpolar checkout", file=sys.stderr)
        return 2
    (out_dir / "results.json").write_text(json.dumps(result, indent=2) + "\n")

    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for name, value in result["outcome"].items():
        print(f"{name} = {value!r} {OUTCOME_UNITS[name]}")
    print(f"trials_csv_sha256 = {result['trials_csv_sha256']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
