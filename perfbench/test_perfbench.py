"""Checks of the benchmark itself: results schema, output check, tracing.

Run from the root of the repository:

    python3 -m pytest perfbench

Workloads here are shrunk to a few blocks so the file runs in seconds; the
values measured are not checked, only that every declared metric is reported
with its unit.
"""

from __future__ import annotations

import json
import re
import signal
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "end_to_end": bench.Workload("sim_uniform", "simulate", (8,), (0.26,), 2, "uniform", 1),
    "bounds": bench.Workload("bounds_grid", "bounds", (8,), (0.20, 0.26), 3, "uniform", 4),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _declared(section):
    return [(m["name"], m["unit"]) for m in SPEC[section]]


def _run(kind, trace, tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    result = bench.run_benchmark(TINY[kind], seed=3, seconds=0, trace=trace, root=ROOT,
                                 out_dir=tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= bench.MIN_REPS
    # the host-speed sampler is gone once the run ends
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    return result


def test_benchmark_json_keys_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(kind, tmp_path):
    result = _run(kind, 0, tmp_path)
    reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert reported == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["provenance"]["cpu_count"] and result["provenance"]["numpy"]
    assert (tmp_path / "cli" / "trials.csv").is_file()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_reports_every_layer_metric_and_unwraps(kind, tmp_path):
    wrapped = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in layertrace.targets()]
    result = _run(kind, 1, tmp_path)
    reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert reported == _declared("per_layer")
    assert result["wrappers_restored"]
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still wrapped"

    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    decode_calls = metrics["codec.decode_bob.calls"] + metrics["codec.decode_eve.calls"]
    assert (decode_calls > 0) == (kind == "end_to_end")
    assert metrics["experiments.trial.calls"] == TINY[kind].trials_per_rep

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    trials = {s["id"]: s for s in spans if s["name"] == "experiments.trial"}
    assert trials and all(s["request"] is not None for s in trials.values())
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] in trials:
            assert span["request"] == trials[span["parent"]]["request"]


def test_output_check_counts_violations(tmp_path):
    workload = TINY["end_to_end"]
    _run("end_to_end", 0, tmp_path)
    lines = (tmp_path / "cli" / "trials.csv").read_text().splitlines(keepends=True)
    k_by_cell = bench.message_sizes(workload)
    assert bench.check_trials(workload, "".join(lines).encode(), k_by_cell)[0] == 0

    header = lines[0].rstrip("\n").split(",")
    row = lines[1].rstrip("\n").split(",")
    row[header.index("bob_bit_errors")] = str(int(row[header.index("message_bits")]) + 1)
    broken = [lines[0], ",".join(row) + "\n"]
    assert bench.check_trials(workload, "".join(broken).encode(), k_by_cell)[0] == 1
    assert bench.check_trials(workload, lines[0].encode(), k_by_cell)[0] == 1
    assert bench.check_trials(workload, "".join(lines + lines[1:]).encode(), k_by_cell)[0] == 1


def test_layer_map_covers_every_layer_metric():
    layers = json.loads((BENCH_DIR / "layer_map.json").read_text())
    listed = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(listed) == sorted(name for name, _ in _declared("per_layer"))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers.values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["mainly_on"]) <= set(bench.WORKLOADS)


def test_not_a_checkout_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    assert bench.main(["--workload", "sim_prefix", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
