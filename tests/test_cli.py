"""CLI surface tests: files, exit codes, determinism and chart rendering."""

import csv
import json
from pathlib import Path

import pytest

from awtcpolar import cli, experiments
from awtcpolar.cli import main
from awtcpolar.construction import MAX_N
from awtcpolar.experiments import read_aggregates_csv
from awtcpolar.svgplot import render_line_chart

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


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
    ])
    def test_keys_reject_values_their_flag_cannot_produce(self, tmp_path, monkeypatch,
                                                          capsys, config):
        """A truthy string does not switch charts on, no number is truncated
        to an integer, and no bool or string is read as a number, behind the
        manifest's back."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["bounds", "--n", 2, "--trials", 1] if "n_list" not in config else ["bounds"]
        assert run(*argv, "--config", "cfg.json") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


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

    def test_short_row_exits_one(self, tmp_path, capsys):
        header = "kind,N,n,beta,rho_w,rho_r,T,strategy,metric,mean,stderr,trials"
        (tmp_path / "short.csv").write_text(header + "\nbounds,32,5,0.3\n")
        assert run("plot", "--aggregates", tmp_path / "short.csv",
                   "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: cannot read aggregates: ")


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
