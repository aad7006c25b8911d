"""Command-line surface: construct codes, run sweeps, render plots.

Subcommands: construct, bounds, simulate, plot.  Flags override an optional
JSON config file; every run writes a manifest echoing the resolved
parameters.  Exit codes: 0 success, 1 validation error, 2 infeasible
construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .adversary import Strategy
from .construction import (
    CodeConfig,
    InfeasibleConstruction,
    build_partition,
    partition_to_csv,
    rate_report,
)
from .experiments import (
    SweepSpec,
    read_aggregates_csv,
    run_sweep,
    write_aggregates_csv,
    write_trials_csv,
)
from .svgplot import render_line_chart

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasible codes here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v != ""]


_DEFAULTS = {
    "beta": 0.25,
    "rho_w": 0.2,
    "rho_r": 0.4,
    "blocks": 1,
    "trials": 20,
    "seed": 0,
    "strategy": "uniform",
    "out_dir": "out",
    "plot": True,
    "parallelism": 1,
}


# the JSON types a config-file value may take: those its flag produces (a
# bool is neither int nor float, and a float is no int); a *_list key holds a
# list of them
_CONFIG_TYPES = {
    **dict.fromkeys(["n", "n_list", "blocks", "trials", "seed", "parallelism"], (int,)),
    **dict.fromkeys(["beta", "beta_list", "rho_w", "rho_r"], (int, float)),
    "plot": (bool,),
}


def _check_type(key: str, value) -> None:
    allowed = _CONFIG_TYPES.get(key)
    if allowed is None:
        return
    items = value if key.endswith("_list") else [value]
    if not isinstance(items, list) or any(type(v) not in allowed for v in items):
        what = " or ".join(t.__name__ for t in allowed)
        what = f"a list of {what}" if key.endswith("_list") else what
        raise ValidationError(f"config key {key!r} must be {what}, got {value!r}")


def _add_common(p):
    p.add_argument("--n", type=int, help="stage count, block length N = 2^n")
    p.add_argument("--beta", type=float, help="threshold exponent in (0, 0.5)")
    p.add_argument("--rho-w", dest="rho_w", type=float, help="adversary writing fraction")
    p.add_argument("--rho-r", dest="rho_r", type=float, help="adversary reading fraction")
    p.add_argument("--blocks", type=int, help="number of chained blocks T")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--config", help="JSON file with defaults for any flag")


def _add_sweep(p):
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", type=_int_list, help="comma-separated n grid")
    p.add_argument("--beta-list", dest="beta_list", type=_float_list,
                   help="comma-separated beta grid")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
    p.add_argument("--seed", type=int, help="base seed for trial derivation")
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   help="adversary set sampling strategy")
    p.add_argument("--plot", action=argparse.BooleanOptionalAction, default=None,
                   help="emit SVG charts next to the CSVs")
    p.add_argument("--parallelism", type=int, help="max concurrent trial workers")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="awtcpolar",
                     description="Secure polar coding over adversarial wiretap channels")
    parser.add_argument("--version", action="version", version=f"awtcpolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="build a partition and report rates")
    _add_common(p)

    p = sub.add_parser("bounds", help="Monte Carlo sweep of the bound values")
    _add_sweep(p)

    p = sub.add_parser("simulate", help="end-to-end Bob/Eve BER sweep")
    _add_sweep(p)

    p = sub.add_parser("plot", help="re-render SVG charts from an aggregate CSV")
    p.add_argument("--aggregates", required=True, help="aggregate CSV produced by a sweep")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    return parser


def _resolve(args, keys) -> dict:
    """Merge flag > config-file > default; a key with none of them resolves to None."""
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        nulls = sorted(key for key, value in file_cfg.items() if value is None)
        if nulls:
            raise ValidationError(f"config keys must not be null: {nulls}")
        for key, value in file_cfg.items():
            _check_type(key, value)
    resolved = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = _DEFAULTS.get(key)
    return resolved


def _write_manifest(out: Path, command: str, resolved: dict, extra: dict | None = None):
    doc = {"command": command, "version": __version__, "parameters": resolved}
    if extra:
        doc.update(extra)
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_construct(args) -> int:
    keys = ["n", "beta", "rho_w", "rho_r", "blocks", "out_dir"]
    resolved = _resolve(args, keys)
    if resolved["n"] is None:
        raise ValidationError("--n is required")
    try:
        config = CodeConfig(
            n=int(resolved["n"]), beta=float(resolved["beta"]),
            rho_w=float(resolved["rho_w"]), rho_r=float(resolved["rho_r"]),
            blocks=int(resolved["blocks"]),
        )
        out = Path(resolved["out_dir"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc))

    partition = build_partition(config)  # InfeasibleConstruction propagates to main
    report = rate_report(partition, config)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "partition.csv", "w", newline="") as fh:
        partition_to_csv(partition, fh)
    rep = report.as_dict()
    with open(out / "rate_report.csv", "w", newline="") as fh:
        fh.write(",".join(rep.keys()) + "\n")
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in rep.values()) + "\n")
    _write_manifest(out, "construct", resolved)

    print(f"N = {partition.N} (n = {config.n}), beta = {config.beta}")
    print(f"set sizes: {partition.sizes}")
    print(f"secrecy rate R_s   = {report.secrecy_rate:.6f}")
    print(f"secrecy capacity   = {report.secrecy_capacity:.6f}")
    print(f"gap to capacity    = {report.gap:.6f}")
    print(f"wrote {out / 'partition.csv'} and {out / 'rate_report.csv'}")
    return EXIT_OK


_SWEEP_KEYS = ["n", "n_list", "beta", "beta_list", "rho_w", "rho_r", "blocks",
               "trials", "seed", "strategy", "out_dir", "plot", "parallelism"]


def _sweep_spec(args, kind: str):
    resolved = _resolve(args, _SWEEP_KEYS)
    n_list = resolved["n_list"] or ([resolved["n"]] if resolved["n"] is not None else None)
    if not n_list:
        raise ValidationError("--n or --n-list is required")
    beta_list = resolved["beta_list"] or [resolved["beta"]]
    try:
        spec = SweepSpec(
            kind=kind,
            n_list=tuple(n_list),
            beta_list=tuple(beta_list),
            rho_w=float(resolved["rho_w"]),
            rho_r=float(resolved["rho_r"]),
            blocks=int(resolved["blocks"]),
            strategy=Strategy.parse(str(resolved["strategy"])),
            trials=int(resolved["trials"]),
            base_seed=int(resolved["seed"]),
        )
        parallelism = int(resolved["parallelism"])
        out = Path(resolved["out_dir"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc))
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    return spec, parallelism, out, resolved


def _chart_series(aggregates, metric: str):
    by_beta = {}
    for row in aggregates:
        if row.metric == metric:
            by_beta.setdefault(row.cell.beta, []).append((float(row.cell.n), row.mean))
    return [
        (f"beta={beta}", sorted(points)) for beta, points in sorted(by_beta.items())
    ]


_CHART_SPECS = {
    "ber_bound": ("decoding-error bound vs block length", "T-block error bound", True),
    "leak_bound": ("leakage bound vs block length", "T-block leakage bound", True),
    "bob_ber": ("legitimate message BER vs block length", "Bob message BER", True),
    "eve_ber": ("eavesdropper message BER vs block length", "Eve message BER", False),
}


def write_charts(aggregates, out: Path) -> list:
    """Render a chart of every metric the aggregates hold, then write them
    into out (made here): a chart that fails to render leaves nothing."""
    charts = {}
    for metric, (title, y_label, log_y) in _CHART_SPECS.items():
        series = _chart_series(aggregates, metric)
        if series:
            charts[out / f"{metric}.svg"] = render_line_chart(
                series, title=title, x_label="log2 N", y_label=y_label, log_y=log_y)
    if charts:
        out.mkdir(parents=True, exist_ok=True)
    for path, svg in charts.items():
        path.write_text(svg)
    return list(charts)


def _run_sweep_cmd(args, kind: str) -> int:
    spec, parallelism, out, resolved = _sweep_spec(args, kind)
    result = run_sweep(spec, parallelism=parallelism)
    if not result.results:
        print("every grid cell is infeasible:", file=sys.stderr)
        for cell in result.infeasible:
            print(f"  n={cell['n']} beta={cell['beta']}: "
                  f"|I|={cell['i_size']} < |B|={cell['b_size']}", file=sys.stderr)
        return EXIT_INFEASIBLE

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trials.csv", "w", newline="") as fh:
        write_trials_csv(result.results, fh)
    with open(out / "aggregates.csv", "w", newline="") as fh:
        write_aggregates_csv(result.aggregates, fh)
    _write_manifest(out, kind, resolved, {"infeasible_cells": list(result.infeasible)})

    charts = write_charts(result.aggregates, out) if resolved["plot"] else []
    for cell in result.infeasible:
        print(f"skipped infeasible cell n={cell['n']} beta={cell['beta']}")
    print(f"{len(result.results)} trials over "
          f"{len(set((r.cell.n, r.cell.beta) for r in result.results))} cells")
    print(f"wrote {out / 'trials.csv'}, {out / 'aggregates.csv'}"
          + (f" and {len(charts)} chart(s)" if charts else ""))
    return EXIT_OK


def cmd_plot(args) -> int:
    resolved = _resolve(args, ["out_dir"])
    try:
        with open(args.aggregates, newline="") as fh:
            aggregates = read_aggregates_csv(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read aggregates: {exc}")
    out = Path(resolved["out_dir"])
    try:
        charts = write_charts(aggregates, out)
    except ValueError as exc:
        raise ValidationError(f"cannot plot {args.aggregates}: {exc}")
    if not charts:
        raise ValidationError("no plottable metrics found in the aggregate CSV")
    print(f"wrote {len(charts)} chart(s) to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "bounds":
            return _run_sweep_cmd(args, "bounds")
        if args.command == "simulate":
            return _run_sweep_cmd(args, "end_to_end")
        return cmd_plot(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleConstruction as exc:
        print(f"infeasible construction: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
