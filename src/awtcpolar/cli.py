"""Command-line surface: construct codes, run sweeps, render plots.

Subcommands: construct, bounds, simulate, plot.  Flags override an optional
JSON config file; every run writes a manifest echoing the resolved
parameters.  Exit codes: 0 success, 1 validation or output error, 2
infeasible construction.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


# One row per parameter: its flag's value type (a tuple is its choices), its
# default and its help.  construct takes the code's parameters; bounds and
# simulate take them all.
_CODE_PARAMS = {
    "n": (int, None, "stage count, block length N = 2^n"),
    "beta": (float, 0.25, "threshold exponent in (0, 0.5)"),
    "rho_w": (float, 0.2, "adversary writing fraction"),
    "rho_r": (float, 0.4, "adversary reading fraction"),
    "blocks": (int, 1, "number of chained blocks T"),
    "out_dir": (str, "out", "output directory"),
}
_PARAMS = {
    **_CODE_PARAMS,
    "n_list": (_int_list, None, "comma-separated n grid"),
    "beta_list": (_float_list, None, "comma-separated beta grid"),
    "trials": (int, 20, "Monte Carlo trials per cell"),
    "seed": (int, 0, "base seed for trial derivation"),
    "strategy": (tuple(s.value for s in Strategy), "uniform",
                 "adversary set sampling strategy"),
    "plot": (bool, True, "emit SVG charts next to the CSVs"),
    "parallelism": (int, 1, "max concurrent trial workers"),
}

# the JSON types a config value may take: those its flag produces (a bool is
# neither int nor float, and a float is no int); a list type's value is a list
# of them
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,),
               _int_list: (int,), _float_list: (int, float)}


def _add_flag(p, key: str) -> None:
    kind, _, help_text = _PARAMS[key]
    if kind is bool:
        how = {"action": argparse.BooleanOptionalAction}
    elif isinstance(kind, tuple):
        how = {"choices": kind}
    else:
        how = {"type": kind}
    p.add_argument("--" + key.replace("_", "-"), help=help_text, **how)


def _check_type(key: str, value) -> None:
    kind = _PARAMS[key][0]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValidationError(f"config key {key!r} must be one of {list(kind)}, "
                                  f"got {value!r}")
        return
    allowed, is_list = _JSON_TYPES[kind], kind in (_int_list, _float_list)
    items = value if is_list else [value]
    if not isinstance(items, list) or any(type(v) not in allowed for v in items):
        what = " or ".join(t.__name__ for t in allowed)
        what = f"a list of {what}" if is_list else what
        raise ValidationError(f"config key {key!r} must be {what}, got {value!r}")


# one parser per process: each one dropped is cyclic garbage until a full collection
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="awtcpolar",
                     description="Secure polar coding over adversarial wiretap channels")
    parser.add_argument("--version", action="version", version=f"awtcpolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, params, about in (
        ("construct", _CODE_PARAMS, "build a partition and report rates"),
        ("bounds", _PARAMS, "Monte Carlo sweep of the bound values"),
        ("simulate", _PARAMS, "end-to-end Bob/Eve BER sweep"),
    ):
        p = sub.add_parser(command, help=about)
        for key in params:
            _add_flag(p, key)
        p.add_argument("--config", help="JSON file with defaults for any flag")

    p = sub.add_parser("plot", help="re-render SVG charts from an aggregate CSV")
    p.add_argument("--aggregates", required=True, help="aggregate CSV produced by a sweep")
    _add_flag(p, "out_dir")
    return parser


def _resolve(args) -> dict:
    """Merge flag > config-file > default for every parameter the command's
    flags name; a key with none of them resolves to None."""
    keys = [key for key in vars(args) if key in _PARAMS]
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
        for key, value in file_cfg.items():
            _check_type(key, value)
    resolved = {}
    for key in keys:
        flag = getattr(args, key)
        resolved[key] = flag if flag is not None else file_cfg.get(key, _PARAMS[key][1])
    return resolved


def _write_manifest(out: Path, command: str, resolved: dict, extra: dict | None = None):
    doc = {"command": command, "version": __version__, "parameters": resolved}
    if extra:
        doc.update(extra)
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _out_dir(resolved: dict) -> Path:
    """The output directory, refused while an existing part of its path is
    no directory, so that nothing is built for outputs that cannot land."""
    out = Path(resolved["out_dir"])
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ValidationError(f"cannot make output directory {out}: {blocker} is not a directory")
    return out


def cmd_construct(args) -> int:
    resolved = _resolve(args)
    if resolved["n"] is None:
        raise ValidationError("--n is required")
    try:
        config = CodeConfig(
            n=resolved["n"], beta=float(resolved["beta"]),
            rho_w=float(resolved["rho_w"]), rho_r=float(resolved["rho_r"]),
            blocks=resolved["blocks"],
        )
    except ValueError as exc:
        raise ValidationError(str(exc))
    out = _out_dir(resolved)

    partition = build_partition(config)  # InfeasibleConstruction propagates to main
    report = rate_report(partition, config)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "partition.csv", "w", newline="") as fh:
        partition_to_csv(partition, fh)
    with open(out / "rate_report.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([report, report.values()])
    _write_manifest(out, "construct", resolved)

    print(f"N = {partition.N} (n = {config.n}), beta = {config.beta}")
    print(f"set sizes: {partition.sizes}")
    print(f"secrecy rate R_s   = {report['secrecy_rate']:.6f}")
    print(f"secrecy capacity   = {report['secrecy_capacity']:.6f}")
    print(f"gap to capacity    = {report['gap']:.6f}")
    print(f"wrote {out / 'partition.csv'} and {out / 'rate_report.csv'}")
    return EXIT_OK


def _sweep_spec(args, kind: str):
    resolved = _resolve(args)
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
            blocks=resolved["blocks"],
            strategy=Strategy(resolved["strategy"]),
            trials=resolved["trials"],
            base_seed=resolved["seed"],
        )
    except ValueError as exc:
        raise ValidationError(str(exc))
    parallelism = resolved["parallelism"]
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    return spec, parallelism, _out_dir(resolved), resolved


def _chart_series(aggregates, metric: str):
    by_beta = {}
    for row in aggregates:
        if row.metric == metric:
            by_beta.setdefault(row.cell.beta, []).append((row.cell.n, row.mean))
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
    resolved = _resolve(args)
    try:
        with open(args.aggregates, newline="") as fh:
            aggregates = read_aggregates_csv(fh)
    except (OSError, ValueError, csv.Error) as exc:  # csv.Error: a field past its limit
        raise ValidationError(f"cannot read aggregates: {exc}")
    out = _out_dir(resolved)
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
    except (ValidationError, OSError) as exc:  # OSError: an output could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleConstruction as exc:
        print(f"infeasible construction: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
