"""Span tracing around the public functions of each awtcpolar layer.

The wrappers are installed from outside the package, in the namespaces where
``experiments`` and ``cli`` look the functions up (``construction`` for
``bec_profile``, the ``ChainCodec`` class for the codec methods), and are
removed when the traced run ends, so untraced runs execute the original code.

Each span records its name, start, end and parent span; spans opened inside a
trial carry the trial seed as their request id.  Spans stay in memory until
``write_spans`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

OBSERVE = (
    "adversary.apply_write",
    "adversary.apply_read",
    "adversary.write_equivalent_mask",
    "adversary.read_equivalent_mask",
)
WRITE_OUTPUTS = ("cli.write_trials_csv", "cli.write_aggregates_csv", "cli.write_charts")
SIDES = ("bob", "eve")
# p96 is the highest percentile with at least ten samples beyond it when the
# traced half holds only MIN_REPS = 3 sweeps: 3 x 2 trials x 50 blocks = 300
# decodes per side and n on the sim_* workloads.
PERCENTILES = (50, 96)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    request: int | None
    n: int | None = None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    guessed: int | None = None
    decided: int | None = None

    @property
    def busy_s(self) -> float:
        return self.end - self.start


def targets():
    """(owner, attribute, span name) for every wrapped function.

    ``codec.decode`` spans are renamed per side when they are recorded.
    """
    from awtcpolar import cli, construction, experiments

    codec = experiments.ChainCodec
    return [
        (construction, "bec_profile", "polar_core.bec_profile"),
        (experiments, "realize_profile", "polar_core.realize_profile"),
        (experiments, "build_partition", "construction.build_partition"),
        (experiments, "sample_action", "adversary.sample_action"),
        (experiments, "apply_write", "adversary.apply_write"),
        (experiments, "apply_read", "adversary.apply_read"),
        (experiments, "write_equivalent_mask", "adversary.write_equivalent_mask"),
        (experiments, "read_equivalent_mask", "adversary.read_equivalent_mask"),
        (codec, "encode_block", "codec.encode_block"),
        (codec, "sc_decode_block", "codec.decode"),
        (experiments, "bounds_trial", "experiments.trial"),
        (experiments, "end_to_end_trial", "experiments.trial"),
        (cli, "run_sweep", "experiments.run_sweep"),
        (cli, "write_trials_csv", "cli.write_trials_csv"),
        (cli, "write_aggregates_csv", "cli.write_aggregates_csv"),
        (cli, "write_charts", "cli.write_charts"),
        (cli, "render_line_chart", "svgplot.render_line_chart"),
    ]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tracer:
    """Installs the wrappers on entry, removes them on exit, keeps the spans.

    Span times come from ``clock``; the benchmark passes ``HostSpeed.clock``,
    so host-speed samples taken inside a span do not count toward it.
    """

    def __init__(self, wrap_targets, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._targets = wrap_targets
        self._originals = [getattr(owner, attr) for owner, attr, _ in wrap_targets]
        self._stack: list[int] = []
        self._request: int | None = None
        self._origin = clock()

    def __enter__(self):
        for (owner, attr, name), original in zip(self._targets, self._originals):
            if name == "codec.decode":
                wrapper = self._decode(original, name)
            elif name == "experiments.trial":
                wrapper = self._trial(original, name)
            else:
                wrapper = self._plain(original, name)
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for (owner, attr, _), original in zip(self._targets, self._originals):
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(
            getattr(owner, attr) is original
            for (owner, attr, _), original in zip(self._targets, self._originals)
        )

    # -- wrappers --------------------------------------------------------

    def _call(self, fn, args, kwargs, name, n=None, decided=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self._request, n=n, decided=decided)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.busy_s
        return span, result

    def _plain(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, args, kwargs, name)[1]
        return wrapper

    def _trial(self, fn, name):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            outer, self._request = self._request, int(bound["seed"])
            try:
                return self._call(fn, args, kwargs, name, n=bound["config"].n)[1]
            finally:
                self._request = outer
        return wrapper

    def _decode(self, fn, name):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            codec = bound["self"]
            # Bob decodes without guess bits, Eve with her own coin flips
            side = "bob" if bound.get("guess_bits") is None else "eve"
            part = codec.partition
            decided = codec.N - len(part.frozen)
            if bound.get("chain") is not None:
                decided -= len(part.chain_sink)
            span, result = self._call(fn, args, kwargs, f"{name}_{side}",
                                      n=codec.n, decided=decided)
            span.guessed = result.erased_decisions
            return result
        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self, reps: int, decode_ns, trial_ns) -> dict:
        """Per-layer metrics; counts and times are per repetition of the sweep."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        guessed = defaultdict(int)
        decided = defaultdict(int)
        decode_ms = defaultdict(list)
        trial_calls = defaultdict(int)
        trial_busy = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += span.busy_s
            self_s[span.name] += span.busy_s - span.child_s
            if span.guessed is not None:
                guessed[span.name] += span.guessed
                decided[span.name] += span.decided
                decode_ms[span.name, span.n].append(span.busy_s * 1e3)
            elif span.name == "experiments.trial":
                trial_calls[span.n] += 1
                trial_busy[span.n] += span.busy_s

        def per_rep(table, name):
            return table[name] / reps

        out = {}
        for name in ("polar_core.realize_profile", "polar_core.bec_profile",
                     "adversary.sample_action", "codec.encode_block",
                     "svgplot.render_line_chart"):
            out[f"{name}.calls"] = per_rep(calls, name)
            out[f"{name}.busy_s"] = per_rep(busy, name)
        out["construction.build_partition.calls"] = per_rep(calls, "construction.build_partition")
        out["construction.build_partition.self_s"] = per_rep(self_s, "construction.build_partition")
        out["adversary.observe.busy_s"] = sum(busy[name] for name in OBSERVE) / reps
        for side in SIDES:
            name = f"codec.decode_{side}"
            out[f"{name}.calls"] = per_rep(calls, name)
            out[f"{name}.busy_s"] = per_rep(busy, name)
            out[f"{name}.guessed"] = per_rep(guessed, name)
            out[f"{name}.guessed_frac"] = guessed[name] / decided[name] if decided[name] else 0.0
            for n in decode_ns:
                for q in PERCENTILES:
                    out[f"{name}.n{n}.ms_p{q}"] = percentile(decode_ms[name, n], q)
        trial = "experiments.trial"
        out[f"{trial}.calls"] = per_rep(calls, trial)
        out[f"{trial}.busy_s"] = per_rep(busy, trial)
        out[f"{trial}.self_s"] = per_rep(self_s, trial)
        decode_busy = busy["codec.decode_bob"] + busy["codec.decode_eve"]
        out["codec.decode_share"] = decode_busy / busy[trial] if busy[trial] else 0.0
        out["experiments.run_sweep.overhead_s"] = (
            busy["experiments.run_sweep"] - busy[trial]) / reps
        for n in trial_ns:
            out[f"experiments.trials_per_s.n{n}"] = (
                trial_calls[n] / trial_busy[n] if trial_busy[n] else 0.0)
        out["cli.write_outputs.busy_s"] = sum(busy[name] for name in WRITE_OUTPUTS) / reps
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line; times in seconds since the tracer was made."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start - self._origin,
                    "end": span.end - self._origin,
                    "parent": span.parent,
                    "request": span.request,
                }
                if span.n is not None:
                    record["n"] = span.n
                if span.guessed is not None:
                    record["guessed"] = span.guessed
                fh.write(json.dumps(record) + "\n")
