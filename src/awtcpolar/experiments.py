"""Monte Carlo harness: reliability/leakage bound values and end-to-end BER.

Two trial kinds share one CSV schema.  A "bounds" trial samples a single
adversary action and evaluates the T-block decoding-error and leakage bound
values on that realization.  An "end_to_end" trial runs the full chained
transmission with a fresh action per block, decodes Bob's and Eve's
observations of the blocks their bound terms leave open, and counts message
bit errors on each side.  A chunk of either kind goes in groups of at most
_GROUP_BITS stacked bits (one block a bounds trial, T an end-to-end trial),
each one stacked pass that draws and counts all its blocks in one
_draw_counts call.

Per-trial seeds are derived from (base seed, cell parameters, trial index),
so serial and parallel sweeps produce bit-identical results.  Trial seeds
and bounds generators' PCG64 states share one vectorized SeedSequence mix.
A parallel sweep imports the process pool when it starts one; a serial
sweep, the default, never loads the pool's modules.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .adversary import (
    Strategy,
    apply_read,
    apply_write,
    read_equivalent_mask,
    sample_action,
    write_equivalent_mask,
)
from .codec import ChainCodec, polar_transform, random_bit_rows
from .construction import CodeConfig, IndexPartition, InfeasibleConstruction, build_partition
# realize_profile is not called here; the name stays for tools that wrap it
from .polar_core import (  # noqa: F401
    check_block_length,
    checked_int,
    count_bits,
    pack_rows,
    realize_packed,
    realize_profile,
)

CELL_COLUMNS = ["kind", "N", "n", "beta", "rho_w", "rho_r", "T", "strategy"]

KINDS = ("bounds", "end_to_end")


@dataclass(frozen=True)
class Cell:
    """The identity of one sweep cell, shared by its trials and its aggregates."""

    kind: str
    n: int
    beta: float
    rho_w: float
    rho_r: float
    T: int
    strategy: str

    @classmethod
    def of(cls, kind: str, config: CodeConfig, strategy: Strategy) -> "Cell":
        return cls(kind, config.n, config.beta, config.rho_w, config.rho_r,
                   config.blocks, strategy.value)

    @property
    def N(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class TrialResult:
    """One trial's bound values and error counts."""

    cell: Cell
    trial: int
    seed: int
    ber_bound: float
    leak_bound: float
    bob_bit_errors: int | None = None
    eve_bit_errors: int | None = None
    message_bits: int | None = None
    erased_decisions: int | None = None


def _seed_key(x: float) -> int:
    """A real cell parameter as it enters the trial seed: rounded to 1e-9."""
    return int(round(x * 1e9))


# numpy's SeedSequence constants (pool of four 32-bit words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_prefix(base_seed: int, cell: Cell) -> tuple:
    """The entropy of a cell's trial seeds before the trial index."""
    return (
        int(base_seed),
        KINDS.index(cell.kind),
        int(cell.n),
        _seed_key(cell.beta),
        _seed_key(cell.rho_w),
        _seed_key(cell.rho_r),
        int(cell.T),
        list(Strategy).index(Strategy(cell.strategy)),
    )


def _xorshift(v):
    return v ^ (v >> 16)


def _mix(x, y):
    # products reduced first: a Python int past 2^32 may not meet a uint32 array
    return _xorshift((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32)


def _seed_sequence_state(words: list, n_words: int) -> list:
    """SeedSequence(words).generate_state(n_words, uint64) as n_words uint64
    arrays: mix_entropy over a pool of four 32-bit words, then
    generate_state.  Each entropy word is a Python int below 2^32 or a
    uint32 array (all of one shape), so one pass hashes the entropies of
    every column of the arrays."""
    const = _INIT_A

    def hashed(value, mult=_MULT_A):
        nonlocal const  # SeedSequence's hash constant, stepped by every hash
        value, const = value ^ const, const * mult & _MASK32
        return _xorshift(value * const & _MASK32)

    pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
        pool[dst] = _mix(pool[dst], hashed(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashed(word))
    const = _INIT_B
    halves = [np.asarray(hashed(pool[i % 4], _MULT_B), dtype=np.uint64)
              for i in range(2 * n_words)]
    return [low | high << np.uint64(32) for low, high in zip(halves[::2], halves[1::2])]


def derive_trial_seeds(base_seed: int, cell: Cell, trials) -> list:
    """Deterministic 64-bit seeds of the given trial indices of one cell:
    trial t's seed is SeedSequence(prefix + (t,)).generate_state(1, uint64)[0],
    hashed for all trials at once with the trial index as one uint32 word."""
    prefix = _seed_prefix(base_seed, cell)
    if min(prefix) < 0:
        raise ValueError(f"seed key words must be non-negative, got {prefix}")
    trials = [checked_int(trial, "trial index") for trial in trials]
    if trials and not 0 <= min(trials) <= max(trials) <= _MASK32:
        raise ValueError("trial indices must lie in [0, 2^32)")
    # SeedSequence takes each int as its 32-bit words, least significant first
    words = [v >> shift & _MASK32 for v in prefix
             for shift in range(0, max(1, v.bit_length()), 32)]
    return _seed_sequence_state(words + [np.array(trials, dtype=np.uint32)], 1)[0].tolist()


def _seed_states(seeds) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) of every seed below 2^64,
    the words PCG64 seeds itself from: a (seeds, 4) uint64 array.  A seed
    below 2^32 is one entropy word; it hashes as if its high word were 0, as
    the pool words past the entropy do."""
    seeds = [checked_int(seed, "seed") for seed in seeds]
    if seeds and not 0 <= min(seeds) <= max(seeds) < 1 << 64:
        raise ValueError("seeds must lie in [0, 2^64)")
    seeds = np.array(seeds, dtype=np.uint64)
    words = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    return np.stack(_seed_sequence_state(words, 4), axis=1)


@functools.cache
def _preset_seed_type() -> type:
    """A seed sequence type holding one row of _seed_states, all that PCG64
    reads of its seed sequence.  It is made on first use, since importing
    numpy.random takes about 15 ms that importing this module should not."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return PresetSeed


def block_bound_counts(partition: IndexPartition, write, noise) -> np.ndarray:
    """Per-block terms of both bound values for each row of the equivalent
    channel blocks: write and noise are Bob's and Eve's (rows, N) boolean
    full-noise indicators, as write_equivalent_mask and read_equivalent_mask
    give them for one stacked action: the write mask itself, not a copy.

    With the exact noise indicators Z of a row's writing realization and the
    exact noiseless indicators of its reading realization, the terms are
    (sum of Z over I union R, sum of Z over E, noiseless count over I union
    F), I meaning the full set including E.  Over T blocks the decoding-error
    bound adds the first term every block and the second in all blocks but
    the last; the leakage bound adds the third every block.

    Both sides are realized in one realize_packed call over their (2 * rows,
    W) packed words, Bob's rows first; each term is the popcount of the
    realized words ANDed with the partition's bit-reversed packed set masks.
    Returns a (3, rows) integer array of rows (ir, e, leak).
    """
    if not all(isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 2
               and m.shape == (len(write), partition.N) for m in (write, noise)):
        raise ValueError(f"write and noise must be boolean stacks of one shape "
                         f"(rows, {partition.N})")
    masks = partition.bound_masks
    n = check_block_length(partition.N)
    words = realize_packed(np.vstack([pack_rows(write), pack_rows(noise)]), n)
    zw, zr = words[:len(write)], words[len(write):]
    hits = count_bits(np.stack([zw & masks[0], zw & masks[1], zr & masks[2]]))
    hits[2] = count_bits(masks[2]) - hits[2]
    return hits


def _draw_counts(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                 rngs) -> tuple:
    """One stacked draw of len(rngs) blocks' actions, one sample_action call
    (a generator listed for several rows gives them its successive blocks),
    and their per-block bound terms, one block_bound_counts call on the
    action's own equivalent blocks.  Returns (action, counts)."""
    action = sample_action(config.N, config.rho_w, config.rho_r, strategy, rngs)
    return action, block_bound_counts(partition, write_equivalent_mask(action),
                                      read_equivalent_mask(action))


# rows x N bits drawn and counted per stacked pass, where a bounds trial
# stacks one block and an end-to-end trial T, its whole session.  A group of
# a chunk's trials holds as many as fit, and at least one, so its working set
# stays bounded however many trials a chunk has: an end-to-end group's
# actions, observations, guesses and decoder state peak at 5.6 B per bit
# under uniform actions (tracemalloc; 10.1 with every block decoded, at
# n=12, T=50), a bounds group's masks, keys and packed words at 4.4 (n=14).
# Two n=12, T=50 sessions (409,600 bits) still fit in one group.
_GROUP_BITS = 1 << 19


def _bounds_group(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                  trial_seeds) -> list:
    """Both T-block bound values of every (trial, seed) of one group: each
    trial draws one adversary action from default_rng(seed)'s stream, its
    PCG64 seeded from the trial's row of _seed_states, and the group's
    actions and bound terms are one _draw_counts pass (a generator per
    trial)."""
    preset = _preset_seed_type()
    counts = _draw_counts(config, partition, strategy, [
        np.random.Generator(np.random.PCG64(preset(words)))
        for words in _seed_states([seed for _, seed in trial_seeds])])[1]
    T = config.blocks
    cell = Cell.of("bounds", config, strategy)
    return [
        TrialResult(cell=cell, trial=trial, seed=seed,
                    ber_bound=float(T * w + (T - 1) * c), leak_bound=float(T * r))
        for (trial, seed), (w, c, r) in zip(trial_seeds, counts.T.tolist())
    ]


def bounds_trial(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                 seed: int, trial: int = 0) -> TrialResult:
    """Sample one adversary action and evaluate both T-block bound values on it."""
    return _run_chunk(("bounds", config, partition, strategy, [(trial, seed)]))[0]


def _end_to_end_group(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                      trial_seeds) -> list:
    """Encode, attack and decode a group's chained sessions, one per (trial, seed).

    Each trial draws from five streams spawned from its seed: its messages,
    the encoder's fresh bits, the pre-shared bits, its T adversary actions
    and Eve's coin flips, one row of N per block.  Bob decodes with the
    pre-shared bits; Eve decodes without them, her erased decisions resolving
    to her coin flips.  The group is one stacked pass, as a bounds group is:
    one _draw_counts call on every trial's adversary stream listed T times
    gives its actions and bound terms, one polar_transform the codewords of
    the blocks either side decodes, one apply_write and one apply_read call
    each side's observations of its blocks, and at most one decode_session
    call per side decodes them.  Every stream is drawn in full and in order,
    so a trial's row does not depend on its group.  Eve's coin flips are
    drawn after Bob's decode, to keep the group's working set small.  The
    recorded bound values are the per-realization sums over the actual
    per-block draws.

    Each side decodes only the blocks its bound terms leave open, or with a
    live chain only the sessions holding one; both skips are exact.  SC
    forces Bob's guesses exactly on the decided positions of the write
    realization's noisy channels (acceptance criterion 5), which
    block_bound_counts counts as each block's ir term, so a trial's erased
    decisions are the sum of its ir terms.  With no forced guess and correct
    chain bits SC on the BEC returns the sent u, chain source E included, so
    a block without one keeps its sent message, and every block of a session
    before its first damaged block hands the next block correct chain bits.
    Eve's erased decisions are likewise the decided positions her read
    realization leaves noisy, whatever the values she decodes, so a block
    whose leak term (noiseless positions over I union F, E included) is 0
    has every message decision erased: its estimate is its coin flips on I.
    """
    codec = ChainCodec(partition)
    T, N, K = config.blocks, config.N, codec.message_size
    # decode_session's own unit: a whole session with a live chain, else a block
    unit = T if codec.chain_size else 1
    units = len(trial_seeds) * T // unit
    msg_rngs, enc_rngs, pre_rngs, adv_rngs, eve_rngs = zip(*(
        map(np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
        for _, seed in trial_seeds))
    preshared = np.array([codec.preshared_state(rng) for rng in pre_rngs])
    sent = np.array([random_bit_rows(rng, T, K) for rng in msg_rngs])
    action, counts = _draw_counts(config, partition, strategy,
                                  [rng for rng in adv_rngs for _ in range(T)])
    # the units Bob decodes (a forced guess) and Eve decodes (a leak)
    dirty, live = counts[::2].reshape(2, units, unit).any(axis=2)
    keep = np.repeat([dirty, live], unit, axis=1)  # each side's blocks
    need = keep[0] | keep[1]
    codewords = polar_transform(np.concatenate([
        codec.session_u(msgs, pre, rng)[rows]
        for msgs, pre, rng, rows in zip(sent, preshared, enc_rngs, need.reshape(-1, T))]))
    bob_obs = apply_write(codewords[keep[0][need]], action.write[keep[0]])
    eve_obs = apply_read(codewords[keep[1][need]], action.read[keep[1]])
    del codewords, action  # observed: not held through the decodes

    bob_msgs = sent.reshape(units, unit, K).copy()
    if dirty.any():
        chains = np.repeat(preshared, T // unit, axis=0)
        bob_msgs[dirty] = codec.decode_session(bob_obs.reshape(-1, unit, N), chains[dirty])
    del bob_obs
    guesses = np.array([random_bit_rows(rng, T, N) for rng in eve_rngs]).reshape(
        units, unit, N)
    eve_msgs = codec.extract_message(guesses)
    if live.any():
        eve_msgs[live] = codec.decode_session(eve_obs.reshape(-1, unit, N), None,
                                              guess_bits=guesses[live])
    ir, e, leak = counts.reshape(3, len(trial_seeds), T)
    errors = [np.count_nonzero(msgs.reshape(sent.shape) != sent, axis=(1, 2)).tolist()
              for msgs in (bob_msgs, eve_msgs)]
    cell = Cell.of("end_to_end", config, strategy)
    return [
        TrialResult(cell=cell, trial=trial, seed=seed, ber_bound=float(w + c),
                    leak_bound=float(r), bob_bit_errors=bob, eve_bit_errors=eve,
                    message_bits=T * K, erased_decisions=w)
        for (trial, seed), w, c, r, bob, eve in zip(
            trial_seeds, ir.sum(axis=1).tolist(), e[:, :-1].sum(axis=1).tolist(),
            leak.sum(axis=1).tolist(), *errors)
    ]


def end_to_end_trial(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                     seed: int, trial: int = 0) -> TrialResult:
    """Encode T messages as one chained session, attack it, decode both sides
    (see _end_to_end_group)."""
    return _run_chunk(("end_to_end", config, partition, strategy, [(trial, seed)]))[0]


# Largest end-to-end session, T x N bits, a sweep accepts.  A decode group
# holds at least one whole session, at about 11 B of peak memory per bit
# (tracemalloc peak of an n=16, T=128 prefix session, every block decoded:
# 89.5 MB), so this cap keeps one session near 180 MB; an unchecked one (say
# n=16, T=10^7) fails to allocate, or takes the memory and exhausts it.
# Bounds trials hold one action each and are not capped.
MAX_SESSION_BITS = 1 << 24
# Most trials, over every cell, a sweep accepts.  Every trial's seed and
# result are held at once, about 450 B each (2^20 bounds trials at n=4 peak
# near 470 MB); an unchecked --trials 10^12 grows until the memory runs out.
MAX_TRIALS = 1 << 20


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (n, beta) cells plus everything needed to rerun it exactly."""

    kind: str
    n_list: tuple
    beta_list: tuple
    rho_w: float
    rho_r: float
    blocks: int
    strategy: Strategy
    trials: int
    base_seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("trials", "base_seed"):  # CodeConfig checks blocks
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")
        if not self.n_list or not self.beta_list:
            raise ValueError("n and beta grids must be non-empty")
        cells = len(self.n_list) * len(self.beta_list)
        if self.trials * cells > MAX_TRIALS:
            raise ValueError(f"{self.trials} trials x {cells} cells is more than "
                             f"MAX_TRIALS = {MAX_TRIALS}")
        object.__setattr__(self, "n_list", tuple(checked_int(v, "n") for v in self.n_list))
        object.__setattr__(self, "beta_list", tuple(float(v) for v in self.beta_list))
        for name, grid in (("n", self.n_list), ("beta", self.beta_list)):
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} grid repeats a value: {list(grid)}")
        tuple(self.configs())  # every cell must be a valid CodeConfig (no NaN) before its seed key
        if len({_seed_key(b) for b in self.beta_list}) != len(self.beta_list):
            raise ValueError(
                f"beta grid values closer than 1e-9 would share trial seeds: "
                f"{list(self.beta_list)}")
        bits = self.blocks * (1 << max(self.n_list))
        if self.kind == "end_to_end" and bits > MAX_SESSION_BITS:
            raise ValueError(
                f"a session of {self.blocks} blocks of N = 2^{max(self.n_list)} is {bits} "
                f"bits, more than MAX_SESSION_BITS = {MAX_SESSION_BITS}")

    def configs(self):
        """The CodeConfig of every (n, beta) cell, n-major."""
        for n in self.n_list:
            for beta in self.beta_list:
                yield CodeConfig(n=n, beta=beta, rho_w=self.rho_w, rho_r=self.rho_r,
                                 blocks=self.blocks)


@dataclass(frozen=True)
class AggregateRow:
    cell: Cell
    metric: str
    mean: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    results: tuple
    aggregates: tuple
    infeasible: tuple = field(default=())


def _run_chunk(args) -> list:
    """Worker entry: run a batch of trials for one cell (picklable payload),
    in groups of at most _GROUP_BITS stacked bits, each one stacked pass."""
    kind, config, partition, strategy, trial_seeds = args
    rows, group = (1, _bounds_group) if kind == "bounds" else (config.blocks, _end_to_end_group)
    step = max(1, _GROUP_BITS // (rows * config.N))
    return [row for lo in range(0, len(trial_seeds), step)
            for row in group(config, partition, strategy, trial_seeds[lo: lo + step])]


def _trial_metrics(r: TrialResult) -> dict:
    metrics = {"ber_bound": r.ber_bound, "leak_bound": r.leak_bound}
    if r.cell.kind == "end_to_end":
        bits = r.message_bits or 0
        metrics["bob_ber"] = r.bob_bit_errors / bits if bits else 0.0
        metrics["eve_ber"] = r.eve_bit_errors / bits if bits else 0.0
        metrics["erased_decisions"] = float(r.erased_decisions)
    return metrics


def aggregate(results) -> tuple:
    """Order-independent per-cell mean and standard error of each metric."""
    cells = {}
    for r in results:
        cells.setdefault((r.cell.n, r.cell.beta), []).append(r)
    rows = []
    for key in sorted(cells):
        group = sorted(cells[key], key=lambda r: r.trial)
        metrics = [_trial_metrics(r) for r in group]
        for metric in metrics[0]:
            vals = np.array([m[metric] for m in metrics], dtype=float)
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(
                AggregateRow(
                    cell=group[0].cell,
                    metric=metric,
                    mean=float(vals.mean()),
                    stderr=stderr,
                    trials=len(vals),
                )
            )
    return tuple(rows)


def run_sweep(spec: SweepSpec, parallelism: int = 1) -> SweepResult:
    """Run every feasible cell of the grid; infeasible cells are recorded, not fatal.

    Each cell's partition is built once and shipped to the workers.  At most
    min(parallelism, CPU count, task count) worker processes run.  Results
    come back sorted by (n, beta, trial) no matter how the work was
    scheduled, so reruns at any parallelism level emit identical CSVs.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, os.cpu_count() or 1)

    tasks = []
    infeasible = []
    for config in spec.configs():
        try:
            partition = build_partition(config)
        except InfeasibleConstruction as exc:
            infeasible.append(
                {"n": config.n, "beta": config.beta, "i_size": exc.i_size,
                 "b_size": exc.b_size}
            )
            continue
        cell = Cell.of(spec.kind, config, spec.strategy)
        trial_seeds = list(enumerate(derive_trial_seeds(spec.base_seed, cell,
                                                        range(spec.trials))))
        chunk = -(-spec.trials // workers)
        for lo in range(0, spec.trials, chunk):
            tasks.append(
                (spec.kind, config, partition, spec.strategy, trial_seeds[lo: lo + chunk])
            )

    workers = min(workers, len(tasks))
    if workers <= 1:
        batches = [_run_chunk(t) for t in tasks]
    else:
        # imported here: a serial sweep never loads the pool's 32 modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_chunk, tasks))

    results = sorted(
        (r for batch in batches for r in batch),
        key=lambda r: (r.cell.n, r.cell.beta, r.trial),
    )
    return SweepResult(
        results=tuple(results),
        aggregates=aggregate(results),
        infeasible=tuple(infeasible),
    )


def _columns(record_type) -> list:
    """CSV header: the cell columns, then the record's own fields in order."""
    return CELL_COLUMNS + [f.name for f in fields(record_type) if f.name != "cell"]


def _write_records(record_type, records, file) -> None:
    columns = _columns(record_type)
    writer = csv.writer(file)
    writer.writerow(columns)
    # csv writes None as an empty field, a float by its repr, an int by str
    for r in records:
        writer.writerow([getattr(r.cell, c) for c in CELL_COLUMNS]
                        + [getattr(r, c) for c in columns[len(CELL_COLUMNS):]])


def write_trials_csv(results, file) -> None:
    _write_records(TrialResult, results, file)


def write_aggregates_csv(rows, file) -> None:
    _write_records(AggregateRow, rows, file)


_PARSE = {"int": int, "float": float, "str": str}


def _record_from_row(record_type, row: dict):
    """Build a record from a CSV row, converting each field by its annotation;
    a nested Cell reads its own columns from the same row."""
    return record_type(**{
        f.name: _record_from_row(Cell, row) if f.type == "Cell" else _PARSE[f.type](row[f.name])
        for f in fields(record_type)
    })


def read_aggregates_csv(file) -> list:
    """Parse an aggregates CSV; ValueError on a wrong header or a malformed row."""
    columns = _columns(AggregateRow)
    reader = csv.DictReader(file)
    if reader.fieldnames != columns:
        raise ValueError(f"unexpected aggregate CSV header: {reader.fieldnames}")
    rows = []
    for rec in reader:
        # DictReader pads a short row with None and files a long row's surplus under None
        if None in rec or None in rec.values():
            raise ValueError(f"line {reader.line_num}: expected {len(columns)} fields")
        rows.append(_record_from_row(AggregateRow, rec))
    return rows
