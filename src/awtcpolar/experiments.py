"""Monte Carlo harness: reliability/leakage bound values and end-to-end BER.

Two trial kinds share one CSV schema.  A "bounds" trial samples a single
adversary action and evaluates the T-block decoding-error and leakage bound
values on that realization.  An "end_to_end" trial runs the full chained
transmission with a fresh action per block, decodes both Bob's and Eve's
observations, and counts message bit errors on each side.

Per-trial seeds are derived from (base seed, cell parameters, trial index),
so serial and parallel sweeps produce bit-identical results.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
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
from .codec import ChainCodec, random_bit_rows
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


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> 16)


def derive_trial_seeds(base_seed: int, cell: Cell, trials) -> list:
    """Deterministic 64-bit seeds of the given trial indices of one cell:
    trial t's seed is SeedSequence(prefix + (t,)).generate_state(1, uint64)[0].

    The prefix's pool is built once; each trial index, one 32-bit word
    below 2^32, is then mixed into the pool's first two words (the only
    ones the 64-bit state reads) and the state generated, on uint32 arrays
    for all trials at once.
    """
    prefix = _seed_prefix(base_seed, cell)
    pool = np.random.SeedSequence(prefix).pool
    trials = np.asarray(trials, dtype=np.int64)
    if trials.size and not 0 <= trials.min() <= trials.max() <= _MASK32:
        raise ValueError("trial indices must lie in [0, 2^32)")
    t = trials.astype(np.uint32)
    # the hash constant after the prefix (at least 8 words): 4 pool words,
    # 12 all-pairs mixes, then 4 per entropy word past the pool's
    words = sum(max(1, -(-v.bit_length() // 32)) for v in prefix)
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _MASK32
    hash_b = _INIT_B
    state = []
    for word in pool[:2].tolist():
        # mix_entropy: hashmix the trial word, then mix it into this pool word
        next_a = hash_a * _MULT_A & _MASK32
        mixed = _xorshift((t ^ np.uint32(hash_a)) * np.uint32(next_a))
        mixed = _xorshift(np.uint32(_MIX_MULT_L * word & _MASK32)
                          - np.uint32(_MIX_MULT_R) * mixed)
        # generate_state: hash the pool word into one state word
        next_b = hash_b * _MULT_B & _MASK32
        state.append(_xorshift((mixed ^ np.uint32(hash_b)) * np.uint32(next_b)))
        hash_a, hash_b = next_a, next_b
    low, high = (half.astype(np.uint64) for half in state)
    return (low | high << np.uint64(32)).tolist()


# rows x N bits realized per realize_packed call.  It bounds the working set
# of a stacked bound evaluation whatever the number of actions: a slice's
# actions and boolean masks (64 KiB each) stay cache-sized, and slices of 2^18
# bits ran no faster while raising peak memory by about 2.5 MB.
_SLICE_BITS = 1 << 16


def block_bound_counts(partition: IndexPartition, write, noise) -> np.ndarray:
    """Per-block terms of both bound values for each row of the equivalent
    channel blocks: write and noise are Bob's and Eve's (rows, N) boolean
    full-noise indicators, as write_equivalent_mask and read_equivalent_mask
    stack them for the same actions.

    With the exact noise indicators Z of a row's writing realization and the
    exact noiseless indicators of its reading realization, the terms are
    (sum of Z over I union R, sum of Z over E, noiseless count over I union
    F), I meaning the full set including E.  Over T blocks the decoding-error
    bound adds the first term every block and the second in all blocks but
    the last; the leakage bound adds the third every block.

    Each side is realized in one realize_packed call; each term is the
    popcount of the realized words ANDed with the partition's bit-reversed
    packed set masks.  Returns a (3, rows) integer array of rows (ir, e, leak).
    """
    if not all(isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 2
               and m.shape == (len(write), partition.N) for m in (write, noise)):
        raise ValueError(f"write and noise must be boolean stacks of one shape "
                         f"(rows, {partition.N})")
    masks = partition.bound_masks
    n = check_block_length(partition.N)
    zw = realize_packed(pack_rows(write), n)
    zr = realize_packed(pack_rows(noise), n)
    hits = count_bits(np.stack([zw & masks[0], zw & masks[1], zr & masks[2]]))
    hits[2] = count_bits(masks[2]) - hits[2]
    return hits


def _bounds_trials(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                   trial_seeds) -> list:
    """Both T-block bound values of every (trial, seed): each trial draws one
    adversary action from its own default_rng(seed), in order.  The actions
    are drawn, stacked and realized in slices of at most _SLICE_BITS // N, so
    only one slice's actions are held at a time."""
    counts = np.empty((3, len(trial_seeds)), dtype=np.intp)
    step = max(1, _SLICE_BITS // config.N)
    for lo in range(0, len(trial_seeds), step):
        actions = [sample_action(config.N, config.rho_w, config.rho_r, strategy,
                                 np.random.default_rng(seed))
                   for _, seed in trial_seeds[lo: lo + step]]
        counts[:, lo: lo + step] = block_bound_counts(
            partition, write_equivalent_mask(actions), read_equivalent_mask(actions))
    T = config.blocks
    cell = Cell.of("bounds", config, strategy)
    return [
        TrialResult(cell=cell, trial=trial, seed=seed,
                    ber_bound=float(T * w + (T - 1) * c), leak_bound=float(T * r))
        for (trial, seed), (w, c, r) in zip(trial_seeds, counts.T.tolist())
    ]


def bounds_trial(
    config: CodeConfig,
    partition: IndexPartition,
    strategy: Strategy,
    seed: int,
    trial: int = 0,
) -> TrialResult:
    """Sample one adversary action and evaluate both T-block bound values on it."""
    return _bounds_trials(config, partition, strategy, [(trial, seed)])[0]


# sessions x T x N bits stacked per decode_session call.  A group of an
# end-to-end chunk's trials holds as many whole sessions as fit, and at least
# one, so its stacked observations, guesses and decoder state (about 8 B per
# bit) stay bounded however many trials a chunk has.  Two n=12, T=50
# sessions (409,600 bits) still fit in one group.
_GROUP_BITS = 1 << 19


def _end_to_end_trials(config: CodeConfig, partition: IndexPartition, strategy: Strategy,
                       trial_seeds) -> list:
    """Encode, attack and decode one chained session per (trial, seed).

    Each trial draws from five streams spawned from its seed: its messages,
    the encoder's fresh bits, the pre-shared bits, one adversary action per
    block (the T actions give the bound terms and both sides' observations)
    and Eve's coin flips, one row of N per block.  Bob decodes with the
    pre-shared bits; Eve decodes without them, her erased decisions resolving
    to her coin flips.  The trials are decoded in groups of at most
    _GROUP_BITS stacked bits (at least one session), one decode_session call
    per side and group, so a trial's row does not depend on its group.  Each
    trial's codewords and actions are dropped once its observations are
    stacked, and Eve's coin flips are drawn after Bob's decode, to keep the
    group's working set small.  The recorded bound values are the
    per-realization sums over the actual per-block draws.

    SC forces Bob's guesses exactly on the decided positions of the write
    realization's noisy channels (acceptance criterion 5), which
    block_bound_counts already counts as each block's ir term, so a trial's
    erased decisions are the sum of its ir terms.  Bob decodes only the
    blocks with a forced guess, or with a live chain only the sessions
    holding one; every other block keeps its sent message.  This is exact:
    with no forced guess and correct chain bits SC on the BEC returns the
    sent u, chain source E included.  So every block of a session before its
    first damaged block hands the next block correct chain bits.
    """
    codec = ChainCodec(partition)
    T, N = config.blocks, config.N
    cell = Cell.of("end_to_end", config, strategy)
    group = max(1, _GROUP_BITS // (T * N))
    # decode_session's own unit: a whole session with a live chain, else a block
    unit = T if codec.chain_size else 1
    results = []
    for lo in range(0, len(trial_seeds), group):
        batch = trial_seeds[lo: lo + group]
        bob_obs = np.empty((len(batch), T, N), dtype=np.int8)
        eve_obs = np.empty_like(bob_obs)
        preshared = np.empty((len(batch), codec.chain_size), dtype=np.uint8)
        sent = np.empty((len(batch), T, codec.message_size), dtype=np.uint8)
        forced = np.empty((len(batch), T), dtype=np.intp)
        bounds, eve_rngs = [], []
        for s, (_, seed) in enumerate(batch):
            msg_rng, enc_rng, pre_rng, adv_rng, eve_rng = map(
                np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
            eve_rngs.append(eve_rng)
            preshared[s] = codec.preshared_state(pre_rng)
            sent[s] = random_bit_rows(msg_rng, T, codec.message_size)
            codewords = codec.encode_session(sent[s], preshared[s], enc_rng)
            actions = [sample_action(N, config.rho_w, config.rho_r, strategy, adv_rng)
                       for _ in range(T)]
            write, noise = write_equivalent_mask(actions), read_equivalent_mask(actions)
            ir, e, leak = block_bound_counts(partition, write, noise)
            forced[s] = ir
            bounds.append((float(ir.sum() + e[:-1].sum()), float(leak.sum())))
            bob_obs[s] = apply_write(codewords, write)
            eve_obs[s] = apply_read(codewords, ~noise)
        del codewords, actions, write, noise

        dirty = forced.reshape(-1, unit).any(axis=1)
        bob_msgs = sent.reshape(len(dirty), unit, codec.message_size).copy()
        if dirty.any():
            chains = np.repeat(preshared, T // unit, axis=0)
            bob_msgs[dirty] = codec.decode_session(
                bob_obs.reshape(-1, unit, N)[dirty], chains[dirty])[0]
        del bob_obs
        guesses = np.empty_like(eve_obs, dtype=np.uint8)
        for s, eve_rng in enumerate(eve_rngs):
            guesses[s] = random_bit_rows(eve_rng, T, N)
        eve_msgs, _ = codec.decode_session(eve_obs, None, guess_bits=guesses)
        bob_errors = np.count_nonzero(bob_msgs.reshape(sent.shape) != sent,
                                      axis=(1, 2)).tolist()
        erased = forced.sum(axis=1).tolist()
        eve_errors = np.count_nonzero(eve_msgs != sent, axis=(1, 2)).tolist()
        for s, (trial, seed) in enumerate(batch):
            results.append(TrialResult(
                cell=cell,
                trial=trial,
                seed=seed,
                ber_bound=bounds[s][0],
                leak_bound=bounds[s][1],
                bob_bit_errors=bob_errors[s],
                eve_bit_errors=eve_errors[s],
                message_bits=T * codec.message_size,
                erased_decisions=erased[s],
            ))
    return results


def end_to_end_trial(
    config: CodeConfig,
    partition: IndexPartition,
    strategy: Strategy,
    seed: int,
    trial: int = 0,
) -> TrialResult:
    """Encode T messages as one chained session, attack it, decode both sides
    (see _end_to_end_trials)."""
    return _end_to_end_trials(config, partition, strategy, [(trial, seed)])[0]


# Largest end-to-end session, T x N bits, a sweep accepts.  A decode group
# holds at least one whole session, at about 12 B of peak memory per bit
# (n=16, T=128 sessions, every block decoded), so this cap keeps one session
# near 200 MB; an unchecked one (say n=16, T=10^7) fails to allocate, or
# takes the memory and exhausts it.  Bounds trials hold one action each and
# are not capped.
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
    spec: SweepSpec
    results: tuple
    aggregates: tuple
    infeasible: tuple = field(default=())


def _run_chunk(args) -> list:
    """Worker entry: run a batch of trials for one cell (picklable payload)."""
    kind, config, partition, strategy, trial_seeds = args
    trials = _bounds_trials if kind == "bounds" else _end_to_end_trials
    return trials(config, partition, strategy, trial_seeds)


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_chunk, tasks))

    results = sorted(
        (r for batch in batches for r in batch),
        key=lambda r: (r.cell.n, r.cell.beta, r.trial),
    )
    return SweepResult(
        spec=spec,
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
