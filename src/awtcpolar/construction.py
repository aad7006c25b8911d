"""Index partition and rate accounting for the chained secure polar code.

The writing fraction rho_w polarizes the legitimate link and 1-rho_r
polarizes the eavesdropper's link; intersecting the two polarized index
sets yields the five-way split (info, chain source E, random, frozen,
chain sink B) that drives the encoder and decoder.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .polar_core import (
    PolarizationProfile,
    bec_profile,
    bit_reversal_permutation,
    check_block_length,
    check_fractions,
    checked_int,
    delta_threshold,
    pack_rows,
)


class InfeasibleConstruction(Exception):
    """Raised when the block is too short to host the chain: |I| < |B|."""

    def __init__(self, i_size: int, b_size: int, config: "CodeConfig"):
        self.i_size = i_size
        self.b_size = b_size
        self.config = config
        super().__init__(
            f"cannot pair chain bits: |I|={i_size} < |B|={b_size} at "
            f"n={config.n}, beta={config.beta}, rho_w={config.rho_w}, rho_r={config.rho_r}"
        )


# Largest stage count a CodeConfig accepts.  Memory grows as 2^n: at n = 20
# each profile level and each decoded block holds N = 2^20 entries, while an
# unchecked n (say 64) would have the profile recursion double its arrays
# until memory runs out.
MAX_N = 20


@dataclass(frozen=True)
class CodeConfig:
    """Code parameters: block size 2^n, threshold exponent, fractions, chain length."""

    n: int
    beta: float
    rho_w: float
    rho_r: float
    blocks: int = 1  # T, the number of chained blocks

    def __post_init__(self):
        for name in ("n", "blocks"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.n > MAX_N:
            raise ValueError(f"n must be <= {MAX_N} (N = 2^{MAX_N}), got {self.n}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must lie in (0, 0.5), got {self.beta}")
        check_fractions(self.rho_w, self.rho_r)
        if self.blocks < 1:
            raise ValueError(f"block count must be >= 1, got {self.blocks}")

    @property
    def N(self) -> int:
        return 1 << self.n


CLASS_LABELS = ("INFO", "CHAIN_E", "RANDOM", "FROZEN", "CHAIN_B")


@dataclass(frozen=True, eq=False)
class IndexPartition:
    """The five disjoint index sets covering [1, N], each sorted ascending."""

    N: int
    info: np.ndarray
    chain_source: np.ndarray  # E, feeds the next block's chain sink
    random: np.ndarray
    frozen: np.ndarray
    chain_sink: np.ndarray  # B, carries the previous block's E bits

    def __post_init__(self):
        for name in ("info", "chain_source", "random", "frozen", "chain_sink"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        merged = np.concatenate(
            [self.info, self.chain_source, self.random, self.frozen, self.chain_sink]
        )
        if not np.array_equal(np.sort(merged), np.arange(1, self.N + 1)):
            raise ValueError("index sets must partition [1, N]")
        if len(self.chain_source) != len(self.chain_sink):
            raise ValueError("|E| must equal |B|")

    @property
    def sizes(self) -> dict:
        return {
            "info": len(self.info),
            "chain_e": len(self.chain_source),
            "random": len(self.random),
            "frozen": len(self.frozen),
            "chain_b": len(self.chain_sink),
        }

    @functools.cached_property
    def bound_masks(self) -> np.ndarray:
        """Read-only packed masks of the sets the bound sums count, one row
        each: (I union R, E, I union F), I meaning the full information set,
        chain source E included.

        The rows are bit-reversed and packed as pack_rows packs them: bit j
        is position rev(j), where realize_packed leaves decision rev(j)'s
        noise indicator.
        """
        i_full = (self.info, self.chain_source)
        masks = np.zeros((3, self.N), dtype=bool)
        for mask, sets in zip(masks, (i_full + (self.random,), (self.chain_source,),
                                      i_full + (self.frozen,))):
            for idx in sets:
                mask[idx - 1] = True
        words = pack_rows(masks[:, bit_reversal_permutation(check_block_length(self.N))])
        words.flags.writeable = False
        return words

    def classes(self) -> np.ndarray:
        """Class label of every index, position i-1 holding index i's label."""
        out = np.empty(self.N, dtype=object)
        sets = (self.info, self.chain_source, self.random, self.frozen, self.chain_sink)
        for label, idx in zip(CLASS_LABELS, sets):
            out[idx - 1] = label
        return out


def polarized_sets(profile: PolarizationProfile, log_delta: float):
    """Split indices into (H, L): near-full-noise and near-noiseless channels.

    H = {i : P_i >= 1 - delta} and L = {i : P_i <= delta}, both compared in
    the log domain (log_delta = log delta) so thresholds below 1e-300 still
    separate cleanly.  Returned as sorted 1-based index arrays.
    """
    high = profile.log_one_minus_eps <= log_delta
    low = profile.log_eps <= log_delta
    return np.flatnonzero(high) + 1, np.flatnonzero(low) + 1


def build_partition(config: CodeConfig) -> IndexPartition:
    """Build the deterministic five-way index partition for a configuration.

    The chain source E is chosen as the |B| most reliable indices of I under
    the writing profile (smallest full-noise probability, ties broken by
    ascending index) because an E error corrupts the next block's chain sink.
    """
    write_profile = bec_profile(config.rho_w, config.n)
    read_profile = bec_profile(1.0 - config.rho_r, config.n)
    log_delta = delta_threshold(config.N, config.beta)

    _, lw_idx = polarized_sets(write_profile, log_delta)
    hr_idx, _ = polarized_sets(read_profile, log_delta)
    lw = np.zeros(config.N, dtype=bool)
    lw[lw_idx - 1] = True
    hr = np.zeros(config.N, dtype=bool)
    hr[hr_idx - 1] = True

    i_set = np.flatnonzero(lw & hr) + 1
    r_set = np.flatnonzero(lw & ~hr) + 1
    f_set = np.flatnonzero(~lw & hr) + 1
    b_set = np.flatnonzero(~lw & ~hr) + 1

    if len(i_set) < len(b_set):
        raise InfeasibleConstruction(len(i_set), len(b_set), config)

    order = np.lexsort((i_set, write_profile.log_eps[i_set - 1]))
    e_set = np.sort(i_set[order[: len(b_set)]])
    info = np.setdiff1d(i_set, e_set, assume_unique=True)

    return IndexPartition(
        N=config.N,
        info=info,
        chain_source=e_set,
        random=r_set,
        frozen=f_set,
        chain_sink=b_set,
    )


@dataclass(frozen=True)
class RateReport:
    """Achieved secrecy rate against the model's secrecy capacity."""

    secrecy_rate: float
    secrecy_capacity: float
    gap: float
    sizes: dict = field(compare=False)
    N: int = 0

    def as_dict(self) -> dict:
        out = {
            "secrecy_rate": self.secrecy_rate,
            "secrecy_capacity": self.secrecy_capacity,
            "gap": self.gap,
            "N": self.N,
        }
        out.update(self.sizes)
        return out


def rate_report(partition: IndexPartition, config: CodeConfig) -> RateReport:
    r_s = len(partition.info) / partition.N
    c_s = 1.0 - config.rho_w - config.rho_r
    return RateReport(
        secrecy_rate=r_s,
        secrecy_capacity=c_s,
        gap=c_s - r_s,
        sizes=partition.sizes,
        N=partition.N,
    )


def partition_to_csv(partition: IndexPartition, file) -> None:
    """Write `index,class` rows with class in CLASS_LABELS, one per index."""
    writer = csv.writer(file)
    writer.writerow(["index", "class"])
    for i, label in enumerate(partition.classes(), start=1):
        writer.writerow([i, label])
