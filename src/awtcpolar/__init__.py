"""Secure polar coding for adversarial wiretap channels.

A library and CLI for building multi-block chained polar codes over a
noiseless channel attacked by a bounded reading/writing adversary, with
exact log-domain polarization profiles, three-valued erasure SC decoding
and a reproducible Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .adversary import Strategy, apply_read, apply_write, sample_action
from .codec import ChainCodec
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
from .polar_core import bec_profile, realize_profile

__all__ = [
    "ChainCodec",
    "CodeConfig",
    "InfeasibleConstruction",
    "Strategy",
    "SweepSpec",
    "apply_read",
    "apply_write",
    "bec_profile",
    "build_partition",
    "partition_to_csv",
    "rate_report",
    "read_aggregates_csv",
    "realize_profile",
    "run_sweep",
    "sample_action",
    "write_aggregates_csv",
    "write_trials_csv",
]
