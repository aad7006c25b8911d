"""Adversarial read/write set sampling and its effect on transmissions.

The adversary erases the bits it writes (Bob sees '?') and captures the bits
it reads (Eve sees everything else as '?').  The uniform and prefix
samplers draw exactly floor(rho * N) positions.  The bernoulli sampler keeps
each position independently with probability rho, so its set size is
Binomial(N, rho) and can exceed the floor(rho * N) budget.  The two sets are
drawn independently and may overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import Trit


class Strategy(Enum):
    UNIFORM = "uniform"
    BERNOULLI = "bernoulli"
    PREFIX = "prefix"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown strategy {name!r}; choose from "
                f"{[s.value for s in cls]}"
            ) from None


@dataclass(frozen=True, eq=False)
class AdversaryAction:
    """One adversary move: the written set S_w and the read set S_r (1-based)."""

    N: int
    write_set: np.ndarray
    read_set: np.ndarray

    def __post_init__(self):
        for name in ("write_set", "read_set"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if len(arr) and (arr.min() < 1 or arr.max() > self.N):
                raise ValueError(f"{name} indices must lie in [1, {self.N}]")


def _draw_set(N: int, rho: float, strategy: Strategy, rng: np.random.Generator) -> np.ndarray:
    size = math.floor(rho * N)
    if strategy is Strategy.UNIFORM:
        # Fisher-Yates prefix: a uniform fixed-size subset
        return np.sort(rng.permutation(N)[:size]) + 1
    if strategy is Strategy.BERNOULLI:
        return np.flatnonzero(rng.random(N) < rho) + 1
    return np.arange(1, size + 1, dtype=np.int64)


def sample_action(
    N: int,
    rho_w: float,
    rho_r: float,
    strategy: Strategy,
    rng: np.random.Generator,
) -> AdversaryAction:
    """Draw S_w then S_r (in that order, independently) from one rng stream."""
    if rho_w < 0.0 or rho_r < 0.0 or rho_w + rho_r >= 1.0:
        raise ValueError(
            f"fractions must be non-negative with rho_w + rho_r < 1, "
            f"got {rho_w} + {rho_r}"
        )
    write_set = _draw_set(N, rho_w, strategy, rng)
    read_set = _draw_set(N, rho_r, strategy, rng)
    return AdversaryAction(N=N, write_set=write_set, read_set=read_set)


def apply_write(x, write_set) -> np.ndarray:
    """Bob's observation: the codeword with every written position erased."""
    y = np.asarray(x, dtype=np.int8).copy()
    y[np.asarray(write_set, dtype=np.int64) - 1] = Trit.ERASED
    return y


def apply_read(x, read_set) -> np.ndarray:
    """Eve's observation: erased everywhere except the positions she reads."""
    x = np.asarray(x, dtype=np.int8)
    z = np.full(len(x), Trit.ERASED, dtype=np.int8)
    idx = np.asarray(read_set, dtype=np.int64) - 1
    z[idx] = x[idx]
    return z


def _equivalent_mask(actions, attr: str, listed: bool) -> np.ndarray:
    """Per-position indicators of membership in each action's `attr` set:
    True where a position is listed when `listed`, where it is absent
    otherwise.  One action gives (N,); a sequence of actions of one N gives
    (rows, N), one row per action in order."""
    single = isinstance(actions, AdversaryAction)
    stack = [actions] if single else list(actions)
    if not stack:
        raise ValueError("need at least one action")
    bits = np.full((len(stack), stack[0].N), not listed)
    for row, action in zip(bits, stack):
        if action.N != len(row):
            raise ValueError("stacked actions must share one block length N")
        row[getattr(action, attr) - 1] = listed
    return bits[0] if single else bits


def write_equivalent_mask(actions) -> np.ndarray:
    """Bob's equivalent channel block: bits[i] is True (full noise) iff i+1 is in S_w.

    One action gives (N,); a sequence of actions gives one row per action.
    """
    return _equivalent_mask(actions, "write_set", True)


def read_equivalent_mask(actions) -> np.ndarray:
    """Eve's equivalent channel block: bits[i] is True (full noise) iff i+1 is not in S_r.

    One action gives (N,); a sequence of actions gives one row per action.
    """
    return _equivalent_mask(actions, "read_set", False)
