"""The index-set draw that sample_action once made, kept as the reference
for its mask draw: the same sets, from the same generator calls."""

import math

import numpy as np

from awtcpolar.adversary import Strategy


def _draw_set(N, rho, strategy, rng) -> np.ndarray:
    """One sorted 1-based set: a uniform floor(rho*N)-subset, an independent
    keep-with-probability-rho set, or the first floor(rho*N) positions."""
    size = math.floor(rho * N)
    if strategy is Strategy.UNIFORM:
        return np.sort(rng.permutation(N)[:size]) + 1
    if strategy is Strategy.BERNOULLI:
        return np.flatnonzero(rng.random(N) < rho) + 1
    return np.arange(1, size + 1, dtype=np.int64)


def set_draw(N, rho_w, rho_r, strategy, rng) -> tuple:
    """S_w then S_r, in that order, from one generator."""
    return _draw_set(N, rho_w, strategy, rng), _draw_set(N, rho_r, strategy, rng)
