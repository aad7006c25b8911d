"""A reference index-set draw for sample_action's masks: the same sets from
the same generator calls, computed another way.  A uniform set is the first
floor(rho*N) positions of a full stable sort of the same N keys, where the
sampler cuts at one partial selection; the stable order is the sampler's
tie rule, so keys tied with the cut are taken in position order here too.
bernoulli and prefix are the sampler's index-set draws from before it drew
masks."""

import math

import numpy as np

from awtcpolar.adversary import Strategy


def _draw_set(N, rho, strategy, rng) -> np.ndarray:
    """One sorted 1-based set: where the floor(rho*N) smallest of N uniform
    keys fall, an independent keep-with-probability-rho set, or the first
    floor(rho*N) positions."""
    size = math.floor(rho * N)
    if strategy is Strategy.UNIFORM:
        return np.sort(np.argsort(rng.random(N), kind="stable")[:size]) + 1
    if strategy is Strategy.BERNOULLI:
        return np.flatnonzero(rng.random(N) < rho) + 1
    return np.arange(1, size + 1, dtype=np.int64)


def set_draw(N, rho_w, rho_r, strategy, rng) -> tuple:
    """S_w then S_r, in that order, from one generator."""
    return _draw_set(N, rho_w, strategy, rng), _draw_set(N, rho_r, strategy, rng)
