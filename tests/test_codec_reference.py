"""Cross-validation of the SC decoder against a brute-force reference.

The reference decider never message-passes: for each position in schedule
order it enumerates every completion of the committed prefix and asks which
values of the current bit stay consistent with the unerased codeword
positions.  That is exactly the prefix-conditioned posterior of erasure SC,
so both decoders must agree bit for bit while the committed prefix remains
consistent with the evidence, including how wrong guesses corrupt later
determined bits.

Once a wrong commitment (a bad guess, or a fixed bit pinned against the
evidence) makes the constraint system infeasible, the conditioned event has
probability zero and per-step posteriors stop being defined; from there the
operational precedence rules of the decoder are authoritative and the
reference only reports where feasibility broke.  Commitments chosen from
inside the feasible set (every all-decision decode, or guesses equal to the
transmitted bits) never break feasibility, so those regimes are compared in
full.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awtcpolar.codec import ChainCodec, Trit, polar_transform
from awtcpolar.construction import CodeConfig, IndexPartition, build_partition


def reference_sc_decode(y, roles, fixed, guess_bits=None):
    """Enumeration-based SC over erasures.

    roles: 0 = channel decision, otherwise fixed (value in `fixed`).
    Returns (u_hat, guessed 0-based positions, broke_at) where broke_at is
    the first schedule position whose feasible set came back empty (None if
    feasibility never broke; decisions at and after broke_at are not
    meaningful).
    """
    y = np.asarray(y)
    N = len(y)
    known_pos = np.flatnonzero(y != Trit.ERASED)
    known_val = (y[known_pos] == Trit.ONE).astype(np.uint8)
    prefix = []
    guessed = []

    def feasible_values(i):
        out = set()
        tail = N - i - 1
        for bit in (0, 1):
            for completion in itertools.product((0, 1), repeat=tail):
                u = np.array(prefix + [bit] + list(completion), dtype=np.uint8)
                if np.array_equal(polar_transform(u)[known_pos], known_val):
                    out.add(bit)
                    break
        return out

    for i in range(N):
        feasible = feasible_values(i)
        if not feasible:
            return np.array(prefix + [0] * (N - i), dtype=np.uint8), guessed, i
        if roles[i] != 0:
            prefix.append(int(fixed[i]))
            continue
        if len(feasible) == 1:
            prefix.append(feasible.pop())
        else:
            guessed.append(i)
            prefix.append(0 if guess_bits is None else int(guess_bits[i]))
    return np.array(prefix, dtype=np.uint8), guessed, None


def as_partition(N, roles):
    empty = np.array([], dtype=np.int64)
    return IndexPartition(
        N=N,
        info=np.flatnonzero(roles == 0) + 1,
        chain_source=empty,
        random=empty,
        frozen=np.flatnonzero(roles != 0) + 1,
        chain_sink=empty,
    )


def assert_agrees_until_break(res, ref_u, ref_guessed, broke_at):
    limit = len(ref_u) if broke_at is None else broke_at
    np.testing.assert_array_equal(res.u[:limit], ref_u[:limit])
    sc_guessed = [g for g in np.flatnonzero(res.erased).tolist() if g < limit]
    assert sc_guessed == [g for g in ref_guessed if g < limit]


@pytest.mark.parametrize("n", [2, 3])
def test_matches_reference_with_random_erasures(n):
    N = 1 << n
    rng = np.random.default_rng(1000 + n)
    complete = 0
    for _ in range(120):
        roles = (rng.random(N) < 0.3).astype(int)  # ~30% frozen
        codec = ChainCodec(as_partition(N, roles))
        u = rng.integers(0, 2, N, dtype=np.uint8)
        u[roles != 0] = 0
        x = polar_transform(u)
        y = x.astype(np.int8).copy()
        y[rng.random(N) < rng.uniform(0.0, 0.8)] = Trit.ERASED
        guess = rng.integers(0, 2, N, dtype=np.uint8)

        ref_u, ref_guessed, broke_at = reference_sc_decode(
            y, roles, np.zeros(N, dtype=np.uint8), guess
        )
        res = codec.sc_decode_block(y, np.array([], dtype=np.uint8),
                                    guess_bits=guess)
        assert_agrees_until_break(res, ref_u, ref_guessed, broke_at)
        complete += broke_at is None
    assert complete > 60  # most draws stay feasible end to end


@pytest.mark.parametrize("n", [2, 3])
def test_matches_reference_fully_with_truthful_guesses(n):
    # guesses equal to the transmitted bits keep every prefix feasible, so
    # agreement must be total even with fixed positions in the mix
    N = 1 << n
    rng = np.random.default_rng(2000 + n)
    for _ in range(80):
        roles = (rng.random(N) < 0.3).astype(int)
        codec = ChainCodec(as_partition(N, roles))
        u = rng.integers(0, 2, N, dtype=np.uint8)
        u[roles != 0] = 0
        x = polar_transform(u)
        y = x.astype(np.int8).copy()
        y[rng.random(N) < rng.uniform(0.0, 0.8)] = Trit.ERASED

        ref_u, ref_guessed, broke_at = reference_sc_decode(
            y, roles, np.zeros(N, dtype=np.uint8), u
        )
        assert broke_at is None
        res = codec.sc_decode_block(y, np.array([], dtype=np.uint8),
                                    guess_bits=u)
        np.testing.assert_array_equal(res.u, ref_u)
        np.testing.assert_array_equal(res.u, u)
        assert np.flatnonzero(res.erased).tolist() == ref_guessed


def test_matches_reference_on_wrong_guess_corruption():
    """With every position a channel decision, commitments always come from
    the feasible set, so the decoders must agree in full even though wrong
    guesses corrupt later determined bits; the corruption itself is a
    property of prefix-conditioned decoding, not of the implementation."""
    N = 8
    rng = np.random.default_rng(77)
    roles = np.zeros(N, dtype=int)
    codec = ChainCodec(as_partition(N, roles))
    corrupt_cases = 0
    for _ in range(200):
        u = rng.integers(0, 2, N, dtype=np.uint8)
        x = polar_transform(u)
        y = x.astype(np.int8).copy()
        y[rng.random(N) < 0.5] = Trit.ERASED
        ref_u, ref_guessed, broke_at = reference_sc_decode(
            y, roles, np.zeros(N, dtype=np.uint8)
        )
        assert broke_at is None
        res = codec.sc_decode_block(y, np.array([], dtype=np.uint8))
        np.testing.assert_array_equal(res.u, ref_u)
        assert np.flatnonzero(res.erased).tolist() == ref_guessed
        wrong_elsewhere = [
            i for i in range(N)
            if res.u[i] != u[i] and not res.erased[i]
        ]
        if wrong_elsewhere:
            corrupt_cases += 1
    assert corrupt_cases > 10  # the interesting regime actually occurred


def test_matches_reference_with_real_partition():
    cfg = CodeConfig(n=3, beta=0.3, rho_w=0.2, rho_r=0.4)
    part = build_partition(cfg)
    codec = ChainCodec(part)
    roles = np.zeros(8, dtype=int)
    roles[part.frozen - 1] = 1
    rng = np.random.default_rng(5)
    for _ in range(100):
        chain = codec.preshared_state(rng)
        msg = rng.integers(0, 2, codec.message_size, dtype=np.uint8)
        x, _ = codec.encode_block(msg, chain, rng)
        y = x.astype(np.int8).copy()
        y[rng.random(8) < 0.4] = Trit.ERASED
        ref_u, ref_guessed, broke_at = reference_sc_decode(
            y, roles, np.zeros(8, dtype=np.uint8)
        )
        res = codec.sc_decode_block(y, chain)
        assert_agrees_until_break(res, ref_u, ref_guessed, broke_at)


@st.composite
def decode_cases(draw):
    """Random roles, transmitted u (fixed positions zero), erasures and guesses."""
    N = draw(st.sampled_from([2, 4, 8]))
    bits = st.lists(st.booleans(), min_size=N, max_size=N).map(np.array)
    roles = draw(bits).astype(int)
    u = draw(bits).astype(np.uint8) * (roles == 0)
    y = polar_transform(u).astype(np.int8)
    y[draw(bits)] = Trit.ERASED
    return roles, u, y, draw(bits).astype(np.uint8)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(decode_cases())
def test_property_matches_reference_and_strict(case):
    roles, u, y, guess = case
    N = len(y)
    codec = ChainCodec(as_partition(N, roles))
    no_chain = np.array([], dtype=np.uint8)
    fixed = np.zeros(N, dtype=np.uint8)

    res = codec.sc_decode_block(y, no_chain, guess_bits=guess)
    assert_agrees_until_break(res, *reference_sc_decode(y, roles, fixed, guess))

    # truthful guesses keep every known message consistent: no fixed
    # position reads the other bit, and u is recovered
    clean = codec.sc_decode_block(y, no_chain, guess_bits=u)
    assert not clean.residual.any()
    np.testing.assert_array_equal(clean.u, u)
