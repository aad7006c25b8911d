"""The benchmark tracer (perfbench/layertrace.py) wraps functions by name and
binds some of their parameters by name; a rename in the package must fail
here, not only in a traced benchmark run."""

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from awtcpolar import experiments
from awtcpolar.adversary import Strategy
from awtcpolar.codec import ChainCodec
from awtcpolar.construction import CodeConfig, build_partition

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "layertrace", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(monkeypatch):
    targets = load_layertrace(monkeypatch).targets()
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_wrapped_parameters_exist():
    for fn, names in (
        (experiments.bounds_trial, {"config", "seed"}),
        (experiments.end_to_end_trial, {"config", "seed"}),
        (ChainCodec.sc_decode_block, {"chain", "guess_bits"}),
    ):
        assert names <= set(inspect.signature(fn).parameters), fn.__qualname__


def traced_decode_counts(monkeypatch, cfg, strategy=Strategy.UNIFORM, seed=1):
    layertrace = load_layertrace(monkeypatch)
    part = build_partition(cfg)
    with layertrace.Tracer(layertrace.targets()) as tracer:
        experiments.end_to_end_trial(cfg, part, strategy, seed=seed)
    assert tracer.restored()
    names = Counter(span.name for span in tracer.spans)
    assert names["experiments.trial"] == 1
    return names["codec.decode_bob"], names["codec.decode_eve"]


def first_seed(cfg, accept, strategy=Strategy.UNIFORM) -> int:
    """The first seed in 1..100 whose one-seed trial row passes accept."""
    part = build_partition(cfg)
    seed = next((s for s in range(1, 101) if accept(experiments.end_to_end_trial(
        cfg, part, strategy, seed=s))), None)
    assert seed is not None, "no seed in 1..100 gives the row sought"
    return seed


def test_traced_trial_records_both_decode_sides(monkeypatch):
    """Decodes are traced through the ChainCodec.sc_decode_block class
    attribute and told apart by guess_bits: Bob passes none, Eve passes hers.
    Without a chain each side's session is one stacked decode.  Bob decodes
    only blocks with a forced guess and Eve only blocks whose leak term is
    positive, so the first trial is the first seed >= 1 whose uniform
    actions give both, and the second one whose actions force Bob a guess
    but leak nothing: Eve makes no decode there."""
    cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
    both = first_seed(cfg, lambda row: row.erased_decisions > 0 and row.leak_bound > 0)
    assert traced_decode_counts(monkeypatch, cfg, seed=both) == (1, 1)
    bob_only = first_seed(cfg, lambda row: row.erased_decisions > 0 and row.leak_bound == 0)
    assert traced_decode_counts(monkeypatch, cfg, seed=bob_only) == (1, 0)


def test_traced_live_chain_trial_records_every_block(monkeypatch):
    """With a live chain each side decodes block by block, a whole session
    or none of it.  At |B| = 3, seed 1's uniform session forces no guess and
    leaks nothing, so neither side decodes it; every prefix block does both,
    so each side decodes all T blocks.  At |B| = 1, seed 1's uniform session
    leaks but forces no guess: Eve decodes all T blocks and Bob none."""
    cfg = CodeConfig(n=10, beta=0.45, rho_w=0.1, rho_r=0.3, blocks=3)
    row = experiments.end_to_end_trial(cfg, build_partition(cfg), Strategy.UNIFORM, seed=1)
    assert row.erased_decisions == 0 and row.leak_bound == 0
    assert traced_decode_counts(monkeypatch, cfg) == (0, 0)
    assert traced_decode_counts(monkeypatch, cfg, Strategy.PREFIX) == (cfg.blocks, cfg.blocks)
    cfg = CodeConfig(n=6, beta=0.28, rho_w=0.3, rho_r=0.4, blocks=3)
    row = experiments.end_to_end_trial(cfg, build_partition(cfg), Strategy.UNIFORM, seed=1)
    assert row.erased_decisions == 0 and row.leak_bound > 0
    assert traced_decode_counts(monkeypatch, cfg) == (0, cfg.blocks)


ACTION_SPANS = ("adversary.sample_action", "adversary.write_equivalent_mask",
                "adversary.read_equivalent_mask")
OBSERVATION_SPANS = ("adversary.apply_write", "adversary.apply_read")


@pytest.mark.parametrize("kind", ["bounds", "end_to_end"])
def test_traced_chunk_records_every_adversary_layer(monkeypatch, kind):
    """Every adversary name the tracer wraps is called by a trial; a wrapper
    around a name nothing calls would read 0 busy time without failing."""
    layertrace = load_layertrace(monkeypatch)
    cfg = CodeConfig(n=6, beta=0.3, rho_w=0.2, rho_r=0.4, blocks=3)
    part = build_partition(cfg)
    with layertrace.Tracer(layertrace.targets()) as tracer:
        experiments._run_chunk((kind, cfg, part, Strategy.UNIFORM, [(0, 1), (1, 2)]))
    assert tracer.restored()
    names = Counter(span.name for span in tracer.spans)
    expected = ACTION_SPANS + (OBSERVATION_SPANS if kind == "end_to_end" else ())
    assert all(names[name] >= 1 for name in expected), names
