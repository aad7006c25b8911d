"""Every public entry that takes bits or trits applies one rule: the values
are checked before any cast, and any integer or boolean dtype holding the
same values gives the same result."""

import numpy as np
import pytest

from awtcpolar.adversary import apply_read, apply_write
from awtcpolar.codec import ChainCodec, polar_transform
from awtcpolar.construction import IndexPartition
from awtcpolar.polar_core import realize_profile

CODEC = ChainCodec(IndexPartition(N=8, info=[5, 6, 7], chain_source=[8], random=[4],
                                  frozen=[1, 2], chain_sink=[3]))
BITS = np.array([[1, 0, 1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 0, 1]])
TRITS = np.array([[1, 2, 0, 1, 2, 2, 0, 1], [0, 0, 2, 1, 1, 0, 2, 0]])
MASK = BITS.astype(bool)


def _encode(messages, preshared):
    return CODEC.encode_session(messages, preshared, np.random.default_rng(0))


def _decode(y, chain, guess_bits):
    return vars(CODEC.sc_decode_block(y, chain, guess_bits=guess_bits))


# entry: (the name its error gives, the alphabet's top value, a valid
# argument, the call with that argument replaced)
ENTRIES = {
    "polar_transform": ("u", 1, BITS, polar_transform),
    "encode_session.messages": ("messages", 1, BITS[:, :3],
                                lambda v: _encode(v, [1])),
    "encode_session.preshared": ("chain", 1, BITS[0, :1],
                                 lambda v: _encode(BITS[:, :3], v)),
    "sc_decode_block.y": ("observations", 2, TRITS,
                          lambda v: _decode(v, [1], BITS)),
    "sc_decode_block.guess_bits": ("guess_bits", 1, BITS,
                                   lambda v: _decode(TRITS, None, v)),
    "sc_decode_block.chain": ("chain", 1, BITS[:, :1],
                              lambda v: _decode(TRITS, v, None)),
    "decode_session": ("observations", 2, TRITS,
                       lambda v: CODEC.decode_session(v, [1], guess_bits=BITS)),
    "apply_write": ("codeword", 1, BITS, lambda v: apply_write(v, MASK)),
    "apply_read": ("codeword", 1, BITS, lambda v: apply_read(v, MASK)),
    "realize_profile": ("mask", 1, BITS, realize_profile),
}


def _with(valid, value, dtype=None):
    """valid with its first entry replaced by value, as dtype."""
    bad = valid.copy().astype(dtype or valid.dtype)
    bad.flat[0] = value
    return bad


@pytest.mark.parametrize("entry", ENTRIES)
def test_rejects_values_outside_the_alphabet_and_accepts_every_integer_dtype(entry):
    name, top, valid, call = ENTRIES[entry]
    above = top + 1
    bad_inputs = (
        _with(valid, above, np.uint8),
        _with(valid, -1, np.int8),
        _with(valid, 257, np.int64),
        _with(valid, -255, np.int64),
        _with(valid, 0.5, float),
        _with(valid, np.nan, float),
        _with(valid, above).tolist(),
    )
    for bad in bad_inputs:
        with pytest.raises(ValueError, match=f"{name} must be"):
            call(bad)

    bases = [valid & 1] + ([valid] if top == 2 else [])
    for base in bases:
        dtypes = [np.uint8, np.int8, np.int64] + ([bool] if base.max() <= 1 else [])
        expected = call(base.astype(np.uint8))
        for dtype in dtypes:
            np.testing.assert_equal(call(base.astype(dtype)), expected)
