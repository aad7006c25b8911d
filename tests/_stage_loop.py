"""The strided stage loop that realize_profile once ran, kept as the
reference for its bit-packed kernel."""

import numpy as np

from awtcpolar.polar_core import check_block_length


def stage_loop_realize(mask) -> np.ndarray:
    """Realize one (N,) mask: at stage q (Q = 2^q) the block entries
    (i, i+Q) map to (i OR i+Q, i AND i+Q), interleaved."""
    z = np.array(mask, dtype=bool)
    for q in range(check_block_length(len(z))):
        Q = 1 << q
        blk = z.reshape(-1, 2 * Q)
        a = blk[:, :Q]
        b = blk[:, Q:]
        out = np.empty_like(blk)
        out[:, 0::2] = a | b
        out[:, 1::2] = a & b
        z = out.reshape(-1)
    return z
