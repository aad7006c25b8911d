"""Observation strings over 0, 1 and ? for writing test vectors by hand."""

import numpy as np

from awtcpolar.codec import Trit


def trits_from_str(s: str) -> np.ndarray:
    table = {"0": Trit.ZERO, "1": Trit.ONE, "?": Trit.ERASED}
    try:
        return np.array([table[c] for c in s], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"observation strings use only 0, 1 and ?, got {exc}") from exc


def trits_to_str(y: np.ndarray) -> str:
    return "".join("01?"[int(v)] for v in y)
