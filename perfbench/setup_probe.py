"""Time one cold set-up: import awtcpolar, then build every cell's partition.

Run in a fresh interpreter from the root of a checkout:

    python3 perfbench/setup_probe.py '{"cells": [[10, 0.26]], "rho_w": 0.2, "rho_r": 0.4, "blocks": 50}'

Prints one JSON object with the set-up time in seconds, the mean time of
``python_yardstick`` run just before and just after it, and the file the
package was imported from.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from yardstick import python_yardstick


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path.cwd() / "src"))
    before = python_yardstick()
    start = time.perf_counter()
    import awtcpolar.cli  # noqa: F401  (the entry point every workload runs)
    from awtcpolar.construction import CodeConfig, build_partition

    for n, beta in spec["cells"]:
        build_partition(CodeConfig(n=n, beta=beta, rho_w=spec["rho_w"],
                                   rho_r=spec["rho_r"], blocks=spec["blocks"]))
    elapsed = time.perf_counter() - start
    after = python_yardstick()
    print(json.dumps({"setup_s": elapsed, "yardstick_s": (before + after) / 2,
                      "module": awtcpolar.__file__}))


if __name__ == "__main__":
    main()
