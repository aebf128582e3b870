#!/usr/bin/env python3
"""Regenerate the iterate factor-statistics table for a quadratic family.

Writes one CSV row per n with the irreducible-factor count, maximum root
degree, low-degree proportion and the degree-lower-bound shape value.

    python scripts/snap_sweep.py [--config scripts/configs/snap_x2.cfg] [out.csv]
"""

import sys
from pathlib import Path

from arithdyn.cli import main

DEFAULT_CFG = Path(__file__).parent / "configs" / "snap_x2.cfg"


def run(argv):
    cfg = DEFAULT_CFG
    rest = []
    it = iter(argv)
    for a in it:
        if a == "--config":
            cfg = Path(next(it))
        else:
            rest.append(a)
    args = ["sweep", "--config", str(cfg)]
    if rest:
        args += ["--output", rest[0]]
    return main(args)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
