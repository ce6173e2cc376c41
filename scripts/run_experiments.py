#!/usr/bin/env python3
"""Run every experiment preset and collect the CSVs in one directory.

Equivalent to calling `craoi experiment <name>` once per preset; useful for
regenerating all figure and table data in a single deterministic pass.
"""

import argparse
import sys
import time
from pathlib import Path

from craoi.experiments import DEFAULT_SEED, PRESETS, run_preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base simulation seed")
    parser.add_argument(
        "--presets",
        nargs="*",
        default=list(PRESETS),
        choices=PRESETS,
        help="subset of presets to run (default: all)",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    for name in args.presets:
        start = time.perf_counter()
        path = run_preset(name, out_dir, seed=args.seed)
        print(f"{name}: wrote {path} in {time.perf_counter() - start:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
