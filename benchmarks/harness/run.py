"""Benchmark entry point, runnable from the root of any checkout.

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the program is the pure-Python package under ``src/``
of the same checkout.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.harness.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    # Run as a script, this directory heads sys.path; the checkout root
    # replaces it so the package imports by its full name and no module
    # here can shadow a top-level one.
    sys.path[0] = str(ROOT)
    sys.exit(main(sys.argv[1:]))
