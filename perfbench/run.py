"""Benchmark of the nsim pipeline: trace dist -> gen | sim run -> cost -> report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEEDED = ("src/nsim/cli.py", "tests/oracles.py")


def main() -> int:
    missing = [rel for rel in NEEDED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
