#!/usr/bin/env python3
"""Small end-to-end demo: run one `rflcs sweep` per growth regime and print
each CSV, with its theory targets, under a "# regime N" title.

Every sweep here is exact: with k <= 20 every instance solves well within
the exact solver's work budget.  For larger alphabets use the default
--estimator bracket; an exact sweep exits 3 (capacity error) at the first
instance that exceeds the budget.
"""

import argparse

from rflcs import cli

SWEEPS = [
    ["--regime", "1", "--k-list", "16,20", "--n", "6"],
    ["--regime", "2", "--k-list", "8,12", "--rho", "1"],
    ["--regime", "3", "--k-list", "8,12", "--xi", "1"],
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    for regime, sweep in enumerate(SWEEPS, start=1):
        print(f"# regime {regime}")
        code = cli.main(
            ["sweep", *sweep, "--trials", str(args.trials), "--seed", str(args.seed),
             "--estimator", "exact", "--workers", str(args.workers)]
        )
        if code:
            return code
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
