#!/usr/bin/env python3
"""Small end-to-end demo: run one sweep per growth regime and print the
CSV next to the theory targets.

Every sweep here is exact: with k <= 20 every instance solves well within
the exact solver's work budget.  For larger alphabets use
estimator="bracket"; an exact sweep stops with CapacityError at the first
instance that exceeds the budget.
"""

import argparse

from rflcs.experiments import SweepConfig, run_regime_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    configs = [
        SweepConfig(
            regime=1, k_list=(16, 20), trials=args.trials,
            master_seed=args.seed, estimator="exact", n_override=6,
        ),
        SweepConfig(
            regime=2, k_list=(8, 12), trials=args.trials,
            master_seed=args.seed, rho=1.0, estimator="exact",
        ),
        SweepConfig(
            regime=3, k_list=(8, 12), trials=args.trials,
            master_seed=args.seed, xi=1.0, estimator="exact",
        ),
    ]
    for cfg in configs:
        report = run_regime_sweep(cfg, workers=args.workers)
        print(f"# regime {cfg.regime}")
        print(report.to_csv(), end="")
        print()


if __name__ == "__main__":
    main()
