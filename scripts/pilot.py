#!/usr/bin/env python3
"""Regenerate the pilot-frozen thresholds in tests/fixtures/pilot.json.

Run once; the committed fixture is the reference.  Tests then detect
regressions against these frozen values, so rerun this script only when
the solver or stream layout changes deliberately.
"""

import json
import pathlib

from rflcs.experiments import run_fixed_k_saturation
from rflcs.generators import gen_uniform_pair
from rflcs.rng import RngStream
from rflcs.solvers import rflcs_exact, segment_merge_heuristic

MASTER_SEED = 42
OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "pilot.json"


def main() -> None:
    base = RngStream(MASTER_SEED)

    k, n, trials = 12, 155, 30
    vals = [
        rflcs_exact(gen_uniform_pair(n, k, base.substream(1000 + t))).length
        for t in range(trials)
    ]
    regime3 = {
        "k": k,
        "xi": 1.0,
        "n": n,
        "trials": trials,
        "stream_base": 1000,
        "fraction_full": sum(v == k for v in vals) / trials,
    }

    sat = run_fixed_k_saturation(4, 500, 200, base.substream(3000))
    fixed_k = {
        "k": sat.k,
        "n": sat.n,
        "trials": sat.trials,
        "stream_base": 3000,
        "mean": sat.mean,
    }

    he, ex = [], []
    for t in range(50):
        inst = gen_uniform_pair(155, 12, base.substream(4000 + t))
        he.append(segment_merge_heuristic(inst, 7, per_segment="exact").length)
        ex.append(rflcs_exact(inst).length)
    bracket = {
        "k": 12,
        "n": 155,
        "n_tilde": 7,
        "seeds": 50,
        "stream_base": 4000,
        "heuristic_mean": sum(he) / 50,
        "exact_mean": sum(ex) / 50,
    }

    doc = {
        "master_seed": MASTER_SEED,
        "regime3_saturation": regime3,
        "fixed_k_saturation": fixed_k,
        "heuristic_bracket": bracket,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}")
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
