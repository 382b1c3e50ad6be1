"""Command-line surface.

Exit codes: 0 success, 2 usage error, 3 capacity error (a size refused
before the work, or memory running out during it), 4 check-suite failure.
A command's configuration is its argv alone: no environment variable is
read, and one parser, built at import, serves every call of ``main``.
All stochastic commands require an explicit --seed; there is no
wall-clock seeding.  Each command returns its exit code and its text (a
JSON document, a CSV table or PASS/FAIL lines); ``main`` writes it,
ending with a newline, to stdout or to the --out file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import fields
from itertools import chain, combinations
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .bounds import (
    bernstein_tail,
    claim_inequality_gap,
    coupon_tail,
    expectation_lower_bound,
    lambda_empty,
    occupancy_tail,
    p1_bound,
    p2_bound_reduction,
    regime_target,
)
from .errors import CapacityError
from .experiments import (
    SweepRow,
    run_regime_sweep,
    run_tailbound_suite,
    uniformity_test_exhaustive,
)
from .generators import gen_planted_pair, gen_uniform_pair
from .model import Instance
from .rng import RngStream
from .solvers import lcs_witness, rflcs_bruteforce, rflcs_exact, segment_merge_heuristic
from .urns import (
    GroupedUrnSpec,
    classical_urn_empty_counts,
    classical_urn_exact,
    grouped_urn_empty_counts,
    grouped_urn_exact,
    survival_from_samples,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_CHECK_FAILED = 4
# the sweep CSV: one column per SweepRow field, in order, read directly (astuple
# would deep-copy every field)
_CSV_FIELDS = [f.name for f in fields(SweepRow)]
CSV_HEADER = ",".join(_CSV_FIELDS)
_csv_values = attrgetter(*_CSV_FIELDS)
# The `bounds` ops that print {"op", their inputs in call order, "value"}.
_PLAIN_BOUNDS = {
    "lambda": (lambda_empty, ("k", "s")),
    "bernstein": (bernstein_tail, ("k", "s", "a")),
    "occupancy": (occupancy_tail, ("k", "s", "a")),
    "claim": (claim_inequality_gap, ("x", "rho")),
    "elb": (expectation_lower_bound, ("x", "p_below")),
}


def _finite_float(text: str) -> float:
    """Type of every float flag: no bound or regime is defined at nan or inf."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}") from exc


def cmd_gen(args) -> tuple[int, Iterable[str]]:
    stream = RngStream(args.seed)
    if args.planted is not None:
        inst = gen_planted_pair(args.n, args.k, args.planted, stream)
    else:
        inst = gen_uniform_pair(args.n, args.k, stream)
    return EXIT_OK, [inst.to_json()]


def cmd_solve(args) -> tuple[int, Iterable[str]]:
    with open(args.input, "rb") as fh:
        inst = Instance.from_json(fh.read())
    if args.method == "lcs":
        res = lcs_witness(inst.x, inst.y)
    elif args.method == "exact":
        res = rflcs_exact(inst)
    elif args.method == "brute":
        res = rflcs_bruteforce(inst)
    else:
        res = segment_merge_heuristic(inst, args.segment_size, per_segment=args.per_segment)
    doc = {
        "length": res.length,
        "method": args.method,
        "symbols": sorted({inst.x[i] for i, _ in res.witness}),
        "edges": res.witness,
    }
    return EXIT_OK, [json.dumps(doc)]


def cmd_urn(args) -> tuple[int, Iterable[str]]:
    k = args.k
    if args.s_vec is None:
        model, s_vec_label = "classical", str(args.s)
        samples = classical_urn_empty_counts(k, args.s, args.trials, RngStream(args.seed))
    else:
        spec = GroupedUrnSpec(k=k, s_vec=args.s_vec)
        model, s_vec_label = "grouped", ";".join(str(v) for v in spec.s_vec)
        samples = grouped_urn_empty_counts(spec, args.trials, RngStream(args.seed))
    surv = survival_from_samples(samples, k)
    # the k + 1 rows are formatted as they are written, never held whole
    rows = (
        f"{model},{k},{s_vec_label},{t},{p:.10g},{math.sqrt(p * (1 - p) / args.trials):.10g}\n"
        for t, p in enumerate(surv)
    )
    return EXIT_OK, chain(["model,k,s_vec,t,survival,stderr\n"], rows)


def cmd_urn_exact(args) -> tuple[int, Iterable[str]]:
    if args.s_vec is None:
        probs = classical_urn_exact(args.k, args.s)
    else:
        probs = grouped_urn_exact(GroupedUrnSpec(k=args.k, s_vec=args.s_vec))
    return EXIT_OK, [json.dumps(probs)]


def cmd_bounds(args) -> tuple[int, Iterable[str]]:
    op = args.op
    if op in _PLAIN_BOUNDS:
        fn, names = _PLAIN_BOUNDS[op]
        inputs = {name: getattr(args, name) for name in names}
        result = {"op": op, **inputs, "value": fn(*inputs.values())}
    elif op == "coupon":
        s, bound = coupon_tail(args.k, args.xi)
        result = {"op": op, "k": args.k, "xi": args.xi, "s": s, "value": bound}
    elif op == "regime":
        rt = regime_target(args.regime, args.k, rho=args.rho, xi=args.xi, n=args.n)
        result = {
            "op": op,
            "regime": rt.regime,
            "k": args.k,
            "n": rt.n,
            "target": rt.target,
            "tail_at_xi": rt.tail(args.xi),
        }
    elif op == "p1":
        if args.n is None:
            raise ValueError("--op p1 requires --n")
        result = {"op": op, "value": p1_bound(args.k, args.n, args.n_tilde, args.b, args.delta, args.t)}
    else:  # p2: argparse admits no other op
        s, threshold = p2_bound_reduction(args.k, args.t, args.a, args.r)
        result = {"op": op, "k": args.k, "s": s, "threshold": threshold}
    return EXIT_OK, [json.dumps(result)]


def cmd_sweep(args) -> tuple[int, Iterable[str]]:
    rows = run_regime_sweep(
        args.regime,
        args.k_list,
        args.trials,
        args.seed,
        rho=args.rho,
        xi=args.xi,
        estimator=args.estimator,
        n=args.n,
        workers=args.workers,
    )
    lines = (
        ",".join(str(v) if isinstance(v, int) else f"{v:.10g}" for v in _csv_values(row)) + "\n"
        for row in rows
    )
    return EXIT_OK, chain([CSV_HEADER + "\n"], lines)


def cmd_uniformity(args) -> tuple[int, Iterable[str]]:
    n, k = args.n, args.k
    size_counts = sorted(uniformity_test_exhaustive(n, k).items())
    doc = {
        "n": n,
        "k": k,
        "total_pairs": k ** (2 * n),
        # every l-subset is the symbol set of equally many pairs (the
        # relabelling lemma), so its bucket is size_counts[l] / C(k, l)
        "uniform": True,
        "size_counts": {str(l): c for l, c in size_counts},
        "subset_counts": {
            # C(k, l) divides perm(k, d) for every d >= l, so the quotient is
            # exact; combinations() yields the subsets in numeric key order
            str(l): dict.fromkeys(
                (",".join(map(str, sub)) for sub in combinations(range(k), l)),
                c // math.comb(k, l),
            )
            for l, c in size_counts
            if l
        },
    }
    return EXIT_OK, [json.dumps(doc)]


def cmd_check(args) -> tuple[int, Iterable[str]]:
    items = run_tailbound_suite(RngStream(args.seed), trials=args.trials)
    lines = (
        f"{'PASS' if item.passed else 'FAIL'} {item.name}: observed={item.observed:.6g} "
        f"bound={item.bound:.6g} slack={item.slack:.6g}\n"
        for item in items
    )
    return EXIT_OK if all(item.passed for item in items) else EXIT_CHECK_FAILED, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rflcs",
        description="Repetition-free LCS of random sequences: generators, "
        "solvers, urn models, bounds, and Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--planted", type=int, default=None, metavar="L")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance from JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=["exact", "brute", "heuristic", "lcs"])
    p.add_argument("--segment-size", type=int, default=None, dest="segment_size")
    p.add_argument(
        "--per-segment", choices=["exact", "lis"], default="exact", dest="per_segment"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("urn", help="Monte Carlo urn survival table (CSV)")
    p.add_argument("--k", type=int, required=True)
    balls = p.add_mutually_exclusive_group(required=True)
    balls.add_argument("--s", type=int)
    balls.add_argument("--s-vec", type=_parse_int_list, dest="s_vec")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_urn)

    p = sub.add_parser("urn-exact", help="exact empty-urn distribution (JSON)")
    p.add_argument("--k", type=int, required=True)
    balls = p.add_mutually_exclusive_group(required=True)
    balls.add_argument("--s", type=int)
    balls.add_argument("--s-vec", type=_parse_int_list, dest="s_vec")
    p.set_defaults(func=cmd_urn_exact)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound (JSON)")
    p.add_argument(
        "--op",
        required=True,
        choices=["lambda", "bernstein", "coupon", "occupancy", "p1", "p2", "claim", "regime", "elb"],
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--a", type=_finite_float, default=0.0)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--r", type=_finite_float, default=0.0)
    p.add_argument("--x", type=_finite_float, default=0.0)
    p.add_argument("--rho", type=_finite_float, default=0.0)
    p.add_argument("--xi", type=_finite_float, default=0.0)
    p.add_argument("--p-below", type=_finite_float, default=0.0, dest="p_below")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-tilde", type=int, default=1, dest="n_tilde")
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--delta", type=_finite_float, default=0.1)
    p.add_argument("--regime", type=int, default=1)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="regime sweep (CSV)")
    p.add_argument("--regime", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--k-list", type=_parse_int_list, required=True, dest="k_list")
    p.add_argument("--rho", type=_finite_float, default=0.0)
    p.add_argument("--xi", type=_finite_float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--estimator", choices=["exact", "bracket"], default="bracket")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("uniformity", help="exhaustive canonical symbol-set tally (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("check", help="run the tail-bound verification battery")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_check)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            code, chunks = args.func(args)
            # opened only now, so a refused command creates no file
            out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
            with out as fh:
                chunk = ""
                for chunk in chunks:
                    fh.write(chunk)
                if not chunk.endswith("\n"):
                    fh.write("\n")
        return code
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        # the unwound frames have freed what the failed allocation needed
        print("capacity error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
