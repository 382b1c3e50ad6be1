#!/usr/bin/env python3
"""Regenerate the golden manifest of CLI outputs, tests/fixtures/golden.json.

Runs ``rflcs.cli.main`` in-process over a fixed grid of argvs: every
subcommand, every ``solve`` method and ``bounds`` op, bracket and exact
sweeps in each regime at one and two workers, ``uniformity`` shapes, both
urn models in ``urn`` and ``urn-exact``, ``check`` at a passing and a
failing seed, and one usage and one capacity exit per command that has
one.  Each entry records the argv, the exit code and the sha256 of stdout.
A ``solve`` entry also records the ``gen`` argv of its instance, which is
written to a temporary file and passed as ``--input``.

The committed manifest is the reference, and a Tier-1 test replays it.
A change that moves output bytes or exit codes reruns this script
(``PYTHONPATH=src python3 scripts/golden.py``) and names every entry that
moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from rflcs import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "golden.json"

# instances for `solve`, as `gen` argvs
MIXED = ["gen", "--n", "30", "--k", "25", "--seed", "27"]
SMALL = ["gen", "--n", "12", "--k", "4", "--seed", "3"]
PLANTED = ["gen", "--n", "40", "--k", "8", "--seed", "5", "--planted", "6"]
TOO_LONG_FOR_BRUTE = ["gen", "--n", "13", "--k", "4", "--seed", "3"]


def _sweeps():
    bracket = [
        ["--regime", "1", "--n", "60", "--k-list", "30,50", "--trials", "3"],
        ["--regime", "2", "--rho", "1", "--k-list", "16,30", "--trials", "2"],
        ["--regime", "3", "--xi", "1", "--k-list", "8,16", "--trials", "2"],
    ]
    exact = [
        ["--regime", "1", "--n", "10", "--k-list", "25", "--trials", "4"],
        ["--regime", "2", "--rho", "4", "--k-list", "13", "--trials", "8"],
        ["--regime", "3", "--xi", "1", "--k-list", "13", "--trials", "8"],
    ]
    for workers in ("1", "2"):
        for args in bracket:
            yield ["sweep", *args, "--seed", "11", "--workers", workers]
        for args in exact:
            yield ["sweep", *args, "--seed", "11", "--estimator", "exact", "--workers", workers]


def grid():
    """(argv, instance gen argv or None) pairs, in manifest order."""
    plain = [
        # gen
        MIXED,
        PLANTED,
        ["gen", "--n", "5", "--k", "0", "--seed", "1"],
        ["gen", "--n", "10000000000", "--k", "2", "--seed", "1"],
        # bounds: every op, then the regimes and the usage exits
        ["bounds", "--op", "lambda", "--k", "10", "--s", "10"],
        ["bounds", "--op", "bernstein", "--k", "100", "--s", "200", "--a", "5"],
        ["bounds", "--op", "coupon", "--k", "100", "--xi", "1"],
        ["bounds", "--op", "occupancy", "--k", "100", "--s", "200", "--a", "5"],
        ["bounds", "--op", "p1", "--k", "4", "--n", "10", "--n-tilde", "2", "--b", "2", "--t", "1", "--a", "1", "--r", "2"],
        ["bounds", "--op", "p2", "--k", "100", "--n", "1000", "--n-tilde", "31", "--b", "32", "--t", "3", "--a", "2", "--r", "5"],
        ["bounds", "--op", "claim", "--x", "0.5", "--rho", "1"],
        ["bounds", "--op", "elb", "--x", "3", "--p-below", "0.25"],
        ["bounds", "--op", "regime", "--regime", "1", "--k", "400", "--n", "800", "--xi", "0.5"],
        ["bounds", "--op", "regime", "--regime", "2", "--k", "16", "--rho", "1", "--xi", "0.5"],
        ["bounds", "--op", "regime", "--regime", "3", "--k", "16", "--xi", "1"],
        ["bounds", "--op", "coupon", "--k", "100", "--xi", "inf"],
        ["bounds", "--op", "regime", "--regime", "2", "--k", "16", "--rho", "1", "--n", "20"],
        ["bounds", "--op", "regime", "--regime", "1", "--k", "4", "--n", "-5"],
        ["bounds", "--op", "p1", "--k", "10", "--n", "10", "--t", "1.4e154"],
        ["bounds", "--op", "p1", "--k", "10", "--n", "1" + "0" * 309, "--t", "1"],
        # p2 without the segmentation it does not read, and p1 with an a it
        # does not read
        ["bounds", "--op", "p2", "--k", "100", "--t", "3", "--a", "2", "--r", "5"],
        ["bounds", "--op", "p2", "--k", "100", "--n", "10", "--n-tilde", "31", "--b", "32", "--t", "3", "--a", "2", "--r", "5"],
        ["bounds", "--op", "p1", "--k", "4", "--n", "10", "--t", "1", "--a", "-1"],
        # p1 with a k, an n_tilde or a b that does not fit a float
        ["bounds", "--op", "p1", "--k", "1" + "0" * 309, "--n", "10", "--t", "1"],
        ["bounds", "--op", "p1", "--n", "1" + "0" * 400, "--n-tilde", "1" + "0" * 399, "--b", "2", "--t", "0"],
        ["bounds", "--op", "p1", "--k", "4", "--n", "1" + "0" * 400, "--b", "1" + "0" * 399, "--t", "0"],
        # a regime-1 n that fits a float, but whose target 2n/sqrt(k) does not
        ["bounds", "--op", "regime", "--regime", "1", "--k", "2", "--n", "1" + "0" * 308],
        # sweep
        *_sweeps(),
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "16", "--n", "20", "--trials", "1", "--seed", "1"],
        ["sweep", "--regime", "3", "--xi", "1", "--k-list", "1000000", "--trials", "1", "--seed", "1"],
        # uniformity
        ["uniformity", "--n", "1", "--k", "5"],
        ["uniformity", "--n", "2", "--k", "3"],
        ["uniformity", "--n", "3", "--k", "4"],
        ["uniformity", "--n", "2", "--k", "0"],
        ["uniformity", "--n", "7", "--k", "3"],
        # one pair and no buckets; the largest k at n = 1, one bucket of k
        # keys; and the first k past the pair cap
        ["uniformity", "--n", "0", "--k", "5"],
        ["uniformity", "--n", "1", "--k", "3162"],
        ["uniformity", "--n", "1", "--k", "3163"],
        # urn
        ["urn", "--k", "5", "--s", "5", "--trials", "2000", "--seed", "9"],
        ["urn", "--k", "100", "--s", "922", "--trials", "5000", "--seed", "7"],
        ["urn", "--k", "50", "--s-vec", "10,10,10,10,10", "--trials", "5000", "--seed", "1844546741"],
        ["urn", "--k", "12", "--s-vec", "0,3,5", "--trials", "301", "--seed", "52"],
        ["urn", "--k", "5", "--trials", "10", "--seed", "1"],
        ["urn", "--k", "10", "--s", "5", "--trials", "1000000000000", "--seed", "1"],
        ["urn", "--k", "1048576", "--s-vec", "1", "--trials", "1048576", "--seed", "1"],
        ["urn", "--k", "2097152", "--s", "-1", "--trials", "10", "--seed", "1"],
        ["urn", "--k", "1048577", "--s", "5", "--trials", "10", "--seed", "1"],
        ["urn", "--k", "1048577", "--s-vec", "1", "--trials", "10", "--seed", "1"],
        # urn-exact
        ["urn-exact", "--k", "2", "--s", "2"],
        ["urn-exact", "--k", "30", "--s", "200"],
        ["urn-exact", "--k", "7", "--s-vec", "2,3,3,2"],
        ["urn-exact", "--k", "50", "--s-vec", "10,10,10,10,10"],
        ["urn-exact", "--k", "3", "--s-vec", "4"],
        ["urn-exact", "--k", "1000000000", "--s", "1000000000"],
        ["urn-exact", "--k", "600000", "--s", "1"],
        ["urn-exact", "--k", "1048577", "--s", "0"],
        # urn-exact at the chain's cost cap: both sides at k = 2^20, a huge
        # classical s, and one or two wide groups
        ["urn-exact", "--k", "1048576", "--s", "440"],
        ["urn-exact", "--k", "1048576", "--s", "470"],
        ["urn-exact", "--k", "5", "--s", "1000000000000000000000000000000"],
        ["urn-exact", "--k", "200000", "--s-vec", "100000"],
        ["urn-exact", "--k", "50000", "--s-vec", "5000,5000"],
        # check
        ["check", "--seed", "42", "--trials", "20000"],
        ["check", "--trials", "50000", "--seed", "652129507"],
        ["check", "--trials", "20000"],
        ["check", "--seed", "1", "--trials", "1000000000000"],
    ]
    solves = [
        (["solve", "--method", "exact"], MIXED),
        (["solve", "--method", "lcs"], MIXED),
        (["solve", "--method", "heuristic"], MIXED),
        (["solve", "--method", "heuristic", "--segment-size", "5", "--per-segment", "lis"], MIXED),
        (["solve", "--method", "exact"], PLANTED),
        (["solve", "--method", "brute"], SMALL),
        (["solve", "--method", "heuristic", "--segment-size", "0"], MIXED),
        (["solve", "--method", "brute"], TOO_LONG_FOR_BRUTE),
    ]
    return [(argv, None) for argv in plain] + solves


def _main_quietly(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run(argv: list[str], instance: list[str] | None) -> tuple[int, str]:
    """Exit code and stdout sha256 of one manifest entry."""
    with tempfile.TemporaryDirectory() as tmp:
        if instance is not None:
            path = pathlib.Path(tmp) / "instance.json"
            code, doc = _main_quietly(instance)
            assert code == 0, instance
            path.write_text(doc)
            argv = [*argv, "--input", str(path)]
        code, out = _main_quietly(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def main() -> None:
    entries = []
    for argv, instance in grid():
        code, digest = run(argv, instance)
        entries.append({"argv": argv, "input": instance, "exit": code, "sha256": digest})
        print(code, *argv, *(["<", *instance] if instance else []))
    # one entry per line, so a diff of the manifest names the entries that moved
    OUT.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
