#!/usr/bin/env python3
"""Regenerate the golden manifest of CLI outputs, tests/fixtures/golden.json.

Runs ``rflcs.cli.main`` in-process over a fixed grid of argvs: every
subcommand, every ``solve`` method and ``bounds`` op, bracket and exact
sweeps in each regime at one and two workers, the benchmark's sweeps and urn
samplers, the results sweeps that estimate E[R] in each regime, ``uniformity``
shapes, both urn models in ``urn`` and ``urn-exact``, ``check`` at a passing
and a failing seed, and the usage and capacity exits of each command that has
them.  Each entry records the argv, the exit code and the stdout: its lines
when it is at most TEXT_MAX bytes, else its sha256.  The manifest puts each
stdout line on a line of its own, so a diff of the manifest shows the old and
new values of every line that moved.  A ``solve`` entry also records its
instance, which is written to a temporary file and passed as ``--input``: a
``gen`` argv, or ``{"gen": argv, "k": k, "shift": s}`` for an instance past
``gen``'s reach, that of the argv over the alphabet [0, k) with every symbol
moved up by s.

The committed manifest is the reference, and Tier-1 tests replay it to
stdout and through ``--out``.  It is the one home of the stdout pins of
in-process CLI runs: a test that would pin a command's bytes adds its argv
here instead, with a comment on where the bytes were taken from.  A change
that moves output bytes or exit codes reruns this script
(``PYTHONPATH=src python3 scripts/golden.py``, about 3 s) and names every
entry that moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from rflcs import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "golden.json"

# the largest stdout, in bytes, that an entry stores as text
TEXT_MAX = 4096

# instances for `solve`, as `gen` argvs
MIXED = ["gen", "--n", "30", "--k", "25", "--seed", "27"]
SMALL = ["gen", "--n", "12", "--k", "4", "--seed", "3"]
PLANTED = ["gen", "--n", "40", "--k", "8", "--seed", "5", "--planted", "6"]
TOO_LONG_FOR_BRUTE = ["gen", "--n", "13", "--k", "4", "--seed", "3"]
DISJOINT = ["gen", "--n", "3", "--k", "1000", "--seed", "1"]  # no common symbol
# k = 2^70, n = 1,100, and every symbol at least 2^65: numpy sorts them as
# Python ints, and len(y) >= 1,024 builds the LCS match masks in numpy
HUGE_SYMBOLS = {"gen": ["gen", "--n", "1100", "--k", "1000", "--seed", "8"], "k": 2**70, "shift": 2**65}


def _sweeps():
    bracket = [
        ["--regime", "1", "--n", "60", "--k-list", "30,50", "--trials", "3"],
        ["--regime", "2", "--rho", "1", "--k-list", "16,30", "--trials", "2"],
        ["--regime", "3", "--xi", "1", "--k-list", "8,16", "--trials", "2"],
    ]
    # the m = 13 shapes at one worker were taken from the class-based engine
    # the solver functions replaced
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
        # numpy's int64 draws take k up to 2^63; one more is refused
        ["gen", "--n", "3", "--k", str(2**63), "--seed", "1"],
        ["gen", "--n", "3", "--k", str(2**63 + 1), "--seed", "1"],
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
        # n = 5 > k^(3/2) / 10, so regime 1 warns on stderr; here and in the
        # sweep below
        ["bounds", "--op", "regime", "--regime", "1", "--k", "4", "--n", "5"],
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
        # refused k, xi, x, rho and regime parameters, and a float flag that is
        # not a number
        ["bounds", "--op", "lambda", "--k", "0", "--s", "1"],
        ["bounds", "--op", "coupon", "--k", "100", "--xi", "-1"],
        ["bounds", "--op", "claim", "--x", "1.5", "--rho", "1"],
        ["bounds", "--op", "claim", "--x", "0.5", "--rho", "-1"],
        ["bounds", "--op", "regime", "--regime", "2", "--k", "16", "--rho", "0"],
        ["bounds", "--op", "regime", "--regime", "3", "--k", "16", "--xi", "0"],
        ["bounds", "--op", "bernstein", "--k", "10", "--s", "5", "--a", "abc"],
        # Y is constant at k = s = 1, so its variance is zero and the bound 0
        ["bounds", "--op", "bernstein", "--k", "1", "--s", "1", "--a", "5e-324"],
        # sweep
        *_sweeps(),
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "16", "--n", "20", "--trials", "1", "--seed", "1"],
        ["sweep", "--regime", "3", "--xi", "1", "--k-list", "1000000", "--trials", "1", "--seed", "1"],
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "4", "--trials", "0", "--seed", "1"],
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "16,x", "--trials", "1", "--seed", "1"],
        # the third m = 13 shape of the benchmark, from the same engine as the
        # two in the exact sweeps above
        ["sweep", "--regime", "3", "--xi", "2", "--k-list", "13", "--trials", "8", "--estimator", "exact", "--seed", "11", "--workers", "1"],
        # the bracket sweeps of the benchmark, taken from the quadratic-table
        # LCS the bit-parallel rows replaced
        ["sweep", "--regime", "1", "--n", "800", "--k-list", "400", "--trials", "4", "--seed", "11", "--workers", "1"],
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "16,50,100,200", "--trials", "2", "--seed", "11", "--workers", "1"],
        ["sweep", "--regime", "3", "--xi", "1", "--k-list", "16,40,60", "--trials", "1", "--seed", "11", "--workers", "1"],
        ["sweep", "--regime", "1", "--n", "5", "--k-list", "4", "--trials", "2", "--seed", "1"],
        # the results sweeps, the reproduction's headline E[R] estimates:
        # bracket sweeps of 4 trials in the three regimes, exact sweeps of 8
        # trials at k = 13, and one small exact sweep of 30 trials per regime
        ["sweep", "--regime", "1", "--n", "800", "--k-list", "400", "--trials", "4", "--seed", "1"],
        ["sweep", "--regime", "2", "--rho", "1", "--k-list", "30,50,200,1000", "--trials", "4", "--seed", "1"],
        ["sweep", "--regime", "3", "--xi", "1", "--k-list", "60,150,300", "--trials", "4", "--seed", "1"],
        ["sweep", "--regime", "3", "--xi", "1", "--k-list", "13", "--trials", "8", "--seed", "1", "--estimator", "exact"],
        ["sweep", "--regime", "2", "--rho", "4", "--k-list", "13", "--trials", "8", "--seed", "1", "--estimator", "exact"],
        ["sweep", "--regime", "3", "--xi", "2", "--k-list", "13", "--trials", "8", "--seed", "1", "--estimator", "exact"],
        ["sweep", "--regime", "1", "--k-list", "16,20", "--n", "6", "--trials", "30", "--seed", "42", "--estimator", "exact"],
        ["sweep", "--regime", "2", "--k-list", "8,12", "--rho", "1", "--trials", "30", "--seed", "42", "--estimator", "exact"],
        ["sweep", "--regime", "3", "--k-list", "8,12", "--xi", "1", "--trials", "30", "--seed", "42", "--estimator", "exact"],
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
        # (3, 7) and (4, 3) taken from the loop over all k^(2n) pairs; (3, 11),
        # with two-digit symbols and x with up to 10 absent symbols, and (4, 5)
        # from the tally that solved y once per class of symbols absent from x
        ["uniformity", "--n", "3", "--k", "7"],
        ["uniformity", "--n", "4", "--k", "3"],
        ["uniformity", "--n", "3", "--k", "11"],
        ["uniformity", "--n", "4", "--k", "5"],
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
        ["urn", "--k", "5", "--s-vec", "2", "--trials", "0", "--seed", "1"],
        # the battery's two samplers, taken from the CSV joined whole before
        # one write
        ["urn", "--k", "100", "--s", "922", "--trials", "50000", "--seed", "7"],
        ["urn", "--k", "50", "--s-vec", "10,10,10,10,10", "--trials", "50000", "--seed", "1844546741"],
        # urn-exact; the k = 30 and k = 7 entries, and the k = 6 one below,
        # were taken from the enumeration and inclusion-exclusion
        # implementations the occupancy chain replaced
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
        ["urn-exact", "--k", "6", "--s-vec", "2,2,3"],
        # check; three of the six items run the classical urn sampler, and the
        # seed-42 bytes were taken from the sampler that drew 64-bit keys
        ["check", "--seed", "42", "--trials", "20000"],
        ["check", "--trials", "50000", "--seed", "652129507"],
        ["check", "--trials", "20000"],
        ["check", "--seed", "1", "--trials", "1000000000000"],
        # the coupon item is the only FAIL: observed 0.025 > 0.01 + 0.01
        ["check", "--trials", "200", "--seed", "18"],
    ]
    solves = [
        # k = 25 but only 16 symbols occur in both sequences; the witness bytes
        # were taken from the class-based engine the solver functions replaced
        (["solve", "--method", "exact"], MIXED),
        (["solve", "--method", "lcs"], MIXED),
        (["solve", "--method", "heuristic"], MIXED),
        (["solve", "--method", "heuristic", "--segment-size", "5", "--per-segment", "lis"], MIXED),
        (["solve", "--method", "exact"], PLANTED),
        (["solve", "--method", "brute"], SMALL),
        (["solve", "--method", "heuristic", "--segment-size", "0"], MIXED),
        (["solve", "--method", "brute"], TOO_LONG_FOR_BRUTE),
        # an LCS witness with repeated symbols, whose symbol set is deduplicated
        (["solve", "--method", "lcs"], SMALL),
        # an empty witness
        (["solve", "--method", "lcs"], DISJOINT),
        (["solve", "--method", "heuristic"], DISJOINT),
        # taken from the quadratic-table LCS the bit-parallel rows replaced;
        # they pin the witness's tie-breaks, not just its length
        (["solve", "--method", "lcs"], ["gen", "--n", "60", "--k", "8", "--seed", "5"]),
        (["solve", "--method", "lcs"], ["gen", "--n", "800", "--k", "400", "--seed", "6"]),
        # n = 20,000 with 3 common symbols: a long instance whose exact search
        # reads few LCS rows; the bytes were taken when it built all of them
        (["solve", "--method", "exact"], ["gen", "--n", "20000", "--k", "3", "--seed", "1"]),
        # k = 10^400, whose default segment size ceil(k^(3/4)) = 10^300 does
        # not fit a float; the bytes equal those of --segment-size 10^300
        # before the size was computed in integers
        (["solve", "--method", "heuristic"], {"gen": MIXED, "k": 10**400, "shift": 0}),
        # the bytes were taken from the per-segment LIS path and the bit-by-bit
        # match masks the numpy ones replaced
        (["solve", "--method", "heuristic", "--per-segment", "lis"], HUGE_SYMBOLS),
        (["solve", "--method", "lcs"], HUGE_SYMBOLS),
        # exact solves whose symbols do not all fit a byte, so the search
        # relabels the common ones: m = 321 in two chunks of codes (R = 280),
        # and MIXED past 2^65 in one; the bytes were taken from the solver
        # that listed each symbol's positions
        (["solve", "--method", "exact"], ["gen", "--n", "600", "--k", "400", "--seed", "2", "--planted", "280"]),
        (["solve", "--method", "exact"], {"gen": MIXED, "k": 2**70, "shift": 2**65}),
    ]
    return [(argv, None) for argv in plain] + solves


def _main_quietly(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _instance_json(instance: list[str] | dict) -> str:
    """The instance document of a manifest entry's input."""
    spec = instance if isinstance(instance, dict) else {"gen": instance}
    code, doc = _main_quietly(spec["gen"])
    assert code == 0, spec["gen"]
    if "k" not in spec:
        return doc
    inst = json.loads(doc)
    inst["k"] = spec["k"]
    for side in ("x", "y"):
        inst[side] = [c + spec["shift"] for c in inst[side]]
    return json.dumps(inst)


def run(argv: list[str], instance: list[str] | dict | None) -> tuple[int, str]:
    """Exit code and stdout of one manifest entry."""
    with tempfile.TemporaryDirectory() as tmp:
        if instance is not None:
            path = pathlib.Path(tmp) / "instance.json"
            path.write_text(_instance_json(instance))
            argv = [*argv, "--input", str(path)]
        return _main_quietly(argv)


def record(out: str) -> dict:
    """How an entry stores stdout `out`: its lines, or its sha256 when it is
    larger than TEXT_MAX bytes."""
    data = out.encode()
    if len(data) > TEXT_MAX:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    return {"stdout": out.split("\n")}


def _dump(entry: dict) -> str:
    # one line per entry, and one more per stdout line, so a diff of the
    # manifest shows each line that moved
    if "stdout" not in entry:
        return json.dumps(entry)
    head = json.dumps({key: v for key, v in entry.items() if key != "stdout"})[:-1]
    lines = ",\n".join(json.dumps(line) for line in entry["stdout"])
    return f'{head}, "stdout": [\n{lines}]}}'


def main() -> None:
    entries = []
    for argv, instance in grid():
        code, out = run(argv, instance)
        entries.append({"argv": argv, "input": instance, "exit": code, **record(out)})
        print(code, *argv, *(["<", json.dumps(instance)] if instance else []))
    OUT.write_text("[\n" + ",\n".join(_dump(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
