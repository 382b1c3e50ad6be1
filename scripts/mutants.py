#!/usr/bin/env python3
"""Mutation gate: every entry of MUTANTS breaks the program in one known way,
and the tests it names must catch it.

For each entry the script copies ``src/``, ``tests/``, ``scripts/`` and
``pyproject.toml`` into a temporary directory, replaces the entry's old text
(which must occur exactly once in its file) by the new text, and runs pytest
there on the named tests, with ``-x`` and a fixed Hypothesis seed.  A mutant
is killed when pytest reports a failing test (exit status 1); a mutant whose
tests pass, or that pytest cannot even collect (status 2 or more), fails the
gate.  Before any mutant, the named tests of all entries run on an unmutated
copy, where they must pass.  EQUIVALENT lists mutants that change no
behaviour, with the reason; they are not run.

Usage: ``python3 scripts/mutants.py [NAME ...]`` runs the named entries, or
all of them (a few minutes on two CPUs); ``--list`` prints the names.
Exits 1 if any mutant survives.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
SOLVER_TESTS = "tests/test_solvers.py::TestExactSolver::"
SWEEP_TESTS = "tests/test_experiments.py::TestSweep::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the first descent of the exact solver
    Mutant(
        "descent-skips-unused-bound",
        "src/rflcs/solvers.py",
        "if (p < last_x or low == a) and (q < last_y or low == b):",
        "if True:",
        (SOLVER_TESTS + "test_first_descent_is_the_canonical_witness",),
    ),
    Mutant(
        "descent-gate-one-unit-loose",
        "src/rflcs/solvers.py",
        "if m <= EXACT_BUDGET - setup and",
        "if m <= EXACT_BUDGET - setup + 1 and",
        (SOLVER_TESTS + "test_certified_solve_needs_setup_and_m_units",),
    ),
    Mutant(
        "descent-keeps-passed-over-candidates",
        "src/rflcs/solvers.py",
        "        del cand[:len(passed) + 1]\n        for low, q in passed:\n"
        "            insort(cand, (find_x(low.bit_length() - 1, i), q, low))\n",
        "        del cand[len(passed)]\n",
        (SOLVER_TESTS + "test_first_descent_is_the_canonical_witness",),
    ),
    Mutant(
        "descent-keeps-examined-y-positions",
        "src/rflcs/solvers.py",
        "            if q < j:\n                q = find_y(low.bit_length() - 1, j)\n"
        "            if (p < last_x",
        "            if (p < last_x",
        (SOLVER_TESTS + "test_first_descent_is_the_canonical_witness",),
    ),
    Mutant(
        "descent-least-last-pointer-stuck",
        "src/rflcs/solvers.py",
        "        while ends_x[ax][1] & used:\n            ax += 1\n",
        "",
        (SOLVER_TESTS + "test_first_descent_follows_definition",),
    ),
    Mutant(
        "descent-before-set-up-charge",
        "src/rflcs/solvers.py",
        """    if setup > EXACT_BUDGET:
        raise CapacityError(
            f"exact solver exceeded its work budget of {EXACT_BUDGET}: set-up "
            f"for n = {nx}, {ny} and m = {m} common symbols costs {setup}"
        )
    tables = _search_tables(x, y, common)
    if m <= EXACT_BUDGET - setup and (edges := _first_descent(tables)) is not None:
        return edges
""",
        """    tables = _search_tables(x, y, common)
    if m <= EXACT_BUDGET - setup and (edges := _first_descent(tables)) is not None:
        return edges
    if setup > EXACT_BUDGET:
        raise CapacityError(
            f"exact solver exceeded its work budget of {EXACT_BUDGET}: set-up "
            f"for n = {nx}, {ny} and m = {m} common symbols costs {setup}"
        )
""",
        (SOLVER_TESTS + "test_set_up_refusal_builds_no_tables",),
    ),
    # the exact search and its set-up
    Mutant(
        "set-up-charge-one-unit-high",
        "src/rflcs/solvers.py",
        "setup = ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16\n",
        "setup = ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16 + 1\n",
        (SOLVER_TESTS + "test_budget_units_pinned",),
    ),
    Mutant(
        "search-keeps-dominated-candidates",
        "src/rflcs/solvers.py",
        "                if e[1] < q_min:",
        "                if True:",
        (SOLVER_TESTS + "test_budget_units_pinned",),
    ),
    Mutant(
        "search-ignores-memo-bound",
        "src/rflcs/solvers.py",
        "                failed.get(key, need + 1) - 1,\n            )",
        "                need,\n            )",
        (SOLVER_TESTS + "test_budget_units_pinned",),
    ),
    Mutant(
        "suffix-mask-from-first-position",
        "src/rflcs/solvers.py",
        "ends_x.append((bx.rfind(c), bit))",
        "ends_x.append((bx.find(c), bit))",
        (SOLVER_TESTS + "test_search_tables_match_definition",),
    ),
    Mutant(
        "match-mask-table-not-reset",
        "src/rflcs/solvers.py",
        "            table[c] = 48\n",
        "",
        (SOLVER_TESTS + "test_search_tables_match_definition",),
    ),
    # the generator's range check
    Mutant(
        "generator-draw-unchecked",
        "src/rflcs/generators.py",
        "    if n and (draw.min() < 0 or int(draw.max()) >= k):",
        "    if False:",
        ("tests/test_generators.py::TestUniformPair::test_draw_out_of_range_refused",),
    ),
    # the sweep's memory
    Mutant(
        "sweep-streams-made-up-front",
        "src/rflcs/experiments.py",
        "streams = map(RngStream(seed, k_idx).substream, range(trials))",
        "streams = [RngStream(seed, k_idx).substream(t) for t in range(trials)]",
        (SWEEP_TESTS + "test_memory_does_not_grow_with_trials[1]",),
    ),
    Mutant(
        "sweep-pool-window-unbounded",
        "src/rflcs/experiments.py",
        "            if len(pending) == window:",
        "            if False:",
        (SWEEP_TESTS + "test_pool_chunks_follow_pool_map_default",),
    ),
    Mutant(
        "sweep-chunks-uncapped",
        "src/rflcs/experiments.py",
        "chunksize = min(math.ceil(trials / (4 * workers)), _SWEEP_CHUNK_MAX)",
        "chunksize = math.ceil(trials / (4 * workers))",
        (SWEEP_TESTS + "test_pool_chunks_follow_pool_map_default",),
    ),
    Mutant(
        "sweep-results-out-of-order",
        "src/rflcs/experiments.py",
        "                yield from pending.popleft().result()\n            pending.append(",
        "                yield from pending.pop().result()\n            pending.append(",
        (SWEEP_TESTS + "test_pool_map_reads_in_order",),
    ),
)

# (file, old text, new text, why no test can catch it)
EQUIVALENT = (
    (
        "src/rflcs/solvers.py",
        "                if e[1] < q_min:",
        "                if e[1] <= q_min:",
        "two symbols never share a next position in y, so no candidate ties q_min",
    ),
    (
        "src/rflcs/solvers.py",
        "if (p < last_x or low == a)",
        "if (p <= last_x or low == a)",
        "a candidate other than the least-last symbol never sits at that symbol's last position",
    ),
)


def copy_tree(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def pytest_status(tree: pathlib.Path, tests: list[str]) -> int:
    """pytest's exit status on `tests` in `tree`, importing rflcs from there."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import rflcs; print(rflcs.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not where.startswith(str(tree)):
        raise SystemExit(f"rflcs imported from {where.strip()}, not from the copy in {tree}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the entries' names")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    for mutant in chosen:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    with tempfile.TemporaryDirectory(prefix="rflcs-mutants-") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        status = pytest_status(clean, tests)
        if status != 0:
            print(f"unmutated: the named tests exit {status}, so no mutant can be judged")
            return 1
        survivors = []
        for index, mutant in enumerate(chosen):
            tree = pathlib.Path(tmp) / f"m{index}"
            copy_tree(tree)
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            start = time.monotonic()
            status = pytest_status(tree, list(mutant.tests))
            verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
            print(f"{mutant.name}: {verdict} in {time.monotonic() - start:.1f} s", flush=True)
            if status != 1:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; "
          f"{len(EQUIVALENT)} listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
