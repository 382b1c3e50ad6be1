"""rflcs benchmark: run one workload, check every output, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout (nothing is installed)
and driven in-process through ``rflcs.cli.main(argv)`` with stdout captured,
or through the urn samplers (see workloads.py), one client in a closed loop.  A run repeats the workload's invocation list
in passes (see workloads.py) until ``--seconds`` is used up; it always runs
at least one pass.

``--trace 0`` runs untraced passes and reports the end-to-end metrics.  Their
times are scaled to a fixed machine speed by a reference loop timed around
each call and each set-up probe (see speed.py); the measured times are in
the run record.

- ``setup_s``: median over fresh interpreters (one before each pass, at
  least 7) of the time to import ``rflcs.cli``, run the warm-up call and
  exit.
- ``wall_s``: median over passes of the time spent in the pass's calls.
- ``instances_per_s``: median over passes of instances solved per second
  (sweep trials; uniformity pairs k^(2n)).
- ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed passes.

The per-layer metrics of ``--trace 1`` are measured times, not scaled.

``--trace 1`` alternates an untraced and a traced pass on the same argv
and reports the per-layer metrics of tracing.py; ``trace_overhead_s`` is the
median of traced minus untraced pass time.

Outside the timed phase the smallest sweep of pass 0 is replayed with
``--workers 2`` and must give identical bytes.  Every run writes a record
(environment, argv, per-call sha256 of stdout, times, metrics) to
``.bench_out/<workload>/``; a later run with the same seed, sources and
workload definition must reproduce every digest the two runs share.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the rflcs sources the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import checks, speed, tracing  # noqa: E402
from perfbench.workloads import LIBRARY_CALLS, WARMUP, WORKLOADS, Workload, instances, option  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB"}

# Imports rflcs from the path in argv[1] and runs the warm-up call in argv[2:].
SETUP_PROBE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rflcs.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = rflcs.cli.main(sys.argv[2:])\n"
    "sys.exit(rc)\n"
)


class ProgramMissing(Exception):
    """The checkout does not hold the rflcs sources."""


@dataclass
class Call:
    """One invocation and what it produced."""

    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    errors: list[str] = field(default_factory=list)
    reference_s: float = 0.0  # mean reference time just before and after

    @property
    def scaled_seconds(self) -> float:
        return speed.scaled(self.seconds, self.reference_s)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()

    def record(self) -> dict:
        doc = {"argv": self.argv, "rc": self.rc, "seconds": self.seconds,
               "reference_s": self.reference_s, "sha256": self.sha256}
        if self.errors:
            doc["errors"] = self.errors
            doc["stderr"] = self.stderr[-2000:]
        return doc


def load_program():
    """Import ``rflcs.cli`` from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "rflcs" / "cli.py").is_file():
        raise ProgramMissing(f"no rflcs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rflcs.cli

    if SRC.resolve() not in Path(rflcs.cli.__file__).resolve().parents:
        raise ProgramMissing(f"rflcs was imported from {rflcs.cli.__file__}, not {SRC}")
    return rflcs.cli


def invoke(cli, argv) -> Call:
    """Run one invocation.  ``cli.main`` is looked up on the module at call
    time, so a traced pass reaches the wrapper; only the call is timed."""
    if argv[0] in LIBRARY_CALLS:
        return sample(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Call(list(argv), rc, out.getvalue(), err.getvalue(), seconds)


def sample(argv) -> Call:
    """Run one urn sampler; its output is the histogram of empty-urn counts
    plus the sha256 of the raw samples.  Only the sampler call is timed."""
    import numpy as np
    from rflcs import urns
    from rflcs.rng import RngStream

    k, trials = int(option(argv, "--k")), int(option(argv, "--trials"))
    stream = RngStream(int(option(argv, "--seed")))
    try:
        if argv[0] == "urns.classical_urn_empty_counts":
            s = int(option(argv, "--s"))
            start = time.perf_counter()
            samples = urns.classical_urn_empty_counts(k, s, trials, stream)
        else:
            spec = urns.GroupedUrnSpec(k=k, s_vec=tuple(int(v) for v in option(argv, "--s-vec").split(",")))
            start = time.perf_counter()
            samples = urns.grouped_urn_empty_counts(spec, trials, stream)
        seconds = time.perf_counter() - start
    except Exception:  # a traceback is a failed operation, not a crash
        return Call(list(argv), None, "", traceback.format_exc(), 0.0)
    samples = np.ascontiguousarray(samples, dtype=np.int64)
    text = "".join(f"{t},{c}\n" for t, c in enumerate(np.bincount(samples, minlength=k + 1)))
    text += f"sha256={hashlib.sha256(samples.tobytes()).hexdigest()}\n"
    return Call(list(argv), 0, text, "", seconds)


def check(calls) -> None:
    for c in calls:
        c.errors += checks.check_invocation(c.argv, c.rc, c.stdout)


def pass_wall(calls) -> float:
    return sum(c.seconds for c in calls)


def pass_scaled(calls) -> float:
    return sum(c.scaled_seconds for c in calls)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rflcs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def setup_probe() -> tuple[float, str | None]:
    """Wall time of a fresh interpreter that imports rflcs.cli and warms up."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *WARMUP],
        cwd=ROOT, capture_output=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    return seconds, (f"set-up probe exit code {proc.returncode}" if proc.returncode else None)


class Bench:
    """One run of one workload."""

    def __init__(self, cli, workload: Workload, seed: int, seconds: float):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.untraced: list[list[Call]] = []
        self.traced: list[list[Call]] = []
        self.other: list[Call] = []  # warm-up and replay
        self.setup_times: list[float] = []  # scaled, see speed.py
        self.setup_raw: list[tuple[float, float]] = []  # (seconds, reference_s)
        self.setup_problems: list[str] = []

    def calls(self):
        for calls in self.untraced + self.traced:
            yield from calls
        yield from self.other

    def run_pass(self, index: int) -> list[Call]:
        """One untraced pass; a reference loop runs before each call and
        after the last, and each call keeps the mean of the two around it."""
        calls = []
        before = speed.reference_seconds()
        for argv in self.workload.pass_argvs(self.seed, index):
            call = invoke(self.cli, argv)
            after = speed.reference_seconds()
            call.reference_s = (before + after) / 2
            calls.append(call)
            before = after
        check(calls)
        return calls

    def warm_up(self) -> None:
        call = invoke(self.cli, WARMUP)
        check([call])
        self.other.append(call)

    def run_untraced(self) -> None:
        """Passes until time is up, with a set-up probe before each one, so
        the probes sample the same machine phases as the passes."""
        start = time.perf_counter()
        while True:
            self.probe()
            calls = self.run_pass(len(self.untraced))
            self.untraced.append(calls)
            _progress(f"pass {len(self.untraced) - 1}: {pass_wall(calls):.3f} s, "
                      f"{pass_scaled(calls):.3f} s scaled")
            typical = statistics.median(pass_wall(c) for c in self.untraced)
            if time.perf_counter() - start + typical > self.seconds:
                break
        while len(self.setup_times) < SETUP_PROBES:
            self.probe()

    def probe(self) -> None:
        before = speed.reference_seconds()
        seconds, problem = setup_probe()
        reference_s = (before + speed.reference_seconds()) / 2
        self.setup_raw.append((seconds, reference_s))
        self.setup_times.append(speed.scaled(seconds, reference_s))
        if problem:
            self.setup_problems.append(problem)

    def run_traced(self, tracer: tracing.Tracer) -> None:
        """Untraced and traced pass on the same argv, until time is up.
        The order alternates, so warm-up effects do not bias the overhead."""
        start = time.perf_counter()
        while True:
            index = len(self.traced)
            if index % 2:
                traced = self._traced_pass(tracer, index)
                plain = self.run_pass(index)
            else:
                plain = self.run_pass(index)
                traced = self._traced_pass(tracer, index)
            for a, b in zip(plain, traced):
                if a.sha256 != b.sha256:
                    b.errors.append("traced output differs from untraced output")
            self.untraced.append(plain)
            self.traced.append(traced)
            _progress(f"pass {index}: {pass_wall(plain):.3f} s untraced, "
                      f"{pass_wall(traced):.3f} s traced")
            typical = statistics.median(
                pass_wall(a) + pass_wall(b) for a, b in zip(self.untraced, self.traced)
            )
            if time.perf_counter() - start + typical > self.seconds:
                return

    def _traced_pass(self, tracer: tracing.Tracer, index: int) -> list[Call]:
        tracer.install()
        try:
            calls = []
            for i, argv in enumerate(self.workload.pass_argvs(self.seed, index)):
                tracer.start_run(f"p{index}/{i}")
                calls.append(invoke(self.cli, argv))
        finally:
            tracer.uninstall()
        check(calls)
        for run_id, inst, result in tracer.exact_results:
            calls[int(run_id.split("/")[1])].errors += _witness_problems(inst, result)
        tracer.exact_results.clear()
        return calls

    def replay(self) -> dict | None:
        """Rerun the smallest sweep of pass 0 with two workers."""
        sweeps = [c for c in self.untraced[0] if c.argv[0] == "sweep"]
        if not sweeps:
            return None
        first = min(sweeps, key=lambda c: c.seconds)
        argv = list(first.argv)
        argv[argv.index("--workers") + 1] = "2"
        call = invoke(self.cli, argv)
        check([call])
        if call.sha256 != first.sha256:
            call.errors.append("--workers 2 output differs from --workers 1")
        self.other.append(call)
        return call.record()

    def digests(self) -> list[list[str]]:
        return [[c.sha256 for c in calls] for calls in self.untraced]

    def compare_records(self, directory: Path, definition: str, source: str) -> None:
        """Earlier runs with this seed must have produced the same bytes."""
        for path in sorted(directory.glob(f"seed-{self.seed}-trace-*.json")):
            try:
                old = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if old.get("definition_sha256") != definition or old.get("source_sha256") != source:
                continue
            for calls, old_digests in zip(self.untraced, old.get("digests", [])):
                for c, digest in zip(calls, old_digests):
                    if c.sha256 != digest:
                        c.errors.append(f"output differs from the run recorded in {path.name}")


def _witness_problems(inst, result) -> list[str]:
    from rflcs.model import validate_matching

    if not validate_matching(result.witness, inst, require_repetition_free=True):
        return ["rflcs_exact witness fails validate_matching"]
    if len(result.witness) != result.length:
        return ["rflcs_exact witness length differs from reported length"]
    return []


def _progress(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def end_to_end(bench: Bench, peak_rss_mb: float) -> dict[str, float]:
    walls = [pass_scaled(calls) for calls in bench.untraced]
    solved = [sum(instances(c.argv) for c in calls) for calls in bench.untraced]
    return {
        "setup_s": statistics.median(bench.setup_times),
        "wall_s": statistics.median(walls),
        "instances_per_s": statistics.median(n / w for n, w in zip(solved, walls)),
        "peak_rss_mb": peak_rss_mb,
    }


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("RFLCS_WORKERS", None)  # the program gets only the generated argv
    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    bench = Bench(cli, workload, args.seed, args.seconds)
    bench.warm_up()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        bench.run_traced(tracer)
    else:
        bench.run_untraced()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replay = bench.replay()

    directory = OUT / workload.name
    definition = workload.digest()
    bench.compare_records(directory, definition, env["source_sha256"])

    if tracer is None:
        metrics = end_to_end(bench, peak_rss_mb)
        units = END_TO_END_UNITS
    else:
        traced_walls = [pass_wall(calls) for calls in bench.traced]
        overheads = [t - pass_wall(u) for t, u in zip(traced_walls, bench.untraced)]
        traced_ids = [[f"p{p}/{i}" for i in range(len(calls))] for p, calls in enumerate(bench.traced)]
        metrics = tracing.layer_metrics(tracer, traced_ids, traced_walls, overheads)
        units = {m.name: m.unit for m in tracing.PER_LAYER}
        _write_json(directory / f"seed-{args.seed}-spans.json", tracer.spans_record())

    calls = list(bench.calls())
    attempted = len(calls) + len(bench.setup_times)
    failed = sum(1 for c in calls if c.errors) + len(bench.setup_problems)
    for c in calls:
        for problem in c.errors:
            _progress(f"FAILED {' '.join(c.argv)}: {problem}")
    for problem in bench.setup_problems:
        _progress(f"FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    _write_json(
        directory / f"seed-{args.seed}-trace-{args.trace}.json",
        {
            "workload": workload.name,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "source_sha256": env["source_sha256"],
            "definition_sha256": definition,
            "setup_probes_s": bench.setup_times,
            "setup_probes_raw": bench.setup_raw,
            "passes": [[c.record() for c in calls] for calls in bench.untraced],
            "traced_passes": [[c.record() for c in calls] for calls in bench.traced],
            "warm_up": bench.other[0].record(),
            "replay_workers_2": replay,
            "digests": bench.digests(),
            **result,
        },
    )
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
