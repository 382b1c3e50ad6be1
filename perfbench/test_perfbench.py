"""Tests of the benchmark itself: output checks catch corrupted outputs,
span arithmetic, tracer installation, and BENCHMARK.json consistency.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run, speed, tracing
from perfbench.workloads import WORKLOADS, Workload, derive_seed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _output(cli, argv):
    call = run.invoke(cli, argv)
    assert call.rc == 0, call.stderr
    return call.stdout


SAMPLES = {
    "bracket": ["sweep", "--regime", "2", "--rho", "1", "--k-list", "4,30", "--trials", "3", "--seed", "5"],
    "exact": ["sweep", "--regime", "3", "--xi", "1", "--k-list", "4,5", "--trials", "3",
              "--seed", "5", "--estimator", "exact"],
    "uniformity": ["uniformity", "--n", "2", "--k", "3"],
    "urn-exact": ["urn-exact", "--k", "5", "--s-vec", "2,2"],
    "urn": ["urn", "--k", "6", "--s", "6", "--trials", "2000", "--seed", "3"],
    "check": ["check", "--trials", "20000", "--seed", "3"],
    "classical": ["urns.classical_urn_empty_counts", "--k", "20", "--s", "30", "--trials", "500", "--seed", "3"],
    "grouped": ["urns.grouped_urn_empty_counts", "--k", "12", "--s-vec", "3,5", "--trials", "500", "--seed", "3"],
}


def _replace_field(csv_text, row, column, value):
    lines = [line.split(",") for line in csv_text.splitlines()]
    lines[row][column] = value
    return "\n".join(",".join(line) for line in lines) + "\n"


def _json_edit(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _set(doc, key, value):
    doc[key] = value


def _drop_one_sample(histogram):
    lines = histogram.splitlines()
    for i, line in enumerate(lines[:-1]):
        t, count = line.split(",")
        if int(count):
            lines[i] = f"{t},{int(count) - 1}"
            break
    return "\n".join(lines) + "\n"


CORRUPTIONS = [
    ("bracket", "wrong n", lambda t: _replace_field(t, 1, 2, "999")),
    ("bracket", "lower above upper", lambda t: _replace_field(t, 2, 6, "1000")),
    ("bracket", "missing row", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    ("bracket", "bad header", lambda t: t.replace("mean_R", "mean")),
    ("exact", "mean_R differs from bracket", lambda t: _replace_field(t, 1, 4, "0.5")),
    ("uniformity", "not uniform", lambda t: _json_edit(t, lambda d: _set(d, "uniform", False))),
    ("uniformity", "lost pairs", lambda t: _json_edit(t, lambda d: d["size_counts"].update({"0": 0}))),
    ("urn-exact", "pmf off by 1e-9", lambda t: json.dumps([p * (1 + 1e-9) for p in json.loads(t)])),
    ("urn-exact", "short pmf", lambda t: json.dumps(json.loads(t)[:-1])),
    ("urn", "survival starts below 1", lambda t: _replace_field(t, 1, 4, "0.99")),
    ("urn", "survival increases", lambda t: _replace_field(t, 4, 4, "1")),
    ("check", "a FAIL line", lambda t: t.replace("PASS", "FAIL", 1)),
    ("check", "truncated", lambda t: ""),
    ("classical", "lost a sample", _drop_one_sample),
    ("classical", "impossible count", lambda t: _replace_field(t, 20, 1, "1")),
    ("grouped", "more urns empty than possible", lambda t: _replace_field(t, 12, 1, "1")),
    ("grouped", "fewer urns empty than possible", lambda t: _replace_field(t, 3, 1, "1")),
    ("grouped", "no digest", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
]


def test_valid_outputs_pass(cli):
    for argv in SAMPLES.values():
        assert checks.check_invocation(argv, 0, _output(cli, argv)) == []


@pytest.mark.parametrize("sample,what,corrupt", CORRUPTIONS, ids=[f"{s}-{w}" for s, w, _ in CORRUPTIONS])
def test_corrupted_output_is_caught(cli, sample, what, corrupt):
    argv = SAMPLES[sample]
    assert checks.check_invocation(argv, 0, corrupt(_output(cli, argv)))


def test_nonzero_exit_is_caught():
    assert checks.check_invocation(SAMPLES["check"], 4, "PASS x\n") == ["exit code 4"]
    assert checks.check_invocation(SAMPLES["check"], None, "") == ["exit code None"]


def test_run_stats_busy_and_self_time():
    # main [0, 10] -> sweep [1, 9] -> lcs [2, 5], lcs [6, 8]; bounds [3, 4]
    # nested in the first lcs, bounds [9.5, 9.7] directly under main.
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["experiments.run_regime_sweep", 1.0, 9.0, 0],
        ["solvers.lcs_length", 2.0, 5.0, 1],
        ["bounds.regime_target", 3.0, 4.0, 2],
        ["solvers.lcs_length", 6.0, 8.0, 1],
        ["bounds.lambda_empty", 9.5, 9.7, 0],
    ]
    stats = tracing.run_stats([spans])
    assert stats.calls["solvers.lcs_length"] == 2
    assert stats.busy["solvers.lcs_length"] == pytest.approx(5.0)
    assert stats.self_time["solvers.lcs_length"] == pytest.approx(4.0)
    assert stats.self_time["experiments.run_regime_sweep"] == pytest.approx(3.0)
    assert stats.self_time["cli.main"] == pytest.approx(10.0 - 8.0 - 0.2)
    assert stats.layer_calls["bounds"] == 2
    assert stats.layer_busy["bounds"] == pytest.approx(1.2)


def test_tracer_records_calls_and_restores_functions(cli):
    import rflcs.experiments
    import rflcs.solvers

    before = (cli.main, rflcs.experiments.lcs_length, rflcs.solvers.lcs_length)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rflcs.experiments.lcs_length is not before[1]
        tracer.start_run("p0/0")
        _output(cli, SAMPLES["bracket"])
        tracer.start_run("p0/1")
        _output(cli, SAMPLES["exact"])
    finally:
        tracer.uninstall()
    assert (cli.main, rflcs.experiments.lcs_length, rflcs.solvers.lcs_length) == before
    metrics = tracing.layer_metrics(tracer, [["p0/0", "p0/1"]], [1.0], [0.0])
    assert metrics["solvers.lcs_length.calls"] == 6
    assert metrics["solvers.segment_merge_heuristic.calls"] == 6
    assert metrics["solvers.rflcs_exact.calls"] == 6
    assert metrics["generators.gen_uniform_pair.calls"] == 12
    assert 0.0 < metrics["experiments.certified_fraction"] <= 1.0
    assert tracer.work["p0/0"]["solvers.lcs_length.cells"] == 3 * (4 * 4 + 83 * 83)
    assert len(tracer.exact_results) == 6
    for _, inst, result in tracer.exact_results:
        assert run._witness_problems(inst, result) == []


def test_pass_times_are_scaled_by_the_reference_around_each_call(cli):
    tiny = Workload("tiny", "", (("uniformity", "--n", "2", "--k", "3"), ("urn-exact", "--k", "5", "--s", "4")))
    calls = run.Bench(cli, tiny, 1, 1.0).run_pass(0)
    assert all(c.reference_s > 0 and not c.errors for c in calls)
    assert run.pass_scaled(calls) == pytest.approx(
        sum(c.seconds * speed.NOMINAL_S / c.reference_s for c in calls)
    )
    assert speed.scaled(3.0, 2 * speed.NOMINAL_S) == pytest.approx(1.5)


def test_pass_argvs_are_a_function_of_the_seed():
    w = WORKLOADS["exact-sweep"]
    assert w.pass_argvs(7, 3) == w.pass_argvs(7, 3)
    assert w.pass_argvs(7, 3) != w.pass_argvs(7, 4)
    assert derive_seed(7, 0, 0) != derive_seed(8, 0, 0)
    assert all(argv[argv.index("--workers") + 1] == "1" for argv in w.pass_argvs(7, 0))


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
