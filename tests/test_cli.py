import argparse
import hashlib
import importlib.util
import json
import math
import os
import time
import warnings

import pytest

from conftest import FIXTURES, run_child, serial_pool
from rflcs import cli
from rflcs.cli import CSV_HEADER, EXIT_CAPACITY, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenSolve:
    def test_round_trip_exact_equals_brute(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, out, _ = run_cli(
            capsys, "gen", "--n", "8", "--k", "3", "--seed", "11", "--out", str(path)
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(path.read_text())
        assert doc["n"] == 8 and doc["k"] == 3 and len(doc["x"]) == 8

        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "exact")
        exact = json.loads(out)
        code2, out2, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "brute")
        brute = json.loads(out2)
        assert code == code2 == EXIT_OK
        assert exact["length"] == brute["length"]
        assert len(exact["edges"]) == exact["length"]

    def test_planted_instance(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys,
            "gen", "--n", "10", "--k", "6", "--seed", "12",
            "--planted", "4", "--out", str(path),
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert len(doc["planted"]["z"]) == 4

    def test_heuristic_and_lcs(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--n", "40", "--k", "5", "--seed", "13", "--out", str(path))
        _, out_h, _ = run_cli(
            capsys, "solve", "--input", str(path), "--method", "heuristic",
            "--segment-size", "8",
        )
        _, out_l, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "lcs")
        heur = json.loads(out_h)
        lcs = json.loads(out_l)
        assert heur["length"] <= min(lcs["length"], 5)

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_heuristic_rejects_nonpositive_segment_size(self, capsys, tmp_path, size):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--n", "40", "--k", "5", "--seed", "13", "--out", str(path))
        code, out, err = run_cli(
            capsys, "solve", "--input", str(path), "--method", "heuristic",
            "--segment-size", size,
        )
        assert code == EXIT_USAGE and out == ""
        assert "segment size must be positive" in err

    def test_gen_determinism(self, capsys):
        _, a, _ = run_cli(capsys, "gen", "--n", "6", "--k", "2", "--seed", "3")
        _, b, _ = run_cli(capsys, "gen", "--n", "6", "--k", "2", "--seed", "3")
        assert a == b


class TestUrnCommands:
    def test_urn_exact_classical(self, capsys):
        code, out, _ = run_cli(capsys, "urn-exact", "--k", "2", "--s", "2")
        assert code == EXIT_OK
        assert json.loads(out) == [0.5, 0.5, 0.0]

    def test_urn_exact_grouped(self, capsys):
        code, out, _ = run_cli(capsys, "urn-exact", "--k", "4", "--s-vec", "4")
        assert code == EXIT_OK
        assert json.loads(out) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_urn_mc_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "urn", "--k", "5", "--s", "5", "--trials", "2000", "--seed", "9"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "model,k,s_vec,t,survival,stderr"
        assert len(lines) == 1 + 6  # t = 0..k
        first = lines[1].split(",")
        assert first[0] == "classical" and float(first[4]) == 1.0

    def test_urn_missing_s(self, capsys):
        code, _, err = run_cli(capsys, "urn-exact", "--k", "5")
        assert code == EXIT_USAGE and "error" in err

    @pytest.mark.parametrize("command", ["urn", "urn-exact"])
    @pytest.mark.parametrize("balls", [("--s", "2", "--s-vec", "1,1"), ()])
    def test_urn_needs_exactly_one_of_s_and_s_vec(self, capsys, command, balls):
        code, out, err = run_cli(capsys, command, "--k", "5", *balls, "--seed", "1")
        assert code == EXIT_USAGE and out == "" and "Traceback" not in err

    def test_urn_exact_capacity(self, capsys):
        start = time.monotonic()
        code, _, err = run_cli(capsys, "urn-exact", "--k", "1000000000", "--s", "1000000000")
        assert code == EXIT_CAPACITY and "capacity" in err
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [("--k", "40", "--s", "5"), ("--k", "30", "--s-vec", "15,15"), ("--k", "50", "--s-vec", "10,10,10,10,10")],
    )
    def test_urn_exact_beyond_former_limits(self, capsys, argv):
        code, out, _ = run_cli(capsys, "urn-exact", *argv)
        assert code == EXIT_OK
        assert math.isclose(math.fsum(json.loads(out)), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--k", "1000000000000", "--s", "5", "--trials", "10"),
            ("--k", "10", "--s", "5", "--trials", "1000000000000"),
            ("--k", "10", "--s", "1000000000000", "--trials", "2"),
            ("--k", "1000000000000", "--s-vec", "1", "--trials", "2"),
            # 2^40 cells each, in bounded memory but hours of drawing
            ("--k", "1048576", "--s-vec", "1", "--trials", "1048576"),
            ("--k", "10", "--s", "1048576", "--trials", "1048576"),
        ],
    )
    def test_urn_capacity(self, capsys, argv):
        # the first four used to die allocating their arrays, with a traceback
        start = time.monotonic()
        code, out, err = run_cli(capsys, "urn", *argv, "--seed", "1")
        assert code == EXIT_CAPACITY and out == "" and "Traceback" not in err
        assert "limited to" in err
        assert time.monotonic() - start < 1.0

    def test_urn_many_trials_small_urns(self, capsys):
        # 2^21 trials of 8 bytes each, past the count a trial cap of 2^20 refused
        code, out, _ = run_cli(
            capsys, "urn", "--k", "3", "--s", "2", "--trials", str(2**21), "--seed", "1"
        )
        assert code == EXIT_OK
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [int(row[3]) for row in rows] == [0, 1, 2, 3]
        # two balls leave one or two of three urns empty: P(Y >= 2) = 1/3
        assert float(rows[1][4]) == 1.0 and abs(float(rows[2][4]) - 1 / 3) < 0.002

    def test_urn_survival_rows_in_bounded_memory(self):
        # 2^20 + 1 rows (32 MB of CSV) at the survival cap: the joined CSV
        # peaked at 202 MB, the rows written as they are formatted about 53 MB
        cap_mb = 100
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "urn", "--k", "1048576", "--s", "5", "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dbcb82ee7987844badcdd17bc1032347c14da8274196b03ce58a63a2a8a14653"
        )
        assert peak_mb < cap_mb

    def test_urn_exact_at_k_cap_in_bounded_memory(self):
        # k = 2^20, the urn models' k cap, past the k < 500,000 that a charge
        # per pmf entry allowed; it peaks near 83 MB
        cap_mb = 150
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "urn-exact", "--k", "1048576", "--s", "0",
        )
        assert code == EXIT_OK, err
        probs = json.loads(out)
        assert len(probs) == 2**20 + 1 and probs[-1] == 1.0 and not any(probs[:-1])
        assert peak_mb < cap_mb
        # just past the chain's cost cap: the chain runs until its charge
        # passes the cap, and the k + 1 counts are never allocated
        start = time.monotonic()
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "urn-exact", "--k", "1048576", "--s", "470",
        )
        assert time.monotonic() - start < 2.0
        assert code == EXIT_CAPACITY and out == "" and "Traceback" not in err
        assert peak_mb < cap_mb

    def test_urn_survival_rounding_regression(self, capsys):
        # this seed used to sum the survival to 1 + 2^-52 and exit 2 with
        # "math domain error" in the stderr column
        code, out, err = run_cli(
            capsys, "urn", "--k", "50", "--s-vec", "10,10,10,10,10",
            "--trials", "50000", "--seed", "1844546741",
        )
        assert code == EXIT_OK, err
        survival = [float(line.split(",")[4]) for line in out.strip().split("\n")[1:]]
        assert survival[0] == 1.0
        assert all(b <= a for a, b in zip(survival, survival[1:]))


class TestBoundsCommand:
    def test_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--op", "lambda", "--k", "10", "--s", "10")
        assert code == EXIT_OK
        assert math.isclose(json.loads(out)["value"], 3.4867844010, abs_tol=1e-9)

    def test_coupon(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--op", "coupon", "--k", "100", "--xi", "1")
        doc = json.loads(out)
        assert doc["s"] == 922 and doc["value"] == 0.01

    def test_regime3(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--op", "regime", "--regime", "3", "--k", "12", "--xi", "1"
        )
        doc = json.loads(out)
        assert doc["n"] == 155 and doc["target"] == 12.0

    def test_claim(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--op", "claim", "--x", "0.5", "--rho", "1")
        assert json.loads(out)["value"] <= 1e-12

    def test_p2(self, capsys):
        # p2 reads only k, t, a and r: no segmentation, or one that p1 would
        # refuse, gives the same document
        for segmentation in (
            ("--n", "1000", "--n-tilde", "100", "--b", "10"),
            (),
            ("--n", "10", "--n-tilde", "31", "--b", "32"),
        ):
            code, out, _ = run_cli(
                capsys, "bounds", "--op", "p2", "--k", "100", *segmentation,
                "--r", "40", "--t", "7.5", "--a", "4",
            )
            assert code == EXIT_OK
            assert out == '{"op": "p2", "k": 100, "s": 33, "threshold": 36.0}\n'

    def test_occupancy_no_balls(self, capsys):
        # used to exit 2 with "math domain error" from log(0)
        code, out, _ = run_cli(
            capsys, "bounds", "--op", "occupancy", "--k", "10", "--s", "0", "--a", "1"
        )
        assert code == EXIT_OK and json.loads(out)["value"] == 0.0

    def test_occupancy_product_overflow(self, capsys):
        # k * a overflows to inf; this used to exit 2 with "math domain error"
        code, out, _ = run_cli(
            capsys, "bounds", "--op", "occupancy", "--k", "1" + "0" * 30,
            "--s", "1", "--a", "1e300",
        )
        assert code == EXIT_OK and json.loads(out)["value"] == 0.0

    @pytest.mark.parametrize("t", ["1.4e154", "1e200"])
    def test_p1_huge_t(self, capsys, t):
        # t^2 overflows; this used to exit 2 with "Numerical result out of range"
        code, out, _ = run_cli(capsys, "bounds", "--op", "p1", "--k", "10", "--n", "10", "--t", t)
        assert code == EXIT_OK and json.loads(out)["value"] == 0.0

    @pytest.mark.parametrize(
        "n, t, value",
        [("1" + "0" * 309, "1", 1.0), ("1" + "0" * 308, "1e200", 0.0)],
        ids=["n=1e309", "n=1e308,t=1e200"],
    )
    def test_p1_huge_n(self, capsys, n, t, value):
        # n = 10^309 used to exit 2 with "int too large to convert to float",
        # and n = 10^308 at t = 1e200 printed NaN
        code, out, _ = run_cli(capsys, "bounds", "--op", "p1", "--k", "10", "--n", n, "--t", t)
        assert code == EXIT_OK and json.loads(out)["value"] == value


class TestSweepCommand:
    SWEEP = ("sweep", "--regime", "2", "--k-list", "4", "--rho", "1", "--trials", "4", "--seed", "21")

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "2", "--k-list", "4,6", "--rho", "1",
            "--trials", "5", "--seed", "21", "--estimator", "exact",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 3

    def test_workers_env_is_ignored(self, capsys, monkeypatch):
        # a sweep's configuration is its argv alone
        opened = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delenv("RFLCS_WORKERS", raising=False)
        expected = run_cli(capsys, *self.SWEEP)
        assert expected[0] == EXIT_OK
        for env in ("2", "abc"):
            monkeypatch.setenv("RFLCS_WORKERS", env)
            assert run_cli(capsys, *self.SWEEP) == expected
        assert opened == []

    def test_workers_flag_does_not_stick(self, capsys, monkeypatch):
        # the parser is shared by every call of main in a process
        opened = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, out, _ = run_cli(capsys, *self.SWEEP, "--workers", "2")
        assert code == EXIT_OK and opened == [2]
        assert run_cli(capsys, *self.SWEEP) == (EXIT_OK, out, "")
        assert opened == [2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_exact_beyond_cap_is_capacity_error(self, capsys, workers):
        # regime 3 at k = 200 (n = 22,479, m = 200): the solver's set-up
        # alone exceeds its work budget
        code, out, err = run_cli(
            capsys, "sweep", "--regime", "3", "--k-list", "200", "--xi", "1",
            "--trials", "2", "--seed", "21", "--estimator", "exact",
            "--workers", workers,
        )
        assert code == EXIT_CAPACITY and out == ""
        assert "capacity" in err and "Traceback" not in err

    def test_exact_large_k_small_m(self, capsys):
        # k = 25, but n = 10 keeps every m <= 10
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "1", "--n", "10", "--k-list", "25",
            "--trials", "4", "--seed", "21", "--estimator", "exact",
        )
        assert code == EXIT_OK
        row = dict(zip(CSV_HEADER.split(","), out.strip().split("\n")[1].split(",")))
        assert row["mean_R"] == row["lower"] == row["upper"]


class TestUniformityCommand:
    def test_exact_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "uniformity", "--n", "2", "--k", "2")
        assert code == EXIT_OK
        assert json.loads(out)["uniform"] is True

    @pytest.mark.parametrize("n, k", [("3", "7"), ("2", "12"), ("4", "3")])
    def test_bucket_order_independent_of_insertion(self, capsys, n, k):
        # each bucket's keys are in order of their symbols, by value (k = 12
        # has two-digit symbols)
        code, want, _ = run_cli(capsys, "uniformity", "--n", n, "--k", k)
        assert code == EXIT_OK
        for bucket in json.loads(want)["subset_counts"].values():
            keys = [list(map(int, key.split(","))) for key in bucket]
            assert keys == sorted(keys)

    def test_capacity(self, capsys):
        code, _, _ = run_cli(capsys, "uniformity", "--n", "8", "--k", "8")
        assert code == EXIT_CAPACITY

    @pytest.mark.parametrize("n, k", [("10", "2"), ("7", "3"), ("11", "2")])
    def test_capacity_solves(self, capsys, n, k):
        # under the pair cap, but 524,288 to 2,097,152 solves: refused
        # before the first
        start = time.monotonic()
        code, out, err = run_cli(capsys, "uniformity", "--n", n, "--k", k)
        assert code == EXIT_CAPACITY and out == ""
        assert "solves" in err and "Traceback" not in err
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("n, k", [("5000", "3"), ("100000000", "3"), ("1000000000", "1")])
    def test_capacity_huge_n(self, capsys, n, k):
        # refused before k^(2n) is computed, which would take minutes
        start = time.monotonic()
        code, _, err = run_cli(capsys, "uniformity", "--n", n, "--k", k)
        assert code == EXIT_CAPACITY and "capacity" in err
        assert time.monotonic() - start < 1.0


class TestCheckCommand:
    def test_reference_seed_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "42", "--trials", "20000")
        lines = out.strip().split("\n")
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        if code == EXIT_OK:
            assert all(line.startswith("PASS") for line in lines)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "gen", "--bogus")[0] == EXIT_USAGE

    def test_missing_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "5", "--k", "0", "--seed", "1")
        assert code == EXIT_USAGE and "error" in err

    def test_capacity_exact_solver(self, capsys, tmp_path):
        # n = 22,479 and m = 200: refused at set-up, before it is allocated
        path = tmp_path / "big.json"
        run_cli(capsys, "gen", "--n", "22479", "--k", "200", "--seed", "3", "--out", str(path))
        start = time.monotonic()
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--method", "exact")
        assert code == EXIT_CAPACITY and "capacity" in err
        assert time.monotonic() - start < 1.0

    def test_capacity_budget_exhausted_in_bounded_memory(self):
        # regime 2 rho = 2 at k = 40 (n = 253, m = 40) needs several times
        # the work budget; the search stops there and exits 3.
        cap_mb = 200
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "sweep", "--regime", "2", "--rho", "2",
            "--k-list", "40", "--trials", "1", "--seed", "1", "--estimator", "exact",
        )
        assert code == EXIT_CAPACITY and out == ""
        assert "work budget" in err and "Traceback" not in err
        assert peak_mb < cap_mb

    def test_exact_solve_fills_few_lcs_rows(self, capsys, tmp_path):
        # n = 20,000 with 3 common symbols: all 20,001 LCS rows of the search
        # take 50 MB and peaked at 84 MB; filled as far as the search reads
        # them, a few rows, the solve peaks near 33 MB
        cap_mb = 50
        path = tmp_path / "long.json"
        run_cli(capsys, "gen", "--n", "20000", "--k", "3", "--seed", "1", "--out", str(path))
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "solve", "--input", str(path), "--method", "exact",
        )
        assert code == EXIT_OK, err
        assert json.loads(out)["length"] == 3
        assert peak_mb < cap_mb

    def test_bracket_sweep_regime3_in_bounded_memory(self):
        # regime 3 at k = 500 (n = 104,223): L is far above k, so the upper's
        # LCS pass stops once it reaches k.  All n + 1 rows took 1.4 GB.
        cap_mb = 150
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "sweep", "--regime", "3", "--xi", "1",
            "--k-list", "500", "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_OK, err
        assert out.splitlines()[1] == "3,500,104223,1,500,0,500,500,500,1,0.004"
        assert peak_mb < cap_mb

    def test_bracket_sweep_regime3_k1000_in_bounded_memory(self):
        # regime 3 at k = 1000 (n = 327,664): peaks near 113 MB, of which
        # the match masks of y take 41 MB (160 MB while the capped pass kept
        # its 1,368 rows, 175 MB when the masks were ORed bit by bit).
        # Scattering them into a 1000 x n bool matrix before packing peaked
        # at 427 MB.  A bound on peak RSS, not on address space: the
        # interpreter maps about 140 MB with numpy imported, before any work
        cap_mb = 200
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "sweep", "--regime", "3", "--xi", "1",
            "--k-list", "1000", "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_OK, err
        assert out.splitlines()[1] == "3,1000,327664,1,1000,0,1000,1000,1000,1,0.002"
        assert peak_mb < cap_mb

    def test_bracket_sweep_regime2_in_bounded_memory(self):
        # regime 2 rho = 1 at k = 3000 (n = 82,159): L < k, so the upper's
        # LCS pass runs to the last row.  It keeps one row, and peaks near
        # 77 MB, of which the match masks of y take 31 MB; keeping all n + 1
        # rows for a witness peaked at 935 MB
        cap_mb = 150
        code, out, err, peak_mb = run_child(
            "-m", "rflcs.cli", "sweep", "--regime", "2", "--rho", "1",
            "--k-list", "3000", "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_OK, err
        assert out.splitlines()[1] == "2,3000,82159,1,1505,0,1505,2923,1896.361676,0,1"
        assert peak_mb < cap_mb

    def test_out_of_memory_is_capacity_error(self, capsys, tmp_path):
        # the LCS witness of n = 80,000 symbols over k = 3000 keeps all
        # 80,001 bit-parallel rows, about 800 MB of them.  Under a 600 MB
        # address-space cap, set after the imports, the MemoryError used to
        # end in a traceback and exit 1.
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--n", "80000", "--k", "3000", "--seed", "1", "--out", str(inst))
        path = tmp_path / "out.json"
        script = (
            "import resource, sys\n"
            "from rflcs import cli\n"
            "cap = 600 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        code, out, err, _ = run_child(
            "-c", script, "solve", "--input", str(inst), "--method", "lcs",
            "--out", str(path),
        )
        assert code == EXIT_CAPACITY and out == "" and not path.exists()
        assert err == "capacity error: out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--n", "10000000000", "--k", "2", "--seed", "1"),
            ("sweep", "--regime", "3", "--xi", "1", "--k-list", "1000000", "--trials", "1", "--seed", "1"),
        ],
    )
    def test_oversized_n_is_capacity_error(self, capsys, argv):
        # n = 10^10, and 2.1 * 10^10 for the sweep's instances: past the
        # generators' cap, so refused before numpy is asked for 74.5 or 154 GiB
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CAPACITY and out == "" and "Traceback" not in err
        assert time.monotonic() - start < 1.0

    def test_exact_solver_large_k_small_m(self, capsys, tmp_path):
        # k = 25 but only 16 symbols occur in both sequences
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--n", "30", "--k", "25", "--seed", "27", "--out", str(path))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "exact")
        assert code == EXIT_OK and json.loads(out)["method"] == "exact"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--op", "coupon", "--k", "100", "--xi", "inf"),
            ("bounds", "--op", "regime", "--regime", "2", "--k", "4", "--rho", "1e308"),
            ("sweep", "--regime", "2", "--rho", "inf", "--k-list", "4", "--trials", "2", "--seed", "1"),
            ("bounds", "--op", "occupancy", "--k", "0", "--a", "1"),
            ("bounds", "--op", "p1", "--k", "4", "--n", "10", "--n-tilde", "2", "--b", "2", "--t", "inf"),
            ("bounds", "--op", "bernstein", "--k", "10", "--s", "5", "--a", "nan"),
            ("bounds", "--op", "elb", "--x", "inf", "--p-below", "0.5"),
            ("uniformity", "--n", "2", "--k", "0"),
        ],
    )
    def test_non_finite_and_overflow_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--regime", "2", "--rho", "1", "--k-list", "16", "--n", "20", "--trials", "1", "--seed", "1"),
            ("sweep", "--regime", "3", "--xi", "1", "--k-list", "16", "--n", "20", "--trials", "1", "--seed", "1"),
            ("bounds", "--op", "regime", "--regime", "2", "--k", "16", "--rho", "1", "--n", "20"),
            ("bounds", "--op", "regime", "--regime", "3", "--k", "16", "--xi", "1", "--n", "20"),
        ],
    )
    def test_n_outside_regime_1_is_usage_error(self, capsys, argv):
        # regimes 2 and 3 set n themselves; a row at --n beside their target
        # at another n would contradict itself
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--op", "regime", "--regime", "1", "--k", "4", "--n", "-5"),
            ("sweep", "--regime", "1", "--k-list", "4", "--n", "-5", "--trials", "1", "--seed", "1"),
        ],
    )
    def test_negative_n_is_usage_error(self, capsys, argv):
        # the bounds op used to print a row with n = -5 and target -5.0
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and "Traceback" not in err

    def test_refused_k_stops_sweep_before_any_trial(self, capsys):
        # k = 1 is refused before k = 300's trials, which would exit 3 for
        # the exact solver's set-up charge
        code, out, err = run_cli(
            capsys, "sweep", "--regime", "3", "--xi", "1", "--k-list", "300,1",
            "--trials", "4", "--seed", "1", "--estimator", "exact",
        )
        assert code == EXIT_USAGE and out == "" and "k must be >= 2" in err

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--input", "/nonexistent.json", "--method", "exact")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, env", [(["--workers=0"], None), (["--workers", "-3"], None), (["--workers=0"], "2")]
    )
    def test_workers_below_one(self, capsys, monkeypatch, flag, env):
        # a valid RFLCS_WORKERS in the environment rescues nothing
        if env is not None:
            monkeypatch.setenv("RFLCS_WORKERS", env)
        code, out, err = run_cli(
            capsys, "sweep", "--regime", "2", "--k-list", "4", "--rho", "1",
            "--trials", "2", "--seed", "21", *flag,
        )
        assert code == EXIT_USAGE and out == "" and "workers must be >= 1" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "k": 3, "x": [0, 1]},
            {"n": 2, "k": 3, "x": [0, "a"], "y": [1, 2]},
            {"n": 2, "k": 3, "x": [0, 1.5], "y": [1, 2]},
            [0, 1],
            # positions_x = 9 is past n = 3, so the planted 1 is not in x
            {
                "n": 3, "k": 4, "x": [3, 1, 0], "y": [3, 0, 1],
                "planted": {"z": [3, 1], "positions_x": [0, 9], "positions_y": [0, 2]},
            },
            {"n": 2, "k": 3, "seed": "abc", "x": [0, 1], "y": [1, 2]},
            # a true certificate of one symbol that claims l = 5
            {
                "n": 3, "k": 4, "x": [3, 1, 0], "y": [3, 0, 1],
                "planted": {"l": 5, "z": [1], "positions_x": [1], "positions_y": [2]},
            },
            # each used to reach the certificate check, which indexed x by
            # the position or matched the symbol 1.0 to 1
            {
                "n": 2, "k": 3, "x": [1, 2], "y": [1, 2],
                "planted": {"z": [1], "positions_x": [0.0], "positions_y": [0]},
            },
            {
                "n": 2, "k": 3, "x": [1, 2], "y": [1, 2],
                "planted": {"z": [1], "positions_x": ["0"], "positions_y": [0]},
            },
            {
                "n": 2, "k": 3, "x": [1, 2], "y": [1, 2],
                "planted": {"z": [1.0], "positions_x": [0], "positions_y": [0]},
            },
            # refused by Instance and PlantedCertificate themselves
            {"n": 2, "k": 3, "x": [0, 5], "y": [1, 2]},
            {
                "n": 3, "k": 4, "x": [3, 1, 3], "y": [3, 3, 0],
                "planted": {"z": [3, 3], "positions_x": [0, 2], "positions_y": [0, 1]},
            },
            # fewer x positions than planted symbols; and positions that match
            # z's symbols, but in decreasing order
            {
                "n": 3, "k": 4, "x": [3, 1, 0], "y": [3, 0, 1],
                "planted": {"z": [3, 1], "positions_x": [0], "positions_y": [0, 2]},
            },
            {
                "n": 3, "k": 4, "x": [1, 3, 0], "y": [3, 0, 1],
                "planted": {"z": [3, 1], "positions_x": [1, 0], "positions_y": [0, 2]},
            },
            # text, written as is: truncated, and nested past json.loads's
            # recursion limit
            '{"n": 2,',
            "[" * 100_000 + "]" * 100_000,
            # bytes, written as is: a valid document in UTF-16, which starts
            # with the bytes FF FE
            json.dumps({"n": 2, "k": 3, "x": [0, 1], "y": [1, 2]}).encode("utf-16"),
        ],
        ids=[
            "missing-key", "string-symbol", "float-symbol", "not-an-object", "false-certificate",
            "string-seed", "planted-l-not-len-z", "float-position", "string-position",
            "float-planted-symbol", "symbol-out-of-range", "repeated-planted-symbol",
            "short-positions", "decreasing-positions", "truncated-json", "deeply-nested-json", "utf-16",
        ],
    )
    def test_malformed_instance(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--input", str(path), "--method", "exact")
        assert code == EXIT_USAGE and out == "" and err.count("malformed instance") == 1


class TestOutput:
    """main writes every command's text once, to stdout or to --out."""

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built an ArgumentParser")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        code, out, _ = run_cli(capsys, "bounds", "--op", "lambda", "--k", "10", "--s", "10")
        assert code == EXIT_OK and json.loads(out)["op"] == "lambda"
        code, out, _ = run_cli(capsys, *TestSweepCommand.SWEEP)
        assert code == EXIT_OK and out.startswith(CSV_HEADER)

    def test_import_loads_no_executor(self):
        # the sweep's process pool and the urn samplers' helper thread are
        # imported where they start, so start-up loads neither module
        code, out, err, _ = run_child(
            "-c",
            "import sys, rflcs.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
        )
        assert (code, out) == (0, "[]\n"), err

    def test_out_file_on_golden_grid(self, tmp_path):
        # --out gets exactly the recorded stdout bytes, and a usage or
        # capacity exit creates no file
        golden = _script("golden")
        for i, e in enumerate(json.loads((FIXTURES / "golden.json").read_text())):
            path = tmp_path / f"{i}.out"
            code, stdout = golden.run([*e["argv"], "--out", str(path)], e["input"])
            assert code == e["exit"], e["argv"]
            assert stdout == "", e["argv"]
            if code in (EXIT_OK, EXIT_CHECK_FAILED):
                _assert_recorded(golden, e, path.read_bytes().decode())
            else:
                assert not path.exists(), e["argv"]

    def test_out_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(
            capsys, "bounds", "--op", "lambda", "--k", "10", "--s", "10", "--out", str(path)
        )
        assert code == EXIT_USAGE and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--op", "regime", "--regime", "1", "--k", "4", "--n", "5"),
            ("sweep", "--regime", "1", "--n", "5", "--k-list", "4", "--trials", "2", "--seed", "1"),
        ],
    )
    def test_warning_is_one_line(self, capsys, argv):
        # n = 5 > k^(3/2) / 10 warns; the warning used to print the path of
        # the calling module and a source line.  The golden manifest pins
        # the stdout of both argvs
        show = warnings.showwarning
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert err.startswith("warning: regime 1 assumes") and err.count("\n") == 1
        assert ".py:" not in err
        assert warnings.showwarning is show


def _script(name):
    path = FIXTURES.parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _assert_recorded(golden, entry, out):
    # the entry stores `out` as golden.record does: as text when it is at
    # most golden.TEXT_MAX bytes, so a regeneration cannot store a digest for
    # a small stdout, and line by line, so a failure prints the replayed and
    # the stored lines that differ
    argv = " ".join(entry["argv"])
    recorded = golden.record(out)
    assert sorted(entry) == sorted(["argv", "input", "exit", *recorded]), argv
    for key, value in recorded.items():
        assert value == entry[key], argv


def test_golden_manifest():
    # every argv of scripts/golden.py keeps the exit code and stdout bytes
    # recorded in tests/fixtures/golden.json
    golden = _script("golden")
    entries = json.loads((FIXTURES / "golden.json").read_text())
    assert [(e["argv"], e["input"]) for e in entries] == golden.grid()
    for e in entries:
        code, out = golden.run(e["argv"], e["input"])
        assert code == e["exit"], " ".join(e["argv"])
        _assert_recorded(golden, e, out)
