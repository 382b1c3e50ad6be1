import hashlib
import importlib.util
import json
import math
import time
import warnings

import pytest

from conftest import FIXTURES, run_child
from rflcs import cli
from rflcs.cli import EXIT_CAPACITY, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from rflcs.experiments import CSV_HEADER


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

    @pytest.mark.parametrize(
        "gen_argv, digest",
        [
            (("--n", "60", "--k", "8", "--seed", "5"), "0c89203365abc01c982e3ddb7f63f905bca67a07bef6e793560dd0f9f6385bef"),
            (("--n", "800", "--k", "400", "--seed", "6"), "16ae80699c804c56127bf5d4499e6a45223ab25c589ae39bca821a948f96e621"),
        ],
    )
    def test_lcs_bytes_pinned(self, capsys, tmp_path, gen_argv, digest):
        # the digests were taken from the quadratic-table LCS the bit-parallel
        # rows replaced; they pin the witness's tie-breaks, not just its length
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen", *gen_argv, "--out", str(path))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "lcs")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        "argv, digest",
        [
            (("--k", "7", "--s-vec", "2,3,3,2"), "0f76cbc0508c89df114f69a901255d62121dbe11d923fb2ad28a5d065ee95893"),
            (("--k", "30", "--s", "200"), "1d20eeb87505187d894152ed82622923cdc4c46d195813b432e94e3f11d6c0c2"),
            (("--k", "6", "--s-vec", "2,2,3"), "9dabf20bb41dc0a9d32c4ff6456111bec407bf9ad61d064896b7be5fc9062ea2"),
        ],
    )
    def test_urn_exact_bytes_pinned(self, capsys, argv, digest):
        # the digests were taken from the enumeration and inclusion-exclusion
        # implementations the occupancy chain replaced
        code, out, _ = run_cli(capsys, "urn-exact", *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--k", "100", "--s", "922", "--trials", "50000", "--seed", "7"), "42052b689d32bd39498d53ac933b914d8d1f689e1ea413e5ca94eb403fe7319d"),
            (("--k", "50", "--s-vec", "10,10,10,10,10", "--trials", "50000", "--seed", "1844546741"), "f52e82bc94bdc7ba4c94d98c016dffac9b042b30b9abe882fc02bc36e37805f0"),
        ],
    )
    def test_urn_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # the digests were taken from the CSV joined whole before one write;
        # --out must write the same bytes as stdout
        code, out, _ = run_cli(capsys, "urn", *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        path = tmp_path / "urn.csv"
        assert run_cli(capsys, "urn", *argv, "--out", str(path))[0] == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "2", "--k-list", "4,6", "--rho", "1",
            "--trials", "5", "--seed", "21", "--estimator", "exact",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 3

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RFLCS_WORKERS", "2")
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "2", "--k-list", "4", "--rho", "1",
            "--trials", "4", "--seed", "21", "--estimator", "exact",
        )
        assert code == EXIT_OK and out.startswith(CSV_HEADER)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--regime", "3", "--xi", "1"), "5bc9fa77b3ea6a41e91269c7352359d3adcfc3d6274bb1a3c1160f6d6260ea78"),
            (("--regime", "2", "--rho", "4"), "4ae4e7a33d27d6c61405447cd7f66aa80e812557ff31a989d660c277526f2568"),
            (("--regime", "3", "--xi", "2"), "bf1661140e158c1e95ba90af6fe50d42147107f3cff6d16720774b6f87b34612"),
        ],
    )
    def test_exact_sweep_bytes_pinned(self, capsys, argv, digest):
        # m = 13 exact sweeps; the digests were taken from the class-based
        # engine the solver functions replaced
        code, out, _ = run_cli(
            capsys, "sweep", *argv, "--k-list", "13", "--trials", "8",
            "--estimator", "exact", "--seed", "11", "--workers", "1",
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--regime", "1", "--n", "800", "--k-list", "400", "--trials", "4"), "fef6b54fb7c131080658c081e84955654d1c24430486acc4aa7403bd2fc3fe37"),
            (("--regime", "2", "--rho", "1", "--k-list", "16,50,100,200", "--trials", "2"), "b2bef8fddcdc110e80061041efaa5e9b26a9642bfd082098b6ad1f35abd769c8"),
            (("--regime", "3", "--xi", "1", "--k-list", "16,40,60", "--trials", "1"), "7cb65c9853d09e18a21090da0f23e521135a9d28ceec621ba5c992b2023880f4"),
        ],
    )
    def test_bracket_sweep_bytes_pinned(self, capsys, argv, digest):
        # the bracket sweeps of the benchmark; the digests were taken from the
        # quadratic-table LCS the bit-parallel rows replaced
        code, out, _ = run_cli(capsys, "sweep", *argv, "--seed", "11", "--workers", "1")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "n, k, digest",
        [
            ("3", "7", "e4a3dc6db3e822d0bc9b99247d40d3e0af8ac670f3cf652d872d08592ea1fe47"),
            ("4", "3", "0767c62aff7c0992bdfae68e65146a795a0b65f7c62596b650dceecf395431fa"),
            # two-digit symbols, and x with up to 10 absent symbols
            ("3", "11", "c101bea8a11391d96243f158136ae629bbd54c9403c2730e0f8af621fd6bb1bb"),
            ("4", "5", "563ab5c4df9481a0fca8bd386ce3318ba1c4822c0bdd2e36ba306a807b608ade"),
        ],
    )
    def test_bytes_pinned(self, capsys, n, k, digest):
        # the (3, 7) and (4, 3) digests were taken from the loop over all
        # k^(2n) pairs, the others from the tally that solved y once per
        # class of symbols absent from x
        code, out, _ = run_cli(capsys, "uniformity", "--n", n, "--k", k)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_bytes_pinned(self, capsys):
        # three of the six items run the classical urn sampler; the digest
        # was taken from the sampler that drew 64-bit keys
        code, out, _ = run_cli(capsys, "check", "--seed", "42", "--trials", "20000")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f414954cacacbd18300288abb27fdf655eda21cdc92dec5705d895ce80f90b36"
        )


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

    def test_out_of_memory_is_capacity_error(self, tmp_path):
        # regime 2 at k = 3000 (n = 82,158): L < k, so the upper's LCS pass
        # keeps every row, 844 MB of them.  Under a 600 MB address-space cap,
        # set after the imports, the MemoryError used to end in a traceback
        # and exit 1.
        path = tmp_path / "out.csv"
        script = (
            "import resource, sys\n"
            "from rflcs import cli\n"
            "cap = 600 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        code, out, err, _ = run_child(
            "-c", script, "sweep", "--regime", "2", "--rho", "1", "--k-list", "3000",
            "--trials", "1", "--seed", "1", "--workers", "1", "--out", str(path),
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
        # the witness bytes of the class-based engine the solver functions replaced
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "61de5d3bcda62df30926aeb46837e1f923bec87c327daefc368183789486510d"
        )

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

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--input", "/nonexistent.json", "--method", "exact")
        assert code == EXIT_USAGE

    def test_malformed_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RFLCS_WORKERS", "abc")
        code, out, _ = run_cli(capsys, "bounds", "--op", "lambda", "--k", "10", "--s", "10")
        assert code == EXIT_OK and json.loads(out)["op"] == "lambda"
        code, _, err = run_cli(
            capsys, "sweep", "--regime", "2", "--k-list", "4", "--rho", "1",
            "--trials", "2", "--seed", "21",
        )
        assert code == EXIT_USAGE and "abc" in err

    @pytest.mark.parametrize("flag, env", [(["--workers=0"], None), (["--workers", "-3"], None), ([], "0")])
    def test_workers_below_one(self, capsys, monkeypatch, flag, env):
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
        ],
        ids=["missing-key", "string-symbol", "float-symbol", "not-an-object"],
    )
    def test_malformed_instance(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--input", str(path), "--method", "exact")
        assert code == EXIT_USAGE and out == "" and "malformed instance" in err


class TestOutput:
    """main writes every command's text once, to stdout or to --out."""

    def test_out_file_on_golden_grid(self, tmp_path):
        # --out gets exactly the recorded stdout bytes, and a usage or
        # capacity exit creates no file
        golden = _golden()
        for i, e in enumerate(json.loads((FIXTURES / "golden.json").read_text())):
            path = tmp_path / f"{i}.out"
            code, stdout_digest = golden.run([*e["argv"], "--out", str(path)], e["input"])
            assert code == e["exit"], e["argv"]
            assert stdout_digest == hashlib.sha256(b"").hexdigest(), e["argv"]
            if code in (EXIT_OK, EXIT_CHECK_FAILED):
                assert hashlib.sha256(path.read_bytes()).hexdigest() == e["sha256"], e["argv"]
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
        "argv, digest",
        [
            (("bounds", "--op", "regime", "--regime", "1", "--k", "4", "--n", "5"), "57ac21a7d92285abedc576213d53180d1d748cd60102167886a4f2000db5b037"),
            (("sweep", "--regime", "1", "--n", "5", "--k-list", "4", "--trials", "2", "--seed", "1"), "439885b6f49ead8d7e1c4f1840fc8ba115eabd8b7ee58f1ae0d13260f32af583"),
        ],
    )
    def test_warning_is_one_line(self, capsys, argv, digest):
        # n = 5 > k^(3/2) / 10 warns; the warning used to print the path of
        # the calling module and a source line
        show = warnings.showwarning
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err.startswith("warning: regime 1 assumes") and err.count("\n") == 1
        assert ".py:" not in err
        assert warnings.showwarning is show


def _golden():
    path = FIXTURES.parents[1] / "scripts" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def test_golden_manifest():
    # every argv of scripts/golden.py keeps the exit code and stdout bytes
    # recorded in tests/fixtures/golden.json
    golden = _golden()
    entries = json.loads((FIXTURES / "golden.json").read_text())
    assert [(e["argv"], e["input"]) for e in entries] == golden.grid()
    moved = [
        (e["argv"], e["input"])
        for e in entries
        if golden.run(e["argv"], e["input"]) != (e["exit"], e["sha256"])
    ]
    assert moved == []
