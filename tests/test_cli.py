import hashlib
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kakeyalab import tables, verify
from kakeyalab.cli import main
from kakeyalab.ring import RingContext
from kakeyalab.serialize import (certificate_points_from_json, density_from_csv,
                                 density_to_csv, density_to_json, parse_value)
from kakeyalab.verify import random_density

RING = ["--mode", "padic", "-p", "2", "-l", "2", "-n", "2"]
# the fields of a padic(3,1,2) spectrum file, short of its coefficients
SPECTRUM = {"kind": "spectrum", "modulus": 3, "dimension": 2, "lane": "exact"}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_single_check_json(self, capsys):
        code, out = run_cli(["verify", *RING, "radiusN"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] and payload["reports"][0]["check"] == "radiusN"

    def test_text_format(self, capsys):
        code, out = run_cli(["verify", *RING, "--format", "text", "radiusN"], capsys)
        assert code == 0 and "radiusN" in out and "pass" in out

    def test_unknown_check_exits_2(self, capsys):
        code, _ = run_cli(["verify", *RING, "no-such-check"], capsys)
        assert code == 2

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_non_prime_p_exits_2(self, p, capsys):
        # p = 1 failed inside einsum, p = 4 passed every check on Z/16 as padic(p=4)
        code = main(["verify", "--mode", "padic", "-p", p, "-l", "2", "-n", "2", "radiusN"])
        assert code == 2
        assert capsys.readouterr().err == f"error: p must be prime, got {p}\n"

    @pytest.mark.parametrize("N", ["1", "0"])
    def test_modulus_below_two_exits_2(self, N, capsys):
        # N = 1 failed inside einsum with exit 2 and a numpy message
        code = main(["verify", "--mode", "generic", "-N", N, "-n", "2", "radiusN"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: -N must be at least 2, got {N}\n"

    def test_one_dimensional_ring_skips_divisor_reduction(self, capsys):
        # the quotient of an n = 1 ring does not exist: divisor-reduction is
        # skipped as projmax is, and the other checks still report
        code, out = run_cli(["verify", "--mode", "padic", "-p", "2", "-l", "1", "-n", "1",
                             "--trials", "2", "all"], capsys)
        assert code == 0
        reports = {r["check"]: r for r in json.loads(out)["reports"]}
        for check in ("divisor-reduction", "projmax"):
            assert reports[check]["status"] == "skipped"
            assert reports[check]["details"] == {"skipped": "needs n >= 2"}
        assert reports["plancherel"]["status"] == "pass"

    def test_ci_mode_requires_seed(self, capsys):
        code, _ = run_cli(["verify", *RING, "--ci", "plancherel"], capsys)
        assert code == 2
        code, _ = run_cli(["verify", *RING, "--ci", "--seed", "1", "--trials", "2", "plancherel"], capsys)
        assert code == 0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        # no trial is no measurement: the checks' 10**9 start value must not
        # be reported as a passing worst slack
        code = main(["verify", "--mode", "padic", "-p", "2", "-l", "2", "-n", "3",
                     "--trials", trials, "--seed", "1", "main-theorem"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --trials must be at least 1\n"

    @pytest.mark.filterwarnings("ignore:numeric band semantics")
    def test_failing_check_exits_1(self, capsys):
        # numeric band semantics over N = 24 violates coset constancy, so the
        # reduction check reports a failure
        code, out = run_cli(["verify", "--mode", "profinite", "-L", "3", "-n", "2",
                             "--semantics", "numeric", "--trials", "1",
                             "divisor-reduction"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert payload["reports"][0]["details"]["violation_count"] > 0

    @pytest.mark.parametrize("message", ["Unable to allocate 252. MiB for an array", ""])
    def test_failed_allocation_exits_3(self, capsys, monkeypatch, message):
        # a table build that fails below physical memory (as under ulimit -v,
        # where numpy raises MemoryError) ends in exit 3 and one error line
        def refused(ctx, k):
            raise MemoryError(message)

        monkeypatch.setattr(tables, "coset_plan", refused)
        code = main(["verify", *RING, "xray-l2"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"

    def test_check_ids_documented(self, capsys, monkeypatch):
        # the README's "Check ids:" line and the verify help both list
        # exactly the ids of the check table, in its order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        line = readme.split("Check ids:", 1)[1].split("or `all`", 1)[0]
        assert tuple(re.findall(r"`([^`]+)`", line)) == verify.CHECK_IDS
        monkeypatch.setenv("COLUMNS", "500")  # one help line per argument
        assert main(["verify", "--help"]) == 0
        help_line = next(ln for ln in capsys.readouterr().out.splitlines() if "ids:" in ln)
        assert tuple(help_line.split("ids:", 1)[1].strip().split(", ")) == verify.CHECK_IDS

    def test_determinism_hashes(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["verify", *RING, "--seed", "3", "--trials", "4", "--output", None, "plancherel", "rounding"]
        args[args.index(None)] = str(out1)
        assert main(args) == 0
        args[args.index(str(out1))] = str(out2)
        assert main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConstantsCommand:
    def test_padic_table(self, capsys):
        code, out = run_cli(["constants", "--mode", "padic", "-p", "2", "-l", "3", "-n", "3",
                             "--depth", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        sums = [row["chain_partial_sum"] for row in payload["tables"]["numeric"]]
        assert sums == sorted(sums)

    @pytest.mark.filterwarnings("ignore:numeric band semantics")
    def test_profinite_both_semantics(self, capsys):
        code, out = run_cli(["constants", "--mode", "profinite", "-L", "2", "-n", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["tables"]) == {"numeric", "divisibility"}

    def test_generic_ring_rejected(self, capsys):
        code, _ = run_cli(["constants", "--mode", "generic", "-N", "12", "-n", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("ring", [["--mode", "padic", "-p", "3", "-l", "2"],
                                      ["--mode", "profinite", "-L", "2"]], ids=["padic", "profinite"])
    def test_one_dimensional_ring_exits_2(self, ring, capsys):
        # the weight-1 constant's ceiling is 0 at n = 1: a ZeroDivisionError before
        code = main(["constants", *ring, "-n", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the integer-density constant is undefined at weight 1 and n = 1\n"


class TestSearchCommand:
    def test_greedy_with_bound(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, text = run_cli(["search", "--mode", "padic", "-p", "3", "-l", "1", "-n", "2",
                              "-k", "1", "--strategy", "greedy", "--output", str(out)], capsys)
        assert code == 0
        assert "line_bound=9/2" in text
        modulus, dim, k, points = certificate_points_from_json(out.read_text())
        assert (modulus, dim, k) == (3, 2, 1)
        assert len(points) >= 5

    def test_exact_strategy(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, text = run_cli(["search", "--mode", "padic", "-p", "2", "-l", "1", "-n", "3",
                              "-k", "2", "--strategy", "exact", "--output", str(out)], capsys)
        assert code == 0 and "optimal=True" in text and "size=7" in text

    def test_k_too_large_exits_2(self, capsys):
        code, _ = run_cli(["search", "--mode", "padic", "-p", "2", "-l", "1", "-n", "2",
                           "-k", "3"], capsys)
        assert code == 2

    def test_modulus_below_two_exits_2(self, capsys):
        # N = 1 died with an AttributeError traceback and exit 1, a failed check's code
        code = main(["search", "--mode", "generic", "-N", "1", "-n", "2", "-k", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: -N must be at least 2, got 1\n"

    def test_oversized_coset_table_exits_3(self, capsys):
        code = main(["search", "-k", "1", "--mode", "padic", "-p", "2", "-l", "10", "-n", "3"])
        assert code == 3
        assert "exceeds physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_2(self, budget, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["search", "--mode", "padic", "-p", "3", "-l", "1", "-n", "3", "-k", "2",
                     "--strategy", "exact", "--budget", budget, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: budget must be at least 1\n"
        assert not out.exists()

    def test_budget_exhaustion_exits_3_with_artifact(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _ = run_cli(["search", "--mode", "padic", "-p", "3", "-l", "1", "-n", "3",
                           "-k", "2", "--strategy", "exact", "--budget", "2",
                           "--output", str(out)], capsys)
        assert code == 3
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["optimal"] is False


class TestTransformCommand:
    @pytest.fixture()
    def density_file(self, tmp_path):
        ctx = RingContext.padic(3, 1, 2)
        f = random_density(ctx, seed=8, dist="uniform-rational")
        path = tmp_path / "f.csv"
        path.write_text(density_to_csv(f))
        return ctx, f, path

    def test_direction_of_wrong_length_named(self, density_file, capsys):
        _, _, path = density_file
        code = main(["transform", "--mode", "padic", "-p", "3", "-l", "1", "-n", "2", "--op", "xray",
                     "--direction", "1,2,3", "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: direction (1, 2, 3) has 3 coordinates, need 2\n"

    def test_modulus_below_two_exits_2(self, density_file, capsys):
        _, _, path = density_file
        code = main(["transform", "--mode", "generic", "-N", "1", "-n", "2", "--op", "fourier",
                     "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: -N must be at least 2, got 1\n"

    def test_fourier_round_trip_files(self, density_file, capsys, tmp_path):
        ctx, f, path = density_file
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        spec = tmp_path / "spec.json"
        back = tmp_path / "back.json"
        assert main(["transform", *ring, "--op", "fourier", "--input", str(path),
                     "--output", str(spec)]) == 0
        assert main(["transform", *ring, "--op", "ifourier", "--input", str(spec),
                     "--output", str(back)]) == 0
        payload = json.loads(back.read_text())
        assert [parse_value(v) for v in payload["values"]] == list(f.values())

    def test_xray_point_mass(self, capsys, tmp_path):
        ctx = RingContext.padic(3, 1, 2)
        from kakeyalab.harmonic import Density

        path = tmp_path / "delta.csv"
        path.write_text(density_to_csv(Density.indicator(ctx, [(0, 0)])))
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code, out = run_cli(["transform", *ring, "--op", "xray", "--direction", "1,0",
                             "--input", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [parse_value(v) for v in payload["values"]] == [Fraction(1, 3), 0, 0]

    def test_band_decomposition_sums_back(self, density_file, capsys, tmp_path):
        ctx, f, path = density_file
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        total = None
        for i in range(ctx.num_bands):
            code, out = run_cli(["transform", *ring, "--op", "band", "--index", str(i),
                                 "--input", str(path)], capsys)
            assert code == 0
            vals = [parse_value(v) for v in json.loads(out)["values"]]
            total = vals if total is None else [a + b for a, b in zip(total, vals)]
        assert total == list(f.values())

    def test_maximal_profile_csv(self, density_file, capsys):
        _, _, path = density_file
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code, out = run_cli(["transform", *ring, "--op", "maximal", "-k", "1",
                             "--format", "csv", "--input", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "flat,value,witness"

    @pytest.mark.parametrize("ring, index", [
        (["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"], "9"),
        (["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"], "-1"),
        (["--mode", "generic", "-N", "3", "-n", "2"], "0"),
    ], ids=["past-last-band", "negative", "no-scales"])
    def test_bad_band_exits_2(self, ring, index, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(density_to_csv(random_density(RingContext.generic(3, 2), seed=8)))
        code = main(["transform", *ring, "--op", "band", "--index", index, "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("op, payload", [
        ("xray", {"kind": "density", "dimension": 2, "lane": "exact", "values": []}),
        ("xray", [{"kind": "density"}]),
        ("ifourier", {"kind": "spectrum", "modulus": 3, "dimension": 2, "lane": "exact"}),
        ("ifourier", {**SPECTRUM, "coefficients": [["0/1"] * 3]}),
        ("ifourier", {**SPECTRUM, "coefficients": [{"root_coefficients": ["0/1"] * 3}]}),
        ("ifourier", {**SPECTRUM, "coefficients": [{"frequency": [0, 0]}]}),
        ("ifourier", {**SPECTRUM, "lane": "float", "coefficients": [{"frequency": [0, 0]}]}),
    ], ids=["density-without-modulus", "density-as-list", "spectrum-without-coefficients",
            "coefficient-as-list", "coefficient-without-frequency",
            "coefficient-without-root-coefficients", "float-coefficient-without-value"])
    def test_malformed_json_exits_2(self, op, payload, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", op, "--direction", "1,0", "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    # over N = 2, n = 2: a one-coordinate frequency was read as (0, 1), a
    # three-coordinate one raised IndexError, a repeated one overwrote the
    # first, one root coefficient broadcast to 1 + zeta = 0, bare float
    # values raised TypeError, exact values or root coefficients given as
    # JSON numbers raised AttributeError, and exact values given as one
    # string were read a character per point
    @pytest.mark.parametrize("payload, named", [
        ({"coefficients": [{"frequency": [1], "root_coefficients": ["1", "0"]}]},
         "spectrum coefficient 0: frequency [1] is not 2 coordinates in 0..1"),
        ({"coefficients": [{"frequency": [1, 1, 1], "root_coefficients": ["1", "0"]}]},
         "spectrum coefficient 0: frequency [1, 1, 1] is not 2 coordinates in 0..1"),
        ({"coefficients": [{"frequency": [0, 1], "root_coefficients": ["1", "0"]},
                           {"frequency": [0, 1], "root_coefficients": ["0", "1"]}]},
         "spectrum coefficient 1: frequency [0, 1] is given twice"),
        ({"coefficients": [{"frequency": [0, 1], "root_coefficients": ["1"]}]},
         "spectrum coefficient 0: ['1'] is not 2 root coefficients"),
        ({"lane": "float", "coefficients": [{"frequency": [0, 1], "value": 1.0}]},
         "spectrum coefficient 0: 1.0 is not an [re, im] pair of numbers"),
        ({"kind": "density", "lane": "float", "values": [0.5, 0.0, 0.0, 0.0]},
         "density value 0: 0.5 is not an [re, im] pair of numbers"),
        ({"kind": "density", "values": ["1", 0, 0, 0]},
         "density value 1: 0 is not a rational string"),
        ({"kind": "density", "values": "1234"},
         "density values: '1234' is not a list"),
        ({"coefficients": [{"frequency": [0, 1], "root_coefficients": [1, 0]}]},
         "spectrum coefficient 0: 1 is not a rational string"),
    ], ids=["short-frequency", "long-frequency", "repeated-frequency", "short-root-coefficients",
            "bare-spectrum-value", "bare-density-values", "numeric-exact-values",
            "string-exact-values", "numeric-root-coefficients"])
    def test_malformed_entry_named(self, payload, named, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "spectrum", "modulus": 2, "dimension": 2,
                                    "lane": "exact", **payload}))
        op = "ifourier" if "coefficients" in payload else "fourier"
        code = main(["transform", "--mode", "padic", "-p", "2", "-l", "1", "-n", "2",
                     "--op", op, "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_malformed_row_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,value\n0,0,1\n0,1,oops\n")
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", "fourier", "--input", str(bad)])
        assert code == 2

    def test_headroom_refusal_exits_3(self, capsys, tmp_path):
        # values of 2**62 fit int64, but their exact transform would not
        path = tmp_path / "big.csv"
        path.write_text("x1,x2,value\n" + "".join(f"{a},{b},{2**62}\n"
                                                   for a in range(3) for b in range(3)))
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", "fourier", "--input", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: exact-lane intermediate values")

    # 5 is not a coordinate mod 3 (it was read as 2), and a repeated point
    # overwrote the earlier row
    @pytest.mark.parametrize("rows, bad_row", [
        ("0,0,2\n5,0,1\n", 3),
        ("0,0,1\n1,0,1\n0,0,2\n", 4),
    ], ids=["coordinate-out-of-range", "repeated-point"])
    def test_bad_point_row_named(self, rows, bad_row, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,value\n" + rows)
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", "fourier", "--input", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: row {bad_row}: ")

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_float_lane_whatever_the_format(self, suffix, capsys, tmp_path):
        ctx = RingContext.padic(3, 1, 2)
        f = random_density(ctx, seed=8, dist="uniform-rational")
        path = tmp_path / f"f{suffix}"
        path.write_text(density_to_csv(f) if suffix == ".csv" else density_to_json(f))
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code, out = run_cli(["transform", *ring, "--op", "xray", "--direction", "1,0",
                             "--lane", "float", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["lane"] == "float"

    @pytest.mark.parametrize("op", [["fourier"], ["xray", "--direction", "1,0"],
                                    ["band", "--index", "0"]], ids=lambda op: op[0])
    def test_csv_only_for_maximal(self, op, density_file, capsys):
        _, _, path = density_file
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", *op, "--format", "csv", "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


# each option is parsed only by the command that reads it
@pytest.mark.parametrize("args", [
    ["verify", *RING, "--lane", "float", "radiusN"],
    ["search", *RING, "-k", "1", "--seed", "1"],
    ["constants", *RING, "--trials", "5"],
    ["verify", *RING, "--format", "csv", "radiusN"],
    ["constants", *RING, "--format", "text"],
], ids=["verify-lane", "search-seed", "constants-trials", "verify-csv", "constants-text"])
def test_option_of_another_command_exits_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: " in err


class TestCsvRoundTrip:
    def test_density_csv_round_trip(self):
        ctx = RingContext.generic(6, 2)
        f = random_density(ctx, seed=12, dist="uniform-rational")
        assert density_from_csv(density_to_csv(f), ctx) == f


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kakeyalab.cli", "verify", *RING, "--trials", "2", "plancherel"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_passed"]


def test_verify_all_never_imports_numpy_ma():
    # numpy imports numpy.ma lazily (np.unique does, through np.ma.is_masked),
    # about 15 ms and 1 MB in each fresh process
    code = ("import sys\nfrom kakeyalab import cli\n"
            "cli.main(['verify', 'all', '--trials', '1'])\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0
    assert proc.stderr.strip() == "False"


@pytest.mark.parametrize("call", [
    "cli.main(['search', '--strategy', 'exact', '--mode', 'padic', '-p', '2', '-l', '2',"
    " '-n', '3', '-k', '2'])",
    "ctx = RingContext.generic(6, 2)\n"
    "search.certify([(a - 6, b + 2**70) for a, b in search.greedy_kakeya(ctx, 1).points], ctx, 1)\n"
    "search.certify(list(ctx.points()), ctx, 2)"], ids=["exact-search", "certify"])
def test_search_never_imports_numpy_ma(call):
    code = ("import sys\nfrom kakeyalab import cli, search\nfrom kakeyalab.ring import RingContext\n"
            f"{call}\nprint('numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


# sha256 of the default JSON of `kakeyalab verify all --trials 5 --seed S`.
# A performance change keeps these bytes; a change that must move them
# updates the digest here and says in CHANGES.md which fields moved and why.
GOLDEN_REPORTS = {
    1: "832e531de01349a7d182c0daa0ab676c44d836475a54e32618118ff9f4d43e81",
    2: "341d23a02c4c3f3edd182b20a6bf6f25cb3519e4b57ea18f4a24514a87d66cdf",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORTS))
def test_verify_all_report_bytes_are_frozen(seed, capsys):
    code, out = run_cli(["verify", "all", "--trials", "5", "--seed", str(seed)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[seed]


# sha256 of the default JSON of `kakeyalab verify projmax --trials 2
# --seed 1` on a composite ring and a prime-power ring, frozen like
# GOLDEN_REPORTS.
GOLDEN_PROJMAX = {
    ("--mode", "profinite", "-L", "3", "-n", "3"):
        "ae06202b3503cf7abc7d1bd298901802bffdc25fecda8fca93e215f7923ec8d6",
    ("--mode", "padic", "-p", "2", "-l", "4", "-n", "3"):
        "827843f0edd9035610c93ed0fd32b0ffc1f74fd9042bf63ea2a569b6005885bb",
}


@pytest.mark.parametrize("ring", sorted(GOLDEN_PROJMAX), ids=" ".join)
def test_projmax_report_bytes_are_frozen(ring, capsys):
    code, out = run_cli(["verify", *ring, "--trials", "2", "--seed", "1", "projmax"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROJMAX[ring]


def test_verify_all_searches_once(monkeypatch, capsys):
    # maxest and besicovitch share one set of search certificates
    from kakeyalab import search

    calls = []
    exact = search.exact_min_kakeya
    monkeypatch.setattr(search, "exact_min_kakeya",
                        lambda *args, **kw: calls.append(args) or exact(*args, **kw))
    verify.search_certificates.cache_clear()
    try:
        code, _ = run_cli(["verify", "all", "--trials", "1", "--seed", "1"], capsys)
    finally:
        verify.search_certificates.cache_clear()
    assert code == 0
    assert len(calls) == len(verify.besicovitch_rings()) == 2


# sha256 of the default JSON of `kakeyalab constants` on two rings, frozen
# like GOLDEN_REPORTS.
GOLDEN_LEDGERS = {
    ("--mode", "padic", "-p", "2", "-l", "3", "-n", "3"):
        "35477a4996d300691ff8fb6a3e0a41a30d2adb6ffa7a869ca730a5b3681abac5",
    ("--mode", "profinite", "-L", "2", "-n", "3"):
        "9d9048e917be1a8283292c6f54a2d8f94acb7d5f1b365979fe6a3132ef02054e",
}


@pytest.mark.parametrize("ring", sorted(GOLDEN_LEDGERS), ids=" ".join)
def test_constants_bytes_are_frozen(ring, capsys):
    code, out = run_cli(["constants", *ring], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LEDGERS[ring]


def test_constants_build_nothing_ring_sized(capsys):
    # padic(2,10,3) has 2**30 points; the ledger evaluates its reference
    # constant at weight 1, so no density or line table of that size is built
    start = time.perf_counter()
    code, out = run_cli(["constants", "--mode", "padic", "-p", "2", "-l", "10", "-n", "3"], capsys)
    assert code == 0 and json.loads(out)["ledger"]
    assert time.perf_counter() - start < 10


# sha256 of the default output of `kakeyalab transform` on one fixed
# density file (the seed-8 uniform-rational density of padic(2,2,3) as
# CSV), per operation, frozen like GOLDEN_REPORTS.
GOLDEN_TRANSFORMS = {
    ("--op", "fourier"):
        "1f2801bd6cbb01dc78ae8db48345260ae77c39675abf31a55054145de1a57e0e",
    ("--op", "xray", "--direction", "1,2,3"):
        "aba58f3d194a2a9ea976e775d6a8e9ada93cc9ff8059384a69e43e401284bf3b",
    ("--op", "band", "--index", "1"):
        "c0b93d93dae0912257097c2b692a0e7ad8934a83a6efe7fb333bdff974323413",
    ("--op", "maximal", "-k", "1"):
        "0a0be3dc587ae42266db7cd3e5fb328b896e8194f6bcaeb7df09f6c557a8f72a",
    ("--op", "maximal", "-k", "2"):
        "2604f1cb649ad7938edddd464d1cd1f3755bfae0ab5d2f457cf9b26c94fd2e2a",
}


@pytest.mark.parametrize("op", sorted(GOLDEN_TRANSFORMS), ids=" ".join)
def test_transform_bytes_are_frozen(op, capsys, tmp_path):
    ctx = RingContext.padic(2, 2, 3)
    path = tmp_path / "f.csv"
    path.write_text(density_to_csv(random_density(ctx, seed=8, dist="uniform-rational")))
    ring = ["--mode", "padic", "-p", "2", "-l", "2", "-n", "3"]
    code, out = run_cli(["transform", *ring, *op, "--input", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TRANSFORMS[op]


# The same for the operators that read the coset table, per ring and
# lane: the density above in the float lane, and the seed-3
# uniform-rational density of the composite ring generic(12,2) in both.
GOLDEN_LANE_TRANSFORMS = {
    ("padic", "float", "--op", "xray", "--direction", "1,2,3"):
        "9de8de29715bc6b3e85ed3e9e8e56f31f2cbbfd2a602ec9eab168d2ac06e5623",
    ("padic", "float", "--op", "maximal", "-k", "1"):
        "e9fd70444eb3b1b5b211ce19009706c6adec1360d3a9f0cb8b9c6927c1aea484",
    ("padic", "float", "--op", "maximal", "-k", "2"):
        "4a7fa86492761659a5f184b5a4322ed3db7e201e036ee368d8fa3bc387b5bb91",
    ("generic", "exact", "--op", "xray", "--direction", "2,3"):
        "6b829ca3efb16ae3cc150b9e5cf8bcfa818362a179c23007eabcd0058cc9fba4",
    ("generic", "exact", "--op", "maximal", "-k", "1"):
        "113bbce4180d4b7429230d782ce30237b494a11a28558f645d7731a345004e22",
    ("generic", "exact", "--op", "maximal", "-k", "2"):
        "b64238d722dc8ccf3299602db71a338bdbf06a212dc822a3d3fbddca41515826",
    ("generic", "float", "--op", "xray", "--direction", "2,3"):
        "01ece53afb33e228cde011e34e6cfd0dadaa5840ef3923eebbb3639503b49720",
    ("generic", "float", "--op", "maximal", "-k", "1"):
        "f7eca0b2d0c7ad8f5938d15510f250a407f9a5407be6c08b5c67f5c26540555f",
    ("generic", "float", "--op", "maximal", "-k", "2"):
        "8d9602e8c36d469f82ca0a163d3f30a0b5c16fc168407d97cfab7d4d184069d6",
}
LANE_TRANSFORM_RINGS = {
    "padic": (RingContext.padic(2, 2, 3), 8, ["--mode", "padic", "-p", "2", "-l", "2", "-n", "3"]),
    "generic": (RingContext.generic(12, 2), 3, ["--mode", "generic", "-N", "12", "-n", "2"]),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_LANE_TRANSFORMS), ids=" ".join)
def test_lane_transform_bytes_are_frozen(key, capsys, tmp_path):
    ring, lane, *op = key
    ctx, seed, args = LANE_TRANSFORM_RINGS[ring]
    path = tmp_path / "f.csv"
    path.write_text(density_to_csv(random_density(ctx, seed=seed, dist="uniform-rational")))
    code, out = run_cli(["transform", *args, "--lane", lane, *op, "--input", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LANE_TRANSFORMS[key]
