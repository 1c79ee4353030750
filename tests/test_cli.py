import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kakeyalab import verify
from kakeyalab.cli import main
from kakeyalab.ring import RingContext
from kakeyalab.serialize import (certificate_points_from_json, density_from_csv,
                                 density_to_csv, parse_value)
from kakeyalab.verify import random_density

RING = ["--mode", "padic", "-p", "2", "-l", "2", "-n", "2"]


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

    def test_ci_mode_requires_seed(self, capsys):
        code, _ = run_cli(["verify", *RING, "--ci", "plancherel"], capsys)
        assert code == 2
        code, _ = run_cli(["verify", *RING, "--ci", "--seed", "1", "--trials", "2", "plancherel"], capsys)
        assert code == 0

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

    def test_profinite_both_semantics(self, capsys):
        code, out = run_cli(["constants", "--mode", "profinite", "-L", "2", "-n", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["tables"]) == {"numeric", "divisibility"}

    def test_generic_ring_rejected(self, capsys):
        code, _ = run_cli(["constants", "--mode", "generic", "-N", "12", "-n", "2"], capsys)
        assert code == 2


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

    def test_oversized_coset_table_exits_3(self, capsys):
        code = main(["search", "-k", "1", "--mode", "padic", "-p", "2", "-l", "10", "-n", "3"])
        assert code == 3
        assert "exceeds physical memory" in capsys.readouterr().err

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

    def test_malformed_row_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,value\n0,0,1\n0,1,oops\n")
        ring = ["--mode", "padic", "-p", "3", "-l", "1", "-n", "2"]
        code = main(["transform", *ring, "--op", "fourier", "--input", str(bad)])
        assert code == 2


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
