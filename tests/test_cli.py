"""End-to-end runs of the command line driver via main(argv)."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import theta_forge
from theta_forge import cli
from theta_forge.arith import GaussianRational
from theta_forge.cli import main
from theta_forge.qseries import FracQSeries

from oracles import block_gram, congruent_gram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpandTheta:
    def test_plain_a2(self, capsys):
        code, out, _ = run(capsys, "expand-theta", "--lattice", "A2", "--prec", "4")
        assert code == 0
        assert out.strip() == "[1, 6, 0, 6]"

    def test_insertion(self, capsys):
        code, out, _ = run(
            capsys, "expand-theta", "--lattice", "A2", "--prec", "4", "--k", "2"
        )
        assert code == 0
        assert out.strip() == "[0, 6, 0, 18]"

    def test_explicit_vector(self, capsys):
        code, out, _ = run(
            capsys,
            "expand-theta",
            "--lattice",
            "A2",
            "--prec",
            "4",
            "--k",
            "2",
            "--v",
            "1,1 / s=1/2",
        )
        assert code == 0
        assert out.strip() == "[0, 6, 0, 18]"

    def test_gaussian_vector_component(self, capsys):
        # null direction on the split form: theta with insertion vanishes
        code, out, _ = run(
            capsys,
            "expand-theta",
            "--lattice",
            "A1A1",
            "--prec",
            "5",
            "--k",
            "2",
            "--v",
            "1,i",
        )
        assert code == 0
        assert out.strip() == "[0, 0, 0, 0, 0]"

    def test_badly_conditioned_a2(self, capsys, tmp_path):
        # A2 in the basis U = [[F35, F34], [F34, F33]] (Fibonacci numbers):
        # entries near 10^14, same lattice, enumerated in the reduced basis
        fib = [0, 1]
        while len(fib) < 36:
            fib.append(fib[-1] + fib[-2])
        u = ((fib[35], fib[34]), (fib[34], fib[33]))
        gram = congruent_gram(((2, -1), (-1, 2)), u)
        assert max(abs(x) for row in gram for x in row) > 10 ** 14
        path = tmp_path / "a2_skewed.json"
        path.write_text(json.dumps({"gram": gram}))
        code, out, _ = run(capsys, "expand-theta", "--lattice", str(path), "--prec", "4")
        assert code == 0
        assert out.strip() == "[1, 6, 0, 6]"

    def test_sparse_series_at_huge_precision(self, tmp_path):
        # a few hundred vectors below q^(10^11): the text output lists the
        # stored terms instead of every exponent.  Run in a child process
        # with a timeout, so a regression fails instead of hanging.
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"gram": [[2 * 10 ** 9, 0], [0, 2 * 10 ** 9]]}))
        src = str(Path(theta_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["expand-theta", "--lattice", str(path), "--prec", str(10 ** 11)]
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "theta_forge", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert time.monotonic() - start < 30
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:4] == ["q^0: 1", "q^1000000000: 4", "q^2000000000: 4", "q^4000000000: 4"]
        # m1^2 + m2^2 <= 99: every stored term is one line
        assert len(lines) == len({a * a + b * b for a in range(10) for b in range(10) if a * a + b * b < 100})

    def test_int64_overflow_refused(self, capsys, tmp_path):
        # exponents up to 10^19 do not fit in int64: the walk refuses
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"gram": [[2 * 10 ** 18, 0], [0, 2 * 10 ** 18]]}))
        code, out, err = run(
            capsys, "expand-theta", "--lattice", str(path), "--prec", str(10 ** 19 + 1)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "2^62" in err

    @pytest.mark.parametrize("text", ["[[2, 1], [1, 2]]", '{"gram": 5}', '{"gram": [2, 1]}'])
    def test_malformed_gram_file(self, capsys, tmp_path, text):
        # a usage error, not the exit 1 of a failed verification
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "expand-theta", "--lattice", str(path), "--prec", "3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad lattice file {path}: ")

    def test_unknown_lattice(self, capsys):
        code, _, err = run(capsys, "expand-theta", "--lattice", "Z9")
        assert code == 2
        assert err

    def test_bad_vector_spec(self, capsys):
        code, _, err = run(
            capsys, "expand-theta", "--lattice", "A2", "--k", "2", "--v", "1,2,3"
        )
        assert code == 2
        assert "len" in err or "components" in err or "rank" in err

    def test_bad_prec(self, capsys):
        code, _, err = run(capsys, "expand-theta", "--lattice", "A2", "--prec", "0")
        assert code == 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "expand-theta", "--lattice", "A2", "--prec", "6", "--format", "json"
        )
        assert code == 0
        series = FracQSeries.from_json_dict(json.loads(out))
        assert [series.coefficient(n).re for n in range(6)] == [1, 6, 0, 6, 6, 0]

    def test_json_deterministic(self, capsys):
        args = ("expand-theta", "--lattice", "D4", "--prec", "5", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestExpandPsi:
    def test_default_vector_on_root_lattice(self, capsys):
        code, out, _ = run(capsys, "expand-psi", "--lattice", "A2", "--prec", "3")
        assert code == 0
        assert "1/48" in out

    def test_rootless_defaults_to_scaled_shortest_vector(self, capsys):
        code, out, _ = run(capsys, "expand-psi", "--lattice", "2A2", "--prec", "3")
        assert code == 0
        explicit = run(
            capsys, "expand-psi", "--lattice", "2A2", "--prec", "3", "--v", "-1,-1 / s=1/4"
        )
        assert explicit == (0, out, "")

    def test_rootless_with_vector(self, capsys):
        code, out, _ = run(
            capsys,
            "expand-psi",
            "--lattice",
            "2A2",
            "--prec",
            "3",
            "--v",
            "1,0 / s=1/4",
        )
        assert code == 0

    def test_odd_index_rejected(self, capsys):
        code, _, err = run(capsys, "expand-psi", "--lattice", "A2", "--k", "3")
        assert code == 2

    def test_null_vector_prints_theta_k(self, capsys):
        # theta_2 of a null vector is identically 0, and so is its completion
        args = ("--lattice", "A1A1", "--k", "2", "--prec", "5", "--v", "1,i")
        code, out, _ = run(capsys, "expand-psi", *args)
        assert (code, out) == (0, "[0, 0, 0, 0, 0]\n")
        assert run(capsys, "expand-theta", *args) == (0, out, "")


class TestExpandEisenstein:
    def test_weight_two(self, capsys):
        code, out, _ = run(capsys, "expand-eisenstein", "--prec", "3")
        assert code == 0
        assert "-1/12" in out

    def test_weight_four(self, capsys):
        code, out, _ = run(capsys, "expand-eisenstein", "--weight", "4", "--prec", "3")
        assert code == 0
        assert out.strip() == "[1, 240, 2160]"

    def test_odd_weight_rejected(self, capsys):
        code, _, _ = run(capsys, "expand-eisenstein", "--weight", "3")
        assert code == 2


class TestVerifyIdentity:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--lattice", "A2", "--prec", "12")
        assert code == 0
        assert "root identity residual: 0 through q^12" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "verify-identity", "--lattice", "D4", "--prec", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["residual_zero"] is True
        assert doc["prec"] == 8

    def test_deep_identity(self, capsys):
        # the q^400 identity runs on packed-integer series products
        code, out, _ = run(
            capsys, "verify-identity", "--lattice", "A2", "--prec", "400", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "identity": "root", "lattice": "A2", "prec": 400, "residual_zero": True
        }

    def test_rootless_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "verify-identity", "--lattice", "2A2")
        assert code == 2


class TestVerifyLaws:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-laws",
            "--lattice",
            "A2",
            "--laws",
            "e2,inversion",
            "--count",
            "3",
            "--seed",
            "1",
        )
        assert code == 0
        assert out.count("PASS") == 6

    def test_impossible_tolerance(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-laws",
            "--lattice",
            "A2",
            "--laws",
            "congruence",
            "--count",
            "2",
            "--tol",
            "1e-18",
        )
        assert code == 1
        assert "FAIL" in out

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "verify-laws", "--laws", "teleportation")
        assert code == 2
        assert "teleportation" in err

    def test_nonpositive_count(self, capsys):
        code, out, err = run(capsys, "verify-laws", "--lattice", "A2", "--count", "-3", "--format", "json")
        assert code == 2
        assert out == ""
        assert "count must be" in err

    def test_nonpositive_tol(self, capsys):
        code, _, err = run(capsys, "verify-laws", "--laws", "inversion", "--tol", "0")
        assert code == 2
        assert "tol must be positive" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--laws", "cusp", "--k", "-2"), "k must be"),
            (("--laws", "generating", "--x-prec", "0"), "x_prec"),
        ],
    )
    def test_vacuous_settings_refused(self, capsys, flags, message):
        code, out, err = run(capsys, "verify-laws", *flags)
        assert code == 2
        assert message in err
        assert "reports" not in out

    @pytest.mark.parametrize("laws", ["cusp", "all", "inversion,cusp"])
    def test_odd_cusp_index_refused(self, capsys, monkeypatch, laws):
        # an odd k skips every cusp check, which used to print an empty
        # report and exit 0; it is refused before any check runs
        def no_campaign(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        code, out, err = run(capsys, "verify-laws", "--lattice", "A2", "--laws", laws, "--k", "3", "--count", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--k 3 is odd" in err

    def test_odd_index_runs_without_cusp(self, capsys):
        # no law but cusp reads k: inversion cycles its own powers
        code, out, err = run(
            capsys, "verify-laws", "--lattice", "A2", "--laws", "inversion", "--k", "3", "--count", "3",
            "--format", "json",
        )
        assert code == 0 and err == ""
        reports = json.loads(out)["reports"]
        assert [r["inputs"]["k"] for r in reports] == [0, 2, 4]
        assert all(r["pass"] for r in reports)

    def test_rootless_default_settings(self, capsys):
        # no roots on 2A2: the campaign uses the scaled shortest vector
        args = ("verify-laws", "--lattice", "2A2", "--count", "2", "--format", "json")
        code, out, err = run(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 20
        assert all(r["pass"] for r in doc["reports"])
        assert run(capsys, *args, "--v", "-1,-1 / s=1/4") == (0, out, err)

    def test_prec_not_accepted(self):
        with pytest.raises(SystemExit):
            main(["verify-laws", "--prec", "5"])

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-laws",
            "--lattice",
            "A2",
            "--laws",
            "gauss_orthogonality",
            "--count",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 2
        assert all(r["pass"] for r in doc["reports"])

    def test_large_det_orthogonality_returns(self, capsys, tmp_path):
        # det 16144: the det^3 class-pair sums are refused per matrix and
        # noted, where they used to run a Python triple loop without end
        path = tmp_path / "big.json"
        path.write_text('{"gram": [[2018, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}')
        start = time.perf_counter()
        _, out, err = run(
            capsys, "verify-laws", "--lattice", str(path), "--laws", "gauss_orthogonality",
            "--count", "1", "--format", "json",
        )
        assert time.perf_counter() - start < 10
        assert json.loads(out) == {"reports": []}
        assert "exceed budget" in err

    def test_huge_det_refused_in_a_child_process(self, tmp_path):
        # det 4 * 10^9 - 1: the congruence classes are refused before they
        # are built, so the run prints its error and exits 2; it used to
        # grow the class set until the process was killed.  The child gets
        # 2 GiB of address space, so a regression fails instead of filling
        # the machine's memory
        path = tmp_path / "huge_det.json"
        path.write_text(json.dumps({"gram": [[2 * 10 ** 9, 1], [1, 2]]}))
        src = str(Path(theta_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["verify-laws", "--lattice", str(path), "--laws", "all", "--count", "1"]
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "theta_forge", *argv], env=env, capture_output=True, text=True, timeout=20,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert time.monotonic() - start < 20
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and "congruence classes exceed budget" in done.stderr


    def test_walk_past_budget_keeps_the_campaign(self, capsys, tmp_path):
        # E8+D4 (rank 12): walks past the budget skip their check with a
        # note; the campaign used to end with exit code 2 and no report
        path = tmp_path / "e8d4.json"
        path.write_text(json.dumps({"gram": block_gram(theta_forge.CATALOG["E8"], theta_forge.CATALOG["D4"])}))
        code, out, err = run(
            capsys, "verify-laws", "--lattice", str(path), "--laws", "all", "--count", "1", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 6 and all(r["pass"] for r in reports)
        assert "inversion: skipped (estimated cost" in err

    def test_refused_translation_returns(self, capsys, tmp_path):
        # every translation walk on E8+E8 is refused; the law's attempts
        # are bounded, so the campaign returns with no report
        path = tmp_path / "e8e8.json"
        path.write_text(json.dumps({"gram": block_gram(theta_forge.CATALOG["E8"], theta_forge.CATALOG["E8"])}))
        start = time.perf_counter()
        _, out, err = run(
            capsys, "verify-laws", "--lattice", str(path), "--laws", "translation", "--count", "1",
            "--format", "json",
        )
        assert time.perf_counter() - start < 10
        assert json.loads(out) == {"reports": []}
        assert "translation: skipped (estimated cost" in err


class TestParseGaussian:
    @pytest.mark.parametrize(
        "text, re, im",
        [("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)), ("-1+i", -1, 1), ("2-i", 2, -1), ("1-1/2i", 1, Fraction(-1, 2))],
    )
    def test_two_part(self, text, re, im):
        assert cli._parse_gaussian(text) == GaussianRational(re, im)

    @pytest.mark.parametrize("text", ["1+", "1--i", "1/0i"])
    def test_refused(self, text):
        with pytest.raises(cli.UsageError, match="bad Gaussian rational"):
            cli._parse_gaussian(text)


class TestCatalog:
    def test_text_lists_all(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("A2", "A1A1", "2A2", "D4", "E8"):
            assert name in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        names = {row["name"] for row in doc["lattices"]}
        assert {"A2", "A1A1", "2A2", "D4", "E8"} <= names

    def test_env_dir(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "G2.json").write_text(json.dumps({"gram": [[2, 1], [1, 2]]}))
        monkeypatch.setenv("THETA_FORGE_CATALOG", str(tmp_path))
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "G2" in out
        code, out, _ = run(capsys, "expand-theta", "--lattice", "G2", "--prec", "4")
        assert code == 0
        assert out.strip() == "[1, 6, 0, 6]"

    def test_literal_path(self, capsys, tmp_path):
        p = tmp_path / "split.json"
        p.write_text(json.dumps({"gram": [[2, 0], [0, 2]]}))
        code, out, _ = run(capsys, "expand-theta", "--lattice", str(p), "--prec", "3")
        assert code == 0
        assert out.strip() == "[1, 4, 4]"
