"""End-to-end runs of the command line driver via main(argv)."""

import json

import pytest

from theta_forge.cli import main
from theta_forge.qseries import FracQSeries


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

    def test_nonpositive_tol(self, capsys):
        code, _, err = run(capsys, "verify-laws", "--laws", "inversion", "--tol", "0")
        assert code == 2
        assert "tol must be positive" in err

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
