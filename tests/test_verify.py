"""Numeric law checks at pinned matrices plus campaign plumbing."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from theta_forge.lattice import (
    CongruenceClass,
    InsertionVector,
    catalog_form,
    unit_insertion_vector,
)
from theta_forge.arith import GaussianRational
from theta_forge.verify import (
    _GAUSS_SUM_CAP,
    LAW_IDS,
    Gamma0Matrix,
    LawReport,
    check_congruence_modularity,
    check_cusp_expansion,
    check_e2_quasimodularity,
    check_gauss_closed_form,
    check_gauss_orthogonality,
    check_generating_modularity,
    check_inversion_law,
    check_poisson_inversion,
    check_rescale,
    check_translation,
    run_campaign,
    sample_gamma0,
)

A2 = catalog_form("A2")
V_A2 = unit_insertion_vector(A2)
IDENT = Gamma0Matrix(1, 0, 0, 1)


class TestSampling:
    def test_deterministic(self):
        assert sample_gamma0(3, 8, seed=5) == sample_gamma0(3, 8, seed=5)
        assert sample_gamma0(3, 8, seed=5) != sample_gamma0(3, 8, seed=6)

    def test_matrix_properties(self):
        mats = sample_gamma0(4, 12, seed=1)
        assert len(mats) == 12
        assert len({(g.c, g.d) for g in mats}) == 12
        for g in mats:
            assert g.a * g.d - g.b * g.c == 1
            assert g.c % 4 == 0
            assert g.c > 0 and g.d > 0

    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            Gamma0Matrix(1, 1, 1, 1)

    def test_action(self):
        g = Gamma0Matrix(2, 1, 3, 2)
        tau = 0.3 + 1.1j
        assert abs(g.act(tau) - (2 * tau + 1) / (3 * tau + 2)) < 1e-15


class TestReport:
    def test_pass_flag_follows_tolerance(self):
        r = LawReport.make("e2", {}, 1e-12, 1e-9)
        assert r.passed
        r2 = LawReport.make("e2", {}, 1e-3, 1e-9)
        assert not r2.passed

    def test_json_shape(self):
        d = LawReport.make("e2", {"tau": "i"}, 1e-12, 1e-9).to_json_dict()
        assert d["law"] == "e2"
        assert d["pass"] is True
        assert d["residual"] <= 1e-12

    # v=None (the plain series): each check, then the input keys its report carries
    PLAIN = {
        "inversion": (lambda h: check_inversion_law(A2, h, None, 0, 0.1 + 1.1j, 1e-8),
                      {"form", "h", "v", "k", "tau"}),
        "congruence": (lambda h: check_congruence_modularity(
                           A2, h, None, 0, Gamma0Matrix(1, 0, 3, 1), 0.1 + 1.1j, 1e-8),
                       {"form", "h", "v", "k", "gamma", "tau"}),
        "translation": (lambda h: check_translation(A2, h, None, 0, 0.1 + 1.1j, 1e-8),
                        {"form", "h", "v", "k", "tau"}),
        "rescale": (lambda h: check_rescale(A2, h, None, 0, 2, 0.1 + 1.1j, 1e-8),
                    {"form", "h", "v", "k", "c", "tau"}),
    }

    @pytest.mark.parametrize("law", sorted(PLAIN))
    def test_plain_series_writes_null_vector(self, law):
        check, keys = self.PLAIN[law]
        d = check(CongruenceClass(A2, (1, 2))).to_json_dict()
        assert d["law"] == law and d["pass"] is True
        assert d["inputs"]["v"] is None
        assert set(d["inputs"]) == keys
        assert d["inputs"]["h"] == [1, 2] and d["inputs"]["k"] == 0
        json.dumps(d)  # the encoded inputs are plain JSON


class TestIdentityMatrix:
    # the c = 0 evaluation path involves only exact unit powers, so the
    # residual must come out as literal floating zero, not merely small
    def test_generating_exact_zero(self):
        res = check_generating_modularity(A2, V_A2, IDENT, 0.23 + 0.9j, 3, 1e-8)
        assert res.residual == 0.0

    def test_e2_exact_zero(self):
        assert check_e2_quasimodularity(IDENT, 0.1 + 1.2j, 1e-9).residual == 0.0


class TestGeneratingLaw:
    def test_pinned_matrix(self):
        g = Gamma0Matrix(1, 1, 3, 4)
        res = check_generating_modularity(A2, V_A2, g, -0.25 + 0.4j, 4, 1e-8)
        assert res.residual < 1e-10

    def test_null_vector(self):
        a11 = catalog_form("A1A1")
        vnull = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), 1)
        g = Gamma0Matrix(1, 0, 4, 1)
        res = check_generating_modularity(a11, vnull, g, 0.3 + 0.8j, 4, 1e-8)
        assert res.residual < 1e-10

    @pytest.mark.parametrize("lam", [2, 3])
    def test_scaling_insertion_vector_keeps_law(self, lam):
        # the law holds for any insertion vector, so scaling w by lam
        # must leave the residual at noise level
        g = Gamma0Matrix(1, 1, 3, 4)
        tau = 0.21 + 1.3j
        scaled = InsertionVector(tuple(c * lam for c in V_A2.w), V_A2.s)
        r1 = check_generating_modularity(A2, V_A2, g, tau, 3, 1e-8).residual
        r2 = check_generating_modularity(A2, scaled, g, tau, 3, 1e-8).residual
        assert r2 < 2 * r1 + 1e-13
        assert r1 < 2 * r2 + 1e-13

    def test_empty_x_expansion_rejected(self):
        # x_prec = 0 compares two empty sums and used to pass with residual 0
        g = Gamma0Matrix(1, 1, 3, 4)
        with pytest.raises(ValueError, match="x_prec"):
            check_generating_modularity(A2, V_A2, g, 0.21 + 1.3j, 0, 1e-8)

    def test_missing_vector_rejected(self):
        # used to fail with AttributeError on None.norm
        g = Gamma0Matrix(1, 1, 3, 4)
        with pytest.raises(ValueError, match="insertion vector"):
            check_generating_modularity(A2, None, g, 0.21 + 1.3j, 2, 1e-8)


class TestInversion:
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_all_classes(self, k):
        for h in A2.congruence_classes():
            res = check_inversion_law(A2, h, V_A2, k, 0.4 + 0.9j, 1e-8)
            assert res.residual < 1e-8

    @pytest.mark.parametrize("name", ["A1A1", "2A2", "D4"])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_every_class_beyond_a2(self, name, k):
        form = catalog_form(name)
        v = unit_insertion_vector(form)
        for h in form.congruence_classes():
            for tau in (0.4 + 0.9j, -0.2 + 1.1j):
                res = check_inversion_law(form, h, v, k, tau, 1e-9)
                assert res.passed, (h, tau, res.residual)

    def test_large_index_rejected(self):
        h = A2.congruence_classes()[0]
        with pytest.raises(ValueError):
            check_inversion_law(A2, h, V_A2, 10, 1j, 1e-8)


class TestCongruence:
    def test_discriminating_matrix(self):
        # a != b here, so this matrix pins down which class appears on the
        # right-hand side; cross-checked by hand at k = 0
        g = Gamma0Matrix(1, 6, 6, 37)
        h = CongruenceClass(A2, (1, 2))
        for k in (0, 2):
            res = check_congruence_modularity(A2, h, V_A2, k, g, 0.1 + 1.1j, 1e-8)
            assert res.residual < 1e-10

    def test_zero_class(self):
        g = Gamma0Matrix(1, 1, 3, 4)
        h = CongruenceClass(A2, (0, 0))
        res = check_congruence_modularity(A2, h, V_A2, 2, g, 0.2 + 1.0j, 1e-8)
        assert res.residual < 1e-10

    def test_negative_d_rejected(self):
        g = Gamma0Matrix(-1, 1, -3, 2)
        h = CongruenceClass(A2, (0, 0))
        with pytest.raises(ValueError):
            check_congruence_modularity(A2, h, V_A2, 0, g, 1j, 1e-8)


class TestTranslationRescale:
    def test_translation_all_classes(self):
        for h in A2.congruence_classes():
            assert check_translation(A2, h, V_A2, 2, 0.37 + 1.2j, 1e-9).residual < 1e-12

    @pytest.mark.parametrize("c", [2, 3])
    def test_rescale(self, c):
        h = CongruenceClass(A2, (1, 2))
        res = check_rescale(A2, h, V_A2, 2, c, 0.15 + 1.4j, 1e-8)
        assert res.residual < 1e-10


class TestCuspExpansion:
    def test_weight_four_at_sampled_matrix(self):
        g = Gamma0Matrix(1, 1, 3, 4)
        res = check_cusp_expansion(A2, V_A2, 4, g, -0.3 + 0.7j, 1e-7)
        assert res.residual < 1e-7

    def test_rank_eight_at_inversion_point(self):
        e8 = catalog_form("E8")
        v8 = unit_insertion_vector(e8)
        g = Gamma0Matrix(0, -1, 1, 0)
        res = check_cusp_expansion(e8, v8, 2, g, 1.3j, 1e-8)
        assert res.residual < 1e-8

    def test_odd_index_rejected(self):
        g = Gamma0Matrix(0, -1, 1, 0)
        with pytest.raises(ValueError):
            check_cusp_expansion(A2, V_A2, 3, g, 1.1j, 1e-7)

    def test_negative_index_rejected(self):
        # k = -2 made both sides empty sums, a pass with residual 0
        g = Gamma0Matrix(0, -1, 1, 0)
        with pytest.raises(ValueError):
            check_cusp_expansion(A2, V_A2, -2, g, 1.1j, 1e-7)


class TestPoisson:
    def test_pinned_offset(self):
        x = (Fraction(1, 3), Fraction(1, 5))
        assert check_poisson_inversion(A2, x, 0.3 + 1.1j, 1e-8).residual < 1e-8

    def test_zero_offset(self):
        x = (Fraction(0), Fraction(0))
        assert check_poisson_inversion(A2, x, 0.2 + 1.0j, 1e-8).residual < 1e-10


class TestGaussSums:
    def test_orthogonality(self):
        for g in sample_gamma0(3, 6, seed=11):
            assert check_gauss_orthogonality(A2, g, 1e-10).residual < 1e-10

    def test_closed_form(self):
        for g in sample_gamma0(3, 6, seed=12):
            for h in A2.congruence_classes():
                assert check_gauss_closed_form(A2, g, h, 1e-10).residual < 1e-10

    def test_closed_form_d4_every_class(self):
        # every matrix whose Gauss sum the campaign would evaluate
        d4 = catalog_form("D4")
        for g in sample_gamma0(2, 40, seed=0):
            if g.d ** d4.rank > _GAUSS_SUM_CAP:
                continue
            for h in d4.congruence_classes():
                assert check_gauss_closed_form(d4, g, h, 1e-10).residual < 1e-10

    def test_closed_form_nontrivial_phase(self):
        # d = 4 has character -1 on this form and Q(h) a b / 9 is not integral
        g = Gamma0Matrix(1, 1, 3, 4)
        h = CongruenceClass(A2, (1, 2))
        assert check_gauss_closed_form(A2, g, h, 1e-10).residual < 1e-12


class TestCampaign:
    # sha256 of the canonical JSON of the (law, inputs) pairs and the notes
    # of an all-law campaign at count 3, seed 0: it pins the order in which
    # the laws draw matrices, tau points, classes and rescale factors from
    # the shared rng.  Residuals are platform floats and stay out.
    DRAW_DIGESTS = {
        "A2": "416d4cab2fdbdcee7f670bef6609b55142b1f760149bd745a8e6b695f32429f3",
        "A1A1": "90382ea2d5d5f51569088aa58ce9c759b2cca7df3be5eb1b70d62eb5cba64790",
    }

    @pytest.mark.parametrize("name", sorted(DRAW_DIGESTS))
    def test_draw_stream_pinned(self, name):
        reports, notes = run_campaign(catalog_form(name), LAW_IDS, 3, seed=0, tol=1e-8)
        blob = json.dumps(
            {"draws": [[r.law, r.inputs] for r in reports], "notes": notes},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DRAW_DIGESTS[name]

    def test_deterministic_and_counted(self):
        r1, n1 = run_campaign(A2, ("e2", "inversion"), 6, seed=3, tol=1e-8)
        r2, n2 = run_campaign(A2, ("e2", "inversion"), 6, seed=3, tol=1e-8)
        assert [r.to_json_dict() for r in r1] == [r.to_json_dict() for r in r2]
        assert n1 == n2
        per_law = {law: 0 for law in ("e2", "inversion")}
        for r in r1:
            per_law[r.law] += 1
        assert per_law == {"e2": 6, "inversion": 6}

    def test_all_laws_pass_on_a2(self):
        reports, _ = run_campaign(A2, LAW_IDS, 3, seed=7, tol=1e-7)
        assert reports
        assert all(r.passed for r in reports)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(A2, ("no-such-law",), 2, seed=0, tol=1e-8)

    # laws that draw no matrix used to retry forever on a non-positive tol
    @pytest.mark.parametrize("law", ["inversion", "translation", "rescale", "poisson"])
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_nonpositive_tol_rejected(self, law, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            run_campaign(A2, (law,), 1, seed=0, tol=tol)

    # settings under which a check compares empty sums are refused up front
    @pytest.mark.parametrize(
        "law, settings",
        [
            ("cusp", {"k": -2}),
            ("cusp", {"k": -1}),
            ("generating", {"x_prec": 0}),
            ("generating", {"x_prec": -3}),
        ],
    )
    def test_vacuous_settings_rejected(self, law, settings):
        with pytest.raises(ValueError):
            run_campaign(A2, (law,), 1, seed=0, **settings)

    def test_rank_four_sampler(self):
        d4 = catalog_form("D4")
        reports, _ = run_campaign(d4, ("congruence",), 3, seed=2, tol=1e-7)
        assert len(reports) == 3
        assert all(r.passed for r in reports)
