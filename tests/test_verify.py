"""Numeric law checks at pinned matrices plus campaign plumbing."""

import cmath
import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from theta_forge import lattice, modforms, verify
from theta_forge.lattice import (
    CongruenceClass,
    EnumerationBudgetError,
    InsertionVector,
    QuadraticForm,
    CATALOG,
    catalog_form,
    unit_insertion_vector,
)
from theta_forge.arith import GaussianRational, pairing_coeff
from theta_forge.modforms import ThetaSpec, theta_numeric
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

from oracles import block_gram, gauss_orthogonality_residual_loop, sample_gamma0_loop

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

    def test_same_pools_as_the_unbounded_loop(self):
        # stopping once every drawable (c, d) is taken changes no pool: the
        # loop that kept drawing to 400 draws per matrix gives the same
        # matrices, in order, wherever the pool runs out or not
        for N, count, seed in product((1, 2, 3, 4, 6, 12), (1, 2, 18, 50, 170, 650), (0, 1, 7)):
            got = [(g.a, g.b, g.c, g.d) for g in sample_gamma0(N, count, seed)]
            assert got == sample_gamma0_loop(N, count, seed), (N, count, seed)

    def test_stops_when_the_pool_runs_out(self):
        # 650 asked at N = 1, where 313 (c, d) exist: the loop that kept
        # drawing spun for 260,000 draws (about 0.45 s)
        start = time.perf_counter()
        mats = sample_gamma0(1, 650, 0)
        assert time.perf_counter() - start < 0.1
        assert len(mats) == len({(g.c, g.d) for g in mats}) == 313

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
        # the laws hold for any insertion vector, so scaling w by lam
        # must leave each residual at noise level; the completed laws take
        # <v,v> = lam^2 into their E2 term, and as cusp sums grow as
        # lam^k their bound is absolute, not a ratio
        g = Gamma0Matrix(1, 1, 3, 4)
        tau = 0.21 + 1.3j
        h = A2.congruence_classes()[-1]
        scaled = InsertionVector(tuple(c * lam for c in V_A2.w), V_A2.s)
        r1 = check_generating_modularity(A2, V_A2, g, tau, 3, 1e-8).residual
        r2 = check_generating_modularity(A2, scaled, g, tau, 3, 1e-8).residual
        assert r2 < 2 * r1 + 1e-13
        assert r1 < 2 * r2 + 1e-13
        completed = {
            "congruence": check_congruence_modularity(A2, h, scaled, 4, g, tau, 1e-8),
            "inversion": check_inversion_law(A2, h, scaled, 4, tau, 1e-8),
            "cusp": check_cusp_expansion(A2, scaled, 4, g, tau, 1e-8),
        }
        for law, report in completed.items():
            assert report.residual < 1e-10, (law, report.residual)

    @pytest.mark.parametrize(
        "name, vector, gamma, tau, x_prec",
        [
            ("A2", None, (1, 1, 3, 4), -0.25 + 0.4j, 4),
            ("A2", None, (1, 0, 3, 1), 0.1 + 1.1j, 1),
            ("D4", None, (1, 0, 2, 1), 0.1 + 1.1j, 3),
            ("A1A1", (1, 1j), (1, 0, 4, 1), 0.3 + 0.8j, 4),
        ],
    )
    def test_one_lattice_walk_per_check(self, monkeypatch, name, vector, gamma, tau, x_prec):
        # every power at both points is served by one histogram: the one
        # for the largest power at the point nearer the real axis.  Builds
        # are counted as the entries the form adds to its kept histograms,
        # since a fibered build walks the lattice once per residue.
        form = catalog_form(name)  # a fresh form keeps no histograms yet
        if vector is None:
            v = unit_insertion_vector(form)
        else:
            v = InsertionVector(
                tuple(GaussianRational(int(c.real), int(c.imag)) for c in vector), 1
            )
        asked = []
        original = modforms.insertion_histogram

        def recorded(form, bound, **coset):
            asked.append((bound, bool(coset.get("weights"))))
            return original(form, bound, **coset)

        monkeypatch.setattr(modforms, "insertion_histogram", recorded)
        res = check_generating_modularity(form, v, Gamma0Matrix(*gamma), tau, x_prec, 1e-8)
        assert res.passed
        builds = [
            (weights, bound)
            for kept in form._cells.values()
            for weights, (bound, _) in kept.items()
        ]
        assert len(builds) == 1, builds
        # weighted whenever a power k > 0 was asked for (x_prec > 1)
        weights, bound = builds[0]
        assert (bound, bool(weights)) == max(asked), (builds, asked)

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

    @pytest.mark.parametrize(
        "name, vector, every_class",
        [("A2", None, True), ("D4", None, True), ("2A2", None, False), ("A1A1", (1, 1j), False), ("E8", None, False)],
    )
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_right_side_is_the_class_sum(self, monkeypatch, name, vector, every_class, k):
        # the right side, one dual sum of the completion polynomial, against
        # the phased sum of the completed public class thetas of every
        # class, each walked on its own on a fresh form
        form, fresh = catalog_form(name), catalog_form(name)
        v = _insertion(form, vector)
        tau, tol = 0.4 + 0.9j, 1e-8
        x = complex(v.norm(form)) / 2 / (1j * math.pi * tau)
        dual_sum = verify._dual_sum
        sides = []

        def keeping(*args):
            sides.append(dual_sum(*args))
            return sides[-1]

        monkeypatch.setattr(verify, "_dual_sum", keeping)
        classes = form.congruence_classes()
        for h in classes if every_class else classes[-1:]:
            sides.clear()
            assert check_inversion_law(form, h, v, k, tau, tol).passed
            want = sum(
                x ** t * float(pairing_coeff(t, k)) * _phased_class_sum(fresh, v, k - 2 * t, h, tau, tol * 1e-3)
                for t in range(k // 2 + 1)
            )
            # v = (1, i) on A1A1 is null, and its k = 2 class thetas sum to 0
            assert len(sides) == 1 and (abs(want) > 1e-3 or (name, k) == ("A1A1", 2))
            assert abs(sides[0] - want) <= 1e-13 * max(1.0, abs(want)), (h, sides[0], want)

    @pytest.mark.parametrize("name, vector", [("A2", None), ("D4", None), ("2A2", None), ("A1A1", (1, 1j)), ("E8", None)])
    def test_dual_sum_is_the_phased_class_sum(self, name, vector):
        # odd powers too, which no campaign asks for
        form, fresh = catalog_form(name), catalog_form(name)
        v = _insertion(form, vector)
        h = form.congruence_classes()[-1]
        x = tuple(Fraction(c, form.level) for c in h.rep)
        tau, tol = 0.4 + 0.9j, 1e-11
        for k in range(5):
            got = modforms._dual_sum(form, v, [0] * k + [1], x, tau, tol)
            want = _phased_class_sum(fresh, v, k, h, tau, tol)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k, got, want)

    @pytest.mark.parametrize("gram", [None, [[2018, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]])
    def test_one_walk_of_the_form_per_check(self, monkeypatch, gram):
        # the left side's class slice is the form's only walk; the right
        # side walks the dual form at most once per power, whatever det is
        # (16144 on the diagonal form, 12 on 2A2)
        form = catalog_form("2A2") if gram is None else QuadraticForm(gram)
        v = unit_insertion_vector(form)
        h = form.congruence_classes()[-1]
        top, depth = [], [0]
        slice_cells = lattice._slice_cells

        def slicing(walked, bound, scale, h0, weights):
            if not depth[0]:
                top.append((walked, scale, h0))
            depth[0] += 1
            try:
                return slice_cells(walked, bound, scale, h0, weights)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(lattice, "_slice_cells", slicing)
        k = 4
        res = check_inversion_law(form, h, v, k, 0.4 + 0.9j, 1e-8)
        assert res.passed, res.residual
        assert [(s, h0) for walked, s, h0 in top if walked is form] == [(form.level, lattice._unsigned(h.rep, form.level))]
        duals = [walked for walked, _, _ in top if walked is not form]
        assert 1 <= len(duals) <= k // 2 + 1
        assert all(walked is form.dual() for walked in duals)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_e8_walks_no_slice_of_its_dual(self, monkeypatch, k):
        # E8 has det 1, so E8.dual() is an image of E8 (T = A^-1): the right
        # side's dual sum reads E8's histograms, and neither a top-level
        # slice nor any direct walk is made of the dual form
        e8 = catalog_form("E8")
        dual = QuadraticForm(e8.dual().gram)
        slices, walks = [], []
        slice_cells, leaf_chunks = lattice._slice_cells, lattice._leaf_chunks

        def slicing(walked, bound, scale, h0, weights):
            slices.append(walked)
            return slice_cells(walked, bound, scale, h0, weights)

        def counting(walked, bound, scale, h0, weights):
            walks.append(walked)
            return leaf_chunks(walked, bound, scale, h0, weights)

        monkeypatch.setattr(lattice, "_slice_cells", slicing)
        monkeypatch.setattr(lattice, "_leaf_chunks", counting)
        res = check_inversion_law(e8, CongruenceClass.zero(e8), unit_insertion_vector(e8), k, 0.4 + 0.9j, 1e-8)
        assert res.passed, res.residual
        assert walks and e8 in slices
        assert dual not in slices and dual not in walks
        assert not e8.dual()._cells

    def test_large_index_rejected(self):
        h = A2.congruence_classes()[0]
        with pytest.raises(ValueError):
            check_inversion_law(A2, h, V_A2, 10, 1j, 1e-8)


class TestCompletedSums:
    @pytest.mark.parametrize(
        "name, vector, every_class",
        [("A2", None, True), ("D4", None, True), ("2A2", None, False), ("A1A1", (1, 1j), False), ("E8", None, False)],
    )
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_fused_sum_is_the_completed_class_theta(self, name, vector, every_class, k):
        # one coset sum of the completion polynomial against the completed
        # theta built from the public class thetas, each on a fresh form
        form, fresh = catalog_form(name), catalog_form(name)
        v = _insertion(form, vector)
        tau, tol, N = 0.4 + 0.9j, 1e-11, form.level
        e2 = modforms.eisenstein_e2_numeric(tau)
        x = complex(v.norm(form)) * e2
        classes = form.congruence_classes()
        for h in classes if every_class else classes[-1:]:
            got = modforms._theta_sum(form, v, verify._completion(form, v, k, e2), tau, tol, N, N, h.rep)
            want = sum(
                x ** t * float(pairing_coeff(t, k)) * theta_numeric(ThetaSpec(fresh, v, k - 2 * t, h), tau, tol)
                for t in range(k // 2 + 1)
            )
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (h, got, want)

    def test_two_dimensional_poly_sums_each_column(self):
        # the columns of a 2-d poly are summed as separate polynomials
        d4 = catalog_form("D4")
        v, tau, tol = unit_insertion_vector(d4), 0.1 + 0.9j, 1e-11
        poly = [[1, 0, 2], [0, 0, 0], [0, 1, 3]]
        got = modforms._theta_sum(d4, v, poly, tau, tol, 1, 1, None)
        for col in range(3):
            want = modforms._theta_sum(d4, v, [row[col] for row in poly], tau, tol, 1, 1, None)
            assert abs(got[col] - want) <= 1e-13 * max(1.0, abs(want))

    def _counted(self, monkeypatch):
        calls = []
        coset_sum = modforms._coset_sum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return coset_sum(*args, **kwargs)

        monkeypatch.setattr(modforms, "_coset_sum", counting)
        return calls

    # one coset sum per side of each check, whatever the index: each
    # completed theta is one polynomial insertion, and the generating law
    # sums every power at a point as the columns of one polynomial
    def test_one_sum_per_side(self, monkeypatch):
        calls = self._counted(monkeypatch)
        g = Gamma0Matrix(1, 1, 3, 4)
        h = A2.congruence_classes()[-1]
        assert check_generating_modularity(A2, V_A2, g, -0.25 + 0.4j, 4, 1e-8).passed
        assert len(calls) == 2
        calls.clear()
        assert check_congruence_modularity(A2, h, V_A2, 4, g, -0.25 + 0.4j, 1e-8).passed
        assert len(calls) == 2
        calls.clear()
        assert check_inversion_law(A2, h, V_A2, 4, 0.4 + 0.9j, 1e-8).passed
        assert len(calls) == 2

    def test_cusp_sums_once_per_weighted_class(self, monkeypatch):
        d4 = catalog_form("D4")
        g = Gamma0Matrix(1, 0, 2, 1)
        zero = CongruenceClass.zero(d4)
        weighted = [q for q in d4.congruence_classes() if lattice.gauss_sum(d4, g.a, g.d, g.c, zero, q) != 0]
        calls = self._counted(monkeypatch)
        assert check_cusp_expansion(d4, unit_insertion_vector(d4), 4, g, 0.1 + 1.1j, 1e-8).passed
        assert 0 < len(weighted) < d4.det and len(calls) == 1 + len(weighted)


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

    @pytest.mark.parametrize("c", [1, 2, 3])  # at c = 1 the one class is the coset itself
    def test_rescale(self, c):
        h = CongruenceClass(A2, (1, 2))
        res = check_rescale(A2, h, V_A2, 2, c, 0.15 + 1.4j, 1e-8)
        assert res.residual < 1e-10

    @pytest.mark.parametrize(
        "name, vector, k, c",
        [
            ("A2", None, 2, 3),
            ("A1A1", (1, 1j), 2, 2),
            ("2A2", None, 0, 3),
            ("D4", None, 2, 2),
            ("D4", (1, 0, 1j, 0), 4, 3),
            ("E8", None, 0, 2),
        ],
    )
    def test_two_walks_per_rescale_check(self, monkeypatch, name, vector, k, c):
        # cA is an image of A (QuadraticForm.scaled): the right side's one
        # coset h + N Z^f of cA is A's slice h + N Z^f read at bound // c,
        # and the left side cuts that same histogram at its own bound, so
        # the check makes one top-level slice of A, fibered or direct, and
        # walks no slice of cA, neither the coset nor any class of it.  The
        # right side is summed first, so the slice is walked a second time,
        # to a higher bound, only where the left side's bound passes the
        # right side's: D4 at k = 4, c = 3 (28 against 24)
        form = catalog_form(name)
        v = _insertion(form, vector)
        slices, walks = [], []
        slice_cells, leaf_chunks = lattice._slice_cells, lattice._leaf_chunks

        def slicing(walked, bound, scale, h0, weights):
            slices.append((walked, scale, h0, bound))
            return slice_cells(walked, bound, scale, h0, weights)

        def counting(walked, bound, scale, h0, weights):
            walks.append((walked, scale))
            return leaf_chunks(walked, bound, scale, h0, weights)

        monkeypatch.setattr(lattice, "_slice_cells", slicing)
        monkeypatch.setattr(lattice, "_leaf_chunks", counting)
        h = form.congruence_classes()[-1]
        res = check_rescale(form, h, v, k, c, 0.15 + 1.1j, 1e-8)
        assert res.passed, res.residual
        N = form.level
        scaled = QuadraticForm([[c * x for x in row] for row in form.gram])
        tops = [(s, h0, bound) for walked, s, h0, bound in slices if walked == form]
        assert [(s, h0) for s, h0, _ in tops] == [(N, lattice._unsigned(h.rep, N))] * (1 + ((name, k, c) == ("D4", 4, 3)))
        assert [bound for _, _, bound in tops] == sorted({bound for _, _, bound in tops})
        assert walks and not any(walked == scaled for walked, *_ in slices)
        assert not any(walked == scaled for walked, _ in walks)
        assert not form.scaled(c)._cells

    @pytest.mark.parametrize(
        "name, vector, k, c",
        [
            ("A2", None, 2, 2),
            ("A2", None, 2, 3),
            ("2A2", None, 2, 2),
            ("2A2", None, 0, 3),
            ("D4", None, 2, 2),
            ("D4", None, 4, 3),
            ("A1A1", (1, 1j), 4, 2),
            ("E8", None, 2, 2),
        ],
    )
    def test_right_side_is_the_class_sum(self, monkeypatch, name, vector, k, c):
        # the right side, one coset sum, against the c^f public class
        # thetas of cA at c tau, each walked on its own on a fresh form
        form = catalog_form(name)
        v = _insertion(form, vector)
        sides = []
        theta_sum = verify._theta_sum

        def keeping(*args):
            sides.append(theta_sum(*args))
            return sides[-1]

        monkeypatch.setattr(verify, "_theta_sum", keeping)
        h, tau, tol = form.congruence_classes()[-1], 0.15 + 1.1j, 1e-8
        assert check_rescale(form, h, v, k, c, tau, tol).passed
        N, f = form.level, form.rank
        scaled = QuadraticForm([[c * x for x in row] for row in form.gram])
        want = sum(
            theta_numeric(
                ThetaSpec(scaled, v, k, CongruenceClass(scaled, tuple(x + N * wi for x, wi in zip(h.rep, w)))),
                c * tau,
                tol * 1e-3 / c ** f,
            )
            for w in product(range(c), repeat=f)
        )
        assert len(sides) == 1 and abs(want) > 1e-3
        assert abs(sides[0] - want) < 1e-13

    def test_rescale_e8_at_c10_passes(self):
        # 10^8 classes of 10 E8, summed as one coset of a few vectors
        e8 = catalog_form("E8")
        res = check_rescale(e8, CongruenceClass.zero(e8), None, 0, 10, 0.1 + 1.1j, 1e-8)
        assert res.passed, res.residual

    def test_rescale_refuses_oversized_walk_before_allocating(self):
        # the coset of 100 E8 at its certified bound is past the budget:
        # refused by the walk's own guard before any walk, the left
        # side's included
        e8 = catalog_form("E8")
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError):
                check_rescale(e8, CongruenceClass.zero(e8), None, 0, 100, 0.1 + 1.1j, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _phased_class_sum(form, v, k, h, tau, inner):
    """sum over every class g of e(<g, h>/N^2) times the class theta of g
    with insertion v and power k at tau: the paper's inversion right side
    for one power, class by class."""
    M = form.level ** 2
    return sum(
        cmath.exp(2j * math.pi * (form.bilinear(g.rep, h.rep) % M) / M)
        * theta_numeric(ThetaSpec(form, v, k, g), tau, inner)
        for g in form.congruence_classes()
    )


def _insertion(form, vector):
    """The form's unit insertion vector, or v = vector with s = 1."""
    if vector is None:
        return unit_insertion_vector(form)
    return InsertionVector(tuple(GaussianRational(int(x.real), int(x.imag)) for x in vector), 1)


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

    def test_plain_series_needs_index_zero(self):
        # v = None used to die with AttributeError inside the sum at k > 0
        g = Gamma0Matrix(1, 0, 3, 1)
        tau = -1 / 3 + 0.01 + 1j / 3
        assert check_cusp_expansion(A2, None, 0, g, tau, 1e-8).residual < 1e-12
        with pytest.raises(ValueError, match="requires a vector"):
            check_cusp_expansion(A2, None, 2, g, tau, 1e-8)

    @pytest.mark.parametrize("gamma", [(1, 0, 4, 1), (3, 1, 8, 3), (1, 0, 12, 1)])
    @pytest.mark.parametrize("vector", [(1, 0), (1, 1j)])
    @pytest.mark.parametrize("k, bound", [(2, 1e-12), (4, 1e-10)])
    def test_non_unit_and_null_vectors(self, gamma, vector, k, bound):
        # <v,v> = 2 and <v,v> = 0: the completion scales E2 by <v,v>; at
        # k = 4 the sums near the cusp reach 2.5e3, hence the wider bound
        a11 = catalog_form("A1A1")
        g = Gamma0Matrix(*gamma)
        tau = -g.d / g.c + 0.01 + 1j / g.c
        res = check_cusp_expansion(a11, _insertion(a11, vector), k, g, tau, 1e-8)
        assert res.residual < bound, res.residual

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
        # the phase-matrix product against the triple loop it replaced;
        # only the order of the float sums differs
        for name in ("A2", "A1A1", "2A2", "D4", "E8"):
            form = catalog_form(name)
            for g in sample_gamma0(form.level, 6, seed=11):
                residual = check_gauss_orthogonality(form, g, 1e-10).residual
                assert residual < 1e-10
                assert abs(residual - gauss_orthogonality_residual_loop(form, g.b)) < 1e-12

    def test_orthogonality_refused_before_allocating(self):
        # det 16144: 4.2e12 class-pair products; the campaign notes a skip
        form = QuadraticForm([[2018, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                check_gauss_orthogonality(form, Gamma0Matrix(1, 0, form.level, 1), 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
    # the shared rng.  Residuals are platform floats and stay out.  D4 and
    # E8 are the benchmark campaigns' lattices, 2A2 the catalog's largest det.
    DRAW_DIGESTS = {
        "A2": "416d4cab2fdbdcee7f670bef6609b55142b1f760149bd745a8e6b695f32429f3",
        "A1A1": "90382ea2d5d5f51569088aa58ce9c759b2cca7df3be5eb1b70d62eb5cba64790",
        "D4": "eff65376bda46caee113a057435e403d492400b074f0f068d25e886477c732e7",
        "2A2": "a148ee07ca042685ebe414498040c5a50c6094c3b150c3fea05c8e6ef3256d7e",
        "E8": "838ea9d03073b7820fd5291d35bf26a0c4c6aab96badca21f0c5f20da7d25f6e",
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

    # a campaign of no checks has nothing to pass
    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_rejected(self, count):
        with pytest.raises(ValueError, match="count must be"):
            run_campaign(A2, LAW_IDS, count, seed=0)

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

    def test_walk_past_budget_skips_one_check(self):
        # on E8+D4 (rank 12) the inversion walk is refused for its budget:
        # one check's note, where it used to end the campaign and lose the
        # reports of the laws that fit
        form = QuadraticForm(block_gram(CATALOG["E8"], CATALOG["D4"]))
        reports, notes = run_campaign(form, LAW_IDS, 1, seed=0)
        assert [r.law for r in reports] == [
            "inversion", "translation", "rescale", "poisson", "gauss_orthogonality", "gauss_closed_form",
        ]
        assert all(r.passed for r in reports)
        assert any(n.startswith("inversion: skipped (estimated cost") and "exceeds budget" in n for n in notes)

    def test_refused_law_without_matrices_stops(self):
        # every translation walk on E8+E8 is past the budget, and the law
        # draws no matrix: it stops after 4 count + 10 attempts, one note each
        form = QuadraticForm(block_gram(CATALOG["E8"], CATALOG["E8"]))
        start = time.perf_counter()
        reports, notes = run_campaign(form, ("translation",), 1, seed=0)
        assert time.perf_counter() - start < 10
        assert reports == [] and len(notes) == 14
        assert all(n.startswith("translation: skipped (") for n in notes)

    def test_rank_four_sampler(self):
        d4 = catalog_form("D4")
        reports, _ = run_campaign(d4, ("congruence",), 3, seed=2, tol=1e-7)
        assert len(reports) == 3
        assert all(r.passed for r in reports)
