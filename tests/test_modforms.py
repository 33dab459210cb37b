import cmath
import math
from fractions import Fraction

import pytest

from theta_forge import lattice, modforms
from theta_forge.arith import GaussianRational
from theta_forge.lattice import (
    CongruenceClass,
    InsertionVector,
    QuadraticForm,
    catalog_form,
    insertion_histogram,
    unit_insertion_vector,
)
from theta_forge.modforms import (
    TauPoint,
    ThetaSpec,
    eisenstein_e2,
    eisenstein_e2_numeric,
    eisenstein_e2k,
    theta_dual_numeric,
    theta_expand,
    theta_numeric,
    theta_offset_numeric,
)

from oracles import (
    coset_sum_loop,
    insertion_theta_loop,
    mat_vec,
    one_dim_theta,
    skewed_basis,
    theta_coefficients,
)


def real_coeffs(series, upto):
    out = []
    for n in range(upto):
        c = series.coefficient(Fraction(n))
        assert c.is_real
        out.append(c.re)
    return out


class TestEisenstein:
    def test_e2_expansion(self):
        assert real_coeffs(eisenstein_e2(5), 5) == [Fraction(-1, 12), 2, 6, 8, 14]

    def test_e4_e6_e8(self):
        assert real_coeffs(eisenstein_e2k(2, 3), 3) == [1, 240, 2160]
        assert real_coeffs(eisenstein_e2k(3, 2), 2) == [1, -504]
        assert real_coeffs(eisenstein_e2k(4, 2), 2) == [1, 480]

    def test_e2k_requires_weight_at_least_four(self):
        with pytest.raises(ValueError):
            eisenstein_e2k(1, 5)

    def test_e2_numeric_at_i(self):
        # classical special value at tau = i, scaled by -1/12
        assert abs(eisenstein_e2_numeric(1j) + 1 / (4 * math.pi)) < 1e-10

    def test_e2_numeric_matches_series(self):
        tau = 0.2 + 1.3j
        series_val = eisenstein_e2(60).evaluate(tau)
        assert abs(eisenstein_e2_numeric(tau, 1e-13) - series_val) < 1e-12


class TestTauPoint:
    def test_upper_half_plane_only(self):
        with pytest.raises(ValueError):
            TauPoint(0.0, -1.0)
        with pytest.raises(ValueError):
            TauPoint(0.0, 0.0)
        assert TauPoint(0.5, 2.0).z == 0.5 + 2j

    def test_accepted_by_numeric(self):
        a2 = catalog_form("A2")
        t = TauPoint(0.1, 1.5)
        assert theta_numeric(ThetaSpec.plain(a2), t, 1e-10) == theta_numeric(
            ThetaSpec.plain(a2), 0.1 + 1.5j, 1e-10
        )


class TestThetaSpec:
    def test_insertion_needs_vector(self):
        with pytest.raises(ValueError):
            ThetaSpec(catalog_form("A2"), None, 2)

    def test_class_form_mismatch(self):
        a2, d4 = catalog_form("A2"), catalog_form("D4")
        h = CongruenceClass(d4, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            ThetaSpec(a2, None, 0, h)


class TestThetaExpand:
    def test_a2_series(self):
        a2 = catalog_form("A2")
        assert real_coeffs(theta_expand(ThetaSpec.plain(a2), 6), 6) == [1, 6, 0, 6, 6, 0]

    def test_d4_series(self):
        d4 = catalog_form("D4")
        assert real_coeffs(theta_expand(ThetaSpec.plain(d4), 7), 7) == [1, 24, 24, 96, 24, 144, 96]

    def test_matches_box_oracle(self):
        for name in ("A2", "A1A1", "2A2"):
            form = catalog_form(name)
            got = real_coeffs(theta_expand(ThetaSpec.plain(form), 9), 9)
            assert got == theta_coefficients(form.gram, 9)

    def test_insertion_k2(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        got = real_coeffs(theta_expand(ThetaSpec(a2, v, 2), 4), 4)
        assert got == [0, 6, 0, 18]

    @pytest.mark.parametrize(
        "name, w, s",
        [
            ("A2", ((1, 0), (0, 2)), 1),
            ("A2", ((Fraction(1, 2), 1), (Fraction(1, 3), 0)), Fraction(2, 5)),
            ("D4", ((1, 1), (0, -1), (2, 0), (0, 0)), 3),
        ],
    )
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_gaussian_insertion_matches_box_oracle(self, name, w, s, k):
        # real and imaginary parts of w are not A-orthogonal, so the
        # imaginary parts of (w'Am)^k survive the shell sums
        form = catalog_form(name)
        v = InsertionVector(tuple(GaussianRational(re, im) for re, im in w), s)
        got = theta_expand(ThetaSpec(form, v, k), 5)
        want = insertion_theta_loop(form.gram, v.w, s, k, 5)
        assert got.coeffs == {e: GaussianRational(re, im) for e, (re, im) in want.items()}
        assert any(c.im for c in got.coeffs.values())

    def test_insertion_scaling(self):
        # <2v, m>^2 = 4 <v, m>^2 termwise
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        doubled = InsertionVector(tuple(c * 2 for c in v.w), v.s)
        t1 = theta_expand(ThetaSpec(a2, v, 2), 6)
        t2 = theta_expand(ThetaSpec(a2, doubled, 2), 6)
        assert t2 == t1 * 4

    def test_scale_in_s_matches_scale_in_w(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        in_s = InsertionVector(v.w, 4 * v.s)
        doubled = InsertionVector(tuple(c * 2 for c in v.w), v.s)
        assert theta_expand(ThetaSpec(a2, in_s, 4), 6) == theta_expand(
            ThetaSpec(a2, doubled, 4), 6
        )

    def test_odd_k_symmetric_is_zero(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        assert theta_expand(ThetaSpec(a2, v, 3), 6).is_zero()
        # class with 2h = 0 mod N is still symmetric
        a11 = catalog_form("A1A1")
        h = CongruenceClass(a11, (2, 0))
        vu = unit_insertion_vector(a11)
        assert theta_expand(ThetaSpec(a11, vu, 1, h), 4).is_zero()

    def test_odd_k_asymmetric_class_rejected(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        h = CongruenceClass(a2, (1, 2))
        with pytest.raises(ValueError):
            theta_expand(ThetaSpec(a2, v, 1, h), 4)

    def test_congruence_zero_class_is_plain_rebased(self):
        a2 = catalog_form("A2")
        h0 = CongruenceClass.zero(a2)
        cong = theta_expand(ThetaSpec(a2, None, 0, h0), 5)
        plain = theta_expand(ThetaSpec.plain(a2), 5)
        assert cong == plain

    def test_congruence_nonzero_class(self):
        a2 = catalog_form("A2")
        h = CongruenceClass(a2, (1, 2))
        t = theta_expand(ThetaSpec(a2, None, 0, h), 2)
        assert t.exp_denom == 9
        assert t.order() == Fraction(1, 3)
        assert t.coefficient(Fraction(1, 3)) == GaussianRational(3)
        assert t.coefficient(Fraction(4, 3)) == GaussianRational(3)

    def test_congruence_insertion_prefactor(self):
        # k = 2 on the zero class equals the plain insertion series:
        # the 1/N^k prefactor cancels the N-fold dilation of the lattice
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        h0 = CongruenceClass.zero(a2)
        assert theta_expand(ThetaSpec(a2, v, 2, h0), 4) == theta_expand(
            ThetaSpec(a2, v, 2), 4
        )


class TestThetaNumeric:
    def test_matches_expansion(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        h = CongruenceClass(a2, (1, 2))
        tau = 0.17 + 1.4j
        for spec in (
            ThetaSpec.plain(a2),
            ThetaSpec(a2, v, 2),
            ThetaSpec(a2, v, 4),
            ThetaSpec(a2, None, 0, h),
            ThetaSpec(a2, v, 2, h),
        ):
            series = theta_expand(spec, 40)
            assert abs(theta_numeric(spec, tau, 1e-10) - series.evaluate(tau)) < 1e-9

    def test_product_form_at_i(self):
        a11 = catalog_form("A1A1")
        got = theta_numeric(ThetaSpec.plain(a11), 1j, 1e-12)
        assert abs(got - one_dim_theta(1.0) ** 2) < 1e-10

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            theta_numeric(ThetaSpec.plain(catalog_form("A2")), 0.3 - 1j, 1e-8)

    @pytest.mark.parametrize("name", ["E8", "D4"])
    def test_bit_identical_under_change_of_basis(self, name):
        # cells are summed in the order of their full key, and the keys do
        # not depend on the basis, so a skewed copy gives the same floats
        form = catalog_form(name)
        gram, _, uinv = skewed_basis(form.gram, 10 ** 4)
        skew = QuadraticForm(gram)
        v = unit_insertion_vector(form)
        mapped = InsertionVector(mat_vec(uinv, v.w), v.s)
        h = form.congruence_classes()[-1]
        h_skew = CongruenceClass(skew, mat_vec(uinv, h.rep))
        tau = 0.13 + 0.8j
        for k in (0, 2, 4):
            for spec, spec_skew in (
                (ThetaSpec(form, v, k), ThetaSpec(skew, mapped, k)),
                (ThetaSpec(form, v, k, h), ThetaSpec(skew, mapped, k, h_skew)),
            ):
                assert theta_numeric(spec_skew, tau, 1e-10) == theta_numeric(spec, tau, 1e-10)
        x = (Fraction(1, 2), Fraction(1, 3)) + (0,) * (form.rank - 2)
        got = theta_offset_numeric(skew, mat_vec(uinv, x), tau, 1e-10)
        assert got == theta_offset_numeric(form, x, tau, 1e-10)
        # the dual sum's cells are keyed by t mod rho, which neither the
        # basis nor the representative of rho x changes
        for y in (x, (Fraction(3, 7), Fraction(-5, 7)) + (Fraction(1, 7),) * (form.rank - 2)):
            dual = theta_dual_numeric(form, y, tau, 1e-10)
            assert theta_dual_numeric(skew, mat_vec(uinv, y), tau, 1e-10) == dual
            shifted = (y[0] + 2,) + y[1:-1] + (y[-1] - 1,)
            assert theta_dual_numeric(form, shifted, tau, 1e-10) == dual

    def test_sum_ignores_walk_order(self, monkeypatch):
        # the same cells met in another order give the same floats: a twin
        # whose histograms come from direct walks, not the fibered ones
        e8 = catalog_form("E8")
        v = unit_insertion_vector(e8)
        tau = 0.13 + 0.8j
        values = [theta_numeric(ThetaSpec(e8, v, k), tau, 1e-10) for k in (2, 4)]
        twin = catalog_form("E8")
        monkeypatch.setattr(lattice, "_fiber_plan", lambda *args: None)
        assert [theta_numeric(ThetaSpec(twin, v, k), tau, 1e-10) for k in (2, 4)] == values
        assert twin._cells.keys() == e8._cells.keys()

    @pytest.mark.parametrize(
        "name, k, w, h",
        [
            ("E8", 0, None, None),
            ("E8", 2, None, None),
            ("E8", 4, None, None),
            ("A1A1", 4, (1, GaussianRational(0, 1)), None),
            ("D4", 2, None, "last"),
            ("2A2", 1, (0, 1), (1, 2)),
        ],
    )
    def test_matches_loop_oracle(self, name, k, w, h):
        # the numpy coset sum against the per-cell loop over the dict of the
        # same histogram at the same certified bound; v = (1, i) on A1A1
        # keys two weight rows (its k = 2 sum is 0, so k = 4 there)
        tau, tol = 0.13 + 0.8j, 1e-10
        form = catalog_form(name)
        v = unit_insertion_vector(form) if w is None else InsertionVector(w, 1)
        h = form.congruence_classes()[-1] if h == "last" else h and CongruenceClass(form, h)
        spec = ThetaSpec(form, v, k, h)
        level, h0 = modforms._spec_coset(spec)
        M = level * level
        den, weights = v.integral_weights(form) if k else (1, ())
        bound = modforms._truncation_radius(tau.imag, k, form.rank, tol) * M
        cells = dict(insertion_histogram(form, bound, scale=level, h0=h0, weights=weights))
        pref = float(v.s) ** (k / 2) / den ** k / float(level) ** k
        insert = (lambda key: pref * complex(key[1], key[2] if len(key) > 2 else 0) ** k) if k else None
        want = coset_sum_loop(cells, tau, M, insert)
        assert len(cells) > 1 and abs(theta_numeric(spec, tau, tol) - want) <= 1e-12 * abs(want)

    def test_offset_and_dual_match_loop_oracle(self):
        # the same for the offset sum and the dual sum, whose t the oracle
        # folds mod rho in a dict
        tau, tol = 0.13 + 0.8j, 1e-10
        form = catalog_form("D4")
        x = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-3, 7))
        rho, h0 = 42, (21, 14, 12, -18)
        bound = modforms._truncation_radius(tau.imag, 0, form.rank, tol) * rho * rho
        offset = dict(insertion_histogram(form, bound, scale=rho, h0=h0))
        want = coset_sum_loop(offset, tau, rho * rho)
        assert abs(theta_offset_numeric(form, x, tau, tol) - want) <= 1e-12 * abs(want)
        row = (-21, 14, 12, -18)  # the centred residues of rho x
        bound = modforms._truncation_radius(tau.imag, 0, form.rank, tol) * form.det
        dual = dict(insertion_histogram(form.dual(), bound, weights=(row,)))
        want = coset_sum_loop(dual, tau, form.det, lambda key: cmath.exp(2j * math.pi * key[1] / rho), rho)
        assert len(offset) > 1 and len(dual) > len({(e, t % rho) for e, t in dual}) > 1
        assert abs(theta_dual_numeric(form, x, tau, tol) - want) <= 1e-12 * abs(want)

    def test_odd_k_asymmetric_class_numeric_ok(self):
        # the numeric path has no exactness constraint, so odd powers on
        # asymmetric classes are allowed there.  The hexagonal forms need
        # care: their order-three rotation kills many odd sums, so use a
        # class the rotation does not fix and a weight that pairs with it.
        m2 = catalog_form("2A2")
        v = InsertionVector((0, 1), Fraction(1))
        h = CongruenceClass(m2, (1, 2))
        val = theta_numeric(ThetaSpec(m2, v, 1, h), 0.1 + 1.2j, 1e-10)
        assert abs(val) > 1e-6


class TestOffsetTheta:
    def test_zero_offset_is_plain(self):
        a2 = catalog_form("A2")
        tau = 0.23 + 1.1j
        a = theta_offset_numeric(a2, (Fraction(0), Fraction(0)), tau, 1e-11)
        b = theta_numeric(ThetaSpec.plain(a2), tau, 1e-11)
        assert abs(a - b) < 1e-10

    def test_integer_shift_invariance(self):
        a2 = catalog_form("A2")
        tau = 0.1 + 0.9j
        x = (Fraction(1, 3), Fraction(2, 5))
        shifted = (x[0] + 1, x[1] - 2)
        a = theta_offset_numeric(a2, x, tau, 1e-11)
        b = theta_offset_numeric(a2, shifted, tau, 1e-11)
        assert abs(a - b) < 1e-10

    def test_poisson_inversion_example(self):
        a2 = catalog_form("A2")
        tau = 0.3 + 1.1j
        x = (Fraction(1, 3), Fraction(1, 5))
        lhs = theta_offset_numeric(a2, x, tau, 1e-11)
        pref = (-1j * tau) ** a2.half_rank * math.sqrt(a2.det)
        rhs = theta_dual_numeric(a2, x, -1 / tau, 1e-11) / pref
        assert abs(lhs - rhs) < 1e-8

    def test_dual_sum_direct(self):
        # brute force the dual side: sum over n of
        # e(w Q'(n)/D) e(2 pi i n.x) with Q' the adjugate form, w = -1/tau
        a2 = catalog_form("A2")
        tau = 0.25 + 1.3j
        w = -1 / tau
        x = (Fraction(1, 2), Fraction(1, 3))
        adj = a2.dual()
        direct = 0j
        for n1 in range(-12, 13):
            for n2 in range(-12, 13):
                qv = adj.q_value((n1, n2))
                direct += cmath.exp(
                    2j * cmath.pi * (w * qv / a2.det + (n1 * 0.5 + n2 / 3))
                )
        got = theta_dual_numeric(a2, x, w, 1e-10)
        assert abs(got - direct) < 1e-8
