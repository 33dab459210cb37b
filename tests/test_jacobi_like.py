import hashlib
import json
import math
from fractions import Fraction

import pytest

from theta_forge.arith import GaussianRational, pairing_coeff
from theta_forge.jacobi_like import (
    JacobiLikeForm,
    completed_theta,
    cusp_combination,
    e2_exponential,
    theta_generating,
    verify_root_identity,
)
from theta_forge.lattice import CongruenceClass, InsertionVector, catalog_form, first_root, unit_insertion_vector
from theta_forge.modforms import ThetaSpec, eisenstein_e2, eisenstein_e2k, theta_expand
from theta_forge.qseries import FracQSeries


class TestThetaGenerating:
    def test_y_coefficients_are_scaled_thetas(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        gen = theta_generating(a2, v, 3, 6)
        assert gen.ycoeff(0) == theta_expand(ThetaSpec.plain(a2), 6)
        assert gen.ycoeff(1) == theta_expand(ThetaSpec(a2, v, 2), 6)  # 2/2! = 1
        assert gen.ycoeff(2) == theta_expand(ThetaSpec(a2, v, 4), 6) * Fraction(4, 24)

    def test_metadata(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        gen = theta_generating(a2, v, 2, 4)
        assert gen.weight == 1  # half the rank
        assert gen.index == GaussianRational(1)
        assert gen.level == 3
        assert gen.character(2) == -1

    def test_null_vector_index_zero(self):
        a11 = catalog_form("A1A1")
        vnull = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), 1)
        gen = theta_generating(a11, vnull, 2, 4)
        assert gen.index == GaussianRational(0)


class TestE2Exponential:
    def test_leading_terms(self):
        e = e2_exponential(3, 5, sign=-1)
        assert e.ycoeff(0).coefficient(Fraction(0)) == GaussianRational(1)
        assert e.ycoeff(1) == eisenstein_e2(5)
        assert e.ycoeff(2) == eisenstein_e2(5) ** 2 * Fraction(1, 2)

    def test_inverse_direction_alternates(self):
        e = e2_exponential(3, 5, sign=1)
        assert e.ycoeff(1) == eisenstein_e2(5) * (-1)
        # Y^2 constant term: (1/2) (1/144)
        assert e.ycoeff(2).coefficient(Fraction(0)) == GaussianRational(Fraction(1, 288))

    def test_opposite_signs_cancel(self):
        plus = e2_exponential(4, 6, sign=1)
        minus = e2_exponential(4, 6, sign=-1)
        prod = plus * minus
        assert prod.ycoeff(0).coefficient(Fraction(0)) == GaussianRational(1)
        for n in range(1, 4):
            assert prod.ycoeff(n).is_zero()

    def test_index_tracks_sign(self):
        assert e2_exponential(2, 3, sign=1).index == GaussianRational(1)
        assert e2_exponential(2, 3, sign=-1).index == GaussianRational(-1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            e2_exponential(2, 3, sign=2)


class TestCompletedTheta:
    def test_index_four_structure(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        e2 = eisenstein_e2(10)
        expect = (
            theta_expand(ThetaSpec(a2, v, 4), 10)
            + theta_expand(ThetaSpec(a2, v, 2), 10) * e2 * 6
            + theta_expand(ThetaSpec.plain(a2), 10) * (e2 * e2) * 3
        )
        assert completed_theta(a2, v, 4, 10) == expect

    def test_index_zero_is_plain_theta(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        assert completed_theta(a2, v, 0, 8) == theta_expand(ThetaSpec.plain(a2), 8)
        assert completed_theta(a2, None, 0, 8) == theta_expand(ThetaSpec.plain(a2), 8)

    def test_odd_index_rejected(self):
        a2 = catalog_form("A2")
        with pytest.raises(ValueError):
            completed_theta(a2, unit_insertion_vector(a2), 3, 6)

    def test_constant_term(self):
        # only the fully paired E2 power contributes at q^0
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        for k in (1, 2, 3):
            c = completed_theta(a2, v, 2 * k, 5).coefficient(Fraction(0))
            assert c == GaussianRational(pairing_coeff(k, 2 * k) * Fraction(-1, 12) ** k)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_completion_scales_with_the_vector(self, k):
        # v = sqrt(s) w: doubling s scales theta_(k-2t) by 2^(k/2-t) and
        # <v,v>^t by 2^t, so the completed series by 2^(k/2) exactly
        a11 = catalog_form("A1A1")
        w = (GaussianRational(1), GaussianRational(0))
        full = completed_theta(a11, InsertionVector(w, 1), k, 14)
        half = completed_theta(a11, InsertionVector(w, Fraction(1, 2)), k, 14)
        assert full == half * 2 ** (k // 2)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_null_vector_needs_no_completion(self, k):
        # <v,v> = 0 drops every E2 term, leaving theta_k itself
        a11 = catalog_form("A1A1")
        vnull = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), 1)
        assert completed_theta(a11, vnull, k, 14) == theta_expand(ThetaSpec(a11, vnull, k), 14)


class TestE2PowerProducts:
    """The running E2 power is formed only when the loop still uses it."""

    @staticmethod
    def _series_products(monkeypatch, build):
        count = 0
        mul = FracQSeries.__mul__

        def counted(self, other):
            nonlocal count
            count += isinstance(other, FracQSeries)
            return mul(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(FracQSeries, "__mul__", counted)
            result = build()
        return count, result

    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_completed_theta(self, monkeypatch, k):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        count, got = self._series_products(monkeypatch, lambda: completed_theta(a2, v, k, 30))
        assert count <= k + 1
        e2 = eisenstein_e2(30)
        expect = FracQSeries.zero(30)
        for t in range(k // 2 + 1):
            expect = expect + theta_expand(ThetaSpec(a2, v, k - 2 * t), 30) * e2 ** t * pairing_coeff(t, k)
        assert got == expect

    @pytest.mark.parametrize("x_prec", [1, 3])
    def test_e2_exponential(self, monkeypatch, x_prec):
        count, got = self._series_products(monkeypatch, lambda: e2_exponential(x_prec, 30))
        assert count <= x_prec - 1
        e2 = eisenstein_e2(30)
        for n in range(x_prec):
            assert got.ycoeff(n) == e2 ** n * Fraction((-1) ** n, math.factorial(n))


class TestProductRelation:
    @pytest.mark.parametrize("name", ["A2", "D4"])
    def test_y_coefficients(self, name):
        form = catalog_form(name)
        v = unit_insertion_vector(form)
        q_prec = 8 if name == "A2" else 6
        prod = e2_exponential(5, q_prec, sign=-1) * theta_generating(form, v, 5, q_prec)
        for k in range(5):
            expect = completed_theta(form, v, 2 * k, q_prec) * Fraction(
                2 ** k, math.factorial(2 * k)
            )
            assert prod.ycoeff(k) == expect


class TestCuspCombination:
    def test_constant_term_vanishes(self):
        for name in ("A2", "A1A1", "2A2", "D4"):
            form = catalog_form(name)
            v = unit_insertion_vector(form)
            for k in (2, 3):
                c = cusp_combination(form, v, k, 5)
                assert c.coefficient(Fraction(0)) == GaussianRational(0)

    def test_weight_two_on_root_lattice_vanishes_identically(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        assert cusp_combination(a2, v, 2, 15).is_zero()

    def test_non_unit_vector_rejected(self):
        a2 = catalog_form("A2")
        v = InsertionVector((1, 0), Fraction(1))  # norm 2, not 1
        with pytest.raises(ValueError):
            cusp_combination(a2, v, 2, 6)

    def test_small_index_rejected(self):
        a2 = catalog_form("A2")
        with pytest.raises(ValueError):
            cusp_combination(a2, unit_insertion_vector(a2), 1, 6)

    def test_rootless_golden(self):
        # frozen output of this build's own exact pipeline; leading terms
        # cross-checked by hand against the shell structure.  The nonzero
        # tail is the point: no vector of norm one, no vanishing.
        m2 = catalog_form("2A2")
        v = unit_insertion_vector(m2)
        got = cusp_combination(m2, v, 2, 9)
        expect = {1: -6, 2: -6, 3: 36, 4: 48, 5: -36, 6: -126, 7: -156, 8: 48}
        assert {e: c.re for e, c in got.coeffs.items()} == expect

    def test_rootless_golden_half_integral_weight_three(self):
        m2 = catalog_form("2A2")
        v = unit_insertion_vector(m2)
        got = cusp_combination(m2, v, 3, 7)
        expect = {
            1: Fraction(-15, 4),
            2: Fraction(-267, 4),
            3: Fraction(-315, 2),
            4: Fraction(120),
            5: Fraction(1575, 2),
            6: Fraction(3609, 4),
        }
        assert {e: c.re for e, c in got.coeffs.items()} == expect


class TestRootIdentity:
    @pytest.mark.parametrize("name", ["A2", "D4"])
    def test_holds(self, name):
        form = catalog_form(name)
        ok, residual = verify_root_identity(form, 12)
        assert ok
        assert residual.is_zero()

    def test_explicit_root(self):
        a2 = catalog_form("A2")
        ok, _ = verify_root_identity(a2, 8, root=(1, 1))
        assert ok

    def test_non_root_rejected(self):
        a2 = catalog_form("A2")
        with pytest.raises(ValueError):
            verify_root_identity(a2, 8, root=(1, -1))  # norm 3

    def test_rootless_form_rejected(self):
        with pytest.raises(ValueError):
            verify_root_identity(catalog_form("2A2"), 8)


class TestJacobiLikeForm:
    def test_ycoeff_out_of_range(self):
        a2 = catalog_form("A2")
        gen = theta_generating(a2, unit_insertion_vector(a2), 2, 4)
        assert gen.ycoeff(10).is_zero()

    def test_is_dataclass_with_series(self):
        a2 = catalog_form("A2")
        gen = theta_generating(a2, unit_insertion_vector(a2), 2, 4)
        assert isinstance(gen, JacobiLikeForm)
        assert gen.xseries.x_prec == 2


def _root_vector(name):
    form = catalog_form(name)
    return form, InsertionVector.from_root(first_root(form))


def _two_a2_class_theta():
    form = catalog_form("2A2")
    v = InsertionVector((1, GaussianRational(0, 1)))
    return theta_expand(ThetaSpec(form, v, 2, CongruenceClass(form, (1, 2))), 40)


class TestPinnedExpansions:
    """sha256 of the canonical JSON of exact expansions, pinned before the
    series stored integer numerators over one denominator: the storage
    must not change one coefficient."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: completed_theta(*_root_vector("A2"), 4, 120),
                "d8a769f408840bb51d650441a018182658c053628fb271cba4b81b0ee1368cb3",
            ),
            (
                lambda: cusp_combination(*_root_vector("D4"), 2, 60),
                "7ed58304db657cb583c91ef18d4031e9581b5ab482fe5018e0d4daa7520bda2b",
            ),
            (
                lambda: cusp_combination(*_root_vector("D4"), 3, 60),
                "0c8d433e29ab824ea2a5b4515938ead6260dd923d71bd062bbfb7784ad7157e3",
            ),
            (
                lambda: theta_generating(*_root_vector("E8"), 3, 8).xseries,
                "91dbd0fcb141d5b2ede1cd58627c8ce7368380cbe992823d6d5ad05476698620",
            ),
            (
                _two_a2_class_theta,
                "db1bf4aff91b3cbe0e1a7ebdd87ae8c44194d3abb6e5635ed1ce75b933c4fb09",
            ),
        ],
        ids=["completed-A2", "cusp-D4-k2", "cusp-D4-k3", "generating-E8", "class-2A2"],
    )
    def test_json_digest(self, build, digest):
        text = json.dumps(build().to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
