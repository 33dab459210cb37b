import cmath
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    series_negation_loop,
    series_product_loop,
    series_rebase_loop,
    series_scalar_loop,
    series_sum_loop,
    series_truncate_loop,
)
from theta_forge.arith import GaussianRational
from theta_forge.lattice import InsertionVector, catalog_form, first_root
from theta_forge.modforms import ThetaSpec, eisenstein_e2, eisenstein_e2k, theta_expand
from theta_forge.qseries import FracQSeries, PrecisionError, XSeries, _pack, _unpack


def S(pairs, prec=10, exp_denom=1):
    return FracQSeries(
        [(e, GaussianRational(c)) for e, c in pairs], prec=prec, exp_denom=exp_denom
    )


class TestConstruction:
    def test_drops_beyond_prec(self):
        s = S([(0, 1), (12, 5)], prec=10)
        assert 12 not in s.coeffs

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            S([(-1, 1)])

    def test_duplicates_merge(self):
        s = S([(2, 1), (2, 3)])
        assert s.coefficient(Fraction(2)) == GaussianRational(4)

    def test_zero_coefficients_dropped(self):
        s = S([(3, 0)])
        assert s.is_zero()
        assert s.order() is None

    def test_constant_and_zero(self):
        z = FracQSeries.zero(prec=5)
        c = FracQSeries.constant(GaussianRational(7), prec=5)
        assert z.is_zero()
        assert c.coefficient(Fraction(0)) == GaussianRational(7)


class TestCoefficient:
    def test_off_lattice_zero(self):
        s = S([(1, 2)], prec=20, exp_denom=4)  # exponent 1/4
        assert s.coefficient(Fraction(1, 3)) == GaussianRational(0)
        assert s.coefficient(Fraction(1, 4)) == GaussianRational(2)

    def test_beyond_prec_raises(self):
        s = S([(0, 1)], prec=5)
        with pytest.raises(PrecisionError):
            s.coefficient(Fraction(5))

    def test_negative_exponent_is_zero(self):
        s = S([(0, 1)])
        assert s.coefficient(Fraction(-2)) == GaussianRational(0)


class TestArithmetic:
    def test_add_sub(self):
        a = S([(0, 1), (2, 3)])
        b = S([(2, -3), (4, 1)])
        c = a + b
        assert c.coefficient(Fraction(2)) == GaussianRational(0)
        assert (c - a - b).is_zero()

    def test_mul_example(self):
        # (1 + q)(1 - q) = 1 - q^2
        a = S([(0, 1), (1, 1)])
        b = S([(0, 1), (1, -1)])
        c = a * b
        assert c.coefficient(Fraction(0)) == GaussianRational(1)
        assert c.coefficient(Fraction(1)) == GaussianRational(0)
        assert c.coefficient(Fraction(2)) == GaussianRational(-1)

    def test_mul_truncates_at_prec(self):
        a = S([(6, 1)], prec=10)
        b = S([(7, 1)], prec=10)
        assert (a * b).is_zero()  # 13 >= 10

    def test_scalar_mul(self):
        a = S([(1, 3)])
        assert (a * 2).coefficient(Fraction(1)) == GaussianRational(6)
        assert (a * Fraction(1, 3)).coefficient(Fraction(1)) == GaussianRational(1)
        assert (2 * a) == (a * 2)

    def test_mixed_exp_denom_alignment(self):
        a = S([(1, 1)], exp_denom=2)  # q^(1/2)
        b = S([(1, 1)], exp_denom=3)  # q^(1/3)
        c = a * b
        assert c.coefficient(Fraction(5, 6)) == GaussianRational(1)

    def test_pow(self):
        a = S([(0, 1), (1, 1)], prec=8)
        assert a ** 3 == a * a * a
        assert (a ** 0).coefficient(Fraction(0)) == GaussianRational(1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-5, 5)), max_size=5
        ),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-5, 5)), max_size=5
        ),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-5, 5)), max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, xs, ys, zs):
        a, b, c = S(xs, prec=13), S(ys, prec=13), S(zs, prec=13)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


_BIG = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))
_COEFFS = {
    "real": st.builds(GaussianRational, _BIG),
    "imaginary": st.builds(lambda y: GaussianRational(0, y), _BIG),
    "mixed": st.builds(GaussianRational, _BIG, _BIG),
}


@st.composite
def _sparse_series(draw):
    """Sparse series with real, purely imaginary or mixed Q(i) coefficients
    at a random exponent stride, exp_denom and precision."""
    coeff = _COEFFS[draw(st.sampled_from(sorted(_COEFFS)))]
    stride = draw(st.sampled_from((1, 2, 3)))
    terms = draw(st.lists(st.tuples(st.integers(0, 30), coeff), max_size=12))
    return FracQSeries(
        [(e * stride, c) for e, c in terms],
        prec=draw(st.integers(1, 60)),
        exp_denom=draw(st.sampled_from((1, 3, 9))),
    )


def _assert_same_product(a, b):
    got, want = a * b, series_product_loop(a, b)
    assert (got.prec, got.exp_denom) == (want.prec, want.exp_denom)
    assert got.coeffs == want.coeffs


class TestPackedProduct:
    @given(_sparse_series(), _sparse_series())
    @settings(max_examples=200, deadline=None)
    def test_matches_schoolbook_loop(self, a, b):
        _assert_same_product(a, b)
        _assert_same_product(b, a)

    def test_empty_one_term_and_mixed_exp_denoms(self):
        e2 = eisenstein_e2(12)
        one = FracQSeries([(0, GaussianRational(Fraction(3, 7), -2))], prec=30, exp_denom=9)
        _assert_same_product(e2, FracQSeries.zero(20, 9))
        _assert_same_product(e2, one)
        _assert_same_product(one, S([(5, 1)], prec=7, exp_denom=9))

    @pytest.mark.parametrize("bits", [2, 3, 7, 30, 64, 65])
    def test_unpack_at_slot_limits(self, bits):
        top = (1 << (bits - 1)) - 1
        digits = [top, -top, -top - 1, 0, -1, -1, -1, top, 1, -1, -top - 1]
        assert _unpack(_pack(digits, bits), bits, len(digits)) == digits
        assert _unpack(_pack([-1] * 50, bits), bits, 50) == [-1] * 50
        # only the low n digits are read, whatever lies above them
        assert _unpack(_pack(digits + [-top - 1, top], bits), bits, 3) == digits[:3]

    @given(st.integers(2, 70), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pack_and_unpack_at_any_length(self, bits, data):
        # the halving split must agree with the digit-by-digit definition
        # at lengths that are no power of two
        top = 1 << (bits - 1)
        digits = data.draw(st.lists(st.integers(-top, top - 1), max_size=70))
        x = _pack(digits, bits)
        assert x == sum(d << (bits * j) for j, d in enumerate(digits))
        assert _unpack(x, bits, len(digits)) == digits
        assert _unpack(x, bits, len(digits) + 3) == digits + [0] * 3

    @pytest.mark.parametrize("m", [1, 2 ** 31 - 1, 10 ** 30])
    def test_largest_digits_of_the_slot_bound(self, m):
        # (m + im)(m - im) = 2m^2 per pair: every real digit in the middle
        # reaches the 2 min(len) max|a| max|b| the slot width is sized for
        n = 40
        a = FracQSeries([(j, GaussianRational(m, m)) for j in range(n)], prec=2 * n)
        for b in (
            FracQSeries([(j, GaussianRational(m, -m)) for j in range(n)], prec=2 * n),
            FracQSeries([(j, GaussianRational(-m, -m)) for j in range(n)], prec=2 * n),
            FracQSeries([(j, GaussianRational(-m, m)) for j in range(n)], prec=2 * n),
        ):
            _assert_same_product(a, b)
        assert (a * -a).coefficient(n - 1) == GaussianRational(0, -2 * n * m * m)

    def test_runs_of_negative_one_digits(self):
        ones = FracQSeries([(j, GaussianRational(1)) for j in range(400)], prec=400)
        minus = FracQSeries.constant(-1, 400)
        assert (minus * ones).coeffs == {j: GaussianRational(-1) for j in range(400)}
        # (1 - q)(1 + q + ... ) = 1 through the horizon
        assert S([(0, 1), (1, -1)], prec=400) * ones == FracQSeries.constant(1, 400)

    def test_deep_eisenstein_product(self):
        e2, e4 = eisenstein_e2(401), eisenstein_e2k(2, 401)
        _assert_same_product(e2, e4)

    def test_no_gaussian_products_in_a_series_product(self, monkeypatch):
        e2, e4 = eisenstein_e2(401), eisenstein_e2k(2, 401)
        calls = []

        def counted(original):
            # a scalar on the left hands the series back as NotImplemented,
            # which is no product in Q(i)
            def method(self, other):
                result = original(self, other)
                if result is not NotImplemented:
                    calls.append(original.__name__)
                return result
            return method

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(GaussianRational, name, counted(getattr(GaussianRational, name)))
        product = e2 * e4
        assert len(product.coeffs) == 401
        # scalar products and sums run on the numerators as well
        for scalar in (3, Fraction(-5, 7), GaussianRational(Fraction(1, 2), -3)):
            e2 * scalar, scalar * e4, e2 + scalar, e4 - scalar
        e2 + e4, e2 - e4, -e4
        assert calls == []


class TestIntegerStorage:
    def test_coeffs_is_a_read_only_view(self):
        s = S([(0, 1), (4, Fraction(2, 3))])
        view = s.coeffs
        assert isinstance(view, Mapping) and len(view) == 2
        assert view == {0: GaussianRational(1), 4: GaussianRational(Fraction(2, 3))}
        assert 4 in view and 1 not in view
        with pytest.raises(TypeError):
            view[1] = GaussianRational(1)
        with pytest.raises(AttributeError):
            s.coeffs = {}

    def test_expansions_make_no_gaussian_rationals(self, monkeypatch):
        a2 = catalog_form("A2")
        v = InsertionVector.from_root(first_root(a2))
        made = []
        init = GaussianRational.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(GaussianRational, "__init__", counted)
        series = [eisenstein_e2(200), eisenstein_e2k(3, 200), theta_expand(ThetaSpec(a2, v, 4), 200)]
        series[0] * series[1] + series[2]
        assert made == []

    def test_equal_series_hash_alike(self):
        # q^1 to prec 10 on the lattices Z and Z/3
        a = S([(1, 1)], prec=10, exp_denom=1)
        b = S([(3, 1)], prec=30, exp_denom=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        one = S([(0, 1)])
        assert len({XSeries([one, a]), XSeries([one.rebase(3), b])}) == 1

    def test_equal_values_over_any_denominator_are_equal(self):
        half = S([(0, Fraction(1, 2)), (1, Fraction(1, 3))])
        assert half * 6 == S([(0, 3), (1, 2)])
        assert (half * 6).coeffs == {0: GaussianRational(3), 1: GaussianRational(2)}
        # truncation drops the term whose denominator the others lack
        assert half.truncate(1) == S([(0, Fraction(1, 2))], prec=1)
        assert hash(half.truncate(1)) == hash(S([(0, Fraction(1, 2))], prec=1))
        assert FracQSeries.from_numerators([(0, 2, 4), (3, 6, 0), (3, -6, 0)], 8, prec=5) == FracQSeries(
            [(0, GaussianRational(Fraction(1, 4), Fraction(1, 2)))], prec=5
        )

    def test_from_numerators_checks_its_input(self):
        with pytest.raises(ValueError):
            FracQSeries.from_numerators([(0, 1, 0)], 0, prec=5)
        with pytest.raises(ValueError):
            FracQSeries.from_numerators([(-1, 1, 0)], prec=5)
        with pytest.raises(TypeError):
            FracQSeries.from_numerators([(Fraction(1, 2), 1, 0)], prec=5)
        with pytest.raises(TypeError):
            FracQSeries.from_numerators([(0, Fraction(1, 2), 0)], prec=5)
        assert FracQSeries.from_numerators([(7, 1, 0)], prec=5).is_zero()

    @given(
        _sparse_series(),
        _sparse_series(),
        st.one_of(st.just(0), st.integers(-4, 4), _BIG, *_COEFFS.values(), st.just(GaussianRational(0, 1))),
        st.integers(1, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_coefficient_oracles(self, a, b, s, cut):
        finer = a.exp_denom * 4
        cases = [
            (a + b, series_sum_loop(a, b)),
            (b + a, series_sum_loop(a, b)),
            (-a, series_negation_loop(a)),
            (a - b, series_sum_loop(a, series_negation_loop(b))),
            (a * s, series_scalar_loop(a, s)),
            (s * a, series_scalar_loop(a, s)),
            (a + s, series_sum_loop(a, FracQSeries.constant(s, a.prec, a.exp_denom))),
            (a.rebase(finer), series_rebase_loop(a, finer)),
            (a.truncate(min(cut, a.prec)), series_truncate_loop(a, min(cut, a.prec))),
        ]
        for got, want in cases:
            assert (got.prec, got.exp_denom) == (want.prec, want.exp_denom)
            assert got.coeffs == want.coeffs
            assert got == want and hash(got) == hash(want)
        # equal results on different lattices hash alike
        assert a.rebase(finer) == a and hash(a.rebase(finer)) == hash(a)
        back = (a + b) - b
        want = series_sum_loop(a, FracQSeries.zero(b.prec, b.exp_denom))
        assert back == want and hash(back) == hash(want)


class TestRebase:
    def test_round_trip(self):
        s = S([(2, 5)], prec=12, exp_denom=2)
        r = s.rebase(6)
        assert r.exp_denom == 6
        assert r.coefficient(Fraction(1)) == GaussianRational(5)
        assert r == s

    def test_non_multiple_rejected(self):
        s = S([(1, 1)], exp_denom=4)
        with pytest.raises(ValueError):
            s.rebase(6)

    def test_equality_across_denoms(self):
        a = S([(1, 1)], prec=10, exp_denom=1)
        b = S([(3, 1)], prec=30, exp_denom=3)
        assert a == b  # both are q^1 to prec 10


class TestTruncate:
    def test_truncate_shrinks(self):
        s = S([(0, 1), (8, 1)], prec=10)
        t = s.truncate(5)
        assert t.prec == 5
        assert 8 not in t.coeffs

    def test_cannot_extend(self):
        s = S([(0, 1)], prec=5)
        with pytest.raises(ValueError):
            s.truncate(9)


class TestJson:
    def test_round_trip(self):
        s = FracQSeries(
            [(1, GaussianRational(Fraction(1, 2), Fraction(-2, 3)))],
            prec=9,
            exp_denom=3,
        )
        d = s.to_json_dict()
        assert FracQSeries.from_json_dict(d) == s

    def test_sorted_keys(self):
        s = S([(4, 1), (1, 2)])
        d = s.to_json_dict()
        exps = [e for e, _ in d["coeffs"]]
        assert exps == sorted(exps)


class TestEvaluate:
    def test_geometric_partial_sum(self):
        s = S([(n, 1) for n in range(10)], prec=10)
        tau = 0.1 + 1.2j
        q = cmath.exp(2j * cmath.pi * tau)
        direct = sum(q ** n for n in range(10))
        assert abs(s.evaluate(tau) - direct) < 1e-14

    def test_fractional_exponents(self):
        s = S([(1, 2)], prec=8, exp_denom=4)
        tau = 0.3 + 0.9j
        expect = 2 * cmath.exp(2j * cmath.pi * tau / 4)
        assert abs(s.evaluate(tau) - expect) < 1e-14


class TestXSeries:
    def test_ycoeff_and_padding(self):
        xs = XSeries([S([(0, 1)]), S([(1, 2)])])
        assert xs.x_prec == 2
        assert xs.ycoeff(0).coefficient(Fraction(0)) == GaussianRational(1)
        assert xs.ycoeff(5).is_zero()

    def test_mul_cauchy(self):
        one = S([(0, 1)])
        a = XSeries([one, one])        # 1 + Y
        b = XSeries([one, one * (-1)])  # 1 - Y
        c = a * b                       # 1 - Y^2 but x_prec clips at 2
        assert c.x_prec == 2
        assert c.ycoeff(0) == one
        assert c.ycoeff(1).is_zero()

    def test_add(self):
        one = S([(0, 1)])
        a = XSeries([one, one])
        b = XSeries([one * (-1), one])
        c = a + b
        assert c.ycoeff(0).is_zero()
        assert c.ycoeff(1) == one * 2

    def test_evaluate_matches_manual(self):
        q1 = S([(1, 3)])
        xs = XSeries([S([(0, 1)]), q1])
        tau, x = 0.2 + 1.1j, 0.05 + 0.01j
        q = cmath.exp(2j * cmath.pi * tau)
        direct = 1 + (2j * cmath.pi * x) * 3 * q
        assert abs(xs.evaluate(tau, x) - direct) < 1e-13

    def test_json_round_trip(self):
        xs = XSeries([S([(0, 1)]), S([(2, -4)])])
        assert XSeries.from_json_dict(xs.to_json_dict()) == xs
