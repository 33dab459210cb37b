import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forge.arith import (
    GaussianRational,
    bernoulli,
    divisor_sigma,
    divisor_sigmas,
    kronecker_symbol,
    pairing_coeff,
)

from oracles import bernoulli_double_sum, kronecker_euler, sigma_naive


class TestPairingCoeff:
    def test_small_values(self):
        # number of ways to pick t disjoint pairs from k slots
        assert pairing_coeff(0, 0) == 1
        assert pairing_coeff(0, 7) == 1
        assert pairing_coeff(1, 2) == 1
        assert pairing_coeff(1, 4) == 6
        assert pairing_coeff(2, 4) == 3
        assert pairing_coeff(1, 6) == 15
        assert pairing_coeff(2, 6) == 45
        assert pairing_coeff(3, 6) == 15

    def test_out_of_range_is_zero(self):
        assert pairing_coeff(3, 4) == 0
        assert pairing_coeff(-1, 4) == 0
        assert pairing_coeff(5, 2) == 0

    def test_closed_form(self):
        for k in range(12):
            for t in range(k // 2 + 1):
                expect = Fraction(
                    math.factorial(k),
                    math.factorial(t) * math.factorial(k - 2 * t) * 2 ** t,
                )
                assert pairing_coeff(t, k) == expect

    @given(st.integers(0, 40), st.integers(0, 21))
    def test_recursion(self, k, i):
        # gamma(i, k+1) = (k+2-2i) gamma(i-1, k) + gamma(i, k)
        lhs = pairing_coeff(i, k + 1)
        rhs = (k + 2 - 2 * i) * pairing_coeff(i - 1, k) + pairing_coeff(i, k)
        assert lhs == rhs

    @given(st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_alternating_cancellation(self, k):
        for u in range(1, k // 2 + 1):
            total = sum(
                (-1) ** j * pairing_coeff(j, k) * pairing_coeff(u - j, k - 2 * j)
                for j in range(u + 1)
            )
            assert total == 0


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_double_sum(self):
        for n in range(2, 62, 2):
            assert bernoulli(n) == bernoulli_double_sum(n)


class TestDivisorSigma:
    def test_examples(self):
        assert divisor_sigma(1, 1) == 1
        assert divisor_sigma(1, 6) == 12
        assert divisor_sigma(3, 4) == 73
        assert divisor_sigma(7, 2) == 129

    @given(st.integers(1, 400), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_against_naive(self, n, k):
        assert divisor_sigma(k, n) == sigma_naive(k, n)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 11])
    def test_sieved_table_matches_trial_division(self, k):
        table = divisor_sigmas(k, 3000)
        assert table == [0] + [divisor_sigma(k, n) for n in range(1, 3000)]

    def test_sieved_table_edges(self):
        assert divisor_sigmas(1, 0) == [] and divisor_sigmas(1, 1) == [0]
        assert divisor_sigmas(0, 7) == [0, 1, 2, 2, 3, 2, 4]
        with pytest.raises(ValueError):
            divisor_sigmas(-1, 5)


class TestKronecker:
    def test_examples(self):
        assert kronecker_symbol(2, 15) == 1
        assert kronecker_symbol(-3, 5) == -1
        assert kronecker_symbol(-3, 2) == -1
        assert kronecker_symbol(12, 5) == -1
        assert kronecker_symbol(6, 9) == 0

    def test_unit_modulus(self):
        for a in range(-9, 10):
            assert kronecker_symbol(a, 1) == 1
        assert kronecker_symbol(1, 0) == 1
        assert kronecker_symbol(-1, 0) == 1
        assert kronecker_symbol(2, 0) == 0

    @given(st.integers(-500, 500), st.integers(-500, 500))
    @settings(max_examples=300, deadline=None)
    def test_against_euler(self, a, n):
        assert kronecker_symbol(a, n) == kronecker_euler(a, n)

    @given(st.integers(-80, 80), st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=120, deadline=None)
    def test_multiplicative_in_n(self, a, m, n):
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


class TestGaussianRational:
    def test_basic_ops(self):
        x = GaussianRational(1, 2)
        y = GaussianRational(3, -1)
        assert x + y == GaussianRational(4, 1)
        assert x * y == GaussianRational(5, 5)
        assert x - y == GaussianRational(-2, 3)
        assert (x * y) / y == x

    def test_pow(self):
        i = GaussianRational(0, 1)
        assert i ** 2 == GaussianRational(-1)
        assert i ** 3 == GaussianRational(0, -1)
        assert i ** 4 == GaussianRational(1)
        x = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        assert x ** 3 == x * x * x
        assert x ** 0 == GaussianRational(1)

    def test_division_exact(self):
        x = GaussianRational(Fraction(7, 3), Fraction(-2, 5))
        y = GaussianRational(2, 1)
        assert (x / y) * y == x

    def test_real_value_hashes_like_its_real_part(self):
        # equal objects must hash alike: GaussianRational(3) == 3
        for x in (3, Fraction(1, 2), Fraction(-7, 3), 0):
            assert GaussianRational(x) == x
            assert hash(GaussianRational(x)) == hash(x)
        assert len({GaussianRational(3), 3, Fraction(3)}) == 1
        assert GaussianRational(3, 1) != 3

    def test_conjugate_and_predicates(self):
        x = GaussianRational(2, -3)
        assert x.conjugate() == GaussianRational(2, 3)
        assert GaussianRational(5).is_real
        assert not x.is_real
        assert bool(x)
        assert not bool(GaussianRational(0))

    def test_complex_conversion(self):
        z = complex(GaussianRational(Fraction(1, 2), Fraction(-3, 4)))
        assert z == 0.5 - 0.75j

    def test_mixed_arithmetic_with_ints(self):
        x = GaussianRational(1, 1)
        assert x + 1 == GaussianRational(2, 1)
        assert 2 * x == GaussianRational(2, 2)
        assert x * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))

    def test_hash_eq(self):
        assert hash(GaussianRational(1, 0)) == hash(GaussianRational(Fraction(2, 2), 0))
        d = {GaussianRational(1, 2): "a"}
        assert d[GaussianRational(1, 2)] == "a"

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)
