"""Exact scalar arithmetic shared by every other module.

Gaussian rationals, Bernoulli numbers, divisor power sums (one at a time
or as a sieved table), the Kronecker symbol, and the pairing coefficients
that weight the quasimodular corrections.  Everything here is exact; no
floating point enters.
"""

from __future__ import annotations

import math
from fractions import Fraction

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """An element of Q(i): exact rational real and imaginary parts.

    Instances are immutable by convention and hashable, so they can serve
    as series coefficients and dictionary values throughout the package.
    Purely real values keep an exact zero imaginary part.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return cls(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals its real part, so it hashes like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def pairing_coeff(t: int, k: int) -> Fraction:
    """Number of ways to choose t disjoint unordered pairs among k items.

    Equals C(k,t) * C(k-t,t) * t! / 2^t and vanishes outside 0 <= 2t <= k.
    Total on all integer inputs so that recurrences may probe the boundary.
    """
    if t < 0 or k < 0 or 2 * t > k:
        return Fraction(0)
    return Fraction(math.comb(k, t) * math.comb(k - t, t) * math.factorial(t), 2 ** t)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2, exactly.

    Computed through the defining recurrence sum_{j<m} C(m+1,j) B_j =
    -(m+1) B_m from B_0 = 1 up; the test suite pins values against an
    independent closed-form evaluation.
    """
    if n < 2 or n % 2:
        raise ValueError("Bernoulli index must be an even integer >= 2")
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


def divisor_sigma(k: int, n: int) -> int:
    """Sum of d^k over the positive divisors d of n (n >= 1)."""
    if n < 1:
        raise ValueError("divisor_sigma requires n >= 1")
    if k < 0:
        raise ValueError("divisor_sigma requires k >= 0")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def divisor_sigmas(k: int, n: int) -> list:
    """[sigma_k(0), ..., sigma_k(n-1)] by one sieve over the divisors, with
    sigma_k(0) = 0 as a placeholder: the table divisor_sigma gives entry by
    entry, in O(n log n) additions instead of O(n sqrt n) trial divisions."""
    if k < 0:
        raise ValueError("divisor_sigmas requires k >= 0")
    table = [0] * n
    for d in range(1, n):
        dk = d ** k
        for m in range(d, n, d):
            table[m] += dk
    return table


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), total on Z x Z.

    Extends the Jacobi symbol by the standard conventions at n = 0, n < 0
    and even n; the test suite cross-checks against a factorization plus
    Euler-criterion oracle.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
