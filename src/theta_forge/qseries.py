"""Truncated q-expansions with exact Gaussian-rational coefficients.

A series lives on the exponent lattice (1/M) Z_{>=0} for a fixed
denominator M and is known modulo q^(prec/M).  Coefficients are stored
sparsely as GaussianRationals; exact zeros are simply absent.  A product
of two series runs on packed integers (Kronecker substitution): each
operand is cleared to one denominator, its real and imaginary parts are
packed into big integers, and one to three integer products give every
coefficient at once.  All arithmetic tracks precision pessimistically, so
a result never claims more terms than its inputs support.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .arith import GaussianRational


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known truncation is requested."""


class FracQSeries:
    """Sparse truncated series sum_e c_e q^(e/M), exact coefficients.

    `prec` counts in units of 1/M: exponents 0 <= e < prec are known,
    everything from q^(prec/M) on is undetermined.  Terms handed to the
    constructor at or beyond the horizon are discarded.
    """

    __slots__ = ("coeffs", "prec", "exp_denom")

    def __init__(self, coeffs=(), *, prec, exp_denom=1):
        if not isinstance(prec, int) or prec <= 0:
            raise ValueError("prec must be a positive integer")
        if not isinstance(exp_denom, int) or exp_denom <= 0:
            raise ValueError("exp_denom must be a positive integer")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        store = {}
        for e, c in items:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers in exp_denom units")
            if e < 0:
                raise ValueError("negative exponents are not supported")
            if e >= prec:
                continue
            g = GaussianRational._coerce(c)
            if g is None:
                raise TypeError(f"coefficient of type {type(c).__name__}")
            if g:
                store[e] = store[e] + g if e in store else g
                if not store[e]:
                    del store[e]
        self.coeffs = store
        self.prec = prec
        self.exp_denom = exp_denom

    @classmethod
    def zero(cls, prec, exp_denom=1):
        return cls((), prec=prec, exp_denom=exp_denom)

    @classmethod
    def constant(cls, value, prec, exp_denom=1):
        return cls([(0, value)], prec=prec, exp_denom=exp_denom)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Exponent of the lowest nonzero term as a Fraction, None if zero."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.exp_denom)

    def coefficient(self, exponent) -> GaussianRational:
        """Exact coefficient of q^exponent; exponent rational in q-units."""
        x = Fraction(exponent)
        if x < 0:
            return GaussianRational(0)
        scaled = x * self.exp_denom
        if scaled >= self.prec:
            raise PrecisionError(
                f"coefficient at q^{x} lies beyond precision "
                f"q^{Fraction(self.prec, self.exp_denom)}"
            )
        if scaled.denominator != 1:
            return GaussianRational(0)
        return self.coeffs.get(int(scaled), GaussianRational(0))

    def rebase(self, exp_denom: int) -> "FracQSeries":
        """Rescale to a finer exponent lattice; exp_denom must be a multiple."""
        if exp_denom % self.exp_denom:
            raise ValueError("can only rebase to a multiple of the current exp_denom")
        k = exp_denom // self.exp_denom
        if k == 1:
            return self
        return FracQSeries(
            {e * k: c for e, c in self.coeffs.items()},
            prec=self.prec * k,
            exp_denom=exp_denom,
        )

    def truncate(self, prec: int) -> "FracQSeries":
        """Lower the precision to prec (in current exp_denom units)."""
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        if prec == self.prec:
            return self
        return FracQSeries(
            {e: c for e, c in self.coeffs.items() if e < prec},
            prec=prec,
            exp_denom=self.exp_denom,
        )

    def _aligned(self, other):
        m = lcm(self.exp_denom, other.exp_denom)
        return self.rebase(m), other.rebase(m)

    def __add__(self, other):
        if isinstance(other, FracQSeries):
            a, b = self._aligned(other)
            prec = min(a.prec, b.prec)
            out = dict(a.coeffs)
            for e, c in b.coeffs.items():
                out[e] = out[e] + c if e in out else c
            return FracQSeries(out, prec=prec, exp_denom=a.exp_denom)
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        out = dict(self.coeffs)
        out[0] = out.get(0, GaussianRational(0)) + s
        return FracQSeries(out, prec=self.prec, exp_denom=self.exp_denom)

    __radd__ = __add__

    def __neg__(self):
        return FracQSeries(
            {e: -c for e, c in self.coeffs.items()},
            prec=self.prec,
            exp_denom=self.exp_denom,
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, FracQSeries) else -_require(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FracQSeries):
            a, b = self._aligned(other)
            prec = min(a.prec, b.prec)
            out = _series_product(a.coeffs, b.coeffs, prec)
            return FracQSeries(out, prec=prec, exp_denom=a.exp_denom)
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        if not s:
            return FracQSeries.zero(self.prec, self.exp_denom)
        return FracQSeries(
            {e: c * s for e, c in self.coeffs.items()},
            prec=self.prec,
            exp_denom=self.exp_denom,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = FracQSeries.constant(1, self.prec, self.exp_denom)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return a.prec == b.prec and a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.exp_denom, self.prec, frozenset(self.coeffs.items())))

    def to_json_dict(self) -> dict:
        return {
            "exp_denom": self.exp_denom,
            "prec": self.prec,
            "coeffs": [
                [
                    e,
                    [
                        c.re.numerator,
                        c.re.denominator,
                        c.im.numerator,
                        c.im.denominator,
                    ],
                ]
                for e, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FracQSeries":
        coeffs = [
            (
                e,
                GaussianRational(
                    Fraction(rn, rd), Fraction(in_, id_)
                ),
            )
            for e, (rn, rd, in_, id_) in data["coeffs"]
        ]
        return cls(coeffs, prec=data["prec"], exp_denom=data["exp_denom"])

    def evaluate(self, tau: complex) -> complex:
        """Numeric value at q = exp(2 pi i tau); truncation error not included."""
        total = 0j
        w = 2j * cmath.pi * tau / self.exp_denom
        for e, c in sorted(self.coeffs.items()):
            total += complex(c) * cmath.exp(w * e)
        return total

    def __repr__(self):
        terms = []
        for e, c in sorted(self.coeffs.items())[:6]:
            x = Fraction(e, self.exp_denom)
            terms.append(f"({c})q^{x}" if x else f"({c})")
        if len(self.coeffs) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(q^{Fraction(self.prec, self.exp_denom)})>"


def _series_product(a: dict, b: dict, prec: int) -> dict:
    """Coefficients below prec of the product of two sparse coefficient
    dicts, by Kronecker substitution.

    Exponents are shifted to start at 0 and packed at stride g, the gcd of
    their gaps in both operands, so slot j holds exponent min + g*j.  The
    slot width fits every product digit with its sign, so the integer
    product of two packed operands is the packed convolution.
    """
    if not a or not b:
        return {}
    a0, b0 = min(a), min(b)
    room = prec - a0 - b0  # product offsets from a0 + b0 below room lie below prec
    if room <= 0:
        return {}
    ea = [e for e in a if e - a0 < room]
    eb = [e for e in b if e - b0 < room]
    g = gcd(*(e - a0 for e in ea), *(e - b0 for e in eb)) or 1
    da, ar, ai = _integer_digits(a, ea, a0, g)
    db, br, bi = _integer_digits(b, eb, b0, g)
    top = max(map(abs, ar + ai)) * max(map(abs, br + bi))
    bits = (2 * min(len(ea), len(eb)) * top).bit_length() + 2
    A, Ai, B, Bi = (_pack(d, bits) for d in (ar, ai, br, bi))
    if not (Ai or Bi):
        re, im = A * B, 0
    else:
        # three products; a real operand packs to 0 and its terms vanish
        rr, ii = A * B, Ai * Bi
        re, im = rr - ii, (A + Ai) * (B + Bi) - rr - ii
    n = (room - 1) // g + 1
    re_digits = _unpack(re, bits, n)
    im_digits = _unpack(im, bits, n) if im else [0] * n
    den = da * db
    out = {}
    for j, (r, i) in enumerate(zip(re_digits, im_digits)):
        if r or i:
            out[a0 + b0 + g * j] = GaussianRational(Fraction(r, den), Fraction(i, den))
    return out


def _integer_digits(coeffs: dict, exps, e0: int, g: int):
    """(den, re, im): dense digit lists over slots (e - e0)/g of den * c,
    den the lcm of every denominator."""
    den = 1
    for e in exps:
        c = coeffs[e]
        den = lcm(den, c.re.denominator, c.im.denominator)
    size = (max(exps) - e0) // g + 1
    re, im = [0] * size, [0] * size
    for e in exps:
        c = coeffs[e]
        j = (e - e0) // g
        re[j] = c.re.numerator * (den // c.re.denominator)
        im[j] = c.im.numerator * (den // c.im.denominator)
    return den, re, im


def _pack(digits, bits: int) -> int:
    """sum digits[j] 2^(bits*j): signed digits in one Python integer."""
    x = 0
    for d in reversed(digits):
        x = (x << bits) + d
    return x


def _unpack(x: int, bits: int, n: int):
    """The n lowest signed digits of x in base 2^bits, each in
    [-2^(bits-1), 2^(bits-1)): a digit at or over the top half borrows one
    from the next slot."""
    x &= (1 << (bits * n)) - 1
    full = 1 << bits
    half, mask = full >> 1, full - 1
    out = []
    for _ in range(n):
        d = x & mask
        x >>= bits
        if d >= half:
            d -= full
            x += 1
        out.append(d)
    return out


def _require(x):
    s = GaussianRational._coerce(x)
    if s is None:
        raise TypeError(f"cannot combine series with {type(x).__name__}")
    return s


class XSeries:
    """Polynomial in Y = 2 pi i X whose coefficients are FracQSeries.

    The Y-grading keeps every stored coefficient Gaussian-rational; powers
    of 2 pi i only reappear on numeric evaluation.  All q-coefficients are
    aligned to one exponent lattice and one precision at construction.
    """

    __slots__ = ("ycoeffs", "x_prec")

    def __init__(self, ycoeffs):
        ycoeffs = list(ycoeffs)
        if not ycoeffs:
            raise ValueError("ycoeffs must be non-empty")
        m = 1
        for s in ycoeffs:
            m = lcm(m, s.exp_denom)
        ycoeffs = [s.rebase(m) for s in ycoeffs]
        p = min(s.prec for s in ycoeffs)
        self.ycoeffs = tuple(s.truncate(p) for s in ycoeffs)
        self.x_prec = len(ycoeffs)

    @property
    def q_prec(self) -> int:
        return self.ycoeffs[0].prec

    @property
    def exp_denom(self) -> int:
        return self.ycoeffs[0].exp_denom

    def ycoeff(self, n: int) -> FracQSeries:
        """Coefficient of Y^n, a zero series for n >= x_prec."""
        if n < 0:
            raise ValueError("negative Y-degree")
        if n >= self.x_prec:
            return FracQSeries.zero(self.q_prec, self.exp_denom)
        return self.ycoeffs[n]

    def __add__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        n = min(self.x_prec, other.x_prec)
        return XSeries([self.ycoeffs[i] + other.ycoeffs[i] for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        n = min(self.x_prec, other.x_prec)
        return XSeries([self.ycoeffs[i] - other.ycoeffs[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, XSeries):
            n = min(self.x_prec, other.x_prec)
            out = []
            for k in range(n):
                acc = FracQSeries.zero(
                    min(self.q_prec, other.q_prec),
                    lcm(self.exp_denom, other.exp_denom),
                )
                for i in range(k + 1):
                    acc = acc + self.ycoeffs[i] * other.ycoeffs[k - i]
                out.append(acc)
            return XSeries(out)
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        return XSeries([c * s for c in self.ycoeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.x_prec == other.x_prec and all(
            a == b for a, b in zip(self.ycoeffs, other.ycoeffs)
        )

    def __hash__(self):
        return hash((self.x_prec, self.ycoeffs))

    def evaluate(self, tau: complex, x: complex) -> complex:
        """Numeric value at (tau, X = x); substitutes Y = 2 pi i x."""
        y = 2j * cmath.pi * x
        total = 0j
        power = 1 + 0j
        for s in self.ycoeffs:
            total += s.evaluate(tau) * power
            power *= y
        return total

    def to_json_dict(self) -> dict:
        return {
            "x_prec": self.x_prec,
            "ycoeffs": [s.to_json_dict() for s in self.ycoeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "XSeries":
        return cls([FracQSeries.from_json_dict(d) for d in data["ycoeffs"]])

    def __repr__(self):
        return (
            f"<XSeries x_prec={self.x_prec} q_prec="
            f"{Fraction(self.q_prec, self.exp_denom)}>"
        )
