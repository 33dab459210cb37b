"""Truncated q-expansions with exact Gaussian-rational coefficients.

A series lives on the exponent lattice (1/M) Z_{>=0} for a fixed
denominator M and is known modulo q^(prec/M).  Its coefficients are
Gaussian-integer numerators over one positive denominator den: a sparse
dict {e: (re, im)} of Python ints with no zero pair, and den prime to
every numerator.  That form is canonical, so equality and hashing compare
plain integers, and every operation (sums, scalar and series products,
rebase, truncate) runs on integers and divides by one gcd at the end.  A
product of two series is a Kronecker substitution: the numerators of each
operand are packed into big integers, one to three integer products give
every numerator at once, and the denominators multiply.  `coeffs` is a
read-only view that builds a GaussianRational only when one is read.  All
arithmetic tracks precision pessimistically, so a result never claims
more terms than its inputs support.
"""

from __future__ import annotations

import cmath
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .arith import GaussianRational


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known truncation is requested."""


class _Coefficients(Mapping):
    """Read-only view {e: GaussianRational} of a series' numerators over its
    denominator: a value is built when it is read, len() is O(1)."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num, self._den = num, den

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __getitem__(self, e):
        re, im = self._num[e]
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))


class FracQSeries:
    """Sparse truncated series sum_e c_e q^(e/M), exact coefficients.

    `prec` counts in units of 1/M: exponents 0 <= e < prec are known,
    everything from q^(prec/M) on is undetermined.  Terms handed to the
    constructor at or beyond the horizon are discarded, and terms at one
    exponent are summed.  Each c_e is stored as a pair of integer
    numerators over the series' one denominator (module docstring);
    `from_numerators` builds a series from such pairs, and `coeffs` reads
    the c_e back.
    """

    __slots__ = ("_num", "_den", "prec", "exp_denom")

    def __init__(self, coeffs=(), *, prec, exp_denom=1):
        terms = []
        for e, c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            g = GaussianRational._coerce(c)
            if g is None:
                raise TypeError(f"coefficient of type {type(c).__name__}")
            terms.append((e, g.re, g.im))
        den = lcm(1, *(x.denominator for _, re, im in terms for x in (re, im)))
        terms = [(e, int(re * den), int(im * den)) for e, re, im in terms]
        self._num, self._den = _canonical(terms, den, prec, exp_denom)
        self.prec, self.exp_denom = prec, exp_denom

    @classmethod
    def from_numerators(cls, terms, den=1, *, prec, exp_denom=1) -> "FracQSeries":
        """sum over (e, re, im) in terms of ((re + i im)/den) q^(e/M): integer
        numerators over one positive integer denominator, summed and cut
        at prec like the constructor's terms."""
        return _series(*_canonical(terms, den, prec, exp_denom), prec, exp_denom)

    @classmethod
    def zero(cls, prec, exp_denom=1):
        return cls((), prec=prec, exp_denom=exp_denom)

    @classmethod
    def constant(cls, value, prec, exp_denom=1):
        return cls([(0, value)], prec=prec, exp_denom=exp_denom)

    @property
    def coeffs(self) -> Mapping:
        """Read-only {e: GaussianRational} of the stored (nonzero) terms."""
        return _Coefficients(self._num, self._den)

    def is_zero(self) -> bool:
        return not self._num

    def order(self):
        """Exponent of the lowest nonzero term as a Fraction, None if zero."""
        if not self._num:
            return None
        return Fraction(min(self._num), self.exp_denom)

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
        if scaled.denominator != 1 or int(scaled) not in self._num:
            return GaussianRational(0)
        return self.coeffs[int(scaled)]

    def rebase(self, exp_denom: int) -> "FracQSeries":
        """Rescale to a finer exponent lattice; exp_denom must be a multiple."""
        if exp_denom % self.exp_denom:
            raise ValueError("can only rebase to a multiple of the current exp_denom")
        k = exp_denom // self.exp_denom
        if k == 1:
            return self
        return _series({e * k: p for e, p in self._num.items()}, self._den, self.prec * k, exp_denom)

    def truncate(self, prec: int) -> "FracQSeries":
        """Lower the precision to prec (in current exp_denom units)."""
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        if prec == self.prec:
            return self
        kept = {e: p for e, p in self._num.items() if e < prec}
        return _series(*_reduced(kept, self._den), prec, self.exp_denom)

    def _aligned(self, other):
        m = lcm(self.exp_denom, other.exp_denom)
        return self.rebase(m), other.rebase(m)

    def __add__(self, other):
        if not isinstance(other, FracQSeries):
            s = GaussianRational._coerce(other)
            if s is None:
                return NotImplemented
            other = FracQSeries.constant(s, self.prec, self.exp_denom)
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        den = lcm(a._den, b._den)
        ka, kb = den // a._den, den // b._den
        out = {e: (re * ka, im * ka) for e, (re, im) in a._num.items() if e < prec}
        for e, (re, im) in b._num.items():
            if e >= prec:
                continue
            re, im = re * kb, im * kb
            if e in out:
                r, i = out[e]
                re, im = re + r, im + i
                if not (re or im):
                    del out[e]
                    continue
            out[e] = (re, im)
        return _series(*_reduced(out, den), prec, a.exp_denom)

    __radd__ = __add__

    def __neg__(self):
        return _series({e: (-re, -im) for e, (re, im) in self._num.items()}, self._den, self.prec, self.exp_denom)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FracQSeries) else -_require(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FracQSeries):
            a, b = self._aligned(other)
            prec = min(a.prec, b.prec)
            out = _series_product(a._num, b._num, prec)
            return _series(*_reduced(out, a._den * b._den), prec, a.exp_denom)
        s = GaussianRational._coerce(other)
        if s is None:
            return NotImplemented
        if not s:
            return FracQSeries.zero(self.prec, self.exp_denom)
        d = lcm(s.re.denominator, s.im.denominator)
        sr, si = s.re.numerator * (d // s.re.denominator), s.im.numerator * (d // s.im.denominator)
        out = {e: (re * sr - im * si, re * si + im * sr) for e, (re, im) in self._num.items()}
        return _series(*_reduced(out, self._den * d), self.prec, self.exp_denom)

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
        return a.prec == b.prec and a._den == b._den and a._num == b._num

    def __hash__(self):
        # over the coarsest lattice that holds every exponent and prec, so
        # that equal series on different lattices hash alike
        g = gcd(self.exp_denom, self.prec, *self._num)
        terms = frozenset((e // g, p) for e, p in self._num.items())
        return hash((self.exp_denom // g, self.prec // g, self._den, terms))

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
        if len(self._num) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(q^{Fraction(self.prec, self.exp_denom)})>"


def _canonical(terms, den, prec, exp_denom):
    """(num, den) in canonical form for the terms (e, re, im) over den, after
    checking every input: the numerators at one exponent summed, the
    exponents at or beyond prec dropped."""
    for name, x in (("prec", prec), ("exp_denom", exp_denom), ("den", den)):
        if not isinstance(x, int) or x <= 0:
            raise ValueError(f"{name} must be a positive integer")
    num = {}
    for e, re, im in terms:
        if not isinstance(e, int):
            raise TypeError("exponents must be integers in exp_denom units")
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if not (isinstance(re, int) and isinstance(im, int)):
            raise TypeError("numerators must be integers")
        if e < prec:
            if e in num:
                r, i = num[e]
                re, im = re + r, im + i
            num[e] = (re, im)
    return _reduced({e: p for e, p in num.items() if p[0] or p[1]}, den)


def _reduced(num: dict, den: int):
    """(num, den) divided by the gcd of den and every numerator; num holds
    no zero pair, and the zero series comes back over 1."""
    g = den
    for pair in num.values():
        g = gcd(g, *pair)
        if g == 1:
            return num, den
    return {e: (re // g, im // g) for e, (re, im) in num.items()}, den // g


def _series(num: dict, den: int, prec: int, exp_denom: int) -> FracQSeries:
    """A series over canonical (num, den), taken as they are."""
    s = object.__new__(FracQSeries)
    s._num, s._den, s.prec, s.exp_denom = num, den, prec, exp_denom
    return s


def _series_product(a: dict, b: dict, prec: int) -> dict:
    """Numerators below prec of the product of two sparse numerator dicts
    {e: (re, im)}, by Kronecker substitution.

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
    ar, ai = _slots(a, ea, a0, g)
    br, bi = _slots(b, eb, b0, g)
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
    e0 = a0 + b0
    return {e0 + g * j: (r, i) for j, (r, i) in enumerate(zip(re_digits, im_digits)) if r or i}


def _slots(num: dict, exps, e0: int, g: int):
    """(re, im): dense digit lists of the numerators over slots (e - e0)/g."""
    size = (max(exps) - e0) // g + 1
    re, im = [0] * size, [0] * size
    for e in exps:
        j = (e - e0) // g
        re[j], im[j] = num[e]
    return re, im


def _pack(digits, bits: int) -> int:
    """sum digits[j] 2^(bits*j): signed digits in one Python integer.

    Neighbours are joined pairwise, then the pairs pairwise, and so on, so
    every level handles each bit once: O(size log n) rather than the
    O(size n) of shifting one growing integer a digit at a time."""
    xs, width = list(digits), bits
    while len(xs) > 1:
        if len(xs) % 2:
            xs.append(0)
        xs = [lo + (hi << width) for lo, hi in zip(xs[::2], xs[1::2])]
        width *= 2
    return xs[0] if xs else 0


def _unpack(x: int, bits: int, n: int):
    """The n lowest signed digits of x in base 2^bits, each in
    [-2^(bits-1), 2^(bits-1)): a digit at or over the top half borrows one
    from the next slot.

    Adding 2^(bits-1) in every slot turns them into the plain digits of
    one non-negative number, which split in halves, then quarters, and so
    on (the reverse of _pack), before the 2^(bits-1) is taken off again."""
    half, size = 1 << (bits - 1), 1
    while size < n:
        size *= 2
    chunks = [(x + _pack([half] * n, bits)) & ((1 << (bits * n)) - 1)]
    while size > 1:
        size //= 2
        width = bits * size
        mask = (1 << width) - 1
        chunks = [part for c in chunks for part in (c & mask, c >> width)]
    return [c - half for c in chunks[:n]]


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
