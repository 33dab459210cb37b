"""q-expansions and numeric evaluation of Eisenstein and theta series.

Exact expansions run through the lattice histogram engine and stay in
Q(i).  Every numeric theta (plain, class, Poisson offset and dual) is one
coset sum: the histogram of a coset x + Z^f, cut at a certified radius
and summed against exp(2 pi i tau e/M).  Both views of every series
share one enumeration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, pi
from typing import Optional

from .arith import GaussianRational, bernoulli, divisor_sigma
from .lattice import CongruenceClass, InsertionVector, QuadraticForm, insertion_histogram
from .qseries import FracQSeries


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane, im > 0."""

    re: float
    im: float

    def __post_init__(self):
        if not self.im > 0:
            raise ValueError(f"im = {self.im} is not positive")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


def _as_complex(tau) -> complex:
    if isinstance(tau, TauPoint):
        return tau.z
    z = complex(tau)
    if not z.imag > 0:
        raise ValueError(f"tau = {z} is not in the upper half-plane")
    return z


@dataclass(frozen=True)
class ThetaSpec:
    """One theta series: plain (k=0), with insertion v and power k, or the
    congruence variant restricted to the class h (which carries the 1/N^k
    prefactor and exponents Q(m)/N^2)."""

    form: QuadraticForm
    v: Optional[InsertionVector] = None
    k: int = 0
    h: Optional[CongruenceClass] = None

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError("k must be a non-negative integer")
        if self.k > 0 and self.v is None:
            raise ValueError("insertion power k > 0 requires a vector v")
        if self.h is not None and self.h.form != self.form:
            raise ValueError("congruence class belongs to a different form")

    @classmethod
    def plain(cls, form: QuadraticForm) -> "ThetaSpec":
        return cls(form)


def eisenstein_e2(prec: int) -> FracQSeries:
    """Quasimodular weight-2 series -1/12 + 2 sum sigma_1(n) q^n."""
    coeffs = [(0, GaussianRational(Fraction(-1, 12)))]
    for n in range(1, prec):
        coeffs.append((n, GaussianRational(2 * divisor_sigma(1, n))))
    return FracQSeries(coeffs, prec=prec)


def eisenstein_e2k(k: int, prec: int) -> FracQSeries:
    """Weight-2k Eisenstein series 1 - (4k/B_2k) sum sigma_(2k-1)(n) q^n."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("weight parameter k must be an integer >= 2")
    factor = Fraction(-4 * k) / bernoulli(2 * k)
    coeffs = [(0, GaussianRational(1))]
    for n in range(1, prec):
        coeffs.append((n, GaussianRational(factor * divisor_sigma(2 * k - 1, n))))
    return FracQSeries(coeffs, prec=prec)


def _exp_denom(spec: ThetaSpec) -> int:
    """M: the series has exponents e/M, 1 for the plain sum and N^2 on a class."""
    return 1 if spec.h is None else spec.form.level ** 2


def _spec_slice(spec: ThetaSpec):
    """(den, slice): the insertion_histogram keywords of the lattice sum
    spec describes, whose keys are (e,) for k = 0, otherwise (e, t...)
    with t/den the parts of w'Am."""
    form = spec.form
    scale, h0 = (1, None) if spec.h is None else (form.level, spec.h.rep)
    den, weights = spec.v.integral_weights(form) if spec.k else (1, ())
    return den, {"scale": scale, "h0": h0, "weights": weights}


def _class_symmetric(spec: ThetaSpec) -> bool:
    # m -> -m maps the class h to -h; cancellation needs 2h = 0 mod N
    if spec.h is None:
        return True
    N = spec.form.level
    return all((2 * x) % N == 0 for x in spec.h.rep)


def theta_expand(spec: ThetaSpec, prec: int) -> FracQSeries:
    """Exact q-expansion of the theta series through q^prec (exclusive).

    Even k keeps <v,m>^k = s^(k/2) (w'Am)^k inside Q(i).  Odd k returns
    the zero series when the m -> -m cancellation applies (always for the
    plain series); an asymmetric congruence class with odd k has no exact
    Gaussian-rational expansion and is rejected.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    M = _exp_denom(spec)
    series_prec = prec * M
    if spec.k % 2:
        if _class_symmetric(spec):
            return FracQSeries.zero(series_prec, M)
        raise ValueError(
            "odd insertion power on an asymmetric class has no exact expansion"
        )
    den, coset = _spec_slice(spec)
    cells = insertion_histogram(spec.form, series_prec - 1, **coset)
    if spec.k == 0:
        coeffs = [(e, GaussianRational(c)) for (e,), c in cells.items()]
        return FracQSeries(coeffs, prec=series_prec, exp_denom=M)
    pref = spec.v.s ** (spec.k // 2) * Fraction(1, den ** spec.k)
    if spec.h is not None:
        pref /= spec.form.level ** spec.k
    acc: dict = {}
    for key, count in cells.items():
        e = key[0]
        base = GaussianRational(key[1], key[2] if len(key) > 2 else 0)
        val = (base ** spec.k) * (pref * count)
        acc[e] = acc[e] + val if e in acc else val
    return FracQSeries(acc, prec=series_prec, exp_denom=M)


def _truncation_radius(y: float, k: int, f: int, tol: float) -> int:
    """Smallest radius R with (1+R)^(k/2+f) exp(-2 pi y R) < tol/100.

    The polynomial exponent absorbs both the shell count and the growth
    of the insertion factor; crude, but certified at desk scale.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    expo = k / 2 + f
    r = max(1, math.ceil(expo / (2 * pi * y)))
    while (1 + r) ** expo * math.exp(-2 * pi * y * r) >= tol * 1e-2:
        r += 1
        if r > 100_000:
            raise RuntimeError("truncation radius exceeds sanity bound")
    return r


def _coset_sum(
    form: QuadraticForm, tau: complex, tol: float, k: int, M: int, insert=None, **coset
) -> complex:
    """Sum count * insert(key) * exp(2 pi i tau e/M), smallest terms first.

    The cells are the insertion histogram of the slice named by coset
    (scale, h0, weights), cut at the radius certified for tol and k.
    """
    radius = _truncation_radius(tau.imag, k, form.rank, tol)
    cells = insertion_histogram(form, radius * M, **coset)
    tau_over = 2j * pi * tau / M
    total = 0j
    for key in sorted(cells, key=lambda kk: -kk[0]):
        term = cells[key] * cmath.exp(tau_over * key[0])
        if insert is not None:
            term *= insert(key)
        total += term
    return total


def theta_numeric(spec: ThetaSpec, tau, tol: float) -> complex:
    """Numeric value of the theta series, truncation error below tol.

    Valid on the whole upper half-plane; the cost grows quickly as im(tau)
    drops (the certified-contract region of the harness is im >= 0.3, and
    campaign fallbacks go lower at their own expense).
    """
    z = _as_complex(tau)
    den, coset = _spec_slice(spec)
    M = _exp_denom(spec)
    k = spec.k
    if k == 0:
        return _coset_sum(spec.form, z, tol, 0, M, **coset)
    pref = float(spec.v.s) ** (k / 2) / den ** k
    if spec.h is not None:
        pref /= float(spec.form.level) ** k

    def insert(key):
        base = complex(key[1], key[2] if len(key) > 2 else 0)
        return pref * base ** k

    return _coset_sum(spec.form, z, tol, k, M, insert, **coset)


def _offset_geometry(form: QuadraticForm, x):
    xs = [Fraction(c) for c in x]
    if len(xs) != form.rank:
        raise ValueError("offset vector has the wrong length")
    rho = 1
    for c in xs:
        rho = lcm(rho, c.denominator)
    h0 = tuple(int(rho * c) for c in xs)
    return rho, h0


def theta_offset_numeric(form: QuadraticForm, x, tau, tol: float) -> complex:
    """sum over m of exp(2 pi i tau Q(m + x)) for a rational offset x."""
    z = _as_complex(tau)
    rho, h0 = _offset_geometry(form, x)
    return _coset_sum(form, z, tol, 0, rho * rho, scale=rho, h0=h0)


def theta_dual_numeric(form: QuadraticForm, x, tau, tol: float) -> complex:
    """sum over m of exp(2 pi i tau m'A^-1 m / 2) exp(2 pi i m'x).

    The argument tau here is the already-inverted variable, so the
    inversion identity reads: theta_offset_numeric(form, x, t) equals
    theta_dual_numeric(form, x, -1/t) / ((-i t)^r sqrt(D)).
    """
    z = _as_complex(tau)
    rho, h0 = _offset_geometry(form, x)
    phase = 2j * pi / rho

    def insert(key):
        return cmath.exp(phase * key[1])

    # m'A^-1 m / 2 = Q_adj(m) / D; the offset enters only as the phase m'x
    return _coset_sum(form.dual(), z, tol, 0, form.det, insert, weights=(h0,))


def eisenstein_e2_numeric(tau, tol: float = 1e-12) -> complex:
    """E_2 at tau by direct summation with a divisor-sum tail bound."""
    z = _as_complex(tau)
    q = cmath.exp(2j * pi * z)
    x = abs(q)
    total = complex(Fraction(-1, 12))
    qn = 1 + 0j
    n = 0
    while True:
        n += 1
        qn *= q
        total += 2 * divisor_sigma(1, n) * qn
        # sigma_1(m) <= m^2, so the tail is under 2 sum m^2 x^m
        ratio = x * ((n + 2) / (n + 1)) ** 2
        if ratio < 1:
            tail = 2 * (n + 1) ** 2 * x ** (n + 1) / (1 - ratio)
            if tail < tol:
                return total
        if n > 100_000:
            raise RuntimeError("E2 summation failed to converge")
