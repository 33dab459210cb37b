"""q-expansions and numeric evaluation of Eisenstein and theta series.

Exact expansions run through the lattice histogram engine and stay in
Q(i): theta_expand and the exact Eisenstein series sum integer numerators
(histogram counts times powers of the weights, sieved divisor sums) and
hand them to FracQSeries.from_numerators with the prefactor as one
denominator.
Every numeric theta (plain, class, Poisson offset, dual, the rescale
law's family of class thetas and the inversion law's phased sum of all
det class thetas) is one coset sum: the histogram of a coset
x + Z^f, cut at a certified radius and summed against
P(<v, z>/level) exp(2 pi i tau e/M) in one numpy sum over the
histogram's read-only arrays.  One rule names the slice of a ThetaSpec,
z = h0 + level*u with M = level^2 (_spec_coset), for the exact and the
numeric sums alike; the offset theta at x = h0/rho is the level-rho
coset theta, and v's integer rows come from one place,
InsertionVector.integer_rows, paired with A or not.  The insertion
polynomial P is y^k for a theta of power k, and sum over t of
x^t pairing_coeff(t, k) y^(k-2t) for its E2 completion, so a completed
theta is one sum, not one per power.
Both views of every series share one enumeration.  The inversion classes
tile {m : A m = 0 mod N} = N A^-1 Z^f, and their phases are a character
of y in m = N A^-1 y, so their sum is one walk of the dual form
(_dual_sum).  The cusp law keeps one completed class theta per class:
its Gauss-sum weights are no character of y, so a single dual walk would
have to be binned by class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, pi
from typing import Optional

import numpy as np

from .arith import bernoulli, divisor_sigma, divisor_sigmas
from .lattice import CongruenceClass, InsertionVector, QuadraticForm, _tally_cells, insertion_histogram
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
    sigma = divisor_sigmas(1, prec)
    terms = [(0, -1, 0)] + [(n, 24 * sigma[n], 0) for n in range(1, prec)]
    return FracQSeries.from_numerators(terms, 12, prec=prec)


def eisenstein_e2k(k: int, prec: int) -> FracQSeries:
    """Weight-2k Eisenstein series 1 - (4k/B_2k) sum sigma_(2k-1)(n) q^n."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("weight parameter k must be an integer >= 2")
    factor = Fraction(-4 * k) / bernoulli(2 * k)
    sigma = divisor_sigmas(2 * k - 1, prec)
    terms = [(0, factor.denominator, 0)]
    terms += [(n, factor.numerator * sigma[n], 0) for n in range(1, prec)]
    return FracQSeries.from_numerators(terms, factor.denominator, prec=prec)


def _spec_coset(spec: ThetaSpec):
    """(level, h0): spec sums z = h0 + level*u with exponents Q(z)/level^2,
    (1, None) for the plain sum and (N, rep) on the class h."""
    return (1, None) if spec.h is None else (spec.form.level, spec.h.rep)


def theta_expand(spec: ThetaSpec, prec: int) -> FracQSeries:
    """Exact q-expansion of the theta series through q^prec (exclusive).

    Even k keeps <v,m>^k = s^(k/2) (w'Am)^k inside Q(i).  Odd k returns
    the zero series when the m -> -m cancellation applies (always for the
    plain series); an asymmetric congruence class with odd k has no exact
    Gaussian-rational expansion and is rejected.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    level, h0 = _spec_coset(spec)
    M = level * level
    series_prec = prec * M
    if spec.k % 2:
        # m -> -m maps the class h to -h; cancellation needs 2h = 0 mod N
        if h0 is None or all(2 * x % level == 0 for x in h0):
            return FracQSeries.zero(series_prec, M)
        raise ValueError("odd insertion power on an asymmetric class has no exact expansion")
    den, weights = spec.v.integral_weights(spec.form) if spec.k else (1, ())
    cells = insertion_histogram(spec.form, series_prec - 1, scale=level, h0=h0, weights=weights)
    rows, counts = cells.rows.tolist(), cells.counts.tolist()
    if spec.k == 0:
        terms = [(e, count, 0) for (e,), count in zip(rows, counts)]
        return FracQSeries.from_numerators(terms, prec=series_prec, exp_denom=M)
    pref = spec.v.s ** (spec.k // 2) * Fraction(1, (den * level) ** spec.k)
    # count * (t1 + i t2)^k in Gaussian integers per row, times pref's
    # numerator; pref's denominator is the series' one denominator
    terms = []
    for key, count in zip(rows, counts):
        t1, t2 = key[1], key[2] if len(key) > 2 else 0
        re, im = count * pref.numerator, 0
        for _ in range(spec.k):
            re, im = re * t1 - im * t2, re * t2 + im * t1
        terms.append((key[0], re, im))
    return FracQSeries.from_numerators(terms, pref.denominator, prec=series_prec, exp_denom=M)


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


def _coset_sum(form: QuadraticForm, tau: complex, tol: float, poly, M: int, unit=(), t_mod=None, **coset):
    """Sum count * P(unit . t) * exp(2 pi i tau e/M) over the rows (e, t...).

    The rows and counts are the read-only arrays of the insertion
    histogram of the slice named by coset (scale, h0, weights), cut at the
    bound radius * M that certifies tol at tau for the form's rank and the
    degree of P (_truncation_radius).  poly holds P's coefficients, lowest
    degree first; a 2-d poly holds one polynomial per column and gives one
    sum per column.  unit maps the first len(unit) weight columns, the
    real (and imaginary) part of den w'Az, to the argument of P, which is
    c0 (t1 + i t2) = <v, z>/level; it is empty when P is constant.  With
    t_mod, the last t is reduced mod t_mod, the rows are tallied again
    (_tally_cells) and each term gains the phase exp(2 pi i t/t_mod).  The
    terms are summed in one numpy sum over the rows in ascending order,
    which the histogram fixes, so the value does not depend on the order
    the walk met the vectors in, nor on the basis.
    """
    hist = insertion_histogram(form, _truncation_radius(tau.imag, len(poly) - 1, form.rank, tol) * M, **coset)
    rows, counts = hist.rows, hist.counts
    if t_mod is not None:
        rows, counts = _tally_cells([*rows[:, :-1].T, rows[:, -1] % t_mod], counts)
    terms = counts * np.exp(2j * pi * tau / M * rows[:, 0])
    if t_mod is not None:
        terms *= np.exp(2j * pi / t_mod * rows[:, -1])
    arg = rows[:, 1:1 + len(unit)] @ np.asarray(unit, dtype=complex)
    value = 0
    for c in np.asarray(poly)[::-1]:  # Horner; a column of c per polynomial
        value = value * arg + c[..., None]
    return (value * terms).sum(axis=-1)


def theta_numeric(spec: ThetaSpec, tau, tol: float) -> complex:
    """Numeric value of the theta series, truncation error below tol.

    Valid on the whole upper half-plane; the cost grows quickly as im(tau)
    drops (the certified-contract region of the harness is im >= 0.3, and
    campaign fallbacks go lower at their own expense).
    """
    level, h0 = _spec_coset(spec)
    monomial = [0] * spec.k + [1]
    return complex(_theta_sum(spec.form, spec.v, monomial, _as_complex(tau), tol, level, level, h0))


def _theta_sum(form: QuadraticForm, v, poly, tau: complex, tol: float, level: int, scale: int, h0):
    """sum over z = h0 + scale*u of P(<v, z>/level) exp(2 pi i tau Q(z)/level^2),
    truncation error below tol: one coset sum.

    P has the coefficients poly, lowest degree first; a 2-d poly gives one
    sum per column.  The monomial y^k with level = scale is theta_numeric's
    class theta (level = 1, h0 = None the plain one).  An E2-completed
    class theta, sum over t of x^t pairing_coeff(t, k) theta_(k-2t) for
    x = <v,v> E2, is one polynomial's sum (verify._completion), each power
    summed to the radius the top power needs.  The rescale law's right
    side, the c^f class thetas of cA at level cN, is the coset h + N Z^f
    of cA summed once at level cN (verify.check_rescale).
    """
    weights, unit = (), ()
    if len(poly) > 1:
        den, weights = v.integral_weights(form)
        unit = math.sqrt(v.s) / (den * level) * np.array((1, 1j)[: len(weights)])
    return _coset_sum(form, tau, tol, poly, level * level, unit, scale=scale, h0=h0, weights=weights)


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
    return complex(_theta_sum(form, None, [1], z, tol, rho, rho, h0))


def theta_dual_numeric(form: QuadraticForm, x, tau, tol: float) -> complex:
    """sum over m of exp(2 pi i tau m'A^-1 m / 2) exp(2 pi i m'x).

    The argument tau here is the already-inverted variable, so the
    inversion identity reads: theta_offset_numeric(form, x, t) equals
    theta_dual_numeric(form, x, -1/t) / ((-i t)^r sqrt(D)).  At x = h/N
    it is the inversion law's phased class sum at k = 0 (_dual_sum).
    """
    return complex(_dual_sum(form, None, [1], x, _as_complex(tau), tol))


def _dual_sum(form: QuadraticForm, v, poly, x, tau: complex, tol: float):
    """sum over y of P(sqrt(s) w'y) exp(2 pi i tau Q_adj(y)/det) exp(2 pi i y'x)
    for v = sqrt(s) w, truncation error below tol: one walk of form.dual().

    P has the coefficients poly, lowest degree first.  With m = N A^-1 y
    this is the sum over all det classes g of e(<g, h>/N^2) times the
    class theta of g with insertion P(<v, m>/N) at tau, for x = h/N:
    Q(m)/N^2 = Q_adj(y)/det, <v, m>/N = sqrt(s) w'y and <g, h>/N^2 =
    y'h/N mod 1 (verify.check_inversion_law).  Each class's bound
    radius * N^2 on Q(m) is the bound radius * det on Q_adj(y), so the
    same vectors are summed.  The weight rows are v's own integer rows
    den * w (InsertionVector.integer_rows), then, only when x is not
    integral, the short row of centred residues of rho x, whose column
    alone is folded to t mod rho: only that residue enters the phase, so
    the value depends on neither the representative of x nor the basis.
    A P of degree > 0 with x not integral keys two rows even for a real
    v; the residue row, like v's, is fibered along or carried into the
    kernel walks like any weight row (insertion_histogram).
    """
    rho, h0 = _offset_geometry(form, x)
    weights, unit = (), ()
    if len(poly) > 1:
        den, weights = v.integer_rows()
        unit = math.sqrt(v.s) / den * np.array((1, 1j)[: len(weights)])
    if rho > 1:
        weights += (tuple((t + rho // 2) % rho - rho // 2 for t in h0),)
    return _coset_sum(form.dual(), tau, tol, poly, form.det, unit, t_mod=rho if rho > 1 else None, weights=weights)


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
