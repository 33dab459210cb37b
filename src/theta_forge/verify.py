"""Numeric verification of the transformation laws.

Each check evaluates both sides of one law at concrete (gamma, tau)
data and reports the residual.  Matrices come from a seeded sampler, tau
points from a fixed grid with seeded jitter; when a sampled matrix pushes
the orbit too far down the half-plane an adapted tau near -d/c is tried,
and matrices that still fail are skipped with a note rather than silently
dropped.

The Gamma_0(N) multiplier nu(gamma, h) = e(Q(h) a b/N^2) eps(d) is
written once (_multiplier), for the congruence law, the closed-form Gauss
sum d^r nu and, at T = (1, 1; 0, 1), the translation law.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, pi
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .arith import pairing_coeff
from .lattice import (
    ENUMERATION_BUDGET,
    CongruenceClass,
    EnumerationBudgetError,
    InsertionVector,
    QuadraticForm,
    gauss_sum,
    unit_insertion_vector,
)
from .modforms import (
    ThetaSpec,
    _as_complex,
    _dual_sum,
    _theta_sum,
    eisenstein_e2_numeric,
    theta_dual_numeric,
    theta_numeric,
    theta_offset_numeric,
)

GRID_TAU = (
    complex(0.1, 1.1),
    complex(0.21, 1.3),
    complex(-0.37, 0.8),
    complex(0.4, 0.9),
)

_UNIT_I = (1 + 0j, 1j, -1 + 0j, -1j)


def _minus_i_pow(n: int) -> complex:
    # (-i)^n without float pow noise
    return _UNIT_I[(-n) % 4]


def _phase(frac: Fraction) -> complex:
    return cmath.exp(2j * pi * float(frac % 1))


@dataclass(frozen=True)
class Gamma0Matrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    def act(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def jfactor(self, tau: complex) -> complex:
        return self.c * tau + self.d

    def as_list(self):
        return [self.a, self.b, self.c, self.d]


def _multiplier(form: QuadraticForm, gamma: Gamma0Matrix, h: CongruenceClass) -> complex:
    """nu(gamma, h) = e(Q(h) a b/N^2) eps(d), the Gamma_0(N) multiplier of
    the class theta of h."""
    qh = int(form.q_value(h.rep))
    return _phase(Fraction(qh * gamma.a * gamma.b, form.level ** 2)) * form.character(gamma.d)


def _require_gamma0(form: QuadraticForm, gamma: Gamma0Matrix) -> None:
    if gamma.c <= 0 or gamma.d <= 0:
        raise ValueError("harness requires c > 0 and d > 0")
    if gamma.c % form.level:
        raise ValueError("matrix is not in Gamma_0(level)")


@dataclass(frozen=True)
class LawReport:
    law: str
    inputs: dict
    residual: float
    tol: float
    passed: bool

    @classmethod
    def make(cls, law: str, inputs: dict, residual: float, tol: float) -> "LawReport":
        return cls(law, inputs, float(residual), float(tol), bool(residual < tol))

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "inputs": self.inputs,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


def sample_gamma0(N: int, count: int, seed: int):
    """Deterministic distinct Gamma_0(N) matrices, c = N t and d coprime,
    both positive; a and b come from inverting d modulo c."""
    rng = random.Random(seed)
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < 400 * count:
        attempts += 1
        t = rng.randint(1, 10)
        d = rng.randint(1, 50)
        c = N * t
        if gcd(c, d) != 1 or (c, d) in seen:
            continue
        seen.add((c, d))
        a = pow(d, -1, c) if c > 1 else 0
        b = (a * d - 1) // c
        out.append(Gamma0Matrix(a, b, c, d))
    return out


# How each law input is written into a report's JSON; inputs not named
# here (k, c, x_prec) are plain ints and pass through.
_INPUT_JSON = {
    "form": lambda form: {"rank": form.rank, "det": form.det, "level": form.level},
    "h": lambda h: list(h.rep),
    "v": lambda v: None if v is None else {"w": [str(c) for c in v.w], "s": str(v.s)},
    "gamma": Gamma0Matrix.as_list,
    "tau": lambda z: [z.real, z.imag],
    "x": lambda x: [str(Fraction(c)) for c in x],
}


def _report(law: str, residual: float, tol: float, **inputs) -> LawReport:
    encoded = {
        name: _INPUT_JSON[name](value) if name in _INPUT_JSON else value
        for name, value in inputs.items()
    }
    return LawReport.make(law, encoded, residual, tol)


def _completion(form: QuadraticForm, v: Optional[InsertionVector], k: int, e2) -> list:
    """Coefficients, lowest degree first, of sum over t of x^t
    pairing_coeff(t, k) y^(k-2t), x = <v,v> e2 for the law's E2 term e2:
    the insertion polynomial whose theta is the completed theta of index
    k, for every v (the plain series, v = None, at k = 0 only)."""
    if v is None and k:
        raise ValueError("insertion power k > 0 requires a vector v")
    x = complex(v.norm(form)) * e2 if k else 0j
    poly = [0j] * (k + 1)
    for t in range(k // 2 + 1):
        poly[k - 2 * t] = x ** t * float(pairing_coeff(t, k))
    return poly


def check_generating_modularity(
    form: QuadraticForm,
    v: InsertionVector,
    gamma: Gamma0Matrix,
    tau,
    x_prec: int,
    tol: float,
) -> LawReport:
    """Both sides of the generating-series law, coefficient-wise in Y.

    LHS: Y^n coefficient of the series at (gamma tau, X/(c tau+d)^2).
    RHS: eps(d) (c tau+d)^r exp(c <v,v> X/(c tau+d)) times the series at
    tau, whose Y^n coefficient is 2^n/(2n)! times the completed theta_2n
    at tau: the congruence law at h = 0, k = 2n.
    """
    if v is None:
        raise ValueError("the generating law needs an insertion vector")
    if x_prec < 1:
        raise ValueError("x_prec must be >= 1")
    z = _as_complex(tau)
    gz = gamma.act(z)
    j = gamma.jfactor(z)
    inner = tol * 1e-3
    # each side is one sum whose columns are the even monomials at gamma
    # tau, the completions at tau; the lower point needs the larger radius,
    # and summed first, its histogram (kept by the form) serves the other
    completed = np.zeros((2 * x_prec - 1, x_prec), dtype=complex)
    for n in range(x_prec):
        completed[: 2 * n + 1, n] = _completion(form, v, 2 * n, gamma.c / (2j * pi * j))
    sides = ((np.eye(2 * x_prec - 1)[:, ::2], gz), (completed, z))
    theta = {i: _theta_sum(form, v, *sides[i], inner, 1, 1, None) for i in sorted((0, 1), key=lambda i: sides[i][1].imag)}
    factor = form.character(gamma.d) * j ** form.half_rank
    residual = max(
        2 ** n / math.factorial(2 * n) * abs(theta[0][n] / j ** (2 * n) - factor * theta[1][n]) for n in range(x_prec)
    )
    return _report("generating", residual, tol, form=form, v=v, gamma=gamma, tau=z, x_prec=x_prec)


def check_e2_quasimodularity(gamma: Gamma0Matrix, tau, tol: float) -> LawReport:
    """E2 at gamma tau against (c tau+d)^2 E2(tau) - c(c tau+d)/(2 pi i)."""
    z = _as_complex(tau)
    j = gamma.jfactor(z)
    lhs = eisenstein_e2_numeric(gamma.act(z))
    rhs = j * j * eisenstein_e2_numeric(z) - gamma.c * j / (2j * pi)
    return _report("e2", abs(lhs - rhs), tol, gamma=gamma, tau=z)


def check_inversion_law(
    form: QuadraticForm,
    h: CongruenceClass,
    v: Optional[InsertionVector],
    k: int,
    tau,
    tol: float,
) -> LawReport:
    """Congruence theta at -1/tau against the completed class sums.

    The right side is sum over all det classes g of e(<g, h>/N^2) times
    the completed class theta of g at tau.  The classes tile
    N A^-1 Z^f, on which the phase is the character e(y'h/N) of y, so the
    class sum is one dual sum of the completion polynomial,
    _dual_sum(form, v, poly, h/N, tau), walked once for every class and
    every power.
    """
    if k > 8:
        raise ValueError("insertion powers above 8 are outside the harness contract")
    z = _as_complex(tau)
    inner = tol * 1e-3
    lhs = theta_numeric(ThetaSpec(form, v, k, h), -1 / z, inner)
    x = tuple(Fraction(c, form.level) for c in h.rep)
    rhs = _dual_sum(form, v, _completion(form, v, k, 1 / (2j * pi * z)), x, z, inner)
    rhs *= _minus_i_pow(form.half_rank + 2 * k) * z ** (form.half_rank + k) / math.sqrt(form.det)
    return _report("inversion", abs(lhs - rhs), tol, form=form, h=h, v=v, k=k, tau=z)


def check_congruence_modularity(
    form: QuadraticForm,
    h: CongruenceClass,
    v: Optional[InsertionVector],
    k: int,
    gamma: Gamma0Matrix,
    tau,
    tol: float,
) -> LawReport:
    """The Gamma_0(N) law for congruence thetas, c > 0 and d > 0 only.

    The class on the right is a*h: the derivation reaches the law through
    a change of matrix variables, and the class subscript transforms with
    the rest of the formula.  b*h fails numerically, e.g. at the matrix
    (1, 6; 6, 37) on the rank-two form of determinant three.
    """
    _require_gamma0(form, gamma)
    z = _as_complex(tau)
    inner = tol * 1e-3
    N = form.level
    j = gamma.jfactor(z)
    lhs = j ** (-(form.half_rank + k)) * theta_numeric(
        ThetaSpec(form, v, k, h), gamma.act(z), inner
    )
    ah = CongruenceClass(form, tuple(gamma.a * x for x in h.rep))
    rhs = _theta_sum(form, v, _completion(form, v, k, gamma.c / (2j * pi * j)), z, inner, N, N, ah.rep)
    rhs *= _multiplier(form, gamma, h)
    return _report(
        "congruence", abs(lhs - rhs), tol, form=form, h=h, v=v, k=k, gamma=gamma, tau=z
    )


def check_translation(
    form: QuadraticForm,
    h: CongruenceClass,
    v: Optional[InsertionVector],
    k: int,
    tau,
    tol: float,
) -> LawReport:
    """theta at tau + 1 equals exp(2 pi i Q(h)/N^2) theta at tau: the
    multiplier at T = (1, 1; 0, 1)."""
    z = _as_complex(tau)
    inner = tol * 1e-3
    spec = ThetaSpec(form, v, k, h)
    lhs = theta_numeric(spec, z + 1, inner)
    rhs = _multiplier(form, Gamma0Matrix(1, 1, 0, 1), h) * theta_numeric(spec, z, inner)
    return _report("translation", abs(lhs - rhs), tol, form=form, h=h, v=v, k=k, tau=z)


def check_rescale(
    form: QuadraticForm,
    h: CongruenceClass,
    v: Optional[InsertionVector],
    k: int,
    c: int,
    tau,
    tol: float,
) -> LawReport:
    """theta for A at tau against the sum of c^f class thetas for cA at c tau.

    cA has level cN (r (cA)^-1 = (r/c) A^-1 is integral with even diagonal
    exactly when r/c is a multiple of N, as A (r/c) A^-1 = (r/c) I is then
    integral), so the classes h + N w, w in [0, c)^f, of cA are the fine
    slices of the coset h + N Z^f.  Their thetas share the exponents
    e/(cN)^2, the prefactor 1/(cN)^k and the weight rows of cA, and enter
    the sum with equal weight, so the right side is that coset's sum at
    level cN, walked and summed once to the bound each class's tolerance
    tol/c^f certifies.  It is summed first, so a coset past the budget is
    refused by the walk's own guards (EnumerationBudgetError) before
    either side walks or allocates.

    After that rewrite the two sides are the same terms: <v, z> under cA
    over cN is <v, z> under A over N, and c tau Q_cA(z)/(cN)^2 is
    tau Q_A(z)/N^2, so each side is the sum over z in h + N Z^f of
    P(<v, z>/N) e(tau Q(z)/N^2).  The check therefore compares the walk
    of cA (its own reduced basis, fibers and truncation at tol/c^f)
    against the walk of A (truncated at tol), not two different series.
    cA is the form's kept scaled(c), so later checks at the same c reuse
    its reduction, fibers and histograms.
    """
    if c <= 0:
        raise ValueError("rescale factor c must be positive")
    spec = ThetaSpec(form, v, k, h)
    z = _as_complex(tau)
    inner = tol * 1e-3
    scaled = form.scaled(c)
    rhs = _theta_sum(scaled, v, [0] * k + [1], c * z, inner / c ** form.rank, c * form.level, form.level, h.rep)
    lhs = theta_numeric(spec, z, inner)
    return _report("rescale", abs(lhs - rhs), tol, form=form, h=h, v=v, k=k, c=c, tau=z)


def check_cusp_expansion(
    form: QuadraticForm,
    v: InsertionVector,
    k: int,
    gamma: Gamma0Matrix,
    tau,
    tol: float,
) -> LawReport:
    """Expansion of the completed series at the cusp -d/c.

    LHS: (c tau+d)^-(r+k) times the completed series at gamma tau.
    RHS: the Gauss-sum-weighted class thetas at tau, E2 factors at tau.
    Both completions take x = <v,v> E2 (_completion): any v, or none at k = 0.
    """
    if gamma.c <= 0:
        raise ValueError("cusp expansion requires c > 0")
    if k % 2 or k < 0:
        raise ValueError("the completed series needs an even index k >= 0")
    z = _as_complex(tau)
    inner = tol * 1e-3
    gz = gamma.act(z)
    j = gamma.jfactor(z)
    r = form.half_rank
    lhs = _theta_sum(form, v, _completion(form, v, k, eisenstein_e2_numeric(gz)), gz, inner, 1, 1, None)
    lhs *= j ** (-(r + k))
    poly = _completion(form, v, k, eisenstein_e2_numeric(z))
    zero = CongruenceClass.zero(form)
    rhs = 0j
    for q in form.congruence_classes():
        phi = gauss_sum(form, gamma.a, gamma.d, gamma.c, zero, q)
        if phi == 0:  # exactly: gauss_sum returns 0j for a vanishing sum
            continue
        rhs += phi * _theta_sum(form, v, poly, z, inner, form.level, form.level, q.rep)
    rhs *= _minus_i_pow(r + 2 * k) / (gamma.c ** r * math.sqrt(form.det))
    return _report("cusp", abs(lhs - rhs), tol, form=form, v=v, k=k, gamma=gamma, tau=z)


def check_poisson_inversion(form: QuadraticForm, x, tau, tol: float) -> LawReport:
    """Offset theta against its dual sum: the lattice Poisson summation."""
    z = _as_complex(tau)
    inner = tol * 1e-3
    lhs = theta_offset_numeric(form, x, z, inner)
    pref = (-1j * z) ** form.half_rank * math.sqrt(form.det)
    rhs = theta_dual_numeric(form, x, -1 / z, inner) / pref
    return _report("poisson", abs(lhs - rhs), tol, form=form, x=x, tau=z)


def check_gauss_orthogonality(form: QuadraticForm, gamma: Gamma0Matrix, tol: float) -> LawReport:
    """sum over classes q of exp(2 pi i (g-bh)'Aq/N^2) = D delta_{g,bh},
    over all class pairs (h, g) for the sampled matrix's b.

    The residues <h, q> mod N^2 of every class pair come from one integer
    Gram product, and each q-sum is a row product of their phase matrix.
    The det^2 residues and det^3 products are refused with ValueError
    above ENUMERATION_BUDGET, before anything is allocated.
    """
    N, det = form.level, form.det
    if det ** 3 > ENUMERATION_BUDGET:  # det^3 >= det^2: one test covers both
        raise ValueError(f"{det}^3 class-pair products exceed budget {ENUMERATION_BUDGET:.2e}")
    M = N * N
    classes = form.congruence_classes()
    H = np.array([h.rep for h in classes], dtype=np.int64)
    A = np.array([[x % M for x in row] for row in form.gram], dtype=np.int64)
    pair = (H @ A % M) @ H.T % M  # <h, q> mod N^2; N <= 2 det keeps int64 exact
    phases = np.exp(2j * pi * pair / M)
    shifted = np.exp(-2j * pi * ((gamma.b % M) * pair % M) / M)
    total = shifted @ phases  # [h, g]: sum over q of e((<g, q> - b <h, q>) / N^2)
    index = {h.rep: i for i, h in enumerate(classes)}
    expect = np.zeros((det, det))
    for i, h in enumerate(classes):
        expect[i, index[tuple(gamma.b * x % N for x in h.rep)]] = det
    residual = float(np.abs(total - expect).max())
    return _report("gauss_orthogonality", residual, tol, form=form, gamma=gamma)


def check_gauss_closed_form(
    form: QuadraticForm, gamma: Gamma0Matrix, h: CongruenceClass, tol: float
) -> LawReport:
    """The Gauss sum of the congruence law's proof against its closed form.

    gauss_sum with the slots (b, -c, d) of the sampled matrix evaluates
    sum over g = h mod N, g mod dN of e(b Q(g) / dN^2), and the paper
    gives it for the whole lattice as d^r nu(gamma, h) =
    d^r e(Q(h) ab/N^2) eps(d), r = rank/2, eps(d) = ((-1)^r det / d), the
    multiplier of _multiplier.  gauss_sum multiplies local closed forms,
    one per Jordan block over Z_p, so the residual checks the global
    formula against the local ones.
    """
    _require_gamma0(form, gamma)
    zero = (0,) * form.rank
    phi = gauss_sum(form, gamma.b, -gamma.c, gamma.d, h, zero)
    expect = gamma.d ** form.half_rank * _multiplier(form, gamma, h)
    return _report("gauss_closed_form", abs(phi - expect), tol, form=form, gamma=gamma, h=h)


def _pick_tau(gamma: Gamma0Matrix, rng: random.Random, min_im: float):
    """A tau with im(tau) and im(gamma tau) both above min_im, or None.

    Grid points work for small c; otherwise an adapted point near the
    pole -d/c at height 1/c is tried.  im(gamma tau) <= 1/(c^2 im tau)
    caps what is achievable, hence the skip path for large c.
    """
    grid = list(GRID_TAU)
    rng.shuffle(grid)
    for g in grid:
        cand = g + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        if cand.imag >= min_im and gamma.act(cand).imag >= min_im:
            return cand
    if gamma.c > 0:
        for _ in range(8):
            delta = rng.uniform(-0.2, 0.2) / gamma.c
            cand = complex(-gamma.d / gamma.c + delta, 1.0 / gamma.c)
            if cand.imag >= min_im and gamma.act(cand).imag >= min_im:
                return cand
    return None


def _grid_tau(rng: random.Random, min_im: float) -> complex:
    g = rng.choice(GRID_TAU)
    cand = g + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    return cand if cand.imag >= min_im else complex(cand.real, min_im + 0.5)


def _offset(rng: random.Random, rank: int):
    den = rng.choice((2, 3, 5, 7))
    return tuple(Fraction(rng.randrange(den), den) for _ in range(rank))


class _Law(NamedTuple):
    gamma: bool  # draws a Gamma_0(N) matrix from the pool
    cap: Optional[str]  # "c" or "d": the matrix entry e whose e^rank Gauss sum is capped
    tau: Optional[str]  # "orbit" (_pick_tau), "grid" (_grid_tau) or None
    powers: tuple  # insertion powers cycled over the checks; () keeps the campaign k
    drive: Callable  # (settings, gamma, h, k, tau) -> LawReport


# Drivers look each check up by its module name at call time, and call
# tau() only after their own draws (the rescale factor, the Poisson
# offset), which keeps the seeded draw order.
_LAWS = {
    "generating": _Law(True, None, "orbit", (), lambda s, g, h, k, tau:
        check_generating_modularity(s.form, s.v, g, tau(), s.x_prec, s.tol)),
    "e2": _Law(True, None, "orbit", (), lambda s, g, h, k, tau:
        check_e2_quasimodularity(g, tau(), s.tol)),
    "inversion": _Law(False, None, "grid", (0, 2, 4), lambda s, g, h, k, tau:
        check_inversion_law(s.form, h, s.v, k, tau(), s.tol)),
    "congruence": _Law(True, None, "orbit", (0, 2, 4), lambda s, g, h, k, tau:
        check_congruence_modularity(s.form, h, s.v, k, g, tau(), s.tol)),
    "translation": _Law(False, None, "grid", (0, 2, 4), lambda s, g, h, k, tau:
        check_translation(s.form, h, s.v, k, tau(), s.tol)),
    "rescale": _Law(False, None, "grid", (0, 2), lambda s, g, h, k, tau:
        check_rescale(s.form, h, s.v, k, s.rng.choice((2, 3)), tau(), s.tol)),
    "cusp": _Law(True, "c", "orbit", (), lambda s, g, h, k, tau:
        check_cusp_expansion(s.form, s.v, k, g, tau(), s.tol)),
    "poisson": _Law(False, None, "grid", (), lambda s, g, h, k, tau:
        check_poisson_inversion(s.form, _offset(s.rng, s.form.rank), tau(), s.tol)),
    "gauss_orthogonality": _Law(True, None, None, (), lambda s, g, h, k, tau:
        check_gauss_orthogonality(s.form, g, s.tol)),
    "gauss_closed_form": _Law(True, "d", None, (), lambda s, g, h, k, tau:
        check_gauss_closed_form(s.form, g, h, s.tol)),
}
LAW_IDS = tuple(_LAWS)
# No Gauss sum is costly: gauss_sum takes one closed form per Jordan
# block, whatever c^rank.  The cap stays only because its test runs
# before _pick_tau draws from the campaign rng, so deleting it moves every
# later draw, and because the benchmark's tests (perfbench/tests) pin the
# "Gauss sum too large" notes it gives on E8.
_GAUSS_SUM_CAP = 1_000_000


def run_campaign(
    form: QuadraticForm,
    laws,
    count: int,
    seed: int,
    tol: float = 1e-8,
    *,
    v: Optional[InsertionVector] = None,
    k: int = 2,
    x_prec: int = 4,
):
    """Run `count` checks of each requested law; returns (reports, notes).

    Deterministic for a fixed seed.  Matrices whose orbit cannot reach
    the working height, Gauss sums too large to evaluate and checks
    refused with ValueError or EnumerationBudgetError are recorded in the
    notes instead of producing reports; each law makes at most
    4 count + 10 attempts, whether or not it draws a matrix.  `v` defaults to
    unit_insertion_vector(form).  An unknown law, count < 1, tol <= 0,
    k < 0 or x_prec < 1 raises ValueError before any check runs.
    """
    unknown = [law for law in laws if law not in _LAWS]
    if unknown:
        raise ValueError(f"unknown laws: {', '.join(unknown)}; known: {', '.join(LAW_IDS)}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    if x_prec < 1:
        raise ValueError("x_prec must be >= 1")
    rng = random.Random(seed)
    if v is None:
        v = unit_insertion_vector(form)
    settings = SimpleNamespace(form=form, v=v, x_prec=x_prec, tol=tol, rng=rng)
    classes = form.congruence_classes()
    nonzero = next((c for c in classes if any(c.rep)), None)
    h_cycle = [CongruenceClass.zero(form)] + ([nonzero] if nonzero else [])
    min_im = 0.05 if form.rank <= 4 else 0.35
    attempts = 4 * count + 10
    matrices = sample_gamma0(form.level, attempts, seed)
    reports = []
    notes = []
    for law in laws:
        row = _LAWS[law]
        done = tried = 0
        mats = iter(matrices)
        while done < count:
            gamma = next(mats, None) if row.gamma else None
            if row.gamma and gamma is None:
                notes.append(f"{law}: matrix pool exhausted at {done}/{count}")
                break
            if tried == attempts:  # each failed attempt left a note
                break
            tried += 1
            if row.cap == "c" and gamma.c ** form.rank > _GAUSS_SUM_CAP:
                notes.append(f"{law}: skipped c={gamma.c} (Gauss sum too large)")
                continue
            if row.cap == "d" and gamma.d ** form.rank > _GAUSS_SUM_CAP:
                notes.append(f"{law}: skipped d={gamma.d} (Gauss sum too large)")
                continue
            tau = None
            if row.tau == "orbit":
                z = _pick_tau(gamma, rng, min_im)
                if z is None:
                    notes.append(f"{law}: skipped c={gamma.c} (no usable tau)")
                    continue
                tau = lambda: z
            elif row.tau == "grid":
                tau = partial(_grid_tau, rng, min_im)
            h = h_cycle[done % len(h_cycle)]
            kk = row.powers[done % len(row.powers)] if row.powers else k
            try:
                reports.append(row.drive(settings, gamma, h, kk, tau))
            except (ValueError, EnumerationBudgetError) as exc:
                notes.append(f"{law}: skipped ({exc})")
                continue
            done += 1
    return reports, notes
