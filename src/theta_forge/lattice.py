"""Even positive-definite forms and exact lattice-point bookkeeping.

The enumeration engine walks integer vectors z = h0 + scale*u with
Q(z) <= bound by completing squares against an exact LDL factorization.
Pruning runs in floating point with an inflated bound; membership and the
exponent of every surviving vector are settled exactly afterwards, so the
histograms feeding the series expansions carry no rounding.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from math import lcm, pi

import numpy as np

from .arith import GaussianRational, kronecker_symbol


class InvalidFormError(ValueError):
    """Gram matrix rejected; .code names the first failed requirement."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class EnumerationBudgetError(RuntimeError):
    """Estimated lattice-point count (or Gauss-sum size) exceeds ENUMERATION_BUDGET."""


def _ldl_exact(gram):
    """A = L D L' over Q with unit lower-triangular L; raises unless A > 0."""
    f = len(gram)
    L = [[Fraction(int(i == j)) for j in range(f)] for i in range(f)]
    d = []
    for j in range(f):
        dj = Fraction(gram[j][j]) - sum(
            (L[j][k] * L[j][k]) * d[k] for k in range(j)
        )
        if dj <= 0:
            raise InvalidFormError(
                "not-positive-definite",
                f"pivot {j} of the LDL factorization is {dj}",
            )
        d.append(dj)
        for i in range(j + 1, f):
            L[i][j] = (
                Fraction(gram[i][j])
                - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            ) / dj
    return L, d


def _inverse_exact(gram):
    f = len(gram)
    aug = [
        [Fraction(gram[i][j]) for j in range(f)]
        + [Fraction(int(i == j)) for j in range(f)]
        for i in range(f)
    ]
    for col in range(f):
        piv = next(r for r in range(col, f) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(f):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[f:]) for row in aug)


class QuadraticForm:
    """Positive-definite integral Gram matrix with even diagonal, even rank.

    Q(x) = x'Ax/2 and <x,y> = x'Ay throughout.  Rejections carry an error
    code so callers can distinguish a typo from a genuinely unsupported
    matrix.
    """

    __slots__ = ("gram", "rank", "det", "level", "inverse_gram", "_ldl", "_cells", "_dual")

    def __init__(self, gram):
        rows = [tuple(row) for row in gram]
        f = len(rows)
        if f == 0 or any(len(r) != f for r in rows):
            raise InvalidFormError("not-square", "Gram matrix must be square and non-empty")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidFormError("not-integer", f"entry {x!r} is not an integer")
        for i in range(f):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidFormError("not-symmetric", f"entries ({i},{j}) and ({j},{i}) differ")
        for i in range(f):
            if rows[i][i] % 2:
                raise InvalidFormError("odd-diagonal", f"diagonal entry {rows[i][i]} at ({i},{i}) is odd")
        if f % 2:
            raise InvalidFormError("odd-rank", f"rank {f} is odd; only even rank is supported")
        self.gram = tuple(rows)
        self.rank = f
        self._ldl = _ldl_exact(rows)
        det = Fraction(1)
        for dj in self._ldl[1]:
            det *= dj
        self.det = int(det)
        self.inverse_gram = _inverse_exact(rows)
        n0 = 1
        for row in self.inverse_gram:
            for x in row:
                n0 = lcm(n0, x.denominator)
        if any((n0 * self.inverse_gram[i][i]) % 2 for i in range(f)):
            n0 *= 2
        self.level = n0
        # insertion histograms built for this form: (scale, h0, weights) -> (bound, cells)
        self._cells = {}
        self._dual = None

    @property
    def half_rank(self) -> int:
        return self.rank // 2

    def _gram_times(self, x):
        """A x as a tuple: the one Gram product behind every exact pairing."""
        if len(x) != self.rank:
            raise ValueError(f"vector of length {len(x)} for a rank-{self.rank} form")
        return tuple(sum(a * xj for a, xj in zip(row, x)) for row in self.gram)

    def q_value(self, x):
        """Q(x) = x'Ax/2, exact; integer vectors give an integer."""
        acc = Fraction(self.bilinear(x, x), 2)
        return int(acc) if acc.denominator == 1 else acc

    def bilinear(self, x, y):
        """<x,y> = x'Ay; exact for rational input."""
        return sum(xi * ay for xi, ay in zip(x, self._gram_times(y)))

    def character(self, n: int) -> int:
        disc = self.det if self.half_rank % 2 == 0 else -self.det
        return kronecker_symbol(disc, n)

    def dual(self) -> "QuadraticForm":
        """Form on the adjugate matrix det(A) * A^-1; always integral and even.

        Built once per form, so the dual sums keep their histograms too.
        """
        if self._dual is None:
            self._dual = QuadraticForm(
                [[int(self.det * x) for x in row] for row in self.inverse_gram]
            )
        return self._dual

    def congruence_classes(self):
        """All classes h mod N with A h = 0 mod N; exactly det(A) of them."""
        N = self.level
        out = []
        for h in product(range(N), repeat=self.rank):
            if not any(x % N for x in self._gram_times(h)):
                out.append(CongruenceClass(self, h))
        if len(out) != self.det:
            raise ArithmeticError(f"found {len(out)} classes mod {N}, expected det = {self.det}")
        return out

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"QuadraticForm(rank={self.rank}, det={self.det}, level={self.level})"


class CongruenceClass:
    """A residue h mod N with A h = 0 mod N for a fixed form."""

    __slots__ = ("form", "rep")

    def __init__(self, form: QuadraticForm, rep):
        N = form.level
        rep = tuple(int(x) % N for x in rep)
        if len(rep) != form.rank:
            raise ValueError("representative has the wrong length")
        if any(x % N for x in form._gram_times(rep)):
            raise ValueError(f"A h is not 0 mod {N} for h = {rep}")
        self.form = form
        self.rep = rep

    @classmethod
    def zero(cls, form: QuadraticForm) -> "CongruenceClass":
        return cls(form, (0,) * form.rank)

    def __eq__(self, other):
        if not isinstance(other, CongruenceClass):
            return NotImplemented
        return self.form == other.form and self.rep == other.rep

    def __hash__(self):
        return hash((self.form, self.rep))

    def __repr__(self):
        return f"CongruenceClass({self.rep} mod {self.form.level})"


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x))


class InsertionVector:
    """v = sqrt(s) * w with s a positive rational and w a Q(i)-vector.

    Even powers of <v,m> stay in Q(i): <v,m>^(2n) = s^n (w'Am)^(2n), which
    is what keeps the inserted series exact.  Components of w may be
    complex; isotropic directions such as (1, i) on a diagonal form arise
    that way.
    """

    __slots__ = ("w", "s", "_den", "_re", "_im")

    def __init__(self, w, s=1):
        self.w = tuple(_as_gaussian(x) for x in w)
        self.s = Fraction(s)
        if self.s <= 0:
            raise ValueError("scaling s must be positive")
        # den * w = re + i im with integer vectors, so Gram products stay in Z
        self._den = lcm(1, *(d for x in self.w for d in (x.re.denominator, x.im.denominator)))
        self._re = tuple(int(self._den * x.re) for x in self.w)
        self._im = tuple(int(self._den * x.im) for x in self.w)

    @classmethod
    def from_root(cls, root) -> "InsertionVector":
        # a root has Q = 1; dividing by sqrt(2) lands on <v,v> = 1
        return cls(tuple(int(x) for x in root), Fraction(1, 2))

    def norm(self, form: QuadraticForm) -> GaussianRational:
        """<v,v> = s * w'Aw (bilinear, no conjugation)."""
        re, im = self._re, self._im
        scale = self.s / self._den ** 2
        return GaussianRational(
            scale * (form.bilinear(re, re) - form.bilinear(im, im)),
            scale * 2 * form.bilinear(re, im),
        )

    def is_unit(self, form) -> bool:
        return self.norm(form) == GaussianRational(1)

    def is_null(self, form) -> bool:
        return not self.norm(form)

    def integral_weights(self, form: QuadraticForm):
        """(den, weight rows) with weight_i . m = den * component_i of w'Am.

        One row when w'A is real, two (real then imaginary part) otherwise.
        """
        ar, ai = form._gram_times(self._re), form._gram_times(self._im)
        g = math.gcd(self._den, *ar, *ai)
        re_row = tuple(x // g for x in ar)
        im_row = tuple(x // g for x in ai)
        if any(im_row):
            return self._den // g, (re_row, im_row)
        return self._den // g, (re_row,)

    def __eq__(self, other):
        if not isinstance(other, InsertionVector):
            return NotImplemented
        return self.w == other.w and self.s == other.s

    def __hash__(self):
        return hash((self.w, self.s))

    def __repr__(self):
        return f"InsertionVector(w={list(map(str, self.w))}, s={self.s})"


def _leaf_estimate(form: QuadraticForm, bound: int, scale: int) -> float:
    # ellipsoid volume for z'Az <= 2(bound+1), shrunk to the u-lattice
    f = form.rank
    return (
        pi ** (f / 2) / math.gamma(f / 2 + 1)
        * (2.0 * (bound + 1)) ** (f / 2)
        / (math.sqrt(form.det) * scale ** f)
    )


ENUMERATION_BUDGET = 60_000_000
_FRONTIER_CHUNK = 150_000  # rows per frontier block pushed back on the stack


def _leaf_chunks(form: QuadraticForm, bound: int, scale: int, h0):
    """Yield (Z, e) blocks: integer vectors z = h0 + scale*u with Q(z) = e <= bound.

    Breadth-first over coordinates f-1 .. 0, float pruning against an
    inflated bound, exact integer exponents at the leaves.
    """
    f = form.rank
    L, d = form._ldl
    Lf = np.array([[float(x) for x in row] for row in L])
    df = np.array([float(x) for x in d])
    margin = 1e-6 * (1.0 + bound)
    bf = bound + margin
    h0 = np.array(h0, dtype=np.int64)

    stack = [(np.zeros((1, f), dtype=np.int64), np.zeros(1), 0)]
    while stack:
        Z, S, depth = stack.pop()
        j = f - 1 - depth
        if depth:
            dot = Z[:, j + 1:].astype(np.float64) @ Lf[j + 1:, j]
        else:
            dot = np.zeros(len(Z))
        rad = np.sqrt(np.maximum(0.0, 2.0 * (bf - S) / df[j]))
        lo = np.ceil((-dot - rad - h0[j]) / scale - 1e-9).astype(np.int64)
        hi = np.floor((-dot + rad - h0[j]) / scale + 1e-9).astype(np.int64)
        counts = np.maximum(0, hi - lo + 1)
        total = int(counts.sum())
        if total == 0:
            continue
        rep = np.repeat(np.arange(len(Z)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        offs = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        u = lo[rep] + offs
        zj = h0[j] + scale * u
        Z2 = Z[rep]
        Z2[:, j] = zj
        y = zj + dot[rep]
        S2 = S[rep] + 0.5 * df[j] * y * y
        keep = S2 <= bf
        Z2, S2 = Z2[keep], S2[keep]
        if len(Z2) == 0:
            continue
        if depth + 1 == f:
            e = np.rint(S2).astype(np.int64)
            drift = float(np.abs(S2 - e).max())
            if not drift < 1e-2:
                raise ArithmeticError(f"leaf exponent is {drift:.2e} off an integer")
            inside = e <= bound
            if inside.any():
                yield Z2[inside], e[inside]
        else:
            for i in range(0, len(Z2), _FRONTIER_CHUNK):
                stack.append((Z2[i:i + _FRONTIER_CHUNK], S2[i:i + _FRONTIER_CHUNK], depth + 1))


def insertion_histogram(form: QuadraticForm, bound: int, *, scale: int = 1, h0=None, weights=()):
    """Histogram of lattice vectors z = h0 + scale*u with Q(z) <= bound.

    Keys are (e, t_1, ..., t_m) with e = Q(z) and t_i = weight_i . z, all
    exact integers; values count the vectors landing in the cell.  The form
    keeps every histogram it builds, keyed by (scale, h0, weights); a kept
    histogram of the same slice with at least this bound serves the call
    when it has the same weights or none are asked for.  Enumerations
    estimated above ENUMERATION_BUDGET points raise EnumerationBudgetError.
    """
    if h0 is None:
        h0 = (0,) * form.rank
    h0 = tuple(int(x) for x in h0)
    weights = tuple(tuple(int(x) for x in wrow) for wrow in weights)
    width = 1 + len(weights)
    for (s2, h2, w2), (b2, cells2) in form._cells.items():
        if (s2, h2) == (scale, h0) and b2 >= bound and (w2 == weights or not weights):
            out: dict = {}
            for k2, c2 in cells2.items():
                if k2[0] <= bound:
                    out[k2[:width]] = out.get(k2[:width], 0) + c2
            return out
    est = _leaf_estimate(form, bound, scale)
    if est > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"estimated {est:.2e} lattice points exceeds budget {ENUMERATION_BUDGET:.2e}"
        )
    wmat = (
        np.array(weights, dtype=np.int64).T
        if weights
        else np.zeros((form.rank, 0), dtype=np.int64)
    )
    cells: dict = {}
    for Z, e in _leaf_chunks(form, bound, scale, h0):
        ts = Z @ wmat if weights else None
        _accumulate_cells(cells, e, ts)
    form._cells[(scale, h0, weights)] = (bound, cells)
    return dict(cells)


def _accumulate_cells(cells: dict, e, ts):
    """Fold one leaf block into the histogram via composite-code bincount."""
    if ts is None:
        cols = [e]
    else:
        cols = [e] + [ts[:, i] for i in range(ts.shape[1])]
    lows = [int(c.min()) for c in cols]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
    space = 1
    for s in spans:
        space *= s
    if space > 50_000_000:
        stacked = np.column_stack(cols)
        uniq, counts = np.unique(stacked, axis=0, return_counts=True)
        for row, c in zip(uniq, counts):
            k = tuple(int(x) for x in row)
            cells[k] = cells.get(k, 0) + int(c)
        return
    codes = np.zeros_like(cols[0])
    for col, lo, span in zip(cols, lows, spans):
        codes = codes * span + (col - lo)
    binc = np.bincount(codes, minlength=space)
    for code in np.nonzero(binc)[0]:
        k = []
        rem = int(code)
        for span in reversed(spans):
            k.append(rem % span)
            rem //= span
        k = tuple(x + lo for x, lo in zip(reversed(k), lows))
        cells[k] = cells.get(k, 0) + int(binc[code])


def _sorted_walk(form: QuadraticForm, bound: int, scale: int, h0):
    """(z, Q(z)) for every z = h0 + scale*u with Q(z) <= bound, sorted by z."""
    out = []
    for Z, e in _leaf_chunks(form, bound, scale, h0):
        out.extend(zip(map(tuple, Z.tolist()), e.tolist()))
    out.sort()
    return out


def enumerate_upto(form: QuadraticForm, bound: int):
    """All integer vectors with Q(m) <= bound, lexicographically sorted."""
    return [m for m, _ in _sorted_walk(form, bound, 1, (0,) * form.rank)]


def enumerate_congruence(form: QuadraticForm, h, bound):
    """Vectors m = h mod N with Q(m)/N^2 <= bound, lexicographically sorted.

    The bound is in the exponent units of the congruence theta series,
    so h = 0 with bound b returns N times the plain enumeration at b.
    """
    rep = h.rep if isinstance(h, CongruenceClass) else tuple(int(x) for x in h)
    if not isinstance(h, CongruenceClass):
        CongruenceClass(form, rep)  # validates A h = 0 mod N
    N = form.level
    raw = int(Fraction(bound) * N * N)
    return [m for m, _ in _sorted_walk(form, raw, N, rep)]


def first_root(form: QuadraticForm):
    """Lexicographically smallest vector with Q = 1, or None."""
    return next((m for m, e in _sorted_walk(form, 1, 1, (0,) * form.rank) if e == 1), None)


def minimal_vector(form: QuadraticForm):
    """(m, Q(m)) with Q minimal positive, lexicographically smallest m."""
    bound = 1
    while True:
        nonzero = [(e, m) for m, e in _sorted_walk(form, bound, 1, (0,) * form.rank) if e]
        if nonzero:
            mu, m = min(nonzero)
            return m, mu
        bound *= 2


def unit_insertion_vector(form: QuadraticForm) -> InsertionVector:
    """An insertion vector with <v,v> = 1 built from a shortest vector."""
    root = first_root(form)
    if root is not None:
        return InsertionVector.from_root(root)
    m, mu = minimal_vector(form)
    return InsertionVector(m, Fraction(1, 2 * mu))


_GAUSS_BLOCK = 1 << 16  # points per block of the Gauss-sum walk


def gauss_sum(form: QuadraticForm, a: int, d: int, c: int, h, q) -> complex:
    """sum over g = h mod N, g mod cN of e((a Q(g) + d Q(q) + g'Aq) / cN^2).

    Phases are exact rationals mod 1; only the final exponentials are
    floating point.  With g = h + N w, w in [0, c)^rank, the numerator is
    a Q(h) + d Q(q) + h'Aq + N (a Ah + Aq)'w + a N^2 Q(w).  Everything that
    depends on h, q, a or d is reduced mod cN^2 in Python integers, so the
    walk over w runs in int64 blocks of _GAUSS_BLOCK points; the residues
    mod cN^2 are counted exactly and the counts summed against one table
    of exponentials.  c must be positive.  Before anything is allocated,
    OverflowError is raised when an int64 intermediate could pass 2^62,
    and EnumerationBudgetError when the c^rank points or the cN^2 residues
    exceed ENUMERATION_BUDGET.
    """
    if c <= 0:
        raise ValueError("gauss_sum requires c > 0")
    hrep = h.rep if isinstance(h, CongruenceClass) else tuple(int(x) for x in h)
    qrep = q.rep if isinstance(q, CongruenceClass) else tuple(int(x) for x in q)
    f, N = form.rank, form.level
    M = c * N * N
    if max((f + 2) * c * M, f * f * c ** 3) > 2 ** 62:
        raise OverflowError(f"gauss_sum residues mod cN^2 = {M} overflow int64 at c = {c}")
    if max(c ** f, M) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{c}^{f} points over {M} residues exceeds budget {ENUMERATION_BUDGET:.2e}"
        )
    const = (a * form.q_value(hrep) + d * form.q_value(qrep) + form.bilinear(hrep, qrep)) % M
    lin = [N * x % M for x in form._gram_times([a * hj + qj for hj, qj in zip(hrep, qrep)])]
    # Q(w) = sum over i <= j of u_ij w_i w_j, u_ii = A_ii/2 and u_ij = A_ij above
    quad = [
        (i, j, form.gram[i][j] // (1 + (i == j)) % c)
        for i in range(f)
        for j in range(i, f)
    ]
    aq = N * N * (a % c)  # a N^2 Q(w) mod cN^2 needs Q(w) mod c only
    points = c ** f
    counts = np.zeros(M, dtype=np.int64)
    for start in range(0, points, _GAUSS_BLOCK):
        idx = np.arange(start, min(start + _GAUSS_BLOCK, points), dtype=np.int64)
        w = [idx // c ** (f - 1 - i) % c for i in range(f)]
        qw = sum(u * w[i] * w[j] for i, j, u in quad if u) % c
        num = const + sum(lin[i] * w[i] for i in range(f)) + aq * qw
        counts += np.bincount(num % M, minlength=M)
    return complex(counts @ np.exp(2j * np.pi * np.arange(M) / M))


CATALOG = {
    "A2": ((2, -1), (-1, 2)),
    "A1A1": ((2, 0), (0, 2)),
    "2A2": ((4, -2), (-2, 4)),
    "D4": (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    ),
    "E8": (
        (2, 0, -1, 0, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, 0, -1, 2),
    ),
}


def catalog_form(name: str) -> QuadraticForm:
    try:
        return QuadraticForm(CATALOG[name])
    except KeyError:
        raise ValueError(
            f"unknown form {name!r}; catalog has {', '.join(sorted(CATALOG))}"
        ) from None


def load_form(path) -> QuadraticForm:
    """Read {"gram": [[...], ...]} from a JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    return QuadraticForm(data["gram"])
