"""Even positive-definite forms and exact lattice-point bookkeeping.

Building a form runs one fraction-free elimination of its Gram matrix
(_bareiss: the adjugate and the leading principal minors, hence the
determinant, the inverse and the level).  The enumeration engine walks
integer vectors z = h0 + scale*u with Q(z) <= bound (Fincke-Pohst), one
coordinate at a time, in a basis the form reduces once, on its first
walk, by exact integer LLL, so a badly conditioned Gram matrix of a good
lattice costs what the good basis costs.  Pruning compares a float LDL
partial against an inflated bound; every frontier row also carries
exact int64 partials of 2Q and of its weight sums, so the leaf test, the
exponents and the weights are integer arithmetic and the histograms
feeding the series expansions carry no rounding.  Every histogram of a
slice, with any number of weight rows t = w.z, enters one fibered entry
(_slice_cells): along the coordinate of the reduced basis that the
reduced adjugate names, or along the slice's one nonzero row, whichever
the estimated cost prefers, Q splits as a multiple of the fiber's square
plus the norm of a kernel-form coset that depends on the fiber only
through a residue, and each weight splits as a linear form on the
kernel plus a multiple of the fiber (the theta decomposition of Jacobi
forms, Eichler-Zagier, 1985, Thm 5.1), so one kernel coset per residue
class, carrying the weights' kernel parts and folded into each fiber of
the class, gives exactly the direct walk's histogram.  Every kernel
coset comes back through the same entry and is fibered in turn while
the estimated cost says so, and within one slice walk each distinct
kernel coset, up to sign, is walked once: sibling classes reach the
same cosets, and -h is h negated.  A slice comes back as one pair (keys,
counts) of int64 arrays, its distinct keys (e, t...) ascending, from
the walk's blocks through every fold, and the form keeps those arrays,
read-only, as a Histogram: insertion_histogram hands out views of them
and every theta sum reads them, so no dict {(e, t...): count} is built.
Every walk, histogram, fiber or vector query, enters one walker that
refuses it before allocating: EnumerationBudgetError above
ENUMERATION_BUDGET estimated points, OverflowError when a partial or a
fold could leave int64; a fibered plan is refused before any walk when
its estimated cost passes ENUMERATION_BUDGET.
A Gauss sum over c^rank points is split by the CRT into one sum per
prime power p^e of c, and each of those, by a Jordan splitting of the
form over Z_p, into 1x1 and 2x2 blocks, each stripped to its unit part:
p-adic valuations decide there whether the sum is exactly 0j, and each
unit block has a classical closed form, an exact |sum|^2 and a rational
phase, so no point is summed and the sum costs the splitting, whatever c.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import lcm, pi
from operator import mul

import numpy as np

from .arith import GaussianRational, kronecker_symbol


class InvalidFormError(ValueError):
    """Gram matrix rejected; .code names the first failed requirement."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class EnumerationBudgetError(RuntimeError):
    """A walk's estimated lattice points or a fibered plan's estimated cost
    exceed ENUMERATION_BUDGET, or a Gauss sum's modulus keeps a factor
    above it that trial division did not reach, or the sum would leave
    the float range."""


def _bareiss(gram):
    """(adj, minors, lower) of a symmetric integer A by one fraction-free
    Gauss-Jordan pass (Bareiss) over [A | I], all in integers.

    Columns are eliminated in their natural order with no pivot search.
    Step j replaces every other row r by (p row_r - A_rj row_j) / p', with
    p the pivot A_jj and p' the pivot before it; every division is exact
    (Sylvester's identity).  The pivots are the leading principal minors
    of A, returned as minors; lower[j] is column j of the matrix just
    before step j, which is minors[j] times column j of the unit
    lower-triangular L of A = L D L'; and the right block ends as
    adj(A) = det(A) A^-1.  Raises on the first pivot <= 0, that is unless
    A > 0.
    """
    f = len(gram)
    aug = [list(row) + [int(i == j) for j in range(f)] for i, row in enumerate(gram)]
    prev, minors, lower = 1, [], []
    for j in range(f):
        pv = aug[j][j]
        if pv <= 0:
            raise InvalidFormError(
                "not-positive-definite",
                f"pivot {j} of the LDL factorization is {Fraction(pv, prev)}",
            )
        minors.append(pv)
        lower.append([row[j] for row in aug])
        pivot_row = aug[j]
        for r in range(f):
            if r != j:
                fac = aug[r][j]
                aug[r] = [(pv * x - fac * y) // prev for x, y in zip(aug[r], pivot_row)]
        prev = pv
    return [row[f:] for row in aug], minors, lower


def _lll_basis(gram):
    """(basis, U^-1): the LLL-reduced basis of the lattice with Gram matrix
    gram as rows in the original coordinates, and the inverse of the
    unimodular U whose columns they are.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7) on the Gram matrix alone: the Gram-Schmidt
    data is kept as the integers d_i (leading principal minors of the
    current basis) and lam_kj = d_j mu_kj, and updated in place by each
    size reduction and swap, so every step is exact integer arithmetic.
    Indices are 1-based as in the book; d[0] = 1.  The Lovasz constant
    is 99/100.  Each step is elementary, so U^-1 follows it row by row:
    b_k -= r b_l adds r times row k to row l, and a swap of b_k and b_k-1
    swaps rows k and k-1.
    """
    n = len(gram)
    b = [None] + [[int(i == j) for j in range(n)] for i in range(n)]
    binv = [None] + [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) <= d[l]:
            return
        r = (2 * lam[k][l] + d[l]) // (2 * d[l])  # nearest integer to mu_kl
        b[k] = [x - r * y for x, y in zip(b[k], b[l])]
        binv[l] = [x + r * y for x, y in zip(binv[l], binv[k])]
        lam[k][l] -= r * d[l]
        for i in range(1, l):
            lam[k][i] -= r * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        binv[k], binv[k - 1] = binv[k - 1], binv[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        big = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k]
        d[k - 1] = big

    d[1] = gram[0][0]
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            # vector k is still the k-th unit vector, so b_k . b_j is a row of A times b_j
            kmax = k
            for j in range(1, k + 1):
                x = sum(a * y for a, y in zip(gram[k - 1], b[j]))
                for i in range(1, j):
                    x = (d[i] * x - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = x
                else:
                    d[k] = x
        reduce(k, k - 1)
        if 100 * d[k] * d[k - 2] < 99 * d[k - 1] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                reduce(k, l)
            k += 1
    return [tuple(row) for row in b[1:]], tuple(tuple(row) for row in binv[1:])


class QuadraticForm:
    """Positive-definite integral Gram matrix with even diagonal, even rank.

    Q(x) = x'Ax/2 and <x,y> = x'Ay throughout.  Rejections carry an error
    code so callers can distinguish a typo from a genuinely unsupported
    matrix.
    """

    __slots__ = ("gram", "rank", "det", "level", "inverse_gram", "_lll", "_cells", "_dual", "_scaled", "_fibers")

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
        adj, minors, _ = _bareiss(rows)
        self.det = minors[-1]
        self.inverse_gram = tuple(tuple(Fraction(x, self.det) for x in row) for row in adj)
        n0 = 1
        for row in self.inverse_gram:
            for x in row:
                n0 = lcm(n0, x.denominator)
        if any((n0 * self.inverse_gram[i][i]) % 2 for i in range(f)):
            n0 *= 2
        self.level = n0
        # insertion histograms built for this form: (scale, h0) -> {weights: (bound, Histogram)}
        self._cells = {}
        self._dual = None
        # the forms on c*A, c -> form (see scaled)
        self._scaled = {}
        # the walk's reduced basis, built on the first walk (see _reduced)
        self._lll = None
        # the fiber walks' splits along rows of that basis (see _fibration)
        self._fibers = {}

    @classmethod
    def _kernel(cls, gram, det):
        """The form of a weight row's kernel, of any rank, for the fiber walks
        of _slice_cells.

        Built without the public checks and without an elimination: a walk
        needs only the Gram matrix, the rank, the determinant (given) and
        _reduced; the inverse and the level are left unset.
        """
        form = cls.__new__(cls)
        form.gram, form.rank, form.det = tuple(map(tuple, gram)), len(gram), det
        form._cells, form._dual, form._scaled, form._lll, form._fibers = {}, None, {}, None, {}
        return form

    @property
    def half_rank(self) -> int:
        return self.rank // 2

    def _gram_times(self, x):
        """A x as a tuple: the one Gram product behind every exact pairing."""
        if len(x) != self.rank:
            raise ValueError(f"vector of length {len(x)} for a rank-{self.rank} form")
        return tuple(sum(a * xj for a, xj in zip(row, x)) for row in self.gram)

    def _reduced(self):
        """(gram, (L, d), U, U^-1, adj) of the LLL-reduced basis the walk runs in.

        The columns of the unimodular U are the reduced basis in the
        original coordinates, gram = U'AU with its LDL factors (L, d) as
        floats for the walk's pruning, and adj = det(A) gram^-1, the
        reduced inverse in integers: its diagonal bounds every coordinate
        of a vector in an ellipsoid, and its columns give every fiber
        split (_Fibration).  Computed on the first walk and kept, so
        building a form costs no reduction.
        """
        if self._lll is None:
            # walked in LLL order: reversed (the walk fixes the last
            # coordinate first), the benchmark walks met up to 0.5% more
            # candidates and ran no faster
            basis, uinv = _lll_basis(self.gram)
            products = [self._gram_times(b) for b in basis]
            gram = tuple(tuple(sum(x * y for x, y in zip(bi, ab)) for ab in products) for bi in basis)
            adj, minors, lower = _bareiss(gram)
            if minors[-1] != self.det:
                raise ArithmeticError(f"reduced Gram determinant {minors[-1]} is not det = {self.det}")
            ldl = (
                [[lower[j][i] / minors[j] if i > j else float(i == j) for j in range(self.rank)] for i in range(self.rank)],
                [m / p for m, p in zip(minors, [1] + minors[:-1])],
            )
            self._lll = (gram, ldl, tuple(zip(*basis)), uinv, adj)
        return self._lll

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

    def scaled(self, c: int) -> "QuadraticForm":
        """Form on c * A for a positive integer c, built once per c and kept,
        as dual() is, so the rescale law's walks of it keep their reduced
        basis, fibers and histograms."""
        if c not in self._scaled:
            self._scaled[c] = QuadraticForm([[c * x for x in row] for row in self.gram])
        return self._scaled[c]

    def congruence_classes(self):
        """All classes h mod N with A h = 0 mod N, sorted; exactly det(A) of them.

        A h = 0 mod N exactly when h = N A^-1 y for an integer y, so the
        classes are the closure of the rows of the symmetric N A^-1 mod N
        under addition: at most det * rank steps, not N^rank.
        """
        N, f = self.level, self.rank
        gens = [tuple(int(N * x) % N for x in row) for row in self.inverse_gram]
        seen = {(0,) * f}
        todo = list(seen)
        while todo:
            h = todo.pop()
            for g in gens:
                s = tuple((x + y) % N for x, y in zip(h, g))
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        if len(seen) != self.det:
            raise ArithmeticError(f"found {len(seen)} classes mod {N}, expected det = {self.det}")
        return [CongruenceClass(self, h) for h in sorted(seen)]

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

    def integer_rows(self):
        """(den, rows): den * w = re + i im with integer rows, rows = (re,)
        for a real w and (re, im) otherwise."""
        return self._den, ((self._re, self._im) if any(self._im) else (self._re,))

    def integral_weights(self, form: QuadraticForm):
        """(den, weight rows) with weight_i . m = den * component_i of w'Am.

        The rows of integer_rows times A, over their gcd with den: A is
        nonsingular, so w'A has an imaginary row exactly when w has one.
        """
        den, rows = self.integer_rows()
        rows = [form._gram_times(row) for row in rows]
        g = math.gcd(den, *(x for row in rows for x in row))
        return den // g, tuple(tuple(x // g for x in row) for row in rows)

    def __eq__(self, other):
        if not isinstance(other, InsertionVector):
            return NotImplemented
        return self.w == other.w and self.s == other.s

    def __hash__(self):
        return hash((self.w, self.s))

    def __repr__(self):
        return f"InsertionVector(w={list(map(str, self.w))}, s={self.s})"


ENUMERATION_BUDGET = 60_000_000
_FRONTIER_CHUNK = 150_000  # most candidates a frontier block expands to at once


def _ellipsoid_points(rank: int, det, bound: int, scale: int) -> float:
    """Estimated points z = h0 + scale*u with Q(z) <= bound: the volume of
    z'Az <= 2(bound + 1) over the covolume sqrt(det) * scale^rank."""
    vol = pi ** (rank / 2) / math.gamma(rank / 2 + 1) * (2.0 * (bound + 1)) ** (rank / 2)
    return vol / (math.sqrt(det) * scale ** rank)


def _leaf_chunks(form: QuadraticForm, bound: int, scale: int, h0, weights):
    """Yield (e, T) blocks over the vectors z = h0 + scale*u with Q(z) = e <= bound.

    e is an int64 array and T a list of int64 columns, weight . z for each
    weight row, so identity weights give the vectors themselves.  The
    descent runs in the form's LLL-reduced basis y = U^-1 z (so h0 becomes
    U^-1 h0 mod scale and a weight row w becomes w U), breadth-first over
    coordinates f-1 .. 0.  Every frontier block carries the coordinates
    fixed so far, a float LDL partial for pruning against an inflated
    bound, and exact int64 partials: 2Q of the fixed coordinates and their
    weight sums, all as separate columns, since numpy gathers and
    broadcasts one-dimensional arrays several times faster than the rows
    of a narrow matrix.  A new coordinate y_j adds
    A_jj y_j^2 + 2 y_j sum_{i>j} A_ji y_i to 2Q, so the leaf test
    2Q <= 2 bound and the exponents are integer arithmetic.  A block whose
    candidates for y_j pass _FRONTIER_CHUNK is halved before it expands,
    and a single row with more candidates expands them window by window,
    so no block, leaf or frontier, holds more than _FRONTIER_CHUNK rows.

    Every walk is guarded before it reduces or allocates:
    EnumerationBudgetError above ENUMERATION_BUDGET estimated points,
    OverflowError when a partial could pass 2^62.  Each coordinate of a
    vector with Q <= bound has |y_j| <= R_j = isqrt(2 bound gram^-1_jj),
    so every candidate range is clipped to that exact radius and the
    guards bound the partials over the box of those radii.
    """
    f = form.rank
    est = _ellipsoid_points(f, form.det, bound, scale)
    if est > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"estimated {est:.2e} lattice points exceeds budget {ENUMERATION_BUDGET:.2e}"
        )
    A, (Lf, df), U, uinv, adj = form._reduced()
    hy = [sum(a * x for a, x in zip(row, h0)) % scale for row in uinv]
    wy = [[sum(w[i] * U[i][j] for i in range(f)) for j in range(f)] for w in weights]
    radii = [math.isqrt(max(0, 2 * bound * adj[j][j] // form.det)) for j in range(f)]
    partial = sum(abs(a) * ri * rk for row, ri in zip(A, radii) for a, rk in zip(row, radii))
    sums = [sum(abs(x) * r for x, r in zip(w, radii)) for w in wy]
    if max([4 * partial] + sums) > 2 ** 62:
        raise OverflowError(
            f"lattice walk to bound {bound} could pass 2^62 in int64 partials"
        )
    # the steps k of y_j = hy_j + scale k within the radius
    steps = [(-((r + h) // scale), (r - h) // scale) for r, h in zip(radii, hy)]
    margin = 1e-6 * (1.0 + bound)
    bf = bound + margin

    # a frontier block: the columns y_(f-1), ..., y_(j+1) of its fixed
    # coordinates, the float LDL partials, the exact partials of 2Q, and one
    # column per weight row
    zero = np.zeros(1, dtype=np.int64)
    stack = [((), np.zeros(1), zero, (zero,) * len(wy))]
    while stack:
        Y, S, Q2, T = stack.pop()
        depth = len(Y)
        j = f - 1 - depth
        dot = np.zeros(len(S))
        lin = np.zeros(len(S), dtype=np.int64)
        for y, i in zip(Y, range(f - 1, j, -1)):
            if Lf[i][j]:
                dot += Lf[i][j] * y
            if A[i][j]:
                lin += 2 * A[i][j] * y
        rad = np.sqrt(np.maximum(0.0, 2.0 * (bf - S) / df[j]))
        lo = np.maximum(np.ceil((-dot - rad - hy[j]) / scale - 1e-9).astype(np.int64), steps[j][0])
        hi = np.minimum(np.floor((-dot + rad - hy[j]) / scale + 1e-9).astype(np.int64), steps[j][1])
        counts = np.maximum(0, hi - lo + 1)
        total = int(counts.sum())
        if total == 0:
            continue
        if total > _FRONTIER_CHUNK and len(S) > 1:
            mid = len(S) // 2
            for part in (slice(mid, None), slice(0, mid)):
                stack.append((tuple(y[part] for y in Y), S[part], Q2[part], tuple(t[part] for t in T)))
            continue
        leaf = depth + 1 == f
        for start in range(0, total, _FRONTIER_CHUNK):
            if len(S) == 1:
                stop = min(total, start + _FRONTIER_CHUNK)
                rep = np.zeros(stop - start, dtype=np.intp)
                yj = hy[j] + scale * (np.arange(start, stop, dtype=np.int64) + lo[0])
            else:
                rep = np.repeat(np.arange(len(S)), counts)
                starts = np.cumsum(counts) - counts
                yj = hy[j] + scale * (np.arange(total, dtype=np.int64) + (lo - starts)[rep])
            q2 = Q2[rep] + yj * (A[j][j] * yj + lin[rep])
            if leaf:
                keep = q2 <= 2 * bound
            else:
                S2 = S[rep] + 0.5 * df[j] * (yj + dot[rep]) ** 2
                keep = S2 <= bf
            if not keep.all():
                rep, yj, q2 = rep[keep], yj[keep], q2[keep]
                if not leaf:
                    S2 = S2[keep]
            if len(rep) == 0:
                continue
            T2 = [t[rep] + w[j] * yj for t, w in zip(T, wy)]
            if leaf:
                yield q2 >> 1, T2
            else:
                stack.append((tuple(y[rep] for y in Y) + (yj,), S2, q2, tuple(T2)))


def _column_gcd(a):
    """(V, V^-1, g): a unimodular V with a V = (0, ..., 0, g), g = gcd(a) >= 0,
    both as rows.

    Euclid between each entry and the last one, by column operations on V;
    each is undone by the matching row operation on V^-1.
    """
    f = len(a)
    a = list(a)
    V = [[int(i == j) for j in range(f)] for i in range(f)]
    Vinv = [row[:] for row in V]
    for j in range(f - 1):
        while a[j]:
            q = a[-1] // a[j]
            a[-1] -= q * a[j]
            a[j], a[-1] = a[-1], a[j]
            for row in V:
                row[-1] -= q * row[j]
                row[j], row[-1] = row[-1], row[j]
            Vinv[j] = [x + q * y for x, y in zip(Vinv[j], Vinv[-1])]
            Vinv[j], Vinv[-1] = Vinv[-1], Vinv[j]
    if a[-1] < 0:
        a[-1] = -a[-1]
        for row in V:
            row[-1] = -row[-1]
        Vinv[-1] = [-x for x in Vinv[-1]]
    return V, Vinv, a[-1]


# Costs in leaves of a direct walk (about 75 ns each), for choosing
# between a direct and a fibered walk of a slice.  Measured on a 2-core
# Xeon (Python 3.11, numpy 2.4) over direct walks of E8 and its kernels:
# a walk spends about 85 us per coordinate level on set-up, and a kernel's
# first LLL and elimination about 3 us per cube of its rank (1.1 ms for
# the rank-7 kernels of E8).
# The numpy fold costs 1.5 us per fiber and 0.07-0.15 us per fold pair
# before the histogram's own cells are built (which a direct walk builds
# too): one or two leaves.  Its fixed 50-150 us of numpy calls is left to
# the classes' walk set-up.
_WALK_SETUP = 1100  # per level of each walk
_FOLD_FIBER = 20
_FOLD_PAIR = 1
_KERNEL_SETUP = 40  # per cube of the rank, once per kernel form


class _Fibration:
    """The split of a form's reduced basis along a nonzero row a (in reduced
    coordinates: a unit row for a coordinate, or a weight row); one per
    row, kept on the form as dual() is.

    V from _column_gcd splits y = V (x, s) with a . y = g s and x the
    coordinates of a's kernel.  Completing the square on the Gram matrix
    [[K, b], [b', c0]] of that split gives
    Q(y) = Q_K(x + s c) + s^2 g^2/(2G) with K c = b and G = a gram^-1 a',
    so with D the common denominator of c, u = D x + s D c gives
    Q(y) = Q_K(u)/D^2 + s^2 sn/sd, sn/sd = g^2/(2G).  c, G and det K are
    read off the reduced inverse; the kernel form K is built on first use.
    """

    __slots__ = ("V", "Vinv", "g", "D", "Dc", "sn", "sd", "kdet", "_gram", "_kernel")

    def __init__(self, form: QuadraticForm, a):
        self._gram, _, _, _, adj = form._reduced()
        self.V, self.Vinv, self.g = _column_gcd(a)
        # the split Gram matrix has inverse V^-1 gram^-1 V^-T, and a V = g e_f,
        # so its last column is V^-1 gram^-1 a' / g, here times det A: c is
        # minus its head over its tail
        p = [sum(x * y for x, y in zip(row, a)) for row in adj]
        q = [sum(x * y for x, y in zip(row, p)) for row in self.Vinv]
        # q_f = det A G / g > 0, so c = -q/q_f has the common denominator
        # D = q_f/gcd(q) and D c = -q/gcd(q)
        k = math.gcd(*q)
        self.D = q[-1] // k
        self.Dc = tuple(-x // k for x in q[:-1])
        # g^2/(2G) in lowest terms, since det A G = a . p = g q_f
        k = math.gcd(self.g * form.det, 2 * q[-1])
        self.sn, self.sd = self.g * form.det // k, 2 * q[-1] // k
        # det K = det A * (last entry of the split inverse) = q_f / g, an integer
        self.kdet = q[-1] // self.g
        self._kernel = None

    @property
    def kernel(self) -> QuadraticForm:
        if self._kernel is None:
            V, f = self.V, len(self.V)
            gv = [[sum(x * V[k][j] for k, x in enumerate(r)) for j in range(f - 1)] for r in self._gram]
            K = [[sum(V[k][i] * gv[k][j] for k in range(f)) for j in range(f - 1)] for i in range(f - 1)]
            self._kernel = QuadraticForm._kernel(K, self.kdet)
        return self._kernel

    def kbound(self, bound: int, s: int) -> int:
        """The kernel bound of fiber s: the largest Q_K(u) with Q(y) <= bound."""
        return self.D * self.D * (bound * self.sd - s * s * self.sn) // self.sd


def _fibration(form: QuadraticForm, a) -> _Fibration:
    """The form's kept _Fibration along a, built on first use."""
    fib = form._fibers.get(a)
    if fib is None:
        fib = form._fibers[a] = _Fibration(form, a)
    return fib


def _norm_step(gram, scale: int, hy) -> int:
    """The step of the norms of the slice z = hy + scale*Z^f: every Q(z) is
    Q(hy) mod it.

    Q(hy + scale*u) = Q(hy) + scale <hy, u> + scale^2 Q(u), where <hy, u>
    runs over multiples of gcd(gram hy) and Q(u) over multiples of the
    norm of the lattice, n = gcd(gram_ii/2, gram_ij); so the step is
    gcd(scale gcd(gram hy), scale^2 n), a multiple of scale.
    """
    # gcd(gram_ii, gram_ii/2) = gram_ii/2, so the whole matrix may enter
    n = math.gcd(*chain.from_iterable(gram), *(row[i] // 2 for i, row in enumerate(gram)))
    lin = math.gcd(*(sum(a * y for a, y in zip(row, hy)) for row in gram)) if any(hy) else 0
    return math.gcd(scale * lin, scale * scale * n)


def _fiber_plans(form: QuadraticForm, bound: int, scale: int, h0, weights, est: float, direct: float):
    """Yield (cost, fibration, hy, fibers, classes, mirror, rows), the plan
    for walking the slice h0 + scale*Z^f (y = hy + scale*Z^f in the
    reduced basis) fiber by fiber, along each direction priced: the
    coordinate y_j with the smallest D_j/(R_j + 1), the lowest j on a tie,
    whose D_j = adj_jj/gcd(row j of adj) kernel classes serve the most
    fibers |s| <= R_j = isqrt(2 bound adj_jj // det); then, when the slice
    has exactly one nonzero weight row a, a itself.  Nothing along a
    direction where no residue class of fibers repeats (then the direct
    walk meets no more vectors) or where the classes' set-up alone costs
    the direct walk's cost or the budget, and nothing at rank 1.

    With (x0, s0) = V^-1 hy, x runs over x0 + scale*Z^(f-1) and the fiber
    s over s0 + scale*Z with s^2 sn/sd <= bound, so u = D x + s D c runs
    over the kernel coset D x0 + s D c + scale*D*Z^(f-1), which depends on
    s mod scale*D only: D classes.  When 2 hy = 0 mod scale the classes of
    s and -s are mirror images (u -> -u) and share one walk.  classes maps
    each class key to its smallest |s|, whose kernel bound the walk takes.
    rows holds (w_x, w_s) = w V for each weight row w (in reduced
    coordinates), so w y = w_x x + w_s s: along a itself w_x = 0 and
    w_s = g, and every row with w_x != 0 is carried into the kernel walks
    (_fibered_cells).  The cost is the estimated leaves of those walks,
    each with its set-up, the kernel's reduction when it has none yet, and
    the fold: _FOLD_FIBER per fiber and _FOLD_PAIR per fold pair (a kernel
    cell on one fiber).  A fiber has at most one cell per norm, the norms
    e in [s^2 sn/sd, bound] that are Q(h0) mod _norm_step, times 2 T + 1
    per carried row, whose |t| <= T = isqrt(2 bound w adj w' // det) by
    Cauchy-Schwarz; and the pairs are at most about est, the slice's
    estimated points, in all.
    """
    f, r = form.rank, form.rank - 1
    if f < 2:
        return
    gram, _, U, uinv, adj = form._reduced()
    hy = [sum(map(mul, row, h0)) % scale for row in uinv]
    wy = [tuple(sum(map(mul, w, col)) for col in zip(*U)) for w in weights]
    # int / int is correctly rounded, so equal ratios tie and ratios of
    # integers below 2^26 keep their order
    j = min(range(f), key=lambda j: adj[j][j] // math.gcd(*adj[j]) / (math.isqrt(2 * bound * adj[j][j] // form.det) + 1))
    directions = [(0,) * j + (1,) + (0,) * (r - j)]
    rowed = [w for w in wy if any(w)]
    if len(rowed) == 1 and rowed[0] != directions[0]:
        directions.append(rowed[0])
    mirror = all(2 * x % scale == 0 for x in hy)
    step = _norm_step(gram, scale, hy)
    for a in directions:
        fib = _fibration(form, a)
        D = fib.D
        s0 = sum(map(mul, fib.Vinv[-1], hy)) % scale
        s_max = math.isqrt(bound * fib.sd // fib.sn)
        fibers = range(s0 - (s_max + s0) // scale * scale, s_max + 1, scale)
        # at least (D + 1)/2 classes are walked, at least their set-up each
        least = (D + 1) // 2
        if least >= len(fibers) or least * _WALK_SETUP * r >= min(direct, ENUMERATION_BUDGET):
            continue
        mod = scale * D
        classes: dict = {}
        # the smallest |s| of every class lies within D fibers of s0
        at = fibers.index(s0)
        for s in sorted(fibers[max(0, at - D - 1):at + D + 1], key=abs):
            classes.setdefault(min(s % mod, -s % mod) if mirror else s % mod, s)
        # the norms of all fibers, sum_s (bound - s^2 sn/sd)/step + 1, by the
        # sum of the squares of the progression, times the values of each
        # carried row's t
        F, s1 = len(fibers), fibers[0]
        squares = F * s1 * s1 + s1 * scale * F * (F - 1) + scale * scale * (F - 1) * F * (2 * F - 1) // 6
        cells = F + (F * bound * fib.sd - fib.sn * squares) // (fib.sd * step)
        rows = []
        for w in wy:
            *wx, ws = (sum(map(mul, w, col)) for col in zip(*fib.V))
            rows.append((tuple(wx), ws))
            if any(wx):
                wadj = sum(map(mul, w, (sum(map(mul, w, col)) for col in adj)))
                cells *= 2 * math.isqrt(2 * bound * wadj // form.det) + 1
        cost = _FOLD_FIBER * F + _FOLD_PAIR * min(cells, est)
        cost += _WALK_SETUP * r * len(classes)
        if fib._kernel is None or fib._kernel._lll is None:
            cost += _KERNEL_SETUP * r ** 3
        for s in classes.values():
            cost += _ellipsoid_points(r, fib.kdet, fib.kbound(bound, s), mod)
        yield cost, fib, hy, fibers, classes, mirror, tuple(rows)


def _fiber_plan(form: QuadraticForm, bound: int, scale: int, h0, weights, est: float, direct: float):
    """The cheapest of the slice's _fiber_plans, the first on a tie; None
    when it has none."""
    return min(_fiber_plans(form, bound, scale, h0, weights, est, direct), key=lambda plan: plan[0], default=None)


def _fibered_cells(form: QuadraticForm, bound: int, scale: int, plan, memo=None):
    """The slice's (keys, counts) by the fibered plan: one kernel coset per
    class, from the walk's memo or through _slice_cells (_kernel_cells),
    folded into every fiber of the class in exact integers.  memo is the
    enclosing top-level walk's, a new one when none is given.

    Each carried weight row (w_x != 0) enters the kernel walks as w_x, so
    a kernel cell keys t_K = w_x u, and the fiber s of u = D x + s D c
    gets t = w x + w_s s = (t_K - s w_x D c)/D + w_s s; for a row not
    carried, such as the row split along, the first term is 0 and
    t = w_s s.  A fiber whose class walk is of its mirror image (u -> -u)
    negates its t_K.  The fold runs in numpy over every (fiber, kernel
    cell) pair at once: the classes' kernel cells, each class's
    ascending, are concatenated, each fiber cuts its class's at its own
    kernel bound (np.searchsorted), e = (m sd + s^2 sn D^2)/(D^2 sd) and
    every t must divide exactly (ArithmeticError otherwise), and one
    _tally_cells counts each pair as often as its kernel cell.  Before the
    fold, OverflowError when e D^2 sd, s w_x D c or w_s s could pass 2^62
    in int64.
    """
    _, fib, hy, fibers, classes, mirror, rows = plan
    D, sn, sd = fib.D, fib.sn, fib.sd
    mod = scale * D
    x0 = [sum(v * h for v, h in zip(row, hy)) for row in fib.Vinv[:-1]]
    reps = list(classes.values())
    cosets = [tuple((D * x + s * dc) % mod for x, dc in zip(x0, fib.Dc)) for s in reps]
    carried = tuple(wx for wx, _ in rows if any(wx))
    memo = {} if memo is None else memo
    walks = [_kernel_cells(fib.kernel, fib.kbound(bound, s), mod, h, carried, memo) for s, h in zip(reps, cosets)]
    s_top = max(map(abs, fibers))
    shifts = [sum(x * dc for x, dc in zip(wx, fib.Dc)) for wx, _ in rows]
    if max([D * D * bound * sd] + [s_top * max(abs(c), abs(ws)) for c, (_, ws) in zip(shifts, rows)]) > 2 ** 62:
        raise OverflowError(f"fold of the fibers to bound {bound} could pass 2^62 in int64")
    index = {key: i for i, key in enumerate(classes)}
    which = np.array([index[min(s % mod, -s % mod) if mirror else s % mod] for s in fibers], dtype=np.intp)
    kbounds = np.array([fib.kbound(bound, s) for s in fibers], dtype=np.int64)
    cuts = np.zeros(len(fibers), dtype=np.int64)
    for i, (keys, _) in enumerate(walks):
        cuts[which == i] = np.searchsorted(keys[:, 0], kbounds[which == i], side="right")
    starts = np.cumsum([0] + [len(n) for _, n in walks])[which]
    K = np.concatenate([keys for keys, _ in walks])
    S = np.array(fibers, dtype=np.int64)
    rep = np.repeat(np.arange(len(S)), cuts)
    idx = np.arange(int(cuts.sum())) + np.repeat(starts - np.cumsum(cuts) + cuts, cuts)
    e, rem = np.divmod(K[idx, 0] * sd + (S * S * (sn * D * D))[rep], D * D * sd)
    if rem.any():
        bad = int(np.flatnonzero(rem)[0])
        raise ArithmeticError(f"Q_K = {K[idx[bad], 0]} on fiber s = {S[rep[bad]]} gives a non-integral norm")
    if mirror and carried:
        flip = np.array([s % mod != reps[i] % mod for s, i in zip(fibers, which.tolist())])[rep]
    ts, col = [], 1
    for (wx, ws), shift in zip(rows, shifts):
        t = ws * S[rep]
        if any(wx):
            tk, col = K[idx, col], col + 1
            if mirror:
                tk = np.where(flip, -tk, tk)
            q, rem = np.divmod(tk - shift * S[rep], D)
            if rem.any():
                bad = int(np.flatnonzero(rem)[0])
                raise ArithmeticError(f"weight row {wx} on fiber s = {S[rep[bad]]} gives a non-integral weight")
            t += q
        ts.append(t)
    return _tally_cells([e, *ts], np.concatenate([n for _, n in walks])[idx])


def _kernel_cells(form: QuadraticForm, bound: int, scale: int, h0, weights, memo):
    """A class's kernel coset for _fibered_cells, as _slice_cells gives it
    but to at least bound (the fold cuts each fiber at its own kernel
    bound on the ascending e column), built at most once per top-level
    walk up to sign.

    Sibling classes of a fibered walk, and their kernels in turn, reach
    the same cosets of the same kernel forms, and the coset -h0 holds the
    negatives of h0's vectors: the same norms, every t negated.  So memo
    maps (form, scale, h, weights), h the lesser of h0 (a tuple reduced
    mod scale) and -h0, to the largest bound h was walked to and its
    arrays: a repeat at that bound or lower is served as they are, a
    higher bound walks h again, and the mirror negates the t columns and
    restores ascending order with one _tally_cells.
    """
    h = min(h0, tuple(-x % scale for x in h0))
    key = (form, scale, h, weights)
    if key not in memo or memo[key][0] < bound:
        memo[key] = (bound, *_slice_cells(form, bound, scale, h, weights, memo))
    _, keys, counts = memo[key]
    if h == h0 or not weights:
        return keys, counts
    return _tally_cells([keys[:, 0], *(-keys[:, 1:].T)], counts)


def _slice_cells(form: QuadraticForm, bound: int, scale: int, h0, weights, memo=None):
    """The histogram of z = h0 + scale*u with Q(z) <= bound as a pair
    (keys, counts) of int64 arrays: keys (n, width) in ascending order
    with no repeated rows, (e, t...) with t = weight . z, and counts the
    vectors of each.  The one entry of every lattice slice; it builds no
    dict, and the callers that keep the histogram keep these arrays
    (Histogram).

    A slice may be walked fiber by fiber along the coordinate of the
    reduced basis the reduced adjugate names or, when it has exactly one
    nonzero weight row, along that row, whichever plan costs less
    (_fiber_plan): Q splits as s^2 g^2/(2G) plus the norm of a kernel
    coset that depends on the fiber s only through a residue, and each
    weight as w_x x + w_s s, the theta decomposition of Jacobi forms
    (Eichler-Zagier, 1985, Thm 5.1).  Each kernel coset is a slice of the
    kernel form with the rows w_x != 0 as its weights and comes back
    through this entry, so kernels are fibered in turn wherever that is
    cheaper, down to a direct walk.  Folded exactly, the fibers give the
    direct walk's histogram, and every leaf, fold pair and cell of a plan
    is a distinct vector of the slice.  memo holds the kernel cosets the
    top-level walk has built (_kernel_cells): the outermost fibered call,
    given none, makes it, every kernel walk below shares it, and it is
    dropped on return, so each distinct kernel coset, up to sign, is
    walked once per slice walk and nothing outlives the walk.  The cheaper
    plan is taken unless the direct walk, at its estimated points plus
    _WALK_SETUP per level, costs no more.  A kernel's plan never costs
    more than the direct walk the enclosing slice counted for it, so the
    chosen plan's cost bounds the whole recursion, and it is refused
    before any walk when it passes ENUMERATION_BUDGET
    (EnumerationBudgetError); a direct walk keeps the refusals of
    _leaf_chunks and tallies each of its blocks, then merges them with one
    more tally weighted by their counts.
    """
    est = _ellipsoid_points(form.rank, form.det, bound, scale)
    direct = est + _WALK_SETUP * form.rank
    plan = _fiber_plan(form, bound, scale, h0, weights, est, direct)
    if plan is not None and plan[0] < direct:
        if plan[0] > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"estimated cost {plan[0]:.2e} of the fibered walk exceeds budget {ENUMERATION_BUDGET:.2e}"
            )
        return _fibered_cells(form, bound, scale, plan, memo)
    blocks = [_tally_cells([e, *ts]) for e, ts in _leaf_chunks(form, bound, scale, h0, weights)]
    if len(blocks) == 1:
        return blocks[0]
    keys = np.concatenate([np.zeros((0, 1 + len(weights)), dtype=np.int64)] + [k for k, _ in blocks])
    counts = np.concatenate([np.zeros(0, dtype=np.int64)] + [n for _, n in blocks])
    del blocks
    return _tally_cells(list(keys.T), counts)


class Histogram(Mapping):
    """A read-only histogram {(e, t...): count} over two int64 arrays:
    rows (n, width), ascending with no repeated rows, and their counts,
    both flagged non-writeable.  A lookup bisects the rows column by
    column."""

    __slots__ = ("rows", "counts")

    def __init__(self, rows, counts):
        rows.flags.writeable = counts.flags.writeable = False
        self.rows, self.counts = rows, counts

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def __getitem__(self, key):
        lo, hi = 0, len(self.counts) if len(key) == self.rows.shape[1] else 0
        for col, x in zip(self.rows.T, key):
            lo, hi = lo + int(col[lo:hi].searchsorted(x)), lo + int(col[lo:hi].searchsorted(x, "right"))
        if lo == hi:
            raise KeyError(key)
        return int(self.counts[lo])

    def items(self):
        return list(zip(self, self.counts.tolist()))

    def values(self):
        return self.counts.tolist()


def insertion_histogram(form: QuadraticForm, bound: int, *, scale: int = 1, h0=None, weights=()) -> Histogram:
    """Histogram of lattice vectors z = h0 + scale*u with Q(z) <= bound.

    Keys are (e, t_1, ..., t_m) with e = Q(z) and t_i = weight_i . z, all
    exact integers; values count the vectors landing in the cell.  The
    result is a read-only Histogram over the arrays the walk returned,
    which the form keeps per slice (scale, h0) and then per weights, and
    no dict is built: a kept histogram of the slice with at least this
    bound serves the call, cut at the bound on its ascending e column,
    when it has the same weights, or, when none are asked for, with its
    weights summed out by one _tally_cells.  ValueError on entry for
    bound < 0, scale < 1, or an h0 or a weight row whose length is not
    the rank.

    Every slice goes through _slice_cells: with any number of weight rows
    (a complex insertion vector has two, and a dual sum adds a residue
    row) it is walked fiber by fiber along one coordinate of the reduced
    basis, carrying the rows into the kernel walks, or along its one
    nonzero row, recursively through the kernels, wherever the estimated
    cost says so, and directly otherwise.  The walk keeps a memo of the
    kernel cosets it has built, for this call only, so each distinct
    kernel coset, up to sign, is walked once; nothing of it is kept on
    the form.  Either way the histogram is the direct walk's exactly.
    Every slice and every walk is refused before allocating:
    EnumerationBudgetError above ENUMERATION_BUDGET estimated points,
    OverflowError when an int64 partial could overflow.
    """
    if bound < 0 or scale < 1:
        raise ValueError(f"bound {bound} must be >= 0 and scale {scale} >= 1")
    h0 = (0,) * form.rank if h0 is None else tuple(int(x) for x in h0)
    weights = tuple(tuple(int(x) for x in wrow) for wrow in weights)
    if len(h0) != form.rank or any(len(wrow) != form.rank for wrow in weights):
        raise ValueError(f"h0 and every weight row must have length {form.rank}, the rank")
    kept = form._cells.setdefault((scale, h0), {})
    for w2, (b2, hist) in kept.items():
        if b2 >= bound and (w2 == weights or not weights):
            cut = int(hist.rows[:, 0].searchsorted(bound, side="right"))
            rows, counts = hist.rows[:cut], hist.counts[:cut]
            return Histogram(rows, counts) if w2 == weights else Histogram(*_tally_cells([rows[:, 0]], counts))
    hist = Histogram(*_slice_cells(form, bound, scale, h0, weights))
    kept[weights] = (bound, hist)
    return hist


def _tally_cells(cols, counts=None):
    """(keys, counts) of one block of rows given as key columns (e, t...):
    its distinct rows as an (n, width) int64 array in ascending order, and
    each row's total, every row counted once or, given counts (int64),
    that many times.

    The key columns of each row are packed into one composite int64 code
    and tallied: over the whole code space when it is at most a few times
    the block, over the distinct codes (np.unique) when it is sparse, and
    by whole rows only when the space could pass 2^62.  Codes ascend with
    their rows, so the tallied codes, unpacked column by column, are the
    rows in ascending order either way.
    """
    if len(cols[0]) == 0:
        return np.zeros((0, len(cols)), dtype=np.int64), np.zeros(0, dtype=np.int64)
    lows = [int(c.min()) for c in cols]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
    space = math.prod(spans)
    if space > 2 ** 62:
        keys, inv = np.unique(np.column_stack(cols), axis=0, return_inverse=True)
        return keys, _tally(inv.ravel(), len(keys), counts)
    codes = np.zeros_like(cols[0])
    for col, lo, span in zip(cols, lows, spans):
        codes = codes * span + (col - lo)
    if space <= max(1 << 16, 8 * len(codes)):
        tally = _tally(codes, space, counts)
        uniq = np.nonzero(tally)[0]
        tally = tally[uniq]
    elif counts is None:
        uniq, tally = np.unique(codes, return_counts=True)
    else:
        uniq, inv = np.unique(codes, return_inverse=True)
        tally = _tally(inv, len(uniq), counts)
    keys = np.empty((len(uniq), len(cols)), dtype=np.int64)
    for i in reversed(range(len(cols))):
        keys[:, i] = uniq % spans[i] + lows[i]
        uniq = uniq // spans[i]
    return keys, tally


def _tally(index, size: int, counts):
    """Per-index totals over range(size): the rows of index counted once
    each, or counts times, exactly in int64."""
    if counts is None:
        return np.bincount(index, minlength=size)
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, index, counts)
    return out


def _sorted_walk(form: QuadraticForm, bound: int, scale: int, h0):
    """(z, Q(z)) for every z = h0 + scale*u with Q(z) <= bound, sorted by z.

    The walk's weight sums under identity weights are the vectors
    themselves, in the caller's coordinates.
    """
    f = form.rank
    identity = tuple(tuple(int(i == j) for j in range(f)) for i in range(f))
    out = []
    for e, Z in _leaf_chunks(form, bound, scale, h0, identity):
        out.extend(zip(zip(*(z.tolist() for z in Z)), e.tolist()))
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
    """An insertion vector with <v,v> = 1 built from a shortest vector
    (on a root lattice, the first root scaled as InsertionVector.from_root)."""
    m, mu = minimal_vector(form)
    return InsertionVector(m, Fraction(1, 2 * mu))


def _prime_powers(c: int):
    """[(p, e)] with c the product of the p^e, by trial division up to
    sqrt(ENUMERATION_BUDGET).  A cofactor left above ENUMERATION_BUDGET is
    refused with EnumerationBudgetError without factoring it."""
    out, p = [], 2
    while p * p <= min(c, ENUMERATION_BUDGET):
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 + (p > 2)
    if c > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"Gauss sum modulus has a factor {c} above budget {ENUMERATION_BUDGET:.2e}"
        )
    return out + [(c, 1)] * (c > 1)


def _valuation(x: int, p: int):
    """The p-adic valuation of x; infinite for x = 0."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _jordan_blocks(gram, lin, p: int, e: int):
    """Split sum over y mod p^e of e((y'By/2 + b'y)/p^e), B = gram with
    even diagonal and b = lin, into a product of 1x1 and 2x2 blocks by
    unimodular congruences in exact integers (Jordan splitting over Z_p;
    Cassels, Rational Quadratic Forms, ch. 8).

    Each step pivots on the entry of B of least p-valuation v, a
    diagonal one at a tie.  A diagonal pivot B_ii clears row i with the
    inverse of its unit part B_ii/p^v, leaving a 1x1 block.  For odd p an
    off-diagonal pivot B_ij moves onto the diagonal by y_i += y_j (the new
    B_ii = B_ii + 2 B_ij + B_jj has valuation v); for p = 2 the pair (i, j)
    is cleared with the inverse of its unit 2x2 part, whose determinant
    is odd, leaving a 2x2 block.  Off-diagonal entries are kept mod p^e
    and diagonal ones mod 2p^e, all the sum sees.  Returns [(quad, lin)]
    per block: the block's y'By/2 as an upper-triangular coefficient
    matrix and its linear part, mod p^e.
    """
    P = p ** e
    f = len(lin)
    B = [[x % (2 * P if i == j else P) for j, x in enumerate(row)] for i, row in enumerate(gram)]
    b = [x % P for x in lin]

    def add(k, i, lam):
        # y = U y' with U e_k = e_k + lam e_i: B -> U'BU, b -> U'b
        for row in B:
            row[k] += lam * row[i]
        B[k] = [x + lam * y for x, y in zip(B[k], B[i])]
        for j in range(f):
            B[j][k] = B[k][j] = B[k][j] % (2 * P if j == k else P)
        b[k] = (b[k] + lam * b[i]) % P

    live, blocks = list(range(f)), []
    while live:
        v, off, i, j = min(
            (_valuation(B[i][j], p), i != j, i, j) for n, i in enumerate(live) for j in live[n:]
        )
        if off and p > 2:
            add(i, j, 1)
            continue
        pair = (i, j) if off else (i,)
        if v < math.inf:
            unit = [[B[r][s] // p ** v for s in pair] for r in pair]
            if off:
                inv = pow(unit[0][0] * unit[1][1] - unit[0][1] ** 2, -1, P)
                solve = [[unit[1][1] * inv, -unit[0][1] * inv], [-unit[0][1] * inv, unit[0][0] * inv]]
            else:
                solve = [[pow(unit[0][0], -1, P)]]
            for k in live:
                s = [B[r][k] // p ** v for r in pair]
                if k not in pair and any(s):
                    for r, row in zip(pair, solve):
                        add(k, r, -sum(x * y for x, y in zip(row, s)) % P)
        blocks.append((
            [[B[r][s] // (1 + (r == s)) % P * (n <= m) for m, s in enumerate(pair)] for n, r in enumerate(pair)],
            [b[r] for r in pair],
        ))
        live = [k for k in live if k not in pair]
    return blocks


def _unit_block(quad, lin, Q: int):
    """The sum s over y mod Q = p^m of e((y'quad y + lin'y)/Q) of one
    stripped block of _jordan_blocks, in closed form: (|s|^2, phase) with
    s = sqrt(|s|^2) e(phase), an int and a Fraction, or None for s = 0.

    A 1x1 block u y^2 + b y at odd p (or m = 0) is, with b/2 taken mod Q,
    e(-(b/2)^2 u^-1/Q) (u/Q) eps_Q sqrt(Q), eps_Q = 1 for Q = 1 mod 4 and i
    for Q = 3 mod 4, the Jacobi symbol (u/Q) = (u/p)^m from
    kronecker_symbol.  At p = 2 it is 2 for m = 1 and odd b, and for m >= 2
    and b = 2b' it is e(-b'^2 u^-1/2^m) (1 + i^u) (2/u)^m 2^(m/2); any other
    1x1 block at 2 vanishes (mod 2 y -> y + 1 negates it for even b, and
    mod 2^m y -> y + 2^(m-1) for odd b).  A unit 2x2 block at 2, Gram
    S = [[2a, c], [c, 2b]] with c odd, is shifted by t = -S^-1 lin mod 2^m
    to e((t'St/2 + lin't)/2^m) times the sum of its quadratic part alone:
    2^m when det S = 7 mod 8 (hyperbolic) and (-1)^m 2^m when det S = 3
    mod 8, that is (det S/2^m) 2^m as a Kronecker symbol (Berndt, Evans
    and Williams, Gauss and Jacobi Sums, ch. 1; Cassels, Rational
    Quadratic Forms, ch. 8).
    """
    if len(lin) == 2:
        (a, c), (_, b) = quad
        det = 4 * a * b - c * c
        inv = pow(det, -1, Q)
        t = (c * lin[1] - 2 * b * lin[0]) * inv % Q, (c * lin[0] - 2 * a * lin[1]) * inv % Q
        const = a * t[0] ** 2 + c * t[0] * t[1] + b * t[1] ** 2 + lin[0] * t[0] + lin[1] * t[1]
        return Q * Q, Fraction(2 * const + Q * (kronecker_symbol(det, Q) < 0), 2 * Q)
    ((u,),), (b,) = quad, lin
    if Q % 2 == 0 and b % 2 == (Q > 2):
        return None
    if Q == 2:
        return 4, Fraction(0)
    if Q % 2:  # eighths of a turn: eps_Q, or 1 + i^u = sqrt(2) e(+-1/8); then the sign of (u/Q)
        half, norm, eighths = b * (Q + 1) // 2, Q, 2 * (Q % 4 == 3)
    else:
        half, norm, eighths = b // 2, 2 * Q, 2 - u % 4
    eighths += 4 * (kronecker_symbol(u, Q) < 0)
    return norm, Fraction(8 * (-half * half * pow(u, -1, Q) % Q) + eighths * Q, 8 * Q)


def gauss_sum(form: QuadraticForm, a: int, d: int, c: int, h, q) -> complex:
    """sum over g = h mod N, g mod cN of e((a Q(g) + d Q(q) + g'Aq) / cN^2),
    for h and q in L' (A h = A q = 0 mod N; else the sum depends on the
    representative, and ValueError is raised).  c must be positive.  The
    sum depends on q's class only when a d = 1 mod c: then q -> q + N u is
    the relabelling g -> g - d N u, which changes the numerator by
    (1 - a d) N <g, u> + d (a d - 1) N^2 Q(u), a multiple of cN^2; for
    other (a, d) it may depend on q's representative.  Both callers, the
    cusp and gauss_closed_form laws, pass such a pair, read off a matrix
    of determinant 1.

    With g = h + N w the numerator is const + N^2 (beta'w + a Q(w)), where
    const = a Q(h) + d Q(q) + h'Aq and beta = (a Ah + Aq)/N is integral, so
    the sum is e(const/cN^2) sum over w mod c of e((a Q(w) + beta'w)/c).
    By the CRT, with c the product of the p^e and u_p = (c/p^e)^-1 mod p^e,
    that sum is the product over p of the sums over w mod p^e of
    e(u_p (a Q(w) + beta'w)/p^e), and a Jordan splitting of u_p a A over
    Z_p (_jordan_blocks) makes each one a product of 1x1 and 2x2 blocks.

    A block of size n, quadratic part p^v q' (v <= e largest) and linear
    part b is stripped to its unit part: with y = y1 + p^(e-v) y2 the
    cross and y2 terms are multiples of p^e, so it is p^(vn) [p^v | b]
    times the sum over y1 mod p^(e-v) of e((q'(y1) + (b/p^v)'y1)/p^(e-v))
    (Cassels, Rational Quadratic Forms, ch. 8), which _unit_block gives
    in closed form.  So no point is summed: |sum|^2 is multiplied out as
    an int and the phase as a Fraction, and both become floats once, at
    the end; an exact 0j is decided from valuations and the unit blocks.

    c is factored by trial division up to sqrt(ENUMERATION_BUDGET), and a
    cofactor left above the budget is refused unfactored with
    EnumerationBudgetError; that is conservative only for c with two
    prime factors above 7,746.  A sum with |sum| >= 2^1000, which could
    leave the float range, is refused the same way.
    """
    if c <= 0:
        raise ValueError("gauss_sum requires c > 0")
    N = form.level
    hrep, qrep = (
        x.rep if isinstance(x, CongruenceClass) else tuple(int(y) for y in x) for x in (h, q)
    )
    for rep in (hrep, qrep):
        if any(x % N for x in form._gram_times(rep)):
            raise ValueError(f"gauss_sum needs classes of L': A{rep} is not 0 mod N = {N}")
    M = c * N * N
    const = a * form.q_value(hrep) + d * form.q_value(qrep) + form.bilinear(hrep, qrep)
    beta = [x // N for x in form._gram_times([a * hj + qj for hj, qj in zip(hrep, qrep)])]
    norm, phase = 1, Fraction(const, M)
    for p, e in _prime_powers(c):
        P = p ** e
        u = pow(c // P, -1, P)
        gram = [[u * a * x for x in row] for row in form.gram]
        for quad, lin in _jordan_blocks(gram, [u * x for x in beta], p, e):
            pv = math.gcd(P, *chain.from_iterable(quad))  # p^v
            if math.gcd(pv, *lin) < pv:
                return 0j
            block = _unit_block([[x // pv for x in row] for row in quad], [x // pv for x in lin], P // pv)
            if block is None:
                return 0j
            norm *= pv ** (2 * len(lin)) * block[0]
            phase += block[1]
    if norm.bit_length() > 2000:
        raise EnumerationBudgetError(f"a Gauss sum of about 2^{norm.bit_length() // 2} leaves the float range")
    k = max(norm.bit_length() - 1000, 0) // 2  # sqrt(norm) = 2^k sqrt(norm / 4^k), a float below 2^1024
    return cmath.rect(math.ldexp(math.sqrt(norm >> 2 * k), k), 2 * pi * (phase % 1))


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
    """Read {"gram": [[...], ...]} from a JSON file; InvalidFormError for any other shape."""
    with open(path) as fh:
        data = json.load(fh)
    gram = data.get("gram") if isinstance(data, dict) else None
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise InvalidFormError("not-a-gram-file", 'expected a JSON object {"gram": [[...], ...]}')
    return QuadraticForm(gram)
