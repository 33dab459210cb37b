"""Even positive-definite forms and exact lattice-point bookkeeping.

Building a form runs one exact elimination of its Gram matrix (LDL
pivots and inverse, hence determinant and level).  The enumeration
engine walks integer vectors z = h0 + scale*u with Q(z) <= bound
(Fincke-Pohst), one coordinate at a time, in a basis the form reduces
once, on its first walk, by exact integer LLL, so a badly conditioned
Gram matrix of a good lattice costs what the good basis costs.  Pruning
compares a float LDL partial against an inflated bound; every frontier
row also carries exact int64 partials of 2Q and of its weight sums, so
the leaf test, the exponents and the weights are integer arithmetic and
the histograms feeding the series expansions carry no rounding.  A
histogram of the whole lattice under one weight row t = w.z is walked
fiber by fiber along t when that meets fewer vectors: Q splits as
t^2/(2G) plus the norm of a kernel-form coset that depends on t only
through a residue mod D (the theta decomposition of Jacobi forms,
Eichler-Zagier, 1985, Thm 5.1), so one walk of the rank f-1 kernel per
residue gives exactly the direct walk's histogram.  A family of class
slices g + scale*c*Z^f, g = h0 + scale*w for w in [0, c)^f, is walked
once as the coarse coset h0 + scale*Z^f: the walk codes every vector by
its slice, and each slice's histogram is kept under the key its own
call looks up (the rescale law's c^f class thetas of cA).  Every walk,
histogram, family, fiber or vector query, enters one walker that
refuses it before allocating: EnumerationBudgetError above
ENUMERATION_BUDGET estimated points, OverflowError when a partial or a
slice code could leave int64.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
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


def _eliminate(gram):
    """(A^-1, (L, d)) of a symmetric A by one exact Gauss-Jordan pass over Q.

    Columns are eliminated in their natural order with no pivot search, so
    the pivots are the d of A = L D L' with unit lower-triangular L, and by
    symmetry the normalized pivot row j holds column j of L.  Raises on the
    first pivot <= 0, that is unless A > 0.
    """
    f = len(gram)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(f)]
        for i, row in enumerate(gram)
    ]
    d, cols = [], []
    for j in range(f):
        pv = aug[j][j]
        if pv <= 0:
            raise InvalidFormError(
                "not-positive-definite",
                f"pivot {j} of the LDL factorization is {pv}",
            )
        d.append(pv)
        aug[j] = [x / pv for x in aug[j]]
        cols.append(aug[j][:f])
        for r in range(f):
            fac = aug[r][j]
            if r != j and fac:
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[j])]
    return tuple(tuple(row[f:]) for row in aug), (tuple(zip(*cols)), d)


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

    __slots__ = ("gram", "rank", "det", "level", "inverse_gram", "_lll", "_cells", "_dual")

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
        self.inverse_gram, (_, d) = _eliminate(rows)
        self.det = int(math.prod(d))
        n0 = 1
        for row in self.inverse_gram:
            for x in row:
                n0 = lcm(n0, x.denominator)
        if any((n0 * self.inverse_gram[i][i]) % 2 for i in range(f)):
            n0 *= 2
        self.level = n0
        # insertion histograms built for this form: (scale, h0) -> {weights: (bound, cells)}
        self._cells = {}
        self._dual = None
        # the walk's reduced basis, built on the first walk (see _reduced)
        self._lll = None

    @classmethod
    def _kernel(cls, gram, det):
        """The form of a weight row's kernel, of any rank, for the fiber walks
        of insertion_histogram.

        Built without the public checks and without an elimination: a walk
        needs only the Gram matrix, the rank, the determinant (given) and
        _reduced; the inverse and the level are left unset.
        """
        form = cls.__new__(cls)
        form.gram, form.rank, form.det = tuple(map(tuple, gram)), len(gram), det
        form._cells, form._dual, form._lll = {}, None, None
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
        """(gram, (L, d), U, U^-1, inv_diag) of the LLL-reduced basis the walk runs in.

        The columns of the unimodular U are the reduced basis in the
        original coordinates, gram = U'AU with exact LDL factors (L, d),
        and inv_diag is the diagonal of gram^-1, which bounds every
        coordinate of a vector in an ellipsoid.  Computed on the first
        walk and kept, so building a form costs no reduction.
        """
        if self._lll is None:
            # walked in LLL order: reversed (the walk fixes the last
            # coordinate first), the benchmark walks met up to 0.5% more
            # candidates and ran no faster
            basis, uinv = _lll_basis(self.gram)
            gram = tuple(tuple(self.bilinear(bi, bj) for bj in basis) for bi in basis)
            inv, ldl = _eliminate(gram)
            self._lll = (gram, ldl, tuple(zip(*basis)), uinv, tuple(inv[j][j] for j in range(self.rank)))
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


ENUMERATION_BUDGET = 60_000_000
_FRONTIER_CHUNK = 150_000  # rows per frontier block pushed back on the stack


def _leaf_chunks(form: QuadraticForm, bound: int, scale: int, h0, weights, split: int = 1):
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
    2Q <= 2 bound and the exponents are integer arithmetic.

    With split > 1 a last column of T names the fine slice
    h0 + scale*w + scale*split*Z^f of each vector by the code
    sum_i w_i split^i, w in [0, split)^f.  The walk packs the residues mod
    split of its own coordinates m = (y - hy)/scale level by level; as
    u = k0 + U m with k0 = (U hy - h0)/scale, one table over the split^f
    codes turns them into the caller's w = k0 + U m mod split at the leaf.

    Every walk is guarded before it reduces or allocates:
    EnumerationBudgetError above ENUMERATION_BUDGET estimated points,
    OverflowError when a partial or the code could pass 2^62.
    """
    f = form.rank
    # ellipsoid volume for z'Az <= 2(bound+1), shrunk to the u-lattice
    est = pi ** (f / 2) / math.gamma(f / 2 + 1) * (2.0 * (bound + 1)) ** (f / 2)
    est /= math.sqrt(form.det) * scale ** f
    if est > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"estimated {est:.2e} lattice points exceeds budget {ENUMERATION_BUDGET:.2e}"
        )
    if split ** f > 2 ** 62:
        raise OverflowError(f"{split}^{f} slice codes could pass 2^62 in int64")
    gram, (L, d), U, uinv, inv_diag = form._reduced()
    hy = [sum(a * x for a, x in zip(row, h0)) % scale for row in uinv]
    wy = [[sum(w[i] * U[i][j] for i in range(f)) for j in range(f)] for w in weights]
    # a candidate y_j lies in the projection of the inflated ellipsoid,
    # |y_j| <= sqrt(2 bf gram^-1_jj): 4(bound + 1) covers the margin and
    # the + 1 the rounding of each candidate range
    radii = [math.isqrt(math.ceil(4 * (bound + 1) * x)) + 1 for x in inv_diag]
    partial = sum(abs(a) * ri * rk for row, ri in zip(gram, radii) for a, rk in zip(row, radii))
    sums = [sum(abs(x) * r for x, r in zip(w, radii)) for w in wy]
    if max([4 * partial] + sums) > 2 ** 62:
        raise OverflowError(
            f"lattice walk to bound {bound} could pass 2^62 in int64 partials"
        )
    A = [[int(x) for x in row] for row in gram]
    Lf = [[float(x) for x in row] for row in L]
    df = [float(x) for x in d]
    if split > 1:
        k0 = [(sum(a * y for a, y in zip(row, hy)) - x) // scale % split for row, x in zip(U, h0)]
        powers = split ** np.arange(f, dtype=np.int64)
        digits = np.arange(split ** f, dtype=np.int64)[:, None] // powers % split
        Us = np.array([[x % split for x in row] for row in U], dtype=np.int64)
        relabel = (digits @ Us.T + k0) % split @ powers
    margin = 1e-6 * (1.0 + bound)
    bf = bound + margin

    # a frontier block: the columns y_(f-1), ..., y_(j+1) of its fixed
    # coordinates, the float LDL partials, the exact partials of 2Q, and one
    # column per weight row (and the code)
    zero = np.zeros(1, dtype=np.int64)
    stack = [((), np.zeros(1), zero, (zero,) * (len(wy) + (split > 1)))]
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
        lo = np.ceil((-dot - rad - hy[j]) / scale - 1e-9).astype(np.int64)
        hi = np.floor((-dot + rad - hy[j]) / scale + 1e-9).astype(np.int64)
        counts = np.maximum(0, hi - lo + 1)
        total = int(counts.sum())
        if total == 0:
            continue
        rep = np.repeat(np.arange(len(S)), counts)
        starts = np.cumsum(counts) - counts
        yj = hy[j] + scale * (np.arange(total, dtype=np.int64) + (lo - starts)[rep])
        q2 = Q2[rep] + yj * (A[j][j] * yj + lin[rep])
        leaf = depth + 1 == f
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
        if split > 1:
            code = T[-1][rep] + (yj - hy[j]) // scale % split * split ** j
            T2.append(relabel[code] if leaf else code)
        if leaf:
            yield q2 >> 1, T2
            continue
        Y2 = [y[rep] for y in Y] + [yj]
        for i in range(0, len(rep), _FRONTIER_CHUNK):
            block = slice(i, i + _FRONTIER_CHUNK)
            stack.append(
                (tuple(y[block] for y in Y2), S2[block], q2[block], tuple(t[block] for t in T2))
            )


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


def _fibered_cells(form: QuadraticForm, bound: int, row):
    """The (e, t) histogram over all z with Q(z) <= bound and t = row . z,
    walked fiber by fiber along t; None when that walk would not be shorter.

    In the reduced basis, V from _column_gcd splits y = V (x, s) with
    t = g s and x the coordinates of the row's kernel.  Completing the
    square on the Gram matrix [[K, b], [b', c0]] of that split gives
    Q(z) = Q_K(x + s c) + s^2 g^2/(2G) with K c = b and G = row A^-1 row',
    so with D the common denominator of c, u = D x + s D c runs over the
    coset s D c + D Z^(f-1) and Q(z) = Q_K(u)/D^2 + t^2/(2G): a fiber
    depends on s mod D only, and s and -s give mirrored cosets.  Every
    residue 0 <= r <= D/2 is walked once, on the kernel form at scale D,
    to the bound of its smallest fiber |s| = r, and folded into each fiber
    s = +-r mod D in exact integers.  That is the direct walk's histogram
    exactly, met in fewer vectors when the D residues are fewer than the
    2 s_max + 1 fibers; otherwise, and for a zero row, this returns None.
    """
    f = form.rank
    gram, _, U, uinv, _ = form._reduced()
    V, Vinv, g = _column_gcd([sum(row[i] * U[i][j] for i in range(f)) for j in range(f)])
    if g == 0:
        return None
    # the split Gram matrix has inverse (U V)^-1 A^-1 (U V)^-T, and row U V = g e_f,
    # so its last column is (U V)^-1 A^-1 row' / g: c is minus its head over its tail
    p = [sum(x * r for x, r in zip(inv, row)) for inv in form.inverse_gram]
    up = [sum(x * y for x, y in zip(urow, p)) for urow in uinv]
    q = [sum(x * y for x, y in zip(vrow, up)) for vrow in Vinv]
    c = [-x / q[-1] for x in q[:-1]]
    D = lcm(1, *(x.denominator for x in c))
    half = Fraction(g, 2 * q[-1])  # g^2/(2G), since G = row . p = g q_f
    sn, sd = half.numerator, half.denominator
    s_max = math.isqrt(bound * sd // sn)
    if D >= 2 * s_max + 1:
        return None
    gv = [[sum(x * V[k][j] for k, x in enumerate(r)) for j in range(f - 1)] for r in gram]
    K = [[sum(V[k][i] * gv[k][j] for k in range(f)) for j in range(f - 1)] for i in range(f - 1)]
    # det K = det A * (last entry of the split inverse) = det A * q_f / g, an integer
    kernel = QuadraticForm._kernel(K, int(form.det * q[-1] / g))
    Dc = [int(D * x) for x in c]
    # residue r = s mod D is walked at its smallest fiber |s| = r <= s_max;
    # r = 0 walks first, at the largest bound, so a refusal comes before any walk
    walks = [(r, D * D * (bound * sd - r * r * sn) // sd) for r in range(D // 2 + 1)]
    fibers = []
    for r, kbound in walks:
        norms: dict = {}
        for m, ts in _leaf_chunks(kernel, kbound, D, [r * x % D for x in Dc], ()):
            _accumulate_cells(norms, m, ts)
        fibers.append(norms)
    cells = {}
    for s in range(-s_max, s_max + 1):
        for (m,), count in fibers[min(s % D, -s % D)].items():
            e, rem = divmod(m * sd + s * s * sn * D * D, D * D * sd)
            if rem:
                raise ArithmeticError(f"Q_K = {m} on fiber s = {s} gives a non-integral norm")
            if e <= bound:
                cells[(e, g * s)] = count
    return cells


def insertion_histogram(form: QuadraticForm, bound: int, *, scale: int = 1, h0=None, weights=()):
    """Histogram of lattice vectors z = h0 + scale*u with Q(z) <= bound.

    Keys are (e, t_1, ..., t_m) with e = Q(z) and t_i = weight_i . z, all
    exact integers; values count the vectors landing in the cell.  The form
    keeps every histogram it builds, per slice (scale, h0) and then per
    weights; a kept histogram of the slice with at least this bound serves
    the call when it has the same weights or none are asked for.

    The whole lattice (scale 1) under one weight row is walked fiber by
    fiber along t (_fibered_cells: one walk of the row's kernel per
    residue of t, the theta decomposition of a Jacobi-like series) when
    that meets fewer vectors, and gives exactly the direct walk's
    histogram; every other slice is one direct walk, unless one walk of a
    coarser coset kept it with its whole class family (_keep_class_slices).
    Every walk refuses before allocating: EnumerationBudgetError above
    ENUMERATION_BUDGET estimated points, OverflowError when an int64
    partial could overflow.
    """
    if h0 is None:
        h0 = (0,) * form.rank
    h0 = tuple(int(x) for x in h0)
    weights = tuple(tuple(int(x) for x in wrow) for wrow in weights)
    width = 1 + len(weights)
    kept = form._cells.setdefault((scale, h0), {})
    for w2, (b2, cells2) in kept.items():
        if b2 >= bound and (w2 == weights or not weights):
            out: dict = {}
            for k2, c2 in cells2.items():
                if k2[0] <= bound:
                    out[k2[:width]] = out.get(k2[:width], 0) + c2
            return out
    cells = _fibered_cells(form, bound, weights[0]) if scale == 1 and len(weights) == 1 else None
    if cells is None:
        cells = {}
        for e, ts in _leaf_chunks(form, bound, scale, h0, weights):
            _accumulate_cells(cells, e, ts)
    kept[weights] = (bound, cells)
    return dict(cells)


def _keep_class_slices(form: QuadraticForm, bound: int, *, scale: int, h0, weights, split: int):
    """Keep the histograms of all split^f fine slices of one coset, from one walk of it.

    The coset h0 + scale*Z^f is the union of the slices
    g + scale*split*Z^f, g = h0 + scale*w for w in [0, split)^f.  One walk
    of the coset codes every vector by its slice (_leaf_chunks with
    split), and each slice's histogram is kept on the form under the key
    insertion_histogram(form, bound, scale=scale*split, h0=g mod
    scale*split, weights=weights) looks up, empty slices too, so every
    such call is then served without a walk.  The refusals are the walk's.
    """
    h0 = tuple(int(x) for x in h0)
    weights = tuple(tuple(int(x) for x in wrow) for wrow in weights)
    binned: dict = {}
    for e, ts in _leaf_chunks(form, bound, scale, h0, weights, split):
        _accumulate_cells(binned, e, ts)
    slices = [{} for _ in range(split ** form.rank)]
    for key, count in binned.items():
        slices[key[-1]][key[:-1]] = count
    fine = scale * split
    for code, cells in enumerate(slices):
        g = tuple((x + scale * (code // split ** i % split)) % fine for i, x in enumerate(h0))
        form._cells.setdefault((fine, g), {})[weights] = (bound, cells)


def _accumulate_cells(cells: dict, e, ts):
    """Fold one leaf block into the histogram.

    The key columns (e, t...) of each row are packed into one composite
    int64 code and counted: by bincount when the code space is at most a
    few times the block, by sorting (np.unique) when it is sparse, and by
    whole rows only when the space could pass 2^62.  The counted codes are
    unpacked column by column, in ascending code order either way.
    """
    cols = [e, *ts]
    lows = [int(c.min()) for c in cols]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
    space = math.prod(spans)
    if space > 2 ** 62:
        stacked = np.column_stack(cols)
        uniq, counts = np.unique(stacked, axis=0, return_counts=True)
        for row, c in zip(uniq.tolist(), counts.tolist()):
            cells[tuple(row)] = cells.get(tuple(row), 0) + c
        return
    codes = np.zeros_like(cols[0])
    for col, lo, span in zip(cols, lows, spans):
        codes = codes * span + (col - lo)
    if space > max(1 << 16, 8 * len(codes)):
        uniq, counts = np.unique(codes, return_counts=True)
    else:
        counts = np.bincount(codes)
        uniq = np.nonzero(counts)[0]
        counts = counts[uniq]
    parts = []
    for lo, span in zip(reversed(lows), reversed(spans)):
        parts.append((uniq % span + lo).tolist())
        uniq = uniq // span
    for key, c in zip(zip(*reversed(parts)), counts.tolist()):
        cells[key] = cells.get(key, 0) + c


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
