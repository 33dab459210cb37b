"""Independent reference implementations for pinning test values.

Everything here is deliberately naive: box scans instead of the tree
enumerator, closed-form double sums instead of recurrences, Euler's
criterion instead of reciprocity.  Slow but hard to get wrong.
"""

import math
from cmath import exp as cexp
from fractions import Fraction
from itertools import product
from math import lcm, pi

import numpy as np

from theta_forge.lattice import (
    ENUMERATION_BUDGET,
    CongruenceClass,
    EnumerationBudgetError,
    InvalidFormError,
    QuadraticForm,
)


def quad_value_twice(gram, x):
    """x'Ax as an exact integer."""
    f = len(gram)
    return sum(gram[i][j] * x[i] * x[j] for i in range(f) for j in range(f))


def box_enumerate(gram, bound):
    """All integer vectors with x'Ax/2 <= bound, by scanning a crude box.

    The box radius per coordinate comes from a float matrix inverse; the
    membership test itself is exact integer arithmetic, and the radius is
    padded by one to make float error harmless.
    """
    f = len(gram)
    inv = _float_inverse(gram)
    radii = [int(math.isqrt(int(2 * bound * inv[i][i])) + 2) for i in range(f)]
    out = []
    for x in product(*[range(-r, r + 1) for r in radii]):
        if quad_value_twice(gram, x) <= 2 * bound:
            out.append(tuple(x))
    return sorted(out)


def _float_inverse(gram):
    f = len(gram)
    a = [[float(v) for v in row] + [1.0 if i == j else 0.0 for j in range(f)]
         for i, row in enumerate(gram)]
    for col in range(f):
        piv = max(range(col, f), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(f):
            if r != col and a[r][col]:
                fac = a[r][col]
                a[r] = [v - fac * w for v, w in zip(a[r], a[col])]
    return [row[f:] for row in a]


def theta_coefficients(gram, prec):
    """Coefficient list of sum q^Q(m) through q^(prec-1), via the box scan."""
    counts = [0] * prec
    for m in box_enumerate(gram, prec - 1):
        counts[quad_value_twice(gram, m) // 2] += 1
    return counts


def insertion_theta_loop(gram, w, s, k, prec):
    """{e: (re, im)}: sum of s^(k/2) (w'Am)^k over m with Q(m) = e < prec,
    for even k and a Q(i)-vector w (components with .re and .im); one
    Fraction pair per box vector."""
    f = len(gram)
    out = {}
    for m in box_enumerate(gram, prec - 1):
        am = [sum(gram[i][j] * m[j] for j in range(f)) for i in range(f)]
        t_re = sum(Fraction(w[i].re) * am[i] for i in range(f))
        t_im = sum(Fraction(w[i].im) * am[i] for i in range(f))
        re, im = Fraction(s) ** (k // 2), Fraction(0)
        for _ in range(k):
            re, im = re * t_re - im * t_im, re * t_im + im * t_re
        e = quad_value_twice(gram, m) // 2
        old = out.get(e, (0, 0))
        out[e] = (old[0] + re, old[1] + im)
    return {e: c for e, c in out.items() if c != (0, 0)}


def bernoulli_double_sum(n):
    """B_n from the explicit double sum over set partitions."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = 0
        for j in range(k + 1):
            term = math.comb(k, j) * j ** n
            inner += -term if j % 2 else term
        total += Fraction(inner, k + 1)
    return total


def sigma_naive(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _legendre_euler(a, p):
    # odd prime p, via Euler's criterion
    r = pow(a, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def kronecker_euler(a, n):
    """Kronecker symbol built from prime factorization and Euler's criterion."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    for p in _prime_factors(n):
        if p == 2:
            if a % 2 == 0:
                return 0
            result *= 1 if a % 8 in (1, 7) else -1
        else:
            result *= _legendre_euler(a, p)
        if result == 0:
            return 0
    return result


def one_dim_theta(y, tol=1e-15):
    """sum over n in Z of exp(-2 pi n^2 y) for real y > 0."""
    total = 1.0
    n = 1
    while True:
        term = math.exp(-2 * math.pi * n * n * y)
        if term < tol:
            return total
        total += 2 * term
        n += 1


def coset_sum_loop(cells, tau, M, insert=None, t_mod=None):
    """sum of count * insert(key) * exp(2 pi i tau e/M) over a histogram
    {(e, t...): count}, every t reduced mod t_mod when given, term by term
    in the order of the key (-e, t...), smallest terms first: the per-cell
    loop the numpy coset sum replaced."""
    if t_mod is not None:
        folded = {}
        for (e, *ts), count in cells.items():
            key = (e, *(t % t_mod for t in ts))
            folded[key] = folded.get(key, 0) + count
        cells = folded
    total = 0j
    for key in sorted(cells, key=lambda kk: (-kk[0],) + kk[1:]):
        term = cells[key] * cexp(2j * pi * tau / M * key[0])
        if insert is not None:
            term *= insert(key)
        total += term
    return total


def gauss_sum_bruteforce(form, a, d, c, h, q):
    """sum over g = h mod N, g mod cN of e((a Q(g) + d Q(q) + g'Aq) / cN^2).

    One Fraction phase per point: the loop the library kernel replaced.
    """
    if c <= 0:
        raise ValueError("gauss_sum requires c > 0")
    hrep = h.rep if hasattr(h, "rep") else tuple(int(x) for x in h)
    qrep = q.rep if hasattr(q, "rep") else tuple(int(x) for x in q)
    N = form.level
    qq = form.q_value(qrep)
    denom = c * N * N
    total = 0j
    for w in product(range(c), repeat=form.rank):
        g = tuple(hrep[i] + N * w[i] for i in range(form.rank))
        num = a * form.q_value(g) + d * qq + form.bilinear(g, qrep)
        frac = Fraction(num, denom) % 1
        total += cexp(2j * pi * float(frac))
    return total


_CHUNK = 1 << 13  # points per int64 chunk of the two Gauss loops below


def gauss_sum_walk(form: QuadraticForm, a: int, d: int, c: int, h, q) -> complex:
    """sum over g = h mod N, g mod cN of e((a Q(g) + d Q(q) + g'Aq) / cN^2).

    The vectorized c^rank block walk the library's Jordan-block sum
    replaced, kept as a fast oracle beside gauss_sum_bruteforce.

    Phases are exact rationals mod 1; only the final exponentials are
    floating point.  With g = h + N w, w in [0, c)^rank, the numerator is
    a Q(h) + d Q(q) + h'Aq + N (a Ah + Aq)'w + a N^2 Q(w).  Everything that
    depends on h, q, a or d is reduced mod cN^2 in Python integers, so the
    walk over w runs in int64 blocks of _CHUNK points; the residues
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
    for start in range(0, points, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, points), dtype=np.int64)
        w = [idx // c ** (f - 1 - i) % c for i in range(f)]
        qw = sum(u * w[i] * w[j] for i, j, u in quad if u) % c
        num = const + sum(lin[i] * w[i] for i in range(f)) + aq * qw
        counts += np.bincount(num % M, minlength=M)
    return complex(counts @ np.exp(2j * np.pi * np.arange(M) / M))


def unit_block_loop(quad, lin, Q: int) -> complex:
    """sum over y mod Q of e((y'quad y + lin'y)/Q) for one block of
    lattice._jordan_blocks (quad upper-triangular), point by point.

    The loop the library's closed forms replaced: each point's exact
    residue r = y'((quad y + lin) mod Q) mod Q is an int64, read off one
    table of e(r/Q), _CHUNK points at a time; Q^size must stay below
    ENUMERATION_BUDGET and Q below 2^26.
    """
    quad, lin = np.array(quad, dtype=np.int64), np.array(lin, dtype=np.int64)
    n = len(lin)
    if Q ** n > ENUMERATION_BUDGET or Q >= 1 << 26:
        raise EnumerationBudgetError(f"{Q}^{n} block points exceed the oracle's reach")
    table, total = np.exp(2j * np.pi / Q * np.arange(Q)), 0j
    for start in range(0, Q ** n, _CHUNK):
        y = np.array(np.unravel_index(np.arange(start, min(start + _CHUNK, Q ** n)), (Q,) * n))
        total += table[(y * ((quad @ y + lin[:, None]) % Q)).sum(axis=0) % Q].sum()
    return complex(total)


def gauss_orthogonality_residual_loop(form, b):
    """max over class pairs (h, g) of |sum_q e((g - bh)'Aq/N^2) - det [g = bh]|.

    One Fraction phase per class triple: the loop the library's phase-matrix
    product replaced.
    """
    N = form.level
    classes = [h.rep for h in form.congruence_classes()]
    residual = 0.0
    for h in classes:
        bh = tuple((b * x) % N for x in h)
        for g in classes:
            diff = tuple(gi - bi for gi, bi in zip(g, bh))
            total = sum(
                cexp(2j * pi * float(Fraction(form.bilinear(diff, q), N * N) % 1))
                for q in classes
            )
            residual = max(residual, abs(total - (form.det if g == bh else 0)))
    return residual


def insertion_norm_loop(gram, w, s):
    """s * w'Aw for a Q(i)-vector w (components with .re and .im), as the
    exact pair (re, im): one Gaussian product per Gram entry."""
    f = len(gram)
    acc_re = acc_im = Fraction(0)
    for i in range(f):
        in_re = in_im = Fraction(0)
        for j in range(f):
            in_re += gram[i][j] * w[j].re
            in_im += gram[i][j] * w[j].im
        acc_re += w[i].re * in_re - w[i].im * in_im
        acc_im += w[i].re * in_im + w[i].im * in_re
    return acc_re * s, acc_im * s


def integral_weights_loop(gram, w):
    """(den, rows) with row_i . m = den * component_i of w'Am, den minimal.

    Column sums of w'A over Q(i), then the lcm of every denominator; one
    row when w'A is real, two (real then imaginary part) otherwise.
    """
    f = len(gram)
    wa = [
        (sum(Fraction(w[i].re) * gram[i][j] for i in range(f)),
         sum(Fraction(w[i].im) * gram[i][j] for i in range(f)))
        for j in range(f)
    ]
    den = 1
    for re, im in wa:
        den = lcm(den, re.denominator, im.denominator)
    re_row = tuple(int(den * re) for re, _ in wa)
    im_row = tuple(int(den * im) for _, im in wa)
    if any(im_row):
        return den, (re_row, im_row)
    return den, (re_row,)


def series_product_loop(a, b):
    """a * b for two FracQSeries by the schoolbook double loop: one Q(i)
    product per pair of terms, the product the packed-integer kernel
    replaced."""
    a, b = a._aligned(b)
    prec = min(a.prec, b.prec)
    out = {}
    for e1, c1 in a.coeffs.items():
        if e1 >= prec:
            continue
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e >= prec:
                continue
            p = c1 * c2
            out[e] = out[e] + p if e in out else p
    return type(a)(out, prec=prec, exp_denom=a.exp_denom)


def series_sum_loop(a, b):
    """a + b for two FracQSeries, one Q(i) sum per exponent, on the finer
    exponent lattice and to the lower precision."""
    a, b = a._aligned(b)
    prec = min(a.prec, b.prec)
    out = {}
    for series in (a, b):
        for e, c in series.coeffs.items():
            if e < prec:
                out[e] = out[e] + c if e in out else c
    return type(a)(out, prec=prec, exp_denom=a.exp_denom)


def series_negation_loop(a):
    """-a, one Q(i) negation per term."""
    return type(a)({e: -c for e, c in a.coeffs.items()}, prec=a.prec, exp_denom=a.exp_denom)


def series_scalar_loop(a, s):
    """s * a for a scalar s, one Q(i) product per term."""
    return type(a)({e: c * s for e, c in a.coeffs.items()}, prec=a.prec, exp_denom=a.exp_denom)


def series_rebase_loop(a, exp_denom):
    """a on the finer lattice exp_denom: each exponent and prec times the ratio."""
    k = exp_denom // a.exp_denom
    return type(a)({e * k: c for e, c in a.coeffs.items()}, prec=a.prec * k, exp_denom=exp_denom)


def series_truncate_loop(a, prec):
    """a to the lower precision prec: the terms below it."""
    return type(a)({e: c for e, c in a.coeffs.items() if e < prec}, prec=prec, exp_denom=a.exp_denom)


def float_walk_histogram(gram, bound, scale=1, h0=None, weights=()):
    """{(e, t...): count} over z = h0 + scale*u with z'Az/2 = e <= bound and
    t_i = weights_i . z, by the float walk the integer kernel replaced.

    Fincke-Pohst in the given basis, last coordinate first, with float LDL
    pruning against an inflated bound; the exponents are float partial
    sums rounded at the leaves, checked to sit within 1e-2 of an integer.
    """
    f = len(gram)
    L, d = ldl_exact(gram)
    Lf = np.array([[float(x) for x in row] for row in L])
    df = np.array([float(x) for x in d])
    bf = bound + 1e-6 * (1.0 + bound)
    h0 = np.array(h0 if h0 is not None else (0,) * f, dtype=np.int64)
    wmat = np.array(weights, dtype=np.int64).reshape(len(weights), f).T
    out = {}
    stack = [(np.zeros((1, f), dtype=np.int64), np.zeros(1), 0)]
    while stack:
        Z, S, depth = stack.pop()
        j = f - 1 - depth
        dot = Z[:, j + 1:].astype(np.float64) @ Lf[j + 1:, j]
        rad = np.sqrt(np.maximum(0.0, 2.0 * (bf - S) / df[j]))
        lo = np.ceil((-dot - rad - h0[j]) / scale - 1e-9).astype(np.int64)
        hi = np.floor((-dot + rad - h0[j]) / scale + 1e-9).astype(np.int64)
        counts = np.maximum(0, hi - lo + 1)
        total = int(counts.sum())
        if total == 0:
            continue
        rep = np.repeat(np.arange(len(Z)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        u = lo[rep] + np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        Z2 = Z[rep]
        Z2[:, j] = h0[j] + scale * u
        S2 = S[rep] + 0.5 * df[j] * (Z2[:, j] + dot[rep]) ** 2
        keep = S2 <= bf
        Z2, S2 = Z2[keep], S2[keep]
        if depth + 1 < f:
            stack.append((Z2, S2, depth + 1))
            continue
        e = np.rint(S2).astype(np.int64)
        if len(e) and not float(np.abs(S2 - e).max()) < 1e-2:
            raise ArithmeticError("leaf exponent is off an integer")
        inside = e <= bound
        for key in zip(e[inside].tolist(), *(Z2[inside] @ wmat).T.tolist()):
            out[key] = out.get(key, 0) + 1
    return out


def unimodular_pair(f, ops):
    """(U, U^-1) as integer row tuples, built from elementary column
    operations (i, j, k): column i of U gains k times column j, and row j
    of U^-1 loses k times row i."""
    u = [[int(a == b) for b in range(f)] for a in range(f)]
    v = [row[:] for row in u]
    for i, j, k in ops:
        for row in u:
            row[i] += k * row[j]
        v[j] = [x - k * y for x, y in zip(v[j], v[i])]
    return tuple(map(tuple, u)), tuple(map(tuple, v))


def congruent_gram(gram, u):
    """U'AU, exact."""
    f = len(gram)
    return tuple(
        tuple(
            sum(u[a][i] * gram[a][b] * u[b][j] for a in range(f) for b in range(f))
            for j in range(f)
        )
        for i in range(f)
    )


def block_gram(*grams):
    """The block-diagonal Gram matrix of the orthogonal sum of the forms."""
    f = sum(len(g) for g in grams)
    out = [[0] * f for _ in range(f)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return tuple(map(tuple, out))


def mat_vec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def skewed_basis(gram, target):
    """(U'AU, U, U^-1) for a fixed unimodular U, grown by column operations
    until some entry of U'AU reaches target: the same badly skewed basis
    on every call."""
    f = len(gram)
    ops, k = [], 0
    u, uinv = unimodular_pair(f, ops)
    skew = gram
    while max(abs(x) for row in skew for x in row) < target:
        i, j = k % f, (3 * k + 1) % f
        if i != j:
            ops.append((i, j, 1 + k % 2))
            u, uinv = unimodular_pair(f, ops)
            skew = congruent_gram(gram, u)
        k += 1
    return skew, u, uinv


def ldl_exact(gram):
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


def eliminate_fraction(gram):
    """(A^-1, (L, d)) by one Gauss-Jordan pass over Q in Fractions, columns
    in natural order with no pivot search: the pivots are the d of
    A = L D L', and by symmetry the normalized pivot row j holds column j
    of L.  Raises on the first pivot <= 0.  The reference for the
    fraction-free elimination of the package."""
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


def inverse_exact(gram):
    """A^-1 over Q by Gauss-Jordan with a search for a nonzero pivot."""
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


def congruence_classes_scan(form):
    """Every h in [0, N)^rank with A h = 0 mod N, in lexicographic order,
    by scanning all N^rank residues."""
    N = form.level
    return [
        h for h in product(range(N), repeat=form.rank)
        if not any(sum(a * x for a, x in zip(row, h)) % N for row in form.gram)
    ]
