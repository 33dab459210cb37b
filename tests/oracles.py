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
