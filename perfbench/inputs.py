"""Seeded input generation for the benchmark workloads.

Everything here is plain integer or float arithmetic written for the
benchmark; it calls nothing in theta_forge, so the program under test
receives only finished inputs.
"""

from __future__ import annotations

import math
import random


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def congruent_gram(gram, u):
    """U' A U, exact."""
    n = len(gram)
    au = [[sum(gram[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(u[k][i] * au[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def random_unimodular(n: int, rng: random.Random, steps: int):
    """Product of `steps` random elementary column operations and one
    random column sign flip: an integer matrix of determinant +-1."""
    u = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1)) * rng.randint(1, 2)
        for row in u:
            row[i] += k * row[j]
    flip = rng.randrange(n)
    for row in u:
        row[flip] = -row[flip]
    return u


def enumeration_cost(gram, bound: int) -> float:
    """Estimated node count of a Fincke-Pohst descent over the last
    coordinate first: sum over depths of the volume of the projected
    ellipsoid Q <= bound, at least one node per depth."""
    n = len(gram)
    # float LDL' with unit lower-triangular L
    lo = [[0.0] * n for _ in range(n)]
    d = [0.0] * n
    for j in range(n):
        d[j] = gram[j][j] - sum(lo[j][k] ** 2 * d[k] for k in range(j))
        lo[j][j] = 1.0
        for i in range(j + 1, n):
            lo[i][j] = (gram[i][j] - sum(lo[i][k] * lo[j][k] * d[k] for k in range(j))) / d[j]
    total = 0.0
    pivots = 1.0
    for depth in range(1, n + 1):
        pivots *= math.sqrt(d[n - depth])
        ball = math.pi ** (depth / 2) / math.gamma(depth / 2 + 1)
        total += max(1.0, ball * (2.0 * (bound + 1)) ** (depth / 2) / pivots)
    return total


def random_root(gram, rng: random.Random, steps: int = 24):
    """A seeded root (x'Ax = 2) of a form whose basis vectors are roots:
    a random basis vector moved by `steps` random simple reflections
    s_i(x) = x - (x'A e_i) e_i."""
    n = len(gram)
    if any(gram[i][i] != 2 for i in range(n)):
        raise ValueError("basis vectors must be roots")
    start = rng.randrange(n)
    x = [int(i == start) for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        x[i] -= sum(x[k] * gram[k][i] for k in range(n))
    return tuple(x)
