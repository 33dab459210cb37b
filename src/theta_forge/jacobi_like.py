"""Generating series in the X-direction and the quasimodular completions.

The X-expansion of the insertion thetas, the exponential of E_2, their
product, the E_2-completed series, and the cusp-form combination built
from it.  Everything in this module is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import GaussianRational, pairing_coeff
from .lattice import InsertionVector, QuadraticForm, first_root
from .modforms import ThetaSpec, eisenstein_e2, eisenstein_e2k, theta_expand
from .qseries import FracQSeries, XSeries


@dataclass(frozen=True)
class JacobiLikeForm:
    """An XSeries together with its transformation data.

    Under the weight-k action the series picks up exp(c m X / (c tau + d))
    with the stored index m; index 0 is ordinary (vector-valued) modular.
    """

    xseries: XSeries
    weight: int
    index: GaussianRational
    level: int
    form: Optional[QuadraticForm] = None

    def character(self, n: int) -> int:
        return self.form.character(n) if self.form is not None else 1

    def ycoeff(self, n: int) -> FracQSeries:
        return self.xseries.ycoeff(n)

    def __mul__(self, other: "JacobiLikeForm") -> "JacobiLikeForm":
        if not isinstance(other, JacobiLikeForm):
            return NotImplemented
        # weight and index are additive under the slash action; the level of
        # the product divides the lcm
        form = self.form if other.form is None else other.form
        if self.form is not None and other.form is not None and self.form != other.form:
            form = None
        return JacobiLikeForm(
            xseries=self.xseries * other.xseries,
            weight=self.weight + other.weight,
            index=self.index + other.index,
            level=math.lcm(self.level, other.level),
            form=form,
        )


def theta_generating(form: QuadraticForm, v: InsertionVector, x_prec: int, q_prec: int) -> JacobiLikeForm:
    """Y^n coefficient = (2^n/(2n)!) theta(form, v, 2n) exactly.

    Weight is the half rank, the index is <v,v>, and the character is the
    form's own.  All n share one cached lattice histogram.
    """
    if x_prec < 1:
        raise ValueError("x_prec must be >= 1")
    ycoeffs = []
    for n in range(x_prec):
        theta = theta_expand(ThetaSpec(form, v, 2 * n), q_prec)
        ycoeffs.append(theta * Fraction(2 ** n, math.factorial(2 * n)))
    return JacobiLikeForm(
        xseries=XSeries(ycoeffs),
        weight=form.half_rank,
        index=v.norm(form),
        level=form.level,
        form=form,
    )


def e2_exponential(x_prec: int, q_prec: int, sign: int = 1) -> JacobiLikeForm:
    """Y^n coefficient = (-sign)^n E_2^n / n!; the X-exponential of E_2.

    sign -1 is the series with X replaced by -X.  The index equals sign:
    the weight-0 action produces exp(sign c X / (c tau + d)), which is
    what lets the product with the theta generating series cancel indices.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if x_prec < 1:
        raise ValueError("x_prec must be >= 1")
    e2 = eisenstein_e2(q_prec)
    ycoeffs = []
    power = FracQSeries.constant(1, q_prec)
    for n in range(x_prec):
        if n:
            power = power * e2
        scale = Fraction((-sign) ** n, math.factorial(n))
        ycoeffs.append(power * scale)
    return JacobiLikeForm(
        xseries=XSeries(ycoeffs),
        weight=0,
        index=GaussianRational(sign),
        level=1,
    )


def completed_theta(form: QuadraticForm, v: InsertionVector, k: int, q_prec: int) -> FracQSeries:
    """sum over t of pairing_coeff(t,k) (<v,v> E_2)^t theta(form, v, k-2t).

    Exact; k is the full even insertion index, and for every v the result
    transforms with weight half_rank + k.  k = 0 is the plain theta series.
    """
    if k % 2 or k < 0:
        raise ValueError("the insertion index k must be even and >= 0")
    nv = v.norm(form) if k else 1
    # theta_k first: the form keeps its weighted histogram, and theta_0 is
    # summed out of it; then Horner in E_2 from the top power of E_2 down
    terms = [theta_expand(ThetaSpec(form, v, k - 2 * t), q_prec) * (pairing_coeff(t, k) * nv ** t) for t in range(k // 2 + 1)]
    e2 = eisenstein_e2(q_prec)
    total = terms.pop()
    for term in reversed(terms):
        total = total * e2 + term
    return total


def cusp_combination(form: QuadraticForm, v: InsertionVector, k: int, q_prec: int) -> FracQSeries:
    """Completed series at index 2k minus its Eisenstein part, for unit v.

    The subtraction pairing_coeff(k,2k) (-1/12)^k theta E_2k removes the
    value at i-infinity; for k >= 2 the difference is a cusp form, and its
    constant term is exactly 0 by construction.  It needs <v,v> = 1, as
    the completed constant term is pairing_coeff(k,2k) (-<v,v>/12)^k.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("k must be an integer >= 2")
    if not v.is_unit(form):
        raise ValueError(f"insertion vector must have <v,v> = 1, got {v.norm(form)}")
    psi = completed_theta(form, v, 2 * k, q_prec)
    eis = (
        theta_expand(ThetaSpec.plain(form), q_prec)
        * eisenstein_e2k(k, q_prec)
        * (pairing_coeff(k, 2 * k) * Fraction(-1, 12) ** k)
    )
    return psi - eis


def verify_root_identity(form: QuadraticForm, q_prec: int, root=None):
    """Check that the index-4 completed series of a root equals its
    Eisenstein part: returns (passed, residual series).

    The root (a vector with Q = 1) is scaled to the unit insertion vector;
    when none is given the lexicographically first root is used.  Passing
    means every residual coefficient through q_prec is exactly zero.
    """
    if root is None:
        root = first_root(form)
        if root is None:
            raise ValueError("form has no root (no vector with Q = 1)")
    elif form.q_value(root) != 1:
        raise ValueError(f"{root} is not a root: Q = {form.q_value(root)}")
    v = InsertionVector.from_root(root)
    residual = cusp_combination(form, v, 2, q_prec)
    return residual.is_zero(), residual
