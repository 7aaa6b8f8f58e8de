"""Truncated power-series algebra over exact rationals.

Coefficients are stored as ordinary power-series coefficients c(n); the
exponential-generating-function view multiplies by n! at the boundary
(`egf_coefficient`).  Operations are exact through the stated order and never
silently extend it.  Products and exp run their quadratic loops over integer
numerators and reduce each output coefficient to lowest terms once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul


class TruncatedEGF:
    """Order-N truncation of sum c(n) x^n with Fraction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncatedEGF":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedEGF":
        return cls([1], order)

    @classmethod
    def x_power(cls, k: int, order: int, coeff=1) -> "TruncatedEGF":
        coeffs = [Fraction(0)] * (order + 1)
        if k <= order:
            coeffs[k] = Fraction(coeff)
        return cls(coeffs, order)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside the truncation 0..{self.order}")
        return self.coeffs[n]

    def egf_coefficient(self, n: int) -> Fraction:
        """n! times the n-th coefficient: the sequence value in EGF view."""
        return self.coefficient(n) * math.factorial(n)

    def truncate(self, order: int) -> "TruncatedEGF":
        if order > self.order:
            raise ValueError("cannot extend the truncation order")
        return TruncatedEGF(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        order = min(self.order, other.order)
        return TruncatedEGF(
            [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)], order
        )

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return self + -other

    def __neg__(self) -> "TruncatedEGF":
        return TruncatedEGF([-c for c in self.coeffs], self.order)

    def __repr__(self):
        return f"TruncatedEGF({self.coeffs!r}, order={self.order})"


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators: c(i) = nums[i] / den."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def series_mul(a: TruncatedEGF, b: TruncatedEGF) -> TruncatedEGF:
    """Exact Cauchy product, truncated to the smaller order.

    The product runs over integer numerators; each output coefficient is
    reduced to lowest terms once.
    """
    order = min(a.order, b.order)
    xs, x_den = _scaled(a.coeffs[: order + 1])
    ys, y_den = _scaled(b.coeffs[: order + 1])
    return TruncatedEGF(
        [Fraction(sum(map(mul, xs[: n + 1], ys[n::-1])), x_den * y_den)
         for n in range(order + 1)],
        order,
    )


def series_derive(a: TruncatedEGF) -> TruncatedEGF:
    """Termwise derivative; loses one order."""
    if a.order == 0:
        return TruncatedEGF.zero(0)
    return TruncatedEGF(
        [n * a.coeffs[n] for n in range(1, a.order + 1)], a.order - 1
    )


def series_integrate(a: TruncatedEGF) -> TruncatedEGF:
    """Termwise antiderivative with constant 0; gains one order."""
    out = [Fraction(0)]
    out += [a.coeffs[n] / (n + 1) for n in range(a.order + 1)]
    return TruncatedEGF(out, a.order + 1)


def series_exp(s: TruncatedEGF) -> TruncatedEGF:
    """exp of a series with zero constant term, via E' = s' E.

    With s(k) = S(k)/L over the lcm L of its denominators and
    e(n) = E(n)/(n! L^n), the recurrence (n+1) e(n+1) = sum_k (k+1) s(k+1) e(n-k)
    becomes  E(n+1) = sum_k (k+1) S(k+1) L^k n!/(n-k)! E(n-k)  over the
    integers; each e(n) is reduced to lowest terms once.
    """
    if s.coeffs[0] != 0:
        raise ValueError("series_exp requires zero constant term")
    nums, den = _scaled(s.coeffs)
    # (k+1) S(k+1) L^k, up to the last nonzero S
    top = max((k for k, c in enumerate(nums) if c), default=0)
    weights = [(k + 1) * nums[k + 1] * den**k for k in range(top)]
    numerators = [1]  # E(0), E(1), ...
    for n in range(s.order):
        falling = accumulate(range(n, 0, -1), mul, initial=1)  # n!/(n-k)!, k = 0..n
        numerators.append(sum(map(mul, weights, map(mul, falling, reversed(numerators)))))
    return TruncatedEGF(
        [Fraction(e, math.factorial(n) * den**n) for n, e in enumerate(numerators)], s.order
    )


def cycle_egf_exponent(l: int, order: int) -> TruncatedEGF:
    """x + x^2/2 + ... + x^l/l, truncated."""
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(1, min(l, order) + 1):
        coeffs[j] = Fraction(1, j)
    return TruncatedEGF(coeffs, order)


def involution_egf(order: int) -> TruncatedEGF:
    """exp(x + x^2/2): the EGF of the involution numbers."""
    return series_exp(cycle_egf_exponent(2, order))


def exp_x(order: int) -> TruncatedEGF:
    return series_exp(TruncatedEGF.x_power(1, order))


def partial_sum_transform(w: TruncatedEGF) -> TruncatedEGF:
    """w(x) + e^x * integral_0^x e^(-t) w(t) dt.

    By the paper's lemma, its n-th EGF coefficient is the sum of the first
    n + 1 EGF coefficients of w; the `egf` suite checks that.
    """
    order = w.order
    em = series_exp(TruncatedEGF.x_power(1, order, -1))
    inner = series_integrate(series_mul(em, w)).truncate(order)
    return w + series_mul(exp_x(order), inner)
