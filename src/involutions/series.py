"""Truncated exponential generating functions over exact numbers.

A series sum a(n) x^n / n! is stored as its EGF coefficients a(0..N): the
sequence values themselves, integers for every EGF this package builds.  On
those values a product is a binomial convolution, and d/dx and the integral
are index shifts, so no kernel rescales anything.  Operations are exact
through the stated order and never silently extend it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul


class TruncatedEGF:
    """Order-N truncation of sum a(n) x^n / n!, holding the values a(n)."""

    __slots__ = ("order", "values")

    def __init__(self, values, order: int | None = None):
        values = list(values)
        if order is None:
            order = len(values) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        # an integral Fraction becomes an int, so the kernels stay on ints
        values = [c.numerator if c.denominator == 1 else c for c in values[: order + 1]]
        values += [0] * (order + 1 - len(values))
        self.order = order
        self.values = values

    @classmethod
    def zero(cls, order: int) -> "TruncatedEGF":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedEGF":
        return cls([1], order)

    @classmethod
    def x_power(cls, k: int, order: int, coeff=1) -> "TruncatedEGF":
        """The series coeff * x^k, truncated."""
        if k < 0:
            raise ValueError("x_power requires k >= 0")
        values = [0] * (order + 1)
        if k <= order:
            values[k] = coeff * math.factorial(k)
        return cls(values, order)

    def egf_coefficient(self, n: int):
        """a(n), the n-th sequence value of the EGF."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside the truncation 0..{self.order}")
        return self.values[n]

    def coefficient(self, n: int) -> Fraction:
        """a(n)/n!, the n-th ordinary power-series coefficient."""
        return Fraction(self.egf_coefficient(n), math.factorial(n))

    def truncate(self, order: int) -> "TruncatedEGF":
        if order > self.order:
            raise ValueError("cannot extend the truncation order")
        return TruncatedEGF(self.values[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self.order == other.order and self.values == other.values

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        order = min(self.order, other.order)
        return TruncatedEGF(map(add, self.values[: order + 1], other.values), order)

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return self + -other

    def __neg__(self) -> "TruncatedEGF":
        return TruncatedEGF([-c for c in self.values], self.order)

    def __repr__(self):
        return f"TruncatedEGF({self.values!r}, order={self.order})"


def _binomial_rows(top: int):
    """Rows [C(n, 0), ..., C(n, n)] of Pascal's triangle for n = 0..top."""
    row = [1]
    for _ in range(top + 1):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def series_mul(a: TruncatedEGF, b: TruncatedEGF) -> TruncatedEGF:
    """Exact EGF product, truncated to the smaller order:
    h(n) = sum_k C(n,k) a(k) b(n-k)."""
    order = min(a.order, b.order)
    xs, ys = a.values, b.values
    return TruncatedEGF(
        [sum(map(mul, row, map(mul, xs, ys[n::-1])))
         for n, row in enumerate(_binomial_rows(order))],
        order,
    )


def series_derive(a: TruncatedEGF) -> TruncatedEGF:
    """d/dx, a shift of the values; loses one order."""
    if a.order == 0:
        return TruncatedEGF.zero(0)
    return TruncatedEGF(a.values[1:], a.order - 1)


def series_integrate(a: TruncatedEGF) -> TruncatedEGF:
    """Antiderivative with constant 0, a shift of the values; gains one order."""
    return TruncatedEGF([0, *a.values], a.order + 1)


def series_exp(s: TruncatedEGF) -> TruncatedEGF:
    """exp of a series with zero constant term, via E' = s' E:
    E(n+1) = sum_k C(n,k) s(k+1) E(n-k), over the nonzero s(k+1) only."""
    if s.values[0] != 0:
        raise ValueError("series_exp requires zero constant term")
    terms = [(k, c) for k, c in enumerate(s.values[1:]) if c]  # (k, s(k+1))
    values = [1]  # E(0), E(1), ...
    for n, row in enumerate(_binomial_rows(s.order - 1)):
        values.append(sum(row[k] * c * values[n - k] for k, c in terms if k <= n))
    return TruncatedEGF(values, s.order)


def cycle_egf_exponent(l: int, order: int) -> TruncatedEGF:
    """x + x^2/2 + ... + x^l/l, truncated: the values (j-1)! for j <= l."""
    return TruncatedEGF([0, *map(math.factorial, range(min(l, order)))], order)


def involution_egf(order: int) -> TruncatedEGF:
    """exp(x + x^2/2): the EGF of the involution numbers."""
    return series_exp(cycle_egf_exponent(2, order))


def exp_x(order: int) -> TruncatedEGF:
    return TruncatedEGF([1] * (order + 1))


def partial_sum_transform(w: TruncatedEGF) -> TruncatedEGF:
    """w(x) + e^x * integral_0^x e^(-t) w(t) dt.

    By the paper's lemma, its n-th EGF coefficient is the sum of the first
    n + 1 EGF coefficients of w; the `egf` suite checks that.
    """
    order = w.order
    em = TruncatedEGF([(-1) ** n for n in range(order + 1)])
    inner = series_integrate(series_mul(em, w)).truncate(order)
    return w + series_mul(exp_x(order), inner)
