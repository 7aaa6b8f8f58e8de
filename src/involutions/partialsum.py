"""Partial sums of the involution numbers and the related valuation sums."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .involution import Cursor, involution_numbers, involution_terms


def partial_sums(one=1):
    """Yield a(0), a(1), ...: the running sums of I(0), I(1), ...

    The terms lie in the ring of `one`, as in involution_numbers.
    """
    return accumulate(involution_numbers(one=one))


_CURSOR = Cursor("partial sum", partial_sums)


def partial_sum(n: int) -> int:
    """a(n) = I(0) + I(1) + ... + I(n)."""
    return _CURSOR.read(n)


def partial_sum_by_binomial(n: int) -> int:
    """The shifted-binomial form  sum_k (2k)!/(k! 2^k) C(n+1, 2k+1).

    The whole term s(k) = (2k-1)!! C(n+1, 2k+1) is carried from s(0) = n+1
    by its exact ratio s(k)/s(k-1) = (2k-1)(n-2k+2)(n-2k+1) / ((2k)(2k+1)):
    the small factors are multiplied first, so a term costs one big-by-small
    product and one exact division by a small int.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    total = term = n + 1
    for k in range(1, n // 2 + 1):
        term = term * ((2 * k - 1) * (n - 2 * k + 2) * (n - 2 * k + 1)) // (2 * k * (2 * k + 1))
        total += term
    return total


def cauchy_alternating_sum(n: int) -> int:
    """sum_{k=1}^{n} (-1)^(n-k) C(n,k) a(k-1).

    Equals (2m)!/(2^m m!) for n = 2m+1 and 0 for n = 2m.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    total = 0
    for k in range(1, n + 1):
        total += (-1) ** (n - k) * math.comb(n, k) * partial_sum(k - 1)
    return total


def F_sum(alpha: int, beta: int, k: int) -> int:
    """sum_{j=0}^{2k-1} (2j+alpha)^beta (2j)!/(j! 2^j) C(4k-1, 2j).

    At beta = 0 this reduces to the involution number I(4k-1) regardless of
    alpha.
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    if beta < 0:
        raise ValueError("requires beta >= 0")
    return sum((2 * j + alpha) ** beta * t for j, t in enumerate(involution_terms(4 * k - 1)))


def b_k(k: int) -> Fraction:
    """sum_{j=0}^{2k-1} (2j)!/(j! 2^j) C(4k-1,2j) / (2j+1), an exact rational.

    Satisfies 4k * b(k) = a(4k-1); not all summands are integers.
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    return sum((Fraction(t, 2 * j + 1) for j, t in enumerate(involution_terms(4 * k - 1))),
               Fraction(0))
