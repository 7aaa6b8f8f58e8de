"""Involution numbers, involution polynomials and their identities.

A polynomial in t is a list of integer coefficients: index k holds the
coefficient of t^k, and the last entry is nonzero.
"""

from __future__ import annotations

import math
import operator
import threading
from itertools import count, islice

POLY_BUDGET = 5000  # largest n of a polynomial; `invol --n 5000 --poly` takes 1.5 s and 49 MB as a process


def involution_numbers(modulus: int = 0, one=1):
    """Yield I(0), I(1), ..., reduced mod `modulus` when it is nonzero.

    I(n) = I(n-1) + (n-1) I(n-2); only the last two terms are kept.  The
    terms lie in the ring of `one`: int by default, decimal.Decimal for the
    CLI tables, which print them.
    """
    if modulus < 0:
        raise ValueError("modulus must be >= 0")
    prev, cur = 0, one
    for m in count():
        if modulus:
            cur %= modulus
        yield cur
        prev, cur = cur, cur + m * prev


class Cursor:
    """Reads terms of a sequence from one generator, keeping only the last.

    An ascending read advances the generator; a read below the last index
    restarts it.  Reads are lock-protected, since a generator cannot be
    advanced from two threads at once.
    """

    def __init__(self, name: str, terms):
        self._name = name
        self._terms = terms  # returns a fresh generator of the sequence
        self._lock = threading.Lock()
        self._generator, self._index, self._term = terms(), -1, None

    def read(self, n: int) -> int:
        n = operator.index(n)  # refuses a float, which would read the next index up
        if n < 0:
            raise ValueError(f"{self._name} of negative index")
        with self._lock:
            if n < self._index:
                self._generator, self._index = self._terms(), -1
            try:
                while self._index < n:
                    self._term = next(self._generator)
                    self._index += 1
            except BaseException:
                # an exception inside next finishes the generator
                self._generator, self._index = self._terms(), -1
                raise
            return self._term


_CURSOR = Cursor("involution number", involution_numbers)


def involution_number(n: int) -> int:
    """Number of involutions in the symmetric group on n symbols (OEIS A000085)."""
    return _CURSOR.read(n)


def involution_terms(n: int):
    """Yield t(j) = n!/((n-2j)! j! 2^j) for j = 0..n//2.

    t(j) = C(n,2j) (2j-1)!! counts the involutions of n points with j
    2-cycles.  It is carried from term to term by its exact integer ratio
    t(j+1) = t(j) (n-2j)(n-2j-1) / (2j+2).
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    t = 1
    for j in range(n // 2 + 1):
        yield t
        t = t * (n - 2 * j) * (n - 2 * j - 1) // (2 * j + 2)


def involution_number_by_sum(n: int) -> int:
    """The finite sum  sum_j C(n,2j) C(2j,j) j!/2^j, computed independently."""
    return sum(involution_terms(n))


def double_factorial_odd(j: int) -> int:
    """(2j)! / (j! 2^j), an odd integer; equals (2j-1)!!."""
    return math.factorial(2 * j) // (math.factorial(j) * 2**j)


def involution_number_bisplit(n: int, m: int) -> int:
    """sum_k k! C(n,k) C(m,k) I(n-k) I(m-k); equals involution_number(n+m)."""
    if n < 0 or m < 0:
        raise ValueError("requires n >= 0 and m >= 0")
    values = list(islice(involution_numbers(), max(n, m) + 1))
    total = 0
    weight = 1  # k! C(n,k) C(m,k), carried by its ratio (n-k)(m-k)/(k+1)
    for k in range(min(n, m) + 1):
        total += weight * values[n - k] * values[m - k]
        weight = weight * (n - k) * (m - k) // (k + 1)
    return total


def involution_poly(n: int) -> list[int]:
    """Generating polynomial of involutions by fixed-point count.

    Coefficient of t^(n-2j) is C(n,2j) (2j)!/(2^j j!).  Value at t=1 is the
    involution number.
    """
    if n > POLY_BUDGET:
        raise ValueError(f"n = {n} exceeds the polynomial budget {POLY_BUDGET}")
    coeffs = [0] * (n + 1)
    for j, t in enumerate(involution_terms(n)):
        coeffs[n - 2 * j] = t
    return coeffs


def hermite_poly(n: int) -> list[int]:
    """Probabilistic Hermite polynomial; integer coefficients.

    He(n; t) is I(n; t) with the sign (-1)^j on its coefficient of t^(n-2j).
    """
    return [-c if (n - k) % 4 == 2 else c for k, c in enumerate(involution_poly(n))]


def umbral_derivative_coeffs(m: int) -> list[int]:
    """Polynomial P with d^m/dx^m exp(x + x^2/2) = exp(x + x^2/2) P(x).

    P(x) = sum_k C(m,k) I(m-k) x^k.
    """
    if m < 0:
        raise ValueError("requires m >= 0")
    values = list(islice(involution_numbers(), m + 1))
    return [math.comb(m, k) * values[m - k] for k in range(m + 1)]
