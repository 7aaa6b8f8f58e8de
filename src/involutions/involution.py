"""Involution numbers, involution polynomials and their identities."""

from __future__ import annotations

import threading
from itertools import count, islice

from .exactnum import binomial, factorial


class UniPoly:
    """Dense univariate polynomial with integer coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __call__(self, t):
        value = 0
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __rmul__(self, k: int) -> "UniPoly":
        """k * poly for an integer k."""
        return UniPoly([k * c for c in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t**k."""
        return UniPoly([0] * k + self.coeffs)

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        s = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            s += f" {sign} {body}"
        return s


def involution_numbers(modulus: int = 0, one=1):
    """Yield I(0), I(1), ..., reduced mod `modulus` when it is nonzero.

    I(n) = I(n-1) + (n-1) I(n-2); only the last two terms are kept.  The
    terms lie in the ring of `one`: int by default, decimal.Decimal for the
    CLI tables, which print them.
    """
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
        if n < 0:
            raise ValueError(f"{self._name} of negative index")
        with self._lock:
            if n < self._index:
                self._generator, self._index = self._terms(), -1
            while self._index < n:
                self._term = next(self._generator)
                self._index += 1
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
    t = 1
    for j in range(n // 2 + 1):
        yield t
        t = t * (n - 2 * j) * (n - 2 * j - 1) // (2 * j + 2)


def involution_number_by_sum(n: int) -> int:
    """The finite sum  sum_j C(n,2j) C(2j,j) j!/2^j, computed independently."""
    return sum(involution_terms(n))


def double_factorial_odd(j: int) -> int:
    """(2j)! / (j! 2^j), an odd integer; equals (2j-1)!!."""
    return factorial(2 * j) // (factorial(j) * 2**j)


def involution_number_bisplit(n: int, m: int) -> int:
    """sum_k k! C(n,k) C(m,k) I(n-k) I(m-k); equals involution_number(n+m)."""
    values = list(islice(involution_numbers(), max(n, m) + 1))
    total = 0
    weight = 1  # k! C(n,k) C(m,k), carried by its ratio (n-k)(m-k)/(k+1)
    for k in range(min(n, m) + 1):
        total += weight * values[n - k] * values[m - k]
        weight = weight * (n - k) * (m - k) // (k + 1)
    return total


def involution_poly(n: int) -> UniPoly:
    """Generating polynomial of involutions by fixed-point count.

    Coefficient of t^(n-2j) is C(n,2j) (2j)!/(2^j j!).  Value at t=1 is the
    involution number.
    """
    coeffs = [0] * (n + 1)
    for j, t in enumerate(involution_terms(n)):
        coeffs[n - 2 * j] = t
    return UniPoly(coeffs)


def involution_poly_by_recurrence(n: int) -> UniPoly:
    """Same polynomial from P(n) = t P(n-1) + (n-1) P(n-2), P(0)=1, P(1)=t."""
    if n == 0:
        return UniPoly([1])
    prev, cur = UniPoly([1]), UniPoly([0, 1])
    for m in range(2, n + 1):
        prev, cur = cur, cur.shift(1) + (m - 1) * prev
    return cur


def hermite_poly(n: int) -> UniPoly:
    """Probabilistic Hermite polynomial; integer coefficients.

    H(n) = n! sum_j (-1)^j / (j! (n-2j)! 2^j) t^(n-2j).
    """
    coeffs = [0] * (n + 1)
    for j, t in enumerate(involution_terms(n)):
        coeffs[n - 2 * j] = -t if j % 2 else t
    return UniPoly(coeffs)


def hermite_relation_check(n: int) -> bool:
    """Involution and Hermite polynomials agree up to alternating signs.

    `hermite_poly(n)` is the involution polynomial with the coefficient of
    t^(n-2j) times (-1)^j (the real form of the i^n H(-it) relation; no
    complex arithmetic needed).  It is the Hermite polynomial exactly when
    it satisfies He's own recurrence He(n) = t He(n-1) - (n-1) He(n-2),
    He(0) = 1, He(1) = t, which is checked at n.
    """
    if n < 2:
        return hermite_poly(n) == UniPoly([0] * n + [1])
    expected = hermite_poly(n - 1).shift(1) + (1 - n) * hermite_poly(n - 2)
    return hermite_poly(n) == expected


def umbral_derivative_coeffs(m: int) -> UniPoly:
    """Polynomial P with d^m/dx^m exp(x + x^2/2) = exp(x + x^2/2) P(x).

    P(x) = sum_k C(m,k) I(m-k) x^k.
    """
    values = list(islice(involution_numbers(), m + 1))
    return UniPoly([binomial(m, k) * values[m - k] for k in range(m + 1)])


def perfect_matchings(n: int) -> int:
    """(n-1)!! for even n, 0 for odd n: involutions without fixed points."""
    if n % 2 == 1:
        return 0
    return double_factorial_odd(n // 2)
