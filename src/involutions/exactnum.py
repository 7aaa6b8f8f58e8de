"""Exact integer/rational arithmetic and number-theoretic primitives.

Integers are plain Python ints (arbitrary precision already), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Partitions are
weakly decreasing tuples of positive ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator


class ZeroValuationError(ValueError):
    """Raised when the p-adic valuation of 0 is requested."""


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic trial division, cached per n; intended for n <= 10**6 or so.

    `nu_int` tests its p on every call, so the cache leaves one trial
    division per prime, not one per valuation.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(bound + 1) if sieve[p]]


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order, largest part first.

    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70, 1998) steps one
    array in place: x[:m+1] is the partition and x[h] its last part above 1.
    A step lowers x[h] by one and spreads the freed units, with the trailing
    ones, as parts of the new x[h] and one remainder.
    """
    if n < 0:
        raise ValueError("partitions of negative n")
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m = h = 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[: m + 1])


def multinomial(n: int, lam) -> int:
    """n! / prod(part!) for a partition lam of n, its parts in any order."""
    lam = tuple(lam)
    if any(part <= 0 for part in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if sum(lam) != n:
        raise ValueError(f"partition {lam} does not sum to {n}")
    result = math.factorial(n)
    for part in lam:
        result //= math.factorial(part)
    return result


def nu_int(x: int, p: int) -> int:
    """Largest e with p**e dividing x; x must be nonzero.

    For p = 2 this is the index of the lowest set bit, read in a fixed number
    of big-integer operations; odd p divides once per factor.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ZeroValuationError("valuation of 0 is undefined")
    x = abs(x)
    if p == 2:
        return (x & -x).bit_length() - 1
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def nu_rat(x: Fraction, p: int) -> int:
    """nu_p extended to nonzero rationals; may be negative."""
    return nu_int(x.numerator, p) - nu_int(x.denominator, p)


def poly_text(terms, names) -> str:
    """Polynomial text such as ``t^4 - 6*t^2 + 3`` or ``Y1^2 + Y2``.

    `terms` are (exponent tuple, coefficient) pairs in print order; the
    exponent of ``names[i]`` is ``exponents[i]``.  Zero terms are skipped,
    and no terms at all print as ``0``.
    """
    text = ""
    for exponents, coeff in terms:
        if not coeff:
            continue
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if text:
            text += (" - " if coeff < 0 else " + ") + body
        else:
            text = "-" + body if coeff < 0 else body
    return text or "0"
