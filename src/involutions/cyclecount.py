"""Permutations with bounded cycle length: counts, cycle-index polynomials,
and the banded Toeplitz determinant representation."""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from itertools import count, islice

from .exactnum import poly_text


def _grade(exponents: tuple[int, ...]) -> int:
    return sum((t + 1) * e for t, e in enumerate(exponents))


class CycleIndexPoly:
    """Multivariate polynomial in Y1..Yl, keyed by exponent vectors.

    The exponent vector (e1..el) of a monomial is the cycle type it counts:
    et copies of a t-cycle.  Stored sparse; monomials are emitted in graded
    lexicographic order for deterministic serialization.
    """

    __slots__ = ("l", "terms")

    def __init__(self, l: int, terms: dict[tuple[int, ...], int] | None = None):
        self.l = l
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff != 0:
                    self.terms[tuple(exps)] = coeff

    def sum_of_coefficients(self) -> int:
        return sum(self.terms.values())

    def is_homogeneous(self, n: int) -> bool:
        """Every monomial satisfies sum_t t * e_t = n."""
        return all(_grade(exps) == n for exps in self.terms)

    def substitute_y1(self) -> list[int]:
        """Set Y1 = t and all other variables to 1: coefficients of t^0, t^1, ..."""
        coeffs = [0] * (max((exps[0] for exps in self.terms), default=-1) + 1)
        for exps, coeff in self.terms.items():
            coeffs[exps[0]] += coeff
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(
            self.terms.items(), key=lambda kv: (-_grade(kv[0]), tuple(-e for e in kv[0]))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleIndexPoly):
            return NotImplemented
        return self.terms == other.terms

    def to_json(self) -> str:
        doc = {
            "schema": "involutions/cycle-index/1",
            "variables": self.l,
            "terms": [
                {"exponents": list(exps), "coefficient": coeff}
                for exps, coeff in self.sorted_terms()
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def __str__(self):
        return poly_text(self.sorted_terms(), [f"Y{t}" for t in range(1, self.l + 1)])

    def __repr__(self):
        return f"CycleIndexPoly(l={self.l}, terms={self.terms!r})"


def restricted_count(n: int, l: int) -> int:
    """Number of permutations of n symbols with every cycle length <= l.

    d(n, l) = d(n, min(l, n)).  The EGF f = exp(x + ... + x^l/l) has
    (1 - x) f' = (1 - x^l) f, so d(m+1) = (m+1) d(m) - m!/(m-l)! d(m-l):
    three big-int operations a step, against 2(l - 1) in the Horner window of
    `_count_window`.  Yet best of 5 it takes, over the time of the window's
    dedicated steps, 1.1-1.6x at l = 3 and 1.8-2.9x at l = 2 for n = 250-60000.
    So the window keeps l <= 3, and the cut ints of `log_exact_count`, where
    the subtraction would let the m!-sized second solution swamp d(n, l).
    """
    n, l = operator.index(n), operator.index(l)
    if n < 0 or l < 1:
        raise ValueError("requires n >= 0 and l >= 1")
    l = min(l, n)
    if l <= 3:
        return _count_window(n, max(l, 1))[0]
    window = deque([0] * l + [1], maxlen=l + 1)  # d(m-l), ..., d(m)
    for m in range(n):
        window.append((m + 1) * window[-1] - math.perm(m, l) * window[0])
    return window[-1]


def _count_window(n: int, l: int, bits: int = 0) -> tuple[int, int, int]:
    """(low, high, s) with low 2^s <= d(n, l) <= high 2^s; (d, d, 0) when bits is 0.

    Otherwise the window holds ints scaled by 2^-s, W = bits + bits of n wide:
    once its oldest, smallest term passes 2W bits, all are shifted right until
    it has W, losing under 2^-(W-1) of each.  Steps are positive combinations,
    so c <= n cuts (c 2^-(W-1) <= 1/2 as bits >= 2) leave d(n, l) <= high 2^s
    for high = low + ceil(c low 2^-(W-2)) < low (1 + 2^-(bits-2)).
    l = 2 and 3 step on local ints: the deque loop took 2-3x as long there.
    """
    n, l, bits = operator.index(n), operator.index(l), operator.index(bits)
    if n < 0 or l < 1 or bits < 0 or bits == 1:
        raise ValueError("requires n >= 0, l >= 1 and bits 0 or at least 2")
    if l == 1:
        return 1, 1, 0  # d(n, 1) = 1
    width = bits and bits + n.bit_length()
    s = cuts = 0
    if l == 2:
        a, b = 1, 0  # d(m), d(m-1), times 2^-s
        for m in range(n):
            a, b = a + m * b, a
            if width and (t := b.bit_length() - width) > width:
                a, b = a >> t, b >> t
                s += t
                cuts += 1
        low = a
    elif l == 3:
        a, b, c = 1, 0, 0  # d(m), d(m-1), d(m-2), times 2^-s
        for m in range(n):
            a, b, c = a + m * (b + (m - 1) * c), a, b
            if width and (t := c.bit_length() - width) > width:
                a, b, c = a >> t, b >> t, c >> t
                s += t
                cuts += 1
        low = a
    else:
        window = deque([1], maxlen=l)  # d(m), d(m-1), ..., d(m-l+1), times 2^-s
        for m in range(n):
            # d(m+1) = sum_{j=0}^{l-1} m!/(m-j)! d(m-j), in Horner form
            # d(m) + m (d(m-1) + (m-1) (d(m-2) + ...)): big times small only
            acc = window[-1]
            for j in range(len(window) - 2, -1, -1):
                acc = window[j] + (m - j) * acc
            window.appendleft(acc)
            if width and (t := window[-1].bit_length() - width) > width:
                window = deque((term >> t for term in window), maxlen=l)
                s += t
                cuts += 1
        low = window[0]
    return low, (low - (-cuts * low >> (width - 2)) if cuts else low), s


def cycle_index_polys(l: int):
    """Yield the cycle-index polynomials g(0), g(1), ... for cycles <= l.

    Built from g(n) = Y1 g(n-1) + (n-1) Y2 g(n-2) + ... +
    (n-1)...(n-l+1) Yl g(n-l), keeping only the last l polynomials;
    evaluating every variable at 1 gives the restricted count.
    """
    if l < 1:
        raise ValueError("requires l >= 1")
    return _cycle_index_steps(l)


def _cycle_index_steps(l: int):
    window = deque([CycleIndexPoly(l, {(0,) * l: 1})], maxlen=l)  # g(m-1), ..., g(m-l)
    for m in count(1):
        yield window[0]
        terms: dict[tuple[int, ...], int] = {}
        falling = 1
        for j, previous in enumerate(window, start=1):
            for exps, coeff in previous.terms.items():
                bumped = list(exps)
                bumped[j - 1] += 1
                key = tuple(bumped)
                terms[key] = terms.get(key, 0) + falling * coeff
            falling *= m - j
        window.appendleft(CycleIndexPoly(l, terms))


CYCLE_INDEX_BUDGET = 2 * 10**5  # terms of g(0..n); (40, 40) has 215k: about 2 s and 115 MB
# exponents of g(0..n), l per term: (39, 39) has the most, 6.94M, of any
# l <= n inside the term budget, and peaks at 98 MB
EXPONENT_BUDGET = 7 * 10**6


def _terms_upto(n: int, l: int) -> int:
    """The terms of g(0), ..., g(n): one per partition of each m <= n into parts <= l."""
    ways = [1] * (n + 1)  # partitions of m into parts <= part
    for part in range(2, min(l, n) + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return sum(ways)


def _check_budget(n: int, l: int) -> None:
    """Refuse g(0..n) past CYCLE_INDEX_BUDGET terms or EXPONENT_BUDGET exponents.

    Counted before any work; there are at least n + 1 terms, and
    (n//2 + 1)^2 when l >= 2, so a large n is refused uncounted.  Each term
    holds an exponent vector of length l, so a small n with a large l is
    refused by the second budget.
    """
    if n < 0 or l < 1:
        raise ValueError("requires n >= 0 and l >= 1")
    if (max(n + 1, (n // 2 + 1) ** 2 if l > 1 else 0) > CYCLE_INDEX_BUDGET
            or (terms := _terms_upto(n, l)) > CYCLE_INDEX_BUDGET):
        raise ValueError(f"n = {n}, l = {l} exceeds the cycle-index budget {CYCLE_INDEX_BUDGET}")
    if terms * l > EXPONENT_BUDGET:
        raise ValueError(f"n = {n}, l = {l} holds {terms * l} exponents, "
                         f"past the exponent budget {EXPONENT_BUDGET}")


def cycle_index_poly(n: int, l: int) -> CycleIndexPoly:
    """Cycle-index polynomial g(n) of the permutations with cycles <= l.

    Refused before any work past either budget of `_check_budget`.
    """
    _check_budget(n, l)
    return next(islice(cycle_index_polys(l), n, None))


TOEPLITZ_MAX_N = 12  # cofactor expansion is a verification path, not an engine


def toeplitz_matrix(n: int, l: int) -> list[list[dict[tuple[int, ...], int]]]:
    """The n x n matrix whose determinant is the cycle-index polynomial.

    The paper's banded Toeplitz matrix, rows/columns indexed 1..n, has entry
    (k, j) = i^(j-k) Y_(j-k+1) on the band 0 <= j-k <= l-1, i*j on the
    subdiagonal k = j+1, and 0 elsewhere.  (The stated size n+1 does not
    reproduce the worked 5x5 case at n=5; size n does, and matches the
    restricted counts for all small n.)  Conjugating it by diag(i^k)
    multiplies entry (k, j) by i^(k-j) and leaves the determinant unchanged;
    that gives the real upper Hessenberg matrix returned here: Y_(j-k+1) on
    the band, -j on the subdiagonal, 0 elsewhere.  Entries are sparse
    polynomials {exponent vector: coefficient}, as in CycleIndexPoly.terms;
    zero is the empty dict.
    """
    if n < 0 or l < 1:
        raise ValueError("requires n >= 0 and l >= 1")
    rows = []
    for k in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            exps = [0] * l
            if 0 <= j - k <= l - 1:
                exps[j - k] = 1
                row.append({tuple(exps): 1})
            elif k == j + 1:
                row.append({tuple(exps): -j})
            else:
                row.append({})
        rows.append(row)
    return rows


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _det_hessenberg(matrix: list[list[dict]], l: int) -> dict[tuple[int, ...], int]:
    """Determinant of an upper Hessenberg matrix, over its trailing minors.

    Expand det(rows and columns k..n-1) along its first row.  Deleting
    column k + c leaves a block-triangular minor: the subdiagonal entries of
    rows k+1..k+c, times the trailing block from row k + c + 1.  So

        det(k) = sum_c (-1)^c h(k, k+c) * prod subdiagonal * det(k + c + 1),

    filled in from det(n) = 1 up, each trailing determinant once.
    """
    n = len(matrix)
    one = {(0,) * l: 1}
    trailing = [one] * (n + 1)  # trailing[k] = det(rows and columns k..n-1)
    for k in range(n - 1, -1, -1):
        total: dict[tuple[int, ...], int] = {}
        cofactor = one  # (-1)^c times the subdiagonal entries of rows k+1..k+c
        for c in range(n - k):
            if matrix[k][k + c]:
                term = _poly_mul(_poly_mul(matrix[k][k + c], cofactor), trailing[k + c + 1])
                for exps, coeff in term.items():
                    total[exps] = total.get(exps, 0) + coeff
            if k + c + 1 < n:
                cofactor = _poly_mul(cofactor, {exps: -coeff for exps, coeff
                                                in matrix[k + c + 1][k + c].items()})
        trailing[k] = {exps: coeff for exps, coeff in total.items() if coeff}
    return trailing[0]


def toeplitz_determinant(n: int, l: int) -> CycleIndexPoly:
    """det of the banded Toeplitz matrix, a verification path for n <= 12.

    Expands the real form of the matrix (see toeplitz_matrix), whose
    determinant equals that of the paper's Gaussian-integer form, over its
    trailing minors.  Its entries and minors hold exponent vectors of
    length l as g(0..n) does, so it keeps the budgets of cycle_index_poly.
    """
    if n > TOEPLITZ_MAX_N:
        raise ValueError(f"n={n} exceeds the verification bound {TOEPLITZ_MAX_N}")
    _check_budget(n, l)
    return CycleIndexPoly(l, _det_hessenberg(toeplitz_matrix(n, l), l))
