"""p-adic valuations of the involution numbers and their partial sums.

Covers the closed-form 2-adic valuations, prime efficiency classification,
periodicity mod p^r, the residue-class valuation tree for inefficient primes,
the single-non-terminal-vertex conjecture checker and the observed 3-adic
pattern of the partial sums.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from heapq import merge
from itertools import accumulate, groupby, islice, tee
from operator import attrgetter, eq

from .exactnum import is_prime, nu_int, primes_upto
from .involution import involution_numbers


def nu2_involution(n: int) -> int:
    """2-adic valuation of the n-th involution number, piecewise in n mod 4."""
    n = operator.index(n)  # refuses a float, which the branches would accept
    if n < 0:
        raise ValueError("requires n >= 0")
    k, r = divmod(n, 4)
    return (k, k, k + 1, k + 2)[r]


def nu2_involution_floor(n: int) -> int:
    """Equivalent floor form: floor(n/2) - 2 floor(n/4) + floor((n+1)/4)."""
    n = operator.index(n)  # refuses a float, which the branches would accept
    if n < 0:
        raise ValueError("requires n >= 0")
    return n // 2 - 2 * (n // 4) + (n + 1) // 4


def nu2_partial_sum(n: int) -> int:
    """2-adic valuation of a(n), piecewise in n mod 4 with k >= 1.

    n = 0 falls outside the four residue classes; a(0) = 1 so the value 0
    is returned by convention.
    """
    n = operator.index(n)  # refuses a float, which the branches would accept
    if n < 0:
        raise ValueError("requires n >= 0")
    if n == 0:
        return 0
    r = n % 4
    if r == 1:  # n = 4k - 3
        return (n + 3) // 4
    if r == 2:  # n = 4k - 2
        return (n + 2) // 4 + 1
    if r == 3:  # n = 4k - 1
        k = (n + 1) // 4
        return nu_int(k, 2) + k + 2
    return n // 4  # n = 4k


def involution_mod_sequence(modulus: int, n_max: int) -> list[int]:
    """I(0..n_max) reduced mod `modulus`, via the recurrence on residues.

    The valuation checks below read `involution_numbers(modulus)` directly
    and keep only the residues they still need; this full sweep stays as
    the reference that tests compare them with.
    """
    if modulus < 1 or n_max < 0:
        raise ValueError("requires modulus >= 1 and n_max >= 0")
    return list(islice(involution_numbers(modulus), n_max + 1))


def is_efficient(p: int) -> bool:
    """An odd prime is efficient when p never divides I(j) for j < p.

    Reads I(j) mod p for j = 0, 1, ... and stops at the first zero: an
    inefficient prime whose least root is j costs j + 1 terms, not p.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return 0 not in islice(involution_numbers(p), p)


SCAN_BUDGET = 3 * 10**4  # time grows as bound^2 at flat memory: 3 * 10^4 takes about 6 s


def inefficient_primes_upto(bound: int) -> list[int]:
    """All inefficient odd primes <= bound, ascending, for bound <= SCAN_BUDGET."""
    if bound < 3:
        raise ValueError("requires bound >= 3")
    if bound > SCAN_BUDGET:
        raise ValueError(f"bound = {bound} exceeds the scan budget {SCAN_BUDGET}")
    return [p for p in primes_upto(bound) if p != 2 and not is_efficient(p)]


def periodicity_check(p: int, r: int, n_max: int) -> bool:
    """I(n + p^r) == I(n) mod p^r for all n <= n_max.

    True for odd primes.  For p = 2 the claim is false from n = 0 on
    (I(0) = 1 yet I(2) = 2): by `nu2_involution`, I(n) == 0 mod 2^r for all
    n >= 4r - 2 while I(4r - 3) is not, so the mod-2^r sequence is eventually
    zero and cannot be purely periodic; this function reports that honestly.

    The residue stream is compared with itself p^r terms later, so only the
    p^r residues between the two readers are held.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or n_max < 0:
        raise ValueError("requires r >= 1 and n_max >= 0")
    q = p**r
    now, later = tee(involution_numbers(q))
    return all(map(eq, islice(now, n_max + 1), islice(later, q, None)))


@dataclass(slots=True)
class TreeVertex:
    """Residue class {n == residue mod p^level} with its valuation status.

    Terminal vertices carry the common valuation of the class; on a
    non-terminal vertex the level is a lower bound on it.
    """

    level: int
    residue: int
    valuation: int | None = None  # None while the class is open

    @property
    def terminal(self) -> bool:
        return self.valuation is not None


@dataclass
class ValuationTree:
    levels: list[list[TreeVertex]]


CERTIFY_N = 3  # members certified per terminal vertex below the last level
TREE_BUDGET = 10**6  # largest p^max_level; a tree steps its stream at most p^max_level + 1 times


def _tree_vertices(p: int, max_level: int):
    """Yield the vertices of the valuation tree, level by level, ascending.

    A vertex with representative c at level L is terminal exactly when
    I(c) mod p^L != 0: by periodicity the whole class then shares the
    valuation nu_p(I(c)) < L.  Otherwise the vertex is non-terminal with
    lower bound L and is split into its p sub-classes at the next level.

    One forward pass over I(n) mod q, q = p^max_level, which decides every
    valuation below max_level, reads only the residues the tree needs: the
    new representatives c + k p^(L-1) of level L and the members
    c + i p^(L-1), i < CERTIFY_N, that certify the terminal vertices of
    level L - 1, all in [p^(L-1), p^L) for odd p.  The terminal vertices of
    the last level are certified by one more residue, I(q) mod q, read once
    the last vertex is yielded: the step matrix [[1, m], [1, 0]] of the
    recurrence depends on m only mod q, and at m = 0 it discards I(-1), so
    I(n + q) == I(q) I(n) mod q for all n >= 0.  A terminal t of valuation
    v < max_level therefore keeps v at every t + i q exactly when p does
    not divide I(q), and of the last level only the least terminal, named
    when that fails, is held.  So the stream steps at most q + 1 times, and
    only the residues of open classes are held.  Budget: q <= TREE_BUDGET,
    checked at the first next(), before any residue is read.
    """
    if max_level < 1:
        raise ValueError("requires max_level >= 1")
    if p ** min(max_level, TREE_BUDGET.bit_length()) > TREE_BUDGET:
        raise ValueError(
            f"p^max_level = {p}^{max_level} exceeds the compute budget {TREE_BUDGET}"
        )
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    q = p**max_level
    stream = enumerate(involution_numbers(q))
    open_classes = [next(stream)]  # (c, I(c) mod q), ascending in c
    last = 0  # the index last read
    terminals: list[TreeVertex] = []  # decided a level ago, certified by this pass
    for level in range(1, max_level + 1):
        step, modulus = p ** (level - 1), p**level
        # the child k = 0 of a class is the class itself, whose residue is held
        children = ((c + k * step, None if k else r, None)
                    for k in range(p) for c, r in open_classes)
        members = ((v.residue + i * step, None, v)
                   for i in range(1, CERTIFY_N) for v in terminals)
        decided, next_open = [], []
        for n, r, vertex in merge(children, members):
            if r is None:
                last, r = next(islice(stream, n - last - 1, None))
            if vertex is not None:
                if r == 0 or nu_int(r, p) != vertex.valuation:
                    raise AssertionError(f"terminal vertex {vertex} fails "
                                         f"certification at n={n}")
                continue
            if r % modulus:
                vertex = TreeVertex(level, n, nu_int(r % modulus, p))
                if level < max_level or not decided:  # I(q) certifies the last level
                    decided.append(vertex)
            else:
                vertex = TreeVertex(level, n)
                next_open.append((n, r))
            yield vertex
        terminals, open_classes = decided, next_open
    if terminals:
        _, r = next(islice(stream, q - last - 1, None))
        if r % p == 0:
            raise AssertionError(f"terminal vertex {terminals[0]} fails "
                                 f"certification at n={terminals[0].residue + q}")


def build_valuation_tree(p: int, max_level: int) -> ValuationTree:
    """Leveled refinement of residue classes mod p^level classifying nu_p(I(n)).

    The levels of `_tree_vertices`, certified as that describes; a tree
    that ends before max_level has no empty levels.
    """
    vertices = groupby(_tree_vertices(p, max_level), attrgetter("level"))
    return ValuationTree([list(level) for _, level in vertices])


def write_tree_json(p: int, max_level: int, out) -> None:
    """Write the valuation tree as one JSON line to the text stream `out`.

    The bytes are those of json.dumps(doc, sort_keys=True) and a newline,
    with each vertex as {"modulus": p^level, "residue", "status":
    "terminal" or "nonterminal", "valuation_or_bound": the valuation, or
    the level of an open class}, written as `_tree_vertices` yields it.
    Nothing is written before the first vertex, and a failed
    certification raises with the document unfinished.
    """
    for level, vertices in groupby(_tree_vertices(p, max_level), attrgetter("level")):
        modulus = p**level
        out.write(", [" if level > 1 else '{"levels": [[')
        out.writelines(
            f'{", " if j else ""}{{"modulus": {modulus}, "residue": {v.residue}, '
            f'"status": "{"nonterminal" if v.valuation is None else "terminal"}", '
            f'"valuation_or_bound": {level if v.valuation is None else v.valuation}}}'
            for j, v in enumerate(vertices))
        out.write("]")
    out.write(f'], "prime": {p}, "schema": "involutions/valuation-tree/1"}}\n')


@dataclass
class ConjectureLevelReport:
    level: int
    n_terminal_at_expected: int
    n_terminal_other: int
    n_nonterminal: int
    holds: bool


@dataclass
class ConjectureReport:
    prime: int
    levels: list[ConjectureLevelReport]

    @property
    def holds(self) -> bool:
        return all(lv.holds for lv in self.levels)

    def to_json(self) -> str:
        doc = {
            "schema": "involutions/conjecture-report/1",
            "prime": self.prime,
            "holds": self.holds,
            "levels": [
                {
                    "level": lv.level,
                    "terminal_with_valuation_level_minus_1": lv.n_terminal_at_expected,
                    "terminal_other": lv.n_terminal_other,
                    "nonterminal": lv.n_nonterminal,
                    "holds": lv.holds,
                }
                for lv in self.levels
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"conjecture report for p={self.prime}"]
        lines.append("level  term(v=level-1)  term(other)  nonterm  holds")
        for lv in self.levels:
            lines.append(
                f"{lv.level:>5}  {lv.n_terminal_at_expected:>15}  "
                f"{lv.n_terminal_other:>11}  {lv.n_nonterminal:>7}  {lv.holds}"
            )
        lines.append(f"overall: {'holds' if self.holds else 'fails'}")
        return "\n".join(lines)


def conjecture_check(p: int, max_level: int) -> ConjectureReport:
    """Per-level counts against the single-non-terminal-vertex conjecture.

    A level conforms when it has exactly p-1 terminal vertices, all with
    valuation level-1, and exactly one non-terminal vertex.  The outcome is
    reported, never assumed.  Each level is counted as its vertices stream
    past, and none is held.
    """
    report = ConjectureReport(prime=p, levels=[])
    for level, vertices in groupby(_tree_vertices(p, max_level), attrgetter("level")):
        valuations = Counter(v.valuation for v in vertices)  # None when non-terminal
        at_expected, nonterm = valuations.pop(level - 1, 0), valuations.pop(None, 0)
        other = sum(valuations.values())
        holds = at_expected == p - 1 and other == 0 and nonterm == 1
        report.levels.append(
            ConjectureLevelReport(level, at_expected, other, nonterm, holds)
        )
    return report


def nu3_partial_sum(n: int) -> int:
    """Observed closed form for nu_3(a(n)).

    Empirically (verified by exact sweeps; see nu3_partial_sum_pattern_check):
    0 unless n mod 9 is 4, 6 or 8; 2 at 4 mod 9; 1 at 6 mod 9; and for
    n = 9m+8 the value is 2 when m mod 3 is 0 or 1, else 2 + nu_3(m+1).
    """
    n = operator.index(n)  # refuses a float, which the branches would accept
    if n < 0:
        raise ValueError("requires n >= 0")
    r = n % 9
    if r == 4:
        return 2
    if r == 6:
        return 1
    if r == 8:
        m = n // 9
        if m % 3 != 2:
            return 2
        return 2 + nu_int(m + 1, 3)
    return 0


def nu3_partial_sum_pattern_check(n_max: int) -> bool:
    """Sweep of nu_3(a(n)) for n <= n_max against the observed closed form.

    a(n) is read mod 3^K as the running sum of I(n) mod 3^K, with 3^K the
    least power of 3 above 9 (n_max // 9 + 1).  Each value v the closed
    form predicts up to n_max is at most 2 + nu_3(m + 1) with
    m + 1 <= n_max // 9 + 1, so 3^v <= 9 (m + 1) < 3^K and v < K.  A
    residue of zero means nu_3(a(n)) >= K, already a mismatch; a nonzero
    residue has the valuation of a(n) itself.  So the check is exact, and
    no a(n) is built in full.
    """
    if n_max < 0:
        raise ValueError("requires n_max >= 0")
    modulus = 3
    while modulus <= 9 * (n_max // 9 + 1):
        modulus *= 3
    totals = accumulate(islice(involution_numbers(modulus), n_max + 1))
    for n, total in enumerate(totals):
        residue = total % modulus
        if residue == 0 or nu_int(residue, 3) != nu3_partial_sum(n):
            return False
    return True
