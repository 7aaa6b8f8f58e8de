"""Brute-force ground truth: exhaustive permutation enumeration for small n
and the classical cycle-type counting formula for moderate n."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactnum import partitions

ENUMERATION_CAP = 9  # 9! = 362880 permutations: 0.05 s, or 0.14 s as `oracle --n 9`, on 2 vCPUs
CENSUS_BUDGET = 50  # p(50) = 204226 entries: about 2 s and 93 MB as a process; memory grows as p(n)


@dataclass
class CycleCensus:
    """Tally of permutations of n symbols by cycle type (a partition of n)."""

    n: int
    counts: dict[tuple[int, ...], int]

    def write_json(self, out) -> None:
        """Write the census as one JSON line to the text stream `out`.

        The bytes are those of json.dumps(doc, sort_keys=True) and a newline,
        written an entry at a time.  A cycle type's key is its parts joined
        by "+", and sort_keys orders the keys as strings ("10" before "2"),
        so only that order is held, never a second copy of the census.
        """
        def key(lam):
            return "+".join(map(str, lam))

        out.write('{"counts": {')
        out.writelines(f'{", " if i else ""}"{key(lam)}": {self.counts[lam]}'
                       for i, lam in enumerate(sorted(self.counts, key=key)))
        out.write(f'}}, "n": {self.n}, "schema": "involutions/cycle-census/1"}}\n')


def enumerate_census(n: int) -> CycleCensus:
    """Exhaustive census over all n! permutations; capped at n <= 9.

    The permutations are built by cycle insertion: symbol k goes either into
    a new 1-cycle or right after one of the symbols 0..k-1, in that symbol's
    cycle.  Every permutation of n symbols arises exactly once, and each
    step changes one cycle length.  A permutation's integer code is the
    base-(n+1) number whose digit L-1 counts its cycles of length L (a
    multiplicity is at most n < n+1, so the code determines the cycle type).
    A new 1-cycle adds 1 to it; growing a cycle of length L adds
    (n+1)^L - (n+1)^(L-1).  The walk keeps each symbol's cycle and each
    cycle's length, and undoes a growth when it backs out.  Each of the n!
    permutations adds 1 to the tally of its code as the last symbol is
    placed, and each distinct code is decoded into its weakly decreasing
    partition once, at the end.
    """
    if n < 0 or n > ENUMERATION_CAP:
        raise ValueError(f"enumeration requires 0 <= n <= {ENUMERATION_CAP}")
    base = n + 1
    # grow[L]: the code's change when a cycle of length L gets one more symbol
    grow = [0] + [base ** length - base ** (length - 1) for length in range(1, n)]
    codes: dict[int, int] = {}
    cycle_of = [0] * n  # the cycle each placed symbol lies in
    cycle_length = [0] * n
    last = n - 1

    def place(k: int, code: int, cycles: int) -> None:
        # symbols 0..k-1 lie in `cycles` cycles, and `code` is their code
        if k == last:
            codes[code + 1] = codes.get(code + 1, 0) + 1
            for j in range(k):
                leaf = code + grow[cycle_length[cycle_of[j]]]
                codes[leaf] = codes.get(leaf, 0) + 1
            return
        cycle_of[k] = cycles
        cycle_length[cycles] = 1
        place(k + 1, code + 1, cycles + 1)
        for j in range(k):
            c = cycle_of[j]
            length = cycle_length[c]
            cycle_length[c] = length + 1
            cycle_of[k] = c
            place(k + 1, code + grow[length], cycles)
            cycle_length[c] = length

    if n == 0:
        codes[0] = 1
    else:
        place(0, 0, 0)
    counts: dict[tuple[int, ...], int] = {}
    for code, count in codes.items():
        lam = []
        for length in range(n, 0, -1):
            lam += [length] * (code // base ** (length - 1) % base)
        counts[tuple(lam)] = count
    return CycleCensus(n, counts)


def partition_census(n: int) -> CycleCensus:
    """Census from the counting formula, one partition at a time, for n <= CENSUS_BUDGET."""
    if n < 0:
        raise ValueError("requires n >= 0")
    if n > CENSUS_BUDGET:
        raise ValueError(f"n = {n} exceeds the census budget {CENSUS_BUDGET}")
    n_factorial = math.factorial(n)
    counts: dict[tuple[int, ...], int] = {}
    for lam in partitions(n):
        # a part t that is the e-th of its run divides out t * e: prod t^et * et!
        denom, run, prev = 1, 0, 0
        for part in lam:
            run = run + 1 if part == prev else 1
            prev = part
            denom *= part * run
        counts[lam] = n_factorial // denom
    return CycleCensus(n, counts)


def census_cycle_index_terms(census: CycleCensus, l: int) -> dict[tuple[int, ...], int]:
    """Exponent-vector keyed counts over cycle types with all parts <= l."""
    terms: dict[tuple[int, ...], int] = {}
    for lam, count in census.counts.items():
        if lam and lam[0] > l:
            continue
        exps = [0] * l
        for part in lam:
            exps[part - 1] += 1
        terms[tuple(exps)] = count
    return terms
