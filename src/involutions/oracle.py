"""Brute-force ground truth: exhaustive permutation enumeration for small n
and the classical cycle-type counting formula for moderate n."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

from .exactnum import partitions

ENUMERATION_CAP = 9  # 9! = 362880 permutations
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

    Each permutation's cycles are walked once, each from its first unseen
    element, and a cycle of length L adds (n+1)^(L-1) to the permutation's
    integer code.  A multiplicity is at most n < n+1, so the code is the
    base-(n+1) number whose digit L-1 counts the cycles of length L: it
    determines the cycle type.  The codes are tallied, and each distinct
    code is decoded into its weakly decreasing partition once, at the end.
    """
    if n < 0 or n > ENUMERATION_CAP:
        raise ValueError(f"enumeration requires 0 <= n <= {ENUMERATION_CAP}")
    base = n + 1
    codes: dict[int, int] = {}
    for perm in iter_permutations(range(n)):
        seen = [False] * n
        code = 0
        for start in range(n):
            if seen[start]:
                continue
            weight = 1
            j = perm[start]
            while j != start:
                seen[j] = True
                j = perm[j]
                weight *= base
            code += weight
        codes[code] = codes.get(code, 0) + 1
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
