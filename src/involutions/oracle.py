"""Brute-force ground truth: exhaustive permutation enumeration for small n
and the classical cycle-type counting formula for moderate n."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

from .exactnum import as_partition, partitions

ENUMERATION_CAP = 9  # 9! = 362880 permutations
CENSUS_BUDGET = 50  # p(50) = 204226 partitions, one entry each: about 4 s and 71 MB


@dataclass
class CycleCensus:
    """Tally of permutations of n symbols by cycle type (a partition of n)."""

    n: int
    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())

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


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given in one-line notation on 0..n-1."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def enumerate_census(n: int) -> CycleCensus:
    """Exhaustive census over all n! permutations; capped at n <= 9."""
    if n < 0 or n > ENUMERATION_CAP:
        raise ValueError(f"enumeration requires 0 <= n <= {ENUMERATION_CAP}")
    counts: dict[tuple[int, ...], int] = {}
    for perm in iter_permutations(range(n)):
        key = cycle_type(perm)
        counts[key] = counts.get(key, 0) + 1
    return CycleCensus(n, counts)


def cycle_type_count(n: int, cycle_type) -> int:
    """n! / prod(t^et * et!): permutations of the given cycle type."""
    lam = as_partition(cycle_type)
    if sum(lam) != n:
        raise ValueError(f"cycle type {lam} does not partition {n}")
    denom = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for t, e in mult.items():
        denom *= t**e * math.factorial(e)
    return math.factorial(n) // denom


def partition_census(n: int) -> CycleCensus:
    """Census from the counting formula, one partition at a time, for n <= CENSUS_BUDGET."""
    if n < 0:
        raise ValueError("requires n >= 0")
    if n > CENSUS_BUDGET:
        raise ValueError(f"n = {n} exceeds the census budget {CENSUS_BUDGET}")
    return CycleCensus(n, {lam: cycle_type_count(n, lam) for lam in partitions(n)})


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
