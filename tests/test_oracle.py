import io
import json
from itertools import permutations
from math import factorial

import pytest

from involutions import cyclecount, oracle
from involutions.cli import SUITES
from involutions.cyclecount import CycleIndexPoly, cycle_index_poly, restricted_count
from involutions.involution import involution_number, involution_poly
from involutions.oracle import census_cycle_index_terms, enumerate_census, partition_census


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given in one-line notation on 0..n-1, by
    walking each cycle from its first unseen element: the naive reference
    the census, built by cycle insertion, is compared against."""
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


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 3, 4, 0)) == (5,)
    assert cycle_type(()) == ()


def test_census_codes_decode_to_the_reference_cycle_types():
    for n in range(9):
        counts = {}
        for perm in permutations(range(n)):
            key = cycle_type(perm)
            counts[key] = counts.get(key, 0) + 1
        assert enumerate_census(n).counts == counts


def test_enumeration_totals():
    for n in range(oracle.ENUMERATION_CAP + 1):
        assert sum(enumerate_census(n).counts.values()) == factorial(n)


def test_enumeration_matches_formula():
    for n in range(oracle.ENUMERATION_CAP + 1):
        assert enumerate_census(n).counts == partition_census(n).counts


def test_enumeration_base_cases():
    assert enumerate_census(0).counts == {(): 1}
    assert enumerate_census(1).counts == {(1,): 1}


def test_partition_census_larger_n():
    census = partition_census(20)
    assert sum(census.counts.values()) == factorial(20)
    assert sum(census_cycle_index_terms(census, 2).values()) == involution_number(20)


def test_partition_census_budget(monkeypatch):
    # an n past CENSUS_BUDGET is refused before any partition is listed
    def no_partitions(n):
        raise AssertionError(f"the partitions of {n} were listed")
    monkeypatch.setattr(oracle, "partitions", no_partitions)
    with pytest.raises(ValueError, match=f"census budget {oracle.CENSUS_BUDGET}$"):
        partition_census(oracle.CENSUS_BUDGET + 1)
    with pytest.raises(AssertionError, match="partitions"):
        partition_census(oracle.CENSUS_BUDGET)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_census(10)


def test_census_involution_counts():
    for n in range(9):
        terms = census_cycle_index_terms(enumerate_census(n), 2)
        assert sum(terms.values()) == involution_number(n)


def test_census_restricted_counts():
    for n in range(9):
        census = enumerate_census(n)
        for l in range(1, n + 2):
            assert sum(census_cycle_index_terms(census, l).values()) == restricted_count(n, l)


def test_census_fixed_point_poly():
    for n in range(9):
        terms = census_cycle_index_terms(enumerate_census(n), 2)
        assert CycleIndexPoly(2, terms).substitute_y1() == involution_poly(n)


def test_census_cycle_index_terms():
    for n in range(9):
        census = enumerate_census(n)
        for l in range(1, n + 2):
            assert census_cycle_index_terms(census, l) == cycle_index_poly(n, l).terms


def test_oracle_suite_catches_a_wrong_census_term(monkeypatch):
    right = oracle.census_cycle_index_terms

    def wrong(census, l):
        terms = right(census, l)
        if (census.n, l) == (6, 3):
            terms[(0, 0, 2)] += 1
        return terms

    monkeypatch.setattr(oracle, "census_cycle_index_terms", wrong)
    check, bound = SUITES["oracle"]
    assert check(bound) == "cycle index mismatch at (n=6, l=3)"


def test_oracle_suite_catches_a_wrong_cycle_index(monkeypatch):
    right = cyclecount.cycle_index_polys

    def wrong(l):
        for n, poly in enumerate(right(l)):
            # a copy: the generator builds g(n + 1) from the polynomial it yielded
            terms = dict(poly.terms)
            if (n, l) == (5, 4):
                terms[(1, 0, 0, 1)] += 1
            yield CycleIndexPoly(l, terms)

    monkeypatch.setattr(cyclecount, "cycle_index_polys", wrong)
    check, bound = SUITES["oracle"]
    assert check(bound) == "cycle index mismatch at (n=5, l=4)"


def test_census_json():
    out = io.StringIO()
    enumerate_census(4).write_json(out)
    doc = json.loads(out.getvalue())
    assert doc["schema"] == "involutions/cycle-census/1"
    assert doc["counts"]["2+1+1"] == 6
    assert doc["counts"]["4"] == 6
    assert doc["counts"]["2+2"] == 3


@pytest.mark.parametrize("n", [0, 1, 6, 12, 21])
def test_census_json_equals_the_sorted_json_dumps(n):
    # keys sort as strings ("10+2" before "2+..."), and n = 0 has the key ""
    census = partition_census(n)
    out = io.StringIO()
    census.write_json(out)
    counts = {"+".join(map(str, lam)): count for lam, count in census.counts.items()}
    doc = {"schema": "involutions/cycle-census/1", "n": n, "counts": counts}
    assert out.getvalue() == json.dumps(doc, sort_keys=True) + "\n"
