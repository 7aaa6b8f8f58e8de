import json
import random
import tracemalloc
from collections import deque
from itertools import accumulate, islice, permutations
from math import factorial, isqrt, prod

import mpmath
import pytest

from involutions import cyclecount
from involutions.asymptotic import _precision, log_exact_count
from involutions.cyclecount import (
    CYCLE_INDEX_BUDGET,
    EXPONENT_BUDGET,
    CycleIndexPoly,
    _count_window,
    _poly_mul,
    _terms_upto,
    cycle_index_poly,
    cycle_index_polys,
    restricted_count,
    toeplitz_determinant,
    toeplitz_matrix,
)
from involutions.exactnum import partitions
from involutions.involution import involution_number, involution_poly
from involutions.oracle import census_cycle_index_terms, enumerate_census, partition_census

EXAMPLE_5_4 = CycleIndexPoly(4, {
    (5, 0, 0, 0): 1,
    (3, 1, 0, 0): 10,
    (2, 0, 1, 0): 20,
    (1, 2, 0, 0): 15,
    (1, 0, 0, 1): 30,
    (0, 1, 1, 0): 20,
})


def test_restricted_count_examples():
    assert restricted_count(5, 4) == 96
    assert all(restricted_count(n, 1) == 1 for n in range(20))
    assert restricted_count(4, 2) == 10


def test_restricted_count_matches_involutions():
    for n in range(201):
        assert restricted_count(n, 2) == involution_number(n)


def test_restricted_count_full_group():
    for n in range(1, 9):
        assert restricted_count(n, n) == factorial(n)


def _counts_by_plain_recurrence(n, l):
    """d(0..n, l) from d(m+1) = sum_{j<l} m!/(m-j)! d(m-j), one sum per m."""
    d = [1]
    for m in range(n):
        total, falling = 0, 1
        for j in range(min(l, m + 1)):
            total += falling * d[m - j]
            falling *= m - j
        d.append(total)
    return d


@pytest.mark.parametrize("l", range(3, 9))
def test_exact_window_at_table_sizes(l):
    # the sizes of the exact-tables workload's d(n, l) tasks; exact mode never cuts
    d = _counts_by_plain_recurrence(4000, l)
    for n in (2000, 2500, 3000, 3500, 4000):
        assert _count_window(n, l) == (d[n], d[n], 0)
        assert restricted_count(n, l) == d[n]


def test_two_term_recurrence_matches_the_window():
    # restricted_count steps d(m+1) = (m+1) d(m) - m!/(m-l)! d(m-l) for l >= 4;
    # the reference is the test copy of the Horner window, an independent form
    for n in range(301):
        for l in range(1, 13):
            assert restricted_count(n, l) == _horner_window(n, l)[0], (n, l)


@pytest.mark.parametrize("n, l", [(4000, 8), (20000, 10), (2000, 100)])
def test_two_term_recurrence_at_scale(n, l):
    assert restricted_count(n, l) == _horner_window(n, l)[0]


def test_restricted_count_clamps_l_to_n():
    # d(n, l) = n! for l >= n; the window holds min(l, n) + 1 terms, not l + 1
    tracemalloc.start()
    try:
        assert restricted_count(5, 10**7) == 120
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("n, l, bits", [(300, 3, 20), (1000, 2, 24), (500, 7, 30), (2000, 5, 40),
                                        (40, 9, 8), (40, 9, 2), (60, 3, 2)])
def test_scaled_window_brackets_the_count(n, l, bits):
    # low 2^s <= d(m, l) <= high 2^s, to a relative width under 2^-(bits-2)
    for m in (0, 1, l - 1, l, n):
        low, high, s = _count_window(m, l, bits)
        assert low << s <= restricted_count(m, l) <= high << s, m
        assert (high - low) << (bits - 2) < low, m
        assert low.bit_length() <= 2 * (bits + m.bit_length()) + m.bit_length() * l, m
    assert s > 0  # the window was cut at n
    d = restricted_count(n, l)
    assert _count_window(n, l) == (d, d, 0)


def _horner_window(n, l, bits=0):
    """The generic deque window that `_count_window` ran for every l, in
    Horner form d(m) + m (d(m-1) + (m-1) (d(m-2) + ...)): the reference of
    its dedicated l = 1, 2 and 3 steps and of the two-term recurrence."""
    width = bits and bits + n.bit_length()
    window = deque([1], maxlen=l)
    s = cuts = 0
    for m in range(n):
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


@pytest.mark.parametrize("l", [1, 2, 3])
def test_dedicated_steps_match_the_generic_window(l):
    for bits in (0, 2, 3, 20, 64, 117):
        for n in range(401):
            assert _count_window(n, l, bits) == _horner_window(n, l, bits), (n, bits)


def test_scaled_window_keeps_its_brackets():
    # the brackets of high = low + ceil(cuts low 2^-(W-2)), W = bits + bits of n,
    # recorded when log_exact_count still computed high from the cut count;
    # the l = 2 one when l = 2 still ran the generic window
    assert _count_window(300, 2, 20) == (4839901742295216088, 4839902860157634466, 980)
    assert _count_window(300, 3, 20) == (3116882318586456318, 3116883293934939200, 1335)
    # recorded from the EGF window, W = bits + bits of n + 2 = 16
    assert _count_window(40, 9, 8) == (47033, 47157, 135)
    assert _count_window(10**12, 1, 64) == (1, 1, 0)  # d(n, 1) = 1, no steps taken
    for bits in (-1, 1):
        with pytest.raises(ValueError, match="bits 0 or at least 2"):
            _count_window(40, 9, bits)


def _assert_brackets(n, l, bits, d):
    low, high, s = _count_window(n, l, bits)
    assert s >= 0, (n, l, bits)
    assert low << s <= d <= high << s, (n, l, bits)
    assert (high - low) << (bits - 2) < low, (n, l, bits)


@pytest.mark.parametrize("l", [*range(4, 13), 40])
def test_egf_window_brackets_the_count(l):
    # l >= 4 with bits > 0, l > n included: low 2^s <= d(n, l) <= high 2^s,
    # to a relative width under 2^-(bits-2), with s >= 0
    for n in range(301):
        d = restricted_count(n, l)
        for bits in (2, 3, 20, 64, 200):
            _assert_brackets(n, l, bits, d)
    # the small n whose d(n, l) is under 2^W come back exact
    assert _count_window(l, l, 200) == (factorial(l), factorial(l), 0)


@pytest.mark.parametrize("n, l", [(2000, 5), (3000, 10**4)])
def test_egf_window_brackets_the_count_at_scale(n, l):
    _assert_brackets(n, l, 200, restricted_count(n, l))


def test_log_exact_count_clamps_l_to_n():
    # the EGF window holds min(l, n) slots, not l
    tracemalloc.start()
    try:
        log = log_exact_count(5, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    with mpmath.mp.workdps(_precision(5)):
        assert log == mpmath.ln(120)


def test_cycle_index_examples():
    assert cycle_index_poly(5, 4) == EXAMPLE_5_4
    assert cycle_index_poly(2, 2) == CycleIndexPoly(2, {(2, 0): 1, (0, 1): 1})
    assert cycle_index_poly(0, 3) == CycleIndexPoly(3, {(0, 0, 0): 1})


def test_cycle_index_sum_and_homogeneity():
    for n in range(31):
        for l in range(1, min(n, 6) + 1):
            poly = cycle_index_poly(n, l)
            assert poly.is_homogeneous(n)
            assert poly.sum_of_coefficients() == restricted_count(n, l)


def test_cycle_index_reduces_to_involution_poly():
    for n in range(31):
        assert cycle_index_poly(n, 2).substitute_y1() == involution_poly(n)


def test_toeplitz_matrix_shape():
    # size n with the worked 5x5 case: stated size n+1 does not reproduce it
    m = toeplitz_matrix(5, 4)
    assert len(m) == 5
    assert m[1][0] == {(0, 0, 0, 0): -1}  # subdiagonal -1
    assert m[0][3] == {(0, 0, 0, 1): 1}  # Y4
    assert m[0][4] == {}


def test_toeplitz_determinant_examples():
    assert toeplitz_determinant(5, 4) == EXAMPLE_5_4
    assert toeplitz_determinant(1, 1) == CycleIndexPoly(1, {(1,): 1})
    assert toeplitz_determinant(3, 2) == CycleIndexPoly(2, {(3, 0): 1, (1, 1): 3})


def test_toeplitz_all_ones_counts():
    for n in range(1, 9):
        for l in range(1, n + 1):
            det = toeplitz_determinant(n, l)
            assert det.sum_of_coefficients() == restricted_count(n, l)


def test_gaussian_form_matches_cycle_index():
    # The paper's matrix: i^(j-k) Y_(j-k+1) on the band, i*j on the
    # subdiagonal.  With |Y| <= 3 every Leibniz product stays far below 2^53,
    # so complex arithmetic is exact.
    rng = random.Random(1406)
    for n in range(1, 8):
        for l in range(1, n + 1):
            y = [rng.randint(-3, 3) for _ in range(l)]

            def entry(k, j):
                if 0 <= j - k <= l - 1:
                    return 1j ** (j - k) * y[j - k]
                return 1j * j if k == j + 1 else 0

            m = [[entry(k, j) for j in range(1, n + 1)] for k in range(1, n + 1)]
            det = 0
            for perm in permutations(range(n)):
                inversions = sum(
                    perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)
                )
                det += (-1) ** inversions * prod(m[k][perm[k]] for k in range(n))
            expected = sum(
                coeff * prod(v**e for v, e in zip(y, exps))
                for exps, coeff in cycle_index_poly(n, l).terms.items()
            )
            assert det.imag == 0 and det.real == expected, (n, l, y)


def test_toeplitz_bound():
    with pytest.raises(ValueError):
        toeplitz_determinant(13, 3)


def _det_cofactor_full(matrix, l):
    """Cofactor expansion along the first row, each minor expanded anew."""
    if not matrix:
        return {(0,) * l: 1}
    total = {}
    for col, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        sign = -1 if col % 2 else 1
        for exps, coeff in _poly_mul(entry, _det_cofactor_full(minor, l)).items():
            total[exps] = total.get(exps, 0) + sign * coeff
    return {exps: coeff for exps, coeff in total.items() if coeff}


def test_trailing_minor_expansion_equals_the_full_cofactor_one():
    for n in range(9):
        for l in range(1, max(n, 1) + 1):
            expected = CycleIndexPoly(l, _det_cofactor_full(toeplitz_matrix(n, l), l))
            assert toeplitz_determinant(n, l) == expected, (n, l)


def _cycle_index_by_n(n, l):
    """g(n) rebuilt from g(0), as cycle_index_poly did before the generator."""
    polys = [CycleIndexPoly(l, {(0,) * l: 1})]
    for m in range(1, n + 1):
        terms = {}
        falling = 1
        for j in range(1, min(l, m) + 1):
            for exps, coeff in polys[m - j].terms.items():
                bumped = list(exps)
                bumped[j - 1] += 1
                terms[tuple(bumped)] = terms.get(tuple(bumped), 0) + falling * coeff
            falling *= m - j
        polys.append(CycleIndexPoly(l, terms))
    return polys[n]


def test_cycle_index_polys_equal_the_per_n_loop_and_the_census():
    for l in range(1, 7):
        polys = list(islice(cycle_index_polys(l), 21))
        assert polys == [_cycle_index_by_n(n, l) for n in range(21)], l
        for n in range(9):
            census = census_cycle_index_terms(enumerate_census(n), l)
            assert polys[n] == CycleIndexPoly(l, census), (n, l)
            assert cycle_index_poly(n, l) == polys[n]


def test_cycle_index_entry_points_raise_when_called():
    with pytest.raises(ValueError):
        cycle_index_polys(0)
    with pytest.raises(ValueError):
        cycle_index_poly(-1, 2)


def test_terms_upto_counts_the_terms_built():
    for l in range(1, 7):
        built = 0
        for n, poly in enumerate(islice(cycle_index_polys(l), 21)):
            built += len(poly.terms)
            assert _terms_upto(n, l) == built, (n, l)
    # the largest cycle index the exact-tables benchmark builds is well inside
    assert max(_terms_upto(n, l) for n in range(31) for l in range(1, 9)) == 15226


@pytest.mark.parametrize("n, l", [(40, 40), (45, 45), (200, 200), (1000, 3), (893, 2),
                                  (CYCLE_INDEX_BUDGET, 1), (10**12, 1), (10**12, 10**12)])
def test_cycle_index_budget_refuses_before_any_work(n, l, monkeypatch):
    def no_polys(l):
        raise AssertionError(f"cycle index polynomials built for l={l}")
    monkeypatch.setattr(cyclecount, "cycle_index_polys", no_polys)
    with pytest.raises(ValueError, match=f"cycle-index budget {CYCLE_INDEX_BUDGET}$"):
        cycle_index_poly(n, l)


@pytest.mark.parametrize("n, l", [(39, 39), (892, 2), (CYCLE_INDEX_BUDGET - 1, 1)])
def test_cycle_index_budget_admits_the_largest_inside(n, l, monkeypatch):
    def no_polys(l):
        raise AssertionError("built")
    monkeypatch.setattr(cyclecount, "cycle_index_polys", no_polys)
    assert _terms_upto(n, l) <= CYCLE_INDEX_BUDGET
    with pytest.raises(AssertionError, match="built"):
        cycle_index_poly(n, l)


@pytest.mark.parametrize("build, n, l", [
    ("cycle_index_poly", 20, 10**5), ("toeplitz_determinant", 8, 10**6),
    ("cycle_index_poly", 5, 10**7), ("toeplitz_determinant", 5, 10**7),
    ("cycle_index_poly", 39, 40),
])
def test_exponent_budget_refuses_before_any_work(build, n, l, monkeypatch):
    # each term holds l exponents: inside the term budget alone, the
    # determinant at (8, 10^6) took 18 s and 976 MB
    def no_work(*args):
        raise AssertionError(f"work started for {args}")
    monkeypatch.setattr(cyclecount, "cycle_index_polys", no_work)
    monkeypatch.setattr(cyclecount, "toeplitz_matrix", no_work)
    with pytest.raises(ValueError, match=f"exponent budget {EXPONENT_BUDGET}$"):
        getattr(cyclecount, build)(n, l)


def test_exponent_budget_admits_every_l_up_to_n_inside_the_term_budget():
    # (39, 39) has the most exponents of every (n, l <= n) that the term
    # budget admits; l = 1 has n + 1 <= CYCLE_INDEX_BUDGET
    n_max = 2 * isqrt(CYCLE_INDEX_BUDGET) - 1  # (n//2 + 1)^2 <= budget
    ways = [1] * (n_max + 1)  # partitions of m into parts <= l
    widest = (0, 0, 0)
    for l in range(2, n_max + 1):
        for m in range(l, n_max + 1):
            ways[m] += ways[m - l]
        terms = list(accumulate(ways))  # terms[n] = _terms_upto(n, l)
        widest = max([widest] + [(terms[n] * l, n, l) for n in range(l, n_max + 1)
                                 if terms[n] <= CYCLE_INDEX_BUDGET])
    assert widest == (39 * _terms_upto(39, 39), 39, 39)
    assert CYCLE_INDEX_BUDGET <= widest[0] <= EXPONENT_BUDGET < 40 * _terms_upto(39, 40)


def test_statistic_matches_counting_formula():
    # each coefficient of g(n) counts one cycle type, as n!/prod(t^et * et!) does
    for n in range(1, 9):
        counts = partition_census(n).counts
        for lam in partitions(n):
            exps = [0] * lam[0]
            for part in lam:
                exps[part - 1] += 1
            assert cycle_index_poly(n, lam[0]).terms[tuple(exps)] == counts[lam]


def test_cycle_type_count_examples():
    assert partition_census(5).counts[(3, 2)] == 20
    assert partition_census(8).counts[(2, 2, 2, 2)] == 105
    assert partition_census(6).counts[(1, 1, 1, 1, 1, 1)] == 1


def test_json_and_str():
    doc = json.loads(EXAMPLE_5_4.to_json())
    assert doc["schema"] == "involutions/cycle-index/1"
    assert doc["terms"][0] == {"exponents": [5, 0, 0, 0], "coefficient": 1}
    assert str(cycle_index_poly(2, 2)) == "Y1^2 + Y2"
