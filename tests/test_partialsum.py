import decimal
from fractions import Fraction
from itertools import count, islice
from math import comb

import pytest

from involutions import partialsum
from involutions.cli import _EXACT, SUITES
from involutions.involution import double_factorial_odd, involution_number
from involutions.partialsum import (
    F_sum,
    b_k,
    cauchy_alternating_sum,
    partial_sum,
    partial_sum_by_binomial,
    partial_sums,
)

KNOWN_TABLE = [1, 2, 4, 8, 18, 44, 120, 352, 1116, 3736, 13232]


def three_term_partial_sums(one=1):
    """a(n) = 2a(n-1) + (n-2)a(n-2) - (n-1)a(n-3), a(-2) = a(-1) = 0: the
    paper's recurrence, once the engine, kept here as the reference."""
    x, y, z = 0, 0, one
    for m in count(1):
        yield z
        x, y, z = y, z, 2 * z + (m - 2) * y - (m - 1) * x


def test_partial_sum_examples():
    assert partial_sum(0) == 1
    assert partial_sum(10) == 13232
    assert partial_sum(11) == 13232 + involution_number(11) == 48928
    assert [partial_sum(n) for n in range(11)] == KNOWN_TABLE


def test_terms_over_decimal_equal_the_terms_over_int():
    # the CLI tables run the generator over Decimal in the exact context; the
    # paper's recurrence is the reference in both rings
    with decimal.localcontext(_EXACT):
        one = decimal.Decimal(1)
        over_decimal = list(islice(partial_sums(one=one), 3001))
        reference = list(islice(three_term_partial_sums(one=one), 3001))
    over_int = list(islice(partial_sums(), 3001))
    assert all(isinstance(d, decimal.Decimal) for d in over_decimal)
    assert over_decimal == reference == over_int == list(islice(three_term_partial_sums(), 3001))


def test_descending_read_restarts():
    assert partial_sum(300) == partial_sum_by_binomial(300)
    assert partial_sum(299) == partial_sum_by_binomial(299)
    with pytest.raises(ValueError):
        partial_sum(-1)


def test_partial_sum_by_binomial_examples():
    assert partial_sum_by_binomial(1) == 2
    assert partial_sum_by_binomial(4) == 18
    assert partial_sum_by_binomial(7) == 352


def test_three_way_agreement():
    # the running sums against the paper's recurrence, which fixes them by
    # induction from a(0) = 1, a(-2) = a(-1) = 0, and the binomial form
    x, y, z = 0, 0, 0  # a(n-3), a(n-2), a(n-1)
    for n in range(501):
        a = partial_sum(n)
        assert a == (2 * z + (n - 2) * y - (n - 1) * x if n else 1)
        assert a == partial_sum_by_binomial(n)
        x, y, z = y, z, a


def test_cauchy_alternating_sum_examples():
    assert cauchy_alternating_sum(3) == 1
    assert cauchy_alternating_sum(2) == 0
    assert cauchy_alternating_sum(5) == 3


def test_cauchy_suite_catches_a_wrong_partial_sum(monkeypatch):
    # the alternating sum at n = 2m reads a(0), ..., a(2m-1): a(5) from m = 3 on
    right = partialsum.partial_sum
    monkeypatch.setattr(partialsum, "partial_sum", lambda n: right(n) + (n == 5))
    check, bound = SUITES["cauchy"]
    assert check(bound) == "even alternating sum nonzero at m=3"


def test_f_sum_examples():
    assert F_sum(1, 0, 1) == 4 == involution_number(3)
    assert F_sum(1, 1, 1) == 10
    assert F_sum(1, 2, 1) == 28


def test_f_sum_beta_zero_alpha_independent():
    for k in range(1, 26):
        expected = involution_number(4 * k - 1)
        for alpha in (-3, 0, 1, 2, 9):
            assert F_sum(alpha, 0, k) == expected


def test_f_sum_beta_one_identity():
    # F(alpha,1,k) = alpha I(4k-1) + 2(4k-1)(2k-1) I(4k-3)
    for k in range(1, 26):
        for alpha in (1, 3, 5, 7, 9):
            expected = alpha * involution_number(4 * k - 1) + 2 * (4 * k - 1) * (
                2 * k - 1
            ) * involution_number(4 * k - 3)
            assert F_sum(alpha, 1, k) == expected


def test_b_k_examples():
    assert b_k(1) == 2
    assert b_k(2) == 44
    assert b_k(3) == Fraction(12232, 3)


def test_preconditions():
    with pytest.raises(ValueError):
        cauchy_alternating_sum(0)
    with pytest.raises(ValueError):
        F_sum(1, 0, 0)
    with pytest.raises(ValueError):
        b_k(0)


def test_carried_sums_equal_the_binomial_formulas():
    # the f-sum suite's range, against the binomial and double-factorial
    # form each term was evaluated by before the terms were carried
    def term(k, j):
        return double_factorial_odd(j) * comb(4 * k - 1, 2 * j)

    for k in range(1, 13):
        for alpha in (1, 3, 5, 7, 9):
            for beta in range(1, 7):
                assert F_sum(alpha, beta, k) == sum(
                    (2 * j + alpha) ** beta * term(k, j) for j in range(2 * k))
    for k in range(1, 26):
        assert b_k(k) == sum(Fraction(term(k, j), 2 * j + 1) for j in range(2 * k))
    # the binomial form of a(n), whose whole term is carried by its ratio
    for n in range(301):
        assert partial_sum_by_binomial(n) == sum(
            double_factorial_odd(k) * comb(n + 1, 2 * k + 1) for k in range(n // 2 + 1))


def test_binomial_form_equals_the_running_sums():
    assert [partial_sum_by_binomial(n) for n in range(601)] == list(islice(partial_sums(), 601))
