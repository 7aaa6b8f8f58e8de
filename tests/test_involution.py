import decimal
import re
import sys
import threading
from itertools import islice
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from involutions import involution
from involutions.asymptotic import beta_series_extraction, log_exact_count
from involutions.cli import _EXACT, EXIT_USAGE, SUITES, run
from involutions.cyclecount import _count_window, restricted_count, toeplitz_matrix
from involutions.exactnum import multinomial, nu_int, partitions
from involutions.involution import (
    POLY_BUDGET,
    Cursor,
    double_factorial_odd,
    hermite_poly,
    involution_number,
    involution_number_bisplit,
    involution_number_by_sum,
    involution_numbers,
    involution_poly,
    involution_terms,
    umbral_derivative_coeffs,
)
from involutions.oracle import partition_census
from involutions.partialsum import F_sum, partial_sum, partial_sum_by_binomial
from involutions.series import TruncatedEGF
from involutions.valuation import (
    build_valuation_tree,
    inefficient_primes_upto,
    nu2_involution,
    nu2_involution_floor,
    nu2_partial_sum,
    nu3_partial_sum,
    periodicity_check,
)

KNOWN_TABLE = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]


def test_involution_number_examples():
    assert involution_number(0) == 1
    assert involution_number(10) == 9496
    assert involution_number(12) == 140152
    assert [involution_number(n) for n in range(11)] == KNOWN_TABLE


def test_cursor_under_concurrent_callers():
    # a read racing another read's advance or restart returns the term of
    # the wrong index or finds the generator already executing; one round
    # catches a missing lock only sometimes, so run several
    reference = list(islice(involution_numbers(), 300))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cursor = Cursor("I", involution_numbers)
            start = threading.Barrier(8)
            got = []

            def read(k):
                indices = range(k % 3, 300, 3)
                start.wait()
                for n in reversed(indices) if k % 2 else indices:
                    try:
                        got.append(cursor.read(n) == reference[n])
                    except ValueError:
                        got.append(False)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 800 and all(got)
    finally:
        sys.setswitchinterval(interval)


def test_cursor_recovers_from_an_exception_inside_next():
    # the first generator raises mid-stream, as an alarm or KeyboardInterrupt
    # would; that finishes it, so the cursor must restart on the next read
    made = []

    def terms():
        made.append(None)
        for n, term in enumerate(involution_numbers()):
            if len(made) == 1 and n == 7:
                raise KeyboardInterrupt
            yield term

    cursor = Cursor("I", terms)
    assert cursor.read(5) == KNOWN_TABLE[5]
    with pytest.raises(KeyboardInterrupt):
        cursor.read(9)
    assert cursor.read(10) == KNOWN_TABLE[10]
    assert cursor.read(6) == KNOWN_TABLE[6]


def test_descending_read_restarts():
    assert involution_number(300) == involution_number_by_sum(300)
    assert involution_number(299) == involution_number_by_sum(299)
    assert involution_number(299) == involution_number_by_sum(299)  # same index
    with pytest.raises(ValueError):
        involution_number(-1)


@pytest.mark.parametrize("call", [
    lambda: involution_number(2.5),
    lambda: partial_sum(3.2),
    lambda: restricted_count(5.0, 2),
    lambda: restricted_count(5, 2.0),
    lambda: restricted_count(5, 4.0),
    lambda: _count_window(5.0, 2),
    lambda: _count_window(5, 2.0),
    lambda: _count_window(5, 3, 20.0),
    lambda: log_exact_count(5.0, 3),
    lambda: log_exact_count(50, 2.0),
], ids=["involution", "partial_sum", "restricted_n", "restricted_l", "restricted_l_two_term",
        "window_n", "window_l", "window_bits", "log_exact_n", "log_exact_l"])
def test_a_non_integer_index_is_refused(call):
    # a float index was read as the next integer up, or refused only by accident
    with pytest.raises(TypeError):
        call()


def test_a_read_after_a_refused_read_still_works():
    cursor = Cursor("I", involution_numbers)
    assert cursor.read(5) == KNOWN_TABLE[5]
    with pytest.raises(TypeError):
        cursor.read(5.5)
    assert cursor.read(6) == KNOWN_TABLE[6]
    assert cursor.read(4) == KNOWN_TABLE[4]
    with pytest.raises(TypeError):
        partial_sum(2.0)
    assert partial_sum(3) == sum(KNOWN_TABLE[:4])


def test_reads_run_in_constant_memory(run_measured):
    # the cursor keeps one term: at the memo tables' n = 50000, I alone
    # peaked at 1157 MB; the residues cross-check the values
    child = (
        "from involutions.involution import involution_number\n"
        "from involutions.partialsum import partial_sum\n"
        "from involutions.valuation import involution_mod_sequence\n"
        "P = 2**61 - 1\n"
        "residues = involution_mod_sequence(P, 50000)\n"
        "assert involution_number(50000) % P == residues[-1]\n"
        "assert partial_sum(50000) % P == sum(residues) % P\n"
    )
    proc, peak_kb = run_measured("-c", child)
    assert proc.returncode == 0, proc.stderr
    assert peak_kb < 100 * 1024


def test_terms_over_decimal_equal_the_terms_over_int():
    # the CLI tables run the generator over Decimal in the exact context
    with decimal.localcontext(_EXACT):
        over_decimal = list(islice(involution_numbers(one=decimal.Decimal(1)), 3001))
    over_int = list(islice(involution_numbers(), 3001))
    assert all(isinstance(d, decimal.Decimal) for d in over_decimal)
    assert over_decimal == over_int


def test_involution_number_by_sum_examples():
    assert involution_number_by_sum(1) == 1
    assert involution_number_by_sum(4) == 10
    assert involution_number_by_sum(6) == 76


def test_forms_agree_to_500():
    for n in range(501):
        assert involution_number_by_sum(n) == involution_number(n)


def test_carried_forms_equal_the_binomial_formulas():
    # the binomial and factorial forms each term was evaluated by before
    # the terms were carried by their ratios
    for n in range(301):
        js = range(n // 2 + 1)
        assert involution_number_by_sum(n) == sum(
            comb(n, 2 * j) * comb(2 * j, j) * factorial(j) // 2**j for j in js)
        coeffs = [0] * (n + 1)
        for j in js:
            coeffs[n - 2 * j] = comb(n, 2 * j) * double_factorial_odd(j)
        assert involution_poly(n) == coeffs
        for j in js:
            coeffs[n - 2 * j] *= (-1) ** j
        assert hermite_poly(n) == coeffs
    values = list(islice(involution_numbers(), 61))
    for a in range(61):
        for b in range(61 - a):
            assert involution_number_bisplit(a, b) == sum(
                factorial(k) * comb(a, k) * comb(b, k) * values[a - k] * values[b - k]
                for k in range(min(a, b) + 1)), (a, b)


def test_double_factorial_odd_examples():
    assert double_factorial_odd(0) == 1
    assert double_factorial_odd(3) == 15
    assert double_factorial_odd(5) == 945


def test_double_factorial_odd_is_odd():
    for j in range(201):
        assert nu_int(double_factorial_odd(j), 2) == 0


def test_bisplit_examples():
    assert involution_number_bisplit(2, 2) == 10 == involution_number(4)
    assert involution_number_bisplit(0, 5) == 26
    assert involution_number_bisplit(3, 4) == 232


def test_bisplit_third_split():
    for n in range(201):
        split = n // 3
        assert involution_number_bisplit(split, n - split) == involution_number(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.data())
def test_bisplit_any_split(total, data):
    n = data.draw(st.integers(0, total))
    assert involution_number_bisplit(n, total - n) == involution_number(total)


def test_involution_poly_examples():
    assert involution_poly(0) == [1]
    assert involution_poly(3) == [0, 3, 0, 1]  # t^3 + 3t
    assert involution_poly(4) == [3, 0, 6, 0, 1]


def test_involution_poly_matches_recurrence():
    # P(n) = t P(n-1) + (n-1) P(n-2), P(0) = 1, P(1) = t
    lower, poly = [], [1]
    for n in range(40):
        assert involution_poly(n) == poly
        lower, poly = poly, [a + n * b for a, b in zip([0] + poly, lower + [0, 0])]


def test_involution_poly_evaluations():
    for n in range(201):
        p = involution_poly(n)
        assert sum(p) == involution_number(n)
        assert p[0] == (0 if n % 2 else double_factorial_odd(n // 2))


def test_perfect_matchings_are_odd_double_factorials():
    for n in range(0, 41, 2):
        expected = 1
        for j in range(1, n, 2):
            expected *= j
        assert involution_poly(n)[0] == expected


def test_hermite_examples():
    assert hermite_poly(0) == [1]
    assert hermite_poly(2) == [-1, 0, 1]
    assert hermite_poly(4) == [3, 0, -6, 0, 1]


def test_hermite_recurrence():
    # H(n) = t H(n-1) - (n-1) H(n-2), the classical three-term form
    for n in range(2, 60):
        t_higher = [0] + hermite_poly(n - 1)
        lower = hermite_poly(n - 2) + [0, 0]
        assert hermite_poly(n) == [a - (n - 1) * b for a, b in zip(t_higher, lower)]


def test_hermite_suite_catches_a_corrupt_involution_term(monkeypatch):
    # He is I(n; t) with signs, so a wrong t(2) at n = 7 changes both alike;
    # the suite checks I(n; t) against its own recurrence first
    terms = involution.involution_terms

    def corrupt(n):
        for j, t in enumerate(terms(n)):
            yield t + 1 if (n, j) == (7, 2) else t

    monkeypatch.setattr(involution, "involution_terms", corrupt)
    check, bound = SUITES["hermite"]
    assert check(bound) == "involution polynomial recurrence fails at n=7"


def test_hermite_suite_catches_a_wrong_sign(monkeypatch):
    # the signs are all that He adds to I(n; t): only He's recurrence sees them
    right = involution.hermite_poly
    monkeypatch.setattr(involution, "hermite_poly",
                        lambda n: [-c if (n, k) == (7, 3) else c for k, c in enumerate(right(n))])
    check, bound = SUITES["hermite"]
    assert check(bound) == "Hermite relation fails at n=7"


@pytest.mark.parametrize("suite, k, counterexample", [
    ("hermite", 3, "involution polynomial recurrence fails at n=7"),
    ("cycle-index", 3, "fixed point polynomial mismatch at n=7"),
    ("hermite", 0, "perfect matchings mismatch at n=7"),
], ids=["hermite", "cycle-index", "hermite-constant-term"])
def test_suites_catch_a_wrong_involution_poly_coefficient(suite, k, counterexample, monkeypatch):
    # the coefficient of t^k in I(7; t); I(7; 0) = 0, as 7 points have no perfect matching
    right = involution.involution_poly

    def wrong(n):
        coeffs = right(n)
        if n == 7:
            coeffs[k] += 1
        return coeffs

    monkeypatch.setattr(involution, "involution_poly", wrong)
    check, bound = SUITES[suite]
    assert check(bound) == counterexample


@pytest.mark.parametrize("call", [
    lambda: list(involution_terms(-1)),
    lambda: involution_poly(-1),
    lambda: hermite_poly(-2),
    lambda: involution_number_by_sum(-1),
    lambda: partial_sum_by_binomial(-3),
    lambda: involution_number_bisplit(-1, 3),
    lambda: involution_number_bisplit(3, -1),
    lambda: umbral_derivative_coeffs(-1),
], ids=["terms", "poly", "hermite", "by_sum", "by_binomial", "bisplit_n", "bisplit_m", "umbral"])
def test_negative_n_is_refused_not_read_as_an_empty_sum(call):
    with pytest.raises(ValueError, match=r"^requires [nm] >= 0"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: nu2_involution(-1), "requires n >= 0"),
    (lambda: nu2_involution_floor(-1), "requires n >= 0"),
    (lambda: nu2_partial_sum(-1), "requires n >= 0"),
    (lambda: nu3_partial_sum(-1), "requires n >= 0"),
    (lambda: inefficient_primes_upto(2), "requires bound >= 3"),
    (lambda: periodicity_check(9, 1, 10), "9 is not prime"),
    (lambda: build_valuation_tree(5, 0), "requires max_level >= 1"),
    (lambda: build_valuation_tree(2, 1), "2 is not an odd prime"),
    (lambda: build_valuation_tree(9, 1), "9 is not an odd prime"),
    (lambda: restricted_count(-1, 2), "requires n >= 0 and l >= 1"),
    (lambda: restricted_count(3, 0), "requires n >= 0 and l >= 1"),
    (lambda: restricted_count(-1, 10), "requires n >= 0 and l >= 1"),
    (lambda: restricted_count(10, -3), "requires n >= 0 and l >= 1"),
    (lambda: restricted_count(0, 0), "requires n >= 0 and l >= 1"),
    (lambda: toeplitz_matrix(-1, 2), "requires n >= 0 and l >= 1"),
    (lambda: toeplitz_matrix(3, 0), "requires n >= 0 and l >= 1"),
    (lambda: list(partitions(-1)), "partitions of negative n"),
    (lambda: partition_census(-1), "requires n >= 0"),
    (lambda: F_sum(1, -1, 1), "requires beta >= 0"),
    (lambda: TruncatedEGF([1], -1), "order must be >= 0"),
    (lambda: TruncatedEGF.x_power(-1, 4, 7), "x_power requires k >= 0"),
    (lambda: list(islice(involution_numbers(-5), 3)), "modulus must be >= 0"),
    (lambda: beta_series_extraction(3, 0), "requires 0 < k < l"),
    (lambda: beta_series_extraction(3, 3), "requires 0 < k < l"),
    (lambda: multinomial(4, (4, 0)), "partition parts must be positive: (4, 0)"),
], ids=["nu2_involution", "nu2_floor", "nu2_partial_sum", "nu3_partial_sum", "scan_bound",
        "periodicity_composite", "tree_level", "tree_p2", "tree_composite", "restricted_n",
        "restricted_l", "restricted_n_two_term", "restricted_l_negative", "restricted_0_0", "toeplitz_n", "toeplitz_l", "partitions", "census", "F_sum_beta",
        "egf_order", "egf_x_power", "involution_modulus", "beta_k0", "beta_kl",
        "multinomial_part"])
def test_input_outside_the_domain_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_polynomials_past_the_budget_are_refused_before_any_term(monkeypatch, capsys):
    def no_terms(n):
        raise AssertionError(f"the terms of {n} were built")

    monkeypatch.setattr(involution, "involution_terms", no_terms)
    n = POLY_BUDGET + 1
    for build in (involution_poly, hermite_poly):
        with pytest.raises(ValueError, match=f"^n = {n} exceeds the polynomial budget {POLY_BUDGET}$"):
            build(n)
    assert run(["invol", "--n", str(n), "--poly"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_umbral_examples():
    assert umbral_derivative_coeffs(0) == [1]
    assert umbral_derivative_coeffs(1) == [1, 1]
    assert umbral_derivative_coeffs(2) == [2, 2, 1]


@given(st.integers(0, 120))
def test_recurrence_invariant(n):
    if n >= 2:
        assert involution_number(n) == involution_number(n - 1) + (
            n - 1
        ) * involution_number(n - 2)
