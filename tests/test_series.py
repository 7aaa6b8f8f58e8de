from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from involutions import involution, partialsum
from involutions.cli import SUITES
from involutions.cyclecount import restricted_count
from involutions.involution import involution_number, umbral_derivative_coeffs
from involutions.partialsum import partial_sum
from involutions.series import (
    TruncatedEGF,
    cycle_egf_exponent,
    exp_x,
    involution_egf,
    partial_sum_transform,
    series_derive,
    series_exp,
    series_integrate,
    series_mul,
)

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


def series(order):
    return st.lists(
        small_fractions, min_size=order + 1, max_size=order + 1
    ).map(lambda cs: TruncatedEGF(cs, order))


def ordinary(a):
    """The ordinary power-series coefficients a(n)/n! of an EGF."""
    return [a.coefficient(n) for n in range(a.order + 1)]


def fraction_mul(xs, ys):
    """Reference Cauchy product of ordinary coefficients: the Fraction loop."""
    order = min(len(xs), len(ys)) - 1
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += xs[i] * ys[j]
    return out


def fraction_exp(cs):
    """Reference exp of ordinary coefficients:
    (n+1) e(n+1) = sum_k (k+1) c(k+1) e(n-k) over Fractions."""
    order = len(cs) - 1
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(order):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += (k + 1) * cs[k + 1] * out[n - k]
        out[n + 1] = acc / (n + 1)
    return out


def without_constant(a):
    return a - TruncatedEGF.x_power(0, a.order, a.coefficient(0))


def test_truncated_egf_basics():
    f = TruncatedEGF([1, 2, 3])
    assert f.order == 2
    assert f.egf_coefficient(2) == 3
    assert f.coefficient(2) == Fraction(3, 2)
    with pytest.raises(IndexError):
        f.coefficient(3)
    with pytest.raises(IndexError):
        f.coefficient(-1)  # not the top coefficient, as a list index would give
    with pytest.raises(IndexError):
        f.egf_coefficient(-1)
    with pytest.raises(ValueError):
        f.truncate(5)
    assert f.truncate(1) == TruncatedEGF([1, 2])


def test_padding_and_truncation_on_init():
    f = TruncatedEGF([1], 3)
    assert f.values == [1, 0, 0, 0]
    g = TruncatedEGF([1, 2, 3, 4], 1)
    assert g.values == [1, 2]


def test_series_mul_example():
    # (1+x)(1-x) = 1 - x^2, whose EGF values are 1, 0, -2
    a = TruncatedEGF([1, 1, 0])
    b = TruncatedEGF([1, -1, 0])
    assert series_mul(a, b) == TruncatedEGF([1, 0, -2])


def test_derive_integrate_orders():
    # 1 + x + x^2 + x^3, by its EGF values
    f = TruncatedEGF([1, 1, 2, 6])
    d = series_derive(f)
    assert d.order == 2 and ordinary(d) == [1, 2, 3]
    i = series_integrate(f)
    assert i.order == 4 and ordinary(i) == [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def test_exp_of_x():
    e = exp_x(10)
    assert series_exp(TruncatedEGF.x_power(1, 10)) == e
    for n in range(11):
        assert e.coefficient(n) == Fraction(1, int_fact(n))


def int_fact(n):
    out = 1
    for j in range(2, n + 1):
        out *= j
    return out


def test_series_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(TruncatedEGF([1, 1]))


def test_exp_functional_equation():
    # exp(s) * exp(-s) = 1 through the truncation order
    s = TruncatedEGF([0, 1, Fraction(1, 2), Fraction(-1, 3)], 6)
    product = series_mul(series_exp(s), series_exp(-s))
    assert product == TruncatedEGF.one(6)


@settings(max_examples=40, deadline=None)
@given(series(6), series(6))
def test_exp_turns_sums_into_products(a, b):
    a = a - TruncatedEGF.x_power(0, 6, a.coefficient(0))
    b = b - TruncatedEGF.x_power(0, 6, b.coefficient(0))
    assert series_exp(a + b) == series_mul(series_exp(a), series_exp(b))


@settings(max_examples=40, deadline=None)
@given(series(5), series(5))
def test_product_rule(a, b):
    lhs = series_derive(series_mul(a, b))
    rhs = series_mul(series_derive(a), b.truncate(4)) + series_mul(
        a.truncate(4), series_derive(b)
    )
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(series(8), series(8), series(5))
def test_integer_kernels_equal_the_fraction_loops(a, b, c):
    assert ordinary(series_mul(a, b)) == fraction_mul(ordinary(a), ordinary(b))
    # truncated to the smaller order
    assert ordinary(series_mul(a, c)) == fraction_mul(ordinary(a), ordinary(c))
    a = without_constant(a)
    assert ordinary(series_exp(a)) == fraction_exp(ordinary(a))


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_integer_kernels_equal_the_fraction_loops_at_order_120(l):
    s = cycle_egf_exponent(l, 120)
    f = series_exp(s)
    assert ordinary(f) == fraction_exp(ordinary(s))
    top = TruncatedEGF.x_power(l, 120, Fraction(1, l))
    assert type(top.egf_coefficient(l)) is int  # (l-1)!, so the kernels stay on ints
    shorter = series_exp(cycle_egf_exponent(l - 1, 120))
    product = series_mul(shorter, series_exp(top))
    assert product == f
    assert ordinary(product) == fraction_mul(ordinary(shorter), fraction_exp(ordinary(top)))
    assert ordinary(series_mul(f, s)) == fraction_mul(ordinary(f), ordinary(s))


def test_exp_of_zero_is_one():
    assert series_exp(TruncatedEGF.zero(5)) == TruncatedEGF.one(5)
    assert series_exp(TruncatedEGF.zero(0)) == TruncatedEGF.one(0)


def test_cycle_egf_exponent():
    s = cycle_egf_exponent(3, 5)
    assert s.values == [0, 1, 1, 2, 0, 0]
    assert ordinary(s) == [0, 1, Fraction(1, 2), Fraction(1, 3), 0, 0]


def test_involution_egf_values():
    f = involution_egf(30)
    assert f.egf_coefficient(0) == 1
    assert f.egf_coefficient(10) == 9496
    for n in range(31):
        assert f.egf_coefficient(n) == involution_number(n)
        assert type(f.egf_coefficient(n)) is int


def test_partial_sum_egf_identity():
    # exp(x + x^2/2) + e^x * integral of exp(t^2/2) is the EGF of a(n)
    integral = series_integrate(series_exp(TruncatedEGF.x_power(2, 19, Fraction(1, 2))))
    g = involution_egf(20) + series_mul(exp_x(20), integral)
    assert g.order == 20
    for n in range(21):
        assert g.egf_coefficient(n) == partial_sum(n)


def test_partial_sum_transform_on_involutions():
    g = partial_sum_transform(involution_egf(20))
    for n in range(21):
        assert g.egf_coefficient(n) == partial_sum(n)


@settings(max_examples=40, deadline=None)
@given(series(8))
def test_lemma_partial_sums_any_series(w):
    g = partial_sum_transform(w)
    assert g.order == w.order
    running = 0
    for n in range(w.order + 1):
        running += w.egf_coefficient(n)
        assert g.egf_coefficient(n) == running


def test_restricted_egf_coefficients():
    for l in range(1, 6):
        f = series_exp(cycle_egf_exponent(l, 30))
        assert all(f.egf_coefficient(n) == restricted_count(n, l) for n in range(31))
        assert all(type(d) is int for d in f.values)


def test_umbral_derivative_identity():
    # d^m/dx^m exp(x + x^2/2) = exp(x + x^2/2) * sum_k C(m,k) I(m-k) x^k;
    # the egf suite checks m < 7
    f = involution_egf(30)
    for m in (0, 1, 2, 3, 5, 8):
        derivative = f
        for _ in range(m):
            derivative = series_derive(derivative)
        coeffs = umbral_derivative_coeffs(m)
        umbral = TruncatedEGF([int_fact(k) * c for k, c in enumerate(coeffs)], 30)
        assert series_mul(f, umbral).truncate(30 - m) == derivative


def test_egf_suite_catches_a_wrong_partial_sum(monkeypatch):
    right = partialsum.partial_sum
    monkeypatch.setattr(partialsum, "partial_sum", lambda n: right(n) + (n == 17))
    check, bound = SUITES["egf"]
    assert check(bound) == "partial sum EGF mismatch at n=17"


def test_egf_suite_catches_a_wrong_umbral_polynomial(monkeypatch):
    right = involution.umbral_derivative_coeffs

    def wrong(m):
        coeffs = right(m)
        if m == 4:
            coeffs[2] += 1
        return coeffs

    monkeypatch.setattr(involution, "umbral_derivative_coeffs", wrong)
    check, bound = SUITES["egf"]
    assert check(bound) == "umbral identity fails at m=4"


def test_egf_suite_catches_a_wrong_partial_sum_transform(monkeypatch):
    def wrong(w):
        g = partial_sum_transform(w)
        g.values[12] += 1
        return g

    monkeypatch.setattr("involutions.series.partial_sum_transform", wrong)
    check, bound = SUITES["egf"]
    assert check(bound) == "partial sum lemma fails at (n=12, l=2)"
