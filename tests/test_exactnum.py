from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from involutions.exactnum import (
    ZeroValuationError,
    is_prime,
    multinomial,
    nu_int,
    nu_rat,
    partitions,
    primes_upto,
)


def test_multinomial_examples():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(6, (3, 3)) == 20
    assert multinomial(4, (2, 1, 1)) == 12
    with pytest.raises(ValueError):
        multinomial(5, (3, 3))


def test_nu_int_examples():
    assert nu_int(232, 2) == 3
    assert nu_int(1, 7) == 0
    assert nu_rat(Fraction(2, 3), 3) == -1
    with pytest.raises(ZeroValuationError):
        nu_int(0, 2)
    with pytest.raises(ZeroValuationError):
        nu_rat(Fraction(0), 5)
    # the prime check comes first, for zero too
    with pytest.raises(ValueError, match="4 is not prime"):
        nu_int(8, 4)
    with pytest.raises(ValueError, match="4 is not prime") as raised:
        nu_int(0, 4)
    assert not isinstance(raised.value, ZeroValuationError)
    with pytest.raises(ValueError, match="1 is not prime"):
        nu_rat(Fraction(1, 2), 1)


def loop_nu(x, p):
    # independent oracle: strip one factor of p per division
    x, e = abs(x), 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def units(p):
    # integers prime to p, small and large
    return [1, p - 1, p + 1, 7 * p + 1, p**40 - 1, 3**300 * p + 1]


VALUATION_EXPONENTS = {
    2: [*range(70), 500, 501, 504, 1023, 1024, 1025, 4096, 4999, 5000],
    3: [*range(40), 200, 317],
    5: [*range(30), 150],
    97: [*range(10), 60],
}


@pytest.mark.parametrize("p", sorted(VALUATION_EXPONENTS))
def test_nu_int_matches_division_loop(p):
    for k in VALUATION_EXPONENTS[p]:
        for u in units(p):
            assert u % p != 0
            for x in (u * p**k, -u * p**k):
                assert nu_int(x, p) == loop_nu(x, p) == k


@pytest.mark.parametrize("p", sorted(VALUATION_EXPONENTS))
def test_nu_rat_matches_division_loop(p):
    exponents = VALUATION_EXPONENTS[p][::3]
    u, w = units(p)[-2:]
    for a in exponents:
        for b in exponents:
            x = Fraction(u * p**a, -w * p**b)
            expected = loop_nu(x.numerator, p) - loop_nu(x.denominator, p)
            assert nu_rat(x, p) == expected == a - b


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_exact(x, y):
    if x != 0:
        assert x * (1 / x) == 1
    assert (x + y) - y == x


@given(
    st.integers(-10**6, 10**6).filter(lambda v: v != 0),
    st.integers(-10**6, 10**6).filter(lambda v: v != 0),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_additive(x, y, p):
    assert nu_int(x * y, p) == nu_int(x, p) + nu_int(y, p)


def test_partitions_reverse_lex():
    parts = list(partitions(5))
    assert parts == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
                     (1, 1, 1, 1, 1)]
    assert all(sum(lam) == 5 for lam in parts)


def test_primes():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(541) and not is_prime(539)
