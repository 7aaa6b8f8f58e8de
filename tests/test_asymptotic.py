import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import mpmath
import pytest

from involutions import asymptotic
from involutions.asymptotic import (
    CLOSED_FORM_BUDGET,
    DEFAULT_DPS,
    _precision,
    beta_closed_form,
    beta_series_extraction,
    estimate_closed_form,
    estimate_saddle,
    fit_phi_coefficients,
    log_exact_count,
    log_factorial,
    phi_at,
    solve_saddle,
)
from involutions.cyclecount import restricted_count
from involutions.involution import involution_number


def ratio(n, l):
    est = estimate_saddle(n, l)
    return float(mpmath.exp(est.log_value - log_exact_count(n, l)))


def test_solve_saddle_examples():
    sol = solve_saddle(12, 2)
    # r + r^2 = 12 has the positive root 3
    assert abs(sol.r_plus - 3) < 1e-10
    assert abs(solve_saddle(100, 1).r_plus - 100) == 0
    sol3 = solve_saddle(1000, 3)
    value = sol3.r_plus + sol3.r_plus**2 + sol3.r_plus**3
    assert abs(value - 1000) < 1e-9


def test_solve_saddle_residual_bound():
    for n in (10, 100, 10**6):
        for l in (2, 3, 4, 7):
            sol = solve_saddle(n, l)
            assert abs(sol.residual) < 1e-12
    for (n, l) in ((1000, 2), (200, 3)):
        assert abs(solve_saddle(n, l).residual) < 1e-12
    # the working precision grows with n, so the absolute bound holds far
    # past the 40 digits that reach only n ~ 10^29, and past the 4300 digits
    # that str(n) accepts
    for n in (10**29, 10**30, 10**40, 10**45, 10**5000):
        for l in (2, 3, 4, 5):
            sol = solve_saddle(n, l)
            assert abs(sol.residual) < 1e-12
            assert abs(sol.r_plus / mpmath.mpf(n) ** (mpmath.mpf(1) / l) - 1) < 1e-6


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 7, 30, 200])
def test_solve_saddle_root_holds_at_twice_the_precision(l, monkeypatch):
    ns = (1, 2, l, 10, 12, 601, 10**6, 10**29, 10**40, 10**5000)
    roots = [solve_saddle(n, l).r_plus for n in ns]
    # at n = l the root is 1, where the geometric form r(r^l - 1)/(r - 1)
    # loses its digits
    assert abs(roots[2] - 1) < mpmath.mpf(10) ** (1 - _precision(l))
    monkeypatch.setattr(asymptotic, "_precision", lambda n: 2 * _precision(n))
    for n, root in zip(ns, roots):
        bound = mpmath.mpf(10) ** (1 - _precision(n))
        with mpmath.mp.workdps(2 * _precision(n)):
            assert abs(root / solve_saddle(n, l).r_plus - 1) < bound
            # r + ... + r^l - n is increasing, so its signs at root * (1 -+ bound)
            # bracket the true root; a rule that stops at a fixed tolerance
            # stops at the same iterate at both precisions, and fails only here
            below, above = (mpmath.polyval([1] * l + [0], root * (1 + s * bound)) - n
                            for s in (-1, 1))
            assert below < 0 < above


def test_solve_saddle_root_below_one_at_n_1():
    # the fixed-point scale is 2^0 there, and the iterates fall from the start 1
    for l in range(2, 201):
        sol = solve_saddle(1, l)
        assert 0 < sol.r_plus < 1
        assert abs(sol.residual) < 1e-30


# mpmath.nstr(solve_saddle(10**e, l).r_plus, 17), as `asym --saddle` prints it,
# recorded from the mpmath Newton loop that the fixed-point one replaced
SADDLE_GOLDEN = {
    (2, 2): "9.5124921972503929", (2, 3): "4.2644299731284752",
    (2, 4): "2.8492183104342324", (2, 5): "2.239643172822991",
    (5, 2): "315.7281613012984", (5, 3): "46.077807486765802",
    (5, 4): "17.523524438032296", (5, 5): "9.7867598700969422",
    (8, 2): "9999.5000125", (8, 3): "463.82507166580548",
    (8, 4): "99.74842193701149", (8, 5): "39.607630165085565",
    (11, 2): "316227.26601723322", (11, 3): "4641.2554524071304",
    (11, 4): "562.09104684043409", (11, 5): "158.28855760722347",
    (14, 2): "9999999.5000000125", (14, 3): "46415.554998006863",
    (14, 4): "3162.0276107421679", (14, 5): "630.75715401118233",
    (17, 2): "316227765.51683793", (17, 3): "464158.55002746579",
    (17, 4): "17782.544091602151", (17, 5): "2511.686383718961",
    (20, 2): "9999999999.5", (20, 3): "4641588.5002793977",
    (20, 4): "99999.749998437484", (20, 5): "9999.7999879988799",
    (23, 2): "316227766016.33793", (23, 3): "46415888.002794451",
    (23, 4): "562341.07519007122", (23, 5): "39810.517052335391",
    (26, 2): "9999999999999.5", (26, 3): "464158883.02794456",
    (26, 4): "3162277.4101683299", (26, 5): "158489.1192453542",
}


def test_solve_saddle_golden_table():
    printed = {(e, l): mpmath.nstr(solve_saddle(10**e, l).r_plus, 17) for e, l in SADDLE_GOLDEN}
    assert printed == SADDLE_GOLDEN


def _root_from_n_to_the_1_over_l(n, l):
    """r_plus as the solver gave it when it started from mpmath's n^(1/l):
    the same fixed-point Newton loop, kept as the tests' reference."""
    with mpmath.mp.workdps(_precision(n)):
        start = mpmath.root(mpmath.mpf(n), l)
        bits = mpmath.mp.prec + l.bit_length() + 4
    k = max(0, int(start).bit_length() - 1)
    one = 1 << bits
    target = (n << bits) >> (l * k)
    u = int(mpmath.ldexp(start, bits - k))
    while True:
        value, slope = one, 0
        for m in range(1, l):
            slope = value + (u * slope >> bits)
            value = (u * value >> bits) + (one >> m * k)
        slope = value + (u * slope >> bits)
        value = u * value >> bits
        step = u - ((value - target) << bits) // slope
        if not step < u:
            return mpmath.ldexp(u, k - bits)
        u = step


def _assert_agrees_with_the_mpmath_start(n, l):
    # the two starts may stop on neighbouring iterates, so the last bits may
    # differ, never a printed digit
    root, reference = solve_saddle(n, l).r_plus, _root_from_n_to_the_1_over_l(n, l)
    with mpmath.mp.workdps(2 * _precision(n)):
        assert abs(root / reference - 1) < mpmath.mpf(10) ** (1 - _precision(n)), (n, l)
    assert mpmath.nstr(root, 17) == mpmath.nstr(reference, 17), (n, l)


@pytest.fixture
def root_calls(monkeypatch):
    """The arguments of each mpmath.root call, which only the mpmath start makes."""
    calls = []
    root = mpmath.root
    monkeypatch.setattr(mpmath, "root", lambda *args: calls.append(args) or root(*args))
    return calls


_rng = random.Random(38)
SWEEP_SHAPED = [(int(10 ** _rng.uniform(2, 26)), _rng.randint(2, 5)) for _ in range(200)]


@pytest.mark.parametrize("cases", [
    [(10**e, l) for e in range(46) for l in range(1, 8)],
    [(1, l) for l in range(1, 30)] + [(l, l) for l in range(1, 30)] + [(10, 10**4)],
    SWEEP_SHAPED,
], ids=["powers_of_ten", "n_1_n_l_and_the_budget", "sweep_shaped"])
def test_double_start_agrees_with_the_mpmath_start(cases, root_calls):
    for n, l in cases:
        _assert_agrees_with_the_mpmath_start(n, l)
    assert len(root_calls) == len(cases)  # the reference's start alone: no fallback


def test_double_start_calls_no_mpmath_before_the_result(monkeypatch):
    def no_mpmath(*args):
        raise AssertionError("mpmath start")
    monkeypatch.setattr(asymptotic, "mpf", no_mpmath)
    monkeypatch.setattr(mpmath, "root", no_mpmath)
    monkeypatch.setattr(mpmath.mp, "workdps", no_mpmath)
    for n, l in SWEEP_SHAPED[:20] + [(1, 3), (10, 10**4), (10**40, 1000)]:
        assert abs(solve_saddle(n, l).residual) < 1e-12


@pytest.mark.parametrize("start", [lambda root: root * (1 - 2**-30), lambda root: root / 2,
                                   lambda root: 0.0, lambda root: -root,
                                   lambda root: math.nan, lambda root: math.inf],
                         ids=["just_below", "half", "zero", "negative", "nan", "inf"])
def test_a_double_start_below_the_root_falls_back_to_n_to_the_1_over_l(start, root_calls, monkeypatch):
    float_root = asymptotic._float_root
    monkeypatch.setattr(asymptotic, "_float_root", lambda n, l: start(float_root(n, l)))
    cases = [(1, 3), (12, 2), (1000, 3), (10**20, 5), (10, 300)]
    for n, l in cases:
        _assert_agrees_with_the_mpmath_start(n, l)
    assert len(root_calls) == 2 * len(cases)  # the solver's fallback and the reference's start


def test_an_n_past_double_range_starts_from_n_to_the_1_over_l(root_calls):
    for l in (1, 2, 3, 7):
        assert math.isnan(asymptotic._float_root(10**400, l))
        _assert_agrees_with_the_mpmath_start(10**400, l)
    assert len(root_calls) == 8


def test_solve_saddle_memory_does_not_grow_with_l():
    # a list of the l + 1 coefficients would hold 40 kB here (80 kB while it
    # is concatenated); the loop itself holds a few ints.  Under tracemalloc
    # the int loop runs about 30 times slower, so l stays small
    tracemalloc.start()
    try:
        solve_saddle(10, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000, peak


def test_precision_counts_the_digits_of_n():
    ns = [1, 9, 10, 99, 100, 10**20 - 1, 10**20, 10**300 - 1, 10**300 + 1,
          10**4299, 10**4300 - 1, 10**4300, 10**5000 + 7]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [max(DEFAULT_DPS, len(str(n)) + 20) for n in ns]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [_precision(n) for n in ns] == expected


@pytest.mark.parametrize("solve", [solve_saddle, estimate_saddle])
def test_saddle_budget_refuses_before_any_work(solve, monkeypatch):
    # the working precision and the mpf start both come before the Newton loop
    def no_work(*args):
        raise AssertionError("saddle work began")
    monkeypatch.setattr(asymptotic, "_precision", no_work)
    monkeypatch.setattr(asymptotic, "mpf", no_work)
    budget = asymptotic.SADDLE_BUDGET
    with pytest.raises(ValueError, match=f"saddle budget {budget}$"):
        solve(10, budget + 1)
    with pytest.raises(AssertionError, match="saddle work began"):
        solve(10, budget)


@pytest.mark.parametrize("beta, k", [(beta_series_extraction, 1), (beta_closed_form, 1),
                                     (beta_closed_form, 0)],
                         ids=lambda p: getattr(p, "__name__", p))
def test_beta_budget_refuses_before_any_work(beta, k, monkeypatch):
    # the interior beta_k are the product, beta_0 a sum of Fractions
    def no_work(*args):
        raise AssertionError("beta work began")
    monkeypatch.setattr(asymptotic, "_beta_product", no_work)
    monkeypatch.setattr(asymptotic, "Fraction", no_work)
    budget = asymptotic.SADDLE_BUDGET
    with pytest.raises(ValueError, match=f"saddle budget {budget}$"):
        beta(budget + 1, k)
    with pytest.raises(AssertionError, match="beta work began"):
        beta(budget, k)


def test_solve_saddle_preconditions():
    with pytest.raises(ValueError):
        solve_saddle(0, 2)
    with pytest.raises(ValueError):
        solve_saddle(10, 0)


def test_log_factorial_exact_summation():
    assert log_factorial(0) == 0
    with mpmath.mp.workdps(40):
        assert abs(log_factorial(5) - mpmath.ln(120)) < 1e-30
        assert abs(log_factorial(100) - mpmath.ln(mpmath.factorial(100))) < 1e-25
        summed = mpmath.fsum(mpmath.ln(j) for j in range(1, 2001))
        assert abs(log_factorial(2000) - summed) < 1e-30 * summed


def _spy_on_restricted_count(monkeypatch):
    calls = []
    monkeypatch.setattr(asymptotic, "restricted_count",
                        lambda n, l: calls.append((n, l)) or restricted_count(n, l))
    return calls


def _ln_of_exact_count(n, l):
    with mpmath.mp.workdps(_precision(n)):
        return mpmath.ln(mpmath.mpf(restricted_count(n, l)))


def test_log_exact_count_rounds_as_the_exact_count(monkeypatch):
    exact_path = _spy_on_restricted_count(monkeypatch)
    grid = [(n, l) for l in range(1, 10) for n in {0, 1, 2, l - 1, l, *range(0, 3000, 37)}]
    for n, l in grid + [(20000, 3)]:
        assert log_exact_count(n, l) == _ln_of_exact_count(n, l), (n, l)
    assert exact_path == []  # the rounding test decided every case


@pytest.mark.parametrize("n, l", [(100, 2), (1000, 4)])
def test_log_exact_count_takes_ln_of_the_rounded_count(monkeypatch, n, l):
    # ln gets d(n, l) rounded at the working precision, not the window's wider low 2^s
    args = []
    real_ln = mpmath.ln
    monkeypatch.setattr(mpmath, "ln", lambda x: args.append(
        (x, mpmath.mpf(restricted_count(n, l)), mpmath.mp.prec)) or real_ln(x))
    log_exact_count(n, l)
    [(given, rounded, prec)] = args
    assert given == rounded
    assert given.man.bit_length() <= prec < restricted_count(n, l).bit_length()


def test_log_exact_count_falls_back_on_a_straddle(monkeypatch):
    # a bracket from low to 5 low, so the two roundings differ
    real = asymptotic._count_window

    def wide(n, l, bits):
        low, _, s = real(n, l, bits)
        return low, 5 * low, s

    monkeypatch.setattr(asymptotic, "_count_window", wide)
    exact_path = _spy_on_restricted_count(monkeypatch)
    assert log_exact_count(1000, 4) == _ln_of_exact_count(1000, 4)
    assert exact_path == [(1000, 4)]


def test_saddle_estimate_accuracy_involutions():
    # first-order estimate against exact involution counts
    assert abs(ratio(100, 2) - 1) < 0.05
    assert abs(ratio(1000, 2) - 1) < 0.01
    est = estimate_saddle(1000, 2)
    exact = mpmath.ln(mpmath.mpf(involution_number(1000)))
    assert abs(est.log_value - exact) < 0.01 * abs(exact)


def test_saddle_estimate_accuracy_larger_l():
    assert abs(ratio(200, 3) - 1) < 0.06
    assert abs(ratio(100, 4) - 1) < 0.08


def _binomial_fraction(e, m):
    """Generalized binomial coefficient C(e, m) for rational e."""
    out = Fraction(1)
    for i in range(m):
        out *= (e - i) / (m - i)
    return out


def eta_power_laurent(l, k, order):
    """Coefficients of x^0..x^order in ((1-x^l)/(1-x))^((l-k)/l), x = 1/r:
    eta(r)^(l-k) = r^(l-k) times this series, as the product of the
    generalized binomial series of (1 - x^l)^e and (1 - x)^(-e), e = (l-k)/l.
    The reference that the library's beta product is checked against."""
    e = Fraction(l - k, l)
    a = [Fraction(0)] * (order + 1)
    for m in range(order // l + 1):
        a[l * m] = _binomial_fraction(e, m) * (-1) ** m
    b = [_binomial_fraction(e + m - 1, m) for m in range(order + 1)]
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def test_eta_power_laurent_l2():
    # ((1-x^2)/(1-x))^(1/2) = (1+x)^(1/2) = 1 + x/2 - x^2/8 + ...
    series = eta_power_laurent(2, 1, 4)
    assert series[0] == 1
    assert series[1] == Fraction(1, 2)
    assert series[2] == Fraction(-1, 8)


def test_beta_extraction_is_the_residue_of_the_series():
    # beta_k is l/(k(l-k)) times the coefficient of x^(l-k), read off the
    # whole series rather than the product
    for l in range(2, 13):
        for k in range(1, l):
            series = eta_power_laurent(l, k, l - k)
            assert beta_series_extraction(l, k) == Fraction(l, k * (l - k)) * series[l - k]


# str() of both functions, keyed "l,k", at 1 <= k < l <= 12, 0 <= k <= l <= 12
# and l = 100, recorded from the truncated series that the product replaced
BETA_GOLDEN = json.loads((Path(__file__).parent / "beta_golden.json").read_text())


@pytest.mark.parametrize("beta", [beta_series_extraction, beta_closed_form],
                         ids=lambda f: f.__name__)
def test_beta_golden_values(beta):
    golden = BETA_GOLDEN[beta.__name__]
    assert {key: str(beta(*map(int, key.split(",")))) for key in golden} == golden


def test_beta_extraction_examples():
    assert beta_series_extraction(2, 1) == 1
    assert beta_series_extraction(3, 1) == Fraction(5, 6)
    assert beta_series_extraction(3, 2) == Fraction(1, 2)
    assert beta_series_extraction(4, 2) == Fraction(3, 8)


def test_beta_closed_form_endpoints():
    assert beta_closed_form(2, 2) == Fraction(1, 2)
    assert beta_closed_form(2, 0) == Fraction(-1, 4)
    assert beta_closed_form(3, 0) == Fraction(-1, 3) * (
        Fraction(1, 2) + Fraction(1, 3)
    )
    assert beta_closed_form(1, 1) == 1


@pytest.mark.parametrize("l, k", [(0, 0), (-1, 0)])
def test_beta_closed_form_refuses_l_below_1(l, k):
    # l = 0 passed 0 <= k <= l and then divided by l
    with pytest.raises(ValueError, match="requires l >= 1"):
        beta_closed_form(l, k)


def test_printed_beta_disagrees_with_extraction():
    # the printed interior coefficient at l=2 is 3/2; extraction gives 1,
    # and only the extracted value reproduces exp(sqrt(n)) growth for
    # involutions, so both are exposed
    assert beta_closed_form(2, 1) == Fraction(3, 2)
    assert beta_series_extraction(2, 1) == 1


def test_printed_beta_runs_the_extracted_product_past_l_minus_k():
    # with e = (l-k)/l both are (1/(k (l-k)!)) prod_m (e + m): the extracted
    # beta_k stops at m = l-k-1, the printed form runs on to m = l-1
    for l in range(2, 13):
        for k in range(1, l):
            e = Fraction(l - k, l)
            lead = Fraction(1, k * factorial(l - k))
            assert beta_series_extraction(l, k) == lead * prod(e + m for m in range(1, l - k))
            assert beta_closed_form(l, k) == lead * prod(e + m for m in range(1, l))


def test_closed_form_estimate_stirling_vs_printed():
    est = estimate_closed_form(500, 2)
    assert est.log_printed - est.log_stirling == 500
    exact = mpmath.ln(mpmath.mpf(involution_number(500)))
    assert abs(est.log_stirling - exact) < 0.02 * abs(exact)
    # the printed-vs-Stirling discrepancy is reported, not asserted
    print(
        "closed form at n=500, l=2: log printed="
        f"{mpmath.nstr(est.log_printed, 8)}, log Stirling-consistent="
        f"{mpmath.nstr(est.log_stirling, 8)}, log exact="
        f"{mpmath.nstr(exact, 8)}"
    )


def test_closed_form_matches_saddle_estimate():
    # extracted-beta closed form tracks the direct saddle assembly
    for n in (200, 1000):
        saddle = estimate_saddle(n, 2)
        closed = estimate_closed_form(n, 2)
        assert abs(closed.log_stirling - saddle.log_value) < 0.5
    # their gap decays as n^(-1/l): gap * n^(1/l) settles (1/24 at l = 2)
    for l, limit in ((2, 1 / 24), (3, -0.0710)):
        for n in (10**12, 10**20, 10**30):
            gap = estimate_saddle(n, l).log_value - estimate_closed_form(n, l).log_stirling
            scaled = gap * mpmath.mpf(n) ** (mpmath.mpf(1) / l)
            assert abs(scaled / limit - 1) < 0.01


def test_estimate_closed_form_preconditions():
    with pytest.raises(ValueError):
        estimate_closed_form(10, 2, beta_source="other")
    with pytest.raises(ValueError):
        estimate_closed_form(0, 2)
    with pytest.raises(ValueError, match=f"closed-form budget {CLOSED_FORM_BUDGET}$"):
        estimate_closed_form(10, asymptotic.SADDLE_BUDGET + 1)


def test_closed_form_budget_refuses_before_any_work(monkeypatch):
    # l^3 growth: a budget of its own, checked before the first beta
    def no_work(*args):
        raise AssertionError("closed-form work began")
    monkeypatch.setattr(asymptotic, "beta_closed_form", no_work)
    for source in ("extracted", "printed"):
        with pytest.raises(ValueError, match=f"closed-form budget {CLOSED_FORM_BUDGET}$"):
            estimate_closed_form(10**6, CLOSED_FORM_BUDGET + 1, source)
        with pytest.raises(AssertionError, match="closed-form work began"):
            estimate_closed_form(10**6, CLOSED_FORM_BUDGET, source)


def test_phi_fit_recovers_betas_l2():
    coeffs = fit_phi_coefficients(2)
    assert abs(coeffs[2] - 0.5) < 1e-9
    assert abs(coeffs[1] - 1.0) < 1e-9
    assert abs(coeffs[0] - (-0.25)) < 1e-6


def test_phi_fit_recovers_betas_l3():
    coeffs = fit_phi_coefficients(3)
    assert abs(coeffs[3] - float(Fraction(1, 3))) < 1e-9
    assert abs(coeffs[0] - float(beta_closed_form(3, 0))) < 1e-5
    for k in (1, 2):
        assert abs(coeffs[k] - float(beta_series_extraction(3, k))) < 1e-7


def test_phi_fit_rejects_a_wrong_sample_count():
    # the basis eta^-4..eta^l has l + 5 powers: one sample each, no more
    ns = [10**4 * 2**i for i in range(8)]
    with pytest.raises(ValueError):
        fit_phi_coefficients(2, ns[:6])
    with pytest.raises(ValueError):
        fit_phi_coefficients(2, ns)


def test_phi_fit_refuses_bad_input_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("saddle solve began")
    monkeypatch.setattr(asymptotic, "solve_saddle", no_solve)
    good = [10**4 * 2**i for i in range(7)]
    with pytest.raises(ValueError, match="sample n = 40000 is repeated"):
        fit_phi_coefficients(2, good[:6] + [40000])
    with pytest.raises(ValueError, match="sample n = 0 is not positive"):
        fit_phi_coefficients(2, [0] + good[1:])
    with pytest.raises(ValueError, match="sample n = -5 is not positive"):
        fit_phi_coefficients(2, good[:3] + [-5] + good[4:])
    for l in (0, -1, -4, -5):
        with pytest.raises(ValueError, match="requires l >= 1"):
            fit_phi_coefficients(l)
    with pytest.raises(AssertionError, match="saddle solve began"):
        fit_phi_coefficients(2, good)


def _dense_phi_fit(l, sample_ns=None):
    """The fit as a dense solve: LU on the eta^k design matrix, k = -4..l."""
    count = l + 5
    if sample_ns is None:
        sample_ns = [int(round(10 ** (4 + 2 * i / (count - 1)))) for i in range(count)]
    with mpmath.mp.workdps(DEFAULT_DPS):
        etas = [mpmath.mpf(n) ** (mpmath.mpf(1) / l) for n in sample_ns]
        rows = [[eta**k for k in range(-4, l + 1)] for eta in etas]
        rhs = [phi_at(n, l) for n in sample_ns]
        coeffs = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        return {k: float(coeffs[k + 4]) for k in range(l + 1)}


@pytest.mark.parametrize("l", range(2, 9))
def test_phi_fit_floats_match_the_dense_solve(l):
    assert fit_phi_coefficients(l) == _dense_phi_fit(l)


# the fit samples of the saddle-sweep benchmark workload, seeds 1, 2 and 3
SWEEP_FIT_SAMPLES = [
    (2, [11598, 17148, 48493, 95036, 237456, 491270, 1000000]),
    (3, [10363, 17536, 35129, 80088, 153855, 227697, 568545, 1000000]),
    (2, [10000, 22286, 44242, 117718, 221756, 385237, 798871]),
    (3, [10000, 18347, 31348, 77640, 168930, 285443, 506637, 1000000]),
    (2, [10457, 18289, 44956, 95350, 258637, 583022, 1000000]),
    (3, [10000, 19267, 31557, 81267, 126175, 236247, 457556, 1000000]),
]


@pytest.mark.parametrize("l, ns", SWEEP_FIT_SAMPLES)
def test_phi_fit_floats_match_the_dense_solve_on_sweep_samples(l, ns):
    assert fit_phi_coefficients(l, ns) == _dense_phi_fit(l, ns)


def test_phi_at_positive_and_growing():
    values = [phi_at(n, 2) for n in (100, 1000, 10000)]
    assert all(v > 0 for v in values)
    assert values[0] < values[1] < values[2]
