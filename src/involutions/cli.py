"""Command-line front end: computations, exports, and verification sweeps.

Each command runs one action from COMMANDS; an option that action does not
read is rejected, never ignored.

Exit codes: 0 success, 1 usage error, 2 verification failure (the first
counterexample is printed).  Long sweeps stream progress to stderr so stdout
stays pipeable.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple

import mpmath

from . import asymptotic, cyclecount, involution, oracle, partialsum, series, valuation
from .exactnum import multinomial, nu_int, nu_rat, partitions, poly_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


# Tables are computed, and single values printed, in exact decimal, whose
# str() is linear in the number of digits where str(int) is quadratic.
# Every rounding is trapped, so a value can fail but never print a wrong digit.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


@functools.cache
def _decimal_two_to(k: int) -> decimal.Decimal:
    """2^k as an exact Decimal, for k a power of two, by squaring."""
    return decimal.Decimal(2) if k == 1 else _decimal_two_to(k // 2) ** 2


def _exact_decimal(value: int) -> decimal.Decimal:
    """value >= 0 as an exact Decimal, split on its bits as hi 2^k + lo."""
    if value.bit_length() <= 4096:
        return decimal.Decimal(value)
    k = 1 << (value.bit_length().bit_length() - 2)  # under half the bits
    return _exact_decimal(value >> k) * _decimal_two_to(k) + _exact_decimal(value & (1 << k) - 1)


def _print_int(value: int) -> None:
    """print(value), through exact decimal, as str(int) is quadratic."""
    with decimal.localcontext(_EXACT):
        print(_exact_decimal(value))


def _print_table(terms, name: str, args) -> None:
    """Print terms(one) for n = 0..max, each row as soon as it is computed."""
    with decimal.localcontext(_EXACT):
        rows = enumerate(islice(terms(one=decimal.Decimal(1)), args.max + 1))
        if args.format == "json":
            # the bytes of json.dumps(..., sort_keys=True), one value at a time
            print(f'{{"name": {json.dumps(name)}, "schema": "involutions/sequence/1", '
                  '"values": [', end="")
            for n, v in rows:
                print(f'{", " if n else ""}"{v}"', end="")
            print("]}")
            return None
        if args.format == "csv":
            print("n,value")
        row = {"plain": "{1}", "csv": "{0},{1}", "bfile": "{0} {1}"}[args.format]
        for n, v in rows:
            print(row.format(n, v))
    return None


def _invol_n(args) -> None:
    if args.poly:
        coeffs = involution.involution_poly(args.n)
        print(poly_text((((k,), coeffs[k]) for k in reversed(range(len(coeffs)))), ["t"]))
    else:
        _print_int(involution.involution_number(args.n))


def _print_poly(poly, fmt: str) -> None:
    print(poly.to_json() if fmt == "json" else poly)


def _efficiency_scan(args) -> None:
    primes = valuation.inefficient_primes_upto(args.max)
    if args.format == "json":
        print(json.dumps({"schema": "involutions/inefficient-primes/1",
                          "bound": args.max, "primes": primes}, sort_keys=True))
    else:
        for p in primes:
            print(p)


def _conjecture(args) -> None:
    report = valuation.conjecture_check(args.prime, args.depth)
    print(report.to_json() if args.format == "json" else report.to_text())


def _beta(args) -> None:
    l, k = args.l, args.beta
    printed = asymptotic.beta_closed_form(l, k)
    extracted = asymptotic.beta_series_extraction(l, k) if 0 < k < l else printed
    print(json.dumps({"schema": "involutions/beta/1", "l": l, "k": k,
                      "printed": str(printed), "extracted": str(extracted)},
                     sort_keys=True))


def _sweep(args) -> None:
    print("n,l,exact,estimate,ratio,log_error")
    for n in args.sweep:
        print(f"... n={n}", file=sys.stderr)
        est = asymptotic.estimate_saddle(n, args.l)
        log_exact = asymptotic.log_exact_count(n, args.l)
        cells = (mpmath.exp(log_exact), est.value, mpmath.exp(est.log_value - log_exact),
                 log_exact - est.log_value)
        print(f"{n},{args.l}," + ",".join(mpmath.nstr(c, 10) for c in cells))


def _oracle(args) -> None:
    by_formula = args.n > oracle.ENUMERATION_CAP
    census = (oracle.partition_census if by_formula else oracle.enumerate_census)(args.n)
    census.write_json(sys.stdout)


# ---------------------------------------------------------------------------
# verification suites


def _suite_tables(max_n: int):
    expected_i = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
    expected_a = [1, 2, 4, 8, 18, 44, 120, 352, 1116, 3736, 13232]
    for n in range(max_n + 1):
        if involution.involution_number(n) != expected_i[n]:
            return f"involution table mismatch at n={n}"
        if partialsum.partial_sum(n) != expected_a[n]:
            return f"partial sum table mismatch at n={n}"
    return None


def _suite_involution_forms(max_n: int):
    for n in range(max_n + 1):
        ref = involution.involution_number(n)
        if involution.involution_number_by_sum(n) != ref:
            return f"finite sum disagrees at n={n}"
        if involution.involution_number_bisplit(n // 2, n - n // 2) != ref:
            return f"bisplit disagrees at n={n}"
    return None


def _suite_partial_sum_forms(max_n: int):
    # the running sums of I(n) against the paper's recurrence
    # a(n) = 2a(n-1) + (n-2)a(n-2) - (n-1)a(n-3), a(0) = 1, a(-2) = a(-1) = 0,
    # which fixes them by induction, and against the binomial form
    x, y, z = 0, 0, 0  # a(n-3), a(n-2), a(n-1)
    for n in range(max_n + 1):
        value = partialsum.partial_sum(n)
        if value != (2 * z + (n - 2) * y - (n - 1) * x if n else 1):
            return f"recurrence vs running sum at n={n}"
        if partialsum.partial_sum_by_binomial(n) != value:
            return f"binomial form disagrees at n={n}"
        x, y, z = y, z, value
    return None


def _suite_cauchy(max_n: int):
    for m in range(1, max_n + 1):
        if partialsum.cauchy_alternating_sum(2 * m) != 0:
            return f"even alternating sum nonzero at m={m}"
        if partialsum.cauchy_alternating_sum(2 * m + 1) != involution.double_factorial_odd(m):
            return f"odd alternating sum mismatch at m={m}"
    return None


def _suite_nu2_involution(max_n: int):
    for n in range(max_n + 1):
        v = nu_int(involution.involution_number(n), 2)
        if valuation.nu2_involution(n) != v or valuation.nu2_involution_floor(n) != v:
            return f"nu2 involution mismatch at n={n}"
    return None


def _suite_nu2_partial_sum(max_n: int):
    for n in range(1, max_n + 1):
        if valuation.nu2_partial_sum(n) != nu_int(partialsum.partial_sum(n), 2):
            return f"nu2 partial sum mismatch at n={n}"
    return None


def _suite_periodicity(max_n: int):
    # Pure periodicity of I mod p^r holds for odd p only: I(0)=1 but I(2)=2,
    # so the mod-2 sequence is eventually zero and cannot be purely periodic.
    for p in (3, 5, 7):
        for r in (1, 2, 3):
            if not valuation.periodicity_check(p, r, max_n):
                return f"periodicity fails at p={p}, r={r}"
    return None


def _suite_efficiency(max_n: int):
    ineff = valuation.inefficient_primes_upto(max_n)
    if len(ineff) != 62:
        return f"expected 62 inefficient primes, found {len(ineff)}"
    if valuation.is_efficient(3) is not True or valuation.is_efficient(7) is not True:
        return "3 and 7 must be efficient"
    return None


def _suite_tree5(max_n: int):
    for lv in valuation.conjecture_check(5, max_n).levels:
        if not lv.holds:
            return f"tree level {lv.level} does not match the narrative"
    return None


def _suite_fsum(max_n: int):
    for k in range(1, 13):
        for alpha in (1, 3, 5, 7, 9):
            for beta in range(1, 7):
                expected = k + 1 if beta % 2 == 0 else k
                if nu_int(partialsum.F_sum(alpha, beta, k), 2) != expected:
                    return f"F valuation mismatch at (a={alpha}, b={beta}, k={k})"
    for k in range(1, 21):
        if nu_rat(partialsum.b_k(k), 2) != k:
            return f"nu2(b) mismatch at k={k}"
    for k in range(1, max_n + 1):
        if 4 * k * partialsum.b_k(k) != partialsum.partial_sum(4 * k - 1):
            return f"4k*b != a(4k-1) at k={k}"
    return None


def _suite_nu3(max_n: int):
    if not valuation.nu3_partial_sum_pattern_check(max_n):
        return "observed nu3 pattern fails"
    return None


def _suite_congruence(max_n: int):
    # C(pn; p lam) = C(n; lam) mod p^2, and mod p^3 when p >= 5
    for p in (3, 5, 7):
        modulus = p**2 if p == 3 else p**3
        for n in range(1, max_n + 1):
            for lam in partitions(n):
                if (multinomial(p * n, tuple(p * k for k in lam)) - multinomial(n, lam)) % modulus:
                    return f"congruence fails at p={p}, lambda={lam}"
    return None


def _suite_hermite(max_n: int):
    # He(n+1) = t He(n) - n He(n-1) and I(n+1; t) = t I(n; t) + n I(n-1; t),
    # each from P(-1) = 0, P(0) = 1; I(n; 0) counts the perfect matchings.
    # He is read from I(n; t), so I(n; t) is checked first
    lower, he = [], [1]
    below, poly = [], [1]
    for n in range(max_n + 1):
        p = involution.involution_poly(n)
        if p[0] != (0 if n % 2 else involution.double_factorial_odd(n // 2)):
            return f"perfect matchings mismatch at n={n}"
        if p != poly:
            return f"involution polynomial recurrence fails at n={n}"
        if involution.hermite_poly(n) != he:
            return f"Hermite relation fails at n={n}"
        lower, he = he, [a - n * b for a, b in zip([0] + he, lower + [0, 0])]
        below, poly = poly, [a + n * b for a, b in zip([0] + poly, below + [0, 0])]
    return None


def _suite_oracle(max_n: int):
    for n in range(max_n + 1):
        census = oracle.enumerate_census(n)
        if census.counts != oracle.partition_census(n).counts:
            return f"census mismatch at n={n}"
        # the whole cycle index: d(n, l), I(n) and I(n; t) are its marginals
        for l in range(1, n + 1):
            terms = cyclecount.cycle_index_poly(n, l).terms
            if oracle.census_cycle_index_terms(census, l) != terms:
                return f"cycle index mismatch at (n={n}, l={l})"
    return None


def _suite_cycle_index(max_n: int):
    for l in range(1, 7):
        for n, poly in enumerate(islice(cyclecount.cycle_index_polys(l), max_n + 1)):
            if not poly.is_homogeneous(n):
                return f"inhomogeneous cycle index at (n={n}, l={l})"
            if poly.sum_of_coefficients() != cyclecount.restricted_count(n, l):
                return f"coefficient sum mismatch at (n={n}, l={l})"
            if l == 2 and poly.substitute_y1() != involution.involution_poly(n):
                return f"fixed point polynomial mismatch at n={n}"
    return None


def _suite_toeplitz(max_n: int):
    for n in range(max_n + 1):
        for l in range(1, max(n, 1) + 1):
            if cyclecount.toeplitz_determinant(n, l) != cyclecount.cycle_index_poly(n, l):
                return f"determinant mismatch at (n={n}, l={l})"
    return None


def _suite_egf(max_n: int):
    # the EGFs of I(n) and a(n): f = exp(x + x^2/2), and f + e^x * integral of exp(t^2/2)
    f = series.involution_egf(max_n)
    half_square = series.TruncatedEGF.x_power(2, max_n - 1, Fraction(1, 2))
    integral = series.series_integrate(series.series_exp(half_square))
    sums = f + series.series_mul(series.exp_x(max_n), integral)
    for n in range(max_n + 1):
        if f.egf_coefficient(n) != involution.involution_number(n):
            return f"involution EGF mismatch at n={n}"
        if sums.egf_coefficient(n) != partialsum.partial_sum(n):
            return f"partial sum EGF mismatch at n={n}"
    # exp(x + ... + x^l/l) is the EGF of d(n, l); the lemma's transform sums them
    for l in range(2, 6):
        g = series.series_exp(series.cycle_egf_exponent(l, 25))
        g_sums = series.partial_sum_transform(g)
        total = 0
        for n in range(26):
            d = cyclecount.restricted_count(n, l)
            if g.egf_coefficient(n) != d:
                return f"restricted EGF mismatch at (n={n}, l={l})"
            total += d
            if g_sums.egf_coefficient(n) != total:
                return f"partial sum lemma fails at (n={n}, l={l})"
    # d^m/dx^m f = f * sum_k C(m,k) I(m-k) x^k, through order max_n - m;
    # the polynomial enters as its EGF values k! C(m,k) I(m-k)
    derivative = f
    for m in range(7):
        coeffs = involution.umbral_derivative_coeffs(m)
        umbral = series.TruncatedEGF([math.factorial(k) * c for k, c in enumerate(coeffs)], max_n)
        if series.series_mul(f, umbral).truncate(max_n - m) != derivative:
            return f"umbral identity fails at m={m}"
        derivative = series.series_derive(derivative)
    return None


def _suite_asymptotic(max_n: int):
    for (n, l) in ((100, 2), (max_n, 2), (200, 3)):
        sol = asymptotic.solve_saddle(n, l)
        if not abs(sol.residual) < n * 10.0 ** (5 - asymptotic.DEFAULT_DPS):
            return f"saddle residual too large at (n={n}, l={l})"
    err100 = abs(asymptotic.log_exact_count(100, 2) - asymptotic.estimate_saddle(100, 2).log_value)
    diff = asymptotic.estimate_saddle(max_n, 2).log_value - asymptotic.log_exact_count(max_n, 2)
    if not abs(diff) < err100:
        return f"log error not shrinking between n=100 and n={max_n}"
    ratio = mpmath.exp(diff)
    if not 0.95 < float(ratio) < 1.05:
        return f"ratio at n={max_n} out of range: {float(ratio)}"
    if asymptotic.beta_series_extraction(2, 1) != Fraction(1):
        return "extracted beta_1 at l=2 is not 1"
    if asymptotic.beta_closed_form(2, 1) != Fraction(3, 2):
        return "printed beta_1 at l=2 is not 3/2"
    return None


SUITES = {
    "tables": (_suite_tables, 10),
    "involution-forms": (_suite_involution_forms, 200),
    "partial-sum-forms": (_suite_partial_sum_forms, 500),
    "cauchy": (_suite_cauchy, 40),
    "nu2-involution": (_suite_nu2_involution, 2000),
    "nu2-partial-sum": (_suite_nu2_partial_sum, 2000),
    "periodicity": (_suite_periodicity, 500),
    "efficiency": (_suite_efficiency, 541),
    "tree-5": (_suite_tree5, 5),
    "f-sum": (_suite_fsum, 25),
    "nu3-pattern": (_suite_nu3, 1000),
    "congruence": (_suite_congruence, 6),
    "hermite": (_suite_hermite, 100),
    "oracle": (_suite_oracle, 8),
    "cycle-index": (_suite_cycle_index, 20),
    "toeplitz": (_suite_toeplitz, 8),
    "egf": (_suite_egf, 30),
    "asymptotic": (_suite_asymptotic, 1000),
}

# The largest --max each suite honours; None: the suite checks one statement
# at a fixed bound.  A cap is where the check itself ends (the enumerated
# census, the Toeplitz expansion), or else the largest round one that runs
# in about 4 s as a process on a shared 2-vCPU host; its time there.
MAX_BOUND = {
    **dict.fromkeys(("efficiency", "tree-5", "f-sum", "egf", "asymptotic")),
    "tables": 10, "oracle": oracle.ENUMERATION_CAP, "cycle-index": 20,
    "toeplitz": cyclecount.TOEPLITZ_MAX_N,
    "involution-forms": 1000, "partial-sum-forms": 2000, "cauchy": 400,  # 1.7, 1.5, 2.9 s
    "nu2-involution": 5 * 10**4, "nu2-partial-sum": 5 * 10**4,  # 1.6, 2.0 s
    "periodicity": 2 * 10**6, "nu3-pattern": 5 * 10**6,  # 3.7, 2.8 s
    "congruence": 30, "hermite": 1000,  # 1.2, 1.0 s
}


def _verify_refusal(args) -> str | None:
    """Why verify cannot run its suites at these arguments; None if it can."""
    if args.suite != "all" and args.suite not in SUITES:
        return f"unknown suite: {args.suite}"
    if args.max is None:
        return None
    for name in sorted(SUITES) if args.suite == "all" else [args.suite]:
        cap = MAX_BOUND[name]
        if cap is None:
            return f"verify: suite {name} checks a fixed bound; --max is not supported"
        if args.max < 0:
            return "verify: --max must be >= 0"
        if args.max > cap:
            return f"verify: suite {name} runs up to --max {cap}, not {args.max}"
    return None


def _verify(args) -> int:
    """Run the suites in name order, stopping at the first that fails.

    plain prints one line per suite as it ends; json prints one document
    with a record per suite run, whose peak_rss_mb is the process's peak
    resident set size (ru_maxrss, in KiB on Linux) when that suite ended.
    """
    records = []
    for name in sorted(SUITES) if args.suite == "all" else [args.suite]:
        fn, default_max = SUITES[name]
        max_n = args.max if args.max is not None else default_max
        print(f"running {name} (max={max_n})", file=sys.stderr)
        started = time.perf_counter()
        counterexample = fn(max_n)
        elapsed = time.perf_counter() - started
        if args.format == "json":
            records.append({
                "suite": name, "max": max_n, "counterexample": counterexample,
                "outcome": "ok" if counterexample is None else "fail",
                "elapsed_s": round(elapsed, 6),
                "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
            })
        else:
            print(f"{name}: ok" if counterexample is None else f"{name}: FAIL: {counterexample}")
        if counterexample is not None:
            break
    if args.format == "json":
        print(json.dumps({"schema": "involutions/verify/1", "suites": records}, sort_keys=True))
    return EXIT_OK if counterexample is None else EXIT_VERIFY


REQUIRED = object()  # the default of an option the action cannot run without


class Action(NamedTuple):
    """One action of a command: what it runs, reads, prints and refuses."""

    run: Callable[[argparse.Namespace], int | None]  # prints; None means EXIT_OK
    options: dict[str, object]  # each option it reads: its default, or REQUIRED
    formats: tuple[str, ...] = ("plain",)  # the --format values, default first
    refuse: Callable[[argparse.Namespace], str | None] = lambda a: None  # its refusal, or None


# Budgets of inputs whose library functions have none, so the library stays
# unbounded for its own callers; each with its time as a process, as above.
COUNT_BUDGET = 10**5  # n of `invol --n` and `sums --n`: 2.0 and 2.9 s
RESTRICTED_BUDGET = 2 * 10**5  # n min(l, n) of the count: (66666, 3) 2.3 s, (10^5, 2) 2.0 s
CAUCHY_BUDGET = 6000  # `sums --cauchy`: 2.6 s
B_K_BUDGET = 10**4  # `sums --b-k`: 2.8 s
ESTIMATE_DIGITS = 2000  # digits of `asym --n`: 2.4 s
SADDLE_DIGITS = 10**5  # of `asym --saddle --n`: 0.8 s; Linux caps one argument at 131071 bytes
DIGITS_TIMES_L = 10**6  # `asym` at (1000 digits, l = 1000) 0.8 s, `--saddle` at (10^5, 10) 2.3 s
SWEEP_BUDGET = 3 * 10**7  # the sum of n l of `asym --sweep`: l = 4 is the slowest corner, 5.1 s


def _at_most(what: str, value: int, budget: int) -> str | None:
    return f"{what} must be <= {budget}" if value > budget else None


def _digits_at_most(label: str, digits: int, a) -> str | None:
    # an l outside 1..SADDLE_BUDGET is left to the library's refusal
    top = min(digits, DIGITS_TIMES_L // min(max(a.l, 1), asymptotic.SADDLE_BUDGET))
    return f"{label}: n must have at most {top} digits at l = {a.l}" if a.n >= 10**top else None


def _sweep_refusal(a) -> str | None:
    if min(a.sweep) < 1 or not 1 <= a.l <= asymptotic.SADDLE_BUDGET:
        return f"asym --sweep: every n must be >= 1 and l in 1..{asymptotic.SADDLE_BUDGET}"
    return _at_most("asym --sweep: the sum of n*l", sum(a.sweep) * a.l, SWEEP_BUDGET)


def _table(terms, name: str) -> Action:
    return Action(lambda a: _print_table(terms, name, a), {"max": 10}, SEQUENCE_FORMATS,
                  lambda a: f"{a.command} --table: --max must be >= 0" if a.max < 0 else None)


SEQUENCE_FORMATS = ("plain", "json", "csv", "bfile")
N_AND_L = {"n": REQUIRED, "l": REQUIRED}
PRIME_AND_DEPTH = {"prime": 5, "depth": 3}
ASYM_OPTIONS = {"n": REQUIRED, "l": 2}

# COMMANDS[command] maps the dest of each action flag to its action; the
# key None is the action that runs when no action flag is given
COMMANDS = {
    "invol": {
        "n": Action(_invol_n, {"poly": False}, refuse=lambda a: None if a.poly
                    else _at_most("invol --n: n", a.n, COUNT_BUDGET)),
        "table": _table(involution.involution_numbers, "involution-numbers"),
    },
    "sums": {
        "n": Action(lambda a: _print_int(partialsum.partial_sum(a.n)), {},
                    refuse=lambda a: _at_most("sums --n: n", a.n, COUNT_BUDGET)),
        "table": _table(partialsum.partial_sums, "involution-partial-sums"),
        "cauchy": Action(lambda a: print(partialsum.cauchy_alternating_sum(a.cauchy)), {},
                         refuse=lambda a: _at_most("sums --cauchy: N", a.cauchy, CAUCHY_BUDGET)),
        "b_k": Action(lambda a: print(partialsum.b_k(a.b_k)), {},
                      refuse=lambda a: _at_most("sums --b-k: K", a.b_k, B_K_BUDGET)),
    },
    "restricted": {
        None: Action(lambda a: _print_int(cyclecount.restricted_count(a.n, a.l)), N_AND_L,
                     refuse=lambda a: _at_most("restricted: n*min(l, n)",
                                               max(a.n, 0) * min(a.l, a.n), RESTRICTED_BUDGET)),
        "cycle_index": Action(
            lambda a: _print_poly(cyclecount.cycle_index_poly(a.n, a.l), a.format),
            N_AND_L, ("plain", "json")),
        "determinant": Action(
            lambda a: _print_poly(cyclecount.toeplitz_determinant(a.n, a.l), a.format),
            N_AND_L, ("plain", "json")),
    },
    "valuation": {
        "nu2_involution": Action(
            lambda a: print(valuation.nu2_involution(a.nu2_involution)), {}),
        "nu2_partial_sum": Action(
            lambda a: print(valuation.nu2_partial_sum(a.nu2_partial_sum)), {}),
        "efficiency_scan": Action(_efficiency_scan, {"max": 541}, ("plain", "json")),
        "tree": Action(
            lambda a: valuation.write_tree_json(a.prime, a.depth, sys.stdout),
            PRIME_AND_DEPTH, ("json",)),
        "conjecture": Action(_conjecture, PRIME_AND_DEPTH, ("plain", "json")),
    },
    "asym": {
        None: Action(
            lambda a: print(mpmath.nstr(asymptotic.estimate_saddle(a.n, a.l).value, 12)),
            ASYM_OPTIONS, refuse=lambda a: _digits_at_most("asym", ESTIMATE_DIGITS, a)),
        "saddle": Action(
            lambda a: print(mpmath.nstr(asymptotic.solve_saddle(a.n, a.l).r_plus, 17)),
            ASYM_OPTIONS, refuse=lambda a: _digits_at_most("asym --saddle", SADDLE_DIGITS, a)),
        "beta": Action(_beta, {"l": 2}),
        "sweep": Action(_sweep, {"l": 2}, refuse=_sweep_refusal),
    },
    "oracle": {None: Action(_oracle, {"n": REQUIRED})},
    "verify": {
        None: Action(_verify, {"suite": "all", "max": None}, ("plain", "json"), _verify_refusal),
        "list": Action(lambda a: print("\n".join(sorted(SUITES))), {}),
    },
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _dispatch(args) -> int:
    """Run the action `args` selects, if it reads every option given.

    An absent option takes the action's default and a REQUIRED one must be
    given; a --format must be one the action prints, and it must not refuse.
    """
    actions = COMMANDS[args.command]
    given = vars(args)
    chosen = next((dest for dest in given if dest in actions), None)
    action = actions[chosen]
    label = args.command if chosen is None else f"{args.command} {_flag(chosen)}"
    for dest in given:
        if dest not in ("command", "format", chosen) and dest not in action.options:
            return _usage(f"{label}: {_flag(dest)} is not used here")
    for dest, default in action.options.items():
        if dest not in given:
            if default is REQUIRED:
                return _usage(f"{label}: {_flag(dest)} is required")
            setattr(args, dest, default)
    args.format = given.get("format", action.formats[0])
    if args.format not in action.formats:
        return _usage(f"{label}: --format {args.format} is not supported here "
                      f"(choose {' or '.join(action.formats)})")
    if refusal := action.refuse(args):
        return _usage(refusal)
    return action.run(args) or EXIT_OK


# how argparse spells each option, in the order --help lists them
FLAGS = {
    "n": {"type": int},
    "l": {"type": int},
    "table": {"action": "store_true", "help": "print values 0..max, streamed: rows are unbounded"},
    "poly": {"action": "store_true", "help": "print the involution polynomial"},
    "cauchy": {"type": int, "metavar": "N", "help": "alternating Cauchy sum at N"},
    "b_k": {"type": int, "metavar": "K", "help": "rational b(K)"},
    "cycle_index": {"action": "store_true"},
    "determinant": {"action": "store_true", "help": "via the Toeplitz determinant (small n only)"},
    "nu2_involution": {"type": int, "metavar": "N"},
    "nu2_partial_sum": {"type": int, "metavar": "N"},
    "efficiency_scan": {"action": "store_true"},
    "tree": {"action": "store_true"},
    "conjecture": {"action": "store_true"},
    "prime": {"type": int},
    "depth": {"type": int},
    "saddle": {"action": "store_true", "help": "print the saddle point"},
    "beta": {"type": int, "metavar": "K",
             "help": "exponent coefficient beta_K (printed and extracted)"},
    "sweep": {"type": int, "nargs": "+", "metavar": "N",
              "help": "CSV of exact vs estimate over the given n values"},
    "suite": {},
    "list": {"action": "store_true"},
    "max": {"type": int},
}

COMMAND_HELP = {
    "invol": "involution numbers and polynomials",
    "sums": "partial sums and Cauchy identities",
    "restricted": "bounded-cycle permutation counts",
    "valuation": "p-adic valuations and trees",
    "asym": "saddle-point estimates",
    "oracle": "brute-force cycle-type census",
    "verify": "run a named invariant suite",
}


def build_parser() -> argparse.ArgumentParser:
    """The parser COMMANDS implies, spelt as FLAGS and COMMAND_HELP say."""
    parser = argparse.ArgumentParser(
        prog="involutions",
        description="Exact computations around involution numbers, their "
        "partial sums, valuations, cycle-index polynomials and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, actions in COMMANDS.items():
        # no option has a parser default, so only the options given appear in
        # the namespace; _dispatch supplies the defaults of the action
        p = sub.add_parser(command, help=COMMAND_HELP[command],
                           argument_default=argparse.SUPPRESS)
        # a second action flag is a usage error; argparse cannot format the
        # help of an empty group
        group = (p.add_mutually_exclusive_group(required=None not in actions)
                 if actions.keys() - {None} else None)
        for dest, spelling in FLAGS.items():
            if dest in actions:
                group.add_argument(_flag(dest), **spelling)
            elif any(dest in action.options for action in actions.values()):
                p.add_argument(_flag(dest), **spelling)
        formats = dict.fromkeys(f for action in actions.values() for f in action.formats)
        if len(formats) > 1:
            p.add_argument("--format", choices=tuple(formats))
    return parser


# run() parses with one parser per process: parse_args keeps no state
# between calls, and building the parser costs more than most actions
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    # exact values are read and printed in full, past Python's digit limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ValueError, ArithmeticError) as exc:
        return _usage(f"error: {exc}")
    finally:
        sys.set_int_max_str_digits(digit_limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull and
        # exit 1 without a traceback, as in the SIGPIPE note of Python's docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
