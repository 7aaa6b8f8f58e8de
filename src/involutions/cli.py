"""Command-line front end: computations, exports, and verification sweeps.

Exit codes: 0 success, 1 usage error, 2 verification failure (the first
counterexample is printed).  Long sweeps stream progress to stderr so stdout
stays pipeable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from . import asymptotic, cyclecount, involution, oracle, partialsum, series, valuation
from .exactnum import nu_int, nu_rat, partitions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _emit_sequence(values, fmt: str, name: str) -> None:
    if fmt == "bfile":
        for n, v in enumerate(values):
            print(f"{n} {v}")
    elif fmt == "json":
        print(json.dumps({"schema": "involutions/sequence/1", "name": name,
                          "values": [str(v) for v in values]}, sort_keys=True))
    elif fmt == "csv":
        print("n,value")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        for v in values:
            print(v)


def _unhonoured_format(args, action: str, honoured: tuple[str, ...]) -> bool:
    """Report an explicit --format that `action` cannot print; True if so."""
    if args.format is None or args.format in honoured:
        return False
    print(f"{action}: --format {args.format} is not supported here "
          f"(choose {' or '.join(honoured)})", file=sys.stderr)
    return True


def cmd_invol(args) -> int:
    if args.hermite_check:
        ok = all(involution.hermite_relation_check(n) for n in range(args.max + 1))
        print("ok" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_VERIFY
    if args.table:
        values = [involution.involution_number(n) for n in range(args.max + 1)]
        _emit_sequence(values, args.format, "involution-numbers")
        return EXIT_OK
    if args.n is None:
        print("invol: provide --n, --table or --hermite-check", file=sys.stderr)
        return EXIT_USAGE
    if args.poly:
        print(involution.involution_poly(args.n))
    else:
        print(involution.involution_number(args.n))
    return EXIT_OK


def cmd_sums(args) -> int:
    if args.table:
        values = [partialsum.partial_sum(n) for n in range(args.max + 1)]
        _emit_sequence(values, args.format, "involution-partial-sums")
        return EXIT_OK
    if args.cauchy is not None:
        print(partialsum.cauchy_alternating_sum(args.cauchy))
        return EXIT_OK
    if args.b_k is not None:
        print(partialsum.b_k(args.b_k))
        return EXIT_OK
    if args.n is None:
        print("sums: provide --n, --table, --cauchy or --b-k", file=sys.stderr)
        return EXIT_USAGE
    print(partialsum.partial_sum(args.n))
    return EXIT_OK


def cmd_restricted(args) -> int:
    if args.n is None or args.l is None:
        print("restricted: provide --n and --l", file=sys.stderr)
        return EXIT_USAGE
    if args.cycle_index or args.determinant:
        poly = (
            cyclecount.toeplitz_determinant(args.n, args.l)
            if args.determinant
            else cyclecount.cycle_index_poly(args.n, args.l)
        )
        if args.format == "json":
            print(poly.to_json())
        else:
            print(poly)
        return EXIT_OK
    if _unhonoured_format(args, "restricted", ("plain",)):
        return EXIT_USAGE
    print(cyclecount.restricted_count(args.n, args.l))
    return EXIT_OK


def cmd_valuation(args) -> int:
    if args.nu2_involution is not None:
        if _unhonoured_format(args, "valuation --nu2-involution", ("plain",)):
            return EXIT_USAGE
        print(valuation.nu2_involution(args.nu2_involution))
        return EXIT_OK
    if args.nu2_partial_sum is not None:
        if _unhonoured_format(args, "valuation --nu2-partial-sum", ("plain",)):
            return EXIT_USAGE
        print(valuation.nu2_partial_sum(args.nu2_partial_sum))
        return EXIT_OK
    if args.efficiency_scan:
        primes = valuation.inefficient_primes_upto(args.max)
        if args.format == "json":
            print(json.dumps({"schema": "involutions/inefficient-primes/1",
                              "bound": args.max, "primes": primes}, sort_keys=True))
        else:
            for p in primes:
                print(p)
        return EXIT_OK
    if args.tree:
        if _unhonoured_format(args, "valuation --tree", ("json",)):
            return EXIT_USAGE
        tree = valuation.build_valuation_tree(args.prime, args.depth)
        print(tree.to_json())
        return EXIT_OK
    if args.conjecture:
        report = valuation.conjecture_check(args.prime, args.depth)
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.to_text())
        return EXIT_OK
    if args.nu3_check:
        if _unhonoured_format(args, "valuation --nu3-check", ("plain",)):
            return EXIT_USAGE
        ok = valuation.nu3_partial_sum_pattern_check(args.max)
        print("ok" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_VERIFY
    print("valuation: no action selected", file=sys.stderr)
    return EXIT_USAGE


def cmd_asym(args) -> int:
    if args.beta is not None:
        l, k = args.l, args.beta
        if 0 < k < l:
            printed = asymptotic.beta_closed_form(l, k)
            extracted = asymptotic.beta_series_extraction(l, k)
        else:
            printed = extracted = asymptotic.beta_closed_form(l, k)
        print(json.dumps({"schema": "involutions/beta/1", "l": l, "k": k,
                          "printed": str(printed), "extracted": str(extracted)},
                         sort_keys=True))
        return EXIT_OK
    if args.saddle:
        sol = asymptotic.solve_saddle(args.n, args.l, args.tol)
        print(mpmath.nstr(sol.r_plus, 17))
        return EXIT_OK
    if args.sweep:
        print("n,l,exact,estimate,ratio,log_error")
        for n in args.sweep:
            print(f"... n={n}", file=sys.stderr)
            est = asymptotic.estimate_saddle(n, args.l, args.tol)
            log_exact = asymptotic.log_exact_count(n, args.l)
            ratio = mpmath.exp(est.log_value - log_exact)
            log_err = log_exact - est.log_value
            print(
                f"{n},{args.l},{mpmath.nstr(mpmath.exp(log_exact), 10)},"
                f"{mpmath.nstr(est.value, 10)},{mpmath.nstr(ratio, 10)},"
                f"{mpmath.nstr(log_err, 10)}"
            )
        return EXIT_OK
    if args.n is None:
        print("asym: provide --n (with --saddle/--estimate) or --beta/--sweep",
              file=sys.stderr)
        return EXIT_USAGE
    est = asymptotic.estimate_saddle(args.n, args.l, args.tol)
    print(mpmath.nstr(est.value, 12))
    return EXIT_OK


def cmd_oracle(args) -> int:
    census = (
        oracle.enumerate_census(args.n)
        if args.n <= oracle.ENUMERATION_CAP and not args.formula
        else oracle.partition_census(args.n)
    )
    print(census.to_json())
    return EXIT_OK


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
    running = 0
    for n in range(max_n + 1):
        running += involution.involution_number(n)
        if partialsum.partial_sum(n) != running:
            return f"recurrence vs running sum at n={n}"
        if partialsum.partial_sum_by_binomial(n) != running:
            return f"binomial form disagrees at n={n}"
    return None


def _suite_cauchy(max_n: int):
    for m in range(1, max_n + 1):
        if partialsum.cauchy_alternating_sum(2 * m) != 0:
            return f"even alternating sum nonzero at m={m}"
        if partialsum.cauchy_alternating_sum(2 * m + 1) != involution.double_factorial_odd(m):
            return f"odd alternating sum mismatch at m={m}"
        if not partialsum.cauchy_even_identity_check(m):
            return f"even identity fails at m={m}"
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
    ineff = valuation.inefficient_primes_upto(541)
    if len(ineff) != 62:
        return f"expected 62 inefficient primes, found {len(ineff)}"
    if valuation.is_efficient(3) is not True or valuation.is_efficient(7) is not True:
        return "3 and 7 must be efficient"
    return None


def _suite_tree5(max_n: int):
    report = valuation.conjecture_check(5, 5)
    level1, level2 = report.levels[0], report.levels[1]
    if not (level1.holds and level2.holds):
        return "tree levels 1-2 do not match the narrative"
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
    for k in range(1, 26):
        if 4 * k * partialsum.b_k(k) != partialsum.partial_sum(4 * k - 1):
            return f"4k*b != a(4k-1) at k={k}"
    return None


def _suite_nu3(max_n: int):
    if not valuation.nu3_partial_sum_pattern_check(max_n):
        return "observed nu3 pattern fails"
    return None


def _suite_congruence(max_n: int):
    for p in (3, 5, 7):
        for n in range(1, max_n + 1):
            for lam in partitions(n):
                if not valuation.multinomial_congruence_check(p, n, lam):
                    return f"congruence fails at p={p}, lambda={lam}"
    return None


def _suite_hermite(max_n: int):
    for n in range(max_n + 1):
        if not involution.hermite_relation_check(n):
            return f"Hermite relation fails at n={n}"
    return None


def _suite_oracle(max_n: int):
    for n in range(max_n + 1):
        census = oracle.enumerate_census(n)
        if census.counts != oracle.partition_census(n).counts:
            return f"census mismatch at n={n}"
        if oracle.census_involution_count(census) != involution.involution_number(n):
            return f"involution count mismatch at n={n}"
        if oracle.census_fixed_point_poly(census) != involution.involution_poly(n):
            return f"fixed point polynomial mismatch at n={n}"
        for l in range(1, n + 1):
            if oracle.census_restricted_count(census, l) != cyclecount.restricted_count(n, l):
                return f"restricted count mismatch at (n={n}, l={l})"
    return None


def _suite_cycle_index(max_n: int):
    for n in range(max_n + 1):
        for l in range(1, min(n, 6) + 1):
            poly = cyclecount.cycle_index_poly(n, l)
            if not poly.is_homogeneous(n):
                return f"inhomogeneous cycle index at (n={n}, l={l})"
            if poly.sum_of_coefficients() != cyclecount.restricted_count(n, l):
                return f"coefficient sum mismatch at (n={n}, l={l})"
    return None


def _suite_toeplitz(max_n: int):
    for n in range(max_n + 1):
        for l in range(1, max(n, 1) + 1):
            if cyclecount.toeplitz_determinant(n, l) != cyclecount.cycle_index_poly(n, l):
                return f"determinant mismatch at (n={n}, l={l})"
    return None


def _suite_egf(max_n: int):
    if not series.involution_egf_check(max_n):
        return "involution EGF mismatch"
    if not series.partial_sum_egf_check(max_n):
        return "partial sum EGF mismatch"
    for l in range(2, 6):
        f = series.series_exp(series.cycle_egf_exponent(l, 25))
        for n in range(26):
            if f.egf_coefficient(n) != cyclecount.restricted_count(n, l):
                return f"restricted EGF mismatch at (n={n}, l={l})"
    for m in range(7):
        if not series.umbral_derivative_check(m, max_n):
            return f"umbral identity fails at m={m}"
    return None


def _suite_asymptotic(max_n: int):
    for (n, l) in ((100, 2), (1000, 2), (200, 3)):
        sol = asymptotic.solve_saddle(n, l, 1e-10)
        if abs(sol.residual) >= 1e-10:
            return f"saddle residual too large at (n={n}, l={l})"
    err100 = abs(asymptotic.log_exact_count(100, 2) - asymptotic.estimate_saddle(100, 2).log_value)
    err1000 = abs(asymptotic.log_exact_count(1000, 2) - asymptotic.estimate_saddle(1000, 2).log_value)
    if not err1000 < err100:
        return "log error not shrinking between n=100 and n=1000"
    ratio = mpmath.exp(asymptotic.estimate_saddle(1000, 2).log_value - asymptotic.log_exact_count(1000, 2))
    if not 0.95 < float(ratio) < 1.05:
        return f"ratio at n=1000 out of range: {float(ratio)}"
    if asymptotic.beta_series_extraction(2, 1) != Fraction(1):
        return "extracted beta_1 at l=2 is not 1"
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

# Suites that check one statement at a fixed bound reject --max; the others
# honour any --max >= 0 up to their cap here.
FIXED_BOUND = ("efficiency", "tree-5", "f-sum", "egf")
MAX_BOUND = {
    "tables": 10,
    "oracle": 8,
    "cycle-index": 20,
    "toeplitz": cyclecount.TOEPLITZ_MAX_N,
}


def _unhonoured_max(name: str, max_n: int) -> str | None:
    """Why suite `name` cannot run at an explicit --max; None if it can."""
    if name in FIXED_BOUND:
        return f"suite {name} checks a fixed bound; --max is not supported"
    if max_n < 0:
        return "--max must be >= 0"
    cap = MAX_BOUND.get(name)
    if cap is not None and max_n > cap:
        return f"suite {name} runs up to --max {cap}, not {max_n}"
    return None


def cmd_verify(args) -> int:
    if args.list:
        for name in sorted(SUITES):
            print(name)
        return EXIT_OK
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite: {name}", file=sys.stderr)
            return EXIT_USAGE
        problem = args.max is not None and _unhonoured_max(name, args.max)
        if problem:
            print(f"verify: {problem}", file=sys.stderr)
            return EXIT_USAGE
    failed = False
    for name in names:
        fn, default_max = SUITES[name]
        max_n = args.max if args.max is not None else default_max
        print(f"running {name} (max={max_n})", file=sys.stderr)
        counterexample = fn(max_n)
        if counterexample is None:
            print(f"{name}: ok")
        else:
            print(f"{name}: FAIL: {counterexample}")
            failed = True
            break
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involutions",
        description="Exact computations around involution numbers, their "
        "partial sums, valuations, cycle-index polynomials and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("plain", "json", "csv", "bfile"), default="plain"):
        p.add_argument("--format", choices=choices, default=default)

    # each command runs one action; a second action flag is a usage error
    p = sub.add_parser("invol", help="involution numbers and polynomials")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--n", type=int)
    action.add_argument("--table", action="store_true", help="print values 0..max")
    action.add_argument("--hermite-check", action="store_true")
    p.add_argument("--poly", action="store_true", help="print the involution polynomial")
    p.add_argument("--max", type=int, default=10)
    add_format(p)
    p.set_defaults(func=cmd_invol)

    p = sub.add_parser("sums", help="partial sums and Cauchy identities")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--n", type=int)
    action.add_argument("--table", action="store_true")
    action.add_argument("--cauchy", type=int, metavar="N",
                        help="alternating Cauchy sum at N")
    action.add_argument("--b-k", type=int, metavar="K", help="rational b(K)")
    p.add_argument("--max", type=int, default=10)
    add_format(p)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("restricted", help="bounded-cycle permutation counts")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    action = p.add_mutually_exclusive_group()
    action.add_argument("--cycle-index", action="store_true")
    action.add_argument("--determinant", action="store_true",
                        help="via the Toeplitz determinant (small n only)")
    # no default: an action rejects an explicit format it cannot print
    add_format(p, ("plain", "json"), default=None)
    p.set_defaults(func=cmd_restricted)

    p = sub.add_parser("valuation", help="p-adic valuations and trees")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--nu2-involution", type=int, metavar="N")
    action.add_argument("--nu2-partial-sum", type=int, metavar="N")
    action.add_argument("--efficiency-scan", action="store_true")
    action.add_argument("--tree", action="store_true")
    action.add_argument("--conjecture", action="store_true")
    action.add_argument("--nu3-check", action="store_true")
    p.add_argument("--prime", type=int, default=5)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--max", type=int, default=541)
    add_format(p, ("plain", "json"), default=None)
    p.set_defaults(func=cmd_valuation)

    p = sub.add_parser("asym", help="saddle-point estimates")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int, default=2)
    action = p.add_mutually_exclusive_group()
    action.add_argument("--saddle", action="store_true", help="print the saddle point")
    action.add_argument("--beta", type=int, metavar="K",
                        help="exponent coefficient beta_K (printed and extracted)")
    action.add_argument("--sweep", type=int, nargs="+", metavar="N",
                        help="CSV of exact vs estimate over the given n values")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("oracle", help="brute-force cycle-type census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", action="store_true",
                   help="use the counting formula instead of enumeration")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--list", action="store_true")
    p.add_argument("--max", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # exact values are printed in full, past the interpreter's digit limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(digit_limit)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
