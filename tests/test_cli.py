import argparse
import contextlib
import decimal
import functools
import json
import random
import resource
import signal
import subprocess
import sys

import mpmath
import pytest

from involutions import cli
from involutions.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, SUITES, build_parser, run
from involutions.cyclecount import restricted_count
from involutions.exactnum import poly_text
from involutions.involution import hermite_poly, involution_number
from involutions.partialsum import partial_sum


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_invol_single(capsys):
    assert run(["invol", "--n", "10"]) == EXIT_OK
    assert out_lines(capsys) == ["9496"]
    # 0 is a value, not an absent action
    assert run(["invol", "--n", "0"]) == EXIT_OK
    assert out_lines(capsys) == ["1"]


def test_invol_poly(capsys):
    assert run(["invol", "--n", "3", "--poly"]) == EXIT_OK
    assert out_lines(capsys) == ["t^3 + 3*t"]


# polynomial text as printed before poly_text was the one renderer
INVOL_POLY_TEXT = [
    "1", "t", "t^2 + 1", "t^3 + 3*t", "t^4 + 6*t^2 + 3", "t^5 + 10*t^3 + 15*t",
    "t^6 + 15*t^4 + 45*t^2 + 15", "t^7 + 21*t^5 + 105*t^3 + 105*t",
    "t^8 + 28*t^6 + 210*t^4 + 420*t^2 + 105", "t^9 + 36*t^7 + 378*t^5 + 1260*t^3 + 945*t",
    "t^10 + 45*t^8 + 630*t^6 + 3150*t^4 + 4725*t^2 + 945",
    "t^11 + 55*t^9 + 990*t^7 + 6930*t^5 + 17325*t^3 + 10395*t",
    "t^12 + 66*t^10 + 1485*t^8 + 13860*t^6 + 51975*t^4 + 62370*t^2 + 10395",
]
HERMITE_TEXT = ["1", "t", "t^2 - 1", "t^3 - 3*t", "t^4 - 6*t^2 + 3", "t^5 - 10*t^3 + 15*t",
                "t^6 - 15*t^4 + 45*t^2 - 15"]
CYCLE_INDEX_TEXT = {
    (0, 1): "1",
    (1, 1): "Y1",
    (4, 3): "Y1^4 + 6*Y1^2*Y2 + 8*Y1*Y3 + 3*Y2^2",
    (5, 2): "Y1^5 + 10*Y1^3*Y2 + 15*Y1*Y2^2",
    (5, 4): "Y1^5 + 10*Y1^3*Y2 + 20*Y1^2*Y3 + 15*Y1*Y2^2 + 30*Y1*Y4 + 20*Y2*Y3",
    (6, 6): "Y1^6 + 15*Y1^4*Y2 + 40*Y1^3*Y3 + 45*Y1^2*Y2^2 + 90*Y1^2*Y4 + 120*Y1*Y2*Y3"
            " + 144*Y1*Y5 + 15*Y2^3 + 90*Y2*Y4 + 40*Y3^2 + 120*Y6",
}
POLY_TEXT = [
    *((["invol", "--n", str(n), "--poly"], text) for n, text in enumerate(INVOL_POLY_TEXT)),
    *((["restricted", "--n", str(n), "--l", str(l), flag], text)
      for (n, l), text in CYCLE_INDEX_TEXT.items() for flag in ("--cycle-index", "--determinant")),
    # a list of ints is a polynomial in t, rendered as `invol --poly` renders it
    *((hermite_poly(n), text) for n, text in enumerate(HERMITE_TEXT)),
    ([0, -1], "-t"),
    ([-1, -1], "-t - 1"),
    ([1, 0, -3], "-3*t^2 + 1"),
    ([], "0"),
]


def _is_poly_in_t(source):
    return all(isinstance(c, int) for c in source)


@pytest.mark.parametrize("source, text", POLY_TEXT, ids=[
    "coeffs=" + ",".join(map(str, source)) if _is_poly_in_t(source)
    else "-".join(a.lstrip("-") for a in source) for source, _ in POLY_TEXT])
def test_one_renderer_prints_every_polynomial(source, text, capsys):
    if _is_poly_in_t(source):
        terms = (((k,), source[k]) for k in reversed(range(len(source))))
        assert poly_text(terms, ["t"]) == text
    else:
        assert run(source) == EXIT_OK
        assert capsys.readouterr().out == text + "\n"


def test_invol_table_plain(capsys):
    assert run(["invol", "--table", "--max", "5"]) == EXIT_OK
    assert out_lines(capsys) == ["1", "1", "2", "4", "10", "26"]


def test_invol_table_bfile(capsys):
    assert run(["invol", "--table", "--max", "4", "--format", "bfile"]) == EXIT_OK
    assert out_lines(capsys) == ["0 1", "1 1", "2 2", "3 4", "4 10"]


def test_invol_table_csv(capsys):
    assert run(["invol", "--table", "--max", "2", "--format", "csv"]) == EXIT_OK
    assert out_lines(capsys) == ["n,value", "0,1", "1,1", "2,2"]


def test_invol_table_json(capsys):
    assert run(["invol", "--table", "--max", "3", "--format", "json"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["schema"] == "involutions/sequence/1"
    assert doc["values"] == ["1", "1", "2", "4"]


def _is_decimal_of(text, value):
    # checked without str(value), which the digit limit forbids here
    digits = len(text)
    return (text.isdigit() and int(text[-18:]) == value % 10**18
            and 10 ** (digits - 1) <= value < 10**digits)


def test_exact_values_print_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["invol", "--n", "3000"]) == EXIT_OK
    (text,) = out_lines(capsys)
    assert len(text) > limit and _is_decimal_of(text, involution_number(3000))
    assert run(["invol", "--table", "--max", "3000", "--format", "bfile"]) == EXIT_OK
    rows = [line.split(" ") for line in out_lines(capsys)]
    assert [int(n) for n, _ in rows] == list(range(3001))
    assert all(_is_decimal_of(v, involution_number(int(n))) for n, v in rows[2830:])
    assert sys.get_int_max_str_digits() == limit


@functools.lru_cache(maxsize=None)
def _int_strings(command):
    """str(int) of the cursor values 0..3000, past the digit limit."""
    term = involution_number if command == "invol" else partial_sum
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return tuple(str(term(n)) for n in range(3001))
    finally:
        sys.set_int_max_str_digits(limit)


def _int_table(command, fmt, top):
    """The table that the integer values print, by the rules of each format."""
    values = _int_strings(command)[: top + 1]
    if fmt == "json":
        name = "involution-numbers" if command == "invol" else "involution-partial-sums"
        return json.dumps({"schema": "involutions/sequence/1", "name": name,
                           "values": list(values)}, sort_keys=True) + "\n"
    rows = {"plain": list(values),
            "csv": ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)],
            "bfile": [f"{n} {v}" for n, v in enumerate(values)]}[fmt]
    return "".join(row + "\n" for row in rows)


def _mismatch(text, expected):
    """None if equal, else where they first differ (pytest's diff of
    megabyte strings takes minutes)."""
    if text == expected:
        return None
    at = next((i for i, (x, y) in enumerate(zip(text, expected)) if x != y),
              min(len(text), len(expected)))
    return at, text[max(at - 20, 0):at + 20], expected[max(at - 20, 0):at + 20]


@pytest.mark.parametrize("top", [0, 5, 3000])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv", "bfile"])
@pytest.mark.parametrize("command", ["invol", "sums"])
def test_table_prints_the_integer_values(command, fmt, top, capsys):
    assert run([command, "--table", "--max", str(top), "--format", fmt]) == EXIT_OK
    captured = capsys.readouterr()
    assert _mismatch(captured.out, _int_table(command, fmt, top)) is None
    assert captured.err == ""


def test_table_streams_in_bounded_memory(run_measured):
    # rows are printed as they are computed: holding all 20001 values first
    # peaked at 184 MB
    def count_rows(stdout):
        rows, last = 0, b""
        for last in stdout:
            rows += 1
        return rows, last
    proc, peak_kb = run_measured("-m", "involutions.cli", "invol", "--table", "--max", "20000",
                                 "--format", "bfile", read=count_rows)
    rows, last = proc.stdout
    assert proc.returncode == EXIT_OK and rows == 20001
    n, value = last.split()
    assert n == b"20000" and decimal.Decimal(value.decode()) == involution_number(20000)
    assert peak_kb < 40 * 1024


def test_a_rounding_raises_before_its_row_prints(capsys, monkeypatch):
    # at 10 digits, I(20) = I(19) + 19 I(18) is the first value to round:
    # the exact context traps it, so no inexact or rounded row is printed
    monkeypatch.setattr(cli, "_EXACT", cli._EXACT.copy())
    cli._EXACT.prec = 10
    assert run(["invol", "--table", "--max", "25"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [str(involution_number(n)) for n in range(20)]
    assert captured.err.startswith("error: ") and "Rounded" in captured.err


def test_tables_run_in_an_exact_context():
    assert cli._EXACT.prec == decimal.MAX_PREC
    assert (cli._EXACT.Emax, cli._EXACT.Emin) == (decimal.MAX_EMAX, decimal.MIN_EMIN)
    for signal in (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation):
        assert cli._EXACT.traps[signal]


def test_exact_decimal_prints_as_str_int():
    # single values print through _exact_decimal: hi 2^k + lo in exact decimal
    rng = random.Random(32)
    values = [0, 1, *(2**k for k in (1, 4095, 4096, 4097, 65536, 10**5)),
              *(10**k + d for k in (1, 1233, 1234, 5000, 20000) for d in (-1, 1)),
              *(rng.randrange(10 ** rng.randrange(1, 10**5)) for _ in range(8)), 10**10**5 - 1]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with decimal.localcontext(cli._EXACT):
            for value in values:
                assert str(cli._exact_decimal(value)) == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, value", [
    (["invol", "--n", "20000"], lambda: involution_number(20000)),
    (["sums", "--n", "5000"], lambda: partial_sum(5000)),
    (["restricted", "--n", "3000", "--l", "7"], lambda: restricted_count(3000, 7)),
])
def test_single_values_print_as_str_int(argv, value, capsys):
    assert run(argv) == EXIT_OK
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert capsys.readouterr().out == str(value()) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_invol_usage_error(capsys):
    assert run(["invol"]) == EXIT_USAGE
    capsys.readouterr()


def test_sums(capsys):
    assert run(["sums", "--n", "7"]) == EXIT_OK
    assert out_lines(capsys) == ["352"]
    assert run(["sums", "--cauchy", "5"]) == EXIT_OK
    assert out_lines(capsys) == ["3"]
    assert run(["sums", "--b-k", "3"]) == EXIT_OK
    assert out_lines(capsys) == ["12232/3"]


def test_restricted(capsys):
    assert run(["restricted", "--n", "5", "--l", "4"]) == EXIT_OK
    assert out_lines(capsys) == ["96"]


def test_restricted_cycle_index(capsys):
    assert run(["restricted", "--n", "5", "--l", "4", "--cycle-index"]) == EXIT_OK
    assert out_lines(capsys) == [
        "Y1^5 + 10*Y1^3*Y2 + 20*Y1^2*Y3 + 15*Y1*Y2^2 + 30*Y1*Y4 + 20*Y2*Y3"
    ]


def test_restricted_determinant_matches(capsys):
    assert run(["restricted", "--n", "5", "--l", "4", "--determinant",
                "--format", "json"]) == EXIT_OK
    det = json.loads(out_lines(capsys)[0])
    assert run(["restricted", "--n", "5", "--l", "4", "--cycle-index",
                "--format", "json"]) == EXIT_OK
    rec = json.loads(out_lines(capsys)[0])
    assert det == rec


def test_valuation_values(capsys):
    assert run(["valuation", "--nu2-involution", "7"]) == EXIT_OK
    assert out_lines(capsys) == ["3"]
    assert run(["valuation", "--nu2-partial-sum", "7"]) == EXIT_OK
    assert out_lines(capsys) == ["5"]


def test_valuation_efficiency_scan(capsys):
    assert run(["valuation", "--efficiency-scan", "--max", "50"]) == EXIT_OK
    assert out_lines(capsys) == ["5", "13", "19", "23", "29", "31", "43"]


def test_valuation_efficiency_scan_json(capsys):
    assert run(["valuation", "--efficiency-scan", "--max", "50", "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(
        {"schema": "involutions/inefficient-primes/1", "bound": 50,
         "primes": [5, 13, 19, 23, 29, 31, 43]}, sort_keys=True) + "\n"


def test_valuation_tree_json(capsys):
    assert run(["valuation", "--tree", "--prime", "5", "--depth", "2"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["schema"] == "involutions/valuation-tree/1"
    assert len(doc["levels"]) == 2


def test_valuation_conjecture(capsys):
    assert run(["valuation", "--conjecture", "--prime", "5", "--depth", "2",
                "--format", "json"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["holds"] is True


def test_asym_saddle(capsys):
    assert run(["asym", "--saddle", "--n", "12", "--l", "2"]) == EXIT_OK
    assert abs(float(out_lines(capsys)[0]) - 3.0) < 1e-10


@pytest.mark.parametrize("n, root", [
    (2, "1.0"),
    (1, "0.61803398874989485"),  # (sqrt(5) - 1)/2 = 0.6180339887498948482...
    (601, "24.020399670478457"),
])
def test_asym_saddle_prints_the_rounded_root(n, root, capsys):
    assert run(["asym", "--saddle", "--n", str(n), "--l", "2"]) == EXIT_OK
    assert out_lines(capsys) == [root]


def test_asym_has_no_tolerance_option(capsys):
    assert run(["asym", "--n", "100", "--tol", "1e-3"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_asym_saddle_at_large_n(capsys):
    assert run(["asym", "--saddle", "--n", str(10**40), "--l", "2"]) == EXIT_OK
    assert out_lines(capsys) == ["1.0e+20"]
    # an --n past the 4300 digits that int() reads by default
    assert run(["asym", "--saddle", "--n", "1" + "0" * 5000, "--l", "2"]) == EXIT_OK
    assert out_lines(capsys) == ["1.0e+2500"]


def test_asym_beta(capsys):
    assert run(["asym", "--beta", "1", "--l", "2"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["printed"] == "3/2" and doc["extracted"] == "1"
    # 0 is a value, not an absent action
    assert run(["asym", "--beta", "0", "--l", "3"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["printed"] == doc["extracted"] == "-5/18"


def test_asym_beta_refuses_l_0(capsys):
    assert run(["asym", "--beta", "0", "--l", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: requires l >= 1 and 0 <= k <= l\n"


def test_asym_sweep_csv(capsys):
    assert run(["asym", "--sweep", "50", "100", "--l", "2"]) == EXIT_OK
    lines = out_lines(capsys)
    assert lines[0] == "n,l,exact,estimate,ratio,log_error"
    assert len(lines) == 3 and lines[1].startswith("50,2,")


def test_oracle_json(capsys):
    assert run(["oracle", "--n", "4"]) == EXIT_OK
    doc = json.loads(out_lines(capsys)[0])
    assert doc["counts"]["2+2"] == 3


def test_oracle_has_no_formula_option(capsys):
    # n picks the census: enumeration up to ENUMERATION_CAP, the formula above
    assert run(["oracle", "--n", "6", "--formula"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_oracle_census_streams_in_bounded_memory(run_measured):
    # the census at n = 50 takes about 71 MB; a sorted copy of it and the
    # whole document, built before printing, peaked at 136 MB
    proc, peak_kb = run_measured("-m", "involutions.cli", "oracle", "--n", "50",
                                 read=lambda stream: stream.read())
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith(b'{"counts": {"1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1')
    assert proc.stdout.endswith(b'"n": 50, "schema": "involutions/cycle-census/1"}\n')
    assert proc.stdout.count(b'": ') == 204226 + 3  # p(50) entries and 3 top-level keys
    assert peak_kb < 110 * 1024


def test_verify_list(capsys):
    assert run(["verify", "--list"]) == EXIT_OK
    assert out_lines(capsys) == sorted(SUITES)


# the 18 suites and their default bounds; the benchmark's verify workload
# expects exactly these names
REGISTRY = {
    "asymptotic": 1000,
    "cauchy": 40,
    "congruence": 6,
    "cycle-index": 20,
    "efficiency": 541,
    "egf": 30,
    "f-sum": 25,
    "hermite": 100,
    "involution-forms": 200,
    "nu2-involution": 2000,
    "nu2-partial-sum": 2000,
    "nu3-pattern": 1000,
    "oracle": 8,
    "partial-sum-forms": 500,
    "periodicity": 500,
    "tables": 10,
    "toeplitz": 8,
    "tree-5": 5,
}


def test_registry_names_and_default_bounds():
    assert {name: bound for name, (_, bound) in SUITES.items()} == REGISTRY


def test_verify_runs_every_suite_at_its_default_bound(capsys, monkeypatch):
    # the checks themselves run once, in tests/test_acceptance.py; here each
    # is replaced by a stub that records the bound verify passes it
    called = []
    for name, (_, bound) in SUITES.items():
        stub = lambda max_n, name=name: called.append((name, max_n))
        monkeypatch.setitem(SUITES, name, (stub, bound))
    assert run(["verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{name}: ok" for name in sorted(REGISTRY)]
    assert captured.err.splitlines() == [
        f"running {name} (max={REGISTRY[name]})" for name in sorted(REGISTRY)
    ]
    assert called == sorted(REGISTRY.items())


def test_verify_json_has_a_record_per_suite(capsys, monkeypatch):
    for name, (_, bound) in SUITES.items():
        monkeypatch.setitem(SUITES, name, (lambda max_n: None, bound))
    assert run(["verify", "--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["schema"] == "involutions/verify/1"
    assert [(r["suite"], r["max"]) for r in doc["suites"]] == sorted(REGISTRY.items())
    for record in doc["suites"]:
        assert set(record) == {"suite", "max", "outcome", "counterexample",
                               "elapsed_s", "peak_rss_mb"}
        assert record["outcome"] == "ok" and record["counterexample"] is None
        assert record["elapsed_s"] >= 0 and record["peak_rss_mb"] > 0
    assert captured.err.splitlines() == [
        f"running {name} (max={REGISTRY[name]})" for name in sorted(REGISTRY)
    ]


def test_verify_json_stops_at_the_first_failure(capsys, monkeypatch):
    for name, (_, bound) in SUITES.items():
        check = (lambda max_n: f"broken at n={max_n}") if name == "egf" else (lambda max_n: None)
        monkeypatch.setitem(SUITES, name, (check, bound))
    assert run(["verify", "--format", "json"]) == EXIT_VERIFY
    records = json.loads(capsys.readouterr().out)["suites"]
    assert [r["suite"] for r in records] == sorted(REGISTRY)[:sorted(REGISTRY).index("egf") + 1]
    assert [r["outcome"] for r in records] == ["ok"] * (len(records) - 1) + ["fail"]
    assert records[-1]["counterexample"] == "broken at n=30"


def test_verify_toeplitz_at_its_bound(capsys):
    assert run(["verify", "--suite", "toeplitz", "--max", "12"]) == EXIT_OK
    assert out_lines(capsys) == ["toeplitz: ok"]


@pytest.mark.parametrize("argv", [
    ["--suite", "tables", "--max", "11"],
    ["--suite", "efficiency", "--max", "541"],
    ["--suite", "tree-5", "--max", "5"],
    ["--suite", "f-sum", "--max", "10"],
    ["--suite", "egf", "--max", "30"],
    ["--suite", "oracle", "--max", "10"],
    ["--suite", "cycle-index", "--max", "21"],
    ["--suite", "toeplitz", "--max", "13"],
    ["--suite", "cauchy", "--max", "-1"],
    ["--suite", "asymptotic", "--max", "3"],
    ["--max", "5"],
], ids=lambda argv: "-".join(argv[1::2]) if len(argv) > 2 else "all")
def test_verify_rejects_a_max_it_cannot_honour(argv, capsys, monkeypatch):
    called = []
    for name, (_, bound) in SUITES.items():
        monkeypatch.setitem(SUITES, name, (called.append, bound))
    assert run(["verify"] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and called == []
    assert captured.err.startswith("verify: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("suite, max_n", [("tables", 4), ("congruence", 8)])
def test_verify_honours_max(suite, max_n, capsys, monkeypatch):
    # the checks read their bound through these two functions
    seen = []
    partitions = cli.partitions
    monkeypatch.setattr(cli, "partitions", lambda n: seen.append(n) or partitions(n))
    monkeypatch.setattr("involutions.involution.involution_number",
                        lambda n: seen.append(n) or involution_number(n))
    assert run(["verify", "--suite", suite, "--max", str(max_n)]) == EXIT_OK
    assert out_lines(capsys) == [f"{suite}: ok"] and max(seen) == max_n


def test_fixed_bound_suites_read_their_bound(monkeypatch):
    # each bound is spelt once, in SUITES, so a json record's max is what ran
    seen = []
    for module, name in [(cli.valuation, "inefficient_primes_upto"),
                         (cli.valuation, "conjecture_check"),
                         (cli.partialsum, "partial_sum"),
                         (cli.asymptotic, "log_exact_count")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: seen.append((name, *args)) or real(*args))
    for suite, bound in [("efficiency", 100), ("tree-5", 3), ("f-sum", 10), ("asymptotic", 500)]:
        SUITES[suite][0](bound)
    assert ("inefficient_primes_upto", 100) in seen and ("conjecture_check", 5, 3) in seen
    assert max(n for name, n, *_ in seen if name == "partial_sum") == 4 * 10 - 1
    assert ("log_exact_count", 500, 2) in seen


def _off_at(point, by=1):
    """Wrap a function so that its value at the arguments `point` is off by `by`."""
    return lambda right: lambda *args: right(*args) + (by if args == point else 0)


def _census_off_at_4(right):
    def census(n):
        result = right(n)
        if n == 4:
            result.counts[(2, 2)] += 1
        return result
    return census


def _inhomogeneous_at_4_3(right):
    # g(4) for l = 3 gains the monomial Y1^5, of degree 5
    def polys(l):
        for n, poly in enumerate(right(l)):
            yield (cli.cyclecount.CycleIndexPoly(l, {**poly.terms, (5, 0, 0): 1})
                   if (n, l) == (4, 3) else poly)
    return polys


def _determinant_off_at_4_2(right):
    def determinant(n, l):
        det = right(n, l)
        if (n, l) == (4, 2):
            det = cli.cyclecount.CycleIndexPoly(l, {**det.terms, (4, 0): det.terms[(4, 0)] + 1})
        return det
    return determinant


def _involution_egf_off_at_3(right):
    def egf(order):
        f = right(order)
        f.values[3] += 1
        return f
    return egf


def _residual_off_at_200_3(right):
    def solve(n, l):
        sol = right(n, l)
        if (n, l) == (200, 3):
            sol.residual = mpmath.mpf(1)
        return sol
    return solve


def _log_error_of_1_then_one_half(right):
    # the log of the exact count, read as the estimate plus 1 at n = 100 and
    # plus 1/2 at n = 1000, exactly, so the log error falls but the ratio is e^(-1/2)
    def log_exact(n, l):
        with mpmath.mp.workdps(100):
            return cli.asymptotic.estimate_saddle(n, l).log_value + {100: 1, 1000: 0.5}[n]
    return log_exact


WRONG_VALUES = [
    ("tables", "involution.involution_number", _off_at((3,)), "involution table mismatch at n=3"),
    ("tables", "partialsum.partial_sum", _off_at((3,)), "partial sum table mismatch at n=3"),
    ("involution-forms", "involution.involution_number_by_sum", _off_at((5,)),
     "finite sum disagrees at n=5"),
    ("involution-forms", "involution.involution_number_bisplit", _off_at((2, 3)),
     "bisplit disagrees at n=5"),
    ("partial-sum-forms", "partialsum.partial_sum", _off_at((5,)),
     "recurrence vs running sum at n=5"),
    ("partial-sum-forms", "partialsum.partial_sum_by_binomial", _off_at((5,)),
     "binomial form disagrees at n=5"),
    ("cauchy", "partialsum.cauchy_alternating_sum", _off_at((7,)),
     "odd alternating sum mismatch at m=3"),
    ("nu2-involution", "valuation.nu2_involution_floor", _off_at((5,)),
     "nu2 involution mismatch at n=5"),
    ("nu2-partial-sum", "valuation.nu2_partial_sum", _off_at((5,)),
     "nu2 partial sum mismatch at n=5"),
    ("periodicity", "valuation.periodicity_check",
     lambda right: lambda p, r, n: right(p, r, n) and (p, r) != (5, 2),
     "periodicity fails at p=5, r=2"),
    # a truthy non-bool at p = 7 leaves the scan's 62 inefficient primes as they are
    ("efficiency", "valuation.is_efficient", lambda right: lambda p: 1 if p == 7 else right(p),
     "3 and 7 must be efficient"),
    ("f-sum", "partialsum.F_sum", _off_at((1, 2, 3)), "F valuation mismatch at (a=1, b=2, k=3)"),
    ("f-sum", "partialsum.b_k", _off_at((4,)), "nu2(b) mismatch at k=4"),
    ("f-sum", "partialsum.partial_sum", _off_at((11,)), "4k*b != a(4k-1) at k=3"),
    ("nu3-pattern", "valuation.nu3_partial_sum", _off_at((5,)), "observed nu3 pattern fails"),
    ("oracle", "oracle.partition_census", _census_off_at_4, "census mismatch at n=4"),
    ("cycle-index", "cyclecount.cycle_index_polys", _inhomogeneous_at_4_3,
     "inhomogeneous cycle index at (n=4, l=3)"),
    ("cycle-index", "cyclecount.restricted_count", _off_at((5, 2)),
     "coefficient sum mismatch at (n=5, l=2)"),
    ("toeplitz", "cyclecount.toeplitz_determinant", _determinant_off_at_4_2,
     "determinant mismatch at (n=4, l=2)"),
    ("egf", "series.involution_egf", _involution_egf_off_at_3, "involution EGF mismatch at n=3"),
    ("egf", "cyclecount.restricted_count", _off_at((5, 3)),
     "restricted EGF mismatch at (n=5, l=3)"),
    ("asymptotic", "asymptotic.solve_saddle", _residual_off_at_200_3,
     "saddle residual too large at (n=200, l=3)"),
    ("asymptotic", "asymptotic.log_exact_count", _off_at((1000, 2), 2),
     "log error not shrinking between n=100 and n=1000"),
    ("asymptotic", "asymptotic.log_exact_count", _log_error_of_1_then_one_half,
     f"ratio at n=1000 out of range: {float(mpmath.exp(mpmath.mpf(-0.5)))}"),
    ("asymptotic", "asymptotic.beta_series_extraction", _off_at((2, 1)),
     "extracted beta_1 at l=2 is not 1"),
    ("asymptotic", "asymptotic.beta_closed_form", _off_at((2, 1)),
     "printed beta_1 at l=2 is not 3/2"),
]


@pytest.mark.parametrize("suite, target, wrong, counterexample", WRONG_VALUES,
                         ids=[f"{suite}-{target.split('.')[1]}" for suite, target, *_ in WRONG_VALUES])
def test_suites_catch_one_wrong_value(suite, target, wrong, counterexample, monkeypatch):
    module, name = target.split(".")
    right = getattr(getattr(cli, module), name)
    monkeypatch.setattr(getattr(cli, module), name, wrong(right))
    check, bound = SUITES[suite]
    assert check(bound) == counterexample


def test_verify_single_suite(capsys):
    assert run(["verify", "--suite", "tables"]) == EXIT_OK
    assert out_lines(capsys) == ["tables: ok"]


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nonsense"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_exit_codes_defined():
    assert (EXIT_OK, EXIT_USAGE, EXIT_VERIFY) == (0, 1, 2)


def test_error_maps_to_usage_exit(capsys):
    assert run(["invol", "--n", "-1"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["invol", "--n", "-1", "--poly"],
    ["asym", "--sweep", "0"],
    ["asym", "--sweep", "50", "-3"],
    ["asym", "--sweep", "50", "--l", "0"],
    ["restricted", "--n", "200", "--l", "200", "--cycle-index"],
    ["restricted", "--n", "1000", "--l", "3", "--cycle-index", "--format", "json"],
    ["restricted", "--n", "20", "--l", "100000", "--cycle-index"],
    ["restricted", "--n", "5", "--l", "10000000", "--determinant"],
    ["asym", "--n", "10", "--l", "1000000000"],
    ["asym", "--saddle", "--n", "10", "--l", "1000000000"],
    ["asym", "--sweep", "10", "--l", "10001"],
    ["asym", "--beta", "1", "--l", "1000000000"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_input_refused_before_any_output(argv, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_bad_flag_returns_usage(capsys):
    assert run(["invol", "--bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_threads_flag_is_rejected(capsys):
    assert run(["--threads", "2", "verify", "--list"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["invol", "--table", "--n", "0"],
    ["invol", "--n", "5", "--table"],
    ["sums", "--n", "7", "--cauchy", "3"],
    ["sums", "--table", "--b-k", "2"],
    ["restricted", "--n", "5", "--l", "3", "--cycle-index", "--determinant"],
    ["valuation", "--tree", "--conjecture"],
    ["valuation", "--nu2-involution", "7", "--nu2-partial-sum", "7"],
    ["asym", "--saddle", "--n", "100", "--sweep", "10"],
    ["asym", "--beta", "1", "--sweep", "10"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_two_actions_are_rejected(argv, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv", [
    ["asym", "--saddle", "--n", "12", "--format", "csv"],
    ["oracle", "--n", "4", "--format", "csv"],
    ["restricted", "--n", "5", "--l", "4", "--format", "csv"],
    ["restricted", "--n", "5", "--l", "4", "--format", "bfile"],
    ["valuation", "--nu2-involution", "7", "--format", "csv"],
    ["valuation", "--nu2-involution", "7", "--format", "bfile"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_unhonoured_format_is_rejected(argv, capsys):
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["restricted", "--n", "5", "--l", "4", "--format", "json"],
    ["valuation", "--nu2-involution", "7", "--format", "json"],
    ["valuation", "--nu2-partial-sum", "7", "--format", "json"],
    ["sums", "--cauchy", "3", "--format", "json"],
    ["valuation", "--tree", "--prime", "5", "--depth", "2", "--format", "plain"],
    ["verify", "--list", "--format", "json"],
], ids=["restricted-count-json", "valuation-nu2-involution-json",
        "valuation-nu2-partial-sum-json", "sums-cauchy-json",
        "valuation-tree-plain", "verify-list-json"])
def test_format_the_action_cannot_print_is_rejected(argv, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--format {argv[-1]} is not supported" in captured.err


@pytest.mark.parametrize("argv", [
    ["restricted", "--n", "5", "--l", "4"],
    ["valuation", "--nu2-involution", "7"],
    ["sums", "--cauchy", "3"],
    ["valuation", "--tree", "--prime", "5", "--depth", "2"],
    ["verify", "--suite", "tables"],
], ids=lambda argv: "-".join(argv[:2]))
def test_format_the_action_prints_is_accepted(argv, capsys):
    assert run(argv) == EXIT_OK
    default = capsys.readouterr().out
    fmt = "json" if "--tree" in argv else "plain"
    assert run(argv + ["--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("argv", [
    ["invol", "--table", "--poly", "--max", "3"],
    ["invol", "--n", "5", "--max", "3"],
    ["invol", "--n", "5", "--format", "json"],
    ["sums", "--n", "3", "--max", "5"],
    ["sums", "--cauchy", "3", "--format", "csv"],
    ["asym", "--n", "100", "--sweep", "10"],
    ["asym", "--beta", "1", "--n", "5"],
    ["valuation", "--nu2-involution", "7", "--prime", "3"],
    ["valuation", "--tree", "--max", "9", "--depth", "1", "--prime", "3"],
    ["verify", "--list", "--suite", "tables"],
    # and an option value the action cannot honour
    ["invol", "--table", "--max", "-3"],
    ["sums", "--table", "--max", "-2"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_option_the_action_does_not_read_is_rejected(argv, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    # a usage line that names the action, not an error raised inside it
    assert captured.err.startswith(f"{argv[0]} --")



@pytest.mark.parametrize("argv, missing", [
    (["restricted", "--n", "5"], "restricted: --l"),
    (["asym", "--saddle"], "asym --saddle: --n"),
    (["oracle"], "oracle: --n"),
], ids=["restricted-n-5", "asym-saddle", "oracle"])
def test_missing_required_option_is_rejected(argv, missing, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{missing} is required\n"


# the options each action reads, written out here rather than taken from
# cli.COMMANDS; None is the action that runs when no action flag is given
READS = {
    ("invol", "--n"): {"--poly"},
    ("invol", "--table"): {"--max"},
    ("sums", "--n"): set(),
    ("sums", "--table"): {"--max"},
    ("sums", "--cauchy"): set(),
    ("sums", "--b-k"): set(),
    ("restricted", None): {"--n", "--l"},
    ("restricted", "--cycle-index"): {"--n", "--l"},
    ("restricted", "--determinant"): {"--n", "--l"},
    ("valuation", "--nu2-involution"): set(),
    ("valuation", "--nu2-partial-sum"): set(),
    ("valuation", "--efficiency-scan"): {"--max"},
    ("valuation", "--tree"): {"--prime", "--depth"},
    ("valuation", "--conjecture"): {"--prime", "--depth"},
    ("asym", None): {"--n", "--l"},
    ("asym", "--saddle"): {"--n", "--l"},
    ("asym", "--beta"): {"--l"},
    ("asym", "--sweep"): {"--l"},
    ("oracle", None): {"--n"},
    ("verify", None): {"--suite", "--max"},
    ("verify", "--list"): set(),
}


def _parser_options():
    """Each command's options, as build_parser() declares them, but --format."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {command: {a.option_strings[0]: a for a in parser._actions
                      if a.option_strings and a.option_strings[0] not in ("-h", "--format")}
            for command, parser in commands.choices.items()}


def test_every_option_is_an_action_or_read_by_one():
    options = _parser_options()
    assert {command for command, _ in READS} == set(options)
    for command, flags in options.items():
        actions = {action for c, action in READS if c == command and action}
        read = set().union(*(reads for (c, _), reads in READS.items() if c == command))
        assert actions | read == set(flags)


def test_every_flag_spelling_is_used():
    # build_parser() adds only the flags COMMANDS uses, so a dead spelling
    # would go unnoticed
    used = {dest for actions in cli.COMMANDS.values() for chosen, action in actions.items()
            for dest in [chosen, *action.options] if dest is not None}
    assert set(cli.FLAGS) == used


USAGE = {
    "invol": "usage: involutions invol [-h] (--n N | --table) [--poly] [--max MAX]\n"
             "                         [--format {plain,json,csv,bfile}]",
    "sums": "usage: involutions sums [-h] (--n N | --table | --cauchy N | --b-k K)\n"
            "                        [--max MAX] [--format {plain,json,csv,bfile}]",
    "restricted": "usage: involutions restricted [-h] [--n N] [--l L]\n"
                  "                              [--cycle-index | --determinant]\n"
                  "                              [--format {plain,json}]",
    "valuation": "usage: involutions valuation [-h]\n"
                 "                             (--nu2-involution N | --nu2-partial-sum N"
                 " | --efficiency-scan | --tree | --conjecture)\n"
                 "                             [--prime PRIME] [--depth DEPTH] [--max MAX]\n"
                 "                             [--format {plain,json}]",
    "asym": "usage: involutions asym [-h] [--n N] [--l L]\n"
            "                        [--saddle | --beta K | --sweep N [N ...]]",
    "oracle": "usage: involutions oracle [-h] [--n N]",
    "verify": "usage: involutions verify [-h] [--suite SUITE] [--list] [--max MAX]\n"
              "                          [--format {plain,json}]",
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_usage_line(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    assert run([command, "--help"]) == EXIT_OK
    assert capsys.readouterr().out.split("\n\n")[0] == USAGE[command]


def _given(flag, option):
    return [flag] if option.nargs == 0 else [flag, "2"]


@pytest.mark.parametrize("command, action, option", [
    (command, action, option)
    for command, options in _parser_options().items()
    for (c, action), reads in READS.items() if c == command
    for option in options
    if option not in reads and (command, option) not in READS
], ids=lambda value: str(value).lstrip("-"))
def test_every_option_the_action_does_not_read_is_rejected(command, action, option, capsys):
    options = _parser_options()[command]
    argv = [command] + (_given(action, options[action]) if action else [])
    assert run(argv + _given(option, options[option])) == EXIT_USAGE
    captured = capsys.readouterr()
    label = f"{command} {action}" if action else command
    assert captured.out == "" and captured.err == f"{label}: {option} is not used here\n"


def test_closed_pipe_ends_without_a_traceback(child_env):
    # far more output than a pipe buffers, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "involutions.cli", "invol", "--table", "--max", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
    )
    assert proc.stdout.read(10) == b"1\n1\n2\n4\n10"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b"" and proc.returncode == 1


@pytest.mark.parametrize("error, valid", [
    (["invol", "--n", "3", "--table"], ["invol", "--table", "--max", "4"]),
    (["valuation", "--prime", "5"], ["valuation", "--tree", "--prime", "5", "--depth", "2"]),
    (["restricted", "--n", "5", "--l", "2", "--cycle-index", "--determinant"],
     ["restricted", "--n", "5", "--l", "2", "--determinant"]),
    (["sums", "--n", "4", "--max", "3"], ["sums", "--n", "4"]),
], ids=["two-actions", "no-action", "two-flags", "unread-option"])
def test_run_after_a_usage_error_prints_what_a_fresh_process_prints(error, valid, capsys,
                                                                    monkeypatch, child_env):
    # run() reuses one parser, so an error must leave nothing behind in it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    env = dict(child_env, COLUMNS="80")
    fresh = {}
    for argv in (error, valid):
        proc = subprocess.run([sys.executable, "-m", "involutions.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert fresh[tuple(error)][0] == EXIT_USAGE and fresh[tuple(valid)][0] == EXIT_OK
    for argv in (error, valid, error, valid):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh[tuple(argv)]


# The refusal line of each input, recorded before the actions declared their
# limits: the library's budgets, and the guards inside the run functions
# that became declarations
REFUSAL_LINES = {
    "invol --n -1 --poly":
        "error: requires n >= 0",
    "asym --sweep 0":
        "asym --sweep: every n must be >= 1 and l in 1..10000",
    "asym --sweep 50 -3":
        "asym --sweep: every n must be >= 1 and l in 1..10000",
    "asym --sweep 50 --l 0":
        "asym --sweep: every n must be >= 1 and l in 1..10000",
    "restricted --n 200 --l 200 --cycle-index":
        "error: n = 200, l = 200 exceeds the cycle-index budget 200000",
    "restricted --n 1000 --l 3 --cycle-index --format json":
        "error: n = 1000, l = 3 exceeds the cycle-index budget 200000",
    "restricted --n 20 --l 100000 --cycle-index":
        "error: n = 20, l = 100000 holds 271400000 exponents, past the exponent budget 7000000",
    "restricted --n 5 --l 10000000 --determinant":
        "error: n = 5, l = 10000000 holds 190000000 exponents, past the exponent budget 7000000",
    "asym --n 10 --l 1000000000":
        "error: l = 1000000000 exceeds the saddle budget 10000",
    "asym --saddle --n 10 --l 1000000000":
        "error: l = 1000000000 exceeds the saddle budget 10000",
    "asym --sweep 10 --l 10001":
        "asym --sweep: every n must be >= 1 and l in 1..10000",
    "asym --beta 1 --l 1000000000":
        "error: l = 1000000000 exceeds the saddle budget 10000",
    "verify --suite tables --max 11":
        "verify: suite tables runs up to --max 10, not 11",
    "verify --suite efficiency --max 541":
        "verify: suite efficiency checks a fixed bound; --max is not supported",
    "verify --suite tree-5 --max 5":
        "verify: suite tree-5 checks a fixed bound; --max is not supported",
    "verify --suite f-sum --max 10":
        "verify: suite f-sum checks a fixed bound; --max is not supported",
    "verify --suite egf --max 30":
        "verify: suite egf checks a fixed bound; --max is not supported",
    "verify --suite oracle --max 10":
        "verify: suite oracle runs up to --max 9, not 10",
    "verify --suite cycle-index --max 21":
        "verify: suite cycle-index runs up to --max 20, not 21",
    "verify --suite toeplitz --max 13":
        "verify: suite toeplitz runs up to --max 12, not 13",
    "verify --suite cauchy --max -1":
        "verify: --max must be >= 0",
    "verify --suite asymptotic --max 3":
        "verify: suite asymptotic checks a fixed bound; --max is not supported",
    "verify --max 5":
        "verify: suite asymptotic checks a fixed bound; --max is not supported",
    "invol --table --max -1":
        "invol --table: --max must be >= 0",
    "sums --table --max -2":
        "sums --table: --max must be >= 0",
    "verify --suite nonsense":
        "unknown suite: nonsense",
    "invol --n 1000000000 --poly":
        "error: n = 1000000000 exceeds the polynomial budget 5000",
    "oracle --n 1000":
        "error: n = 1000 exceeds the census budget 50",
    "valuation --efficiency-scan --max 1000000000":
        "error: bound = 1000000000 exceeds the scan budget 30000",
    "restricted --n 13 --l 3 --determinant":
        "error: n=13 exceeds the verification bound 12",
    "valuation --tree --prime 5 --depth 100000000":
        "error: p^max_level = 5^100000000 exceeds the compute budget 1000000",
}


@pytest.mark.parametrize("argv", REFUSAL_LINES)
def test_every_earlier_refusal_is_byte_identical(argv, capsys):
    assert run(argv.split()) == EXIT_USAGE
    assert capsys.readouterr() == ("", REFUSAL_LINES[argv] + "\n")


@contextlib.contextmanager
def _bounded(seconds, more_mb=1024):
    """Fail, rather than hang or exhaust the host's memory, if the block runs
    past `seconds` or maps `more_mb` beyond what the process maps now."""
    def overrun(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * resource.getpagesize()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + (more_mb << 20), limits[1]))
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, limits)


# a small valid value of each option that an action requires or is chosen by
SMALL = {"n": "5", "l": "2", "cauchy": "5", "b_k": "3", "beta": "1", "sweep": "50",
         "nu2_involution": "7", "nu2_partial_sum": "7"}
# the int options that no limit bounds, and why: the tables stream their
# rows by design, so the walk does not run them; the others finish at once
STREAMED = {("invol", "table", "max"), ("sums", "table", "max")}
FINISH_AT_ONCE = {
    ("valuation", "nu2_involution", "nu2_involution"),  # closed forms in n mod 4
    ("valuation", "nu2_partial_sum", "nu2_partial_sum"),
    ("restricted", None, "l"),  # d(n, l) = d(n, n) for l >= n: an l past n adds no work
}


def _past_every_limit(command, dest):
    # asym --n is bounded by its digits, every other int option by its value
    return ("1" + "0" * (cli.SADDLE_DIGITS + 1) if (command, dest) == ("asym", "n")
            else "1000000000")


# (command, action, int option, suite): each int option of each action in
# cli.COMMANDS, the chosen one included, and verify --max once per suite
WALK = [(command, chosen, dest, suite)
        for command, actions in cli.COMMANDS.items() for chosen, action in actions.items()
        for dest in [chosen, *action.options]
        if dest is not None and cli.FLAGS[dest].get("type") is int
        and (command, chosen, dest) not in STREAMED
        for suite in (sorted(SUITES) if command == "verify" else [None])]


def _walk_argv(command, chosen, dest, suite):
    """The action `chosen` of `command`, its option `dest` past every limit and
    every other option small: its default, or SMALL where it needs a value."""
    action = cli.COMMANDS[command][chosen]
    values = {d: SMALL[d] for d, default in action.options.items() if default is cli.REQUIRED}
    if chosen is not None:
        values[chosen] = SMALL.get(chosen)
    if suite is not None:
        values["suite"] = suite
    values[dest] = _past_every_limit(command, dest)
    return [command] + [word for d, value in values.items()
                        for word in (cli._flag(d), value) if word is not None]


def test_the_walk_covers_every_action_and_each_exemption():
    walked = {(command, chosen, dest) for command, chosen, dest, _ in WALK}
    assert FINISH_AT_ONCE <= walked and not STREAMED & walked
    unwalked = {(command, chosen) for command, actions in cli.COMMANDS.items()
                for chosen in actions} - {(command, chosen) for command, chosen, _ in walked}
    # verify --list reads no int option
    assert unwalked == {("verify", "list")} | {(command, chosen) for command, chosen, _ in STREAMED}
    assert {suite for *_, suite in WALK if suite} == set(SUITES)


@pytest.mark.parametrize("command, chosen, dest, suite", WALK, ids=[
    "-".join(str(part) for part in case if part is not None) for case in WALK])
def test_every_int_option_past_every_limit_is_refused(command, chosen, dest, suite, capsys):
    argv = _walk_argv(command, chosen, dest, suite)
    with _bounded(seconds=2):
        code = run(argv)
    captured = capsys.readouterr()
    if (command, chosen, dest) in FINISH_AT_ONCE:
        assert code == EXIT_OK
        return
    assert code == EXIT_USAGE and captured.out == "" and captured.err.count("\n") == 1
    # a limit's refusal, not the dispatcher's rejection of a badly built argv
    assert not captured.err.endswith(("is not used here\n", "is required\n"))


def _refusal(command, chosen, **values):
    return cli.COMMANDS[command][chosen].refuse(argparse.Namespace(command=command, **values))


# (command, action, options at a limit): one more in the first option is past it
BOUNDARIES = [
    ("invol", "n", {"n": cli.COUNT_BUDGET, "poly": False}),
    ("sums", "n", {"n": cli.COUNT_BUDGET}),
    ("sums", "cauchy", {"cauchy": cli.CAUCHY_BUDGET}),
    ("sums", "b_k", {"b_k": cli.B_K_BUDGET}),
    # n min(l, n), and the largest count at l = 2 that it admits
    ("restricted", None, {"n": cli.RESTRICTED_BUDGET, "l": 1}),
    ("restricted", None, {"n": cli.RESTRICTED_BUDGET // 2, "l": 2}),
    # the largest n of the most digits, alone and at l = 1000, where digits times l binds
    ("asym", None, {"n": 10**cli.ESTIMATE_DIGITS - 1, "l": 2}),
    ("asym", "saddle", {"n": 10**cli.SADDLE_DIGITS - 1, "l": 2}),
    ("asym", None, {"n": 10 ** (cli.DIGITS_TIMES_L // 1000) - 1, "l": 1000}),
    ("asym", "saddle", {"n": 10 ** (cli.DIGITS_TIMES_L // 1000) - 1, "l": 1000}),
    # the sum of n l, and the documented --sweep 10000000 --l 3 inside it
    ("asym", "sweep", {"sweep": [cli.SWEEP_BUDGET], "l": 1}),
    ("asym", "sweep", {"sweep": [10**7], "l": 3}),
]


@pytest.mark.parametrize("command, chosen, at_limit", BOUNDARIES, ids=[
    f"{command}-{chosen or 'default'}-{i}" for i, (command, chosen, _) in enumerate(BOUNDARIES)])
def test_each_declared_limit_holds_at_its_bound(command, chosen, at_limit):
    dest, value = next(iter(at_limit.items()))
    past = {**at_limit, dest: [value[0] + 1] if dest == "sweep" else value + 1}
    assert _refusal(command, chosen, **at_limit) is None
    assert _refusal(command, chosen, **past).startswith(command)


@pytest.mark.parametrize("suite", sorted(name for name, cap in cli.MAX_BOUND.items() if cap))
def test_each_verify_cap_holds_at_its_bound(suite):
    cap = cli.MAX_BOUND[suite]
    assert _refusal("verify", None, suite=suite, max=cap) is None
    assert _refusal("verify", None, suite=suite, max=cap + 1) == (
        f"verify: suite {suite} runs up to --max {cap}, not {cap + 1}")


def test_every_suite_has_a_max_policy():
    assert cli.MAX_BOUND.keys() == SUITES.keys()
