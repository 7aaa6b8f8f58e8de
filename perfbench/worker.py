"""Benchmark worker: a fresh process that runs one workload's tasks.

Usage (started by run.py, not by hand): worker.py WORKLOAD TRACE

The worker imports `involutions` from the checkout's src/ and prints
{"ready": true}; that is where set-up ends.  The client then sends one task
per line and waits for each reply (a closed loop with a single client), and
ends with {"op": "finish"}.  Each task is timed around the library call
alone; the reduction of its output to a digest happens after the clock
stops.  With TRACE = 1 the library's public functions are wrapped in spans
(tracing.py) before the first task and restored before the final reply.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

from common import OUT_DIR, SRC, decimal_mod, mod_p, seq_hash, term_hash

_PROTOCOL = sys.stdout


def _send(message: dict) -> None:
    _PROTOCOL.write(json.dumps(message) + "\n")
    _PROTOCOL.flush()


def _import_library():
    sys.path.insert(0, SRC)
    import involutions

    where = os.path.abspath(involutions.__file__)
    if not where.startswith(SRC + os.sep):
        raise ImportError(f"involutions imported from {where}, not from {SRC}")
    from involutions import asymptotic, cli, cyclecount, involution, partialsum, series, valuation

    return asymptotic, cli, cyclecount, involution, partialsum, series, valuation


asymptotic = cli = cyclecount = involution = partialsum = series = valuation = None


# --- operations: each returns the library's output, untouched ------------


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue()


def _invol_range(n_max):
    return [involution.involution_number(n) for n in range(n_max + 1)]


def _psum_range(n_max):
    return [partialsum.partial_sum(n) for n in range(n_max + 1)]


def _series_exp(l, order):
    return series.series_exp(series.cycle_egf_exponent(l, order))


def _series_mul(l, order):
    shorter = series.series_exp(series.cycle_egf_exponent(l - 1, order))
    top = series.series_exp(series.TruncatedEGF.x_power(l, order, Fraction(1, l)))
    return series.series_mul(shorter, top)


# --- digests: small, exactly comparable summaries of an output ------------


def _digest_lines(out):
    rc, text = out
    return {"rc": rc, "lines": text.splitlines()}


def _digest_bfile(out):
    rc, text = out
    rows = [line.split(" ") for line in text.splitlines()]
    ordered = all(len(row) == 2 and row[0] == str(n) for n, row in enumerate(rows))
    residues = (decimal_mod(row[-1]) for row in rows) if ordered else ()
    return {"rc": rc, "count": len(rows), "ordered": ordered, "hash": seq_hash(residues)}


def _digest_json(out):
    rc, text = out
    return {"rc": rc, "doc": json.loads(text) if rc == 0 else None}


def _digest_int(out):
    rc, text = out
    text = text.strip()
    return {"rc": rc, "value": decimal_mod(text) if text.isdigit() else None}


def _digest_sequence(values):
    return {"count": len(values), "hash": seq_hash(mod_p(v) for v in values)}


def _digest_egf(s):
    values = [s.egf_coefficient(n) for n in range(s.order + 1)]
    return {
        "integral": all(v.denominator == 1 for v in values),
        "hash": seq_hash(mod_p(v.numerator) for v in values),
    }


def _digest_poly(poly, n):
    return {"terms": len(poly.terms), "hash": term_hash(poly.terms.items(), n)}


def _digest_report(report):
    return [
        [lv.level, lv.n_terminal_at_expected, lv.n_terminal_other, lv.n_nonterminal, lv.holds]
        for lv in report.levels
    ]


def _digest_closed(est):
    return {
        "betas": {str(k): str(v) for k, v in sorted(est.betas.items())},
        "printed": float(est.log_printed),
        "stirling": float(est.log_stirling),
    }


OPS = {
    "cli_lines": (_cli, lambda out, *a: _digest_lines(out)),
    "cli_bfile": (_cli, lambda out, *a: _digest_bfile(out)),
    "cli_json": (_cli, lambda out, *a: _digest_json(out)),
    "cli_int": (_cli, lambda out, *a: _digest_int(out)),
    "invol_range": (_invol_range, lambda out, n: _digest_sequence(out)),
    "psum_range": (_psum_range, lambda out, n: _digest_sequence(out)),
    "restricted": (lambda n, l: cyclecount.restricted_count(n, l), lambda out, n, l: mod_p(out)),
    "series_exp": (_series_exp, lambda out, l, order: _digest_egf(out)),
    "series_mul": (_series_mul, lambda out, l, order: _digest_egf(out)),
    "cycle_index": (lambda n, l: cyclecount.cycle_index_poly(n, l), lambda out, n, l: _digest_poly(out, n)),
    "toeplitz": (lambda n, l: cyclecount.toeplitz_determinant(n, l), lambda out, n, l: _digest_poly(out, n)),
    "conjecture": (lambda p, depth: valuation.conjecture_check(p, depth), lambda out, p, depth: _digest_report(out)),
    "ineff": (lambda bound: valuation.inefficient_primes_upto(bound), lambda out, bound: out),
    "periodicity": (lambda p, r, n_max: valuation.periodicity_check(p, r, n_max), lambda out, *a: out),
    "nu3": (lambda n_max: valuation.nu3_partial_sum_pattern_check(n_max), lambda out, n_max: out),
    "estimate_saddle": (
        lambda n, l: asymptotic.estimate_saddle(n, l),
        lambda out, n, l: [float(out.r_plus), float(out.log_value)],
    ),
    "log_exact": (lambda n, l: asymptotic.log_exact_count(n, l), lambda out, n, l: float(out)),
    "solve_saddle": (
        lambda n, l: asymptotic.solve_saddle(n, l),
        lambda out, n, l: [float(out.r_plus), float(out.residual)],
    ),
    "fit_phi": (
        lambda l, ns: asymptotic.fit_phi_coefficients(l, ns),
        lambda out, l, ns: {str(k): v for k, v in out.items()},
    ),
    "closed_form": (
        lambda n, l, source: asymptotic.estimate_closed_form(n, l, source),
        lambda out, n, l, source: _digest_closed(out),
    ),
}


def run_task(op: str, args: list) -> dict:
    """Time one library call, then reduce its output to a digest."""
    run, digest = OPS[op]
    sink = io.StringIO()
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            out = run(*args)
    except Exception as exc:  # a task that raises is a failed task, not a dead worker
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"[:300],
                "wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    try:
        summary = digest(out, *args)
    except Exception as exc:
        return {"ok": False, "error": f"digest: {type(exc).__name__}: {exc}"[:300],
                "wall": wall, "cpu": cpu}
    return {"ok": True, "digest": summary, "wall": wall, "cpu": cpu}


def main(argv: list[str]) -> int:
    workload, traced = argv[0], argv[1] == "1"
    global asymptotic, cli, cyclecount, involution, partialsum, series, valuation
    try:
        (asymptotic, cli, cyclecount, involution, partialsum, series,
         valuation) = _import_library()
    except ImportError as exc:
        print(f"perfbench worker: cannot import the library: {exc}", file=sys.stderr)
        return 3
    _send({"ready": True})

    import tracing

    tracer = patched = None
    if traced:
        tracer = tracing.Tracer()
        patched = tracing.install(tracer)
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "finish":
            break
        if tracer is not None:
            tracer.task = message["id"]
        reply = run_task(message["op"], message["args"])
        reply["id"] = message["id"]
        _send(reply)
    else:
        return 4  # the client went away without finishing

    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracing.uninstall(patched)
        final["layers"] = tracer.metrics(message["layers"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    final["wrappers"] = tracing.find_wrappers()
    _send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
