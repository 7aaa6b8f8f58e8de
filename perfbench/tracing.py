"""Spans at the library's public function boundaries, for the traced run.

`install` wraps each function in TRACED and rebinds every name that refers
to it: the defining module, each module that imported it by name (for
example `valuation.involution_number` or `cli.nu_int`) and the package
namespace.  It also wraps the 18 `verify` suites in `cli.SUITES`.
`uninstall` puts every original binding back.  Spans stay in memory as
[name, start, end, parent index, task id] and are written out once, when
the worker finishes.

Per-layer numbers derived from the spans and counters:
  <fn>.calls, <fn>.failures     calls made / calls that raised (cli.run: rc != 0)
  <fn>.self_s                   span time minus the time its child spans cover
  cli.verify.<suite>.s          inclusive time of one verify suite
  <fn>.max_n, <fn>.hit_ratio    largest n asked for; share of calls whose n
                                did not exceed the largest n seen before
  <fn>.bareiss_calls            toeplitz_determinant calls with n > 6
  <fn>.vertices                 vertices in the trees build_valuation_tree returned
  <module>.rss_rise_mb          rise of ru_maxrss while the innermost open
                                span belonged to that module
  <fn>.rss_rise_mb              rise of ru_maxrss while a span of <fn> was open
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
import types
from collections import defaultdict

from common import MODULES, VERIFY_SUITES

TRACED = {
    "exactnum": ("nu_int", "nu_rat"),
    "involution": ("involution_number", "involution_number_by_sum", "involution_number_bisplit"),
    "partialsum": ("partial_sum", "partial_sum_by_binomial"),
    "cyclecount": ("restricted_count", "cycle_index_poly", "toeplitz_determinant"),
    "series": ("series_exp", "series_mul"),
    "valuation": ("build_valuation_tree", "involution_mod_sequence", "conjecture_check"),
    "asymptotic": (
        "solve_saddle", "log_factorial", "estimate_saddle", "log_exact_count",
        "fit_phi_coefficients",
    ),
    "oracle": ("enumerate_census", "partition_census"),
    "cli": ("run",),
}

MARK = "_perfbench_original"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _first_arg(args, kwargs):
    return args[0] if args else kwargs["n"]


def _memo_read(tracer, name, args, kwargs):
    n = _first_arg(args, kwargs)
    if n <= tracer.max_n.get(name, -1):
        tracer.counts[name + ".hits"] += 1
    else:
        tracer.max_n[name] = n


def _toeplitz_path(tracer, name, args, kwargs):
    if _first_arg(args, kwargs) > 6:
        tracer.counts[name + ".bareiss_calls"] += 1


def _tree_size(tracer, name, tree):
    tracer.counts[name + ".vertices"] += sum(len(level) for level in tree.levels)


def _cli_exit(tracer, name, rc):
    if rc != 0:
        tracer.counts[name + ".failures"] += 1


# name -> (hook before the call, hook on the returned value)
HOOKS = {
    "involution.involution_number": (_memo_read, None),
    "partialsum.partial_sum": (_memo_read, None),
    "cyclecount.toeplitz_determinant": (_toeplitz_path, None),
    "valuation.build_valuation_tree": (None, _tree_size),
    "cli.run": (None, _cli_exit),
}


class Tracer:
    """Spans and counters recorded by the wrappers of one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.max_n: dict[str, int] = {}
        self.rss_by_module: dict[str, int] = defaultdict(int)
        self.rss_by_name: dict[str, int] = defaultdict(int)
        self._rss = _maxrss_kb()

    def _boundary(self) -> None:
        """Charge any ru_maxrss rise since the last span boundary to the
        innermost open span's module and to every open span's name."""
        rss = _maxrss_kb()
        if rss <= self._rss:
            return
        rise, self._rss = rss - self._rss, rss
        if not self.stack:
            self.rss_by_module["bench"] += rise
            return
        self.rss_by_module[self.spans[self.stack[-1]][0].split(".", 1)[0]] += rise
        for name in {self.spans[i][0] for i in self.stack}:
            self.rss_by_name[name] += rise

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        boundary, clock = self._boundary, time.perf_counter

        def traced(*args, **kwargs):
            boundary()
            counts[name + ".calls"] += 1
            if before is not None:
                before(self, name, args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.task])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failures"] += 1
                raise
            finally:
                spans[index][2] = clock()
                boundary()
                stack.pop()
            if after is not None:
                after(self, name, result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, MARK, fn)
        return traced

    def metrics(self, names) -> dict[str, float]:
        """Value of each requested per-layer metric (0 for an unused layer)."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            self_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
        out = {}
        for metric in names:
            base, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif stat == "s":
                out[metric] = total_s.get(base, 0.0)
            elif stat in ("calls", "failures", "bareiss_calls", "vertices"):
                out[metric] = self.counts.get(f"{base}.{stat}", 0)
            elif stat == "max_n":
                out[metric] = self.max_n.get(base, 0)
            elif stat == "hit_ratio":
                calls = self.counts.get(base + ".calls", 0)
                out[metric] = self.counts.get(base + ".hits", 0) / calls if calls else 0.0
            elif stat == "rss_rise_mb":
                table = self.rss_by_module if base in MODULES else self.rss_by_name
                out[metric] = table.get(base, 0) / 1024
            else:
                raise ValueError(f"unknown per-layer metric {metric}")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Spans are [name, start, end, parent index, ...]."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _library_modules():
    import involutions

    return [involutions] + [importlib.import_module(f"involutions.{m}") for m in MODULES]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced functions everywhere they are bound; return the
    (owner, key, original) triples that `uninstall` needs."""
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"involutions.{module_name}")
        for fname in names:
            original = getattr(module, fname)
            name = f"{module_name}.{fname}"
            wrappers[id(original)] = (original, tracer.wrap(name, original, *HOOKS.get(name, (None, None))))
    patched = []
    for module in _library_modules():
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    suites = importlib.import_module("involutions.cli").SUITES
    for suite in VERIFY_SUITES:
        if suite in suites:
            fn, bound = suites[suite]
            suites[suite] = (tracer.wrap(f"cli.verify.{suite}", fn), bound)
            patched.append((suites, suite, (fn, bound)))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, key, original in reversed(patched):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def find_wrappers() -> list[str]:
    """Library bindings (module attributes or verify suites) that are still
    benchmark wrappers; empty when tracing left nothing behind."""
    found = []
    for module in _library_modules():
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
    suites = importlib.import_module("involutions.cli").SUITES
    for suite, (fn, _) in suites.items():
        if hasattr(fn, MARK):
            found.append(f"involutions.cli.SUITES[{suite}]")
    return found
