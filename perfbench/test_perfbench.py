"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import MODULES, ROOT, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_tasks(workload, 7) == workloads.make_tasks(workload, 7)
    if workload != "verify":  # verify runs the fixed default suites on purpose
        assert workloads.make_tasks(workload, 7) != workloads.make_tasks(workload, 8)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],   # overlaps a and c: root's children cover [1, 10] once
        ["c", 5.5, 12.0, 0, 0],  # runs past its parent: clipped at 10
        ["d", 2.0, 3.0, 1, 0],
        ["e", 7.0, 8.0, 3, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0, 3.0, 5.5, 1.0, 1.0])


def _bindings():
    import involutions
    from involutions import cli

    modules = [involutions] + [sys.modules[f"involutions.{m}"] for m in MODULES]
    return ({(m.__name__, k): v for m in modules for k, v in vars(m).items()},
            dict(cli.SUITES))


def test_uninstall_restores_every_binding():
    from involutions import cli, valuation

    before = _bindings()
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert "involutions.valuation.nu_int" in tracing.find_wrappers()
        assert "involutions.cli.SUITES[tables]" in tracing.find_wrappers()
        assert valuation.nu2_partial_sum(7) == 5  # a(7) = 352 = 2^5 * 11
        assert cli.run(["valuation", "--nu2-partial-sum", "7"]) == 0
    finally:
        tracing.uninstall(patched)
    names = [span[0] for span in tracer.spans]
    assert names.count("exactnum.nu_int") == 2 and "cli.run" in names
    assert tracing.find_wrappers() == []
    after = _bindings()
    assert after[1] == before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][key] is value for key, value in before[0].items())


def _talk_to_worker(traced, tasks):
    worker = run.Worker("verify", traced, time.perf_counter() + 60)
    try:
        replies = [worker.request({"id": i, **task}) for i, task in enumerate(tasks)]
        final = worker.request({"op": "finish", "layers": run.worker_layer_names()})
    finally:
        assert worker.close() == 0
    return replies, final


def test_no_wrapper_survives_into_an_untraced_run():
    task = {"op": "cli_lines", "args": ["valuation", "--nu2-involution", "7"]}
    replies, final = _talk_to_worker(True, [task])
    assert final["wrappers"] == [] and final["layers"]["exactnum.nu_int.calls"] == 0
    replies, final = _talk_to_worker(False, [task])
    assert final["wrappers"] == [] and "layers" not in final
    assert replies[0]["digest"] == {"rc": 0, "lines": ["3"]}


SMALL_TASKS = [
    ("invol_range", 300), ("psum_range", 300), ("restricted", 200, 4),
    ("series_exp", 3, 20), ("series_mul", 4, 20), ("cycle_index", 9, 4), ("toeplitz", 7, 3),
    ("conjecture", 13, 2), ("ineff", 200), ("periodicity", 2, 2, 50), ("periodicity", 5, 2, 50),
    ("nu3", 200), ("estimate_saddle", 500, 3), ("log_exact", 300, 4), ("solve_saddle", 10**20, 5),
    ("fit_phi", 2, [10**4, 2 * 10**4, 5 * 10**4, 10**5, 2 * 10**5, 5 * 10**5, 10**6]),
    ("closed_form", 5000, 4, "printed"), ("closed_form", 5000, 4, "extracted"),
    ("cli_bfile", "sums", "--table", "--max", "60", "--format", "bfile"),
    ("cli_int", "invol", "--n", "100"),
    ("cli_json", "valuation", "--tree", "--prime", "13", "--depth", "2"),
]


def test_references_agree_with_the_library_on_small_inputs():
    tasks = [{"op": op, "args": list(args)} for op, *args in SMALL_TASKS]
    replies, _ = _talk_to_worker(False, tasks)
    refs = workloads.References()
    for task, reply in zip(tasks, replies):
        assert reply["ok"], (task, reply)
        assert workloads.check(task, reply["digest"], refs.expected(task)) is None, task


def test_references_catch_a_wrong_output():
    task = {"op": "restricted", "args": [200, 4]}
    expected = workloads.References().expected(task)
    assert workloads.check(task, (expected + 1) % workloads.P, expected) is not None


def test_times_are_medians_of_ratios_to_the_reference_kernel():
    iterations = [run.Iteration(False, 1, setup_s=s, wall_s=w, cpu_s=w / 2, ref_wall_s=r,
                                ref_cpu_s=r, peak_rss_mb=m)
                  for s, w, r, m in ((0.3, 2.0, 0.1, 10.0), (0.1, 3.0, 0.1, 30.0),
                                     (0.2, 6.0, 0.4, 20.0))]
    iterations.append(run.Iteration(True, 1, wall_s=0.5, peak_rss_mb=5.0))  # traced: not counted
    result = run.RunResult("exact-tables", iterations, [0.3, 0.1, 0.2], 0)
    assert result.value("wall_ref") == 20.0 and result.value("cpu_ref") == 10.0
    assert result.value("setup_s") == 0.2 and result.value("peak_rss_mb") == 20.0
    assert result.value("wall_s") == 3.0
    assert 0.03 < run.run_reference(time.perf_counter() + 60)[0] < 30


def test_benchmark_json_lists_the_layer_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer_map = run.load_layer_map()
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in layer_map]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for m in layer_map:
        assert set(m["on"]) | set(m["bypass"]) <= set(WORKLOADS), m["name"]


def test_mod_p_is_the_remainder():
    from common import P, mod_p

    for value in (0, 1, P - 1, P, P + 1, 2 * P, 3**5000, 3**5000 * P, 10**40 - 1):
        assert mod_p(value) == value % P
