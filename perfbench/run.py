"""Benchmark of the involutions library: seeded workloads, checked outputs,
end-to-end metrics from untraced runs and per-layer metrics from traced ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from its src/.
For --seconds, the client starts one fresh worker process after another
(worker.py), so the library's memo tables start empty each time and a
worker's peak RSS is its workload's alone.  Each worker is a closed loop
with one client: the next task is sent when the previous reply arrives.
Every reply is checked against references computed in workloads.py.

Just before each worker the client runs the reference kernel
(refkernel.py), a fixed piece of work, as a fresh process of its own.

--trace 0 reports the end-to-end metrics, each the median over the run's
workers:
  wall_ref     wall time of the workload's tasks inside the worker, divided
               by the wall time of the reference kernel run just before it
  cpu_ref      user + system CPU time of the worker over the same interval,
               divided by the reference kernel's CPU time
  setup_s      interpreter start and `import involutions`, up to the first
               task (the median over at least MIN_SETUPS starts)
  peak_rss_mb  the worker's ru_maxrss
wall_ref and cpu_ref are in units of the reference kernel, not seconds,
because on a shared host the other tenants slow every process by up to half
for a minute or more at a time.  Over ten 25-second runs of one workload on
a shared 2-vCPU host, wall time in seconds spread up to 0.29 (interquartile
range over median); its ratio to the reference kernel spread at most 0.08.
The times in seconds (median, best, a high percentile and the worker count)
are printed on the lines above the result.
--trace 1 alternates untraced and traced workers and reports the per-layer
metrics listed in layer_map.json (medians over traced workers), plus
trace.overhead_s, the traced minus the untraced median wall time in seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count regular tasks;
known-defect probes (see workloads.py) are reported on the lines above it.
With --workload all, every workload runs untraced and then traced, and a
table of all metrics, with failed_frac counting the probes, is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import ROOT, SRC, WORKLOADS
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFKERNEL = os.path.join(HERE, "refkernel.py")
RUN_LIMIT_S = 150  # every worker is stopped by then, whatever --seconds says
MIN_SETUPS = 11

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
SECONDS = ("wall_s", "cpu_s")  # printed for people, not in the result
OVERHEAD = "trace.overhead_s"  # the one per-layer metric the client, not a worker, computes


def load_layer_map() -> list[dict]:
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        return json.load(fh)["per_layer"]


def worker_layer_names() -> list[str]:
    return [m["name"] for m in load_layer_map() if m["name"] != OVERHEAD]


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process, spoken to in JSON lines over its stdin and stdout."""

    def __init__(self, workload: str, traced: bool, deadline: float):
        self.deadline = deadline
        self._buffer = b""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, workload, "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            self._read()
        except WorkerError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def request(self, message: dict) -> dict:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except OSError as exc:
            raise WorkerError(f"worker stopped reading: {exc}") from exc
        return self._read()

    def _read(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerError("worker timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerError(f"worker exited with code {self.proc.wait()}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise WorkerError(f"unreadable worker reply {line[:80]!r}") from exc

    def close(self) -> int:
        """End the worker (killing it if it does not exit) and wait for it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            return self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()


@dataclass
class Iteration:
    """One worker's pass over the workload."""

    traced: bool
    attempted: int
    setup_s: float | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 1.0
    ref_cpu_s: float = 1.0
    peak_rss_mb: float | None = None
    failed: int = 0
    probes_failed: int = 0
    layers: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def wall_ref(self) -> float:
        return self.wall_s / self.ref_wall_s

    @property
    def cpu_ref(self) -> float:
        return self.cpu_s / self.ref_cpu_s


def _describe(task: dict) -> str:
    return f"{task['op']}{tuple(task['args'])}"[:100]


def run_reference(deadline: float) -> tuple[float, float]:
    """(wall, cpu) seconds of one run of the reference kernel."""
    try:
        done = subprocess.run([sys.executable, REFKERNEL], capture_output=True, check=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        times = json.loads(done.stdout)
        return times["wall"], times["cpu"]
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        raise WorkerError(f"reference kernel failed: {exc}") from exc


def run_iteration(workload, tasks, probes, expected, traced, deadline, layer_names) -> Iteration:
    it = Iteration(traced, attempted=len(tasks))
    try:
        it.ref_wall_s, it.ref_cpu_s = run_reference(deadline)
        worker = Worker(workload, traced, deadline)
    except WorkerError as exc:
        it.failed = len(tasks)
        it.problems.append(f"worker did not start: {exc}")
        return it
    it.setup_s = worker.setup_s
    done = 0
    try:
        for index, task in enumerate(tasks + probes):
            reply = worker.request({"id": index, **task})
            problem = reply["error"] if not reply["ok"] else workloads.check(
                task, reply["digest"], expected[index])
            if index < len(tasks):
                done += 1
                it.wall_s += reply["wall"]
                it.cpu_s += reply["cpu"]
                it.failed += problem is not None
            else:
                it.probes_failed += problem is not None
            if problem is not None:
                kind = "task" if index < len(tasks) else "known-defect probe"
                it.problems.append(f"{kind} {_describe(task)}: {problem}")
        final = worker.request({"op": "finish", "layers": layer_names})
        it.peak_rss_mb = final["peak_rss_kb"] / 1024
        it.layers = final.get("layers")
        if final["wrappers"]:
            it.failed = len(tasks)
            it.problems.append(f"tracing wrappers survived: {final['wrappers']}")
    except WorkerError as exc:
        it.failed += len(tasks) - done
        it.peak_rss_mb = None
        it.problems.append(str(exc))
    finally:
        code = worker.close()
    if code != 0 and it.peak_rss_mb is not None:
        it.failed, it.peak_rss_mb = len(tasks), None
        it.problems.append(f"worker exited with code {code}")
    return it


def setup_only(workload: str, deadline: float) -> float | None:
    try:
        worker = Worker(workload, False, deadline)
    except WorkerError:
        return None
    worker.close()
    return worker.setup_s


@dataclass
class RunResult:
    workload: str
    iterations: list[Iteration]
    setups: list[float]
    probes: int

    def complete(self, traced: bool) -> list[Iteration]:
        return [it for it in self.iterations if it.traced == traced and it.peak_rss_mb is not None]

    def samples(self, metric: str) -> list[float]:
        if metric == "setup_s":
            return self.setups
        return [getattr(it, metric) for it in self.complete(False)]

    @property
    def attempted(self) -> int:
        return sum(it.attempted for it in self.iterations)

    @property
    def failed(self) -> int:
        return sum(it.failed for it in self.iterations)

    @property
    def probes_attempted(self) -> int:
        return self.probes * sum(it.peak_rss_mb is not None for it in self.iterations)

    @property
    def probes_failed(self) -> int:
        return sum(it.probes_failed for it in self.iterations)

    def layer_values(self) -> dict[str, float]:
        traced = self.complete(True)
        out = {name: statistics.median(it.layers[name] for it in traced) for name in traced[0].layers}
        out[OVERHEAD] = (statistics.median(it.wall_s for it in traced)
                         - statistics.median(self.samples("wall_s")))
        return out

    def value(self, metric: str) -> float:
        """The reported value of an end-to-end metric: the median over the run."""
        return statistics.median(self.samples(metric))

    def require_complete(self, trace: bool) -> None:
        """Exit with the problems seen when no worker got through the workload."""
        if not self.complete(False) or (trace and not self.complete(True)):
            problems = sorted({p for it in self.iterations for p in it.problems})
            raise SystemExit("\n  ".join([f"perfbench: no worker of {self.workload} completed"]
                                          + problems))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> RunResult:
    tasks, probes = workloads.make_tasks(workload, seed)
    refs = workloads.References()
    expected = [refs.expected(task) for task in tasks + probes]
    layer_names = worker_layer_names()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    iterations: list[Iteration] = []
    while time.perf_counter() < deadline - 5:
        kinds = {it.traced for it in iterations if it.peak_rss_mb is not None}
        enough = kinds >= ({False, True} if trace else {False})
        if enough and time.perf_counter() - start >= seconds:
            break
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(workload, tasks, probes, expected, traced, deadline, layer_names))
        if iterations[-1].setup_s is None:
            break  # a worker that cannot start will not start on a retry
    setups = [it.setup_s for it in iterations if it.setup_s is not None]
    while len(setups) < MIN_SETUPS and time.perf_counter() < deadline - 5:
        setup = setup_only(workload, deadline)
        if setup is None:
            break
        setups.append(setup)
    return RunResult(workload, iterations, setups, len(probes))


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it; None with ten samples or fewer."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    return 100 * (len(values) - 10) / len(values), ordered[len(values) - 11]


def _summary_line(name: str, values: list[float], unit: str) -> str:
    tail = high_percentile(values)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail else "no percentile (<= 10 runs)"
    best = f"best {min(values):.6g} {unit}, " if name in SECONDS else ""
    return (f"{name}: {best}median {statistics.median(values):.6g} {unit}, {tail_text}, "
            f"{len(values)} runs")


def report(result: RunResult, trace: bool, layer_map: list[dict]) -> dict:
    """Print the human-readable lines for one run and return its metrics."""
    print(f"workload {result.workload}: {len(result.iterations)} workers, "
          f"{result.attempted} tasks, {result.failed} failed; known-defect probes: "
          f"{result.probes_failed} of {result.probes_attempted} failed")
    for problem in sorted({p for it in result.iterations for p in it.problems}):
        print(f"  {problem}")
    metrics = {}
    for name in SECONDS + ("ref_wall_s",):
        print("  " + _summary_line(name, result.samples(name), "s"))
    for name, unit in END_TO_END.items():
        values = result.samples(name)
        print("  " + _summary_line(name, values, unit))
        if not trace:
            metrics[name] = {"value": result.value(name), "unit": unit}
    if trace:
        values = result.layer_values()
        for m in layer_map:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']}: {values[m['name']]:.6g} {m['unit']}")
    return metrics


def run_all(seed: int, seconds: int) -> None:
    layer_map = load_layer_map()
    results, metrics, correct = {}, {}, True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, seconds, trace)
            result.require_complete(trace)
            for name, value in report(result, trace, layer_map).items():
                metrics[f"{workload}.{name}"] = value
            results[(workload, trace)] = result
            correct = correct and result.failed == 0
    print("\nworkload         wall_ref  cpu_ref   setup_s  peak_rss_mb   wall_s  failed_frac "
          "(with probes)")
    for workload in WORKLOADS:
        result = results[(workload, False)]
        row = [result.value(m) for m in [*END_TO_END, "wall_s"]]
        frac = (result.failed + result.probes_failed) / (result.attempted + result.probes_attempted)
        metrics[f"{workload}.failed_frac"] = {"value": frac, "unit": "ratio"}
        print(f"{workload:<16} {row[0]:8.2f} {row[1]:8.2f} {row[2]:7.3f} s {row[3]:9.1f} MB "
              f"{row[4]:6.3f} s  {frac:.4f}")
    for workload in WORKLOADS:
        layers = {k[len(workload) + 1:]: v["value"] for k, v in metrics.items()
                  if k.startswith(workload + ".")}
        top_self = max((k for k in layers if k.endswith(".self_s")), key=layers.get)
        top_rss = max((k for k in layers if k.count(".") == 1 and k.endswith(".rss_rise_mb")),
                      key=layers.get)
        print(f"{workload}: largest self time {top_self} = {layers[top_self]:.3f} s; "
              f"largest rss rise {top_rss} = {layers[top_rss]:.1f} MB; "
              f"under valuation.build_valuation_tree "
              f"{layers['valuation.build_valuation_tree.rss_rise_mb']:.1f} MB")
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "involutions", "__init__.py")):
        print(f"perfbench: no library source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result.require_complete(bool(args.trace))
    metrics = report(result, bool(args.trace), load_layer_map())
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
