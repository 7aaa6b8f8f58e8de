"""Reference kernel: a fixed piece of work that measures the host's speed.

    python3 perfbench/refkernel.py

The client runs it, as a fresh process, just before each worker and divides
the worker's task time by the kernel's (see run.py).  On a shared host the
other tenants slow every process down by up to half for stretches of a
minute or more; a ratio to work done moments earlier cancels most of that.

The kernel imports nothing from the library and must not change, or
results before and after the change stop being comparable.  It mixes the
two kinds of cost the workloads have: exact big-integer recurrences that
fill fresh memory (as the memo tables do), and an interpreter-bound loop
(as nu_int and the mpmath loops are).  Prints {"wall": s, "cpu": s}.
"""

import json
import time

N_MAX = 8000  # I(0..N_MAX) and their partial sums: about 70 MB
LOOP = 200_000


def kernel() -> int:
    vals = [1, 1]
    for n in range(2, N_MAX + 1):
        vals.append(vals[-1] + (n - 1) * vals[-2])
    sums, running = [], 0
    for v in vals:
        running += v
        sums.append(running)
    acc = 0
    for k in range(LOOP):
        acc = (acc * 31 + k) % 1_000_003
    return len(sums) + acc


if __name__ == "__main__":
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    print(json.dumps({"wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}))
