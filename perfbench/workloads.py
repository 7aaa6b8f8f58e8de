"""Seeded task lists for the four workloads, and the references that check them.

`make_tasks(workload, seed)` returns (tasks, probes).  Each is a list of
{"op": ..., "args": [...]} for worker.OPS; the same seed always gives the
same lists.  Heavy parameters are a fixed grid that the seed moves by a
fraction of a percent, and the seed varies only the cheap tasks freely, so
the total work, and with it the timings and peak memory, stays the same
from seed to seed while the inputs differ.

Probes are known-defect tasks.  They run after the timed tasks, outside
wall_s and cpu_s, and are tallied apart from the regular tasks: today they
fail because of open defects in the library (Python's 4300-digit str(int)
limit in b-file export; the absolute tolerance of `solve_saddle` above
n ~ 1e29).  They pass once those defects are fixed.

`References` computes, with this file's own code and never with the
library, what every task must return: residues mod P from the recurrences
for I, a and d(n, l); the cycle-type formula n!/prod(t^e_t e_t!); valuation
trees from I mod p^L; and floating-point saddle quantities from lgamma and a
double-precision Newton solve.  `check` compares a worker digest with them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from common import P, VERIFY_SUITES, seq_hash, term_hash

# Largest n whose I(n) and a(n) stay below Python's 4300-digit str(int) limit
# with room to spare (I(2800) has 4241 digits).
BFILE_SAFE_MAX = 2700
TREE_BUDGET = 16000  # largest p^L of a valuation tree; p = 5, L = 6 reaches 15625


def _task(op, *args):
    return {"op": op, "args": list(args)}


def _jitter(rng, value, share):
    return round(value * (1 + rng.uniform(-share, share)))


def _clip(value, lo, hi):
    return max(lo, min(hi, value))


def _verify(rng):
    return [_task("cli_lines", "verify")], []


def _exact_tables(rng):
    n_top = 18000 + rng.randint(0, 40)
    tasks = [_task("invol_range", n_top), _task("psum_range", n_top)]
    for l, n in zip(range(3, 9), (2000, 2400, 2800, 3200, 3600, 4000)):
        tasks.append(_task("restricted", n + rng.randint(-10, 10), l))
    for l in range(2, 6):
        tasks.append(_task("series_exp", l, 120 + rng.randint(-1, 1)))
    for l in (3, 4):
        tasks.append(_task("series_mul", l, 120 + rng.randint(-1, 1)))
    for _ in range(4):
        tasks.append(_task("cycle_index", rng.randint(20, 30), rng.randint(3, 8)))
    # sizes up to 6 take the cofactor path, 7 and 8 the Bareiss path
    for n in rng.sample(range(3, 7), 3) + [7, 8]:
        tasks.append(_task("toeplitz", n, rng.randint(2, n)))
    for command in ("invol", "sums"):
        top = BFILE_SAFE_MAX - rng.randint(0, 20)
        tasks.append(_task("cli_bfile", command, "--table", "--max", str(top), "--format", "bfile"))
    probes = [
        _task("cli_bfile", "invol", "--table", "--max", "3000", "--format", "bfile"),
        _task("cli_int", "invol", "--n", str(rng.randint(2900, 3100))),
    ]
    return tasks, probes


def _valuation_trees(rng):
    tasks = [_task("ineff", rng.randint(300, 1000))]
    # The deepest tree reaches the largest certification index (about
    # 3 * 5^6), so it fixes the workload's peak memory for every seed.  It
    # goes first: the seed-drawn trees after it read I(n) below that index,
    # so which primes the seed draws hardly changes the total work.
    tasks.append(_task("conjecture", 5, 6))
    tasks.append(_task("cli_json", "valuation", "--tree", "--prime", "5", "--depth", "6"))
    others = [p for p in inefficient_primes(100) if p != 5]
    for p in rng.sample(others, 3):
        depth = tree_depth(p)
        tasks.append(_task("conjecture", p, depth))
        tasks.append(_task("cli_json", "valuation", "--tree", "--prime", str(p), "--depth", str(depth)))
    for _ in range(3):
        tasks.append(_task("periodicity", rng.choice((3, 5, 7, 11, 13)), rng.randint(1, 3),
                           rng.randint(200, 2000)))
    tasks.append(_task("nu3", rng.randint(1000, 3000)))
    return tasks, []


def _saddle_sweep(rng):
    tasks = []
    ls = [2, 3, 4, 5, 2, 3, 4, 5]
    rng.shuffle(ls)
    for i, l in enumerate(ls):  # log grid over [1e3, 1e5], jittered by 0.2%
        n = _clip(_jitter(rng, 10 ** (3 + 2 * i / 7), 0.002), 1000, 100000)
        tasks.append(_task("estimate_saddle", n, l))
    ls = [2, 3, 4, 5, 2, 3]
    rng.shuffle(ls)
    for i, l in enumerate(ls):  # log grid over [500, 5000]
        n = _clip(_jitter(rng, 10 ** (2.7 + i * (math.log10(5000) - 2.7) / 5), 0.02), 500, 5000)
        tasks.append(_task("log_exact", n, l))
    for _ in range(120):
        tasks.append(_task("solve_saddle", int(10 ** rng.uniform(2, 26)), rng.randint(2, 5)))
    for l in (2, 3):
        count = l + 5  # one sample per basis power eta^-4 .. eta^l
        ns = sorted(
            _clip(round(10 ** (4 + 2 * (i + rng.uniform(-0.3, 0.3)) / (count - 1))), 10**4, 10**6)
            for i in range(count)
        )
        tasks.append(_task("fit_phi", l, ns))
    for l in range(2, 6):
        for source in ("printed", "extracted"):
            tasks.append(_task("closed_form", int(10 ** rng.uniform(3, 6)), l, source))
    probes = [_task("solve_saddle", 10**40, 2)]
    for _ in range(2):
        probes.append(_task("solve_saddle", int(10 ** rng.uniform(30, 45)), rng.randint(2, 5)))
    return tasks, probes


GENERATORS = {
    "verify": _verify,
    "exact-tables": _exact_tables,
    "valuation-trees": _valuation_trees,
    "saddle-sweep": _saddle_sweep,
}


def make_tasks(workload: str, seed: int):
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# --- independent references ---------------------------------------------


def involution_mod(modulus: int, n_max: int) -> list[int]:
    vals = [1 % modulus, 1 % modulus]
    for n in range(2, n_max + 1):
        vals.append((vals[n - 1] + (n - 1) * vals[n - 2]) % modulus)
    return vals[: n_max + 1]


def restricted_values(l: int, n_max: int, modulus: int | None = None) -> list[int]:
    """d(0..n_max, l), exact or mod `modulus`: the cycle through the last
    symbol has length j, with C(m-1, j-1) (j-1)! ways to fill it."""
    d = [1]
    for m in range(1, n_max + 1):
        total, ways = 0, 1
        for j in range(1, min(l, m) + 1):
            total += ways * d[m - j]
            ways *= m - j
        d.append(total % modulus if modulus else total)
    return d


def primes_upto(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def inefficient_primes(bound: int) -> list[int]:
    """Odd primes p that divide some I(j) with j < p."""
    return [p for p in primes_upto(bound) if p > 2 and 0 in involution_mod(p, p - 1)]


def tree_depth(p: int) -> int:
    depth = 1
    while p ** (depth + 1) <= TREE_BUDGET:
        depth += 1
    return depth


def _nu(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def valuation_tree(p: int, depth: int) -> list[list[tuple]]:
    """Levels of (residue, level, valuation or None for non-terminal)."""
    top = p**depth
    residues = involution_mod(top, top - 1)
    levels, frontier = [], [0]
    for level in range(1, depth + 1):
        modulus, step = p**level, p ** (level - 1)
        vertices = []
        for base in frontier:
            for k in range(p):
                c = base + k * step
                value = residues[c] % modulus
                vertices.append((c, level, _nu(value, p) if value else None))
        vertices.sort()
        levels.append(vertices)
        frontier = [c for c, _, v in vertices if v is None]
        if not frontier:
            break
    return levels


def cycle_index_terms(n: int, l: int) -> dict[tuple, int]:
    """{(e_1..e_l): n!/prod(t^e_t e_t!)} over cycle types with parts <= l."""
    terms = {}

    def parts(remaining, cap, exps):
        if remaining == 0:
            denom = 1
            for t, e in enumerate(exps, start=1):
                denom *= t**e * math.factorial(e)
            terms[tuple(exps)] = math.factorial(n) // denom
            return
        for t in range(min(cap, remaining), 0, -1):
            exps[t - 1] += 1
            parts(remaining - t, t, exps)
            exps[t - 1] -= 1

    parts(n, l, [0] * l)
    return terms


def nu3_pattern(n: int) -> int:
    r = n % 9
    if r == 4:
        return 2
    if r == 6:
        return 1
    if r == 8:
        m = n // 9
        return 2 if m % 3 != 2 else 2 + _nu(m + 1, 3)
    return 0


def saddle_root(n: int, l: int) -> float:
    """Positive root of r + ... + r^l = n by Newton's method in doubles."""
    target = float(n)
    r = target ** (1 / l)
    for _ in range(200):
        f = sum(r**j for j in range(1, l + 1)) - target
        step = f / sum(j * r ** (j - 1) for j in range(1, l + 1))
        r -= step
        if abs(step) <= 1e-16 * r:
            break
    return r


def log_saddle_estimate(n: int, l: int, r: float) -> float:
    return (math.lgamma(n + 1) - 0.5 * math.log(2 * math.pi * l * n)
            + sum(r**j / j for j in range(1, l + 1)) - n * math.log(r))


def beta_extracted(l: int, k: int) -> Fraction:
    """l/(k(l-k)) [x^(l-k)] (1 + x + ... + x^(l-1))^((l-k)/l), the power
    taken with J. C. P. Miller's recurrence b_m = sum ((e+1)i - m) a_i b_(m-i) / m."""
    e = Fraction(l - k, l)
    b = [Fraction(1)]
    for m in range(1, l - k + 1):
        b.append(sum(((e + 1) * i - m) * b[m - i] for i in range(1, min(m, l - 1) + 1)) / m)
    return Fraction(l, k * (l - k)) * b[l - k]


def beta_printed(l: int, k: int) -> Fraction:
    """The closed forms as printed: beta_l = 1/l, beta_0 = -(1/l) sum 1/j,
    and the product formula for 0 < k < l."""
    if k == l:
        return Fraction(1, l)
    if k == 0:
        return -Fraction(1, l) * sum(Fraction(1, j) for j in range(2, l + 1))
    out = Fraction(1, k * math.factorial(l - k))
    for m in range(1, l):
        out *= Fraction(l - k, l) + m
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class References:
    """Expected digests, computed once per run and cached across workers."""

    def __init__(self):
        self._invol: list[int] = []
        self._restricted: dict[int, list[int]] = {}

    def involution(self, n_max: int) -> list[int]:
        if len(self._invol) <= n_max:
            self._invol = involution_mod(P, n_max)
        return self._invol[: n_max + 1]

    def restricted(self, l: int, n_max: int) -> list[int]:
        if len(self._restricted.get(l, ())) <= n_max:
            self._restricted[l] = restricted_values(l, n_max, P)
        return self._restricted[l][: n_max + 1]

    def partial(self, n_max: int) -> list[int]:
        out, running = [], 0
        for v in self.involution(n_max):
            running = (running + v) % P
            out.append(running)
        return out

    def _cli(self, argv):
        """Expected output of the CLI commands the workloads run."""
        if argv == ["verify"]:
            return {"rc": 0, "suites": VERIFY_SUITES}
        command = argv[0]
        if command in ("invol", "sums") and "--table" in argv:
            top = int(argv[argv.index("--max") + 1])
            values = self.involution(top) if command == "invol" else self.partial(top)
            return {"rc": 0, "count": top + 1, "ordered": True, "hash": seq_hash(values)}
        if command == "invol":
            return {"rc": 0, "value": self.involution(int(argv[2]))[-1]}
        if command == "valuation":
            p, depth = int(argv[3]), int(argv[5])
            doc = {
                "schema": "involutions/valuation-tree/1",
                "prime": p,
                "levels": [
                    [{"residue": c, "modulus": p**level,
                      "status": "nonterminal" if v is None else "terminal",
                      "valuation_or_bound": level if v is None else v}
                     for c, level, v in vertices]
                    for vertices in valuation_tree(p, depth)
                ],
            }
            return {"rc": 0, "doc": doc}
        raise ValueError(f"no reference for CLI arguments {argv}")

    def expected(self, task: dict):
        op, args = task["op"], task["args"]
        if op.startswith("cli_"):
            return self._cli(args)
        if op == "invol_range":
            return {"count": args[0] + 1, "hash": seq_hash(self.involution(args[0]))}
        if op == "psum_range":
            return {"count": args[0] + 1, "hash": seq_hash(self.partial(args[0]))}
        if op == "restricted":
            n, l = args
            return self.restricted(l, n)[n]
        if op in ("series_exp", "series_mul"):
            l, order = args
            return {"integral": True, "hash": seq_hash(self.restricted(l, order))}
        if op in ("cycle_index", "toeplitz"):
            n, l = args
            terms = cycle_index_terms(n, l)
            return {"terms": len(terms), "hash": term_hash(terms.items(), n)}
        if op == "conjecture":
            p, _ = args
            rows = []
            for vertices in valuation_tree(*args):
                level = vertices[0][1]
                at = sum(1 for _, _, v in vertices if v == level - 1)
                other = sum(1 for _, _, v in vertices if v is not None and v != level - 1)
                nonterm = sum(1 for _, _, v in vertices if v is None)
                rows.append([level, at, other, nonterm, at == p - 1 and other == 0 and nonterm == 1])
            return rows
        if op == "ineff":
            return inefficient_primes(args[0])
        if op == "periodicity":
            p, r, n_max = args
            q = p**r
            vals = involution_mod(q, n_max + q)
            return all(vals[n + q] == vals[n] for n in range(n_max + 1))
        if op == "nu3":
            modulus, running, ok = 3**40, 0, True
            for n, v in enumerate(involution_mod(modulus, args[0])):
                running = (running + v) % modulus
                ok = ok and running != 0 and _nu(running, 3) == nu3_pattern(n)
            return ok
        if op in ("solve_saddle", "estimate_saddle"):
            n, l = args
            r = saddle_root(n, l)
            return [r, log_saddle_estimate(n, l, r) if op == "estimate_saddle" else 0.0]
        if op == "log_exact":
            n, l = args
            return math.log(restricted_values(l, n)[n])
        if op == "fit_phi":
            l = args[0]
            return {str(k): float(beta_printed(l, k) if k in (0, l) else beta_extracted(l, k))
                    for k in range(l + 1)}
        if op == "closed_form":
            n, l, source = args
            betas = {k: beta_printed(l, k) if source == "printed" or k in (0, l)
                     else beta_extracted(l, k) for k in range(l + 1)}
            exponent = float(betas[0]) + sum(float(betas[k]) * n ** (k / l) for k in range(1, l + 1))
            printed = -0.5 * math.log(l) + n * (1 - 1 / l) * math.log(n) + exponent
            return {"betas": {str(k): str(v) for k, v in betas.items()}, "printed": printed,
                    "stirling": printed - n}
        raise ValueError(f"no reference for {op}")


def check(task: dict, digest, expected) -> str | None:
    """None when the digest matches the reference, else why it does not."""
    op = task["op"]
    if op == "cli_lines":
        if digest["rc"] != expected["rc"]:
            return f"exit code {digest['rc']}"
        lines = set(digest["lines"])
        missing = [s for s in expected["suites"] if f"{s}: ok" not in lines]
        bad = [line for line in digest["lines"] if not line.endswith(": ok")]
        return f"suites not ok: {missing + bad}" if missing or bad else None
    if op in ("solve_saddle", "estimate_saddle"):
        r, value = digest
        if _rel(r, expected[0]) > 1e-12:
            return f"saddle point {r} != {expected[0]}"
        if op == "solve_saddle" and not abs(value) < 1e-12:
            return f"residual {value} not below the 1e-12 tolerance"
        if op == "estimate_saddle" and _rel(value, expected[1]) > 1e-9:
            return f"log estimate {value} != {expected[1]}"
        return None
    if op == "log_exact":
        return None if _rel(digest, expected) <= 1e-12 else f"{digest} != {expected}"
    if op == "fit_phi":
        bad = {k: v for k, v in digest.items() if abs(v - expected[k]) > 1e-6}
        return f"fitted coefficients off: {bad}" if bad or digest.keys() != expected.keys() else None
    if op == "closed_form":
        if digest["betas"] != expected["betas"]:
            return f"betas {digest['betas']} != {expected['betas']}"
        for key in ("printed", "stirling"):
            if _rel(digest[key], expected[key]) > 1e-10:
                return f"{key} {digest[key]} != {expected[key]}"
        return None
    if digest != expected:
        return f"digest {str(digest)[:120]} != reference {str(expected)[:120]}"
    return None
