"""Helpers shared by the benchmark client (run.py) and its worker process.

Outputs are compared through residues modulo the Mersenne prime 2**61 - 1:
a worker reduces what the library returned, the client computes the same
residues with its own code, and only the small digests cross the pipe.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify", "exact-tables", "valuation-trees", "saddle-sweep")

# The 18 suites `involutions verify` runs at its default bounds.
VERIFY_SUITES = (
    "asymptotic", "cauchy", "congruence", "cycle-index", "efficiency", "egf",
    "f-sum", "hermite", "involution-forms", "nu2-involution", "nu2-partial-sum",
    "nu3-pattern", "oracle", "partial-sum-forms", "periodicity", "tables",
    "toeplitz", "tree-5",
)

MODULES = (
    "exactnum", "involution", "partialsum", "valuation", "cyclecount",
    "series", "asymptotic", "oracle", "cli",
)

P = (1 << 61) - 1
Z = 1_000_003

# CPython hashes an int by reducing it mod 2**61 - 1 (sys.hash_info.modulus
# on 64-bit builds), several times faster than `%` on large ints.
_HASH_IS_MOD_P = sys.hash_info.modulus == P


def mod_p(value: int) -> int:
    """value mod P."""
    return hash(value) if value >= 0 and _HASH_IS_MOD_P else value % P


def seq_hash(residues) -> int:
    """Order-sensitive polynomial hash of residues mod P (Horner in Z)."""
    h = 0
    for r in residues:
        h = (h * Z + r) % P
    return h


def term_hash(terms, n: int) -> int:
    """Order-free hash of {exponent vector: coefficient} mod P.

    Each exponent vector (entries <= n) is coded as an integer in base n + 1
    and weighted by Z to that power.
    """
    h = 0
    for exps, coeff in terms:
        code = 0
        for e in reversed(exps):
            code = code * (n + 1) + e
        h = (h + coeff % P * pow(Z, code, P)) % P
    return h


def decimal_mod(text: str, chunk: int = 1000) -> int:
    """A non-negative decimal string reduced mod P, without ever converting
    more than `chunk` digits at once (so no int/str digit limit applies)."""
    value = 0
    for i in range(0, len(text), chunk):
        part = text[i : i + chunk]
        value = (value * pow(10, len(part), P) + int(part)) % P
    return value
