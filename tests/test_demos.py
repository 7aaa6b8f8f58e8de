"""Every demo script runs to completion in a fresh interpreter, and the
values demos 04 and 05 print agree with their references."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("04_"):
        assert "equal to the recurrence version: True" in proc.stdout
    if demo.name.startswith("05_"):
        lists = [ast.literal_eval(line[line.index("["):])
                 for line in proc.stdout.splitlines() if line.endswith("]")]
        involutions, involutions_ref, sums, sums_ref, _, powers, power_sums = lists
        assert involutions == involutions_ref
        assert sums == sums_ref
        assert powers == [2**n for n in range(8)]
        assert power_sums == [2 ** (n + 1) - 1 for n in range(8)]
