"""Fixtures for tests that run the package in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# Runs `python *argv[1:]`, then writes a newline, its exit code and its peak
# RSS (KiB) to stderr.  On Linux a process's peak RSS includes its parent's at
# the fork, and the test process is large, so a measured command runs as the
# child of this small interpreter, never as a direct child of the tests.
_MEASURE = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call([sys.executable, *sys.argv[1:]])\n"
    "peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "sys.stderr.write(f'\\n{code} {peak_kb}')\n"
)


@pytest.fixture
def child_env():
    """The environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def run_measured(child_env):
    """run_measured(*args, read=...) runs `python *args` in a grandchild.

    Returns the CompletedProcess, whose stdout is what `read` returns from
    the binary stream (by default all of it, decoded), and the grandchild's
    peak RSS in KiB.  `read` may stream an output too large to hold, while
    the stderr of the command stays within a pipe buffer.
    """
    def run(*args, read=lambda stream: stream.read().decode()):
        with subprocess.Popen([sys.executable, "-c", _MEASURE, *args], env=child_env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out = read(proc.stdout)
            _, err = proc.communicate(timeout=120)
        stderr, _, status = err.decode().rpartition("\n")
        code, peak_kb = map(int, status.split())
        return subprocess.CompletedProcess(args, code, out, stderr), peak_kb
    return run
