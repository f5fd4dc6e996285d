"""Smoke test of the benchmark's traced child against the library in src/.

perfbench/tracer.py patches library functions by name (among them
QPolynomial.__mul__ and qseries._int_series_mul), so a library rename that
it does not follow breaks every traced benchmark run.  One small argv per
benchmark workload must still run to exit 0 and leave a trace behind.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("sym", "sweep", "--n", "8"),
        ("gl", "classes", "--nmax", "5"),
        ("kirillov", "--alg", "heis3", "--p", "3"),
        ("sym", "plancherel", "--n", "10", "--count", "3", "--seed", "1"),
    ],
    ids=" ".join,
)
def test_traced_child_runs(tmp_path, argv):
    trace = tmp_path / "trace"
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"), str(trace), "--", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout and trace.stat().st_size > 0
