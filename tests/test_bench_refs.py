"""The benchmark's fixed invocations against its reference outputs, in process.

perfbench/refs holds one reference per argv that perfbench/workloads.py
can emit.  Every argv of the orbit, gl-polys and sym-tables workloads runs
through cli.main here and must exit 0 with output that
perfbench/check.compare accepts, so a change that moves the benchmark's
outputs fails in the tier-1 suite and not only in a benchmark run.  The
plancherel workload is left out: its argvs take about 23 s together.
This module only reads perfbench/.
"""

import importlib.util
from functools import cache
from pathlib import Path

import pytest

from repstat import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")

CASES = [(w, argv) for w in ("orbit", "gl-polys", "sym-tables") for argv in workloads.all_argvs(w)]


@cache
def _refs(workload):
    return check.load_refs(workload)


@pytest.mark.parametrize("workload, argv", CASES, ids=[f"{w}: {check.key(a)}" for w, a in CASES])
def test_output_matches_reference(capsys, workload, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert check.compare(_refs(workload)[check.key(argv)], out.encode("utf-8")) == []
