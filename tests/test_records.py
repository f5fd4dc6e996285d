"""Result records: one NamedTuple idiom, and an import without dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repstat
from repstat.kirillov import NilAlgebra, OrbitReport
from repstat.symstats import AngleReport, DimRecord, Histogram, IntervalCounts

# Field names in order: the CLI prints AngleReport and IntervalCounts as
# rows, and reads OrbitReport's (value, multiplicity) pairs by name.
RECORDS = [
    (DimRecord, ("lam", "dim", "class_size", "log_dim_sq", "log_class")),
    (AngleReport, ("n", "sum_dim", "sum_dim_sq", "count", "cos_sq", "log_ratio", "predicted_log")),
    (IntervalCounts, ("n", "alpha", "beta", "count_dim_sq", "count_class")),
    (Histogram, ("bin_edges", "counts")),
    (
        NilAlgebra,
        ("name", "matrix_size", "dim", "positions", "brackets", "nilpotency_class", "derived_dim"),
    ),
    (
        OrbitReport,
        ("algebra", "p", "group_order", "orbit_sizes", "class_sizes", "rep_dims", "match_kirillov", "match_naive"),
    ),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_is_named_tuple(record, fields):
    assert issubclass(record, tuple) and record._fields == fields


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(repstat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, repstat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
