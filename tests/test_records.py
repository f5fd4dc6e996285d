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


def child_modules(code: str) -> str:
    """What a fresh interpreter running code, with this tree's repstat first, prints last to stderr."""
    src = str(Path(repstat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stderr.splitlines()[-1]


def test_cli_import_leaves_out_dataclasses():
    # Nor json, fractions and the decimal module that fractions loads: each is imported where it is used.
    # Nor argparse (and its gettext), which only an argv of no plain command shape needs, nor a
    # topic module but qseries, whose polynomials are cells: each row builder imports its own.
    left_out = {
        "dataclasses", "inspect", "json", "fractions", "decimal",
        "argparse", "gettext", "repstat.symstats", "repstat.kirillov", "repstat.rsk",
    }
    code = f"import sys, repstat.cli; print(sorted({left_out!r} & set(sys.modules)), file=sys.stderr)"
    assert child_modules(code) == "[]"


@pytest.mark.parametrize("argv", [["kirillov", "--alg", "heis3", "--p", "3"], ["gl", "census", "--q", "3"]])
def test_csv_table_leaves_out_json_and_fractions(argv):
    code = (
        f"import sys, repstat.cli; code = repstat.cli.main({argv!r}); "
        "print(code, sorted({'json', 'fractions'} & set(sys.modules)), file=sys.stderr)"
    )
    assert child_modules(code) == "0 []"


# A valid argv of each topic, and the topic modules it must not load; qseries
# comes with repstat.cli itself.
TOPIC_ARGVS = [
    (["sym", "sweep", "--n", "5"], ["repstat.kirillov"]),
    (["sym", "plancherel", "--n", "8", "--count", "5", "--seed", "3"], ["repstat.kirillov"]),
    (["gl", "census", "--q", "3", "--format", "json"], ["repstat.kirillov", "repstat.rsk", "repstat.symstats"]),
    (["kirillov", "--alg", "heis3", "--p", "3"], ["repstat.rsk", "repstat.symstats"]),
]


@pytest.mark.parametrize("argv, others", TOPIC_ARGVS, ids=[" ".join(argv[:2]) for argv, _ in TOPIC_ARGVS])
def test_command_loads_no_argparse_and_no_other_topic(argv, others):
    left_out = {"argparse", "gettext", *others}
    code = (
        f"import sys, repstat.cli; code = repstat.cli.main({argv!r}); "
        f"print(code, sorted({left_out!r} & set(sys.modules)), file=sys.stderr)"
    )
    assert child_modules(code) == "0 []"
