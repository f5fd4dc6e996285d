"""Output checker for the repstat benchmark, and the capture of its references.

A reference records, for one argv, the SHA-256 of the whole output, the
column names and row count, a SHA-256 per exact column (integers,
partitions, polynomials, verdicts, labels), every value of each real
column, and for JSON output the payload outside ``rows``.  An output that
is byte-identical to the reference passes at once.  Otherwise exact
columns and the rest of the payload must match byte for byte, and real
columns must match to the CLI's 12-significant-digit contract, taken as
a relative difference of at most 1e-11.

Capture references from a tree whose outputs are trusted:

    python3 perfbench/check.py capture
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

REL_TOL = 1e-11

# Columns the CLI prints with `%.12g`; every other column is exact.
REAL_COLUMNS = frozenset({
    "alpha", "beta", "bin_left", "bin_right", "cos_sq", "inv_gamma_ref", "ln_asym_avg_dim",
    "ln_class", "ln_dim_sq", "ln_max_dim", "ln_mean_dim", "ln_pl", "log_ratio", "predicted_log",
    "ratio", "sum_ln_class", "sum_ln_dim_sq", "vk_ratio",
})

REFS_DIR = Path(__file__).resolve().parent / "refs"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def parse(data: bytes):
    """Split a CSV or JSON table into (format, columns, {column: cells}, rest).

    CSV cells are the strings between the delimiters.  JSON cells are the
    decoded values; ``rest`` is the payload without ``rows``.
    """
    text = data.decode("utf-8")
    if text.startswith("{"):
        payload = json.loads(text)
        rows = payload.pop("rows")
        columns = list(rows[0]) if rows else []
        cells = {c: [row[c] for row in rows] for c in columns}
        return "json", columns, cells, payload
    records = list(csv.reader(io.StringIO(text, newline="")))
    columns = records[0]
    cells = {c: [r[k] for r in records[1:]] for k, c in enumerate(columns)}
    return "csv", columns, cells, None


def _exact_digest(fmt: str, cells: list) -> str:
    if fmt == "csv":
        return _sha("\n".join(cells))
    return _sha("\n".join(_canonical(v) for v in cells))


def _reals(cells: list) -> list:
    return [None if v in ("", None) else float(v) for v in cells]


def capture(data: bytes) -> dict:
    """The reference record of one trusted output."""
    fmt, columns, cells, rest = parse(data)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "format": fmt,
        "columns": columns,
        "rows": len(cells[columns[0]]) if columns else 0,
        "exact": {c: _exact_digest(fmt, v) for c, v in cells.items() if c not in REAL_COLUMNS},
        "real": {c: _reals(v) for c, v in cells.items() if c in REAL_COLUMNS},
        "rest": None if rest is None else _canonical(rest),
    }


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL_TOL * abs(want)


def compare(ref: dict, data: bytes) -> list[str]:
    """Problems found in ``data`` against ``ref``; empty when it passes."""
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return []
    try:
        fmt, columns, cells, rest = parse(data)
    except (UnicodeDecodeError, ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    if fmt != ref["format"] or columns != ref["columns"]:
        return [f"table shape {fmt} {columns} differs from {ref['format']} {ref['columns']}"]
    problems = []
    rows = len(cells[columns[0]]) if columns else 0
    if rows != ref["rows"]:
        problems.append(f"{rows} rows, reference has {ref['rows']}")
    if (None if rest is None else _canonical(rest)) != ref["rest"]:
        problems.append("payload outside rows differs")
    for c, digest in ref["exact"].items():
        if _exact_digest(fmt, cells[c]) != digest:
            problems.append(f"exact column {c} differs")
    for c, want in ref["real"].items():
        try:
            got = _reals(cells[c])
        except (TypeError, ValueError):
            problems.append(f"real column {c} has a non-number")
            continue
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
        if bad or len(got) != len(want):
            problems.append(f"real column {c} differs beyond {REL_TOL:g} at rows {bad[:5]}")
    return problems


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json.xz"


def load_refs(workload: str) -> dict[str, dict]:
    """References of one workload, keyed by the space-joined argv."""
    with lzma.open(refs_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def key(argv: list[str]) -> str:
    return " ".join(argv)


def _capture_all(root: Path) -> None:
    from workloads import WORKLOADS, all_argvs

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    REFS_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        refs = {}
        for argv in all_argvs(workload):
            proc = subprocess.run(
                [sys.executable, "-m", "repstat.cli", *argv], env=env, capture_output=True, check=True
            )
            refs[key(argv)] = capture(proc.stdout)
            print(f"{workload}: {key(argv)}: {len(proc.stdout)} bytes", flush=True)
        with lzma.open(refs_path(workload), "wt", encoding="utf-8") as fh:
            json.dump(refs, fh, sort_keys=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["capture"]:
        sys.exit("usage: check.py capture")
    _capture_all(Path(__file__).resolve().parent.parent)
