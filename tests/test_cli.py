"""CLI surface: formats, determinism, exit codes."""

import argparse
import collections
import csv
import gc
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repstat import __version__, cli, qseries, symstats
from repstat.cli import main
from repstat.kirillov import ALGEBRAS, MAX_PRIME_BITS, MAX_TORUS_REPRESENTATIVES, _forests, _is_prime, _sides
from repstat.partitions import Partition, partition_count
from repstat.qseries import (
    MAX_CENSUS_Q_BITS, MAX_CLASS_COUNT_N, MAX_GAUSS_ORDER, MAX_POLY_N, MAX_RATIO_BITS, QPolynomial,
)
from repstat.rsk import MAX_PLANCHEREL_CELLS, MAX_PLANCHEREL_N
from repstat.symstats import MAX_HIST_BINS, MAX_SWEEP_N, fraction_near_max

from golden import GOLDEN, PARITY, eager_parser, run_with


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def same_cell(cell, value):
    """Whether a CSV field and a JSON value render the same cell."""
    if isinstance(value, list):
        parts = cell.split()
        return len(parts) == len(value) and all(map(same_cell, parts, value))
    if isinstance(value, float):
        return float(cell) == value
    if value is None or isinstance(value, bool):
        return cell == ("" if value is None else "true" if value else "false")
    return cell == value


def sweep_child(stdout, n=26):
    """``repstat sym sweep --n N`` in a fresh interpreter; at n = 26 it prints 205 KB, more than a pipe buffer holds.

    Stdout keeps its default buffering, so text the failed write leaves in
    the buffer would meet the interpreter's flush at exit.
    """
    return subprocess.Popen(
        [sys.executable, "-m", "repstat.cli", "sym", "sweep", "--n", str(n)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env(),
    )


def console_script(*argv):
    """Run ``repstat ARGV`` through run(), as the console script does, in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", "import repstat.cli; repstat.cli.run()", *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


def child_env():
    """The environment with this tree's repstat first and stdout buffering left at its default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return env


def starts(exe, env):
    return subprocess.run([exe, "-c", ""], capture_output=True, env=env, timeout=60).returncode == 0


def pyenv_version(version):
    """The last entry of ``pyenv versions --bare`` that is ``version`` or one of its releases, or ""."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return ""
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60).stdout.split()
    matches = [v for v in listed if v == version or v.startswith(version + ".")]
    return matches[-1] if matches else ""


def assert_write_failure(proc):
    # Leaving the Popen closes its pipes, so no unclosed file is left to the collector.
    with proc:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err.startswith("repstat: cannot write output:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


class TestSweep:
    def test_n3(self, capsys):
        code, out, _ = run_cli(capsys, "sym", "sweep", "--n", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["partition", "dim", "class_size", "ln_dim_sq", "ln_class"]
        assert [r[0] for r in rows] == ["[3]", "[2,1]", "[1,1,1]"]
        assert [r[1] for r in rows] == ["1", "2", "1"]

    def test_row_count_is_p_n(self, capsys):
        code, out, _ = run_cli(capsys, "sym", "sweep", "--n", "9")
        _, rows = parse_csv(out)
        assert code == 0 and len(rows) == partition_count(9)

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "sweep", "--n", "4")
        assert "\r" not in out


class TestDeterminismAndFormats:
    def test_byte_identical_rerun(self, capsys):
        first = run_cli(capsys, "sym", "plancherel", "--n", "8", "--count", "20", "--seed", "5")
        second = run_cli(capsys, "sym", "plancherel", "--n", "8", "--count", "20", "--seed", "5")
        assert first == second

    @pytest.mark.parametrize("argv", [g[0] for g in GOLDEN])
    def test_csv_json_numeric_parity(self, capsys, argv):
        # Every table's JSON is meta plus rows, and each row holds its CSV row's cells.
        _, out_csv, _ = run_cli(capsys, *argv.split())
        _, out_json, _ = run_cli(capsys, *argv.split(), "--format", "json")
        header, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert list(payload) == ["meta", "rows"]
        assert len(payload["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, payload["rows"]):
            assert list(json_row) == header[: len(csv_row)]
            for name, cell in zip(header, csv_row):
                assert same_cell(cell, json_row[name]), (name, cell, json_row[name])

    def test_json_meta(self, capsys):
        _, out, _ = run_cli(
            capsys, "sym", "plancherel", "--n", "4", "--count", "2", "--seed", "11", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["meta"]["seed"] == 11
        assert "plancherel" in payload["meta"]["invocation"]
        assert payload["meta"]["version"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "gl", "gauss", "--order", "5", "--out", str(target))
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["order", "equal"] and rows == [["5", "true"]]

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gl", "gauss", "--order", "5", "--out", str(tmp_path / "no" / "dir" / "x.csv")
        )
        assert code == 2 and "cannot write" in err

    def test_closed_stdout_pipe(self):
        proc = sweep_child(subprocess.PIPE)
        proc.stdout.close()
        assert_write_failure(proc)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_write_leaves_no_descriptor_open(self, capsys, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as pipe, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", pipe)
            before = len(os.listdir("/proc/self/fd"))
            code = main(["gl", "gauss", "--order", "5"])
            after = len(os.listdir("/proc/self/fd"))
        assert code == 2 and after == before
        assert capsys.readouterr().err.startswith("repstat: cannot write output:")

    def test_write_through_stdout_gets_one_write_per_block(self, monkeypatch):
        # Under PYTHONUNBUFFERED=1 every write to stdout reaches the device as a system call.
        writes = []

        class Device(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                writes.append(bytes(data))
                return len(data)

        with io.TextIOWrapper(Device(), encoding="utf-8", newline="", write_through=True) as stdout:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                assert main(["sym", "sweep", "--n", "20"]) == 0
        lines = partition_count(20) + 1
        assert b"".join(writes).count(b"\n") == lines
        assert len(writes) == -(-lines // cli.ROWS_PER_WRITE)

    # n = 3 fits in the stdout buffer, so only the flush inside main can fail.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("n", [3, 26])
    def test_full_stdout_device(self, n):
        with open("/dev/full", "w") as full:
            proc = sweep_child(full, n)
        assert_write_failure(proc)


GL_CAPS = [
    (("gl", "classes", "--nmax"), MAX_CLASS_COUNT_N),
    (("gl", "ratio", "--q", "2", "--nmax"), MAX_CLASS_COUNT_N),
    (("gl", "gow", "--nmax"), MAX_POLY_N),
    (("gl", "order", "--nmax"), MAX_POLY_N),
    (("gl", "gauss", "--order"), MAX_GAUSS_ORDER),
    # The largest q whose bit size keeps 200^2 * bits(q) within the cap.
    (("gl", "ratio", "--nmax", "200", "--q"), (1 << MAX_RATIO_BITS // 200**2) - 1),
    # At small nmax the 40-term gamma(q) reference sum, of bit size 820 * bits(q), is the bound.
    (("gl", "ratio", "--nmax", "1", "--q"), (1 << MAX_RATIO_BITS // 820) - 1),
]
PLANCHEREL_CAPS = [(10**9, 1), (MAX_PLANCHEREL_N + 1, 1), (1000, MAX_PLANCHEREL_CELLS // 1000 + 1)]


def _walk_length(alg, p):
    """Torus representatives of both rank walks, as check_prime counts them."""
    return sum((p - 1) ** len(free) for _, coords in _sides(alg) for _, free in _forests(alg, coords))


def _first_refused_prime(start, refused, bound=1_000):
    """Smallest prime p >= start with refused(p); fails past start + bound instead of searching on."""
    for p in range(start, start + bound):
        if refused(p) and _is_prime(p):
            return p
    raise AssertionError(f"no refused prime in [{start}, {start + bound})")


# ut4 is refused by its walks' length; heis3 walks 6 representatives at
# every p, so only the bit size of p refuses it.
KIRILLOV_OVER_CAP = {
    "ut4": str(_first_refused_prime(2, lambda p: _walk_length(ALGEBRAS["ut4"], p) > MAX_TORUS_REPRESENTATIVES)),
    "heis3": str(_first_refused_prime(1 << MAX_PRIME_BITS, lambda p: p.bit_length() > MAX_PRIME_BITS)),
}
KIRILLOV_LARGE_PRIMES = [str(2**61 - 1), str(10**30 + 57)]

# Inputs each command refuses with exit 3, by command path.
_OVER_SWEEP = str(MAX_SWEEP_N + 1)
REFUSALS = {
    ("sym", "sweep"): [("--n", _OVER_SWEEP)],
    ("sym", "hist"): [("--n", _OVER_SWEEP, "--bins", "10"), ("--n", "10", "--bins", str(MAX_HIST_BINS + 1))],
    ("sym", "angle"): [("--nmax", _OVER_SWEEP)],
    ("sym", "intervals"): [("--n", _OVER_SWEEP, "--alpha", "0.3", "--beta", "0.8")],
    ("sym", "layers"): [("--n", _OVER_SWEEP)],
    ("sym", "maxdim"): [("--nmax", _OVER_SWEEP)],
    ("sym", "plancherel"): [("--n", str(n), "--count", str(c), "--seed", "1") for n, c in PLANCHEREL_CAPS],
    ("gl", "census"): [("--q", str(1 << MAX_CENSUS_Q_BITS))],
    ("kirillov",): [("--alg", alg, "--p", p) for alg, p in KIRILLOV_OVER_CAP.items()]
    + [("--alg", "heis3", "--p", p) for p in KIRILLOV_LARGE_PRIMES],
}
for _argv, _cap in GL_CAPS:
    REFUSALS.setdefault(_argv[:2], []).append((*_argv[2:], str(_cap + 1)))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "sym", "frobnicate")
        assert code == 2 and err.strip()
        assert err.count("\n") == 1  # single-line diagnostic

    def test_cap_refusal_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "sym", "sweep", "--n", "60")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("n, code", [(MAX_SWEEP_N + 1, 3), (0, 2)])
    def test_refusal_creates_no_out_file(self, capsys, tmp_path, n, code):
        target = tmp_path / "table.csv"
        assert run_cli(capsys, "sym", "sweep", "--n", str(n), "--out", str(target))[:2] == (code, "")
        assert not target.exists()

    def test_hist_refuses_bins_before_building_the_level(self, capsys):
        misses = cli.sweep.cache_info().misses
        code, out, err = run_cli(capsys, "sym", "hist", "--n", "40", "--bins", str(MAX_HIST_BINS + 1))
        assert (code, out) == (3, "") and "bins=10001 exceeds the cap 10000" in err
        assert cli.sweep.cache_info().misses == misses

    def test_cap_flag_is_usage_error(self, capsys):
        # The sweep cap is fixed; there is no flag to lower or raise it.
        code, out, err = run_cli(capsys, "sym", "sweep", "--n", "12", "--cap", "12")
        assert code == 2 and out == "" and "--cap" in err

    def test_kirillov_bad_characteristic(self, capsys):
        code, _, err = run_cli(capsys, "kirillov", "--alg", "heis3", "--p", "2")
        assert code == 2 and "p > 2" in err

    @pytest.mark.parametrize("alg", KIRILLOV_OVER_CAP)
    def test_kirillov_state_cap_is_exit_3(self, capsys, alg):
        # ut4 is refused from p = 223 (211 walks 45,602 representatives),
        # heis3 from 2^32 + 15, the first prime of 33 bits.
        assert KIRILLOV_OVER_CAP == {"ut4": "223", "heis3": str(2**32 + 15)}
        refusal = {
            "ut4": f"torus representatives=50870 exceeds the cap {MAX_TORUS_REPRESENTATIVES}",
            "heis3": f"bits of p=33 exceeds the cap {MAX_PRIME_BITS}",
        }
        start = time.monotonic()
        code, out, err = run_cli(capsys, "kirillov", "--alg", alg, "--p", KIRILLOV_OVER_CAP[alg])
        assert code == 3 and out == ""
        assert f"{alg} at p={KIRILLOV_OVER_CAP[alg]}: {refusal[alg]}" in err
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("p", KIRILLOV_LARGE_PRIMES)
    def test_kirillov_large_prime_is_exit_3(self, capsys, p):
        # Both are prime; the bit cap refuses them before any trial division.
        start = time.monotonic()
        code, out, err = run_cli(capsys, "kirillov", "--alg", "heis3", "--p", p)
        assert code == 3 and out == "" and f"bits of p={int(p).bit_length()} exceeds the cap {MAX_PRIME_BITS}" in err
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("argv, cap", GL_CAPS)
    def test_gl_size_cap_is_exit_3(self, capsys, argv, cap):
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv, str(cap + 1))
        assert code == 3 and out == "" and "exceeds the cap" in err
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (("gl", "classes", "--nmax", "60"), 61),
            (("gl", "gow", "--nmax", "40"), 40),
            (("gl", "order", "--nmax", "30"), 30),
            (("gl", "gauss", "--order", "500"), 1),
        ]
        + [(("gl", "ratio", "--nmax", "40", "--q", q), 40) for q in ("2", "3", "4", "5", "7")],
    )
    def test_gl_benchmark_sizes_run(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(parse_csv(out)[1]) == rows

    @pytest.mark.parametrize("n, count", PLANCHEREL_CAPS)
    def test_plancherel_size_cap_is_exit_3(self, capsys, n, count):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "sym", "plancherel", "--n", str(n), "--count", str(count), "--seed", "1")
        assert code == 3 and out == "" and "exceeds the cap" in err
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("sym", "sweep", "--n", "0"),
            ("sym", "layers", "--n", "0"),
            ("sym", "maxdim", "--nmax", "-3"),
            ("sym", "angle", "--nmax", "0"),
            ("gl", "gow", "--nmax", "0"),
            ("gl", "order", "--nmax", "-1"),
            ("gl", "ratio", "--nmax", "0", "--q", "2"),
            ("gl", "classes", "--nmax", "-1"),
        ],
    )
    def test_size_below_one_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "must be" in err

    def test_census_largest_q_prints(self, capsys):
        # Every cell at the largest q stays below the int-to-str digit limit.
        code, out, err = run_cli(capsys, "gl", "census", "--q", str((1 << MAX_CENSUS_Q_BITS) - 1))
        assert (code, err) == (0, "") and parse_csv(out)[1][-1][-1] == "true"

    def test_invalid_int_quoted_whole(self, capsys):
        code, out, err = run_cli(capsys, "sym", "sweep", "--n", "abc")
        assert (code, out, err) == (2, "", "repstat: usage error: argument --n: invalid int value: 'abc'\n")

    def test_oversize_int_diagnostic_stays_short(self, capsys):
        # Past Python's int-conversion digit limit; the diagnostic quotes only a prefix.
        code, out, err = run_cli(capsys, "gl", "census", "--q", "1" + "0" * 5000)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert len(err.encode()) < 200 and "invalid int value: '1000" in err and "(5001 characters)" in err

    def test_bad_parameter(self, capsys):
        code, _, err = run_cli(capsys, "sym", "intervals", "--n", "5", "--alpha", "0.9", "--beta", "0.1")
        assert code == 2 and err.strip()

    def test_every_command_refuses_oversize_input(self, capsys):
        refusals = dict(REFUSALS)
        for cmd in cli._COMMANDS:
            argvs = refusals.pop(cmd.path, None)
            assert argvs, f"no exit-3 case for {' '.join(cmd.path)}"
            for argv in argvs:
                start = time.monotonic()
                code, out, err = run_cli(capsys, *cmd.path, *argv)
                elapsed = time.monotonic() - start
                assert (code, out) == (3, ""), argv
                assert err.startswith("repstat: ") and "cap" in err, err
                assert elapsed < 1.0, (argv, elapsed)
        assert not refusals, f"cases for commands that do not exist: {sorted(refusals)}"


class TestTables:
    def test_hist_conservation(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "hist", "--n", "12", "--what", "dimsq", "--bins", "10")
        _, rows = parse_csv(out)
        assert sum(int(r[2]) for r in rows) == partition_count(12)

    def test_hist_raw_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, "sym", "hist", "--n", "10", "--what", "dim", "--bins", "6")
        _, rows = parse_csv(out)
        assert code == 0 and sum(int(r[2]) for r in rows) == partition_count(10)

    def test_angle_rows(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "angle", "--nmax", "8")
        header, rows = parse_csv(out)
        assert len(rows) == 8
        assert header[:4] == ["n", "sum_dim", "sum_dim_sq", "count"]
        assert rows[2][1] == "4"  # involutions of S_3

    def test_intervals_row(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "intervals", "--n", "5", "--alpha", "0", "--beta", "1")
        _, rows = parse_csv(out)
        assert rows[0][3] == "7" and rows[0][4] == "7" and rows[0][5] == "1"

    def test_layers_rows(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "layers", "--n", "6")
        _, rows = parse_csv(out)
        assert len(rows) == 6
        assert [r[0] for r in rows] == [str(k) for k in range(1, 7)]

    def test_maxdim_rows(self, capsys):
        _, out, _ = run_cli(capsys, "sym", "maxdim", "--nmax", "5")
        header, rows = parse_csv(out)
        assert len(rows) == 5
        assert rows[4][1] == "6" and rows[4][2] == "[3,1,1]"
        assert rows[3][2] == "[3,1];[2,1,1]"

    def test_gl_tables(self, capsys):
        _, out, _ = run_cli(capsys, "gl", "classes", "--nmax", "4")
        _, rows = parse_csv(out)
        assert len(rows) == 5  # C_0 .. C_4
        assert rows[2][1] == "-1 + 0*q + 1*q^2"
        _, out, _ = run_cli(capsys, "gl", "gow", "--nmax", "3")
        _, rows = parse_csv(out)
        assert len(rows) == 3
        _, out, _ = run_cli(capsys, "gl", "order", "--nmax", "2")
        _, rows = parse_csv(out)
        assert rows[1][1] == "0 + 1*q + -1*q^2 + -1*q^3 + 1*q^4"
        _, out, _ = run_cli(capsys, "gl", "classes", "--nmax", "0")
        assert parse_csv(out)[1] == [["0", "1", "1"]]  # C_0 = 1

    def test_gl_ratio(self, capsys):
        _, out, _ = run_cli(capsys, "gl", "ratio", "--nmax", "6", "--q", "2")
        _, rows = parse_csv(out)
        assert len(rows) == 6
        assert float(rows[0][1]) == 1.0  # GL_1 is abelian
        assert float(rows[5][2]) == pytest.approx(0.60915, abs=1e-5)

    def test_gl_census(self, capsys):
        _, out, _ = run_cli(capsys, "gl", "census", "--q", "3")
        _, rows = parse_csv(out)
        kinds = [r[0] for r in rows]
        assert kinds.count("rep") == 4 and kinds.count("class") == 4
        checks = {r[0]: r[4] for r in rows if r[0].startswith("check")}
        assert checks == {
            "check_rep_sum": "true",
            "check_class_sum": "true",
            "check_class_count": "true",
        }

    def test_kirillov_report(self, capsys):
        code, out, _ = run_cli(capsys, "kirillov", "--alg", "heis3", "--p", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and list(payload) == ["meta", "rows"]
        rows = payload["rows"]
        assert {r["size"]: r["multiplicity"] for r in rows if r["kind"] == "orbit"} == {"1": "9", "9": "2"}
        assert [r["size"] for r in rows if r["kind"] == "group_order"] == ["27"]
        checks = {r["kind"]: r["ok"] for r in rows if r["kind"].startswith("match")}
        assert checks == {"match_kirillov": True, "match_naive": False}


def readme_usage():
    """The argv of each ``repstat ...`` line of README's usage block, after ``repstat``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(repstat .*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


class TestReadme:
    @pytest.mark.parametrize("argv", readme_usage(), ids=" ".join)
    def test_usage_line_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out

    def test_every_command_is_in_the_usage(self):
        usage = readme_usage()
        missing = [cmd.path for cmd in cli._COMMANDS if all(tuple(argv[:len(cmd.path)]) != cmd.path for argv in usage)]
        assert missing == []


class TestOneReadPerLevel:
    """No table reads a level of the sweep twice."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = symstats.sweep

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(symstats, "sweep", counting)
        monkeypatch.setattr(cli, "sweep", counting)
        return calls

    def test_maxdim_reads_each_level_once(self, capsys, reads):
        assert run_cli(capsys, "sym", "maxdim", "--nmax", "12")[0] == 0
        assert reads == list(range(1, 13))

    def test_fraction_near_max_reads_one_level(self, reads):
        fraction_near_max(12, Fraction(1, 2))
        assert reads == [12]

    @pytest.mark.parametrize("argv", [
        ("sym", "hist", "--n", "12", "--bins", "5"),
        ("sym", "intervals", "--n", "12", "--alpha", "0.2", "--beta", "0.8"),
        ("sym", "layers", "--n", "12"),
    ], ids=" ".join)
    def test_single_level_table_reads_it_once(self, capsys, reads, argv):
        assert run_cli(capsys, *argv)[0] == 0
        assert reads == [12]


def test_ratio_expands_the_class_counts_once(capsys, monkeypatch):
    # Each row reads C_n; without the expansion to nmax up front, every row
    # would expand the Euler product again at its own n.
    monkeypatch.setattr(qseries, "_class_counts", [qseries.P_ONE])
    factors = []
    real = qseries._times_one_minus

    def counting(s, m):
        factors.append(m)
        real(s, m)

    monkeypatch.setattr(qseries, "_times_one_minus", counting)
    assert run_cli(capsys, "gl", "ratio", "--nmax", "40", "--q", "2")[0] == 0
    assert factors == list(range(1, 41))


class TestGolden:
    @pytest.mark.parametrize("argv, csv_sha, json_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_stdout_bytes(self, capsys, argv, csv_sha, json_sha):
        for extra, sha in (([], csv_sha), (["--format", "json"], json_sha)):
            code, out, err = run_cli(capsys, *argv.split(), *extra)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha

    def test_row_builders_call_library_by_global_name(self, capsys, monkeypatch):
        # A profiler that rebinds cli.sweep must see every call the table makes.
        calls = []
        real = cli.sweep

        def patched(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "sweep", patched)
        code, out, _ = run_cli(capsys, "sym", "sweep", "--n", "4")
        assert code == 0 and calls == [(4,)]
        assert len(parse_csv(out)[1]) == partition_count(4)

    @pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
    def test_replay_under_other_pythons(self, python):
        # The pins hold on every supported Python, and golden.py replays them with the standard library alone.
        exe, env = shutil.which(python), child_env()
        if exe is None:
            pytest.skip(f"{python} is not on PATH")
        if not starts(exe, env):
            # A pyenv shim starts only a version that PYENV_VERSION (or a pyenv setting) selects.
            env["PYENV_VERSION"] = pyenv_version(python[len("python"):])
            if not env["PYENV_VERSION"] or not starts(exe, env):
                pytest.skip(f"{python} does not start, nor does pyenv hold that version")
        script = Path(__file__).with_name("golden.py")
        proc = subprocess.run([exe, str(script)], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"outputs match on Python {python[len('python'):]}." in proc.stdout

    @pytest.mark.parametrize("argv", [g[0] for g in GOLDEN])
    def test_rows_are_built_before_writing(self, argv):
        # main writes only after the builder returns, so every refusal comes before the first byte.
        assert isinstance(_rows(argv.split()), (list, tuple))

    def test_every_command_has_a_golden_entry(self):
        pinned = {tuple(argv.split()) for argv, *_ in GOLDEN}
        missing = [cmd.path for cmd in cli._COMMANDS if not any(a[: len(cmd.path)] == cmd.path for a in pinned)]
        assert missing == []


class TestParser:
    """build_parser fills each parser as argparse hands it arguments, and answers as the eager parser did."""

    @pytest.mark.parametrize("argv", PARITY, ids=[" ".join(argv) or "(none)" for argv in PARITY])
    def test_matches_the_eager_parser(self, argv):
        assert run_with(cli.build_parser, argv) == run_with(eager_parser, argv)

    def test_help_text_without_parsing(self):
        # A parser asked for its help before it parses fills itself first.
        for text in ("format_help", "format_usage"):
            assert getattr(cli.build_parser(), text)() == getattr(eager_parser(), text)()

    @staticmethod
    def built(monkeypatch, capsys, factory, argv):
        """The progs of the parsers that one main(argv) makes, and (prog, flag) for each flag it adds past -h."""
        parsers, flags = [], []
        init, add = cli._Parser.__init__, cli._Parser.add_argument

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            parsers.append(self.prog)

        def counting_add(self, *args, **kwargs):
            if args[0] != "-h":
                flags.append((self.prog, args[0]))
            return add(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        monkeypatch.setattr(cli._Parser, "add_argument", counting_add)
        monkeypatch.setattr(cli, "build_parser", factory)
        assert run_cli(capsys, *argv)[0] == 0
        return parsers, flags

    def test_kirillov_builds_its_own_path(self, monkeypatch, capsys):
        parsers, flags = self.built(monkeypatch, capsys, cli.build_parser, ["kirillov", "--alg", "ut4", "--p", "5"])
        assert parsers == ["repstat", "repstat sym", "repstat gl", "repstat kirillov"]
        assert flags == [("repstat kirillov", f) for f in ("--alg", "--p", "--format", "--out")]

    def test_gl_command_builds_its_topic(self, monkeypatch, capsys):
        parsers, flags = self.built(monkeypatch, capsys, cli.build_parser, ["gl", "census", "--q", "3"])
        # The top parser, 3 topics and kirillov, then gl's 6 commands.
        assert parsers[4:] == [f"repstat gl {c.path[1]}" for c in cli._COMMANDS if c.path[0] == "gl"]
        assert len(parsers) == 10
        assert flags == [("repstat gl census", f) for f in ("--q", "--format", "--out")]

    def test_sym_command_builds_its_topic(self, monkeypatch, capsys):
        parsers, flags = self.built(monkeypatch, capsys, cli.build_parser, ["sym", "layers", "--n", "4"])
        assert len(parsers) == 11 and flags == [("repstat sym layers", f) for f in ("--n", "--format", "--out")]

    def test_eager_parser_builds_every_parser(self, monkeypatch, capsys):
        parsers, flags = self.built(monkeypatch, capsys, eager_parser, ["kirillov", "--alg", "ut4", "--p", "5"])
        assert len(parsers) == 17 and len(flags) == sum(len(c.args) + 2 for c in cli._COMMANDS)


# One value of every type the cell tables hold: floats at the edges of
# %.12g, a bool beside an int, a partition past the digit table.
CELLS = (
    1e-05, 1e20, 123456789012.0, -0.0, True, 1, None,
    (1, (0.5, None, False), "a b"), [-7], Partition([100, 1]), QPolynomial(),
)
# As the isinstance chains that the tables replaced rendered them, with the
# partition and the polynomial serialized first as the row builders then did.
CELLS_CSV = (
    "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\n"
    '1e-05,1e+20,123456789012,-0,true,1,,1 0.5  false a b,-7,"[100,1]",0\n'
)
CELLS_JSON_ROW = """{
      "c0": 1e-05,
      "c1": 1e+20,
      "c2": 123456789012.0,
      "c3": -0.0,
      "c4": true,
      "c5": "1",
      "c6": null,
      "c7": [
        "1",
        [
          0.5,
          null,
          false
        ],
        "a b"
      ],
      "c8": [
        "-7"
      ],
      "c9": "[100,1]",
      "c10": "0"
    }"""


def _rows(argv):
    args = cli.build_parser().parse_args(argv)
    return args.cmd.rows(args)


class TestConsoleScript:
    """run(), the ``repstat`` entry, runs main with the collector off and freezes the heap after it.

    main touches neither the collector's switch nor its freeze.
    """

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert run_cli(capsys, "sym", "sweep", "--n", "20")[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_found(self, capsys, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            codes = [run_cli(capsys, "sym", "sweep", *argv)[0] for argv in (("--n", "20"), ("--n", "51"))]
            after = gc.isenabled()
        finally:
            gc.enable()
        assert codes == [0, 3] and after is enabled

    @pytest.mark.parametrize("argv, code", [(("--n", "20"), 0), (("--n", "51"), 3)])
    def test_run_freezes_and_exits_with_main_code(self, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["repstat", "sym", "sweep", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            frozen = gc.get_freeze_count()
            enabled = gc.isenabled()
        finally:
            # Later tests must not run with the collector off or the heap frozen.
            gc.enable()
            gc.unfreeze()
        assert exc.value.code == code and frozen > 0 and not enabled

    def test_run_disables_the_collector_before_main(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
        finally:
            gc.enable()
            gc.unfreeze()
        assert exc.value.code == 0 and seen == [False]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("sym", "sweep", "--n", "20"), 0),
            (("sym", "sweep", "--n", "20", "--format", "json"), 0),
            (("sym", "sweep", "--n", "0"), 2),
            (("sym", "sweep", "--n", "51"), 3),
        ],
    )
    def test_child_matches_main(self, capsys, argv, code):
        proc = console_script(*argv)
        expected = run_cli(capsys, *argv)
        assert expected[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_child_unwritable_out(self, tmp_path):
        proc = console_script("sym", "sweep", "--n", "3", "--out", str(tmp_path / "no" / "dir" / "x.csv"))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("repstat: cannot write output:") and proc.stderr.count("\n") == 1


class TestCellTables:
    def test_every_type_renders_as_before(self):
        cmd = cli._Command(("x",), "", {}, tuple(f"c{i}" for i in range(len(CELLS))), lambda a: [CELLS])

        def emit(fmt):
            args = argparse.Namespace(cmd=cmd, format=fmt, invocation=["x"])
            return "".join(cli._emit(args, cmd.rows(args)))

        assert emit("csv") == CELLS_CSV
        assert emit("json").endswith('\n  },\n  "rows": [\n    ' + CELLS_JSON_ROW + "\n  ]\n}\n")

    def test_golden_cells_have_table_entries(self):
        # A cell type missing from the tables raises, so every real table must hold only listed types.
        seen, todo = set(), [v for argv, *_ in GOLDEN for row in _rows(argv.split()) for v in row]
        while todo:
            v = todo.pop()
            seen.add(type(v))
            if type(v) in (tuple, list):
                todo.extend(v)
        assert {Partition, QPolynomial, tuple, float, bool, type(None)} <= seen
        assert seen - set(cli._CSV) == set() and seen - set(cli._JSON) == set()
        # gl ratio emits its exact ratios as floats, so no table needs fractions.
        assert Fraction not in seen and Fraction not in cli._CSV and Fraction not in cli._JSON

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cell", [range(0, 2), {"a": 1}, (1, [range(3)]), Fraction(1, 3)])
    def test_unlisted_type_raises(self, fmt, cell):
        # A builder that emits an unlisted type is defective: its repr must not reach the pinned bytes.
        cmd = cli._Command(("x",), "", {}, ("c0", "c1"), lambda a: [(1, cell)])
        args = argparse.Namespace(cmd=cmd, format=fmt, invocation=["x"])
        with pytest.raises(KeyError):
            "".join(cli._emit(args, cmd.rows(args)))


# The writer that _emit replaced, kept as its oracle: every cell through
# the per-format value tables below, then csv.writer, or json.dumps over the
# whole payload.
OLD_CSV = {
    str: str, int: str, type(None): lambda v: "", bool: lambda v: "true" if v else "false",
    float: "{:.12g}".format, Fraction: lambda v: f"{float(v):.12g}",
    Partition: Partition.serialize, QPolynomial: QPolynomial.serialize,
}
OLD_CSV[tuple] = OLD_CSV[list] = lambda v: " ".join([OLD_CSV.get(type(x), str)(x) for x in v])
OLD_JSON = {
    str: str, int: str, type(None): lambda v: v, bool: lambda v: v,
    float: lambda v: float(f"{v:.12g}"), Fraction: lambda v: float(f"{float(v):.12g}"),
    Partition: Partition.serialize, QPolynomial: QPolynomial.serialize,
}
OLD_JSON[tuple] = OLD_JSON[list] = lambda v: [OLD_JSON.get(type(x), str)(x) for x in v]


def oracle_emit(args):
    cmd = args.cmd
    rows = cmd.rows(args)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cmd.columns)
        writer.writerows([OLD_CSV.get(type(v), str)(v) for v in row] for row in rows)
        return buf.getvalue()
    payload = {
        "meta": {
            "invocation": " ".join(args.invocation),
            "version": __version__,
            "seed": getattr(args, "seed", None),
        },
        "rows": [{c: OLD_JSON.get(type(v), str)(v) for c, v in zip(cmd.columns, row)} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


# Text with every character csv.writer or JSON treats specially, and more.
TEXT = st.text(st.sampled_from(',"\r\n \\/\t\x00\x1fab1é€\u2028😀') | st.characters(), max_size=6)
SCALARS = (
    TEXT
    | st.integers() | st.integers(-(10**60), 10**60) | st.sampled_from([10**4299, -(10**4299 - 1)])
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-05, 123456789012.0])
    | st.none() | st.booleans()
    # Parts past serialize's digit table, and polynomials with big signed coefficients.
    | st.lists(st.integers(1, 250), max_size=5).map(lambda ps: Partition(sorted(ps, reverse=True)))
    | st.lists(st.integers(-(10**30), 10**30), max_size=5).map(QPolynomial)
)
CELL = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=4)
# One cell of each named edge, so that every run covers them.
EDGE_ROW = (
    Partition([3, 1]), Partition([5]), Partition([]), Partition([120, 7, 7]), QPolynomial([1, -2, 0, 3]), QPolynomial(),
    float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 10**4299, -(10**40), True, None,
    "a,b", 'say "hi"', "cr\rlf", "line\nbreak", "é€😀", "", (1, [2.5, ("c,d", None)], []),
)


class TestWriterOracle:
    """_emit against the csv.writer and json.dumps route it replaced, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.lists(TEXT, unique=True, max_size=5),
        rows=st.lists(st.lists(CELL, max_size=6).map(tuple), max_size=4),
        seed=st.none() | st.integers(),
    )
    @example(columns=["c"], rows=[("",)], seed=None)  # a row of one empty field
    @example(columns=[], rows=[()], seed=None)  # a row of no fields
    @example(columns=["a", "b"], rows=[("x",), ("x", 1, 2.5)], seed=7)
    @example(columns=[f"c{i}" for i in range(len(EDGE_ROW))], rows=[EDGE_ROW, EDGE_ROW[::-1]], seed=0)
    def test_bytes_match_the_old_writer(self, columns, rows, seed):
        cmd = cli._Command(("x",), "", {}, tuple(columns), lambda a: rows)
        for fmt in ("csv", "json"):
            args = argparse.Namespace(cmd=cmd, format=fmt, invocation=["x", "--seed", "7"], seed=seed)
            assert "".join(cli._emit(args, cmd.rows(args))) == oracle_emit(args)


class TestEmitMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_does_not_grow_with_the_table(self, fmt):
        # _emit holds one row's text at a time: draining the 5,604-row
        # n = 30 table (0.5 MB of CSV, 1.1 MB of JSON) peaks near 2 KB and
        # 5 KB, under a bound that does not grow with the table.
        argv = ["sym", "sweep", "--n", "30", "--format", fmt]
        args = cli.build_parser().parse_args(argv)
        args.invocation = argv
        rows = args.cmd.rows(args)  # builds and caches the level
        sink = collections.deque(maxlen=0)
        tracemalloc.start()
        try:
            sink.extend(cli._emit(args, rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
