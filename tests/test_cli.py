"""CLI surface: formats, determinism, exit codes."""

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repstat import __version__, cli
from repstat.cli import main
from repstat.partitions import Partition, partition_count
from repstat.kirillov import OrbitReport
from repstat.qseries import (
    MAX_CENSUS_Q_BITS, MAX_CLASS_COUNT_N, MAX_GAUSS_ORDER, MAX_POLY_N, MAX_RATIO_BITS, QPolynomial,
)
from repstat.rsk import MAX_PLANCHEREL_CELLS, MAX_PLANCHEREL_N
from repstat.symstats import MAX_HIST_BINS, MAX_SWEEP_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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


def assert_write_failure(proc):
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

    def test_csv_json_numeric_parity(self, capsys):
        _, out_csv, _ = run_cli(capsys, "sym", "sweep", "--n", "6")
        _, out_json, _ = run_cli(capsys, "sym", "sweep", "--n", "6", "--format", "json")
        header, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert len(payload["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, payload["rows"]):
            for name, cell in zip(header, csv_row):
                value = json_row[name]
                if isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == value

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
KIRILLOV_CAP_ALGS = ["ut4", "heis3"]
KIRILLOV_LARGE_PRIMES = ["257", str(2**61 - 1)]

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
    ("kirillov",): [("--alg", alg, "--p", "251") for alg in KIRILLOV_CAP_ALGS]
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

    @pytest.mark.parametrize("alg", KIRILLOV_CAP_ALGS)
    def test_kirillov_state_cap_is_exit_3(self, capsys, alg):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "kirillov", "--alg", alg, "--p", "251")
        assert code == 3 and out == "" and "states" in err
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("p", KIRILLOV_LARGE_PRIMES)
    def test_kirillov_large_prime_is_exit_3(self, capsys, p):
        # Both are prime; the state cap refuses them before any trial division.
        start = time.monotonic()
        code, out, err = run_cli(capsys, "kirillov", "--alg", "heis3", "--p", p)
        assert code == 3 and out == "" and "states" in err
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
        report = payload["report"]
        assert code == 0
        assert report["algebra"] == "heis3" and report["p"] == 3
        assert report["group_order"] == "27"
        assert report["match_kirillov"] is True
        assert report["match_naive"] is False
        assert sorted(set(report["orbit_sizes"])) == ["1", "9"]
        assert list(report) == list(OrbitReport._fields)


# SHA-256 of stdout for one small invocation of every command, in CSV and
# in JSON, as the per-command emitters produced them before the CLI became
# one command table; any change to a table's bytes shows here.
GOLDEN = [
    ("sym sweep --n 6", "8792adc09117445941556f3707cfb7465e751f85df0f672182cf8b94fcb19bac", "b9370bc9e0cf012a399aa13684880f1d1bec44265394e8ce5bed388f03ea1008"),
    ("sym hist --n 10 --what dim --bins 6", "a4484e2016d7bf93f17cc39a9036f39822414c931b75f2b70b9545241dfdb4ce", "08f30dae4bb6d6de24786beb9b62ee46d9e4c51c1673922c348194632f7746a4"),
    ("sym angle --nmax 8", "0f2ade10833685e7e04e1ef84985d05dce53bcad79103c136c939d9ad228b9b5", "79bd3bb3e0fb16c579d2c7113e0d923c9d938d66bddeee886a2d31bc1ded6e13"),
    ("sym intervals --n 7 --alpha 0.3 --beta 0.8", "5b8f5cc58dc0a186d662728f2115ea07a8aed3ac0e380198e2fc4bb538490470", "10425f24ce8b20855f2828b05ed0ec23e32782ec85078d81e5ec6a9a7bda3acb"),
    ("sym layers --n 6", "f6e3e95222d8f99ca6e5dcfb8f50c53421ba3d7812bce5d79e72a7f2cf65322e", "f7d1e17a8fc5bb1d80574234676e0566b22226baadfa94593ed075a97f98d134"),
    ("sym maxdim --nmax 6", "6dabdc2ae2a79264ad6af60f682196102416c94f4202a0b137e93837bf3dc6e2", "e373133d297dc4bc78c00ed25a559791e551414d6c56ed37c6c311dbb64143a9"),
    ("sym plancherel --n 8 --count 5 --seed 3", "598674890d108306a2e50a3e022cb2e2cd6cb10e917874d0c31dc3289f42c138", "4baaf1760aa62cb0ddda2c4585891294c9f65bcdcf4a8713a797b1287776efd1"),
    ("gl gow --nmax 4", "375b0b2af57793e61bcb691b4a5ab8a4085af66aa7b726137f0d27dd76381090", "5a6a518803407a8a9d3cbc909b4dbef7227357eb7dfc3a01140d9dfe2e26de09"),
    ("gl classes --nmax 5", "a3ec8f778d1652894b0508262cec887f9ea51830f538f93263c35567f717b5db", "0d244b5772182df8972e25eee065e170a4b029d7a5c9dca6b9f198bba523fa26"),
    ("gl order --nmax 3", "52bd4040dcb857898b5096a03a62ccf3e383bd7a4c7e3624047f50394d2ffab3", "07b1dc71299d490304b67ae74660368d4bb4e4a87f8fb1b7db77e2748340903e"),
    ("gl ratio --nmax 6 --q 2", "3df0230d2beab5ef0e17fda5accf21921159a57a45aedce725382c0b6cc21a43", "5b19ab630ef6f34d6c4d81ad729c99b3fb893b336a49e6cad6b0408a74d74c57"),
    ("gl census --q 3", "ef9448ab0ed861d174b7b717a28b34b8bcd689f6f44e7de044e7e96143bdc46c", "6cab82ef7e54026acfa50f7004cc29df1a8d52ff03d7f65ef30f89fe03831615"),
    # q = 2 has the zero-count principal-series row; q = 8 is an even prime power.
    ("gl census --q 2", "449ae4edf8de3a539f3cff7cd40be97812d4754c746a79e2100b11d43a2d3889", "1a18599a2e1a7f87d36e8498295ebb80162f954570db3026eab1ffb2fc9bfe80"),
    ("gl census --q 8", "e0e9fa038d99c3e4946780b7351774a8243e5c0c4448bceac736296741781664", "0d25dbe5050afc86324135bc9f2e509a68984ca4336ca1cb6d7c30da917a31ef"),
    ("gl gauss --order 25", "c0188b35f9eb4edfde918bfafd66e2d30dbc4b3d47c542ec744fb73f6934b0d3", "0b1969261fe16f3cfa1f5f364c2980864ceff55dce4ff8112ce8ae63263cf1fc"),
    ("kirillov --alg heis3 --p 3", "bdc7e2ccfa845d6704bb8363d86ca7f9d396834c624ae5d951f9830f36019d09", "e9f888f85f8e03f577368b13b080d3fd789e814667f024e0fb5a074a61ef3996"),
    # Sizes where class sizes and n! pass 64 bits, so ln_big takes its shifted path.
    ("sym sweep --n 30", "d8e5788e860c704ac5ba8cedad18860c797ccdd80cd20a4cfb047358860f4e6d", "dc071648217ab23c3eb359b958b2e46facd972caf3b4961b1b3d060b26938676"),
    ("sym layers --n 24", "ec9b5416c47da0a09faf02a6e94735834f02cc81b39a29951c22789c7b344219", "4dd933fa2ecc311ade2b93260031efffcbc5371ae93299df323c558d895e911f"),
    ("sym maxdim --nmax 24", "9de8b778bcf6db7b4b412a3e3065933b1ce281ae26e16b7529c88d6d1a906ad4", "83fdd5ebcedc39480349438d057960435c153c8b2b1390317058dda0bf481415"),
    # Above the n = 30 pin: rows built by the bottom-up row walk, hashed from
    # the top-down per-partition hook products it replaced.
    ("sym sweep --n 36", "1dd81c7b8908f99a646f5850e85d9ec5ef31b0d039225096b936ebde79782c90", "fc4c4ac4cfae396eb91d505c3485270262d234d6ebfb4db3cb3bee706353de24"),
    ("sym hist --n 26 --what class --bins 20", "d89a37ab692a31c6a06a67e59ee395ae6f647d6d02c7ad4cf85fb138595ff3b1", "868d34ac46d45200db97d3736b9c8b9be5c4c667df1df486d5b6ccff2ce9ea06"),
    # A size the orbit benchmark does not run, hashed from the BFS engine's output.
    ("kirillov --alg ut4 --p 7", "a22719b7eee4d1b6a1f43464ccafcd8a0a40f6e54c5cdaaa40a3a9631d2f6d35", "1af09403416d922dedeba2feec2234209f866b9eb3b0c5a2adcdc9cdb99f18b6"),
    # 20 x 999 stream outputs, hashed from the one-draw-per-step shuffle.
    ("sym plancherel --n 1000 --count 20 --seed 11", "95915ce21c4ab7e3f5948beca238d2ca1889073599067209ec1c74e590aead96", "5418bac6fe27bb0f7eb8d65acb5a6790113021b8f6df4c13a6687ac10c8f72cf"),
    # Benchmark sizes of the Fraction cells and of the polynomial and
    # coefficient-tuple cells, hashed before every cell went through one
    # table per format; the benchmark compares real columns only to 1e-11.
    ("gl ratio --nmax 40 --q 7", "0b01ece074bbd036fc6b4c3e31b12372056ec89eb5cb88a131baea8c4ab9d513", "a3626a2a85a5597c33e0786824675d623021262e87bd8b78405b33567fddf747"),
    ("gl classes --nmax 60", "71fe617efc2ef37d90f010f1055874e8bb298a7325422ef5c60b19be5c1b85d1", "fab5a72d410b3004730042a9915cdaacb55b9770583ce92d21d40b1c6e0dcd79"),
    # The polynomial cap, above the benchmark's 40 and 30, hashed from the
    # (q^a - q^b) pair products that the q^s * prod (q^e - 1) form replaced.
    ("gl gow --nmax 60", "cd969e9313825d9c36c3295f3ae24e76168710a3d505da3a57df52eba98b77c5", "a99e115191fe5b2d9e2a02558d38e235e0e28d0962c7a3f9d4c3dbcc7e520e8d"),
    ("gl order --nmax 60", "18756d88a0e8638563dc644e0904aadf0f1dfd4617faa9d433b16433ad1fb7cb", "e7fb8a9ba0d22f58c06ed7be308e300428cecbdbc4c74f6074e4726747f47eff"),
]


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

    def test_every_command_has_a_golden_entry(self):
        pinned = {tuple(argv.split()) for argv, *_ in GOLDEN}
        missing = [cmd.path for cmd in cli._COMMANDS if not any(a[: len(cmd.path)] == cmd.path for a in pinned)]
        assert missing == []


# One value of every type the cell tables hold: floats at the edges of
# %.12g, a bool beside an int, a partition past the digit table.
CELLS = (
    1e-05, 1e20, 123456789012.0, -0.0, True, 1, None, Fraction(1, 3),
    (1, (0.5, None, False), "a b"), [Fraction(2, 3), -7], Partition([100, 1]), QPolynomial(),
)
# As the isinstance chains that the tables replaced rendered them, with the
# partition and the polynomial serialized first as the row builders then did.
CELLS_CSV = (
    "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11\n"
    '1e-05,1e+20,123456789012,-0,true,1,,0.333333333333,1 0.5  false a b,0.666666666667 -7,"[100,1]",0\n'
)
CELLS_JSON_ROW = """{
      "c0": 1e-05,
      "c1": 1e+20,
      "c2": 123456789012.0,
      "c3": -0.0,
      "c4": true,
      "c5": "1",
      "c6": null,
      "c7": 0.333333333333,
      "c8": [
        "1",
        [
          0.5,
          null,
          false
        ],
        "a b"
      ],
      "c9": [
        0.666666666667,
        "-7"
      ],
      "c10": "[100,1]",
      "c11": "0"
    }"""


def _rows(argv):
    args = cli.build_parser().parse_args(argv)
    return args.cmd.rows(args)[0] if args.cmd.extra else args.cmd.rows(args)


class TestConsoleScript:
    """run(), the ``repstat`` entry, freezes the heap after main; main never does."""

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert run_cli(capsys, "sym", "sweep", "--n", "20")[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [(("--n", "20"), 0), (("--n", "51"), 3)])
    def test_run_freezes_and_exits_with_main_code(self, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["repstat", "sym", "sweep", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()
        assert exc.value.code == code and frozen > 0

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
        emit = lambda fmt: cli._emit(argparse.Namespace(cmd=cmd, format=fmt, invocation=["x"]))
        assert emit("csv") == CELLS_CSV
        assert emit("json").endswith('\n  },\n  "rows": [\n    ' + CELLS_JSON_ROW + "\n  ]\n}\n")

    def test_golden_cells_have_table_entries(self):
        # No cell of a real table may reach the str fallback unnoticed.
        seen, todo = set(), [v for argv, *_ in GOLDEN for row in _rows(argv.split()) for v in row]
        while todo:
            v = todo.pop()
            seen.add(type(v))
            if type(v) in (tuple, list):
                todo.extend(v)
        assert {Fraction, Partition, QPolynomial, tuple, float, bool, type(None)} <= seen
        assert seen - set(cli._CSV) == set() and seen - set(cli._JSON) == set()


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
    rows, extra = cmd.rows(args) if cmd.extra else (cmd.rows(args), {})
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
        **extra,
    }
    return json.dumps(payload, indent=2) + "\n"


# Text with every character csv.writer or JSON treats specially, and more.
TEXT = st.text(st.sampled_from(',"\r\n \\/\t\x00\x1fab1é€\u2028😀') | st.characters(), max_size=6)
SCALARS = (
    TEXT
    | st.integers() | st.integers(-(10**60), 10**60) | st.sampled_from([10**4299, -(10**4299 - 1)])
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-05, 123456789012.0])
    | st.none() | st.booleans() | st.fractions()
    # Parts past serialize's digit table, and polynomials with big signed coefficients.
    | st.lists(st.integers(1, 250), max_size=5).map(lambda ps: Partition(sorted(ps, reverse=True)))
    | st.lists(st.integers(-(10**30), 10**30), max_size=5).map(QPolynomial)
    # A type missing from both tables, whose str holds a comma.
    | st.builds(range, st.integers(-5, 5), st.integers(-5, 5))
)
CELL = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=4)
# One cell of each named edge, so that every run covers them.
EDGE_ROW = (
    Partition([3, 1]), Partition([5]), Partition([]), Partition([120, 7, 7]), QPolynomial([1, -2, 0, 3]), QPolynomial(),
    float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 10**4299, -(10**40), Fraction(-7, 3), True, None,
    "a,b", 'say "hi"', "cr\rlf", "line\nbreak", "é€😀", "", (1, [2.5, ("c,d", None)], []), range(0, 2),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=4,
)


class TestWriterOracle:
    """_emit against the csv.writer and json.dumps route it replaced, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.lists(TEXT, unique=True, max_size=5),
        rows=st.lists(st.lists(CELL, max_size=6).map(tuple), max_size=4),
        extra=st.dictionaries(TEXT.filter(lambda k: k not in ("meta", "rows")), JSON_VALUE, max_size=2),
        seed=st.none() | st.integers(),
    )
    @example(columns=["c"], rows=[("",)], extra={}, seed=None)  # a row of one empty field
    @example(columns=[], rows=[()], extra={}, seed=None)  # a row of no fields
    @example(columns=["a", "b"], rows=[("x",), ("x", 1, 2.5)], extra={"report": {"p": 3, "n": [1.5]}}, seed=7)
    @example(columns=[f"c{i}" for i in range(len(EDGE_ROW))], rows=[EDGE_ROW, EDGE_ROW[::-1]], extra={}, seed=0)
    def test_bytes_match_the_old_writer(self, columns, rows, extra, seed):
        cmd = cli._Command(("x",), "", {}, tuple(columns), lambda a: (rows, extra), extra=True)
        for fmt in ("csv", "json"):
            args = argparse.Namespace(cmd=cmd, format=fmt, invocation=["x", "--seed", "7"], seed=seed)
            assert cli._emit(args) == oracle_emit(args)


class TestEmitMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_is_at_most_four_times_the_text(self, fmt):
        # At the peak the per-row strings and the joined text are alive
        # together; a second full copy of the text would add one more length.
        argv = ["sym", "sweep", "--n", "30", "--format", fmt]
        args = cli.build_parser().parse_args(argv)
        args.invocation = argv
        cli._emit(args)  # builds and caches the level
        tracemalloc.start()
        try:
            text = cli._emit(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), peak / len(text)
