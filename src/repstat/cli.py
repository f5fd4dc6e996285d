"""Command-line surface: reproducible CSV/JSON emission for every table.

Exit codes: 0 success, 2 usage or validation error (a failed write to
stdout or ``--out`` included), 3 size-cap refusal, 4 internal invariant
violation.  Identical invocations produce byte-identical output;
figure-style data is emitted as tables, plotting is left to other tools.

Every command is one entry of ``_COMMANDS``: its path, help, flags, columns
and a row builder.  ``build_parser`` turns the table into argparse
subcommands and ``_emit`` renders any entry's rows as CSV or JSON text, one
string per row, joined once.  Rows hold library values; each format renders
every cell through one table keyed by the cell's exact type (``_CSV``,
``_JSON``) that returns the finished field.  The tables list every cell
type a row builder emits: a cell of any other type is a builder defect,
and it raises KeyError rather than reach the output as its str.  CSV
fields are quoted as ``csv.writer``'s QUOTE_MINIMAL quotes them, which
only str, partition and sequence text can need.  JSON is written in the
layout of ``json.dumps(payload, indent=2)``: str cells are escaped by
json's C ``encode_basestring_ascii``, and only the ``meta`` block and the
extra payload pass through ``json.dumps``.  The tests keep ``csv.writer``
and the whole-payload ``json.dumps`` as the oracle for these bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import __version__
from .kirillov import ALGEBRAS, kirillov_report
from .partitions import Partition, partition_count
from .qseries import (
    MAX_CLASS_COUNT_N, MAX_POLY_N, MAX_RATIO_BITS, QPolynomial, feit_fine, gamma_q, gauss_identity_check,
    gl2_census, gl_order, gow_sum, log_constant_ratio,
)
from .rsk import sample_plancherel
from .symstats import (
    MAX_SWEEP_N, CapExceededError, IntegrityError, _check_cap, angle_report, asymptotic_estimates, histogram,
    interval_counts, involution_count, layer_sums, ln_big, max_dimension, sweep, vk_ratio,
)

GAMMA_REFERENCE_TERMS = 40

# Cell text by exact type: big integers as decimal strings, reals to 12
# significant digits, sequences space-joined.
_TEXT = {
    str: str, int: str, type(None): lambda v: "", bool: lambda v: "true" if v else "false",
    float: "{:.12g}".format, Fraction: lambda v: f"{float(v):.12g}",
    Partition: Partition.serialize, QPolynomial: QPolynomial.serialize,
}
_TEXT[tuple] = _TEXT[list] = lambda v: " ".join([_TEXT[type(x)](x) for x in v])

# csv.writer(lineterminator="\n") quotes a field that holds a comma, a quote
# or a newline, and from Python 3.13 one that holds a carriage return.
_CSV_QUOTED = re.compile('[,"\n\r]' if sys.version_info >= (3, 13) else '[,"\n]')


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as csv.writer's QUOTE_MINIMAL does."""
    if _CSV_QUOTED.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


# Finished CSV fields by exact type.  Only str, partition and sequence text
# can hold a comma, a quote or a newline; a partition's only when it has two
# or more parts, and then it holds a comma and no quote.
_CSV = _TEXT | {str: _csv_field, Partition: lambda v: f'"{v.serialize()}"' if len(v) > 1 else v.serialize()}
_CSV[tuple] = _CSV[list] = lambda v: _csv_field(_TEXT[tuple](v))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(v: float) -> str:
    """v rounded to 12 significant digits, in json.dumps's float text (repr)."""
    text = f"{v:.12g}"
    # A point without an exponent: repr writes the same digits in the same
    # notation, as no shorter decimal can round to that float.
    if "." in text and "e" not in text:
        return text
    text = repr(float(text))
    return _JSON_NONFINITE.get(text, text)


def _json_seq(v, pad: str = "\n      ") -> str:
    """A sequence as a JSON list laid out as json.dumps(indent=2) does, closing at pad.

    The default pad is the depth of a row's cells.
    """
    if not v:
        return "[]"
    inner = pad + "  "
    items = [_json_seq(x, inner) if type(x) in (tuple, list) else _JSON[type(x)](x) for x in v]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


# Finished JSON text by exact type: big integers as strings, reals rounded
# to 12 significant digits, sequences as lists.  Partition and polynomial
# text is ASCII without quotes or backslashes, so it needs no escaping.
_JSON = {
    str: encode_basestring_ascii, int: lambda v: f'"{v}"', type(None): lambda v: "null", bool: _TEXT[bool],
    float: _json_float, Fraction: lambda v: _json_float(float(v)),
    Partition: lambda v: f'"{v.serialize()}"', QPolynomial: lambda v: f'"{v.serialize()}"',
    tuple: _json_seq, list: _json_seq,
}


class _Command(NamedTuple):
    """One table: where it sits in the CLI, its flags, columns and rows.

    ``rows(args)`` returns an iterable of tuples in column order whose
    cells are library values (ints, floats, partitions, polynomials, ...),
    formatted only through the cell tables; with ``extra`` set it returns
    ``(rows, extra)`` and the dict ``extra`` joins the JSON payload.
    Builders look library functions up by their global names at call time,
    so a profiler that rebinds those names sees every call.
    """

    path: tuple[str, ...]
    help: str
    args: dict
    columns: tuple[str, ...]
    rows: Callable
    extra: bool = False


def _emit(args) -> str:
    """The command's table as CSV or as JSON, in the layout of csv.writer or json.dumps(indent=2).

    Each row becomes one string, and the strings are joined once.
    """
    cmd = args.cmd
    rows, extra = cmd.rows(args) if cmd.extra else (cmd.rows(args), {})
    if args.format == "csv":
        fields = ([_CSV[type(v)](v) for v in row] for row in chain((cmd.columns,), rows))
        # csv.writer writes a row of one empty field as "", so that it reads back as a row.
        lines = [",".join(f) or '""' * len(f) for f in fields]
        lines.append("")
        return "\n".join(lines)
    meta = {"invocation": " ".join(args.invocation), "version": __version__, "seed": getattr(args, "seed", None)}
    lines = ['{\n  "meta": ' + _json_nested(meta) + ',\n  "rows": [', *_json_rows(cmd.columns, rows)]
    lines.append("\n  ]" if len(lines) > 1 else "]")
    lines += [f",\n  {encode_basestring_ascii(k)}: {_json_nested(v)}" for k, v in extra.items()]
    lines.append("\n}\n")
    return "".join(lines)


def _json_nested(value) -> str:
    """json.dumps(value, indent=2) at the depth of a top-level key."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _json_rows(columns, rows):
    """Each row as a JSON object at the depth of the rows list, after its separator.

    Rows are zipped to the columns, so a short row gives fewer keys and a
    long row's extra cells are dropped.
    """
    keys = [f"      {encode_basestring_ascii(c)}: " for c in columns]
    sep = "\n    "
    for row in rows:
        body = ",\n".join([k + _JSON[type(v)](v) for k, v in zip(keys, row)])
        yield f"{sep}{{\n{body}\n    }}" if body else sep + "{}"
        sep = ",\n    "


def _sized_range(nmax: int, cap: int) -> range:
    """1..nmax, refusing an nmax below 1 or above cap before any row is computed."""
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    _check_cap(nmax, cap, "nmax")
    return range(1, nmax + 1)


def _poly_rows(pairs):
    return [(n, poly, poly.coeffs) for n, poly in pairs]


def _hist_rows(a):
    value = {"dim": lambda r: float(r.dim), "dimsq": lambda r: r.log_dim_sq, "class": lambda r: r.log_class}[a.what]
    # sweep(n) runs at the generator's first step, after histogram has checked bins.
    edges, counts = histogram((value(r) for n in (a.n,) for r in sweep(n)), a.bins)
    return list(zip(edges, edges[1:], counts))


def _intervals_rows(a):
    c = interval_counts(a.n, a.alpha, a.beta)
    ratio = c.count_dim_sq / c.count_class if c.count_class else None
    return [(*c, ratio)]


def _maxdim_rows(a):
    rows = []
    for n in _sized_range(a.nmax, MAX_SWEEP_N):
        m, argmax = max_dimension(n)
        mean_log = ln_big(involution_count(n)) - ln_big(partition_count(n))
        log_avg = asymptotic_estimates(n)[3]
        argmax = ";".join(lam.serialize() for lam in argmax)
        rows.append((n, m, argmax, vk_ratio(n), ln_big(m), mean_log, log_avg))
    return rows


def _ratio_rows(a):
    if a.q < 2:
        raise ValueError(f"q must be at least 2, got {a.q}")
    ns = _sized_range(a.nmax, MAX_CLASS_COUNT_N)
    # The exact ratios grow with the bit size of q^(nmax^2); gamma_q bounds its own sum.
    _check_cap(a.nmax**2 * a.q.bit_length(), MAX_RATIO_BITS, f"--nmax {a.nmax} --q {a.q}: nmax^2 * bits(q)")
    inv_gamma = 1 / gamma_q(a.q, GAMMA_REFERENCE_TERMS).value
    return [(n, log_constant_ratio(n, a.q), inv_gamma) for n in ns]


def _kirillov_rows(a):
    report = kirillov_report(ALGEBRAS[a.alg], a.p)
    rows = []
    for kind, sizes in (("orbit", report.orbit_sizes), ("class", report.class_sizes), ("dim", report.rep_dims)):
        rows += [(kind, s, m, None) for s, m in sorted(Counter(sizes).items())]
    rows.append(("group_order", report.group_order, None, None))
    rows.append(("match_kirillov", None, None, report.match_kirillov))
    rows.append(("match_naive", None, None, report.match_naive))
    # Every report field as its JSON cell, read back as a value, except that p stays a number.
    extra = {"report": {k: json.loads(_JSON[type(v)](v)) for k, v in report._asdict().items()} | {"p": report.p}}
    return rows, extra


def _int(text: str) -> int:
    """int(text), with a diagnostic that quotes at most a prefix of an inconvertible value."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


_INT = {"type": _int, "required": True}
_FLOAT = {"type": float, "required": True}
_POLY_COLUMNS = ("n", "polynomial", "coeffs")
_TOPICS = {"sym": "symmetric group tables", "gl": "GL_n(F_q) polynomial tables"}

_COMMANDS = (
    _Command(
        ("sym", "sweep"), "per-partition dimensions and class sizes", {"--n": _INT},
        ("partition", "dim", "class_size", "ln_dim_sq", "ln_class"),
        lambda a: sweep(a.n),
    ),
    _Command(
        ("sym", "hist"), "histogram of dims or log data",
        {"--n": _INT, "--what": {"choices": ["dim", "dimsq", "class"], "default": "dimsq"}, "--bins": _INT},
        ("bin_left", "bin_right", "count"), _hist_rows,
    ),
    _Command(
        ("sym", "angle"), "cosine against the constant vector", {"--nmax": _INT},
        ("n", "sum_dim", "sum_dim_sq", "count", "cos_sq", "log_ratio", "predicted_log"),
        lambda a: list(map(angle_report, _sized_range(a.nmax, MAX_SWEEP_N))),
    ),
    _Command(
        ("sym", "intervals"), "window counts of log data", {"--n": _INT, "--alpha": _FLOAT, "--beta": _FLOAT},
        ("n", "alpha", "beta", "count_dim_sq", "count_class", "ratio"), _intervals_rows,
    ),
    _Command(
        ("sym", "layers"), "log sums grouped by largest part", {"--n": _INT},
        ("k", "sum_ln_dim_sq", "sum_ln_class"),
        lambda a: layer_sums(a.n),
    ),
    _Command(
        ("sym", "maxdim"), "max dimension and related curves", {"--nmax": _INT},
        ("n", "max_dim", "argmax", "vk_ratio", "ln_max_dim", "ln_mean_dim", "ln_asym_avg_dim"), _maxdim_rows,
    ),
    _Command(
        ("sym", "plancherel"), "seeded Plancherel samples", {"--n": _INT, "--count": _INT, "--seed": _INT},
        ("index", "shape", "ln_pl"),
        lambda a: [(k, *sample) for k, sample in enumerate(sample_plancherel(a.n, a.seed, a.count))],
    ),
    _Command(
        ("gl", "gow"), "degree-sum polynomials", {"--nmax": _INT}, _POLY_COLUMNS,
        lambda a: _poly_rows((n, gow_sum(n)) for n in _sized_range(a.nmax, MAX_POLY_N)),
    ),
    _Command(
        ("gl", "classes"), "class-count polynomials", {"--nmax": _INT}, _POLY_COLUMNS,
        lambda a: _poly_rows(enumerate(feit_fine(a.nmax))),
    ),
    _Command(
        ("gl", "order"), "group-order polynomials", {"--nmax": _INT}, _POLY_COLUMNS,
        lambda a: _poly_rows((n, gl_order(n)) for n in _sized_range(a.nmax, MAX_POLY_N)),
    ),
    _Command(
        ("gl", "ratio"), "degree-sum concentration ratio", {"--nmax": _INT, "--q": _INT},
        ("n", "ratio", "inv_gamma_ref"), _ratio_rows,
    ),
    _Command(
        ("gl", "census"), "GL_2 representation and class census", {"--q": _INT},
        ("kind", "count", "value", "weight", "ok"), lambda a: gl2_census(a.q),
    ),
    _Command(
        ("gl", "gauss"), "triangular-number series identity", {"--order": _INT},
        ("order", "equal"), lambda a: [(a.order, gauss_identity_check(a.order))],
    ),
    _Command(
        ("kirillov",), "orbit method on unitriangular groups",
        {"--alg": {"choices": sorted(ALGEBRAS), "required": True}, "--p": _INT},
        ("kind", "size", "multiplicity", "ok"), _kirillov_rows, extra=True,
    ),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> _Parser:
    parser = _Parser(prog="repstat", description="Exact dimension statistics of finite groups")
    topics = parser.add_subparsers(dest="topic", required=True)
    groups = {}
    for cmd in _COMMANDS:
        *topic, name = cmd.path
        if topic and topic[0] not in groups:
            group = topics.add_parser(topic[0], help=_TOPICS[topic[0]])
            groups[topic[0]] = group.add_subparsers(dest="command", required=True)
        p = (groups[topic[0]] if topic else topics).add_parser(name, help=cmd.help)
        for flag, spec in cmd.args.items():
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.invocation = argv
        text = _emit(args)
    except _UsageError as exc:
        print(f"repstat: usage error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"repstat: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"repstat: invalid request: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"repstat: internal invariant violation: {exc}", file=sys.stderr)
        return 4
    to_file = args.out is not None
    try:
        with open(args.out, "w", encoding="utf-8", newline="") if to_file else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        if not to_file:
            # A closed pipe or full device: point fd 1 at devnull, so the
            # interpreter's flush at exit does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"repstat: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """Console-script entry: run main, then exit with its code.

    The interpreter's shutdown runs full collections over every tracked
    object still alive, and a swept level keeps hundreds of thousands of
    tuple-subclass records tracked in sweep's cache.  Freezing moves them
    to the permanent generation, which those collections skip, once the
    output is written; refcounting still frees them, and stdout is still
    flushed at exit.  main itself never freezes: in-process callers would
    keep every object then alive out of reach of the cycle collector.
    """
    code = main()
    # Spare the exit a garbage walk over the tables main built.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
