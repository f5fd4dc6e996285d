"""Command-line surface: reproducible CSV/JSON emission for every table.

Exit codes: 0 success, 2 usage or validation error (a failed write to
stdout or ``--out`` included), 3 size-cap refusal, 4 internal invariant
violation.  Identical invocations produce byte-identical output;
figure-style data is emitted as tables, plotting is left to other tools.

Every command is one entry of ``_COMMANDS``: its path, help, flags, columns
and a row builder.  ``build_parser`` turns the table into argparse
subcommands, each parser filled as argparse first hands it arguments: the
top parser adds the topics when it starts to parse, a topic its commands
when the argv names it, a command its flags, so one call builds only the
parsers on its own path (4 for ``kirillov``, 10 for a ``gl`` and 11 for a
``sym`` command, against 17 for all).  ``main`` builds a command's rows in full
before it writes anything, so a refusal (exit 2, 3 or 4) writes nothing and
opens no ``--out`` file.  Then ``_emit`` renders the rows as CSV or JSON
text one row at a time, and ``main`` writes the text as it comes,
``ROWS_PER_WRITE`` rows to a write, so the writer holds one block of rows
whatever the table's size.  A failed write, or a cell type missing from the
tables, may leave a prefix of the table written.  Rows hold library values;
each format renders every cell through one table keyed by the cell's exact
type (``_CSV``, ``_JSON``) that returns the finished field.  The tables
list every cell type a row builder emits: a cell of any other type is a
builder defect, and it raises KeyError rather than reach the output as its
str.  CSV fields are quoted as ``csv.writer``'s QUOTE_MINIMAL quotes them,
which only str, partition and sequence text can need.  JSON is written in
the layout of ``json.dumps(payload, indent=2)``: str cells are escaped by
json's C ``encode_basestring_ascii``, and only the ``meta`` block passes
through ``json.dumps``.  json is imported when a JSON table is written, and
not by ``import repstat.cli`` or a CSV table; no table cell is a
``Fraction``.  Every JSON table is ``meta`` plus ``rows``.  The tests keep
``csv.writer`` and the whole-payload ``json.dumps`` as the oracle for these
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import sys
from functools import partial
from itertools import chain, islice
from typing import Callable, NamedTuple

from . import __version__
from .kirillov import ALGEBRAS, kirillov_report
from .partitions import Partition
from .qseries import (
    MAX_CLASS_COUNT_N, MAX_POLY_N, MAX_RATIO_BITS, QPolynomial, feit_fine, gamma_q, gauss_identity_check,
    gl2_census, gl_order, gow_sum, log_constant_ratio,
)
from .rsk import sample_plancherel
from .symstats import (
    MAX_SWEEP_N, CapExceededError, IntegrityError, _check_cap, angle_report, histogram, interval_counts,
    involution_count, layer_sums, ln_big, log_mean_dimension_estimate, max_dimension, sweep, vk_ratio,
)

GAMMA_REFERENCE_TERMS = 40

# Rows joined into one write.  A write-through stdout (PYTHONUNBUFFERED=1)
# makes a system call per write: one write per row took a fifth longer to
# write the 26,016 lines of ``sym sweep --n 38`` than one write in all, and
# a block of rows keeps the writer's memory bounded all the same.
ROWS_PER_WRITE = 64

# Cell text by exact type: big integers as decimal strings, reals to 12
# significant digits, sequences space-joined.
_TEXT = {
    str: str, int: str, type(None): lambda v: "", bool: lambda v: "true" if v else "false",
    float: "{:.12g}".format, Partition: Partition.serialize, QPolynomial: QPolynomial.serialize,
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


def _json_str(v: str) -> str:
    """v as a JSON string, escaped to ASCII by json's C encoder.

    json is imported here rather than with this module, so that CSV output
    never loads it.  Only the ``kind`` and ``argmax`` columns hold str cells,
    so the import's per-call lookup stays off the large tables.
    """
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(v)


# Finished JSON text by exact type: big integers as strings, reals rounded
# to 12 significant digits, sequences as lists.  Partition and polynomial
# text is ASCII without quotes or backslashes, so it needs no escaping.
_JSON = {
    str: _json_str, int: lambda v: f'"{v}"', type(None): lambda v: "null", bool: _TEXT[bool],
    float: _json_float, Partition: lambda v: f'"{v.serialize()}"', QPolynomial: lambda v: f'"{v.serialize()}"',
    tuple: _json_seq, list: _json_seq,
}


class _Command(NamedTuple):
    """One table: where it sits in the CLI, its flags, columns and rows.

    ``rows(args)`` returns a list or tuple of tuples in column order, built
    in full before any text is written, whose cells are library values
    (ints, floats, partitions, polynomials, ...), formatted only through
    the cell tables.  Builders look library functions up by their global
    names at call time, so a profiler that rebinds those names sees every
    call.
    """

    path: tuple[str, ...]
    help: str
    args: dict
    columns: tuple[str, ...]
    rows: Callable


def _emit(args, rows):
    """The table of rows as CSV or as JSON, in the layout of csv.writer or json.dumps(indent=2).

    Yields each row's finished text in order, after the header or the JSON
    head and before the JSON tail, so the text joined is the whole table.
    rows is the list or tuple the command's builder returned.
    """
    cmd = args.cmd
    if args.format == "csv":
        for row in chain((cmd.columns,), rows):
            fields = [_CSV[type(v)](v) for v in row]
            # csv.writer writes a row of one empty field as "", so that it reads back as a row.
            yield (",".join(fields) or '""' * len(fields)) + "\n"
        return
    meta = {"invocation": " ".join(args.invocation), "version": __version__, "seed": getattr(args, "seed", None)}
    yield '{\n  "meta": ' + _json_nested(meta) + ',\n  "rows": ['
    yield from _json_rows(cmd.columns, rows)
    yield "\n  ]\n}\n" if rows else "]\n}\n"


def _json_nested(value) -> str:
    """json.dumps(value, indent=2) at the depth of a top-level key."""
    import json

    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _json_rows(columns, rows):
    """Each row as a JSON object at the depth of the rows list, after its separator.

    Rows are zipped to the columns, so a short row gives fewer keys and a
    long row's extra cells are dropped.
    """
    keys = [f"      {_json_str(c)}: " for c in columns]
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
        level = sweep(n)
        m, argmax = max_dimension(level)
        mean_log = ln_big(involution_count(n)) - ln_big(len(level))
        argmax = ";".join(lam.serialize() for lam in argmax)
        rows.append((n, m, argmax, vk_ratio(n, m), ln_big(m), mean_log, log_mean_dimension_estimate(n)))
    return rows


def _ratio_rows(a):
    if a.q < 2:
        raise ValueError(f"q must be at least 2, got {a.q}")
    ns = _sized_range(a.nmax, MAX_CLASS_COUNT_N)
    # The exact ratios grow with the bit size of q^(nmax^2); gamma_q bounds its own sum.
    _check_cap(a.nmax**2 * a.q.bit_length(), MAX_RATIO_BITS, f"--nmax {a.nmax} --q {a.q}: nmax^2 * bits(q)")
    inv_gamma = float(1 / gamma_q(a.q, GAMMA_REFERENCE_TERMS).value)
    feit_fine(a.nmax)  # one expansion to nmax, so that no row re-expands the class counts
    # The exact ratios as floats, which is all that their cells print.
    return [(n, float(log_constant_ratio(n, a.q)), inv_gamma) for n in ns]


def _kirillov_rows(a):
    report = kirillov_report(ALGEBRAS[a.alg], a.p)
    rows = []
    for kind, pairs in (("orbit", report.orbit_sizes), ("class", report.class_sizes), ("dim", report.rep_dims)):
        rows += [(kind, s, m, None) for s, m in pairs]
    rows.append(("group_order", report.group_order, None, None))
    rows.append(("match_kirillov", None, None, report.match_kirillov))
    rows.append(("match_naive", None, None, report.match_naive))
    return rows


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
        ("kind", "size", "multiplicity", "ok"), _kirillov_rows,
    ),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that adds its contents just before it first parses.

    ``fill(parser)`` adds this parser's subparsers or flags.  argparse hands
    a subparser its arguments through ``parse_known_args`` (3.10 to 3.13),
    so only the parsers on the path of one argv are ever filled.  Help and
    usage text asked for directly fill the parser first as well.
    """

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def _fill_once(self):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self._fill_once()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._fill_once()
        return super().format_usage()

    def format_help(self):
        self._fill_once()
        return super().format_help()

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> _Parser:
    return _Parser(prog="repstat", description="Exact dimension statistics of finite groups", fill=_add_topics)


def _add_topics(parser: _Parser) -> None:
    """The topics and top-level commands, in the order of ``_COMMANDS``."""
    topics = parser.add_subparsers(dest="topic", required=True)
    for cmd in _COMMANDS:
        if len(cmd.path) == 1:
            topics.add_parser(cmd.path[0], help=cmd.help, fill=partial(_add_flags, cmd=cmd))
        elif cmd.path[0] not in topics.choices:
            topic = cmd.path[0]
            topics.add_parser(topic, help=_TOPICS[topic], fill=partial(_add_commands, topic=topic))


def _add_commands(parser: _Parser, topic: str) -> None:
    commands = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        if cmd.path[:-1] == (topic,):
            commands.add_parser(cmd.path[-1], help=cmd.help, fill=partial(_add_flags, cmd=cmd))


def _add_flags(parser: _Parser, cmd: _Command) -> None:
    for flag, spec in cmd.args.items():
        parser.add_argument(flag, **spec)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.set_defaults(cmd=cmd)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.invocation = argv
        rows = args.cmd.rows(args)
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
            chunks = _emit(args, rows)
            # Every chunk is non-empty, so an empty block means the table is written.
            while block := "".join(islice(chunks, ROWS_PER_WRITE)):
                fh.write(block)
            fh.flush()
    except OSError as exc:
        if not to_file:
            # A closed pipe or full device: point fd 1 at devnull, so the
            # interpreter's flush at exit does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        print(f"repstat: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """Console-script entry: run main, then exit with its code.

    The collector is off for the whole run.  main builds its rows from
    acyclic tuples and lists, so the only cycles it leaves are the few
    hundred objects of its argument parser (and of json's encoder for a
    JSON meta block), the same for every table and left to the exit.
    With the collector on, the growing level of a sweep (a tracked record
    and partition per row) paid hundreds of collections that found
    nothing to free.  Interpreter shutdown runs full collections over
    every tracked object still alive, collector off or not, so the heap
    is frozen once the output is written: those collections skip the
    permanent generation, refcounting still frees its objects, and
    stdout is still flushed at exit.  main itself touches neither, so
    in-process callers keep their collector as they set it and every
    object they hold in its reach.
    """
    gc.disable()
    code = main()
    # Spare the exit a garbage walk over the tables main built.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
