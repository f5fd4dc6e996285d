"""Command-line surface: reproducible CSV/JSON emission for every table.

Exit codes: 0 success, 2 usage or validation error, 3 size-cap refusal,
4 internal invariant violation.  Identical invocations produce byte-identical
output; figure-style data is emitted as tables, plotting is left to other
tools.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .kirillov import ALGEBRAS, kirillov_report
from .partitions import partition_count
from .qseries import (
    MAX_CLASS_COUNT_N,
    MAX_POLY_N,
    census_class_count_polynomial,
    feit_fine,
    gamma_q,
    gauss_identity_check,
    gl2_census,
    gl_order,
    gow_sum,
    log_constant_ratio,
)
from .rsk import sample_plancherel
from .symstats import (
    DEFAULT_SWEEP_CAP,
    CapExceededError,
    IntegrityError,
    angle_report,
    asymptotic_estimates,
    histogram,
    interval_counts,
    involution_count,
    layer_sums,
    ln_big,
    max_dimension,
    sweep,
    vk_ratio,
)

GAMMA_REFERENCE_TERMS = 40


def _fmt_real(x: float) -> str:
    return f"{x:.12g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_real(value)
    if isinstance(value, Fraction):
        return _fmt_real(float(value))
    if isinstance(value, (list, tuple)):
        return " ".join(_csv_cell(v) for v in value)
    return str(value)


def _json_cell(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return float(_fmt_real(value))
    if isinstance(value, Fraction):
        return float(_fmt_real(float(value)))
    if isinstance(value, (list, tuple)):
        return [_json_cell(v) for v in value]
    return str(value)


def _emit(args, columns, rows, seed=None, extra=None) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
        return buf.getvalue()
    payload = {
        "meta": {
            "invocation": " ".join(args.invocation),
            "version": __version__,
            "seed": seed,
        },
        "rows": [{c: _json_cell(row[c]) for c in columns} for row in rows],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2) + "\n"


def _poly_row(n: int, poly) -> dict:
    return {
        "n": n,
        "polynomial": poly.serialize(),
        "coeffs": [str(c) for c in poly.coeffs],
    }


def _cmd_sym_sweep(args) -> str:
    rows = [
        {
            "partition": rec.lam.serialize(),
            "dim": rec.dim,
            "class_size": rec.class_size,
            "ln_dim_sq": rec.log_dim_sq,
            "ln_class": rec.log_class,
        }
        for rec in sweep(args.n, args.cap)
    ]
    return _emit(args, ["partition", "dim", "class_size", "ln_dim_sq", "ln_class"], rows)


def _cmd_sym_hist(args) -> str:
    records = list(sweep(args.n, args.cap))
    if args.what == "dim":
        values = [float(rec.dim) for rec in records]
    elif args.what == "dimsq":
        values = [rec.log_dim_sq for rec in records]
    else:
        values = [rec.log_class for rec in records]
    hist = histogram(values, args.bins)
    rows = [
        {"bin_left": hist.bin_edges[i], "bin_right": hist.bin_edges[i + 1], "count": c}
        for i, c in enumerate(hist.counts)
    ]
    return _emit(args, ["bin_left", "bin_right", "count"], rows)


def _cmd_sym_angle(args) -> str:
    rows = []
    for n in range(1, args.nmax + 1):
        rep = angle_report(n, args.cap)
        rows.append(
            {
                "n": rep.n,
                "sum_dim": rep.sum_dim,
                "sum_dim_sq": rep.sum_dim_sq,
                "count": rep.count,
                "cos_sq": rep.cos_sq,
                "log_ratio": rep.log_ratio,
                "predicted_log": rep.predicted_log,
            }
        )
    columns = ["n", "sum_dim", "sum_dim_sq", "count", "cos_sq", "log_ratio", "predicted_log"]
    return _emit(args, columns, rows)


def _cmd_sym_intervals(args) -> str:
    counts = interval_counts(args.n, args.alpha, args.beta, args.cap)
    ratio = (
        counts.count_dim_sq / counts.count_class if counts.count_class else None
    )
    rows = [
        {
            "n": counts.n,
            "alpha": counts.alpha,
            "beta": counts.beta,
            "count_dim_sq": counts.count_dim_sq,
            "count_class": counts.count_class,
            "ratio": ratio,
        }
    ]
    columns = ["n", "alpha", "beta", "count_dim_sq", "count_class", "ratio"]
    return _emit(args, columns, rows)


def _cmd_sym_layers(args) -> str:
    rows = []
    for k in range(1, args.n + 1):
        a, b = layer_sums(args.n, k, args.cap)
        rows.append({"k": k, "sum_ln_dim_sq": a, "sum_ln_class": b})
    return _emit(args, ["k", "sum_ln_dim_sq", "sum_ln_class"], rows)


def _cmd_sym_maxdim(args) -> str:
    rows = []
    for n in range(1, args.nmax + 1):
        m, argmax = max_dimension(n, args.cap)
        mean_log = ln_big(involution_count(n)) - ln_big(partition_count(n))
        _, _, _, log_avg = asymptotic_estimates(n)
        rows.append(
            {
                "n": n,
                "max_dim": m,
                "argmax": ";".join(lam.serialize() for lam in argmax),
                "vk_ratio": vk_ratio(n, args.cap),
                "ln_max_dim": ln_big(m),
                "ln_mean_dim": mean_log,
                "ln_asym_avg_dim": log_avg,
            }
        )
    columns = ["n", "max_dim", "argmax", "vk_ratio", "ln_max_dim", "ln_mean_dim", "ln_asym_avg_dim"]
    return _emit(args, columns, rows)


def _cmd_sym_plancherel(args) -> str:
    rows = [
        {"index": k, "shape": shape.serialize(), "ln_pl": log_pl}
        for k, (shape, log_pl) in enumerate(sample_plancherel(args.n, args.seed, args.count))
    ]
    return _emit(args, ["index", "shape", "ln_pl"], rows, seed=args.seed)


def _sized_range(nmax: int, cap: int) -> range:
    """1..nmax, refusing an nmax above cap before any row is computed."""
    if nmax > cap:
        raise CapExceededError(nmax, cap, f"--nmax {nmax} exceeds the cap {cap}")
    return range(1, nmax + 1)


def _cmd_gl_gow(args) -> str:
    rows = [_poly_row(n, gow_sum(n)) for n in _sized_range(args.nmax, MAX_POLY_N)]
    return _emit(args, ["n", "polynomial", "coeffs"], rows)


def _cmd_gl_classes(args) -> str:
    rows = [_poly_row(n, poly) for n, poly in enumerate(feit_fine(args.nmax))]
    return _emit(args, ["n", "polynomial", "coeffs"], rows)


def _cmd_gl_order(args) -> str:
    rows = [_poly_row(n, gl_order(n)) for n in _sized_range(args.nmax, MAX_POLY_N)]
    return _emit(args, ["n", "polynomial", "coeffs"], rows)


def _cmd_gl_ratio(args) -> str:
    if args.q < 2:
        raise ValueError(f"q must be at least 2, got {args.q}")
    reference = gamma_q(args.q, GAMMA_REFERENCE_TERMS)
    inv_gamma = 1 / reference.value
    rows = [
        {
            "n": n,
            "ratio": log_constant_ratio(n, args.q),
            "inv_gamma_ref": inv_gamma,
        }
        for n in _sized_range(args.nmax, MAX_CLASS_COUNT_N)
    ]
    return _emit(args, ["n", "ratio", "inv_gamma_ref"], rows)


def _cmd_gl_census(args) -> str:
    census = gl2_census(args.q)
    rows = []
    for count, dim in census.rep_rows:
        rows.append({"kind": "rep", "count": count, "value": dim, "weight": count * dim * dim, "ok": None})
    for count, size in census.class_rows:
        rows.append({"kind": "class", "count": count, "value": size, "weight": count * size, "ok": None})
    for count, size in census.class_rows_printed[3:]:
        rows.append({"kind": "class_printed_elliptic", "count": count, "value": size, "weight": count * size, "ok": None})
    base = sum(c * s for c, s in census.class_rows[:3])
    for size, passes in census.elliptic_candidates:
        count = census.class_rows[3][0]
        rows.append(
            {
                "kind": "elliptic_candidate",
                "count": count,
                "value": size,
                "weight": base + count * size,
                "ok": passes,
            }
        )
    rows.append(
        {
            "kind": "check_rep_sum",
            "count": None,
            "value": census.group_order,
            "weight": sum(c * d * d for c, d in census.rep_rows),
            "ok": census.rep_identity_ok and census.rep_identity_symbolic_ok,
        }
    )
    rows.append(
        {
            "kind": "check_class_sum",
            "count": None,
            "value": census.group_order,
            "weight": sum(c * s for c, s in census.class_rows),
            "ok": census.class_identity_ok and census.class_identity_symbolic_ok,
        }
    )
    class_count_poly = census_class_count_polynomial()
    rows.append(
        {
            "kind": "check_class_count",
            "count": census.class_count_total,
            "value": feit_fine(2)[2].evaluate(args.q),
            "weight": None,
            "ok": class_count_poly == feit_fine(2)[2],
        }
    )
    return _emit(args, ["kind", "count", "value", "weight", "ok"], rows)


def _cmd_gl_gauss(args) -> str:
    rows = [{"order": args.order, "equal": gauss_identity_check(args.order)}]
    return _emit(args, ["order", "equal"], rows)


def _cmd_kirillov(args) -> str:
    report = kirillov_report(ALGEBRAS[args.alg], args.p)
    rows = []
    for kind, sizes in (("orbit", report.orbit_sizes), ("class", report.class_sizes), ("dim", report.rep_dims)):
        seen: dict[int, int] = {}
        for s in sizes:
            seen[s] = seen.get(s, 0) + 1
        for s in sorted(seen):
            rows.append({"kind": kind, "size": s, "multiplicity": seen[s], "ok": None})
    rows.append({"kind": "group_order", "size": report.group_order, "multiplicity": None, "ok": None})
    rows.append({"kind": "match_kirillov", "size": None, "multiplicity": None, "ok": report.match_kirillov})
    rows.append({"kind": "match_naive", "size": None, "multiplicity": None, "ok": report.match_naive})
    extra = {
        "report": {
            "algebra": report.algebra,
            "p": report.p,
            "group_order": str(report.group_order),
            "orbit_sizes": [str(s) for s in report.orbit_sizes],
            "class_sizes": [str(s) for s in report.class_sizes],
            "rep_dims": [str(d) for d in report.rep_dims],
            "match_kirillov": report.match_kirillov,
            "match_naive": report.match_naive,
        }
    }
    return _emit(args, ["kind", "size", "multiplicity", "ok"], rows, extra=extra)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_common(parser, cap: bool = False):
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if cap:
        parser.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_SWEEP_CAP,
            help="explicit sweep-size limit acknowledgment",
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="repstat", description="Exact dimension statistics of finite groups")
    topics = parser.add_subparsers(dest="topic", required=True)

    sym = topics.add_parser("sym", help="symmetric group tables")
    sym_cmds = sym.add_subparsers(dest="command", required=True)

    p = sym_cmds.add_parser("sweep", help="per-partition dimensions and class sizes")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_sweep)

    p = sym_cmds.add_parser("hist", help="histogram of dims or log data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=["dim", "dimsq", "class"], default="dimsq")
    p.add_argument("--bins", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_hist)

    p = sym_cmds.add_parser("angle", help="cosine against the constant vector")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_angle)

    p = sym_cmds.add_parser("intervals", help="window counts of log data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_intervals)

    p = sym_cmds.add_parser("layers", help="log sums grouped by largest part")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_layers)

    p = sym_cmds.add_parser("maxdim", help="max dimension and related curves")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_sym_maxdim)

    p = sym_cmds.add_parser("plancherel", help="seeded Plancherel samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sym_plancherel)

    gl = topics.add_parser("gl", help="GL_n(F_q) polynomial tables")
    gl_cmds = gl.add_subparsers(dest="command", required=True)

    p = gl_cmds.add_parser("gow", help="degree-sum polynomials")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_gow)

    p = gl_cmds.add_parser("classes", help="class-count polynomials")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_classes)

    p = gl_cmds.add_parser("order", help="group-order polynomials")
    p.add_argument("--nmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_order)

    p = gl_cmds.add_parser("ratio", help="degree-sum concentration ratio")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_ratio)

    p = gl_cmds.add_parser("census", help="GL_2 representation and class census")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_census)

    p = gl_cmds.add_parser("gauss", help="triangular-number series identity")
    p.add_argument("--order", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gl_gauss)

    p = topics.add_parser("kirillov", help="orbit method on unitriangular groups")
    p.add_argument("--alg", choices=sorted(ALGEBRAS), required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_kirillov)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.invocation = argv
        text = args.func(args)
    except _UsageError as exc:
        print(f"repstat: usage error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"repstat: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"repstat: invalid request: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, AssertionError) as exc:
        print(f"repstat: internal invariant violation: {exc}", file=sys.stderr)
        return 4
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"repstat: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
