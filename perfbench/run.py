"""Closed-loop benchmark of the repstat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's invocation sequence (see workloads.py),
each invocation in a fresh interpreter started only after the previous
one has exited, so every invocation pays cold caches and the import, as
a CLI user does.  Passes of the sequence repeat while another pass still
fits in S seconds; at least one pass always runs.  Every output is
checked against the references in refs/ after its pass, outside the
timed region.

--trace 0 prints the end-to-end metrics: the sequence wall time, taken
as the sum over its invocations of each one's median spawn-to-exit time
over the passes; the median set-up (spawn until ``repstat.cli`` is
imported); the largest child ``ru_maxrss``; and the share of invocations
that passed.  Co-tenants on a shared host can slow a CPU by half for
minutes, so each child runs on the CPU that probes fastest, and its
times are scaled to a reference CPU speed by probes taken just before
and after it (README.md has the details).
--trace 1 alternates untraced and traced passes and prints per-layer
times and counts from the traced ones (tracer.py), plus the tracing
overhead.

The last stdout line is the result JSON; the line before it holds the
full record (interpreter, CPU count, git sha, seed, argv list and every
per-invocation sample).  Exits 2 without a result when the tree has no
``src/repstat`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracer
from child import STAMP
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
# Reported times are scaled to a CPU on which one run of the probe loop
# takes this long, about the uncontended speed of the host the baseline
# in README.md was measured on.
PROBE_REF_NS = 1_000_000
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}


def git_sha(root: Path):
    """HEAD of the checkout's own repository, or None when it is not one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict[str, str]:
    """The child finds repstat through SRC_DIR, so no outside PYTHON* setting may shadow it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_ns() -> float:
    """Median time of five runs of a fixed pure-Python loop on the current CPU."""
    times = []
    for _ in range(5):
        t = time.perf_counter_ns()
        acc = 0
        for k in range(20_000):
            acc += k * k
        times.append(time.perf_counter_ns() - t)
    return statistics.median(times)


def pin_to_fastest_cpu() -> tuple[int, float]:
    """Pin this process, and so its next child, to the CPU that runs the probe fastest.

    On a shared host a co-tenant's load can slow one CPU by half for tens
    of seconds while another stays fast.  Returns the CPU and its probe time.
    """
    best = None
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        took = probe_ns()
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[1], best[0]


def spawn(argv: list[str], work: Path, tag: str, trace_path: str) -> dict:
    """Run one invocation to completion; stdout and stderr go to files in ``work``."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), trace_path, "--", *argv]
    cpu, probe_before = pin_to_fastest_cpu()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic_ns()
    probe_after = probe_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    first, _, rest = err_path.read_bytes().partition(b"\n")
    setup_ns = None
    if first.startswith(STAMP.encode()):
        setup_ns = int(first.split()[1]) - t0
    else:
        rest = first + b"\n" + rest
    return {
        "argv": argv,
        "cpu": cpu,
        "probe_ns": [probe_before, probe_after],
        "scale": PROBE_REF_NS * 2 / (probe_before + probe_after),
        "t0_ns": t0,
        "t1_ns": t1,
        "wall_s": (t1 - t0) / 1e9,
        "setup_s": None if setup_ns is None else setup_ns / 1e9,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "stderr": rest.decode(errors="replace")[-500:],
        "out_path": out_path,
    }


def run_pass(argvs, refs, work: Path, pass_id: int, traced: bool) -> dict:
    """One pass of the sequence, then the check of every output."""
    samples = []
    for k, argv in enumerate(argvs):
        trace_path = str(work / f"p{pass_id}-i{k}.trace") if traced else "-"
        samples.append(spawn(argv, work, f"p{pass_id}-i{k}", trace_path))
    wall_s = (samples[-1]["t1_ns"] - samples[0]["t0_ns"]) / 1e9
    for k, s in enumerate(samples):
        data = s.pop("out_path").read_bytes()
        s["bytes_out"] = len(data)
        ref = refs.get(check.key(s["argv"]))
        if s["exit_code"] != 0 or s["setup_s"] is None:
            s["problems"] = [f"exit code {s['exit_code']}: {s['stderr']}"]
        elif ref is None:
            s["problems"] = ["no reference for this argv"]
        else:
            s["problems"] = check.compare(ref, data)
        s["ok"] = not s["problems"]
        s["rows_out"] = ref["rows"] if ref and s["ok"] else 0
        s["invocation"] = k
    return {"pass": pass_id, "traced": traced, "wall_s": wall_s, "samples": samples}


def sequence_s(passes: list[dict]) -> float:
    """Sum over the sequence of each invocation's median scaled wall time in ``passes``."""
    return sum(
        statistics.median(p["samples"][k]["wall_s"] * p["samples"][k]["scale"] for p in passes)
        for k in range(len(passes[0]["samples"]))
    )


def end_to_end(passes: list[dict]) -> dict[str, float]:
    samples = [s for p in passes for s in p["samples"]]
    setups = [s["setup_s"] * s["scale"] for s in samples if s["setup_s"] is not None]
    return {
        "wall_s": sequence_s(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "pass_rate": sum(s["ok"] for s in samples) / len(samples),
    }


def per_layer(work: Path, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics averaged over the traced passes, with their units."""
    npass = len(traced)
    agg, counters = {}, {}
    for p in traced:
        for s in p["samples"]:
            path = work / f"p{p['pass']}-i{s['invocation']}.trace"
            if not path.exists():  # the child failed before it could trace
                continue
            names, counts, spans = tracer.load(str(path))
            for name, (calls_, total, own) in tracer.aggregate([(names, spans)]).items():
                acc = agg.setdefault(name, [0, 0, 0])
                acc[0] += calls_
                acc[1] += total * s["scale"]
                acc[2] += own * s["scale"]
            for k, v in counts.items():
                counters[k] = counters.get(k, 0) + v
    selfs = tracer.layer_self_ns(agg)

    def total_s(name):
        return agg.get(name, [0, 0, 0])[1] / 1e9 / npass

    def calls(name):
        return agg.get(name, [0, 0, 0])[0] / npass

    def count(key):
        return counters.get(key, 0) / npass

    engine_s = total_s("kirillov.coadjoint_orbits") + total_s("kirillov.conjugacy_classes")
    metrics = {
        "partitions.enumerate_s": (total_s("partitions.enumerate_partitions"), "s"),
        "partitions.partitions_yielded": (count("partitions.enumerate_partitions.yielded"), "count"),
        "partitions.hook_lengths_s": (total_s("partitions.hook_lengths"), "s"),
        "symstats.dimension_s": (total_s("symstats.dimension"), "s"),
        "symstats.dimension_calls": (calls("symstats.dimension"), "count"),
        "symstats.class_size_s": (total_s("symstats.class_size"), "s"),
        "symstats.ln_big_s": (total_s("symstats.ln_big"), "s"),
        "symstats.ln_big_calls": (calls("symstats.ln_big"), "count"),
        "rsk.random_permutation_s": (total_s("rsk.random_permutation"), "s"),
        "rsk.rsk_shape_s": (total_s("rsk.rsk_shape"), "s"),
        "rsk.samples": (count("rsk.sample_plancherel.yielded"), "count"),
        "qseries.feit_fine_s": (total_s("qseries.feit_fine"), "s"),
        "qseries.feit_fine_calls": (calls("qseries.feit_fine"), "count"),
        "qseries.poly_mul_calls": (count("qseries.poly_mul_calls"), "count"),
        "qseries.series_mul_calls": (count("qseries.series_mul_calls"), "count"),
        "qseries.gauss_s": (total_s("qseries.gauss_identity_check"), "s"),
        "kirillov.coadjoint_orbits_s": (total_s("kirillov.coadjoint_orbits"), "s"),
        "kirillov.conjugacy_classes_s": (total_s("kirillov.conjugacy_classes"), "s"),
        "kirillov.states": (count("kirillov.states"), "count"),
        "kirillov.states_per_s": (count("kirillov.states") / engine_s if engine_s else 0.0, "1/s"),
        "cli.rows_out": (sum(s["rows_out"] for p in traced for s in p["samples"]) / npass, "count"),
        "cli.bytes_out": (sum(s["bytes_out"] for p in traced for s in p["samples"]) / npass, "B"),
    }
    for layer, own in selfs.items():
        metrics[f"{layer}.self_s"] = (own / 1e9 / npass, "s")
    metrics["trace_overhead_s"] = (sequence_s(traced) - sequence_s(plain), "s")
    breakdown = {name: {"calls": c, "total_s": t / 1e9, "self_s": o / 1e9} for name, (c, t, o) in sorted(agg.items())}
    return metrics, {"spans": breakdown, "counters": counters}


def warm_up() -> None:
    """Compile the package's bytecode so no timed import pays for it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), "-", "--", "gl", "census", "--q", "2"],
        stdin=subprocess.DEVNULL, capture_output=True, env=child_env(), timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: cannot run repstat from {SRC}: {proc.stderr.decode(errors='replace')[-500:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repstat" / "cli.py").is_file():
        print(f"perfbench: no repstat sources under {SRC}", file=sys.stderr)
        return 2
    warm_up()
    argvs = generate(args.workload, args.seed)
    refs = check.load_refs(args.workload)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plain, traced = [], []
        start = time.monotonic()
        while True:
            plain.append(run_pass(argvs, refs, work, len(plain) + len(traced), traced=False))
            step = plain[-1]["wall_s"]
            if args.trace:
                traced.append(run_pass(argvs, refs, work, len(plain) + len(traced), traced=True))
                step += traced[-1]["wall_s"]
            if time.monotonic() - start + step > args.seconds:
                break
        if args.trace:
            metrics, breakdown = per_layer(work, plain, traced)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain).items()}
            breakdown = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    samples = [s for p in passes for s in p["samples"]]
    for s in samples:
        for k in ("t0_ns", "t1_ns", "stderr"):
            s.pop(k)
    failed = sum(not s["ok"] for s in samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(ALLOWED_CPUS),
        "git_sha": git_sha(ROOT),
        "argvs": argvs,
        "passes": passes,
        "trace_breakdown": breakdown,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
