"""Layered benchmark for depcomp.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noisy_fit --seed 1 --seconds 55 --trace 0

Each workload runs in this one process as a closed loop: one job at a time,
the next job starting when the previous one ends, until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a
fixed list of jobs twice each, untraced and traced, and reports per-layer
metrics from the traced copies and the tracing overhead from the pair.
Every job's output is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median wall time of this many fresh processes that start,
# import depcomp, build the workload's inputs and exit.  The untraced run
# starts them at evenly spaced points of its timed loop, whose clock stops
# meanwhile, so they see the same machine as the jobs.
SETUP_REPEATS = 7
SETUP_LIMIT_S = 60

# The traced run processes a fixed list of --seconds x rate / 2 jobs, each
# twice, so its counts repeat exactly for a seed.  The rates are the
# baseline's untraced jobs per second, which makes the run last about
# --seconds.  A traced run on a machine less than half as fast stops after
# TRACE_LIMIT x --seconds, so the whole set of runs keeps to its time budget.
TRACE_JOBS_PER_S = {"exact_fit": 10.3, "noisy_fit": 0.87, "wide_law": 6.3}
TRACE_LIMIT = 2.0

# Criteria 1 and 10 require at least 18 of 20 recoveries; a run whose
# recovery rate falls below that share is reported as not correct.
RECOVERY_FLOOR = 0.9

# Metrics printed with --trace 0: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("records_per_s", "1/s"),
    ("recovery_rate", "share"),
    ("p_err_p50", "L1"),
    ("objective_p50", "l2sq"),
    ("peak_rss_mb", "MB"),
    ("fail_rate", "share"),
)
# The subset that is defined, non-zero and steady on every workload; the last
# output line carries exactly these (BENCHMARK.json lists them).
GATED = ("setup_s", "jobs_per_s", "job_s_p50", "job_s_tail", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["exact_fit", "noisy_fit", "wide_law"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument(
        "--seed2",
        type=int,
        default=0,
        help="second, independent seed stream; re-check a claimed gain with a value nobody tuned against",
    )
    parser.add_argument("--seconds", type=float, default=55.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP with one thread (set before numpy loads); return nproc.

    With two threads, ``wide_law``'s large array operations also ran on the
    second CPU, and their time then followed whatever else ran there.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def provenance(args, nproc: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seed2": args.seed2,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> float:
    """Wall seconds of a fresh process that imports depcomp and builds the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seed2", str(args.seed2), "--setup-only"]
    # No timeout here: waiting with one polls in steps of up to 50 ms, which
    # would quantise the measurement.  The child has its own alarm.
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list) -> tuple:
    """Highest whole percentile with at least ten jobs beyond it (p50 floor)."""
    import numpy as np

    q = max(50, int(100.0 * (1.0 - 10.0 / len(times))))
    return q, float(np.percentile(times, q))


def run_job(job, lib, pool, workdir, j):
    """One job: wall seconds and its result; an exception becomes a failure."""
    from workloads import JobResult

    t0 = time.perf_counter()
    try:
        result = job(lib, pool[j % len(pool)], workdir)
    except Exception:  # a failed operation is counted, and the loop goes on
        result = JobResult(failures=["exception: " + traceback.format_exc(limit=3).strip()[-400:]])
    return time.perf_counter() - t0, result


def spread(times: list, results: list) -> dict:
    """Per-job spread: time quantiles, and how many jobs exited early or ran
    the full restart budget (fit workloads)."""
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    out = {"jobs": len(times), "min_s": min(times), "p25_s": q[0], "p50_s": q[1], "p75_s": q[2], "max_s": max(times)}
    fits = [r.counts for r in results if "restarts" in r.counts]
    if fits:
        out["early_exit_jobs"] = sum(c["restarts"] < c["restarts_budget"] for c in fits)
        out["full_budget_jobs"] = sum(c["restarts"] == c["restarts_budget"] for c in fits)
        out["jobs_with_max_iters_restart"] = sum(c["max_iters_hit"] > 0 for c in fits)
    return out


def end_to_end(setup_s: float, wall: float, times: list, results: list) -> tuple:
    n = len(times)
    q, tail_s = tail(times)
    hits = [r.quality["hit"] for r in results if "hit" in r.quality]
    p_errs = [r.quality["p_err"] for r in results if "p_err" in r.quality]
    objs = [r.quality["objective"] for r in results if "objective" in r.quality]
    records = sum(r.quality.get("records_carried", 0) for r in results)
    failed = sum(1 for r in results if r.failures)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": n / wall,
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "records_per_s": records / wall if records else None,
        "recovery_rate": sum(hits) / len(hits) if hits else None,
        "p_err_p50": statistics.median(p_errs) if p_errs else None,
        "objective_p50": statistics.median(objs) if objs else None,
        "peak_rss_mb": peak_rss_mb(),
        "fail_rate": failed / n,
    }
    basis = {name: f"{n} jobs over {wall:.3f} s" for name in metrics}
    basis["setup_s"] = f"median of {SETUP_REPEATS} fresh processes spread over the run: start, import, build inputs, exit"
    basis["job_s_tail"] = f"p{q} of {n} jobs"
    basis["peak_rss_mb"] = "whole process"
    return metrics, basis


def per_layer(tracer, traced: list, untraced: list) -> tuple:
    """Per-layer metrics of the traced jobs, and the issue-named detail."""
    busy = tracer.busy()
    counts = [r.counts for _, r in traced]
    wall_t = sum(t for t, _ in traced)
    wall_u = sum(t for t, _ in untraced)
    jobs = len(traced)

    def total(key):
        return sum(c.get(key, 0) for c in counts)

    def span_total(name):
        return busy.get(name, {}).get("total_s", 0.0)

    def per(num, den):
        return num / den if den else 0.0

    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, b in busy.items():
        layer_self[name.split(".", 1)[0]] += b["self_s"]
    restarts, iterations = total("restarts"), total("iterations")
    fits = [c for c in counts if "restarts" in c]
    early_exits = sum(c["restarts"] < c["restarts_budget"] for c in fits)
    inv_s = span_total("inversion.recover_system")
    cells = total("cells") if "core.output_distribution" in busy else 0
    metrics = {
        "trace.jobs": (jobs, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.jobs_per_s": (per(jobs, wall_t), "1/s"),
        "trace.untraced_jobs_per_s": (per(jobs, wall_u), "1/s"),
        "trace.jobs_per_s_ratio": (per(wall_u, wall_t), "share"),
        "inversion.restarts": (restarts, "count"),
        "inversion.restarts_budget": (total("restarts_budget"), "count"),
        "inversion.iterations": (iterations, "count"),
        "inversion.early_exit_share": (per(early_exits, len(fits)), "share"),
        "inversion.converged_share": (per(total("converged_restarts"), restarts), "share"),
        "inversion.useful_restart_ratio": (per(total("useful_restarts"), restarts), "share"),
        "inversion.iters_per_s": (per(iterations, inv_s), "1/s"),
        "inversion.restarts_per_s": (per(restarts, inv_s), "1/s"),
        "io.save_samples.bytes": (total("bytes_saved"), "B"),
        "io.load_samples.bytes": (total("bytes_loaded"), "B"),
        "io.save_samples.bytes_per_s": (per(total("bytes_saved"), span_total("io.save_samples")), "B/s"),
        "io.load_samples.bytes_per_s": (per(total("bytes_loaded"), span_total("io.load_samples")), "B/s"),
        "sampling.sample_dcs.records": (total("records"), "count"),
        "sampling.sample_dcs.records_per_s": (per(total("records"), span_total("sampling.sample_dcs")), "1/s"),
        "core.output_distribution.cells": (cells, "count"),
        "core.output_distribution.bytes_computed": (total("bytes_computed"), "B"),
        "core.output_distribution.cells_per_s": (per(cells, span_total("core.output_distribution")), "1/s"),
    }
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_share"] = (per(s, wall_t), "share")
    metrics["bench.self_share"] = (per(wall_t - sum(layer_self.values()), wall_t), "share")

    # Issue-named seconds per traced job (None where the workload never calls it).
    detail = {
        name + ".s": per(b["self_s"] if name.startswith("cli.") else b["total_s"], jobs)
        for name, b in sorted(busy.items())
    }
    detail["inversion.s_per_iter"] = per(inv_s, iterations) if iterations else None
    detail["inversion.s_per_restart"] = per(inv_s, restarts) if restarts else None
    detail.update({f"{layer}.self_s": per(s, jobs) for layer, s in layer_self.items()})
    detail["calls"] = {name: b["calls"] for name, b in sorted(busy.items())}
    return metrics, detail


def emit_line(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    if args.setup_only:
        signal.alarm(SETUP_LIMIT_S)
    if not (SRC / "depcomp" / "__init__.py").is_file():
        print(f"error: no depcomp sources under {SRC}; run from the root of a depcomp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import depcomp
    from depcomp import cli

    import_s = time.perf_counter() - t0
    if Path(depcomp.__file__).resolve().parent != (SRC / "depcomp").resolve():
        print(f"error: imported depcomp from {depcomp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    prepare, job = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    pool = prepare(args.seed, args.seed2)
    prepare_s = time.perf_counter() - t0
    if args.setup_only:
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    tag = f"{args.workload}-seed{args.seed}-{args.seed2}-trace{args.trace}"
    report = {
        "provenance": provenance(args, nproc),
        "setup": {"import_s": import_s, "prepare_s": prepare_s},
    }
    try:
        plain = spans.library()
        if args.trace == 0:
            results, times, setups = [], [], []
            paused = 0.0
            t0 = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - t0 - paused
                if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
                    t1 = time.perf_counter()
                    setups.append(measure_setup(args))
                    paused += time.perf_counter() - t1
                elif times and elapsed >= args.seconds:
                    break
                else:
                    wall, result = run_job(job, plain, pool, workdir, len(times))
                    times.append(wall)
                    results.append(result)
            wall = time.perf_counter() - t0 - paused
            report["setup"]["fresh_process_s"] = setups
            replay = [run_job(job, plain, pool, workdir, 0)]
            pairs = [(results[0], replay[0][1])]
            metrics, basis = end_to_end(statistics.median(setups), wall, times, results)
            report["end_to_end"] = {k: {"value": metrics[k], "unit": u, "basis": basis[k]} for k, u in END_TO_END}
            report["spread"] = spread(times, results)
            results = list(enumerate(results)) + [(0, replay[0][1])]
            for name, unit in END_TO_END:
                value = metrics[name]
                shown = "n/a (workload has none)" if value is None else f"{value:.6g} {unit}"
                print(f"{name:>14} = {shown}  [{basis[name]}]")
        else:
            tracer = spans.Tracer()
            traced_lib = spans.library(tracer)
            n_jobs = max(4, int(args.seconds * TRACE_JOBS_PER_S[args.workload] / 2.0 + 0.5))
            untraced, traced, pairs = [], [], []
            t0 = time.perf_counter()
            for j in range(n_jobs):
                # Alternate which copy runs first, so warm-up favours neither.
                if j % 2 == 0:
                    untraced.append(run_job(job, plain, pool, workdir, j))
                tracer.job = j
                with tracer.cli_boundary(cli):
                    traced.append(run_job(job, traced_lib, pool, workdir, j))
                if j % 2 == 1:
                    untraced.append(run_job(job, plain, pool, workdir, j))
                pairs.append((untraced[-1][1], traced[-1][1]))
                if j + 1 < n_jobs and time.perf_counter() - t0 > TRACE_LIMIT * args.seconds:
                    print(f"warning: traced run stopped after {j + 1} of {n_jobs} jobs", file=sys.stderr)
                    break
            results = [(j, r) for j, (_, r) in enumerate(untraced)] + [(j, r) for j, (_, r) in enumerate(traced)]
            metrics, detail = per_layer(tracer, traced, untraced)
            report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
            report["per_layer_detail"] = detail
            tracer.dump(OUT_DIR / f"spans-{tag}.jsonl")
            for name, (value, unit) in metrics.items():
                print(f"{name:>40} = {value:.6g} {unit}  [{len(traced)} traced jobs]")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Determinism: a job run twice on one seed must give identical exact counts.
    mismatched = [a.counts for a, b in pairs if a.counts != b.counts]
    report["determinism"] = {
        "jobs_compared": len(pairs),
        "mismatched": len(mismatched),
        "job0_counts": pairs[0][0].counts,
    }
    if mismatched:
        print(f"DETERMINISM CHECK FAILED: {len(mismatched)} of {len(pairs)} replayed jobs differ", file=sys.stderr)
    failures = [{"job": j, "failures": r.failures} for j, r in results if r.failures]
    report["failures"] = failures
    hits = [r.quality["hit"] for _, r in results if "hit" in r.quality]
    recovery_ok = not hits or sum(hits) / len(hits) >= RECOVERY_FLOOR
    correct = not failures and not mismatched and recovery_ok
    for f in failures[:10]:
        print(f"FAILED job {f['job']}: {f['failures']}", file=sys.stderr)
    if not recovery_ok:
        print(f"RECOVERY BELOW FLOOR: {sum(hits)}/{len(hits)} < {RECOVERY_FLOOR}", file=sys.stderr)
    with open(OUT_DIR / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    emit_line({"report": report})

    if args.trace == 0:
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END if k in GATED}
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    emit_line({"correct": correct, "attempted": len(results), "failed": len(failures), "metrics": out})
    return 0


if __name__ == "__main__":
    sys.exit(main())
