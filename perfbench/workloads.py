"""The three benchmark workloads: inputs from a seed, one job, its checks.

Each workload has a ``prepare`` that builds a pool of job inputs from the
run seeds (this is the set-up the benchmark times) and a ``job`` that runs
job ``j`` on ``pool[j % len(pool)]`` and checks its output.  The noisy_fit
pool holds more inputs than a run at the baseline uses, so its slowest jobs
come from distinct inputs rather than from a few repeated ones; a wide_law
job's cost is set by K, which cycles with ``j``.  A job returns a
`JobResult`: exact counts (compared bit for bit when a job is replayed),
quality numbers, and the output checks it failed.

Job seeds come from ``(seed, seed2, j, stream)`` through numpy's
``SeedSequence``; no seed is chosen by hand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import depcomp as dc
from depcomp.core import TENSOR_MASS_ATOL

# exact_fit: criterion 1's systems and solver settings, on the exact law.
EXACT_K = 3
EXACT_RESTARTS = 32
EXACT_MAX_ITERS = 2000
EXACT_P_TOL = 1e-3
EXACT_W_TOL = 5e-3
EXACT_POOL = 512

# noisy_fit: gen -> simulate -> estimate -> invert through the CLI.  K = 4
# leaves more cells than parameters, so sampling noise keeps the fit floor out
# of reach and every restart runs; max-iters bounds the grinding tail.
NOISY_L = 2
NOISY_K = 4
NOISY_N = 20_000
NOISY_RESTARTS = 4
NOISY_MAX_ITERS = 40
NOISY_P_TOL = 5e-2
NOISY_POOL = 128

# wide_law: dense forward map on a 4^K-cell alphabet.
WIDE_L = 4
WIDE_KS = (9, 10, 11)
WIDE_N = 20_000
WIDE_CELLS_CHECKED = 4
WIDE_CELL_RTOL = 1e-12
WIDE_POOL = 256

# Restarts whose objective is within this relative distance of the best count
# as agreeing with it.
USEFUL_RTOL = 1e-9


def job_seed(seed: int, seed2: int, j: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, seed2, j, stream]).generate_state(1)[0])


@dataclass
class JobResult:
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def forward_bytes(Lp: int, L: int, K: int) -> int:
    """Bytes of float64 arrays `output_distribution` allocates: every
    Khatri-Rao partial product (``Lp^k x L`` for k = 2..K) plus the flat law."""
    return 8 * (sum(Lp**k * L for k in range(2, K + 1)) + Lp**K)


def _aligned_errors(truth: dc.DCSystem, p_hat: np.ndarray, channels_hat) -> tuple:
    tau = dc.align_permutation(truth.p, dc.Distribution(p_hat))
    idx = tau.source_indices()
    p_err = float(np.abs(p_hat[idx] - truth.p.probs).sum())
    w_err = max(
        float(np.abs(np.asarray(w)[:, idx] - t.entries).max())
        for w, t in zip(channels_hat, truth.channels)
    )
    return p_err, w_err


def _restart_counts(log: list, budget: int, max_iters: int, objective: float) -> dict:
    """Exact solver counts from a restart log in result-document form."""
    objs = [e["objective"] for e in log]
    best = min(objs)
    return {
        "restarts": len(log),
        "restarts_budget": budget,
        "iterations": sum(e["iterations"] for e in log),
        "max_iters_hit": sum(e["iterations"] >= max_iters for e in log),
        "converged_restarts": sum(e["converged"] for e in log),
        "useful_restarts": sum(f <= best + USEFUL_RTOL * abs(best) for f in objs),
        "objective": float(objective),
    }


def _check_log(log: list, best_restart: int, objective: float, budget: int) -> list:
    objs = [e["objective"] for e in log]
    failures = []
    if not 1 <= len(objs) <= budget:
        failures.append(f"restart log has {len(objs)} entries for a budget of {budget}")
    elif objs[best_restart] != objective or objective != min(objs):
        failures.append("reported objective is not the best restart's")
    return failures


# --- exact_fit ---------------------------------------------------------------


def prepare_exact_fit(seed: int, seed2: int) -> list:
    pool = []
    for i in range(EXACT_POOL):
        L = 2 + i % 2
        truth = dc.random_system(L, L, EXACT_K, job_seed(seed, seed2, i), min_mass=0.1, min_gap=0.05)
        pool.append((truth, dc.output_distribution(truth)))
    return pool


def job_exact_fit(lib, item, workdir) -> JobResult:
    truth, q = item
    L = truth.hidden_size
    config = dc.InversionConfig(L=L, objective="l2sq", restarts=EXACT_RESTARTS, max_iters=EXACT_MAX_ITERS, seed=0)
    res = lib.recover_system(q, config)
    log = [{"objective": e.objective, "iterations": e.iterations, "converged": e.converged} for e in res.restart_log]
    out = JobResult()
    out.failures += _check_log(log, res.best_restart, res.objective_value, EXACT_RESTARTS)
    # The fitted system's own law must reproduce the reported objective.
    model = lib.output_distribution(dc.DCSystem(res.p_hat, res.channels_hat))
    recomputed = float(np.sum((model.values - q.values) ** 2))
    if abs(recomputed - res.objective_value) > 1e-15 + 1e-6 * res.objective_value:
        out.failures.append(f"objective {res.objective_value!r} but the fit's law gives {recomputed!r}")
    p_err, w_err = _aligned_errors(truth, res.p_hat.probs, [c.entries for c in res.channels_hat])
    out.counts = _restart_counts(log, EXACT_RESTARTS, EXACT_MAX_ITERS, res.objective_value)
    out.counts["cells"] = q.values.size
    out.counts["bytes_computed"] = forward_bytes(L, L, EXACT_K)
    hit = p_err <= EXACT_P_TOL and w_err <= EXACT_W_TOL
    out.quality = {"hit": hit, "p_err": p_err, "objective": res.objective_value}
    return out


# --- noisy_fit ---------------------------------------------------------------


def prepare_noisy_fit(seed: int, seed2: int) -> list:
    return [(job_seed(seed, seed2, i, 0), job_seed(seed, seed2, i, 1)) for i in range(NOISY_POOL)]


def job_noisy_fit(lib, item, workdir) -> JobResult:
    gen_seed, sim_seed = item
    sys_p, smp_p, q_p, fit_p = (os.path.join(workdir, f) for f in ("sys.json", "samples.csv", "q.json", "fit.json"))
    verbs = [
        ["gen", "--L", str(NOISY_L), "--K", str(NOISY_K), "--seed", str(gen_seed), "--out", sys_p],
        ["simulate", "--system", sys_p, "--n", str(NOISY_N), "--seed", str(sim_seed), "--out", smp_p],
        ["estimate", "--samples", smp_p, "--out", q_p],
        ["invert", "--q", q_p, "--L", str(NOISY_L), "--restarts", str(NOISY_RESTARTS),
         "--max-iters", str(NOISY_MAX_ITERS), "--seed", "0", "--out", fit_p],
    ]
    out = JobResult()
    for argv in verbs:
        code, err = lib.cli(argv)
        if code != 0:
            out.failures.append(f"{argv[0]} exited {code}: {err.strip()[:200]}")
            return out
    doc = lib.load_result(fit_p)
    truth = lib.load_system(sys_p)
    try:
        p_hat = np.array(doc["p_hat"], dtype=np.float64)
        channels_hat = [np.array(c, dtype=np.float64) for c in doc["channels_hat"]]
        log = doc["restart_log"]
        objective = float(doc["objective"]["value"])
        best_restart = int(doc["best_restart"])
    except (KeyError, TypeError, ValueError) as exc:
        out.failures.append(f"result document does not parse: {exc!r}")
        return out
    if p_hat.shape != (NOISY_L,) or len(channels_hat) != NOISY_K:
        out.failures.append(f"result has p_hat of shape {p_hat.shape} and {len(channels_hat)} channels")
        return out
    out.failures += _check_log(log, best_restart, objective, NOISY_RESTARTS)
    # The law estimated from the CSV round trip must equal, bit for bit, the
    # law of the records simulate drew (same system, n and seed).
    counts = lib.type_counts(lib.sample_dcs(truth, NOISY_N, sim_seed))
    if int(counts.counts.sum()) != NOISY_N:
        out.failures.append(f"counts sum to {int(counts.counts.sum())}, expected {NOISY_N}")
    q_mem, q_csv = lib.ml_estimate(counts), lib.load_tensor(q_p)
    if q_csv.shape != q_mem.shape or not np.array_equal(q_csv.values, q_mem.values):
        out.failures.append("law estimated from the CSV differs from the law of the records sampled")
    p_err, _ = _aligned_errors(truth, p_hat, channels_hat)
    out.counts = _restart_counts(log, NOISY_RESTARTS, NOISY_MAX_ITERS, objective)
    out.counts["records"] = 2 * NOISY_N  # simulate's draw and the check's redraw
    out.counts["bytes_saved"] = out.counts["bytes_loaded"] = os.path.getsize(smp_p)
    out.quality = {"hit": p_err <= NOISY_P_TOL, "p_err": p_err, "objective": objective, "records_carried": NOISY_N}
    return out


# --- wide_law ----------------------------------------------------------------


def prepare_wide_law(seed: int, seed2: int) -> list:
    pool = []
    for i in range(WIDE_POOL):
        K = WIDE_KS[i % len(WIDE_KS)]
        truth = dc.random_system(WIDE_L, WIDE_L, K, job_seed(seed, seed2, i, 0))
        pool.append((truth, job_seed(seed, seed2, i, 1)))
    return pool


def _cell_by_loops(truth: dc.DCSystem, ys) -> float:
    total = 0.0
    for x in range(truth.hidden_size):
        term = float(truth.p.probs[x])
        for ch, y in zip(truth.channels, ys):
            term *= float(ch.entries[y, x])
        total += term
    return total


def job_wide_law(lib, item, workdir) -> JobResult:
    truth, sim_seed = item
    K = truth.num_channels
    law = lib.output_distribution(truth)
    batch = lib.sample_dcs(truth, WIDE_N, sim_seed)
    counts = lib.type_counts(batch)
    q_hat = lib.ml_estimate(counts)
    out = JobResult()
    mass = float(law.values.sum())
    if abs(mass - 1.0) > TENSOR_MASS_ATOL:
        out.failures.append(f"law mass {mass!r} is not 1 within {TENSOR_MASS_ATOL}")
    rng = np.random.default_rng(sim_seed)
    for _ in range(WIDE_CELLS_CHECKED):
        ys = tuple(int(y) for y in rng.integers(WIDE_L, size=K))
        want = _cell_by_loops(truth, ys)
        got = float(law.values[np.ravel_multi_index(ys, law.shape)])
        if abs(got - want) > WIDE_CELL_RTOL * abs(want):
            out.failures.append(f"cell {ys}: {got!r} != nested-loop {want!r}")
    if int(counts.counts.sum()) != WIDE_N:
        out.failures.append(f"counts sum to {int(counts.counts.sum())}, expected {WIDE_N}")
    out.counts = {"records": WIDE_N, "cells": law.values.size, "bytes_computed": forward_bytes(WIDE_L, WIDE_L, K)}
    return out


WORKLOADS = {
    "exact_fit": (prepare_exact_fit, job_exact_fit),
    "noisy_fit": (prepare_noisy_fit, job_noisy_fit),
    "wide_law": (prepare_wide_law, job_wide_law),
}
