"""Named self-check suites behind the ``verify`` CLI verb.

Each suite re-derives one family of library guarantees from scratch at desk
scale and reports per-check lines; a suite passes only if every check holds.
``_FAULT`` is an internal sabotage switch used by the package's own tests to
prove that every suite can actually detect a defect (it is not reachable from
the CLI).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .analysis import (
    activation_invertible,
    conditionally_independent_given_cause,
    conjunctive_fork_check,
    k2_ambiguity_witness,
    kernels_equal,
    khatri_rao_power,
    mi_counterexample,
    pairwise_mutual_information,
    vanishing_infimum_demo,
)
from .core import (
    Channel,
    DCSystem,
    Distribution,
    JointTensor,
    Permutation,
    kl_divergence,
    lp_distance,
    numerical_rank,
    output_distribution,
    permute_system,
)
from .inversion import InversionConfig, recover_system
from .sampling import ml_estimate, random_channel, random_system, sample_dcs, type_counts, typicality_test

_FAULT: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    lines: tuple


def _fault(name: str) -> bool:
    return _FAULT == name


def _perturbed_column_system(system: DCSystem, rng: Generator, delta: float = 1e-3) -> DCSystem:
    """Bump the smallest entry of one random channel column and renormalize."""
    k = int(rng.integers(system.num_channels))
    j = int(rng.integers(system.hidden_size))
    entries = system.channels[k].entries.copy()
    col = entries[:, j].copy()
    col[int(np.argmin(col))] += delta
    entries[:, j] = col / col.sum()
    channels = list(system.channels)
    channels[k] = Channel(entries)
    return DCSystem(system.p, tuple(channels))


def _suite_roundtrip(seed: int):
    checks = []
    for i, (L, K) in enumerate([(2, 3), (2, 3), (3, 3)]):
        s = seed + i + 1
        system = random_system(L, L, K, s, min_mass=0.1, min_gap=0.05)
        q = output_distribution(system)
        if _fault("roundtrip"):
            q = JointTensor(q.shape, 0.98 * q.values + 0.02 / q.values.size)
        result = recover_system(q, InversionConfig(L=L, restarts=12, seed=s))
        p_err = float(np.abs(result.p_hat.probs - system.p.probs).sum())
        ch_err = max(
            float(np.max(np.abs(got.entries - want.entries)))
            for got, want in zip(result.channels_hat, system.channels)
        )
        checks.append(
            (
                f"recover L={L} K={K} seed={s}: p_err={p_err:.2e} ch_err={ch_err:.2e}",
                p_err <= 1e-3 and ch_err <= 5e-3,
            )
        )
    return checks


def _suite_uniqueness(seed: int):
    checks = []
    system = random_system(3, 3, 3, seed + 1, min_mass=0.05)
    q = output_distribution(system)
    for mapping in itertools.permutations((1, 2, 3)):
        tau = Permutation(mapping)
        relabeled = permute_system(tau, system)
        if _fault("uniqueness"):
            src = tau.source_indices()
            relabeled = DCSystem(Distribution(system.p.probs[src]), system.channels)
        diff = float(np.max(np.abs(output_distribution(relabeled).values - q.values)))
        checks.append((f"relabel {mapping}: max theta diff {diff:.1e}", diff <= 1e-12))
    rng = Generator(Philox(key=seed + 99))
    for _ in range(20):
        moved = lp_distance(output_distribution(_perturbed_column_system(system, rng)), q, 1)
        checks.append((f"column perturbation moves theta by {moved:.2e}", moved >= 1e-5))
    return checks


def _suite_k2ambiguity(seed: int):
    checks = []
    for s in range(seed + 1, seed + 9):
        witness = k2_ambiguity_witness(seed=s)
        q1 = output_distribution(witness.first)
        q2 = output_distribution(witness.second)
        if _fault("k2ambiguity"):
            q2 = JointTensor(q2.shape, 0.999 * q2.values + 0.001 / q2.values.size)
        theta_gap = lp_distance(q1, q2, 1)
        hidden_gap = float(np.abs(witness.first.p.probs - witness.second.p.probs).sum())
        checks.append(
            (
                f"seed {s}: theta gap {theta_gap:.1e}, hidden gap {hidden_gap:.2e}",
                theta_gap < 1e-12 and hidden_gap > 1e-3 and not witness.degenerate,
            )
        )
    return checks


def _suite_activation(seed: int):
    checks = []
    W = Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    k1 = activation_invertible(W, 1)
    checks.append(("half-mix channel at K=1 not invertible", k1 if _fault("activation") else not k1))
    checks.append(("half-mix channel activates at K=2", activation_invertible(W, 2)))
    for i in range(12):
        L = 2 + (i % 4)
        rng = Generator(Philox(key=seed + 1000 + i))
        ch = random_channel(rng, L, L, min_column_gap=0.05)
        need = max(L - 1, 1)
        checks.append((f"random L={L} channel activates at K={need}", activation_invertible(ch, need)))
        ranks = [numerical_rank(khatri_rao_power(ch, k)) for k in range(1, need + 1)]
        checks.append((f"ranks nondecreasing {ranks}", all(a <= b for a, b in zip(ranks, ranks[1:]))))
    return checks


def _suite_conspiracy(seed: int):
    checks = []
    for i in range(8):
        rng = Generator(Philox(key=seed + 200 + i))
        shared = random_channel(rng, 2, 3)
        stack = []
        for _ in range(3):
            while True:
                mix = rng.dirichlet(np.ones(2), size=2).T
                beta = rng.uniform(0.1, 0.6)
                U = (1.0 - beta) * np.eye(2) + beta * mix
                if numerical_rank(U) == 2:
                    break
            stack.append(Channel(U @ shared.entries))
        same = kernels_equal(stack)
        free = [random_channel(rng, 2, 3) for _ in range(2)]
        different = kernels_equal(free)
        if _fault("conspiracy"):
            same, different = different, same
        checks.append((f"seed {seed + 200 + i}: composed stack shares kernel", same))
        checks.append((f"seed {seed + 200 + i}: independent channels do not", not different))
    return checks


def _suite_mi(seed: int):
    checks = []
    example = mi_counterexample(Distribution([0.5, 0.5]), 3)
    first, second = example.first, example.second
    if _fault("mi"):
        bad = first.p.probs.copy()
        bad[[0, 1]] = bad[[1, 0]]
        second = DCSystem(Distribution(bad), second.channels)
    q1 = output_distribution(first)
    q2 = output_distribution(second)
    collision = float(np.max(np.abs(q1.values - q2.values)))
    checks.append((f"theta collision {collision:.1e}", collision <= 1e-15))
    hidden_gap = float(np.abs(first.p.probs - second.p.probs).sum())
    checks.append((f"hidden distributions differ by {hidden_gap:.2e}", hidden_gap > 1e-3))
    mi = pairwise_mutual_information(q1)
    off = [mi[i, j] for i in range(3) for j in range(3) if i != j]
    checks.append((f"min pairwise dependence {min(off):.4f} bits", min(off) > 0.01))
    return checks


def _leak_joint(system: DCSystem, leak: float = 0.2) -> JointTensor:
    """Joint over (cause, two outputs) where output 2 copies output 1 sometimes."""
    p = system.p.probs
    W1 = system.channels[0].entries
    W2 = system.channels[1].entries
    L, Lp = p.size, W1.shape[0]
    T = np.zeros((L, Lp, Lp))
    for c in range(L):
        copy = np.eye(Lp)
        mixed = (1.0 - leak) * np.outer(W1[:, c], W2[:, c]) + leak * copy * W1[:, c][:, None]
        T[c] = p[c] * mixed
    return JointTensor.from_array(T)


def _suite_fork(seed: int):
    checks = []
    combos = [(2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 2, 3), (4, 2, 2), (4, 4, 3)]
    for i, (L, Lp, K) in enumerate(combos):
        system = random_system(L, Lp, K, seed + 300 + i)
        checks.append((f"L={L} Lprime={Lp} K={K} screens off", conjunctive_fork_check(system)))
    leaky = _leak_joint(random_system(2, 2, 2, seed + 400))
    detected = conditionally_independent_given_cause(leaky)
    checks.append(("leaky joint fails screening-off", detected if _fault("fork") else not detected))
    return checks


def _suite_gap(seed: int):
    checks = []
    r = Distribution([0.6, 0.4])
    s = Distribution([0.4, 0.6])
    grid = [0.5, 0.1, 0.01, 0.001]
    values = vanishing_infimum_demo(r, s, 3, grid)
    if _fault("gap"):
        values = values[::-1]
    checks.append((f"all divergences positive: {['%.3e' % v for v in values]}", all(v > 0 for v in values)))
    checks.append(("divergence strictly decreasing in collapse", all(a > b for a, b in zip(values, values[1:]))))
    checks.append(("final value below 10% of first", values[-1] < 0.1 * values[0]))
    single = kl_divergence(JointTensor((2,), r.probs), JointTensor((2,), s.probs))
    at_one = vanishing_infimum_demo(r, s, 3, [1.0])[0]
    checks.append((f"t=1 equals single-letter divergence ({at_one:.6f} bits)", abs(at_one - single) <= 1e-12))
    return checks


def _suite_concentration(seed: int):
    checks = []
    system = random_system(2, 2, 3, seed + 1)
    q = output_distribution(system)
    if _fault("concentration"):
        q = JointTensor(q.shape, np.ascontiguousarray(q.values[::-1]))
    n = 10_000
    failures = 0
    trials = 40
    for t in range(trials):
        q_hat = ml_estimate(type_counts(sample_dcs(system, n, seed + 500 + t)))
        if not typicality_test(q_hat, q):
            failures += 1
    checks.append((f"{failures}/{trials} typicality failures at n={n}", failures <= max(1, trials // 20)))
    medians = []
    for size in (100, 1_000, 10_000):
        kls = [
            kl_divergence(ml_estimate(type_counts(sample_dcs(system, size, seed + 900 + t))), q)
            for t in range(11)
        ]
        medians.append(float(np.median(kls)))
    checks.append(
        (
            "median divergence non-increasing in n: " + ", ".join(f"{m:.2e}" for m in medians),
            all(a >= b for a, b in zip(medians, medians[1:])),
        )
    )
    return checks


_SUITES = {
    "roundtrip": _suite_roundtrip,
    "uniqueness": _suite_uniqueness,
    "k2ambiguity": _suite_k2ambiguity,
    "activation": _suite_activation,
    "conspiracy": _suite_conspiracy,
    "mi": _suite_mi,
    "fork": _suite_fork,
    "gap": _suite_gap,
    "concentration": _suite_concentration,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named suite and collect its per-check verdict lines."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if not 0 <= int(seed) < 2**64 - 2000:
        raise ValueError("seed out of range for suite derivations")
    checks = _SUITES[name](int(seed))
    lines = tuple(("ok   " if good else "FAIL ") + desc for desc, good in checks)
    return SuiteReport(name=name, passed=all(good for _, good in checks), lines=lines)
