"""Acceptance suite: the ten headline guarantees, one verdict line each.

Every test prints a single ``[PASS]``/``[FAIL]`` line (forced past pytest's
capture) before asserting, so a full run always yields a ten-line report.
Tolerances and trial counts are pinned; randomness is seeded throughout.
"""

import time

import numpy as np
import pytest

import depcomp as dc
from depcomp.cli import main as cli_main
from depcomp.io import load_result, load_system


@pytest.fixture()
def verdict(capsys):
    def emit(num, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
        assert ok, f"criterion {num} failed: {detail}"

    return emit


def test_criterion_01_exact_law_roundtrip(verdict):
    # 20 seeded systems, L in {2, 3}, K = 3, min hidden mass 0.1, channels
    # 0.3-noise identity mixtures; inversion of the exact law with 32
    # restarts must recover p within 1e-3 (L1) and every channel entry
    # within 5e-3 in at least 18 of 20 systems, in under two minutes.
    t0 = time.monotonic()
    hits = 0
    for i in range(20):
        L = 2 if i < 10 else 3
        truth = dc.random_system(L, L, 3, 1000 + i, min_mass=0.1, min_gap=0.05)
        q = dc.output_distribution(truth)
        res = dc.recover_system(q, dc.InversionConfig(L=L, restarts=32, seed=0))
        canon = dc.canonicalize(truth)
        p_err = float(np.abs(res.p_hat.probs - canon.p.probs).sum())
        w_err = max(
            float(np.abs(w.entries - v.entries).max())
            for w, v in zip(res.channels_hat, canon.channels)
        )
        hits += p_err <= 1e-3 and w_err <= 5e-3
    elapsed = time.monotonic() - t0
    ok = hits >= 18 and elapsed < 120.0
    verdict(1, ok, f"exact-law recovery {hits}/20 within tolerance ({elapsed:.1f}s)")


def test_criterion_02_relabeling_invariance_and_sensitivity(verdict):
    # All 6 hidden relabelings leave the output law unchanged (<= 1e-12),
    # while any genuine single-column perturbation of size 1e-3 moves it by
    # at least 1e-5 in L1, across 100 seeded trials.
    import itertools

    system = dc.random_system(3, 3, 3, 2024)
    q = dc.output_distribution(system)
    invariance = max(
        float(
            np.abs(
                dc.output_distribution(
                    dc.permute_system(dc.Permutation(m), system)
                ).values
                - q.values
            ).max()
        )
        for m in itertools.permutations((1, 2, 3))
    )

    moved_enough = 0
    for t in range(100):
        rng = np.random.default_rng(20_000 + t)
        sys_t = dc.random_system(3, 3, 3, 20_000 + t, min_mass=0.05)
        q_t = dc.output_distribution(sys_t)
        k = int(rng.integers(3))
        j = int(rng.integers(3))
        entries = sys_t.channels[k].entries.copy()
        column = entries[:, j].copy()
        column[int(np.argmin(column))] += 1e-3
        entries[:, j] = column / column.sum()
        bumped = list(sys_t.channels)
        bumped[k] = dc.Channel(entries)
        moved = dc.lp_distance(
            dc.output_distribution(dc.DCSystem(sys_t.p, tuple(bumped))), q_t, 1
        )
        moved_enough += moved >= 1e-5
    ok = invariance <= 1e-12 and moved_enough == 100
    verdict(
        2,
        ok,
        f"relabeling invariance {invariance:.1e}, perturbation felt {moved_enough}/100",
    )


def test_criterion_03_two_channel_ambiguity(verdict):
    # 50 seeded witnesses: identical output laws (< 1e-12) from hidden
    # distributions more than 1e-3 apart.
    good = 0
    for seed in range(50):
        w = dc.k2_ambiguity_witness(seed=seed)
        theta_gap = dc.lp_distance(
            dc.output_distribution(w.first), dc.output_distribution(w.second), 1
        )
        hidden_gap = float(np.abs(w.first.p.probs - w.second.p.probs).sum())
        good += theta_gap < 1e-12 and hidden_gap > 1e-3
    verdict(3, good == 50, f"two-channel ambiguity witnesses {good}/50")


def test_criterion_04_activation_of_invertibility(verdict):
    # The fixed midpoint channel flips from non-invertible at K=1 to
    # invertible at K=2; 100 seeded distinct-column channels (L <= 5) all
    # activate by K = L-1; restricted rank never drops as K grows.
    midpoint = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    fixed_ok = (not dc.activation_invertible(midpoint, 1)) and dc.activation_invertible(
        midpoint, 2
    )

    activated = 0
    monotone = True
    for t in range(100):
        L = 2 + t % 4
        Lp = (2, 3, 4, 5)[(t // 4) % 4]
        rng = np.random.default_rng(30_000 + t)
        w = dc.random_channel(rng, Lp, L, min_column_gap=0.05)
        activated += dc.activation_invertible(w, max(L - 1, 1))
        ranks = [dc.numerical_rank(dc.khatri_rao_power(w, K)) for K in range(1, 5)]
        monotone &= all(b >= a for a, b in zip(ranks, ranks[1:]))
    ok = fixed_ok and activated == 100 and monotone
    verdict(
        4,
        ok,
        f"fixed example {'ok' if fixed_ok else 'broken'}, "
        f"activation by K=L-1 in {activated}/100, rank monotone {monotone}",
    )


def test_criterion_05_shared_kernel_detection(verdict):
    # Channels built as U_k P (invertible U_k, one shared bottleneck P) are
    # flagged as sharing a kernel in 50/50 seeds; independently drawn channel
    # lists are flagged as not sharing one in 50/50 seeds.
    shared_hits = independent_hits = 0
    for t in range(50):
        rng = np.random.default_rng(40_000 + t)
        P = dc.random_channel(rng, 2, 3)
        stack = []
        for _ in range(3):
            while True:
                mix = rng.dirichlet(np.ones(2), size=2).T
                U = 0.6 * np.eye(2) + 0.4 * mix
                if dc.numerical_rank(U) == 2:
                    break
            stack.append(dc.Channel(U @ P.entries))
        shared_hits += dc.kernels_equal(stack)
        independent_hits += not dc.kernels_equal(
            [dc.random_channel(rng, 2, 3) for _ in range(3)]
        )
    ok = shared_hits == 50 and independent_hits == 50
    verdict(
        5, ok, f"shared kernel {shared_hits}/50, independent rejected {independent_hits}/50"
    )


def test_criterion_06_dependence_without_identifiability(verdict):
    # The four-symbol counterexample keeps every pairwise dependence above
    # 0.01 bits while two distinct hidden distributions collide in the
    # output law to within 1e-15.
    cx = dc.mi_counterexample(
        dc.Distribution(np.array([0.5, 0.5])),
        3,
        dc.Distribution(np.array([0.1, 0.2, 0.3, 0.4])),
    )
    q1 = dc.output_distribution(cx.first)
    q2 = dc.output_distribution(cx.second)
    collision = dc.lp_distance(q1, q2, 1)
    mi = dc.pairwise_mutual_information(q1)
    min_mi = float(mi[~np.eye(3, dtype=bool)].min())
    ok = collision <= 1e-15 and min_mi > 0.01
    verdict(6, ok, f"theta collision {collision:.1e}, min pairwise MI {min_mi:.4f} bits")


def test_criterion_07_estimate_concentration(verdict):
    # At n = 1e4, at most 5% of 200 seeded estimates fail the 1/sqrt(n)
    # typicality test; median KL error is non-increasing along the n grid.
    system = dc.random_system(2, 2, 3, 777)
    q = dc.output_distribution(system)
    failures = sum(
        not dc.typicality_test(
            dc.ml_estimate(dc.type_counts(dc.sample_dcs(system, 10_000, 50_000 + t))), q
        )
        for t in range(200)
    )
    medians = []
    for n in (100, 1000, 10_000, 100_000):
        kls = [
            dc.kl_divergence(
                dc.ml_estimate(dc.type_counts(dc.sample_dcs(system, n, 60_000 + s))), q
            )
            for s in range(21)
        ]
        medians.append(float(np.median(kls)))
    ok = failures <= 10 and all(b <= a for a, b in zip(medians, medians[1:]))
    verdict(
        7,
        ok,
        f"typicality failures {failures}/200, median KL "
        + " > ".join(f"{m:.1e}" for m in medians),
    )


def test_criterion_08_vanishing_divergence(verdict):
    # Collapsing the channels drives the distinguishing divergence to zero:
    # strictly decreasing, positive, final value below 10% of the first.
    values = dc.vanishing_infimum_demo(
        dc.Distribution(np.array([0.6, 0.4])),
        dc.Distribution(np.array([0.4, 0.6])),
        3,
        [0.5, 0.1, 0.01, 0.001],
    )
    ok = (
        all(v > 0.0 for v in values)
        and all(b < a for a, b in zip(values, values[1:]))
        and values[-1] < 0.1 * values[0]
    )
    verdict(8, ok, "divergence sequence " + " > ".join(f"{v:.2e}" for v in values))


def test_criterion_09_screening_off(verdict):
    # The cause screens off the outputs for 100 seeded systems; a hand-built
    # joint with output-to-output leakage is rejected.
    passed = 0
    for seed in range(100):
        L = 2 + seed % 3
        sys_ = dc.random_system(L, 2 + seed % 2, 2 + seed % 3, 90_000 + seed)
        passed += dc.conjunctive_fork_check(sys_)

    flip = 0.2
    w = np.array([[1 - flip, flip], [flip, 1 - flip]])
    leak = np.zeros((2, 2, 2))
    for c in range(2):
        for y1 in range(2):
            leak[c, y1, y1] = 0.5 * w[y1, c]  # second output copies the first
    leak_rejected = not dc.conditionally_independent_given_cause(
        dc.JointTensor(leak.shape, leak.ravel())
    )
    ok = passed == 100 and leak_rejected
    verdict(9, ok, f"screening-off {passed}/100, leaky joint rejected {leak_rejected}")


def test_criterion_10_sample_based_recovery(verdict, tmp_path):
    # Full pipeline through the command line: generate, simulate n = 1e5,
    # estimate, invert; hidden distribution recovered within 5e-2 (L1, after
    # relabeling) in at least 18 of 20 seeds, in under five minutes.
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        d = tmp_path / f"run{seed}"
        d.mkdir()
        sys_p, smp_p = str(d / "sys.json"), str(d / "samples.csv")
        q_p, fit_p = str(d / "q.json"), str(d / "fit.json")
        assert cli_main(["gen", "--L", "2", "--K", "3", "--seed", str(seed), "--out", sys_p]) == 0
        assert cli_main(["simulate", "--system", sys_p, "--n", "100000", "--seed", str(seed + 1000), "--out", smp_p]) == 0
        assert cli_main(["estimate", "--samples", smp_p, "--out", q_p]) == 0
        assert cli_main(["invert", "--q", q_p, "--L", "2", "--restarts", "8", "--seed", "0", "--out", fit_p]) == 0
        truth = load_system(sys_p)
        p_hat = dc.Distribution(np.array(load_result(fit_p)["p_hat"]))
        tau = dc.align_permutation(truth.p, p_hat)
        err = float(np.abs(p_hat.probs[tau.source_indices()] - truth.p.probs).sum())
        hits += err <= 5e-2
    elapsed = time.monotonic() - t0
    ok = hits >= 18 and elapsed < 300.0
    verdict(10, ok, f"sample-based recovery {hits}/20 within 5e-2 ({elapsed:.1f}s)")
