import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import depcomp as dc
from depcomp.core import forward_law
from depcomp import core
from depcomp.inversion import _block_maps, _others_product
from oracles import best_relabeling, nearest_simplex_point

IDENT2 = dc.Channel(np.eye(2))


def exact_law(seed, L=3, K=3, **kw):
    sys_ = dc.random_system(L, L, K, seed, **kw)
    return sys_, dc.output_distribution(sys_)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_array_equal(
            dc.project_simplex(np.array([0.2, 0.8])).probs, [0.2, 0.8]
        )

    def test_vertex(self):
        np.testing.assert_array_equal(
            dc.project_simplex(np.array([2.0, 0.0])).probs, [1.0, 0.0]
        )

    def test_common_shift(self):
        # (0.6, 0.6): subtract the common KKT shift 0.1 from both entries.
        np.testing.assert_allclose(
            dc.project_simplex(np.array([0.6, 0.6])).probs, [0.5, 0.5], atol=1e-15
        )

    def test_grid_oracle_matches_its_loop(self):
        # The vectorised grid oracle against the plain loop over the same
        # candidates, first minimum winning, on a coarse grid.
        step = 0.05
        grid = np.arange(0.0, 1.0 + step, step)
        rng = np.random.default_rng(14)
        for v in [rng.normal(size=3) for _ in range(4)] + [np.full(3, 1 / 3), np.zeros(3)]:
            best, best_d = None, np.inf
            for a in grid:
                for b in grid:
                    if a + b <= 1.0:
                        cand = (a, b, 1.0 - a - b)
                        d = sum((c - x) ** 2 for c, x in zip(cand, v))
                        if d < best_d:
                            best, best_d = cand, d
            np.testing.assert_array_equal(nearest_simplex_point(v, step=step), best)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = rng.normal(size=3)
            got = dc.project_simplex(v).probs
            want = nearest_simplex_point(v, step=1e-3)
            assert np.abs(got - want).max() <= 2e-3

    def test_rounding_level_negatives_project_to_exact_zeros(self):
        v = [-1.6914027236846311e-16, 0.9999999999999999, -1.6777640707363105e-16]
        assert dc.project_simplex(v).probs.tolist() == [0.0, 1.0, 0.0]

    def test_idempotent_and_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = dc.project_simplex(rng.normal(size=6) * 3)
            assert np.all(d.probs >= 0.0)
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                dc.project_simplex(d.probs).probs, d.probs, atol=1e-12
            )


class TestObjective:
    def setup_method(self):
        self.sys = dc.random_system(2, 2, 3, 41)
        self.q = dc.output_distribution(self.sys)

    def test_zero_at_exact_fit(self):
        for kind in ("kl", "l1", "l2sq"):
            assert dc.objective(self.sys, self.q, kind) <= 1e-12

    def test_l1_disjoint_supports(self):
        truth = dc.DCSystem(dc.Distribution(np.array([1.0, 0.0])), (IDENT2,) * 3)
        target = dc.diag_embed(dc.Distribution(np.array([0.0, 1.0])), 3)
        assert dc.objective(truth, target, "l1") == pytest.approx(2.0, abs=1e-15)

    def test_l2sq_value(self):
        # Sum of squared deviations of (0.104, 0.092, 0.168, 0.636) from
        # uniform 0.25: 0.021316 + 0.024964 + 0.006724 + 0.148996 = 0.202.
        bsc = dc.DCSystem(
            dc.Distribution(np.array([0.12, 0.88])),
            (
                dc.Channel(np.array([[0.9, 0.1], [0.1, 0.9]])),
                dc.Channel(np.array([[0.8, 0.2], [0.2, 0.8]])),
            ),
        )
        uniform = dc.JointTensor((2, 2), np.full(4, 0.25))
        assert dc.objective(bsc, uniform, "l2sq") == pytest.approx(0.202, abs=1e-12)

    def test_invalid_kind_and_shape(self):
        with pytest.raises(ValueError):
            dc.objective(self.sys, self.q, "linf")
        bad_shape = dc.JointTensor((2, 2), np.full(4, 0.25))
        with pytest.raises(ValueError):
            dc.objective(self.sys, bad_shape, "l2sq")


class TestBlockMaps:
    @pytest.mark.parametrize("L, Lp", [(3, 2), (2, 3)], ids=["narrow", "wide"])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_maps_match_forward_law_and_are_adjoint(self, K, L, Lp):
        # Every block's map is the law of the state with that block replaced,
        # and its pull-back is the map's adjoint: <adj(g), Y> = <g, fwd(Y)>.
        # The state is a stack of two restarts; each slice is checked alone.
        rng = np.random.default_rng(10 * K + L)
        shape = (Lp,) * K
        P = rng.dirichlet(np.ones(L), size=2)[:, :, None]
        Ws = rng.dirichlet(np.ones(Lp), size=(2, K, L)).swapaxes(2, 3)
        blocks = [P, *Ws.swapaxes(0, 1)]
        for i, block in enumerate(blocks):
            fwd, adj = _block_maps(P, Ws, i, _others_product(Ws, max(i - 1, 0)), shape)
            X = rng.dirichlet(np.ones(block.shape[1]), size=(2, block.shape[2])).swapaxes(1, 2)
            state = blocks[:i] + [X] + blocks[i + 1 :]
            np.testing.assert_allclose(
                fwd(X), forward_law(state[0][:, :, 0], state[1:]), rtol=0.0, atol=1e-15
            )
            g, Y = rng.normal(size=(2, Lp**K)), rng.normal(size=block.shape)
            pulled, mapped = adj(g), fwd(Y)
            assert pulled.shape == block.shape
            for r in range(2):
                assert np.sum(pulled[r] * Y[r]) == pytest.approx(g[r] @ mapped[r], rel=1e-12)


class TestInversionConfig:
    def test_defaults_valid(self):
        cfg = dc.InversionConfig(L=2)
        assert cfg.restarts >= 1
        assert [f.name for f in dataclasses.fields(cfg)] == ["L", "objective", "restarts", "max_iters", "seed"]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            dc.InversionConfig(L=0)
        with pytest.raises(ValueError):
            dc.InversionConfig(L=2, restarts=0)
        with pytest.raises(TypeError):
            dc.InversionConfig(L=2, step_tol=1e-8)
        with pytest.raises(ValueError):
            dc.InversionConfig(L=2, objective="linf")
        with pytest.raises(ValueError):
            dc.InversionConfig(L=2, seed=-1)


class TestRecoverSystem:
    def test_identity_fixed_point(self):
        truth = dc.DCSystem(dc.Distribution(np.array([0.7, 0.3])), (IDENT2,) * 3)
        res = dc.recover_system(
            dc.output_distribution(truth), dc.InversionConfig(L=2, restarts=32, seed=0)
        )
        assert res.objective_value < 1e-9
        assert np.abs(res.p_hat.probs - [0.7, 0.3]).sum() <= 1e-3
        for w in res.channels_hat:
            assert np.abs(w.entries - np.eye(2)).max() <= 5e-3

    def test_three_symbol_recovery(self):
        channels = dc.random_system(3, 3, 3, 55).channels
        truth = dc.DCSystem(dc.Distribution(np.array([0.5, 0.3, 0.2])), channels)
        res = dc.recover_system(
            dc.output_distribution(truth), dc.InversionConfig(L=3, restarts=32, seed=0)
        )
        canon = dc.canonicalize(truth)
        assert np.abs(res.p_hat.probs - canon.p.probs).sum() <= 1e-3
        for w_hat, w in zip(res.channels_hat, canon.channels):
            assert np.abs(w_hat.entries - w.entries).max() <= 5e-3

    def test_result_is_canonical_and_valid(self):
        rng = np.random.default_rng(2)
        q = dc.JointTensor((2, 2, 2), rng.dirichlet(np.ones(8)))
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=4, seed=1))
        # p_hat sorted non-increasing, everything on its simplex within 1e-10.
        assert np.all(np.diff(res.p_hat.probs) <= 0)
        assert abs(res.p_hat.probs.sum() - 1.0) <= 1e-10
        for w in res.channels_hat:
            assert np.all(w.entries >= 0.0) and np.all(w.entries <= 1.0)
            np.testing.assert_allclose(w.entries.sum(axis=0), 1.0, atol=1e-10)

    def test_deterministic_bit_for_bit(self):
        _, q = exact_law(88)
        cfg = dc.InversionConfig(L=3, restarts=4, seed=7)
        r1 = dc.recover_system(q, cfg)
        r2 = dc.recover_system(q, cfg)
        assert r1.objective_value == r2.objective_value
        assert r1.best_restart == r2.best_restart
        np.testing.assert_array_equal(r1.p_hat.probs, r2.p_hat.probs)
        for a, b in zip(r1.channels_hat, r2.channels_hat):
            np.testing.assert_array_equal(a.entries, b.entries)
        assert len(r1.restart_log) == len(r2.restart_log)
        for a, b in zip(r1.restart_log, r2.restart_log):
            assert a.objective == b.objective and a.iterations == b.iterations
            np.testing.assert_array_equal(a.trace, b.trace)

    def test_objective_monotone_within_restart(self):
        _, q = exact_law(14, L=2)
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=3, seed=2))
        for entry in res.restart_log:
            assert entry.trace is not None
            assert np.all(np.diff(entry.trace) <= 0.0)

    def test_trace_present_by_default(self):
        _, q = exact_law(14, L=2)
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=2, seed=2))
        for entry in res.restart_log:
            assert len(entry.trace) == entry.iterations + 1
            assert entry.trace[-1] == entry.objective
        assert 1 <= len(res.restart_log) <= 2

    def test_oversized_fit_refused_before_allocating(self):
        _, q = exact_law(14, L=2)
        with pytest.raises(ValueError, match="dense cells"):
            dc.recover_system(q, dc.InversionConfig(L=10**12))

    def test_near_boundary_flag(self):
        # A point-mass truth forces the second atom to zero mass.
        truth = dc.DCSystem(dc.Distribution(np.array([1.0, 0.0])), (IDENT2,) * 3)
        res = dc.recover_system(
            dc.output_distribution(truth), dc.InversionConfig(L=2, restarts=8, seed=0)
        )
        assert res.near_boundary
        interior = dc.random_system(2, 2, 3, 4, min_mass=0.2)
        res2 = dc.recover_system(
            dc.output_distribution(interior), dc.InversionConfig(L=2, restarts=8, seed=0)
        )
        assert not res2.near_boundary

    def test_ambiguous_law_still_fits(self):
        # The four-symbol law with two colliding hidden distributions is fit
        # to numerical exactness even though the minimizer is not unique.
        cx = dc.mi_counterexample(
            dc.Distribution(np.array([0.5, 0.5])),
            3,
            dc.Distribution(np.array([0.1, 0.2, 0.3, 0.4])),
        )
        q = dc.output_distribution(cx.first)
        res = dc.recover_system(q, dc.InversionConfig(L=4, restarts=16, seed=0))
        assert res.objective_value < 1e-9

    def test_two_channel_warning_and_double_minimum(self):
        witness = dc.k2_ambiguity_witness(seed=3)
        q = dc.output_distribution(witness.first)
        with pytest.warns(UserWarning):
            res = dc.recover_system(
                q, dc.InversionConfig(L=witness.first.hidden_size, restarts=8, seed=0)
            )
        assert res.objective_value < 1e-9
        # Both constructions sit at (numerically) zero objective themselves.
        assert dc.objective(witness.first, q, "l2sq") < 1e-9
        assert dc.objective(witness.second, q, "l2sq") < 1e-9

    def test_near_boundary_sample_law_converges(self):
        # Criterion 10's seed 0: true p = [0.992, 0.008], estimated from 1e5
        # records, so the fit floor is out of reach and a restart has to
        # converge near the simplex boundary within the sweep budget.
        batch = dc.sample_dcs(dc.random_system(2, 2, 3, 0), 100_000, 1000)
        q = dc.ml_estimate(dc.type_counts(batch))
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=8, seed=0))
        assert res.objective_value < 3e-7
        assert any(entry.converged for entry in res.restart_log)

    def test_stop_reasons(self):
        # An exact law's last restart stops at the fit floor; a five-sweep
        # budget stops every restart of a sampled law at the budget.
        _, q = exact_law(14, L=2)
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=4, seed=2))
        assert res.restart_log[-1].stop_reason == "fit_floor"
        for entry in res.restart_log:
            assert entry.converged == (entry.stop_reason != "max_iters")
        batch = dc.sample_dcs(dc.random_system(2, 2, 3, 0), 10_000, 1000)
        q = dc.ml_estimate(dc.type_counts(batch))
        res = dc.recover_system(q, dc.InversionConfig(L=2, restarts=3, max_iters=5, seed=0))
        assert [e.stop_reason for e in res.restart_log] == ["max_iters"] * 3
        assert not res.converged

    def test_lockstep_restarts_match_a_shorter_fit(self, monkeypatch):
        # Restarts run as one stack must each follow their own path, bit for
        # bit: restarts 0-2 of an 8-restart fit are those of a 3-restart fit,
        # and a stack one restart wide changes neither the result nor the log.
        batch = dc.sample_dcs(dc.random_system(2, 2, 3, 0), 100_000, 1000)
        q = dc.ml_estimate(dc.type_counts(batch))
        full = dc.recover_system(q, dc.InversionConfig(L=2, restarts=8, max_iters=300, seed=0))
        short = dc.recover_system(q, dc.InversionConfig(L=2, restarts=3, max_iters=300, seed=0))
        assert len(full.restart_log) == 8
        assert full.restart_log[:3] == short.restart_log
        # Restarts leave the stack at different sweeps, for different reasons.
        assert len({e.iterations for e in full.restart_log}) > 2
        assert {e.stop_reason for e in full.restart_log} == {"converged", "max_iters"}
        monkeypatch.setattr(core, "MAX_DENSE_CELLS", q.values.size * 2)
        narrow = dc.recover_system(q, dc.InversionConfig(L=2, restarts=8, max_iters=300, seed=0))
        assert narrow.restart_log == full.restart_log
        assert narrow.best_restart == full.best_restart
        assert narrow.objective_value == full.objective_value
        np.testing.assert_array_equal(narrow.p_hat.probs, full.p_hat.probs)
        for a, b in zip(narrow.channels_hat, full.channels_hat):
            np.testing.assert_array_equal(a.entries, b.entries)

    def test_restarts_after_the_first_at_the_fit_floor_are_dropped(self, monkeypatch):
        # On this exact law restarts 3 and 4 reach the fit floor (at sweeps
        # 285 and 275) before restart 2 does (at sweep 371), while restart 1
        # converges short of it.  A sequential multi-start stops after
        # restart 2, so the stacked fit must log 0-2 and nothing after; a
        # stack one restart wide is that sequential fit.
        q = dc.output_distribution(dc.random_system(3, 2, 4, 15))
        cfg = dc.InversionConfig(L=3, restarts=5, max_iters=400, seed=0)
        res = dc.recover_system(q, cfg)
        assert [(e.restart, e.stop_reason) for e in res.restart_log] == [
            (0, "converged"), (1, "converged"), (2, "fit_floor")
        ]
        assert res.best_restart == 2
        monkeypatch.setattr(core, "MAX_DENSE_CELLS", q.values.size * 3)
        assert dc.recover_system(q, cfg).restart_log == res.restart_log

    def test_kl_objective_also_recovers(self):
        truth, q = exact_law(3, L=2, min_mass=0.15)
        res = dc.recover_system(
            q, dc.InversionConfig(L=2, objective="kl", restarts=8, seed=0)
        )
        canon = dc.canonicalize(truth)
        assert np.abs(res.p_hat.probs - canon.p.probs).sum() <= 1e-2

    @pytest.mark.parametrize(
        "kind, L, Lp",
        [("l1", 2, 2), ("l2sq", 2, 3), ("kl", 2, 2), ("l2sq", 3, 2)],
        ids=["l1", "rectangular", "kl", "narrow"],
    )
    def test_fit_properties(self, kind, L, Lp):
        truth = dc.random_system(L, Lp, 3, 21)
        q = dc.output_distribution(truth)
        cfg = dc.InversionConfig(L=L, objective=kind, restarts=3, max_iters=50, seed=0)
        res = dc.recover_system(q, cfg)
        for entry in res.restart_log:
            assert np.all(np.diff(entry.trace) <= 0.0)
            # Every stop is the fit floor, convergence or the sweep budget.
            assert entry.iterations <= cfg.max_iters
            assert len(entry.trace) == entry.iterations + 1
            assert entry.converged or entry.iterations == cfg.max_iters
        for w in res.channels_hat:
            assert w.entries.shape == (Lp, L)
            assert np.all(w.entries >= 0.0)
            np.testing.assert_allclose(w.entries.sum(axis=0), 1.0, rtol=0.0, atol=1e-10)
        fit = dc.DCSystem(res.p_hat, res.channels_hat)
        assert res.objective_value == pytest.approx(
            dc.objective(fit, q, kind), rel=1e-9, abs=1e-12
        )

    def test_invalid_inputs(self):
        q = dc.JointTensor((2, 2, 2), np.full(8, 0.125))
        with pytest.raises(ValueError):
            dc.recover_system(q, dc.InversionConfig(L=0))
        not_normalized = np.full(8, 0.125)
        not_normalized[0] += 5e-10
        with pytest.raises(ValueError):
            dc.recover_system(
                dc.JointTensor((2, 2, 2), not_normalized), dc.InversionConfig(L=2)
            )


class TestCanonicalize:
    def test_sorts_descending(self):
        w = dc.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        sys_ = dc.DCSystem(dc.Distribution(np.array([0.3, 0.7])), (w,))
        out = dc.canonicalize(sys_)
        np.testing.assert_array_equal(out.p.probs, [0.7, 0.3])
        np.testing.assert_array_equal(out.channels[0].entries, [[0.2, 0.9], [0.8, 0.1]])

    def test_descending_input_unchanged(self):
        sys_ = dc.random_system(3, 2, 2, 61)
        out = dc.canonicalize(sys_)
        np.testing.assert_array_equal(out.p.probs, sys_.p.probs)

    def test_output_law_preserved(self):
        for seed in range(5):
            sys_ = dc.permute_system(
                dc.Permutation((3, 1, 2)), dc.random_system(3, 2, 3, 70 + seed)
            )
            np.testing.assert_allclose(
                dc.output_distribution(dc.canonicalize(sys_)).values,
                dc.output_distribution(sys_).values,
                atol=1e-12,
            )

    def test_tie_break_is_column_order(self):
        # Equal masses: the relabeling that sorts channel columns wins, so
        # both labelings of the same system canonicalize identically.
        w = dc.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        s1 = dc.DCSystem(dc.Distribution(np.array([0.5, 0.5])), (w,))
        s2 = dc.permute_system(dc.Permutation((2, 1)), s1)
        c1, c2 = dc.canonicalize(s1), dc.canonicalize(s2)
        np.testing.assert_array_equal(c1.p.probs, c2.p.probs)
        np.testing.assert_array_equal(c1.channels[0].entries, c2.channels[0].entries)


class TestAlignPermutation:
    def test_identity_and_swap(self):
        p = dc.Distribution(np.array([0.7, 0.3]))
        assert dc.align_permutation(p, p).mapping == (1, 2)
        swapped = dc.Distribution(np.array([0.3, 0.7]))
        assert dc.align_permutation(p, swapped).mapping == (2, 1)

    def test_three_cycle(self):
        p_true = dc.Distribution(np.array([0.5, 0.3, 0.2]))
        p_est = dc.Distribution(np.array([0.2, 0.5, 0.3]))
        tau = dc.align_permutation(p_true, p_est)
        assert tau.mapping == (3, 1, 2)
        np.testing.assert_allclose(
            p_est.probs[tau.source_indices()], p_true.probs, atol=1e-15
        )

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p_true = dc.Distribution(rng.dirichlet(np.ones(4)))
            p_est = dc.Distribution(rng.dirichlet(np.ones(4)))
            tau = dc.align_permutation(p_true, p_est)
            mapping, dist = best_relabeling(p_true.probs, p_est.probs)
            assert tau.mapping == mapping
            got = float(np.abs(p_est.probs[tau.source_indices()] - p_true.probs).sum())
            assert got == pytest.approx(dist, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dc.align_permutation(
                dc.Distribution(np.array([0.5, 0.5])),
                dc.Distribution(np.array([0.5, 0.3, 0.2])),
            )


def test_relabelings_cover_all_global_minima():
    # Every relabeling of the truth is an exact zero of the objective; the
    # recovered system must match one of them.
    truth, q = exact_law(9, L=3, min_mass=0.1)
    for mapping in itertools.permutations((1, 2, 3)):
        moved = dc.permute_system(dc.Permutation(mapping), truth)
        assert dc.objective(moved, q, "l2sq") <= 1e-20
    res = dc.recover_system(q, dc.InversionConfig(L=3, restarts=32, seed=0))
    gaps = []
    for mapping in itertools.permutations((1, 2, 3)):
        moved = dc.permute_system(dc.Permutation(mapping), truth)
        gaps.append(np.abs(moved.p.probs - res.p_hat.probs).sum())
    assert min(gaps) <= 1e-3
