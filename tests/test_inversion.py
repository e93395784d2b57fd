import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import depcomp as dc
from depcomp.core import forward_law
from depcomp import core, inversion
from depcomp.inversion import (
    OBJECTIVE_KINDS, _MIN_STEP, _block_maps, _descend, _g2, _objective, _others_product, _project_state, _system,
)
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

    @pytest.mark.parametrize(
        "v, match",
        [(np.ones((2, 2)), "1-D"), (np.array([]), "non-empty"), (np.array([0.5, np.nan]), "finite")],
        ids=["2d", "empty", "nan"],
    )
    def test_rejects_non_vectors_and_non_finite(self, v, match):
        with pytest.raises(ValueError, match=match):
            dc.project_simplex(v)

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
        for kind in OBJECTIVE_KINDS:
            assert dc.objective(self.sys, self.q, kind) <= 1e-12

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
        for kind in ("linf", "l1", "kl"):
            with pytest.raises(ValueError):
                dc.objective(self.sys, self.q, kind)
        bad_shape = dc.JointTensor((2, 2), np.full(4, 0.25))
        with pytest.raises(ValueError):
            dc.objective(self.sys, bad_shape, "l2sq")


class TestBlockMaps:
    @pytest.mark.parametrize("L, Lp", [(3, 2), (2, 3)], ids=["narrow", "wide"])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_maps_match_forward_law_and_are_adjoint(self, K, L, Lp):
        # Every block's map is the law of the state with that block replaced,
        # and its pull-back is the map's adjoint: <adj(g), Y> = <g, fwd(Y)>.
        # The state is a stack of two restarts, J = W_1 diag(p) and then the
        # channels; each slice is checked alone.  A block given as one column
        # of L' * L cells, as J is stepped, maps the same.
        rng = np.random.default_rng(10 * K + L)
        shape = (Lp,) * K
        J = rng.dirichlet(np.ones(Lp * L), size=2).reshape(2, 1, Lp, L)
        S = np.concatenate([J, rng.dirichlet(np.ones(Lp), size=(2, K - 1, L)).swapaxes(2, 3)], axis=1)
        ones = np.ones((2, L))
        for k in range(K):
            fwd, adj = _block_maps(k, _others_product(S, k), shape)
            X = rng.dirichlet(np.ones(Lp), size=(2, L)).swapaxes(1, 2)
            state = S.copy()
            state[:, k] = X
            law = fwd(X)
            np.testing.assert_allclose(law, forward_law(ones, list(state.swapaxes(0, 1))), rtol=0.0, atol=1e-15)
            assert np.array_equal(fwd(X.reshape(2, Lp * L, 1)), law)
            g, Y = rng.normal(size=(2, Lp**K)), rng.normal(size=X.shape)
            pulled, mapped = adj(g), fwd(Y)
            assert pulled.shape == X.shape
            for r in range(2):
                assert np.sum(pulled[r] * Y[r]) == pytest.approx(g[r] @ mapped[r], rel=1e-12)


class TestProjectState:
    def test_j_is_one_simplex_and_channels_are_columns(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(2, 3, 2, 3))
        out = _project_state(S)
        for r in range(2):
            np.testing.assert_array_equal(out[r, 0].ravel(), dc.project_simplex(S[r, 0].ravel()).probs)
            for k in (1, 2):
                for x in range(3):
                    np.testing.assert_array_equal(out[r, k][:, x], dc.project_simplex(S[r, k][:, x]).probs)


class TestDescend:
    def test_each_restart_follows_its_lone_path(self):
        # The J block (L = 3, L' = 2, K = 3) of a stack of three restarts,
        # stepped as one column of six cells.  Restart 0 is the target's own
        # state.  Restart 1's channels W_2 and W_3 send every hidden symbol to
        # output 1, so the pull-back is constant along each row of J,
        # where the curvature is 6, above the 2 at which step 1 stops
        # decreasing a quadratic.  Restart 2 is a generic state.
        rng = np.random.default_rng(7)
        Ws = rng.dirichlet(np.ones(2), size=(3, 3, 3)).swapaxes(2, 3)
        Ws[1, 1:] = [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        P = np.stack([[0.5, 0.3, 0.2], [0.2, 0.4, 0.4], rng.dirichlet(np.ones(3))])
        S = Ws.copy()
        S[:, 0] *= P[:, None, :]
        shape = (2, 2, 2)
        B = _others_product(S, 0)
        fwd, adj = _block_maps(0, B, shape)
        X = S[:, 0].reshape(3, 6, 1)
        m_cur = fwd(X)
        q = m_cur[0].copy()
        f_cur = _objective(m_cur, q)
        stacked = _descend(X, fwd, adj, q, m_cur, f_cur)
        calls = []
        for r in range(3):
            row = slice(r, r + 1)
            lone_fwd, lone_adj = _block_maps(0, B[row], shape)
            calls.append(0)

            def counted(Y, lone_fwd=lone_fwd):
                calls[-1] += 1
                return lone_fwd(Y)

            lone = _descend(X[row], counted, lone_adj, q, m_cur[row], f_cur[row])
            for got, want in zip(stacked, lone):
                assert np.array_equal(got[row], want)
        assert calls[1] > 1 and calls[2] == 1
        # An exact fit: no step decreases 0, so the step halves past
        # _MIN_STEP and the block stays.
        assert f_cur[0] == 0.0
        assert calls[0] == sum(1 for j in range(80) if 2.0**-j > _MIN_STEP)
        assert np.array_equal(stacked[0][0], X[0]) and stacked[3][0] == 0.0


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
        with pytest.raises(ValueError):
            dc.InversionConfig(L=2, max_iters=0)
        with pytest.raises(TypeError):
            dc.InversionConfig(L=2, step_tol=1e-8)
        for kind in ("linf", "l1", "kl"):
            with pytest.raises(ValueError):
                dc.InversionConfig(L=2, objective=kind)
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

    def test_zero_mass_symbol_gets_a_uniform_first_channel_column(self):
        # A point-mass truth drives the second column of J = W_1 diag(p) to
        # exactly 0, which leaves that column of W_1 undetermined: it comes
        # back uniform, every channel stays column-stochastic, and the fit is
        # flagged as near the boundary.
        truth = dc.DCSystem(dc.Distribution(np.array([1.0, 0.0])), (IDENT2,) * 3)
        res = dc.recover_system(dc.output_distribution(truth), dc.InversionConfig(L=2, restarts=2, seed=0))
        assert res.p_hat.probs.tolist() == [1.0, 0.0]
        assert res.near_boundary
        assert res.channels_hat[0].entries[:, 1].tolist() == [0.5, 0.5]
        for w in res.channels_hat:
            np.testing.assert_allclose(w.entries.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        J = np.array([[0.25, 0.0], [0.5, 0.0], [0.25, 0.0]])
        fit = _system(np.stack([J, np.eye(3)[:, :2]]))
        assert fit.p.probs.tolist() == [1.0, 0.0]
        assert fit.channels[0].entries.tolist() == [[0.25, 1 / 3], [0.5, 1 / 3], [0.25, 1 / 3]]

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
        assert res.converged == res.restart_log[res.best_restart].converged
        # A restart's outcome is its stop reason; the flags are derived from it.
        fields = ["restart", "objective", "iterations", "stop_reason", "trace"]
        assert [f.name for f in dataclasses.fields(dc.RestartLog)] == fields
        assert "converged" not in {f.name for f in dataclasses.fields(dc.InversionResult)}
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
        # On this exact law restarts 2 and 3 reach the fit floor (at sweeps
        # 150 and 160) before restart 1 does (at sweep 192), while restart 0
        # converges short of it.  A sequential multi-start stops after
        # restart 1, so the stacked fit must log 0-1 and nothing after; a
        # stack one restart wide is that sequential fit.
        q = dc.output_distribution(dc.random_system(3, 2, 4, 133))
        cfg = dc.InversionConfig(L=3, restarts=5, max_iters=400, seed=0)
        res = dc.recover_system(q, cfg)
        assert [(e.restart, e.stop_reason) for e in res.restart_log] == [
            (0, "converged"), (1, "fit_floor")
        ]
        assert res.best_restart == 1
        monkeypatch.setattr(core, "MAX_DENSE_CELLS", q.values.size * 3)
        assert dc.recover_system(q, cfg).restart_log == res.restart_log

    @pytest.mark.parametrize(
        "L, Lp", [(2, 3), (2, 2), (3, 2)], ids=["rectangular", "square", "narrow"]
    )
    def test_fit_properties(self, L, Lp):
        truth = dc.random_system(L, Lp, 3, 21)
        q = dc.output_distribution(truth)
        cfg = dc.InversionConfig(L=L, restarts=3, max_iters=50, seed=0)
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
            dc.objective(fit, q, cfg.objective), rel=1e-9, abs=1e-12
        )

    def test_invalid_inputs(self):
        q = dc.JointTensor((2, 2, 2), np.full(8, 0.125))
        with pytest.raises(ValueError, match="one output alphabet"):
            dc.recover_system(dc.JointTensor((2, 3, 2), np.full(12, 1 / 12)), dc.InversionConfig(L=2))
        with pytest.raises(ValueError):
            dc.recover_system(q, dc.InversionConfig(L=0))
        not_normalized = np.full(8, 0.125)
        not_normalized[0] += 5e-10
        with pytest.raises(ValueError):
            dc.recover_system(
                dc.JointTensor((2, 2, 2), not_normalized), dc.InversionConfig(L=2)
            )


def sampled_law(system, n, seed):
    return dc.ml_estimate(dc.type_counts(dc.sample_dcs(system, n, seed)))


def assert_same_fit(a, b):
    assert len(a.restart_log) == len(b.restart_log)
    for x, y in zip(a.restart_log, b.restart_log):
        assert (x.restart, x.iterations, x.stop_reason) == (y.restart, y.iterations, y.stop_reason)
        assert np.array_equal(x.objective, y.objective)
        assert np.array_equal(x.trace, y.trace)
    assert a.best_restart == b.best_restart
    assert np.array_equal(a.p_hat.probs, b.p_hat.probs)
    for u, v in zip(a.channels_hat, b.channels_hat):
        assert np.array_equal(u.entries, v.entries)


class TestSampledSchedule:
    """A target's ``n`` sets only the restart schedule: the same values fit
    as a sampled law (every restart in one stack from sweep 1) and as an
    exact law (restart 0 alone first) give the same logs and fit."""

    @pytest.fixture()
    def stack_calls(self, monkeypatch):
        calls, solve_stack = [], inversion._solve_stack

        def counted(q, shape, starts, ids, max_iters):
            calls.append(list(ids))
            return solve_stack(q, shape, starts, ids, max_iters)

        monkeypatch.setattr(inversion, "_solve_stack", counted)
        return calls

    def fit_both_ways(self, q, cfg, calls):
        sampled = dc.recover_system(q, cfg)
        sampled_calls = list(calls)
        calls.clear()
        exact = dc.recover_system(dc.JointTensor(q.shape, q.values), cfg)
        assert (sampled.n, exact.n) == (q.n, None)
        assert_same_fit(sampled, exact)
        return sampled, sampled_calls, list(calls)

    @pytest.mark.parametrize("s", range(4))
    def test_noisy_fit_laws(self, s, stack_calls):
        q = sampled_law(dc.random_system(2, 2, 4, 500 + s), 20_000, 900 + s)
        cfg = dc.InversionConfig(L=2, restarts=4, max_iters=40, seed=0)
        _, sampled_calls, exact_calls = self.fit_both_ways(q, cfg, stack_calls)
        assert sampled_calls == [[0, 1, 2, 3]]
        assert exact_calls == [[0], [1, 2, 3]]

    def test_restart_0_at_the_fit_floor(self, stack_calls):
        # Criterion 10's seed-1 law: restart 0 reaches the fit floor, so the
        # sampled fit, whose stack also ran restarts 1-7, logs restart 0 alone.
        q = sampled_law(dc.random_system(2, 2, 3, 1), 100_000, 1001)
        cfg = dc.InversionConfig(L=2, restarts=8, seed=0)
        res, sampled_calls, exact_calls = self.fit_both_ways(q, cfg, stack_calls)
        assert [(e.restart, e.stop_reason) for e in res.restart_log] == [(0, "fit_floor")]
        assert sampled_calls == [list(range(8))]
        assert exact_calls == [[0]]

    def test_under_determined_law(self, stack_calls):
        q = sampled_law(dc.random_system(4, 2, 4, 300), 100_000, 77)
        cfg = dc.InversionConfig(L=4, restarts=8, max_iters=200, seed=0)
        _, sampled_calls, exact_calls = self.fit_both_ways(q, cfg, stack_calls)
        assert sampled_calls == [list(range(8))]
        assert exact_calls == [[0], list(range(1, 8))]

    def test_groups_keep_the_width_cap(self, stack_calls, monkeypatch):
        q = sampled_law(dc.random_system(2, 2, 3, 2), 1000, 5)
        monkeypatch.setattr(core, "MAX_DENSE_CELLS", q.values.size * 2 * 3)
        cfg = dc.InversionConfig(L=2, restarts=8, max_iters=5, seed=0)
        _, sampled_calls, exact_calls = self.fit_both_ways(q, cfg, stack_calls)
        assert sampled_calls == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert exact_calls == [[0], [1, 2, 3], [4, 5, 6], [7]]


class TestG2:
    def test_observed_cell_without_model_mass_has_none(self):
        # Identity channels put no mass off the diagonal, where q has some.
        fit = dc.DCSystem(dc.Distribution(np.array([0.5, 0.5])), (IDENT2,) * 3)
        q = np.full(8, 0.125)
        assert _g2(q, 100, fit) is None
        diag = dc.output_distribution(fit).values
        assert _g2(diag, 100, fit) == 0.0


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
