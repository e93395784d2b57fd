import numpy as np
import pytest

import depcomp as dc
from oracles import (
    exact_column_power,
    exact_output_kl_bits,
    exact_rank,
    joint_output,
    kl_bits,
    marginal,
    mutual_information_bits,
)

HALF = dc.Distribution(np.array([0.5, 0.5]))
# Two-output channel on three symbols whose third column is the midpoint of
# the first two; singular on its own, injective on diagonal tensor squares.
W_MIDPOINT = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
# Four columns at distinct points of the binary output simplex.
W_FOUR = dc.Channel(
    np.array([[1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]])
)


class TestKhatriRaoPower:
    def test_first_power_is_channel(self):
        np.testing.assert_array_equal(
            dc.khatri_rao_power(W_MIDPOINT, 1), W_MIDPOINT.entries
        )

    def test_tensor_squares(self):
        M = dc.khatri_rao_power(W_MIDPOINT, 2)
        assert M.shape == (4, 3)
        np.testing.assert_allclose(M[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(M[:, 1], [0.0, 0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(M[:, 2], [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_columns_stay_stochastic(self):
        for K in (1, 2, 3):
            M = dc.khatri_rao_power(W_FOUR, K)
            np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-12)


class TestNumericalRank:
    def test_full_and_deficient(self):
        assert dc.numerical_rank(np.eye(3)) == 3
        assert dc.numerical_rank(np.ones((3, 3))) == 1
        assert dc.numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])) == 1
        assert dc.numerical_rank(np.zeros((2, 3))) == 0

    def test_tolerance_is_relative(self):
        # An absolute cutoff of 1e-9 would give rank 0 to the second matrix.
        assert dc.numerical_rank(np.diag([1.0, 1e-12])) == 1
        assert dc.numerical_rank(np.diag([1e-12, 1e-20])) == 2

    def test_rank_tests_take_no_tolerance(self):
        with pytest.raises(TypeError):
            dc.numerical_rank(np.eye(2), 1e-15)
        with pytest.raises(TypeError):
            dc.activation_invertible(W_MIDPOINT, 2, tol=1e-3)
        with pytest.raises(TypeError):
            dc.min_activation_order(W_MIDPOINT, 3, tol=1e-3)
        with pytest.raises(TypeError):
            dc.kernels_equal([W_MIDPOINT, W_FOUR], tol=1e-3)
        # The screening-off checks share the one cutoff, SCREENING_ATOL.
        fork = dc.random_system(2, 2, 3, 0)
        with pytest.raises(TypeError):
            dc.conjunctive_fork_check(fork, tol=1e-3)
        with pytest.raises(TypeError):
            dc.conditionally_independent_given_cause(dc.output_distribution(fork), tol=1e-3)


class TestActivationInvertible:
    def test_midpoint_channel_activates_at_two(self):
        assert not dc.activation_invertible(W_MIDPOINT, 1)
        assert dc.activation_invertible(W_MIDPOINT, 2)

    def test_identity_already_invertible(self):
        assert dc.activation_invertible(dc.Channel(np.eye(2)), 1)

    def test_matches_exact_rational_rank(self):
        from fractions import Fraction

        cols3 = [[1, 0], [0, 1], [Fraction(1, 2), Fraction(1, 2)]]
        cols4 = [
            [1, 0],
            [Fraction(2, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(2, 3)],
            [0, 1],
        ]
        for cols, chan, L in ((cols3, W_MIDPOINT, 3), (cols4, W_FOUR, 4)):
            for K in (1, 2, 3):
                want = exact_rank(exact_column_power(cols, K))
                got = dc.numerical_rank(dc.khatri_rao_power(chan, K))
                assert got == want
                assert dc.activation_invertible(chan, K) == (want == L)

    def test_duplicate_columns_rejected(self):
        dup = dc.Channel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(dc.DuplicateColumnsError, match="columns 2 and 3"):
            dc.activation_invertible(dup, 2)
        # Two coinciding pairs: the message names the first, (1, 3).
        twice = dc.Channel(np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]))
        with pytest.raises(dc.DuplicateColumnsError, match="columns 1 and 3"):
            dc.min_activation_order(twice, 3)
        assert issubclass(dc.DuplicateColumnsError, ValueError)


class TestMinActivationOrder:
    def test_midpoint_channel(self):
        assert dc.min_activation_order(W_MIDPOINT, 5) == 2

    def test_identity(self):
        assert dc.min_activation_order(dc.Channel(np.eye(3)), 5) == 1

    def test_four_columns_on_two_outputs(self):
        # Upper bound L-1 = 3 holds with equality here: the tensor squares of
        # four points on a segment span only the symmetric 3-dim subspace.
        assert dc.min_activation_order(W_FOUR, 5) == 3

    def test_budget_exhausted_returns_none(self):
        assert dc.min_activation_order(W_MIDPOINT, 1) is None

    def test_rank_monotone_in_order(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            w = dc.random_channel(rng, 2 + int(rng.integers(3)), 4)
            ranks = [
                dc.numerical_rank(dc.khatri_rao_power(w, K)) for K in (1, 2, 3, 4)
            ]
            assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))


class TestKernelsEqual:
    def test_identical_channels(self):
        w = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        assert dc.kernels_equal([w, w, w])

    def test_shared_bottleneck(self):
        # V_k = U_k P with invertible U_k: every V_k kills exactly ker P.
        rng = np.random.default_rng(9)
        P = dc.random_channel(rng, 2, 3)
        chans = []
        for _ in range(3):
            U = 0.7 * np.eye(2) + 0.3 * rng.dirichlet(np.ones(2), size=2).T
            chans.append(dc.Channel(U @ P.entries))
        assert dc.kernels_equal(chans)

    def test_generic_pairs_differ(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = dc.random_channel(rng, 2, 3)
            b = dc.random_channel(rng, 2, 3)
            assert not dc.kernels_equal([a, b])
        # Channels of different rank differ before any stacking.
        collapsed = dc.Channel(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert not dc.kernels_equal([dc.Channel(np.eye(2)), collapsed])

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = dc.random_channel(rng, 2, 3)
        b = dc.random_channel(rng, 2, 3)
        assert dc.kernels_equal([a, b]) == dc.kernels_equal([b, a])

    def test_errors(self):
        with pytest.raises(ValueError):
            dc.kernels_equal([dc.Channel(np.eye(2))])
        with pytest.raises(ValueError):
            dc.kernels_equal([dc.Channel(np.eye(2)), dc.Channel(np.eye(3))])


class TestMICounterexample:
    def test_construction(self):
        cx = dc.mi_counterexample(HALF, 3)
        np.testing.assert_array_equal(cx.first.p.probs, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(cx.second.p.probs, [0.1, 0.2, 0.4, 0.3])
        np.testing.assert_array_equal(
            cx.channel.entries, [[1.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5]]
        )
        assert all(
            np.array_equal(w.entries, cx.channel.entries) for w in cx.first.channels
        )

    def test_theta_collision(self):
        # Both hidden distributions produce the same output law: the two
        # swapped symbols feed identical columns.
        cx = dc.mi_counterexample(HALF, 3)
        q1 = dc.output_distribution(cx.first)
        q2 = dc.output_distribution(cx.second)
        assert dc.lp_distance(q1, q2, 1) <= 1e-15
        assert np.abs(cx.first.p.probs - cx.second.p.probs).sum() == pytest.approx(
            0.2, abs=1e-12
        )

    def test_outputs_remain_dependent(self):
        cx = dc.mi_counterexample(HALF, 3)
        mi = dc.pairwise_mutual_information(dc.output_distribution(cx.first))
        off = mi[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.01)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dc.mi_counterexample(HALF, 1)
        with pytest.raises(ValueError):
            dc.mi_counterexample(HALF, 3, dc.Distribution(np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            dc.mi_counterexample(
                HALF, 3, dc.Distribution(np.array([0.1, 0.2, 0.35, 0.35]))
            )


class TestPairwiseMutualInformation:
    def test_product_law_is_independent(self):
        a, b = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        q = dc.JointTensor((2, 2), np.outer(a, b).ravel())
        mi = dc.pairwise_mutual_information(q)
        assert abs(mi[0, 1]) <= 1e-12
        assert abs(mi[1, 0]) <= 1e-12

    def test_perfect_correlation_is_one_bit(self):
        q = dc.diag_embed(HALF, 2)
        mi = dc.pairwise_mutual_information(q)
        np.testing.assert_allclose(mi, 1.0, atol=1e-12)

    def test_counterexample_dependence_values(self):
        # Frozen against the loop-based entropy oracle below.
        cx = dc.mi_counterexample(HALF, 3)
        q = dc.output_distribution(cx.first)
        mi = dc.pairwise_mutual_information(q)
        assert mi.shape == (3, 3)
        np.testing.assert_allclose(mi, mi.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(mi), 0.99277445, atol=1e-7)
        off = mi[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.0626227042868668, atol=1e-12)
        pair = marginal(q.as_array(), [0, 1])
        assert mi[0, 1] == pytest.approx(mutual_information_bits(pair), abs=1e-12)

    def test_matches_oracle_on_random_law(self):
        sys_ = dc.random_system(3, 2, 3, 44)
        q = dc.output_distribution(sys_)
        mi = dc.pairwise_mutual_information(q)
        arr = q.as_array()
        for i in range(3):
            for j in range(i + 1, 3):
                want = mutual_information_bits(marginal(arr, [i, j]))
                assert mi[i, j] == pytest.approx(want, abs=1e-12)


class TestParameterCount:
    def test_boundary_cases(self):
        # Free cells L^K - 1 against free parameters (L - 1) + K L (L - 1).
        assert dc.parameter_count_feasible(2, 3)  # 7 >= 7, tight
        assert not dc.parameter_count_feasible(2, 2)  # 3 < 5
        assert dc.parameter_count_feasible(5, 3)  # 124 >= 64

    def test_errors(self):
        with pytest.raises(ValueError):
            dc.parameter_count_feasible(1, 3)
        with pytest.raises(ValueError):
            dc.parameter_count_feasible(2, 0)


class TestK2AmbiguityWitness:
    def test_collision_with_distinct_hidden(self):
        for seed in range(5):
            w = dc.k2_ambiguity_witness(seed=seed)
            gap = dc.lp_distance(
                dc.output_distribution(w.first), dc.output_distribution(w.second), 1
            )
            assert gap < 1e-12
            assert np.abs(w.first.p.probs - w.second.p.probs).sum() > 1e-3
            assert not w.degenerate

    def test_first_system_shape(self):
        w = dc.k2_ambiguity_witness(seed=0)
        assert w.first.num_channels == 2
        # One leg of the first construction reads the hidden symbol directly.
        assert any(
            np.array_equal(ch.entries, np.eye(w.first.hidden_size))
            for ch in w.first.channels
        )

    def test_symmetric_input_is_degenerate(self):
        w = dc.k2_ambiguity_witness(HALF, dc.Channel(np.eye(2)))
        assert w.degenerate
        np.testing.assert_allclose(w.first.p.probs, w.second.p.probs, atol=1e-15)

    def test_non_invertible_channel_rejected(self):
        flat = dc.Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            dc.k2_ambiguity_witness(HALF, flat)

    def test_one_symbol_hidden_needs_an_explicit_channel(self):
        # Every channel fixes a one-symbol p, so no default channel can make
        # the two readings differ; an explicit one gives the degenerate pair.
        point = dc.Distribution(np.array([1.0]))
        with pytest.raises(ValueError, match="fixed point"):
            dc.k2_ambiguity_witness(point)
        w = dc.k2_ambiguity_witness(point, dc.Channel(np.array([[1.0]])))
        assert w.degenerate
        np.testing.assert_array_equal(w.second.p.probs, [1.0])

    def test_deterministic(self):
        a = dc.k2_ambiguity_witness(seed=12)
        b = dc.k2_ambiguity_witness(seed=12)
        np.testing.assert_array_equal(a.first.p.probs, b.first.p.probs)
        np.testing.assert_array_equal(a.second.p.probs, b.second.p.probs)


def _fork_joint(p, channels):
    """Joint over (cause, outputs) with each output drawn from its channel."""
    mats = [np.eye(len(p))] + [w for w in channels]
    return joint_output(p, mats)


def _leaky_joint(flip=0.2):
    """Cause C, noisy first output, second output copying the FIRST output."""
    w = np.array([[1 - flip, flip], [flip, 1 - flip]])
    out = np.zeros((2, 2, 2))
    for c in range(2):
        for y1 in range(2):
            out[c, y1, y1] = 0.5 * w[y1, c]
    return out


class TestConditionalIndependence:
    def test_fork_joint_passes(self):
        sys_ = dc.random_system(3, 2, 3, 50)
        joint = _fork_joint(sys_.p.probs, [w.entries for w in sys_.channels])
        t = dc.JointTensor(joint.shape, joint.ravel())
        assert dc.conditionally_independent_given_cause(t)

    def test_leaky_joint_fails(self):
        leak = _leaky_joint()
        t = dc.JointTensor(leak.shape, leak.ravel())
        assert not dc.conditionally_independent_given_cause(t)


class TestConjunctiveForkCheck:
    def test_random_systems(self):
        for seed in range(10):
            L = 2 + seed % 3
            sys_ = dc.random_system(L, 2 + seed % 2, 2 + seed % 3, 500 + seed)
            assert dc.conjunctive_fork_check(sys_)

    def test_deterministic_channels(self):
        ident = dc.Channel(np.eye(2))
        flip = dc.Channel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sys_ = dc.DCSystem(dc.Distribution(np.array([0.4, 0.6])), (ident, flip))
        assert dc.conjunctive_fork_check(sys_)

    def test_single_output_rejected(self):
        sys_ = dc.DCSystem(HALF, (dc.Channel(np.eye(2)),))
        with pytest.raises(ValueError):
            dc.conjunctive_fork_check(sys_)


class TestVanishingInfimum:
    R = dc.Distribution(np.array([0.6, 0.4]))
    S = dc.Distribution(np.array([0.4, 0.6]))

    def test_equal_arguments_vanish(self):
        vals = dc.vanishing_infimum_demo(self.R, self.R, 3, [0.5, 0.1])
        assert vals == [0.0, 0.0]

    def test_decreasing_grid(self):
        t_values = [0.5, 0.1, 0.01, 0.001]
        vals = dc.vanishing_infimum_demo(self.R, self.S, 3, t_values)
        want = []
        for t in t_values:
            # The demo's own float channel, read exactly by the oracle.
            entries = t * np.eye(2)
            entries[0, :] += 1.0 - t
            want.append(exact_output_kl_bits(self.R.probs, self.S.probs, [entries] * 3))
        np.testing.assert_allclose(vals, want, rtol=1e-12)
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_full_strength_is_single_letter_divergence(self):
        # At t=1 the channels are identities, the supports are diagonal, and
        # the divergence collapses to D(r||s) = 0.2 log2(1.5).
        (val,) = dc.vanishing_infimum_demo(self.R, self.S, 3, [1.0])
        assert val == pytest.approx(0.2 * np.log2(1.5), abs=1e-14)
        assert val == pytest.approx(kl_bits(self.R.probs, self.S.probs), abs=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dc.vanishing_infimum_demo(self.R, self.S, 3, [0.0])
        with pytest.raises(ValueError):
            dc.vanishing_infimum_demo(self.R, self.S, 3, [1.5])
        with pytest.raises(ValueError):
            dc.vanishing_infimum_demo(
                dc.Distribution(np.array([1.0, 0.0])), self.S, 3, [0.5]
            )


class TestSearchNonactivating:
    def test_two_output_channels_never_activate_four_symbols(self):
        # Tensor squares of binary columns live in a 3-dim symmetric space,
        # so rank 4 is impossible and the very first trial qualifies.
        found = dc.search_nonactivating_channel(4, 2, 2, trials=5, seed=0)
        assert found is not None
        assert not dc.activation_invertible(found, 2)

    def test_invertible_regime_finds_nothing(self):
        assert dc.search_nonactivating_channel(2, 2, 1, trials=10, seed=0) is None

    def test_deterministic(self):
        a = dc.search_nonactivating_channel(4, 2, 2, trials=5, seed=3)
        b = dc.search_nonactivating_channel(4, 2, 2, trials=5, seed=3)
        np.testing.assert_array_equal(a.entries, b.entries)
