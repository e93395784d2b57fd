import itertools

import numpy as np
import pytest

import depcomp as dc
from depcomp.core import forward_law
from oracles import joint_output, kl_bits, marginal

# Hand-checkable two-bit example used across several tests: hidden bit with
# p=(0.12, 0.88) seen through two symmetric binary channels with flip
# probabilities 0.1 and 0.2.
P_BSC = dc.Distribution(np.array([0.12, 0.88]))
W_FLIP_01 = dc.Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
W_FLIP_02 = dc.Channel(np.array([[0.8, 0.2], [0.2, 0.8]]))
BSC_SYSTEM = dc.DCSystem(P_BSC, (W_FLIP_01, W_FLIP_02))


def random_systems(count, seed0=100):
    for i in range(count):
        L = 2 + i % 3
        Lp = 2 + (i // 3) % 3
        K = 1 + i % 4
        yield dc.random_system(L, Lp, K, seed0 + i)


class TestDistribution:
    def test_basic_queries(self):
        d = dc.Distribution(np.array([0.5, 0.3, 0.2]))
        assert d.size == 3
        assert d.strictly_positive()

    def test_flags(self):
        assert not dc.Distribution(np.array([0.5, 0.0, 0.5])).strictly_positive()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dc.Distribution(np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            dc.Distribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            dc.Distribution(np.array([np.nan, 1.0]))
        with pytest.raises(ValueError):
            dc.Distribution(np.eye(2))

    def test_mass_tolerance_is_tight(self):
        dc.Distribution(np.array([0.5, 0.5 + 0.9e-12]))
        with pytest.raises(ValueError):
            dc.Distribution(np.array([0.5, 0.5 + 1.1e-12]))

    def test_immutable(self):
        d = dc.Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.7


class TestChannel:
    def test_basic_queries(self):
        w = dc.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert w.inputs == 2
        assert w.outputs == 2

    def test_rectangular(self):
        w = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        assert (w.outputs, w.inputs) == (2, 3)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dc.Channel(np.array([[0.9, 0.3], [0.2, 0.7]]))  # column 1 sums to 1.1
        with pytest.raises(ValueError):
            dc.Channel(np.array([[1.2], [-0.2]]))  # entries outside [0, 1]
        with pytest.raises(ValueError):
            dc.Channel(np.array([0.5, 0.5]))  # not a matrix

    def test_immutable(self):
        w = dc.Channel(np.eye(2))
        with pytest.raises(ValueError):
            w.entries[0, 0] = 0.0


class TestPermutation:
    def test_source_indices_action(self):
        # new[i] = old[tau^{-1}(i)]: mass moves with its label.
        tau = dc.Permutation((2, 3, 1))
        old = np.array([0.5, 0.3, 0.2])
        moved = old[tau.source_indices()]
        np.testing.assert_array_equal(moved, [0.2, 0.5, 0.3])

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dc.Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            dc.Permutation((0, 1))
        with pytest.raises(ValueError):
            dc.Permutation(())

    def test_rejects_non_integer_entries(self):
        # Truncating 1.5 to 1 would give the valid permutation (1, 2).
        for mapping in ((1.5, 2), (2.0, 1), (True, 2)):
            with pytest.raises(ValueError, match="^permutation entry must be an integer, got "):
                dc.Permutation(mapping)

    def test_source_indices_are_the_inverse_by_definition(self):
        # tau^{-1}(tau(i)) = i, built one image at a time, 0-based.
        for L in range(1, 6):
            for mapping in itertools.permutations(range(1, L + 1)):
                inverse = [0] * L
                for i, image in enumerate(mapping):
                    inverse[image - 1] = i
                got = dc.Permutation(mapping).source_indices()
                assert got.dtype == np.intp and got.tolist() == inverse, mapping


class TestJointTensor:
    def test_flat_layout_last_axis_fastest(self):
        t = dc.JointTensor((2, 2), np.array([0.1, 0.2, 0.3, 0.4]))
        assert t.axes == 2
        assert t.prob((1, 2)) == 0.2
        assert t.prob((2, 1)) == 0.3
        np.testing.assert_array_equal(t.as_array(), [[0.1, 0.2], [0.3, 0.4]])

    def test_mass_tolerance(self):
        dc.JointTensor((2,), np.array([0.5, 0.5 + 0.9e-10]))
        with pytest.raises(ValueError):
            dc.JointTensor((2,), np.array([0.5, 0.5 + 2e-10]))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dc.JointTensor((2, 2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            dc.JointTensor((2,), np.array([1.5, -0.5]))

    def test_rejects_non_integer_shape(self):
        # Truncating 2.5 would give the valid shape (2, 2).
        for shape in ((2.5, 2), (2, True)):
            with pytest.raises(ValueError, match="^shape entry must be an integer, got "):
                dc.JointTensor(shape, np.full(4, 0.25))

    def test_each_invalid_value_gets_its_own_message(self):
        for values in ([np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf], [np.nan, -1.0]):
            with pytest.raises(ValueError, match="finite"):
                dc.JointTensor((2,), np.array(values))
        with pytest.raises(ValueError, match="nonnegative"):
            dc.JointTensor((3,), np.array([1.5, -0.5, 0.0]))
        # Every value finite, but the sum overflows: a mass error, as before.
        with pytest.raises(ValueError, match="mass"):
            dc.JointTensor((2,), np.array([1.7e308, 1.7e308]))

    def test_frozen_array_is_kept_and_writable_array_is_copied(self):
        frozen = np.array([0.25, 0.75])
        frozen.flags.writeable = False
        assert dc.JointTensor((2,), frozen).values is frozen
        writable = np.array([0.25, 0.75])
        t = dc.JointTensor((2,), writable)
        writable[0] = 0.5
        np.testing.assert_array_equal(t.values, [0.25, 0.75])
        assert not t.values.flags.writeable
        # A read-only view of a writable array is copied too.
        view = np.array([0.25, 0.75])[:]
        view.flags.writeable = False
        assert dc.JointTensor((2,), view).values is not view

    def test_sample_size(self):
        assert dc.JointTensor((2,), np.array([0.5, 0.5])).n is None
        t = dc.JointTensor((2,), np.array([0.5, 0.5]), np.int64(8))
        assert t.n == 8 and type(t.n) is int
        for n in (0, -3, True, 2.0, "8", 2**63, np.uint64(2**63)):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                dc.JointTensor((2,), np.array([0.5, 0.5]), n)


class TestDCSystem:
    def test_properties(self):
        assert BSC_SYSTEM.hidden_size == 2
        assert BSC_SYSTEM.num_channels == 2
        assert BSC_SYSTEM.output_size == 2

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            dc.DCSystem(dc.Distribution(np.array([1.0])), (dc.Channel(np.eye(2)),))
        with pytest.raises(ValueError):
            dc.DCSystem(
                dc.Distribution(np.array([0.5, 0.5])),
                (dc.Channel(np.eye(2)), dc.Channel(np.eye(3))),
            )


class TestOutputDistribution:
    def test_law_is_read_only(self):
        law = dc.output_distribution(dc.random_system(2, 3, 4, 7))
        with pytest.raises(ValueError):
            law.values[0] = 0.0

    def test_identity_channels_give_diagonal(self):
        p = dc.Distribution(np.array([0.7, 0.3]))
        ident = dc.Channel(np.eye(2))
        sys_ = dc.DCSystem(p, (ident, ident, ident))
        want = np.zeros((2, 2, 2))
        want[0, 0, 0], want[1, 1, 1] = 0.7, 0.3
        np.testing.assert_allclose(dc.output_distribution(sys_).as_array(), want, atol=1e-15)

    def test_full_noise_gives_uniform(self):
        flip_half = dc.Channel(np.full((2, 2), 0.5))
        sys_ = dc.DCSystem(P_BSC, (flip_half, flip_half))
        np.testing.assert_allclose(
            dc.output_distribution(sys_).values, 0.25, atol=1e-15
        )

    def test_two_flip_channels(self):
        # q(1,1) = 0.12*0.9*0.8 + 0.88*0.1*0.2 = 0.104, and so on cell by cell.
        q = dc.output_distribution(BSC_SYSTEM)
        np.testing.assert_allclose(
            q.values, [0.104, 0.092, 0.168, 0.636], atol=1e-12
        )
        np.testing.assert_allclose(
            q.as_array(),
            joint_output(P_BSC.probs, [W_FLIP_01.entries, W_FLIP_02.entries]),
            atol=1e-15,
        )

    def test_matches_direct_summation(self):
        for sys_ in random_systems(12):
            got = dc.output_distribution(sys_).as_array()
            want = joint_output(sys_.p.probs, [w.entries for w in sys_.channels])
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_output_is_distribution(self):
        for sys_ in random_systems(12, seed0=200):
            q = dc.output_distribution(sys_)
            assert np.all(q.values >= 0.0)
            assert abs(q.values.sum() - 1.0) <= 1e-10

    def test_marginal_consistency(self):
        # Tracing down to one output leg must reproduce W_k p.
        for sys_ in random_systems(8, seed0=300):
            q = dc.output_distribution(sys_)
            for k in range(sys_.num_channels):
                np.testing.assert_allclose(
                    marginal(q.as_array(), [k]), sys_.channels[k].entries @ sys_.p.probs,
                    atol=1e-12,
                )

    def test_law_does_not_depend_on_memory_layout(self):
        # F-ordered and transposed-storage channels, and the F-ordered
        # columns the identity relabeling gathers, give the same law bit
        # for bit.
        for L, Lp, K, seed in itertools.product((2, 3, 4), (2, 3, 4), range(1, 7), range(4)):
            sys_ = dc.random_system(L, Lp, K, seed)
            want = dc.output_distribution(sys_).values
            fortran = tuple(dc.Channel(np.asfortranarray(w.entries)) for w in sys_.channels)
            transposed = tuple(dc.Channel(w.entries.T.copy().T) for w in sys_.channels)
            copies = (
                dc.DCSystem(sys_.p, fortran),
                dc.DCSystem(sys_.p, transposed),
                dc.permute_system(dc.Permutation(tuple(range(1, L + 1))), sys_),
            )
            for copy in copies:
                assert np.array_equal(dc.output_distribution(copy).values, want), (L, Lp, K, seed)

    def test_stacked_law_is_each_slice_law(self):
        # A leading stack axis gives each slice's own law, bit for bit.
        rng = np.random.default_rng(18)
        for K in (1, 2, 3, 4):
            weights = rng.dirichlet(np.ones(3), size=4)
            mats = [rng.dirichlet(np.ones(2), size=(4, 3)).swapaxes(1, 2) for _ in range(K)]
            laws = forward_law(weights, mats)
            kr = dc.khatri_rao(mats)
            assert laws.shape == (4, 2**K) and kr.shape == (4, 2**K, 3)
            for r in range(4):
                np.testing.assert_array_equal(laws[r], forward_law(weights[r], [m[r] for m in mats]))
                np.testing.assert_array_equal(kr[r], dc.khatri_rao([m[r] for m in mats]))

    def test_khatri_rao_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError, match="column counts differ"):
            dc.khatri_rao([np.ones((2, 3)), np.ones((2, 2))])
        with pytest.raises(ValueError, match="stack axis"):
            dc.khatri_rao([np.ones((2, 2, 3)), np.ones((3, 2, 3))])
        with pytest.raises(ValueError, match="stack axis"):
            dc.khatri_rao([np.ones((2, 3)), np.ones((1, 2, 3))])

    def test_refuses_oversized_law(self):
        # 2^40 * 2 cells: refused before anything is allocated.
        flip = dc.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        sys_ = dc.DCSystem(P_BSC, (flip,) * 40)
        with pytest.raises(ValueError, match="dense cells"):
            dc.output_distribution(sys_)


class TestPartialTrace:
    def test_two_flip_example(self):
        q = dc.output_distribution(BSC_SYSTEM)
        np.testing.assert_allclose(q.as_array().sum(axis=1), [0.196, 0.804], atol=1e-12)
        assert abs(0.104 + 0.092 - 0.196) < 1e-15


class TestDivergences:
    def test_kl_zero_on_equal(self):
        q = dc.output_distribution(BSC_SYSTEM)
        assert dc.kl_divergence(q, q) == 0.0

    def test_kl_one_bit(self):
        a = dc.JointTensor((2,), np.array([1.0, 0.0]))
        b = dc.JointTensor((2,), np.array([0.5, 0.5]))
        assert dc.kl_divergence(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_kl_infinite_off_support(self):
        a = dc.JointTensor((2,), np.array([0.5, 0.5]))
        b = dc.JointTensor((2,), np.array([1.0, 0.0]))
        assert dc.kl_divergence(a, b) == np.inf

    def test_kl_matches_oracle_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.dirichlet(np.ones(6))
            b = rng.dirichlet(np.ones(6))
            ta = dc.JointTensor((2, 3), a)
            tb = dc.JointTensor((2, 3), b)
            got = dc.kl_divergence(ta, tb)
            assert got == pytest.approx(kl_bits(a, b), abs=1e-12)
            assert got > 0.0
        assert dc.kl_divergence(ta, ta) == 0.0

    def test_kl_shape_mismatch(self):
        with pytest.raises(ValueError):
            dc.kl_divergence(
                dc.JointTensor((2,), np.array([0.5, 0.5])),
                dc.JointTensor((3,), np.array([0.5, 0.25, 0.25])),
            )

    def test_lp_examples(self):
        a = dc.JointTensor((2,), np.array([1.0, 0.0]))
        b = dc.JointTensor((2,), np.array([0.0, 1.0]))
        assert dc.lp_distance(a, a, 1) == 0.0
        assert dc.lp_distance(a, b, 1) == 2.0
        assert dc.lp_distance(a, b, 2) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_lp_metric_properties(self):
        rng = np.random.default_rng(6)
        for k in (1, 2):
            for _ in range(10):
                a, b, c = (
                    dc.JointTensor((4,), rng.dirichlet(np.ones(4)))
                    for _ in range(3)
                )
                dab = dc.lp_distance(a, b, k)
                assert dab == pytest.approx(dc.lp_distance(b, a, k), abs=1e-15)
                assert dab <= dc.lp_distance(a, c, k) + dc.lp_distance(c, b, k) + 1e-12

    def test_lp_invalid_order(self):
        a = dc.JointTensor((2,), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dc.lp_distance(a, a, 3)


class TestPermuteSystem:
    def test_identity(self):
        out = dc.permute_system(dc.Permutation((1, 2)), BSC_SYSTEM)
        np.testing.assert_array_equal(out.p.probs, BSC_SYSTEM.p.probs)
        for w_out, w_in in zip(out.channels, BSC_SYSTEM.channels):
            np.testing.assert_array_equal(w_out.entries, w_in.entries)

    def test_swap(self):
        p = dc.Distribution(np.array([0.7, 0.3]))
        w = dc.Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        out = dc.permute_system(dc.Permutation((2, 1)), dc.DCSystem(p, (w,)))
        np.testing.assert_array_equal(out.p.probs, [0.3, 0.7])
        np.testing.assert_array_equal(out.channels[0].entries, [[0.2, 0.9], [0.8, 0.1]])

    def test_inverse_restores(self):
        tau = dc.Permutation((3, 1, 2))
        sys_ = dc.random_system(3, 2, 2, 23)
        inverse = dc.Permutation((2, 3, 1))
        back = dc.permute_system(inverse, dc.permute_system(tau, sys_))
        np.testing.assert_array_equal(back.p.probs, sys_.p.probs)
        for w_out, w_in in zip(back.channels, sys_.channels):
            np.testing.assert_array_equal(w_out.entries, w_in.entries)

    def test_output_law_invariant(self):
        # Relabeling the hidden alphabet is invisible downstream.
        import itertools

        sys_ = dc.random_system(3, 3, 3, 29)
        q = dc.output_distribution(sys_).values
        for mapping in itertools.permutations((1, 2, 3)):
            moved = dc.permute_system(dc.Permutation(mapping), sys_)
            np.testing.assert_allclose(
                dc.output_distribution(moved).values, q, atol=1e-12
            )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dc.permute_system(dc.Permutation((1, 2, 3)), BSC_SYSTEM)


class TestChannelInvertible:
    def test_identity(self):
        assert dc.channel_invertible(dc.Channel(np.eye(3)))

    def test_equal_columns(self):
        w = dc.Channel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not dc.channel_invertible(w)

    def test_full_flip_is_singular(self):
        # Both columns equal (0.5, 0.5); determinant vanishes.
        w = dc.Channel(np.full((2, 2), 0.5))
        assert np.linalg.det(w.entries) == 0.0
        assert not dc.channel_invertible(w)

    def test_nonsquare_rejected(self):
        w = dc.Channel(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
        with pytest.raises(ValueError):
            dc.channel_invertible(w)

    def test_is_full_numerical_rank(self):
        # Two near-singular channels on either side of the cutoff, then seeded
        # square channels with one column pulled towards another so that the
        # smallest singular value falls on both sides of it.
        for eps, invertible in ((1e-6, True), (1e-12, False)):
            w = dc.Channel(np.array([[0.5, 0.5 + eps], [0.5, 0.5 - eps]]))
            assert dc.channel_invertible(w) is invertible
            assert dc.core.numerical_rank(w.entries) == (2 if invertible else 1)
        rng = np.random.default_rng(17)
        for i in range(200):
            L = 2 + i % 4
            e = dc.random_channel(rng, L, L, min_column_gap=0.0).entries.copy()
            t = 10.0 ** -(i % 14)
            e[:, 0] = (1.0 - t) * e[:, 1] + t * e[:, 0]
            w = dc.Channel(e)
            assert dc.channel_invertible(w) == (dc.core.numerical_rank(w.entries) == w.inputs)


def _fit(seed):
    q = dc.output_distribution(dc.random_system(2, 2, 3, seed))
    return dc.recover_system(q, dc.InversionConfig(L=2, restarts=2, max_iters=20, seed=0))


# Each container holding arrays: a builder of an instance from an int, where
# equal ints give equal instances and 1 and 2 give unequal ones.
EQUALITY_CASES = {
    "Distribution": lambda i: dc.Distribution(np.array([0.5, 0.5]) if i == 1 else np.array([0.4, 0.6])),
    "Channel": lambda i: dc.Channel(np.eye(2) if i == 1 else np.full((2, 2), 0.5)),
    "DCSystem": lambda i: dc.random_system(2, 2, 3, i),
    "JointTensor": lambda i: dc.output_distribution(dc.random_system(2, 2, 3, i)),
    "EmpiricalCounts": lambda i: dc.type_counts(dc.sample_dcs(BSC_SYSTEM, 50, seed=i)),
    "SampleBatch": lambda i: dc.sample_dcs(BSC_SYSTEM, 50, seed=i),
    "InversionResult": _fit,
}


@pytest.mark.parametrize("kind", list(EQUALITY_CASES))
def test_equality_compares_array_fields_by_value(kind):
    make = EQUALITY_CASES[kind]
    a, b, c = make(1), make(1), make(2)
    assert type(a).__name__ == kind and a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_equality_needs_equal_shapes():
    assert dc.JointTensor((4,), np.full(4, 0.25)) != dc.JointTensor((2, 2), np.full(4, 0.25))
    assert dc.Distribution(np.array([1.0])) != dc.Distribution(np.array([1.0, 0.0]))
