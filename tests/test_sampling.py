import tracemalloc

import numpy as np
import pytest

import depcomp as dc

import oracles

IDENT2 = dc.Channel(np.eye(2))
FAIR_COPY = dc.DCSystem(dc.Distribution(np.array([0.5, 0.5])), (IDENT2, IDENT2))


class TestSampleBatch:
    def test_queries(self):
        b = dc.SampleBatch(2, np.array([[1, 2], [2, 2], [1, 1]]))
        assert b.n == 3
        assert b.num_channels == 2
        assert b.output_size == 2

    def test_symbol_range_enforced(self):
        with pytest.raises(ValueError, match=r"^row 1 has y2 = 3, outside 1\.\.2$"):
            dc.SampleBatch(2, np.array([[1, 3]]))
        with pytest.raises(ValueError, match=r"^row 2 has y1 = 0, outside 1\.\.2$"):
            dc.SampleBatch(2, np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError, match=r"^row 1 has y1 = 1, outside 1\.\.0$"):
            dc.SampleBatch(0, np.array([[1, 1]]))
        with pytest.raises(ValueError, match="non-empty"):
            dc.SampleBatch(2, np.array([1, 2]))

    def test_caller_array_is_copied(self):
        raw = np.array([[1, 2], [2, 1]])
        batch = dc.SampleBatch(2, raw)
        raw[0, 0] = 2
        np.testing.assert_array_equal(batch.records, [[1, 2], [2, 1]])
        assert batch.records.dtype == np.int64 and not batch.records.flags.writeable

    def test_float_records_rejected(self):
        # Truncating 1.7 would give the valid symbol 1.
        with pytest.raises(ValueError, match="^expected an integer array, got dtype float64$"):
            dc.SampleBatch(2, np.array([[1.7, 2.0]]))

    def test_bool_output_size_rejected(self):
        with pytest.raises(ValueError, match="^output_size must be an integer, got True$"):
            dc.SampleBatch(True, np.array([[1, 1]]))


class TestEmpiricalCounts:
    def test_totals_enforced(self):
        assert dc.EmpiricalCounts((2,), np.array([0, 1]), np.array([2, 1])).n == 3
        with pytest.raises(ValueError, match="positive count"):
            dc.EmpiricalCounts((2,), np.array([0, 1]), np.array([-1, 4]))

    def test_caller_array_is_copied(self):
        raw_cells, raw = np.array([0, 1]), np.array([2, 1])
        counts = dc.EmpiricalCounts((2,), raw_cells, raw)
        raw_cells[0], raw[0] = 1, 0
        np.testing.assert_array_equal(counts.cells, [0, 1])
        np.testing.assert_array_equal(counts.counts, [2, 1])
        for arr in (counts.cells, counts.counts):
            assert arr.dtype == np.int64 and not arr.flags.writeable

    def test_non_integer_inputs_rejected(self):
        # Truncating would give the valid shape (2, 2), cells [0, 3] and counts [1, 2].
        for cells, counts in (([0.5, 3.2], [1, 2]), ([0, 3], [1.9, 2.2]), ([0, 3], [True, True])):
            with pytest.raises(ValueError, match="^expected an integer array, got dtype "):
                dc.EmpiricalCounts((2, 2), cells, counts)
        with pytest.raises(ValueError, match="^shape entry must be an integer, got 2.5$"):
            dc.EmpiricalCounts((2.5, 2), [0, 3], [1, 2])

    @pytest.mark.parametrize(
        "cells, counts, match",
        [
            ([3, 1], [1, 1], "strictly increasing"),
            ([1, 1], [1, 1], "strictly increasing"),
            ([-1, 2], [1, 1], "lie in 0..3"),
            ([2, 4], [1, 1], "lie in 0..3"),
            ([0, 2], [2, 0], "positive count"),
            ([0, 2], [2], "one length"),
            ([[0, 2]], [[1, 1]], "1-D"),
        ],
        ids=["unsorted", "duplicate", "negative", "out-of-range", "zero-count", "length", "2-D"],
    )
    def test_malformed_cells_rejected(self, cells, counts, match):
        with pytest.raises(ValueError, match=match):
            dc.EmpiricalCounts((2, 2), np.array(cells), np.array(counts))


def records_by_gather(system, n, seed, chunk):
    """The former sampling kernel, kept as an oracle: gather an (L', m) block
    of CDF columns per channel and count, down its short axis, the rows at
    or below each record's uniform."""
    from depcomp.sampling import _cumulative_columns, _record_width, _uniform_rows

    K = system.num_channels
    cum_p = _cumulative_columns(system.p.probs[:, None])
    cum_w = [_cumulative_columns(ch.entries) for ch in system.channels]
    records = np.empty((n, K), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        u = _uniform_rows(seed, start, stop, _record_width(K))
        hidden = (cum_p <= u[None, :, 0]).sum(axis=0)
        for k in range(K):
            records[start:stop, k] = (cum_w[k][:, hidden] <= u[None, :, k + 1]).sum(axis=0) + 1
    return records


def one_output_system(L, K, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(L))
    return dc.DCSystem(dc.Distribution(p), tuple(dc.Channel(np.ones((1, L))) for _ in range(K)))


class TestSampleDcs:
    @pytest.mark.parametrize(
        "system",
        [
            dc.random_system(2, 2, 4, 3),
            dc.random_system(1, 3, 3, 4),
            one_output_system(3, 3, 5),
            dc.random_system(2, 5, 4, 6),
            dc.random_system(4, 4, 9, 7),
        ],
        ids=["binary", "L=1", "Lprime=1", "Lprime=5", "wide"],
    )
    def test_records_match_the_gather_oracle(self, system):
        # Counting row by row against each record's uniform gives the same
        # records, bit for bit, as counting down a gathered block of CDF
        # columns; 1001 records are not a whole number of 64-record chunks.
        for n, chunk in ((1001, 64), (5000, 1 << 15)):
            want = records_by_gather(system, n, 17, chunk)
            got = dc.sample_dcs(system, n, 17, _chunk=chunk)
            np.testing.assert_array_equal(got.records, want)
            assert got.records.flags.c_contiguous

    def test_point_mass_identity_channels(self):
        sys_ = dc.DCSystem(dc.Distribution([1.0, 0.0]), (IDENT2, IDENT2, IDENT2))
        b = dc.sample_dcs(sys_, 5, seed=9)
        np.testing.assert_array_equal(b.records, np.ones((5, 3), dtype=b.records.dtype))

    def test_deterministic_given_seed(self):
        sys_ = dc.random_system(3, 2, 3, 11)
        a = dc.sample_dcs(sys_, 500, seed=77)
        b = dc.sample_dcs(sys_, 500, seed=77)
        np.testing.assert_array_equal(a.records, b.records)
        c = dc.sample_dcs(sys_, 500, seed=78)
        assert not np.array_equal(a.records, c.records)

    def test_chunked_generation_matches_sequential(self):
        # Generation is counter-based per record, so the chunk size used
        # internally must never show up in the output.
        sys_ = dc.random_system(2, 2, 3, 31)
        base = dc.sample_dcs(sys_, 1000, seed=42)
        for chunk in (7, 64, 100_000):
            again = dc.sample_dcs(sys_, 1000, seed=42, _chunk=chunk)
            np.testing.assert_array_equal(base.records, again.records)

    def test_prefix_stability(self):
        # The first n records do not depend on how many more were requested.
        sys_ = dc.random_system(2, 2, 2, 13)
        short = dc.sample_dcs(sys_, 100, seed=5)
        long = dc.sample_dcs(sys_, 1000, seed=5)
        np.testing.assert_array_equal(long.records[:100], short.records)

    def test_fair_bit_frequency_in_three_sigma_band(self):
        # Binomial: sigma = sqrt(0.25/1e5) ~ 0.00158, so 3 sigma ~ 0.0047.
        for seed in range(5):
            b = dc.sample_dcs(FAIR_COPY, 100_000, seed)
            freq = float(np.mean(b.records[:, 0] == 1))
            assert 0.494 <= freq <= 0.506

    def test_hidden_variable_consistency(self):
        # Identity channels copy the same hidden draw to every coordinate.
        b = dc.sample_dcs(FAIR_COPY, 2000, seed=3)
        np.testing.assert_array_equal(b.records[:, 0], b.records[:, 1])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dc.sample_dcs(FAIR_COPY, 0, seed=0)
        with pytest.raises(ValueError, match="must be an integer"):
            dc.sample_dcs(FAIR_COPY, 2.5, seed=0)
        # Every seeded function keys Philox with one 64-bit word, by one rule.
        seeded = [
            lambda s: dc.sample_dcs(FAIR_COPY, 10, seed=s),
            lambda s: dc.random_system(2, 2, 3, s),
            lambda s: dc.InversionConfig(L=2, seed=s),
            lambda s: dc.k2_ambiguity_witness(seed=s),
        ]
        for call in seeded:
            for seed in (-3, 2**64, 2**100, 1.5, True):
                with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
                    call(seed)


class TestTypeCounts:
    def test_counting(self):
        b = dc.SampleBatch(2, np.array([[2, 1], [1, 1], [1, 1]]))
        counts = dc.type_counts(b)
        assert counts.n == 3
        assert counts.shape == (2, 2)
        # Cells (1, 1) and (2, 1) are flat 0 and 2; the unseen ones are absent.
        np.testing.assert_array_equal(counts.cells, [0, 2])
        np.testing.assert_array_equal(counts.counts, [2, 1])

    def test_single_record(self):
        counts = dc.type_counts(dc.SampleBatch(3, np.array([[2, 3]])))
        assert counts.n == 1
        np.testing.assert_array_equal(counts.cells, [np.ravel_multi_index((1, 2), (3, 3))])
        np.testing.assert_array_equal(counts.counts, [1])

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        b = dc.sample_dcs(dc.random_system(2, 3, 2, 21), 400, seed=1)
        shuffled = dc.SampleBatch(3, b.records[rng.permutation(b.n)])
        a, c = dc.type_counts(b), dc.type_counts(shuffled)
        np.testing.assert_array_equal(a.cells, c.cells)
        np.testing.assert_array_equal(a.counts, c.counts)

    def test_counts_and_estimate_are_read_only(self):
        counts = dc.type_counts(dc.SampleBatch(2, np.array([[1, 2], [2, 2]])))
        q = dc.ml_estimate(counts)
        for arr in (counts.cells, counts.counts, q.values):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_refuses_oversized_table(self):
        # 2^40 cells for a single record: refused before `ml_estimate` could
        # form the dense law, though counting alone would need one cell.
        with pytest.raises(ValueError, match="dense cells"):
            dc.type_counts(dc.SampleBatch(2, np.ones((1, 40), dtype=np.int64)))

    @pytest.mark.parametrize("Lprime, K", [(2, 3), (3, 5), (4, 9)])
    def test_counts_match_the_tuple_oracle(self, Lprime, K):
        # Both sides of cells vs n: 8 and 243 cells are fewer than most n
        # here, 262 144 cells are more than every n.
        rng = np.random.default_rng(1000 * Lprime + K)
        shape = (Lprime,) * K
        for n in (1, 2, 7, 50, 333, 1000, 2500, 4000, 4999, 5000):
            # A skewed law, so some cells repeat and many stay empty.
            w = rng.dirichlet(np.full(Lprime, 0.5), size=K)
            records = np.stack([rng.choice(Lprime, size=n, p=w[k]) + 1 for k in range(K)], axis=1)
            counts = dc.type_counts(dc.SampleBatch(Lprime, records))
            want = sorted(oracles.tuple_counts(records).items())
            got = [
                (tuple(int(i) + 1 for i in np.unravel_index(c, shape)), int(m))
                for c, m in zip(counts.cells, counts.counts)
            ]
            assert got == want
            flat = np.ravel_multi_index(tuple((records - 1).T), shape)
            dense = np.bincount(flat, minlength=Lprime**K) / n
            assert dc.ml_estimate(counts).values.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("Lprime, K", [(1, 4), (3, 1), (2, 6), (5, 4), (4, 11)])
    def test_cells_match_ravel_multi_index(self, Lprime, K):
        rng = np.random.default_rng(10 * Lprime + K)
        shape = (Lprime,) * K
        for n in (1, 3, 500):
            records = rng.integers(1, Lprime + 1, size=(n, K))
            counts = dc.type_counts(dc.SampleBatch(Lprime, records))
            cells, m = np.unique(np.ravel_multi_index(tuple((records - 1).T), shape), return_counts=True)
            assert np.array_equal(counts.cells, cells) and np.array_equal(counts.counts, m)

    def test_memory_stays_with_the_records(self):
        # (4, 4, 11) has 4 194 304 cells (32 MiB dense) against 20 000
        # records: counting must not allocate the table, and only the law
        # that `ml_estimate` returns may be dense.
        batch = dc.sample_dcs(dc.random_system(4, 4, 11, 5), 20_000, seed=6)
        tracemalloc.start()
        try:
            counts = dc.type_counts(batch)
            _, counting_peak = tracemalloc.get_traced_memory()
            q = dc.ml_estimate(counts)
            _, total_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counting_peak < 4 * 2**20
        assert total_peak < 36 * 2**20
        assert q.values.size == 4**11


class TestMlEstimate:
    def test_simple_ratio(self):
        counts = dc.type_counts(dc.SampleBatch(2, np.array([[1, 1], [1, 1], [2, 1]])))
        q = dc.ml_estimate(counts)
        assert q.prob((1, 1)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert q.prob((2, 1)) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert q.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        counts = dc.EmpiricalCounts((2, 2), np.array([1]), np.array([5]))
        q = dc.ml_estimate(counts)
        np.testing.assert_array_equal(q.values, [0.0, 1.0, 0.0, 0.0])
        # Unobserved cells are +0.0, as 0 / n is.
        assert not np.signbit(q.values).any()

    def test_zero_records_rejected(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="zero records"):
            dc.ml_estimate(dc.EmpiricalCounts((2,), empty, empty))

    def test_carries_the_sample_size(self):
        counts = dc.EmpiricalCounts((2, 2), np.array([0, 1, 3]), np.array([1, 5, 2]))
        q = dc.ml_estimate(counts)
        assert q.n == 8
        np.testing.assert_array_equal(q.values, np.array([1, 5, 0, 2]) / 8)

    def test_refuses_oversized_law(self):
        # One observed cell of 2^40: the counts are valid, the dense law is not.
        counts = dc.EmpiricalCounts((2,) * 40, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="dense cells"):
            dc.ml_estimate(counts)

    def test_concentration(self):
        # KL(qhat || q) < 10/sqrt(n) in at least 95 of 100 seeded trials.
        sys_ = dc.random_system(2, 2, 3, 31)
        q = dc.output_distribution(sys_)
        n = 100_000
        bound = 10.0 / np.sqrt(n)
        hits = 0
        for seed in range(100):
            qhat = dc.ml_estimate(dc.type_counts(dc.sample_dcs(sys_, n, seed)))
            hits += dc.kl_divergence(qhat, q) < bound
        assert hits >= 95


class TestTypicalityTest:
    def test_exact_match_passes(self):
        q = dc.output_distribution(FAIR_COPY)
        assert dc.typicality_test(dc.JointTensor(q.shape, q.values, 12), q)

    def test_gross_mismatch_fails(self):
        qhat = dc.JointTensor((2,), np.array([1.0, 0.0]), 100)
        q = dc.JointTensor((2,), np.array([0.5, 0.5]))
        # KL = 1 bit > 1/sqrt(100) = 0.1.
        assert not dc.typicality_test(qhat, q)

    def test_exact_law_refused(self):
        q = dc.output_distribution(FAIR_COPY)
        with pytest.raises(ValueError, match="exact"):
            dc.typicality_test(q, q)

    def test_sampled_estimates_typically_pass(self):
        sys_ = dc.random_system(2, 2, 3, 31)
        q = dc.output_distribution(sys_)
        passed = sum(
            dc.typicality_test(
                dc.ml_estimate(dc.type_counts(dc.sample_dcs(sys_, 10_000, 70_000 + t))), q
            )
            for t in range(50)
        )
        assert passed >= 49

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dc.typicality_test(
                dc.JointTensor((2,), np.array([0.5, 0.5]), 10),
                dc.JointTensor((3,), np.array([0.5, 0.25, 0.25])),
            )


def test_estimate_converges_with_sample_size():
    # Median L1 error over 50 seeds must not increase along the n grid
    # (one inversion of at most 10% tolerated).
    sys_ = dc.random_system(2, 2, 3, 31)
    q = dc.output_distribution(sys_)
    medians = []
    for n in (100, 1000, 10_000, 100_000):
        dists = [
            dc.lp_distance(
                dc.ml_estimate(dc.type_counts(dc.sample_dcs(sys_, n, 9_000 + s))), q, 1
            )
            for s in range(50)
        ]
        medians.append(float(np.median(dists)))
    violations = sum(b > a for a, b in zip(medians, medians[1:]))
    assert violations <= 1
    assert all(b <= a * 1.10 for a, b in zip(medians, medians[1:]))


class TestRandomGeneration:
    def test_random_channel_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = dc.random_channel(rng, 3, 4, min_column_gap=0.05)
            assert (w.outputs, w.inputs) == (3, 4)
            np.testing.assert_allclose(w.entries.sum(axis=0), 1.0, atol=1e-12)
            for i in range(4):
                for j in range(i + 1, 4):
                    gap = np.abs(w.entries[:, i] - w.entries[:, j]).sum()
                    assert gap >= 0.05

    def test_random_system_contract(self):
        sys_ = dc.random_system(3, 3, 3, 7)
        assert np.all(np.diff(sys_.p.probs) < 0.0)
        assert sys_.p.strictly_positive()
        assert all(dc.channel_invertible(w) for w in sys_.channels)

    def test_random_system_min_mass(self):
        for seed in range(10):
            sys_ = dc.random_system(3, 3, 3, seed, min_mass=0.1)
            assert sys_.p.probs.min() >= 0.1
        # Three masses above 0.4 cannot sum to one: bad input, not a crash.
        with pytest.raises(ValueError, match="1000 draws"):
            dc.random_system(3, 3, 3, 0, min_mass=0.4)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: dc.random_system(2.0, 2, 3, 1), "L"),
            (lambda: dc.random_system(2, 2.0, 3, 1), "Lprime"),
            (lambda: dc.random_system(2, 2, 3.0, 1), "K"),
            (lambda: dc.random_system(True, 2, 3, 1), "L"),
            (lambda: dc.random_channel(np.random.default_rng(0), 2.0, 2), "outputs"),
            (lambda: dc.random_channel(np.random.default_rng(0), 2, np.float64(3)), "inputs"),
            (lambda: dc.random_channel(np.random.default_rng(0), 2, True), "inputs"),
        ],
        ids=["L-float", "Lprime-float", "K-float", "L-bool", "outputs-float", "inputs-numpy-float", "inputs-bool"],
    )
    def test_counts_must_be_integers(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    def test_numpy_integer_counts_accepted(self):
        a = dc.random_system(np.int64(2), np.int32(2), np.uint8(3), 1)
        assert a == dc.random_system(2, 2, 3, 1)

    def test_random_system_deterministic(self):
        a = dc.random_system(3, 2, 4, 99)
        b = dc.random_system(3, 2, 4, 99)
        np.testing.assert_array_equal(a.p.probs, b.p.probs)
        for wa, wb in zip(a.channels, b.channels):
            np.testing.assert_array_equal(wa.entries, wb.entries)
