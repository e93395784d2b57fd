"""Observation generation and empirical estimation for dependent systems.

Sampling is deterministic and order-independent: record ``t`` is a pure
function of ``(system, seed, t)``.  Each record consumes its own aligned block
of a Philox counter-based stream, so generating records in chunks (or in
parallel, chunk by chunk) yields byte-identical output to a single sequential
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    Channel,
    DCSystem,
    Distribution,
    JointTensor,
    _check_seed,
    _frozen_array,
    check_dense_cells,
    column_gaps,
    kl_divergence,
)

# Philox-4x64 emits 4 64-bit words (4 doubles) per counter increment, so
# per-record layouts are padded to a multiple of 4 draws to keep records
# aligned with counter blocks.
_PHILOX_BLOCK = 4
# Weight of the Dirichlet noise in `random_system`'s square channels.
_NOISE_WEIGHT = 0.3


@dataclass(frozen=True)
class SampleBatch:
    """``n`` observation records of ``K`` symbols each, in ``1..output_size``.

    ``records[t - 1, k - 1]`` is the output of channel ``k`` in record ``t``.
    """

    output_size: int
    records: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.records, np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("records must be a non-empty (n, K) integer array")
        if arr.min() < 1 or arr.max() > self.output_size:
            row, col = (int(i) + 1 for i in np.argwhere((arr < 1) | (arr > self.output_size))[0])
            raise ValueError(f"row {row} has y{col} = {arr[row - 1, col - 1]}, outside 1..{self.output_size}")
        object.__setattr__(self, "records", arr)

    @property
    def n(self) -> int:
        return int(self.records.shape[0])

    @property
    def num_channels(self) -> int:
        return int(self.records.shape[1])


@dataclass(frozen=True)
class EmpiricalCounts:
    """Occurrence counts of the observed output tuples, sparse over the law's cells.

    ``cells`` are the flat C-order indices of the tuples seen, strictly
    increasing (the same layout as a `JointTensor`'s ``values``), and
    ``counts[i] >= 1`` is how often cell ``cells[i]`` occurred; ``n`` is their
    sum.  A sample of ``n`` records holds at most ``n`` cells, whatever
    ``prod(shape)`` is, and validation costs time in the number of cells held.
    """

    shape: tuple
    cells: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) == 0 or any(s < 1 for s in shape):
            raise ValueError(f"invalid shape {shape!r}")
        cells = np.asarray(self.cells, dtype=np.int64)
        arr = np.asarray(self.counts, dtype=np.int64)
        if cells.ndim != 1 or arr.ndim != 1 or cells.size != arr.size:
            raise ValueError(
                f"cells {cells.shape} and counts {arr.shape} must be 1-D and of one length"
            )
        if cells.size:
            if np.any(cells[1:] <= cells[:-1]):
                raise ValueError("cells must be strictly increasing")
            size = math.prod(shape)
            if cells[0] < 0 or cells[-1] >= size:
                raise ValueError(f"cells must lie in 0..{size - 1} for shape {shape!r}")
            if arr.min() < 1:
                raise ValueError("each listed cell must have a positive count")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cells", _frozen_array(cells, np.int64))
        object.__setattr__(self, "counts", _frozen_array(arr, np.int64))

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _record_width(K: int) -> int:
    """Uniform draws reserved per record: 1 hidden + K outputs, block-aligned."""
    return _PHILOX_BLOCK * ((K + 1 + _PHILOX_BLOCK - 1) // _PHILOX_BLOCK)


def _uniform_rows(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the per-record uniform table for ``seed``.

    Because ``width`` is a multiple of the Philox block, the stream can be
    fast-forwarded to any record boundary with ``advance``; which chunk a row
    is generated in cannot affect its value.
    """
    bits = Philox(key=seed)
    bits.advance(start * (width // _PHILOX_BLOCK))
    flat = Generator(bits).random((stop - start) * width)
    return flat.reshape(stop - start, width)


def _cumulative_columns(matrix: np.ndarray) -> np.ndarray:
    cum = np.cumsum(matrix, axis=0)
    cum[-1, :] = 1.0
    return cum


def sample_dcs(system: DCSystem, n: int, seed: int, _chunk: int = 1 << 15) -> SampleBatch:
    """Draw ``n`` i.i.d. records from the system's joint output law.

    Record ``t`` (1-based) draws one hidden symbol from ``p`` and passes it
    through each channel, using uniforms ``t``'s own stream block, so the
    result is reproducible bit-for-bit for a given ``(system, n, seed)`` and
    independent of chunking.  An ``n * K`` record table larger than
    ``MAX_DENSE_CELLS`` is refused before it is allocated.  The records are
    drawn channel by channel into a ``(K, n)`` block, each channel reading
    its uniforms as one contiguous column; `SampleBatch`'s own copy
    transposes the block.
    """
    if int(n) < 1:
        raise ValueError("need at least one record")
    n = int(n)
    seed = _check_seed(seed)
    K = system.num_channels
    check_dense_cells(n * K, f"sampling {n} records")
    width = _record_width(K)
    cum_p = _cumulative_columns(system.p.probs[:, None])[:, 0]
    cum_w = [_cumulative_columns(ch.entries) for ch in system.channels]
    records = np.ones((K, n), dtype=np.int64)
    for start in range(0, n, _chunk):
        stop = min(start + _chunk, n)
        u = _uniform_rows(seed, start, stop, width)
        # Inverse CDF: the 0-based symbol is the number of CDF rows at or
        # below u.  The last row is pinned to 1.0 and every u is below 1,
        # so it never counts and is skipped.
        u_k = u[:, 0].copy()
        hidden = np.zeros(stop - start, dtype=np.intp)
        for c in cum_p[:-1]:
            hidden += c <= u_k
        for k in range(K):
            row = records[k, start:stop]
            u_k = u[:, k + 1].copy()
            for cdf in cum_w[k][:-1]:
                row += cdf.take(hidden) <= u_k
    return SampleBatch(system.output_size, records.T)


def type_counts(batch: SampleBatch) -> EmpiricalCounts:
    """Count occurrences of each observed output tuple (order-invariant).

    The records' flat cell indices are sorted and run-length counted, so
    the cost is ``O(n log n)`` in the number of records and never touches
    the ``L'^K`` cells that were not observed.  A table of more than
    ``MAX_DENSE_CELLS`` cells is still refused, since `ml_estimate` would
    form it.
    """
    shape = (batch.output_size,) * batch.num_channels
    check_dense_cells(math.prod(shape), "counting output tuples")
    # Row-major strides: `SampleBatch` bounds every symbol to 1..L' and the
    # check above bounds L'^K, so every stride and flat index fits in int64.
    strides = batch.output_size ** np.arange(batch.num_channels - 1, -1, -1, dtype=np.int64)
    flat_idx = batch.records @ strides - strides.sum()
    cells, counts = np.unique(flat_idx, return_counts=True)
    cells.flags.writeable = False
    counts.flags.writeable = False
    return EmpiricalCounts(shape, cells, counts)


def ml_estimate(counts: EmpiricalCounts) -> JointTensor:
    """Maximum-likelihood (empirical frequency) estimate of the joint law.

    The observed cells are scattered into a dense zero law, each divided
    once by ``n``, so the values equal a dense ``counts / n`` byte for byte.
    A law of more than ``MAX_DENSE_CELLS`` cells is refused before it is
    allocated.  The tensor carries the sample size ``counts.n``.
    """
    if counts.n < 1:
        raise ValueError("cannot estimate from zero records")
    cells = math.prod(counts.shape)
    check_dense_cells(cells, "the empirical law")
    q = np.zeros(cells)
    q[counts.cells] = counts.counts / counts.n
    q.flags.writeable = False
    return JointTensor(counts.shape, q, counts.n)


def typicality_test(q_hat: JointTensor, q: JointTensor) -> bool:
    """Whether the estimate ``q_hat`` is within the concentration radius of ``q``.

    Accepts iff ``D(q_hat || q) <= 1/sqrt(q_hat.n)`` (bits); the radius
    shrinks slowly enough that true samples pass with probability -> 1.
    """
    if q_hat.n is None:
        raise ValueError("typicality needs an estimated law; q_hat is exact (n is None)")
    return kl_divergence(q_hat, q) <= 1.0 / math.sqrt(q_hat.n)


def random_channel(
    rng: Generator, outputs: int, inputs: int, *, min_column_gap: float = 1e-3
) -> Channel:
    """Dirichlet-column channel with pairwise-distinct columns.

    Rejects draws until every pair of columns is at least ``min_column_gap``
    apart in L1, so downstream rank tests are well-conditioned; raises
    ``ValueError`` when 1000 draws all fail.
    """
    if outputs == 1 < inputs and min_column_gap > 0.0:
        raise ValueError(
            "a channel with one output symbol cannot have distinct columns; "
            "use at least two output symbols"
        )
    for _ in range(1000):
        cols = rng.dirichlet(np.ones(outputs), size=inputs).T
        if all(np.all(gaps >= min_column_gap) for _, gaps in column_gaps(cols)):
            return Channel(cols)
    raise ValueError(
        f"1000 draws gave no {outputs}x{inputs} channel with columns at least "
        f"{min_column_gap} apart; use more output symbols or fewer inputs"
    )


def random_system(
    L: int,
    Lprime: int,
    K: int,
    seed: int,
    *,
    min_mass: float = 0.0,
    min_gap: float = 0.0,
) -> DCSystem:
    """Seeded random system with a strictly descending, strictly positive ``p``.

    Square channels are identity/noise mixtures ``0.7 I + 0.3 N`` with
    Dirichlet noise ``N``, so their identity part keeps them invertible;
    rectangular ones come from `random_channel` with its default column gap.
    ``min_mass`` and ``min_gap`` impose a floor on the smallest hidden mass
    and on gaps between sorted masses.  A channel stack of more than
    ``MAX_DENSE_CELLS`` entries is refused before anything is drawn.
    """
    if L < 1 or Lprime < 1 or K < 1:
        raise ValueError("alphabet sizes and channel count must be at least 1")
    check_dense_cells(K * Lprime * L, "the channel stack")
    rng = Generator(Philox(key=_check_seed(seed)))
    p = None
    for _ in range(1000):
        cand = np.sort(rng.dirichlet(np.ones(L)))[::-1]
        gaps_ok = L == 1 or np.all(-np.diff(cand) > min_gap)
        if cand[-1] > min_mass and gaps_ok:
            p = Distribution(cand)
            break
    if p is None:
        raise ValueError(
            f"1000 draws gave no hidden distribution over {L} symbols with "
            f"min_mass={min_mass} and min_gap={min_gap}"
        )
    channels = []
    for _ in range(K):
        if L == Lprime:
            noise = rng.dirichlet(np.ones(Lprime), size=L).T
            channels.append(Channel((1.0 - _NOISE_WEIGHT) * np.eye(L) + _NOISE_WEIGHT * noise))
        else:
            channels.append(random_channel(rng, Lprime, L))
    return DCSystem(p, tuple(channels))
