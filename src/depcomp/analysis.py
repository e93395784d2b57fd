"""Identifiability diagnostics for dependent component systems.

These are the checkable facts about *when* recovery from the joint output law
can work: rank tests for whether repeated observation through one channel
separates all hidden symbols, a shared-kernel test for stacks of channels
that conspire to lose the same information, explicit ambiguous pairs for the
two-channel case, a counterexample showing pairwise dependence alone proves
nothing, conditional-independence verification of the generative structure,
and a demonstration that output-law distance can vanish while systems stay
apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    Channel,
    DCSystem,
    Distribution,
    JointTensor,
    _check_count,
    _check_seed,
    channel_invertible,
    check_dense_cells,
    column_gaps,
    forward_law,
    free_parameters,
    khatri_rao,
    numerical_rank,
)

# Two distributions closer than this (L1) are considered identical: two
# channel columns that make activation impossible, or the two readings of a
# degenerate ambiguity witness.
DEGENERATE_TOL = 1e-9
# Largest entrywise gap between a conditional law and the product of its
# marginals that still counts as screening-off.
SCREENING_ATOL = 1e-10


class DuplicateColumnsError(ValueError):
    """Raised when a channel maps two hidden symbols to the same output law."""


def khatri_rao_power(W: Channel, K: int) -> np.ndarray:
    """Matrix of K-fold tensor powers of the channel's columns.

    Column ``j`` is the flattened K-fold Kronecker power of column ``j`` of
    ``W``; this is exactly the linear map the K-fold product channel applies
    to a diagonally embedded hidden distribution.
    """
    if _check_count(K, "K") < 1:
        raise ValueError("power must be at least 1")
    check_dense_cells(W.outputs**K * W.inputs, f"the {K}-fold column power")
    return khatri_rao([W.entries] * K)


def _check_distinct_columns(W: Channel) -> None:
    for a, gaps in column_gaps(W.entries):
        close = np.flatnonzero(gaps <= DEGENERATE_TOL)
        if close.size:
            raise DuplicateColumnsError(
                f"columns {a + 1} and {a + close[0] + 2} coincide within {DEGENERATE_TOL}"
            )


def activation_invertible(W: Channel, K: int) -> bool:
    """Whether K copies of ``W`` jointly separate all hidden symbols.

    Requires pairwise-distinct columns, no two within ``DEGENERATE_TOL`` in
    L1 (otherwise no number of copies can ever separate the coinciding
    symbols and a `DuplicateColumnsError` is raised).  True iff the K-fold
    column-power matrix has full `numerical_rank`, whose cutoff is
    ``core.SINGULAR_RTOL``.
    """
    _check_count(K, "K")
    _check_distinct_columns(W)
    return numerical_rank(khatri_rao_power(W, K)) == W.inputs


def min_activation_order(W: Channel, Kmax: int) -> int | None:
    """Smallest ``K <= Kmax`` at which ``activation_invertible`` holds, else None."""
    if _check_count(Kmax, "Kmax") < 1:
        raise ValueError("Kmax must be at least 1")
    return next((K for K in range(1, Kmax + 1) if activation_invertible(W, K)), None)


def kernels_equal(channels: Sequence[Channel]) -> bool:
    """Whether all channels annihilate exactly the same input directions.

    Stacking the matrices cannot lower the common kernel, so the kernels all
    coincide iff every individual rank equals the rank of the full stack;
    ranks are `numerical_rank`, with the cutoff ``core.SINGULAR_RTOL``.
    """
    channels = list(channels)
    if len(channels) < 2:
        raise ValueError("need at least two channels to compare")
    dims = {(ch.outputs, ch.inputs) for ch in channels}
    if len(dims) != 1:
        raise ValueError(f"channels must share dimensions, got {sorted(dims)}")
    ranks = [numerical_rank(ch.entries) for ch in channels]
    if len(set(ranks)) != 1:
        return False
    stacked = np.vstack([ch.entries for ch in channels])
    return numerical_rank(stacked) == ranks[0]


@dataclass(frozen=True)
class MICounterexample:
    """Two distinct systems with identical outputs yet fully dependent pairs."""

    channel: Channel
    first: DCSystem
    second: DCSystem


def mi_counterexample(
    r: Distribution, K: int, p: Distribution | None = None
) -> MICounterexample:
    """Systems showing pairwise dependence does not certify identifiability.

    The shared channel sends hidden symbols 1 and 2 to point masses and
    symbols 3 and 4 both to ``r``, so swapping the masses of symbols 3 and 4
    changes the hidden distribution but not the output law -- while every
    pair of outputs remains strictly dependent.
    """
    if r.size < 2:
        raise ValueError("the repeated column needs at least 2 output symbols")
    if K < 2:
        raise ValueError("need at least two channels for pairwise dependence")
    if p is None:
        p = Distribution([0.1, 0.2, 0.3, 0.4])
    if p.size != 4:
        raise ValueError("the hidden alphabet of this construction has size 4")
    if not p.strictly_positive():
        raise ValueError("hidden distribution must be strictly positive")
    if p.probs[2] == p.probs[3]:
        raise ValueError("masses of symbols 3 and 4 must differ to give distinct systems")
    W = np.zeros((r.size, 4))
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    W[:, 2] = r.probs
    W[:, 3] = r.probs
    channel = Channel(W)
    swapped = p.probs.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    return MICounterexample(
        channel=channel,
        first=DCSystem(p, (channel,) * K),
        second=DCSystem(Distribution(swapped), (channel,) * K),
    )


def pairwise_mutual_information(q: JointTensor) -> np.ndarray:
    """Matrix of pairwise mutual informations in bits.

    Entry ``(i, j)`` with ``i != j`` is ``I(Y_i; Y_j)``; the diagonal holds
    the marginal entropies ``H(Y_i)``.
    """
    arr = q.as_array()
    K = q.axes
    axes = range(K)
    marg = [arr.sum(axis=tuple(a for a in axes if a != i)) for i in axes]
    out = np.zeros((K, K))
    for i in axes:
        m = marg[i][marg[i] > 0.0]
        out[i, i] = float(-np.sum(m * np.log2(m)))
    for i in axes:
        for j in range(i + 1, K):
            joint = arr.sum(axis=tuple(a for a in axes if a not in (i, j)))
            prod = np.outer(marg[i], marg[j])
            mask = joint > 0.0
            mi = float(np.sum(joint[mask] * np.log2(joint[mask] / prod[mask])))
            out[i, j] = out[j, i] = mi
    return out


def parameter_count_feasible(L: int, K: int) -> bool:
    """Whether the output law has at least as many free cells as free parameters.

    With ``L`` hidden and output symbols the law has ``L^K - 1`` free cells
    and the system `free_parameters(L, L, K)`; recovery is hopeless when the
    latter exceeds the former.
    """
    if L < 2 or K < 1:
        raise ValueError("need an alphabet of size at least 2 and at least one channel")
    d = free_parameters(L, L, K)
    # L^K >= 2^(K (bits(L) - 1)) >= 2^bits(d) > d: large K never forms L^K.
    if K * (L.bit_length() - 1) >= d.bit_length():
        return True
    return L**K - 1 >= d


@dataclass(frozen=True)
class K2Witness:
    """Two systems with identical two-channel output laws."""

    first: DCSystem
    second: DCSystem
    degenerate: bool


def k2_ambiguity_witness(
    p: Distribution | None = None, r: Channel | None = None, seed: int = 0
) -> K2Witness:
    """An explicit two-channel ambiguity: one joint law, two readings.

    Any two-axis law ``q(i, j) = p(i) r(j | i)`` factors both as hidden ``p``
    observed through (identity, ``r``) and as hidden ``r p`` observed through
    (the reversed channel of ``r``, identity).  The pair is degenerate (flag
    set) only when ``p`` happens to be a fixed point of ``r``.  A one-symbol
    ``p`` is a fixed point of every channel, so it needs an explicit ``r``.
    """
    rng = Generator(Philox(key=_check_seed(seed)))
    if p is None:
        probs = rng.dirichlet(np.ones(3))
        while not np.all(probs > 1e-6):
            probs = rng.dirichlet(np.ones(3))
        p = Distribution(probs)
    if not p.strictly_positive():
        raise ValueError("hidden distribution must be strictly positive")
    L = p.size
    if r is None:
        if L < 2:
            raise ValueError(
                "a one-symbol hidden distribution is a fixed point of every channel; pass r"
            )
        while True:
            noise = rng.dirichlet(np.ones(L), size=L).T
            beta = rng.uniform(0.2, 0.7)
            r = Channel((1.0 - beta) * np.eye(L) + beta * noise)
            if channel_invertible(r) and np.abs(r.entries @ p.probs - p.probs).sum() > 1e-3:
                break
    if r.outputs != L or r.inputs != L:
        raise ValueError("channel must be square on the hidden alphabet")
    if not channel_invertible(r):
        raise ValueError("channel must be invertible for the reversal to exist")
    m2 = r.entries @ p.probs
    # Bayes reversal: reversed[i, j] = p(i) r(j | i) / m2(j).
    reversed_entries = (p.probs[:, None] * r.entries.T) / m2[None, :]
    first = DCSystem(p, (Channel.identity(L), r))
    second = DCSystem(Distribution(m2), (Channel(reversed_entries), Channel.identity(L)))
    return K2Witness(
        first=first,
        second=second,
        degenerate=bool(np.abs(m2 - p.probs).sum() < DEGENERATE_TOL),
    )


def conditionally_independent_given_cause(joint: JointTensor) -> bool:
    """Whether axes 2..m of ``joint`` are independent given axis 1.

    For every value of the first axis with positive mass, the conditional
    law of the remaining axes must factor into the product of its own
    marginals, entrywise within ``SCREENING_ATOL``.
    """
    if joint.axes < 2:
        raise ValueError("need a cause axis plus at least one effect axis")
    arr = joint.as_array()
    for c in range(joint.shape[0]):
        block = arr[c]
        mass = float(block.sum())
        if mass == 0.0:
            continue
        cond = block / mass
        sub = block.ndim
        prod = None
        for a in range(sub):
            m = cond.sum(axis=tuple(x for x in range(sub) if x != a))
            prod = m if prod is None else np.multiply.outer(prod, m)
        if float(np.max(np.abs(cond - prod))) > SCREENING_ATOL:
            return False
    return True


def conjunctive_fork_check(system: DCSystem) -> bool:
    """Verify the generative structure: outputs independent given the cause.

    Builds the joint law of (hidden symbol, all outputs) and checks that
    conditioning on the hidden symbol renders the outputs independent --
    the screening-off property of a common cause read perfectly.
    """
    if system.num_channels < 2:
        raise ValueError("screening-off needs at least two outputs")
    L = system.hidden_size
    shape = (L,) + (system.output_size,) * system.num_channels
    check_dense_cells(math.prod(shape), "the joint law of cause and outputs")
    flat = forward_law(system.p.probs, [np.eye(L)] + [ch.entries for ch in system.channels])
    return conditionally_independent_given_cause(JointTensor(shape, flat))


def vanishing_infimum_demo(
    r: Distribution, s: Distribution, K: int, t_values: Sequence[float]
) -> list:
    """Output-law divergences along a family of collapsing invertible channels.

    At parameter ``t`` every channel is ``t I + (1 - t) (collapse to symbol
    1)``, which is invertible for all ``t > 0`` yet funnels both hidden
    distributions toward the same point mass as ``t -> 0``; the returned
    divergences D(theta(r) || theta(s)) in bits shrink accordingly even
    though ``r`` and ``s`` never move.

    The laws are never subtracted.  The forward map is linear in the hidden
    distribution, so ``d = theta(r - s)`` is the difference of the laws
    without cancellation, and with ``b = theta(s)``, ``x = d / b`` the
    divergence is ``sum b ((1 + x) log1p(x) - x) / ln 2``: equal to
    ``sum a log2(a / b)`` because ``d`` sums to zero, and a sum of
    nonnegative terms.  Both laws share their support, since ``r`` and
    ``s`` are strictly positive and see the same channel.
    """
    if r.size != s.size:
        raise ValueError("distributions must share an alphabet")
    if not (r.strictly_positive() and s.strictly_positive()):
        raise ValueError("both distributions must be strictly positive")
    if K < 1:
        raise ValueError("need at least one channel")
    L = r.size
    check_dense_cells(L**K * L, "the joint output law")
    out = []
    for t in t_values:
        t = float(t)
        if not 0.0 < t <= 1.0:
            raise ValueError("t values must lie in (0, 1]")
        entries = t * np.eye(L)
        entries[0, :] += 1.0 - t
        ch = Channel(entries)
        if not channel_invertible(ch):
            raise ValueError(f"collapse channel at t={t} is numerically singular")
        mats = [ch.entries] * K
        b = forward_law(s.probs, mats)
        d = forward_law(r.probs - s.probs, mats)
        keep = b > 0.0
        x = d[keep] / b[keep]
        out.append(float(np.sum(b[keep] * ((1.0 + x) * np.log1p(x) - x)) / math.log(2.0)))
    return out
