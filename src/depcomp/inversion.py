"""Recovery of a hidden system from its joint output distribution.

Given (an estimate of) the joint output law of ``K >= 3`` channels reading a
common hidden draw, the solver searches for a hidden distribution and channel
stack reproducing it.  The fit objective is block-multiconvex: with all blocks
but one frozen, the model is linear in the free block, so each block is a
convex problem over a product of probability simplices.  Holding ``p`` as an
(L, 1) column makes every block column-stochastic, so one projected-gradient
step serves all of them.  The solver has no forward map of its own: every
full law it forms comes from `core.forward_law`, and a block's candidates
are scored through the law's unfolding along one channel axis.  A sweep
takes exactly one backtracking step per block (hidden distribution first,
then each channel), each starting afresh at step 1, plus one extrapolation,
accepting only strict decreases of one canonical objective evaluation, which
makes the iteration monotone by construction.  A restart stops at the fit
floor, on convergence (``_STEP_TOL`` bounds the largest entry change of any
block), or after ``max_iters`` sweeps.  Multi-start over seeded restarts
guards against the poor local minima any single start can hit; results are
canonicalised to descending hidden mass so the permutation ambiguity cannot
leak into comparisons.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    Channel,
    DCSystem,
    Distribution,
    JointTensor,
    check_dense_cells,
    forward_law,
    khatri_rao,
    output_distribution,
    Permutation,
)

OBJECTIVE_KINDS = ("kl", "l1", "l2sq")

# Hidden masses below this are treated as sitting on the simplex boundary,
# where identifiability degrades; results flag it rather than failing.
BOUNDARY_MASS = 1e-6

_MIN_STEP = 1e-18
_LN2 = float(np.log(2.0))

# Once a fit is this good the target is matched far below every tolerance the
# package asserts anywhere (1e-9 at the loosest); a restart reaching it stops
# polishing, and the multi-start loop stops launching further restarts since
# they could only tie.
_FIT_FLOOR = 1e-10

# A converged sweep moves no block entry by more than _STEP_TOL and lowers the
# objective by at most _OBJECTIVE_TOL; _SMOOTHING_EPS keeps the "kl" logs
# finite on cells where either law is zero.
_STEP_TOL = 1e-10
_OBJECTIVE_TOL = 1e-12
_SMOOTHING_EPS = 1e-12


@dataclass(frozen=True)
class InversionConfig:
    """Solver settings; ``L`` is the hidden alphabet size to fit.

    ``max_iters`` counts sweeps.  The rest is fixed: a converged sweep moves
    no entry of any block, ``p`` or a channel, by more than ``_STEP_TOL``
    (1e-10) and lowers the objective by at most ``_OBJECTIVE_TOL`` (1e-12),
    and the "kl" smoothing is ``_SMOOTHING_EPS`` (1e-12).
    """

    L: int
    objective: str = "l2sq"
    restarts: int = 16
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if int(self.L) < 1:
            raise ValueError("hidden alphabet size must be at least 1")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(f"objective must be one of {OBJECTIVE_KINDS}")
        if int(self.restarts) < 1:
            raise ValueError("need at least one restart")
        if int(self.max_iters) < 1:
            raise ValueError("need at least one iteration")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class RestartLog:
    """One restart's outcome; ``trace`` is its objective at the start and after each sweep."""

    restart: int
    objective: float
    iterations: int
    converged: bool
    trace: tuple


@dataclass(frozen=True)
class InversionResult:
    p_hat: Distribution
    channels_hat: tuple
    objective_value: float
    converged: bool
    best_restart: int
    restart_log: tuple
    near_boundary: bool


def _project_cols(V: np.ndarray) -> np.ndarray:
    """Column-wise Euclidean projection onto the probability simplex.

    Each column's threshold is ``max_k (cumsum_k(sorted column) - 1) / k``
    (Duchi et al. 2008): the largest of those ratios is the one at the
    support size of the projection.
    """
    css = np.cumsum(-np.sort(-V, axis=0), axis=0)
    lam = np.max((css - 1.0) / np.arange(1, V.shape[0] + 1)[:, None], axis=0)
    return np.maximum(V - lam, 0.0)


def project_simplex(v) -> Distribution:
    """Nearest probability vector to ``v`` in Euclidean distance."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("input must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input entries must be finite")
    return Distribution(_project_cols(arr[:, None])[:, 0])


def _objective_flat(m: np.ndarray, q: np.ndarray, kind: str) -> float:
    if kind == "l2sq":
        d = m - q
        return float(d @ d)
    if kind == "l1":
        return float(np.abs(m - q).sum())
    mask = m > 0.0
    mm = m[mask]
    return float(np.sum(mm * np.log2(mm / (q[mask] + _SMOOTHING_EPS))))


def _grad_flat(m: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    if kind == "l2sq":
        return 2.0 * (m - q)
    if kind == "l1":
        return np.sign(m - q)
    return (np.log(np.maximum(m, _SMOOTHING_EPS) / (q + _SMOOTHING_EPS)) / _LN2) + 1.0 / _LN2


def objective(candidate: DCSystem, q_hat: JointTensor, kind: str) -> float:
    """Misfit between a candidate system's output law and ``q_hat``.

    ``kind`` selects smoothed relative entropy in bits ("kl", with 1e-12
    added to the reference inside the log), total variation style L1 ("l1"),
    or squared Euclidean distance ("l2sq").  "kl" is ``D(model || q_hat)``:
    the model law weights the log ratio, which is the reverse of the
    likelihood direction ``D(q_hat || model)``.
    """
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(f"objective must be one of {OBJECTIVE_KINDS}")
    model = output_distribution(candidate)
    if model.shape != q_hat.shape:
        raise ValueError(f"shape mismatch: model {model.shape} vs target {q_hat.shape}")
    return _objective_flat(model.values, q_hat.values, kind)


def _block_maps(blocks: list, i: int, shape: tuple):
    """Forward map and gradient pull-back of block ``i``, others frozen.

    One path serves every block.  With ``k`` the block's channel axis (the
    first channel for ``p``), the law's unfolding along ``k`` is
    ``W_k @ (B * p).T = (W_k * p) @ B.T``, where ``B`` is the Khatri-Rao
    product of the other channels, formed once per block visit; a
    candidate's law is that product, with the candidate in place of ``W_k``
    or ``p``, folded back to C order.  The pull-back of ``g`` starts from
    ``D = unfold_k(g) @ B``: it is ``D * p`` for a channel and the column sums
    of ``D * W_k`` for ``p``.  No array has the ``L'^K * L`` cells of the full
    Khatri-Rao product.
    """
    k = max(i - 1, 0)
    p, W = blocks[0].T, blocks[k + 1]
    others = blocks[1 : k + 1] + blocks[k + 2 :]
    B = khatri_rao(others) if others else np.ones_like(p)
    # Every axis has L' cells, so the unfolding reshapes to ``shape`` itself.
    order = (k, *range(k), *range(k + 1, len(shape)))
    back = (*range(1, k + 1), 0, *range(k + 1, len(shape)))

    def fwd(X):
        U = (W * X.T if i == 0 else X * p) @ B.T
        return U.reshape(shape).transpose(back).ravel()

    def adj(g):
        D = g.reshape(shape).transpose(order).reshape(shape[k], -1) @ B
        return (D * W).sum(axis=0)[:, None] if i == 0 else D * p

    return fwd, adj


def _descend(X, fwd, adj, q, m_cur, f_cur, kind):
    """One backtracking projected-gradient step on a column-stochastic block.

    ``m_cur`` is the flat model law of the current state, ``fwd(X)`` up to
    rounding, and ``f_cur`` its objective.  Every visit starts at step 1 and
    halves it until the projected candidate strictly decreases the objective;
    the first such candidate comes back with its model law, objective and
    largest entry change.  Below ``_MIN_STEP`` the block comes back
    unchanged.  Under "l2sq" a channel's curvature along each output row is
    ``2 diag(p) B^T B diag(p)``, whose trace is at most ``2 sum_c p_c^2 <= 2``,
    so step 1 is usually accepted at once.
    """
    G = adj(_grad_flat(m_cur, q, kind))
    s = 1.0
    while s > _MIN_STEP:
        cand = _project_cols(X - s * G)
        m_new = fwd(cand)
        f_new = _objective_flat(m_new, q, kind)
        if f_new < f_cur:
            return cand, m_new, f_new, float(np.max(np.abs(cand - X)))
        s *= 0.5
    return X, m_cur, f_cur, 0.0


def _solve_once(q, shape, blocks: list, cfg: InversionConfig):
    """Alternating block descent from one start; objective never increases.

    The state is one list of column-stochastic blocks, ``p`` as an (L, 1)
    column followed by the channels.  ``m_cur`` is the flat model law of the
    accepted state: `core.forward_law` at the start and at an accepted
    extrapolation, else the law `_block_maps` gave the last accepted block
    candidate, which agrees with `core.forward_law` up to rounding.  Each
    block's gradient starts from it, and since only strict decreases are
    accepted the trace never increases.  One sweep takes one projected step
    per block, in that order, each backtracking from step 1 with no step
    carried over from earlier sweeps, then tries an extrapolated point along
    the last sweep's movement and keeps it only if it strictly decreases the
    same canonical objective (monotone heavy-ball), which breaks the slow
    zigzag of plain alternation.  It stops at ``_FIT_FLOOR``, once a sweep moves no
    block entry by more than ``_STEP_TOL`` nor the objective by more than
    ``_OBJECTIVE_TOL``, or after ``max_iters`` sweeps.
    """
    kind = cfg.objective
    m_cur = forward_law(blocks[0][:, 0], blocks[1:])
    f_cur = _objective_flat(m_cur, q, kind)
    trace = [f_cur]
    gamma = 1.0
    prev = None
    converged = False
    for iters in range(1, cfg.max_iters + 1):
        f_prev = f_cur
        anchor = list(blocks)
        move = 0.0
        for i in range(len(blocks)):
            fwd, adj = _block_maps(blocks, i, shape)
            blocks[i], m_cur, f_cur, d = _descend(blocks[i], fwd, adj, q, m_cur, f_cur, kind)
            move = max(move, d)
        if prev is not None:
            ex = [_project_cols(X + gamma * (X - X_old)) for X, X_old in zip(blocks, prev)]
            m_ex = forward_law(ex[0][:, 0], ex[1:])
            f_ex = _objective_flat(m_ex, q, kind)
            if f_ex < f_cur:
                move = max(move, *(float(np.max(np.abs(E - X))) for E, X in zip(ex, blocks)))
                blocks, m_cur, f_cur = ex, m_ex, f_ex
                gamma = min(gamma * 1.25, 4.0)
            else:
                gamma = max(gamma * 0.5, 0.25)
        prev = anchor
        trace.append(f_cur)
        if f_cur <= _FIT_FLOOR or (
            move <= _STEP_TOL and (f_prev - f_cur) <= _OBJECTIVE_TOL
        ):
            converged = True
            break
    return blocks, f_cur, iters, converged, trace


def _random_start(rng: Generator, L: int, Lp: int, K: int) -> list:
    blocks = [rng.dirichlet(np.ones(L))[:, None]]
    for _ in range(K):
        noise = rng.dirichlet(np.ones(Lp), size=L).T
        if L == Lp:
            beta = rng.uniform(0.1, 0.7)
            blocks.append((1.0 - beta) * np.eye(L) + beta * noise)
        else:
            blocks.append(noise)
    return blocks


def recover_system(q_hat: JointTensor, config: InversionConfig) -> InversionResult:
    """Fit a hidden system to ``q_hat`` by multi-start alternating descent.

    Returns the best restart's system in canonical form (hidden mass sorted
    descending); the winner is decided by (objective, restart index) and the
    loop stops launching restarts once one fits to numerical noise, since
    later restarts could only tie.  With fewer than three observation axes
    the target does not pin the system down even in principle, so a
    ``UserWarning`` is emitted and whichever optimum was found is returned.
    """
    if len(set(q_hat.shape)) != 1:
        raise ValueError("all observation axes must share one output alphabet")
    check_dense_cells(q_hat.values.size * config.L, "the solver's fit")
    Lp = q_hat.shape[0]
    K = q_hat.axes
    if K < 3:
        warnings.warn(
            "fewer than 3 observation axes: the fit is not unique and the "
            "returned system is only one of many exact solutions",
            UserWarning,
            stacklevel=2,
        )
    q = q_hat.values
    best = None
    logs = []
    for j in range(config.restarts):
        rng = Generator(Philox(key=config.seed).jumped(j))
        blocks, f_final, iters, converged, trace = _solve_once(
            q, q_hat.shape, _random_start(rng, config.L, Lp, K), config
        )
        logs.append(
            RestartLog(
                restart=j,
                objective=f_final,
                iterations=iters,
                converged=converged,
                trace=tuple(trace),
            )
        )
        if best is None or f_final < best[0]:
            best = (f_final, j, blocks, converged)
        if f_final <= _FIT_FLOOR:
            break
    f_best, j_best, (p_best, *Ws_best), conv_best = best
    system = canonicalize(
        DCSystem(Distribution(p_best[:, 0]), tuple(Channel(W) for W in Ws_best))
    )
    return InversionResult(
        p_hat=system.p,
        channels_hat=system.channels,
        objective_value=f_best,
        converged=conv_best,
        best_restart=j_best,
        restart_log=tuple(logs),
        near_boundary=bool(np.any(system.p.probs < BOUNDARY_MASS)),
    )


def canonicalize(system: DCSystem) -> DCSystem:
    """Relabel hidden symbols so the hidden mass is sorted descending.

    Ties in mass are broken by comparing the stacked channel columns
    lexicographically (ascending), making the representative unique; the
    output law is untouched because only a relabeling is applied.
    """
    L = system.hidden_size

    def sort_key(i):
        return (-system.p.probs[i],) + tuple(
            tuple(ch.entries[:, i]) for ch in system.channels
        )

    order = sorted(range(L), key=sort_key)
    return DCSystem(
        Distribution(system.p.probs[order]),
        tuple(Channel(ch.entries[:, order]) for ch in system.channels),
    )


def align_permutation(p_true: Distribution, p_est: Distribution) -> Permutation:
    """Relabeling of ``p_est`` minimising L1 distance to ``p_true``.

    Brute force over all permutations (factorial in the alphabet size, meant
    for evaluation at small sizes); ties go to the lexicographically smallest
    mapping.  Distances within 1e-12 of the running best count as ties, so
    summation-order rounding cannot flip the tie-break.
    """
    if p_true.size != p_est.size:
        raise ValueError("distributions must share an alphabet")
    L = p_true.size
    est, true = p_est.probs, p_true.probs
    best_map, best_dist = None, np.inf
    for mapping in itertools.permutations(range(1, L + 1)):
        tau = Permutation(mapping)
        dist = float(np.abs(est[tau.source_indices()] - true).sum())
        if dist < best_dist - 1e-12:
            best_map, best_dist = mapping, dist
    return Permutation(best_map)
