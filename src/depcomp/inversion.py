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
block), or after ``max_iters`` sweeps; its log names which in
``stop_reason`` ("fit_floor", "converged" or "max_iters").  Multi-start
over seeded restarts guards against the poor local minima any single start
can hit.  Restart 0 runs alone; unless it reaches the fit floor, restarts
1..R-1 then advance in lockstep as one stacked state, each backtracking on
its own and leaving the stack when it stops, so a sweep pays numpy's
per-call overhead once for all of them.  A stack holds at most
``MAX_DENSE_CELLS // (cells * L)`` restarts; more run in consecutive groups
of that width.  Every restart follows its own path bit for bit whatever
else shares its stack, and the restarts after the first to reach the fit
floor are not run, so the log and the winner are those of a sequential
multi-start.  Results are canonicalised to descending hidden mass so the
permutation ambiguity cannot leak into comparisons.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import core
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
    """One restart's outcome; ``trace`` is its objective at the start and after each sweep.

    ``stop_reason`` is "fit_floor", "converged" or "max_iters"; ``converged``
    is true for the first two.
    """

    restart: int
    objective: float
    iterations: int
    converged: bool
    stop_reason: str
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

    Columns run along axis -2, so a matrix and a stack of matrices project
    alike.  Each column's threshold is ``max_k (cumsum_k(sorted column) - 1)
    / k`` (Duchi et al. 2008): the largest of those ratios is the one at the
    support size of the projection.  It is taken on the negated column,
    sorted ascending in place, as ``-min_k (cumsum_k + 1) / k``; negation is
    exact, so the threshold is the same to the last bit.
    """
    S = -V
    S.sort(axis=-2)
    ratios = (S.cumsum(axis=-2) + 1.0) / np.arange(1.0, V.shape[-2] + 1)[:, None]
    return np.maximum(V + ratios.min(axis=-2, keepdims=True), 0.0)


def project_simplex(v) -> Distribution:
    """Nearest probability vector to ``v`` in Euclidean distance."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("input must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input entries must be finite")
    return Distribution(_project_cols(arr[:, None])[:, 0])


def _objective(m: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    """Objective of each row of an ``(R, cells)`` stack of flat model laws.

    Each row reduces exactly as a lone law would: "l2sq" is one dot product
    per row, "l1" one row sum; "kl" gives zero cells of the model a zero
    term without taking their log.
    """
    if kind == "l2sq":
        d = m - q
        return (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    if kind == "l1":
        return np.abs(m - q).sum(axis=1)
    logs = np.log2(np.where(m > 0.0, m, 1.0) / (q + _SMOOTHING_EPS))
    return np.sum(m * logs, axis=1)


def _grad(m: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
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
    return float(_objective(model.values[None, :], q_hat.values, kind)[0])


def _others_product(Ws: np.ndarray, k: int) -> np.ndarray:
    """Stacked Khatri-Rao product of every channel but channel ``k``."""
    others = [Ws[:, j] for j in range(Ws.shape[1]) if j != k]
    return khatri_rao(others) if others else np.ones((len(Ws), 1, Ws.shape[-1]))


def _block_maps(P: np.ndarray, Ws: np.ndarray, i: int, B: np.ndarray, shape: tuple, rows=None):
    """Forward map and gradient pull-back of block ``i``, others frozen.

    ``P`` stacks the restarts' ``p`` columns as ``(R, L, 1)`` and ``Ws``
    their channels as ``(R, K, L', L)``; block 0 is ``p``, block ``k + 1``
    is channel ``k``.  One path serves every block.  With ``k`` the block's
    channel axis (the first channel for ``p``), the law's unfolding along
    ``k`` is ``W_k @ (B * p).T = (W_k * p) @ B.T``, where ``B`` is the
    Khatri-Rao product of the other channels (`_others_product`, formed
    once per block visit and shared by ``p`` and ``W_1``); a candidate's
    law is that product, with the candidate in place of ``W_k`` or ``p``,
    folded back to C order.  The pull-back of ``g`` starts from
    ``D = unfold_k(g) @ B``: it is ``D * p`` for a channel and the column
    sums of ``D * W_k`` for ``p``.  No array has the ``L'^K * L`` cells of
    the full Khatri-Rao product.  Given ``rows``, the maps serve only those
    restarts of the stack.
    """
    if rows is not None:
        P, Ws, B = P[rows], Ws[rows], B[rows]
    k = max(i - 1, 0)
    p, W = P.swapaxes(1, 2), Ws[:, k]
    # Every axis has L' cells, so the unfolding reshapes to ``shape`` itself;
    # axis 0 is the stack.
    n = len(shape)
    order = (0, k + 1, *range(1, k + 1), *range(k + 2, n + 1))
    back = (0, *range(2, k + 2), 1, *range(k + 2, n + 1))

    def fwd(X):
        U = (W * X.swapaxes(1, 2) if i == 0 else X * p) @ B.swapaxes(1, 2)
        return U.reshape(len(X), *shape).transpose(back).reshape(len(X), -1)

    def adj(g):
        D = g.reshape(len(g), *shape).transpose(order).reshape(len(g), shape[k], -1) @ B
        return (D * W).sum(axis=1)[:, :, None] if i == 0 else D * p

    return fwd, adj


def _descend(X, maps, q, m_cur, f_cur, kind):
    """One backtracking projected-gradient step per restart on a block stack.

    ``maps(rows)`` gives the block's `_block_maps` for the restarts ``rows``
    (all of them for ``None``).  ``m_cur`` holds the flat model laws of the
    current states, ``fwd(X)`` up to rounding, and ``f_cur`` their
    objectives.  Every restart starts at step 1; the restarts whose
    candidate does not strictly decrease their objective halve their step
    and retry, on their own, until one does.  The new block stack comes back
    with its model laws, objectives and each restart's largest entry change.
    A restart still failing below ``_MIN_STEP`` keeps its block unchanged.
    Under "l2sq" a channel's curvature along each output row is
    ``2 diag(p) B^T B diag(p)``, whose trace is at most
    ``2 sum_c p_c^2 <= 2``, so step 1 is usually accepted at once.
    """
    fwd, adj = maps(None)
    G = adj(_grad(m_cur, q, kind))
    X_new, m_new, f_new = X, m_cur, f_cur
    # The restarts still backtracking, with their blocks, gradients and
    # objectives; ``rows`` stays None while that is all of them.
    rows, Xr, Gr, fr = None, X, G, f_cur
    s = 1.0
    while s > _MIN_STEP:
        cand = _project_cols(Xr - s * Gr)
        m_c = fwd(cand)
        f_c = _objective(m_c, q, kind)
        ok = f_c < fr
        if rows is None and ok.all():
            X_new, m_new, f_new = cand, m_c, f_c
            break
        if ok.any():
            if rows is None:
                rows = np.arange(len(X))
                X_new, m_new, f_new = X.copy(), m_cur.copy(), f_cur.copy()
            hit = rows[ok]
            X_new[hit], m_new[hit], f_new[hit] = cand[ok], m_c[ok], f_c[ok]
            rows = rows[~ok]
            if rows.size == 0:
                break
            fwd, Xr, Gr, fr = maps(rows)[0], X[rows], G[rows], f_cur[rows]
        s *= 0.5
    return X_new, m_new, f_new, np.abs(X_new - X).max(axis=(1, 2))


def _solve_stack(q, shape, starts: list, ids: list, cfg: InversionConfig) -> list:
    """Alternating block descent from several starts in lockstep.

    ``starts[r]`` is restart ``ids[r]``'s list of column-stochastic blocks,
    ``p`` as an (L, 1) column followed by the channels.  The state stacks
    them: ``P`` is ``(R', L, 1)`` and ``Ws`` is ``(R', K, L', L)``, so each
    sweep pays the Python overhead once for all restarts, and every restart
    follows the path it would follow alone, bit for bit.  ``m_cur`` holds
    the flat model laws of the accepted states: `core.forward_law` at the
    start and at an accepted extrapolation, else the law `_block_maps` gave
    the last accepted block candidate, which agrees with `core.forward_law`
    up to rounding.  Each block's gradient starts from it, and since only
    strict decreases are accepted no trace ever increases.  One sweep takes
    one projected step per block, ``p`` first, then each channel, each
    backtracking from step 1 with no step carried over from earlier sweeps,
    then tries an extrapolated point along the last sweep's movement with
    each restart's own factor and keeps it for the restarts whose objective
    it strictly decreases (monotone heavy-ball), which breaks the slow
    zigzag of plain alternation.  A restart stops at ``_FIT_FLOOR``
    ("fit_floor"), once a sweep moves no block entry by more than
    ``_STEP_TOL`` nor the objective by more than ``_OBJECTIVE_TOL``
    ("converged"), or after ``max_iters`` sweeps ("max_iters"); it then
    leaves the stack.  Once a restart reaches the fit floor, the restarts
    after it are dropped, as a sequential multi-start would never have run
    them.  Returns ``(id, blocks, objective, sweeps, stop reason, trace)``
    per kept restart, by id.
    """
    kind = cfg.objective
    ids = np.asarray(ids)
    P = np.stack([blocks[0] for blocks in starts])
    Ws = np.stack([blocks[1:] for blocks in starts])
    K = Ws.shape[1]
    m_cur = forward_law(P[:, :, 0], list(Ws.swapaxes(0, 1)))
    f_cur = _objective(m_cur, q, kind)
    traces = [[f] for f in f_cur.tolist()]
    gamma = np.ones(len(ids))
    prev = None
    floor_id = np.inf
    done = []
    for iters in range(1, cfg.max_iters + 1):
        f_prev = f_cur
        anchor = (P, Ws.copy())
        move = 0.0
        for i in range(K + 1):
            if i != 1:  # p and W_1 share B, the product of W_2..W_K
                B = _others_product(Ws, max(i - 1, 0))
            maps = functools.partial(_block_maps, P, Ws, i, B, shape)
            X = P if i == 0 else Ws[:, i - 1]
            X, m_cur, f_cur, d = _descend(X, maps, q, m_cur, f_cur, kind)
            if i == 0:
                P = X
            else:
                Ws[:, i - 1] = X
            move = np.maximum(move, d)
        if prev is not None:
            g = gamma[:, None, None]
            ex_P = _project_cols(P + g * (P - prev[0]))
            ex_W = _project_cols(Ws + g[..., None] * (Ws - prev[1]))
            m_ex = forward_law(ex_P[:, :, 0], list(ex_W.swapaxes(0, 1)))
            f_ex = _objective(m_ex, q, kind)
            take = f_ex < f_cur
            if take.any():
                d_ex = np.maximum(np.abs(ex_P - P).max(axis=(1, 2)), np.abs(ex_W - Ws).max(axis=(1, 2, 3)))
                move = np.where(take, np.maximum(move, d_ex), move)
                P = np.where(take[:, None, None], ex_P, P)
                Ws = np.where(take[:, None, None, None], ex_W, Ws)
                m_cur = np.where(take[:, None], m_ex, m_cur)
                f_cur = np.where(take, f_ex, f_cur)
            # Growing gamma never falls below 0.25, nor shrinking it above 4.
            gamma = np.minimum(np.maximum(gamma * np.where(take, 1.25, 0.5), 0.25), 4.0)
        prev = anchor
        for trace, f in zip(traces, f_cur.tolist()):
            trace.append(f)
        floor = f_cur <= _FIT_FLOOR
        converged = floor | ((move <= _STEP_TOL) & ((f_prev - f_cur) <= _OBJECTIVE_TOL))
        stop = converged if iters < cfg.max_iters else np.ones_like(converged)
        if not stop.any():
            continue
        for r in np.flatnonzero(stop):
            reason = "fit_floor" if floor[r] else "converged" if converged[r] else "max_iters"
            blocks = [P[r].copy(), *Ws[r].copy()]
            done.append((int(ids[r]), blocks, float(f_cur[r]), iters, reason, traces[r]))
        if floor.any():
            floor_id = min(floor_id, ids[floor].min())
        keep = np.flatnonzero(~stop & (ids < floor_id))
        if keep.size == 0:
            break
        P, Ws, prev = P[keep], Ws[keep], (prev[0][keep], prev[1][keep])
        m_cur, f_cur, gamma, ids = m_cur[keep], f_cur[keep], gamma[keep], ids[keep]
        traces = [traces[r] for r in keep]
    return sorted(entry for entry in done if entry[0] <= floor_id)


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

    Restart 0 runs alone first; unless it reaches the fit floor, restarts
    1..R-1 then run in lockstep as one stack (`_solve_stack`), in
    consecutive groups of at most ``MAX_DENSE_CELLS // (cells * L)``
    restarts, so a stack stays under the dense-cell limit the fit is
    checked against.  Restarts after the first to reach the fit floor are
    not run, or dropped, since they could only tie, so the log, the winner
    and every stop rule are those of a sequential multi-start.  Returns the
    best restart's system in canonical form (hidden mass sorted
    descending); the winner is decided by (objective, restart index).  With
    fewer than three observation axes the target does not pin the system
    down even in principle, so a ``UserWarning`` is emitted and whichever
    optimum was found is returned.
    """
    if len(set(q_hat.shape)) != 1:
        raise ValueError("all observation axes must share one output alphabet")
    cells = q_hat.values.size * config.L
    check_dense_cells(cells, "the solver's fit")
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
    R = config.restarts
    width = core.MAX_DENSE_CELLS // cells
    groups = [range(1)] + [range(a, min(a + width, R)) for a in range(1, R, width)]
    best = None
    logs = []
    for group in groups:
        starts = [
            _random_start(Generator(Philox(key=config.seed).jumped(j)), config.L, Lp, K)
            for j in group
        ]
        done = _solve_stack(q, q_hat.shape, starts, list(group), config)
        for j, blocks, f_final, iters, reason, trace in done:
            logs.append(
                RestartLog(
                    restart=j,
                    objective=f_final,
                    iterations=iters,
                    converged=reason != "max_iters",
                    stop_reason=reason,
                    trace=tuple(trace),
                )
            )
            if best is None or f_final < best[0]:
                best = (f_final, j, blocks, reason != "max_iters")
        if logs[-1].stop_reason == "fit_floor":
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
