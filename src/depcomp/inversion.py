"""Recovery of a hidden system from its joint output distribution.

Given (an estimate of) the joint output law of ``K >= 3`` channels reading a
common hidden draw, the solver searches for a hidden distribution and channel
stack reproducing it.  The law ``q(y) = sum_x p(x) prod_k W_k(y_k | x)`` uses
``p`` only multiplied into a channel, so a restart's state is ``K`` blocks of
one shape ``(L', L)``: ``J = W_1 diag(p)``, the joint law of ``(Y_1, X)`` and
one simplex of ``L' * L`` cells, then the channels ``W_2..W_K``, whose
columns are simplices of ``L'`` cells.  The law is the blocks' Khatri-Rao
product times a column of ones, and the fit unfolds ``J`` into
``p = J.sum(axis=0)`` and ``W_1 = J / p`` (`_system`).  The objective is
block-multiconvex: with all blocks but one frozen, the model is linear in the
free block, so one projected-gradient step serves every block.  It is the
squared Euclidean distance between the model law and ``q`` ("l2sq").  Every
full law the solver forms comes from `core.forward_law`, and a block's
candidates are scored through the law's unfolding along one axis.  A sweep
takes one backtracking step per block, in order, each starting afresh at step
1, plus one extrapolation along the movement since the start of the previous
sweep, accepting only strict decreases, so the iteration is monotone by
construction.  A restart stops at the fit floor, on convergence (no entry of
``J`` or of a channel moved by more than ``_STEP_TOL`` in the sweep), or
after ``max_iters`` sweeps; its log names which in ``stop_reason``
("fit_floor", "converged" or "max_iters").  Multi-start over seeded restarts
guards against the poor local minima any single start can hit.  Restarts
advance in lockstep as one stacked state (`_solve_stack`), each following its
own path bit for bit, on the schedule `recover_system` sets from the target,
and the restarts after the first to reach the fit floor are not run, so the
log and the winner are those of a sequential multi-start.  Results are
canonicalised to descending hidden mass so the permutation ambiguity cannot
leak into comparisons.
"""

from __future__ import annotations

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
    _check_seed,
    check_dense_cells,
    forward_law,
    free_parameters,
    khatri_rao,
    output_distribution,
    Permutation,
)

OBJECTIVE_KINDS = ("l2sq",)

# Hidden masses below this are treated as sitting on the simplex boundary,
# where identifiability degrades; results flag it rather than failing.
BOUNDARY_MASS = 1e-6

_MIN_STEP = 1e-18

# Once a fit is this good the target is matched far below every tolerance the
# package asserts anywhere (1e-9 at the loosest); a restart reaching it stops
# polishing, and the multi-start loop stops launching further restarts since
# they could only tie.
_FIT_FLOOR = 1e-10

# A converged sweep moves no block entry by more than _STEP_TOL.
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class InversionConfig:
    """Solver settings; ``L`` is the hidden alphabet size to fit.

    ``objective`` is one of `OBJECTIVE_KINDS`, which holds only "l2sq" (see
    `objective`).  ``max_iters`` counts sweeps.  The rest is fixed: a
    converged sweep moves no entry of any block, ``J = W_1 diag(p)`` or a
    channel ``W_2..W_K``, by more than ``_STEP_TOL`` (1e-10).
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
        _check_seed(self.seed)


@dataclass(frozen=True)
class RestartLog:
    """One restart's outcome; ``trace`` is its objective at the start and after each sweep.

    ``stop_reason`` is "fit_floor", "converged" or "max_iters".
    """

    restart: int
    objective: float
    iterations: int
    stop_reason: str
    trace: tuple

    @property
    def converged(self) -> bool:
        """Whether the restart stopped before its sweep budget ran out."""
        return self.stop_reason != "max_iters"


@dataclass(frozen=True)
class InversionResult:
    """The best restart's fit, in canonical form, with every restart's log.

    ``n`` is the target's sample size, ``None`` for an exact law.  ``g2`` is
    the likelihood-ratio statistic of the fit (`_g2`), ``None`` for an exact
    law or when an observed cell has model mass 0; ``df`` is its degrees of
    freedom.
    """

    p_hat: Distribution
    channels_hat: tuple
    objective_value: float
    best_restart: int
    restart_log: tuple
    near_boundary: bool
    n: int | None
    g2: float | None

    @property
    def df(self) -> int:
        """Free cells of the law, ``L'^K - 1``, less the model's free
        parameters, `core.free_parameters`; zero or negative when the
        model has as many parameters as the law has cells, or more."""
        L, K, Lp = self.p_hat.size, len(self.channels_hat), self.channels_hat[0].outputs
        return Lp**K - 1 - free_parameters(L, Lp, K)

    @property
    def converged(self) -> bool:
        """The best restart's `RestartLog.converged`."""
        return next(e for e in self.restart_log if e.restart == self.best_restart).converged


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


def _objective(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance to ``q`` of each row of an ``(R, cells)`` stack of
    flat model laws, one dot product per row, so each row reduces exactly as
    a lone law would."""
    d = m - q
    return (d[:, None, :] @ d[:, :, None])[:, 0, 0]


def objective(candidate: DCSystem, q_hat: JointTensor, kind: str) -> float:
    """Misfit between a candidate system's output law and ``q_hat``.

    ``kind`` must be one of `OBJECTIVE_KINDS`; "l2sq" is the squared
    Euclidean distance between the two laws.  Any other kind is a
    ``ValueError``.
    """
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(f"objective must be one of {OBJECTIVE_KINDS}")
    model = output_distribution(candidate)
    if model.shape != q_hat.shape:
        raise ValueError(f"shape mismatch: model {model.shape} vs target {q_hat.shape}")
    return float(_objective(model.values[None, :], q_hat.values)[0])


def _others_product(S: np.ndarray, k: int) -> np.ndarray:
    """Stacked Khatri-Rao product of every block of the state but block ``k``."""
    others = [S[:, j] for j in range(S.shape[1]) if j != k]
    return khatri_rao(others) if others else np.ones((len(S), 1, S.shape[-1]))


def _block_maps(k: int, B: np.ndarray, shape: tuple):
    """Forward map and gradient pull-back of block ``k``, the others frozen.

    A state stacks each restart's blocks as ``(R, K, L', L)``: block 0 is
    ``J = W_1 diag(p)`` and block ``k >= 1`` is channel ``W_{k+1}``, so the
    law is the blocks' Khatri-Rao product times a column of ones, and its
    unfolding along axis ``k`` is ``X @ B.T`` for every block ``X``, with
    ``B`` the Khatri-Rao product of the other blocks (`_others_product`).
    A candidate's law is that product folded back to C order; the pull-back
    of ``g`` is ``unfold_k(g) @ B``, of shape ``(R, L', L)``.  ``fwd`` takes
    the block in any shape holding its ``L' * L`` cells in C order.  No
    array has the ``L'^K * L`` cells of the full Khatri-Rao product, and
    each restart's slice is mapped exactly as it would be alone.
    """
    # Every axis has L' cells, so the unfolding reshapes to ``shape`` itself;
    # axis 0 is the stack.
    n = len(shape)
    order = (0, k + 1, *range(1, k + 1), *range(k + 2, n + 1))
    back = (0, *range(2, k + 2), 1, *range(k + 2, n + 1))

    def fwd(X):
        U = X.reshape(len(X), shape[k], -1) @ B.swapaxes(1, 2)
        return U.reshape(len(X), *shape).transpose(back).reshape(len(X), -1)

    def adj(g):
        return g.reshape(len(g), *shape).transpose(order).reshape(len(g), shape[k], -1) @ B

    return fwd, adj


def _project_state(S: np.ndarray) -> np.ndarray:
    """Project an ``(R, K, L', L)`` state stack: ``J`` as one column of
    ``L' * L`` cells, every channel column onto its own simplex."""
    R, _, Lp, L = S.shape
    J = _project_cols(S[:, :1].reshape(R, 1, Lp * L, 1)).reshape(R, 1, Lp, L)
    return np.concatenate([J, _project_cols(S[:, 1:])], axis=1)


def _descend(X, fwd, adj, q, m_cur, f_cur):
    """One backtracking projected-gradient step per restart on a block stack.

    ``fwd, adj`` are the block's `_block_maps`, and ``X`` holds the block in
    the shape whose columns are its simplices.  ``m_cur`` holds the flat
    model laws of the current states, ``fwd(X)`` up to rounding, and
    ``f_cur`` their objectives.  One step, shared by the whole stack, starts
    at 1 and halves while some restart is pending; each restart takes its
    first candidate that strictly decreases its objective.  Every operation
    acts slice by slice, so each restart follows its lone path bit for bit;
    the candidates of restarts that have settled are computed and discarded.
    The new block stack comes back with its model laws, objectives and each
    restart's largest entry change.  A restart still failing below
    ``_MIN_STEP`` keeps its block unchanged.  The gradient of the squared
    distance at the law is ``2 (m_cur - q)``, and a block's curvature along
    each output row is ``2 B^T B``; for a channel, column ``x`` of ``B``
    carries ``J``'s column ``x``, so the trace is at most ``2 sum_x p_x^2 <=
    2`` and step 1 is usually accepted at once.
    """
    G = adj(2.0 * (m_cur - q)).reshape(X.shape)
    X_new, m_new, f_new = X, m_cur, f_cur
    pending = np.ones(len(X), dtype=bool)
    s = 1.0
    while s > _MIN_STEP:
        cand = _project_cols(X - s * G)
        m_c = fwd(cand)
        f_c = _objective(m_c, q)
        ok = pending & (f_c < f_cur)
        if ok.all():
            X_new, m_new, f_new = cand, m_c, f_c
            break
        X_new = np.where(ok[:, None, None], cand, X_new)
        m_new = np.where(ok[:, None], m_c, m_new)
        f_new = np.where(ok, f_c, f_new)
        pending &= ~ok
        if not pending.any():
            break
        s *= 0.5
    return X_new, m_new, f_new, np.abs(X_new - X).max(axis=(1, 2))


def _solve_stack(q, shape, starts: list, ids: list, max_iters: int) -> list:
    """Alternating block descent from several starts in lockstep.

    ``starts[r]`` is restart ``ids[r]``'s ``(K, L', L)`` state (see
    `_block_maps`): ``J = W_1 diag(p)`` followed by the channels
    ``W_2..W_K``.  The stack of states is one ``(R', K, L', L)`` array, so
    each sweep pays the Python overhead once for all restarts, and every
    restart follows the path it would follow alone, bit for bit.  ``m_cur``
    holds the flat model laws of the accepted states: `core.forward_law` at
    the start and at an accepted extrapolation, else the law `_block_maps`
    gave the last accepted block candidate, which agrees with
    `core.forward_law` up to rounding.  Each block's gradient starts from
    it, and since only strict decreases are accepted no trace ever
    increases.  One sweep takes one projected step per block in order, each
    backtracking from step 1 with no step carried over from earlier sweeps,
    then tries an extrapolated point ``S + gamma (S - prev)`` with each
    restart's own factor ``gamma`` and keeps it for the restarts whose
    objective it strictly decreases (monotone heavy-ball), which breaks the
    slow zigzag of plain alternation.  ``prev`` is the state at the start of
    the previous sweep, so the direction spans that sweep, its
    extrapolation and this sweep's block steps.  A restart stops at
    ``_FIT_FLOOR`` ("fit_floor"), once a sweep moves no entry of ``J`` or a
    channel by more than ``_STEP_TOL`` ("converged"), or after
    ``max_iters`` sweeps ("max_iters"); it then leaves the stack.  Once a
    restart reaches the fit floor, the restarts after it are dropped, as a
    sequential multi-start would never have run them.  Returns a
    ``(RestartLog, state)`` pair per kept restart, by restart id.
    """
    ids = np.asarray(ids)
    S = np.stack(starts)
    K, Lp, L = S.shape[1:]
    # The shape in which each block's columns are its simplices.
    views = [(Lp * L, 1)] + [(Lp, L)] * (K - 1)
    m_cur = forward_law(np.ones((len(S), L)), list(S.swapaxes(0, 1)))
    f_cur = _objective(m_cur, q)
    traces = [[f] for f in f_cur.tolist()]
    gamma = np.ones(len(ids))
    prev = None
    floor_id = np.inf
    done = []
    for iters in range(1, max_iters + 1):
        anchor = S.copy()
        move = 0.0
        for k, view in enumerate(views):
            fwd, adj = _block_maps(k, _others_product(S, k), shape)
            X, m_cur, f_cur, d = _descend(S[:, k].reshape(-1, *view), fwd, adj, q, m_cur, f_cur)
            S[:, k] = X.reshape(-1, Lp, L)
            move = np.maximum(move, d)
        if prev is not None:
            ex = _project_state(S + gamma[:, None, None, None] * (S - prev))
            m_ex = forward_law(np.ones((len(S), L)), list(ex.swapaxes(0, 1)))
            f_ex = _objective(m_ex, q)
            take = f_ex < f_cur
            if take.any():
                move = np.where(take, np.maximum(move, np.abs(ex - S).max(axis=(1, 2, 3))), move)
                S = np.where(take[:, None, None, None], ex, S)
                m_cur = np.where(take[:, None], m_ex, m_cur)
                f_cur = np.where(take, f_ex, f_cur)
            # Growing gamma never falls below 0.25, nor shrinking it above 4.
            gamma = np.minimum(np.maximum(gamma * np.where(take, 1.25, 0.5), 0.25), 4.0)
        prev = anchor
        for trace, f in zip(traces, f_cur.tolist()):
            trace.append(f)
        floor = f_cur <= _FIT_FLOOR
        converged = floor | (move <= _STEP_TOL)
        stop = converged if iters < max_iters else np.ones_like(converged)
        if not stop.any():
            continue
        for r in np.flatnonzero(stop):
            reason = "fit_floor" if floor[r] else "converged" if converged[r] else "max_iters"
            log = RestartLog(int(ids[r]), float(f_cur[r]), iters, reason, tuple(traces[r]))
            done.append((log, S[r].copy()))
        if floor.any():
            floor_id = min(floor_id, ids[floor].min())
        keep = np.flatnonzero(~stop & (ids < floor_id))
        if keep.size == 0:
            break
        S, prev, m_cur, f_cur = S[keep], prev[keep], m_cur[keep], f_cur[keep]
        gamma, ids = gamma[keep], ids[keep]
        traces = [traces[r] for r in keep]
    return sorted((e for e in done if e[0].restart <= floor_id), key=lambda e: e[0].restart)


def _g2(q: np.ndarray, n: int | None, system: DCSystem) -> float | None:
    """``G² = 2n sum_c q_c ln(q_c / m_c)`` over the observed cells ``q_c > 0``.

    ``m`` is the fitted system's law (Goodman 1974).  ``None`` for an exact
    law, whose ``n`` is ``None``, and when an observed cell has model mass 0.
    """
    if n is None:
        return None
    m = forward_law(system.p.probs, [ch.entries for ch in system.channels])
    seen = q > 0.0
    if not np.all(m[seen] > 0.0):
        return None
    return float(2.0 * n * np.sum(q[seen] * np.log(q[seen] / m[seen])))


def _random_start(rng: Generator, L: int, Lp: int, K: int) -> np.ndarray:
    """One restart's ``(K, L', L)`` start from ``p``, drawn first, and each
    channel in turn; block 0 is ``J = W_1 diag(p)``."""
    p = rng.dirichlet(np.ones(L))
    blocks = []
    for _ in range(K):
        noise = rng.dirichlet(np.ones(Lp), size=L).T
        if L == Lp:
            beta = rng.uniform(0.1, 0.7)
            blocks.append((1.0 - beta) * np.eye(L) + beta * noise)
        else:
            blocks.append(noise)
    blocks[0] = blocks[0] * p
    return np.stack(blocks)


def _system(state: np.ndarray) -> DCSystem:
    """The system of one ``(K, L', L)`` state: ``p = J.sum(axis=0)`` and
    ``W_1 = J / p``.  A hidden symbol of mass 0 leaves its ``W_1`` column
    undetermined; it gets the uniform ``1/L'``, and ``near_boundary`` flags
    such a fit."""
    J, *Ws = state
    p = J.sum(axis=0)
    W1 = np.divide(J, p, out=np.full_like(J, 1.0 / len(J)), where=p > 0.0)
    return DCSystem(Distribution(p), tuple(Channel(W) for W in (W1, *Ws)))


def recover_system(q_hat: JointTensor, config: InversionConfig) -> InversionResult:
    """Fit a hidden system to ``q_hat`` by multi-start alternating descent.

    Restarts run in lockstep as one stack (`_solve_stack`), in consecutive
    groups of at most ``MAX_DENSE_CELLS // (cells * L)`` restarts, so a
    stack stays under the dense-cell limit the fit is checked against.  On
    an exact law (``q_hat.n`` is ``None``) restart 0 runs alone first, and
    restarts 1..R-1 follow unless it reaches the fit floor.  On a sampled
    law all R restarts start together: its fit floor sits far below the
    sampling noise, so restart 0 would nearly always run its whole budget
    alone.  ``n`` sets only this schedule, never a fit.  Restarts after the
    first to reach the fit floor are not run, or dropped, since they could
    only tie, so the log, the winner and every stop rule are those of a
    sequential multi-start.  Returns the best restart's system in canonical
    form (hidden mass sorted descending); the winner is decided by
    (objective, restart index).  With fewer than three observation axes the
    target does not pin the system down even in principle, so a
    ``UserWarning`` is emitted and whichever optimum was found is returned.
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
    first = [range(1)] if q_hat.n is None else []
    groups = first + [range(a, min(a + width, R)) for a in range(len(first), R, width)]
    logs, states = [], {}
    for group in groups:
        starts = [
            _random_start(Generator(Philox(key=config.seed).jumped(j)), config.L, Lp, K)
            for j in group
        ]
        for log, state in _solve_stack(q, q_hat.shape, starts, list(group), config.max_iters):
            logs.append(log)
            states[log.restart] = state
        if logs[-1].stop_reason == "fit_floor":
            break
    best = min(logs, key=lambda e: (e.objective, e.restart))
    system = canonicalize(_system(states[best.restart]))
    return InversionResult(
        p_hat=system.p,
        channels_hat=system.channels,
        objective_value=best.objective,
        best_restart=best.restart,
        restart_log=tuple(logs),
        near_boundary=bool(np.any(system.p.probs < BOUNDARY_MASS)),
        n=q_hat.n,
        g2=_g2(q, q_hat.n, system),
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
