"""Core types and tensor operations for dependent component systems.

A dependent component system couples a hidden distribution ``p`` over the
alphabet ``{1, ..., L}`` with ``K`` column-stochastic channels.  Each channel
independently garbles the *same* hidden draw, and the observable object is the
joint distribution of the ``K`` outputs.  This module provides validated
containers for the pieces (`Distribution`, `Channel`, `Permutation`,
`JointTensor`, `DCSystem`) and the linear-algebraic operations that connect
them: the forward map from a system to its joint output law, divergences,
and the relabeling action that makes recovery ambiguous.

The forward map, `forward_law`, unfolds the law into a matrix whose rows
index the first half of the outputs and whose columns index the rest, and
computes it as one product of two half-size Khatri-Rao factors.

Symbols and axis labels are 1-based at the API surface (they name alphabet
letters and agents); storage is ordinary 0-based numpy underneath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

# Tolerance for "sums to one" checks on distributions and channel columns.
STOCHASTIC_ATOL = 1e-12
# Joint tensors accumulate more float error (products over K factors).
TENSOR_MASS_ATOL = 1e-10
# Relative singular-value cutoff of `numerical_rank`, the package's one rank test.
SINGULAR_RTOL = 1e-9
# Largest dense array (in cells) that joint laws, Khatri-Rao products and
# type counts may allocate: 2 GiB of float64.  The forward map's largest
# array is the law itself; at K = 11, L' = L = 4, the largest size the
# package is exercised at, that is 4^11 (about 4.2e6) cells, where the full
# Khatri-Rao product took 4^11 * 4 plus its partial products.
MAX_DENSE_CELLS = 2**28


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """Copy ``values`` into a read-only, C-ordered ndarray.

    Containers stay immutable, and one storage order means the same system
    takes the same BLAS path, so its law does not depend on how the caller
    laid out its arrays.  An ndarray that is already read-only, C-ordered,
    of ``dtype`` and owns its data is kept, not copied: the functions that
    build a law or counts freeze the array they have just computed, and a
    K = 11 law then costs no second 32 MB pass.  An int64 array is frozen
    only from integers: values of another dtype, bool included, are refused
    rather than truncated.
    """
    if (
        isinstance(values, np.ndarray)
        and values.base is None
        and not values.flags.writeable
        and values.flags.c_contiguous
        and values.dtype == dtype
    ):
        return values
    if dtype == np.int64:
        values = np.asarray(values)
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"expected an integer array, got dtype {values.dtype}")
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


class _ArrayFieldsEq:
    """``==`` for a frozen dataclass with ndarray fields, declared ``eq=False``.

    Two instances of one class are equal when every field is, an array
    field by `np.array_equal` (shape and values), any other by ``==``.  The
    generated ``__eq__`` compares the fields as tuples, which asks an
    array's elementwise ``==`` for one truth value and raises.  Defining
    ``__eq__`` leaves ``__hash__`` ``None``, as hashing an array field was
    already refused.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class Distribution(_ArrayFieldsEq):
    """A probability vector over the alphabet ``{1, ..., L}``.

    Rejects (never repairs) inputs that are not finite, contain negative
    entries, or whose mass deviates from one by more than ``STOCHASTIC_ATOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("distribution must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("distribution entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > STOCHASTIC_ATOL:
            raise ValueError(f"distribution mass {total!r} is not 1 within {STOCHASTIC_ATOL}")
        object.__setattr__(self, "probs", _frozen_array(arr))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def strictly_positive(self) -> bool:
        return bool(np.all(self.probs > 0.0))


@dataclass(frozen=True, eq=False)
class Channel(_ArrayFieldsEq):
    """A column-stochastic matrix.

    ``entries[i, j]`` is the probability of emitting output ``i + 1`` when the
    hidden input is ``j + 1``, so every column is a distribution over outputs.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("channel must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("channel entries must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0 + STOCHASTIC_ATOL):
            raise ValueError("channel entries must lie in [0, 1]")
        colsums = arr.sum(axis=0)
        bad = np.abs(colsums - 1.0) > STOCHASTIC_ATOL
        if np.any(bad):
            j = int(np.nonzero(bad)[0][0])
            raise ValueError(
                f"channel column {j + 1} sums to {float(colsums[j])!r}, not 1 within {STOCHASTIC_ATOL}"
            )
        object.__setattr__(self, "entries", _frozen_array(arr))

    @property
    def outputs(self) -> int:
        """Number of output symbols (rows)."""
        return int(self.entries.shape[0])

    @property
    def inputs(self) -> int:
        """Number of input symbols (columns)."""
        return int(self.entries.shape[1])

    @classmethod
    def identity(cls, L: int) -> "Channel":
        return cls(np.eye(L))


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1, ..., L}``; ``mapping[i - 1]`` is the image of ``i``."""

    mapping: tuple

    def __post_init__(self):
        mapping = tuple(_check_count(v, "permutation entry") for v in self.mapping)
        if len(mapping) == 0 or sorted(mapping) != list(range(1, len(mapping) + 1)):
            raise ValueError(f"{mapping!r} is not a permutation of 1..{len(mapping)}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def size(self) -> int:
        return len(self.mapping)

    def source_indices(self) -> np.ndarray:
        """0-based gather indices: position ``i`` of the result pulls from
        position ``source_indices()[i]`` of the original, i.e. the action on a
        distribution is ``new[i] = old[tau^{-1}(i)]``.  Image ``i + 1`` sits
        at position ``tau^{-1}(i + 1) - 1`` of ``mapping``, so the indices
        are its argsort."""
        return np.argsort(self.mapping)


@dataclass(frozen=True, eq=False)
class JointTensor(_ArrayFieldsEq):
    """A joint distribution over a product alphabet, stored flat.

    ``values`` is laid out in row-major (C) order over ``shape``: the last
    coordinate varies fastest.  ``shape[a]`` is the alphabet size of axis
    ``a + 1``.  ``n`` is the number of records an empirical law was
    estimated from, a positive integer below ``2**63`` as the int64 counts
    are, or ``None`` for an exact law; it sets the solver's criterion
    (likelihood for a sampled law, squared distance for an exact one), its
    restart schedule and the fit statistic ``G²``.
    """

    shape: tuple
    values: np.ndarray
    n: int | None = None

    def __post_init__(self):
        shape = tuple(_check_count(s, "shape entry") for s in self.shape)
        if len(shape) == 0 or any(s < 1 for s in shape):
            raise ValueError(f"invalid tensor shape {shape!r}")
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != math.prod(shape):
            raise ValueError(
                f"flat tensor of length {arr.size} does not match shape {shape!r}"
            )
        # A finite sum means every value is finite, since an inf or a nan
        # carries into it; only a sum that overflows needs the cellwise test.
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(arr.sum())
        if not math.isfinite(total) and not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        if arr.min() < 0.0:
            raise ValueError("tensor values must be nonnegative")
        if abs(total - 1.0) > TENSOR_MASS_ATOL:
            raise ValueError(f"tensor mass {total!r} is not 1 within {TENSOR_MASS_ATOL}")
        if self.n is not None:
            n = self.n
            if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or not 1 <= n < 2**63:
                raise ValueError(f"sample size n must be a positive integer below 2**63, got {n!r}")
            object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", _frozen_array(arr))

    @property
    def axes(self) -> int:
        return len(self.shape)

    def as_array(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "JointTensor":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(tuple(arr.shape), arr.reshape(-1))

    def prob(self, symbols: Sequence[int]) -> float:
        """Mass of the outcome tuple ``symbols`` (1-based per axis)."""
        if len(symbols) != self.axes:
            raise ValueError(f"expected {self.axes} symbols, got {len(symbols)}")
        idx = []
        for axis, (s, size) in enumerate(zip(symbols, self.shape), start=1):
            if not 1 <= s <= size:
                raise ValueError(f"symbol {s} outside axis {axis} of size {size}")
            idx.append(s - 1)
        return float(self.as_array()[tuple(idx)])


@dataclass(frozen=True)
class DCSystem:
    """A hidden distribution together with the channels observing it.

    All channels read the same hidden symbol, so each must have ``p.size``
    input columns; they must also share a common output alphabet.
    """

    p: Distribution
    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) == 0:
            raise ValueError("a system needs at least one channel")
        for k, ch in enumerate(channels, start=1):
            if not isinstance(ch, Channel):
                raise ValueError(f"channel {k} is not a Channel")
            if ch.inputs != self.p.size:
                raise ValueError(
                    f"channel {k} has {ch.inputs} input columns, expected {self.p.size}"
                )
        outs = {ch.outputs for ch in channels}
        if len(outs) != 1:
            raise ValueError(f"channels disagree on output alphabet size: {sorted(outs)}")
        object.__setattr__(self, "channels", channels)

    @property
    def hidden_size(self) -> int:
        return self.p.size

    @property
    def output_size(self) -> int:
        return self.channels[0].outputs

    @property
    def num_channels(self) -> int:
        return len(self.channels)


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of matrices with a common column count.

    Column ``j`` of the result is the Kronecker product of the ``j``-th
    columns of the inputs, with earlier matrices varying slowest -- matching
    the row-major flat layout of `JointTensor`.  The inputs may carry one
    leading stack axis, shared by all of them; each stack slice then gets
    its own product, computed exactly as the 2-D call would.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    acc = mats[0]
    lead, cols = acc.shape[:-2], acc.shape[-1]
    for m in mats[1:]:
        if m.shape[-1] != cols:
            raise ValueError(f"column counts differ: {cols} and {m.shape[-1]}")
        if len(lead) > 1 or m.shape[:-2] != lead:
            raise ValueError("matrices must be 2-D, or 3-D with one shared stack axis")
        acc = (acc[..., :, None, :] * m[..., None, :, :]).reshape(*lead, -1, cols)
    return acc


def forward_law(weights: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The flat ``khatri_rao(mats) @ weights``, as one product of two factors.

    With ``h = len(mats) // 2`` the law unfolds into a matrix whose rows index
    the first ``h`` outputs and whose columns index the rest:
    ``(khatri_rao(mats[:h]) * weights) @ khatri_rao(mats[h:]).T`` (the
    unfolding of a rank-L CP tensor, Kolda & Bader 2009).  Its row-major
    reshape is the flat layout of `JointTensor`.  The largest array is the
    law or one of the two factors, never the full Khatri-Rao product; for
    one matrix (``h = 0``) the left factor is ``weights`` as one row.  The
    product is written straight into the returned flat array, which owns
    its data, so a caller can freeze it and hand it to `JointTensor`.
    Stacked input -- ``weights`` of shape ``(R, L)`` and matrices of shape
    ``(R, L', L)`` -- gives an ``(R, cells)`` stack of laws, each slice
    equal bit for bit to the law of that slice alone.
    """
    weights = np.asarray(weights, dtype=np.float64)
    h = len(mats) // 2
    left = khatri_rao(mats[:h]) * weights[..., None, :] if h else weights[..., None, :]
    right = khatri_rao(mats[h:])
    lead = weights.shape[:-1]
    law = np.empty((*lead, left.shape[-2] * right.shape[-2]))
    np.matmul(left, right.swapaxes(-1, -2), out=law.reshape(*lead, left.shape[-2], right.shape[-2]))
    return law


def check_dense_cells(cells: int, what: str) -> None:
    """Refuse a dense array of more than ``MAX_DENSE_CELLS`` float64 cells.

    Joint laws and their counts grow as ``L'^K``; the check runs before the
    allocation, so an oversized input fails with a message instead of
    exhausting memory.
    """
    if cells > MAX_DENSE_CELLS:
        raise ValueError(
            f"{what} needs {cells} dense cells, more than the limit of {MAX_DENSE_CELLS}"
        )


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str) -> int:
    """``value`` as an int, if it is an integer (`_is_integer`); else a
    ``ValueError`` naming the argument ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_seed(seed: int) -> int:
    """``seed`` as an int, if it is an integer that fits the one 64-bit word
    of a Philox key."""
    if not _is_integer(seed) or not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(seed)


def free_parameters(L: int, Lprime: int, K: int) -> int:
    """Free parameters of a system: ``L - 1`` in ``p``, ``L (L' - 1)`` per channel."""
    return (L - 1) + K * L * (Lprime - 1)


def column_gaps(entries: np.ndarray):
    """Yield ``(a, gaps)``: L1 distances from column ``a`` to columns ``a+1..``.

    One column at a time keeps memory at the size of ``entries`` and lets a
    caller stop at the first close pair.  Each distance sums one contiguous
    row of differences, exactly as a 1-D ``sum`` of that column difference.
    """
    cols = np.ascontiguousarray(entries.T)
    for a in range(cols.shape[0] - 1):
        yield a, np.abs(cols[a + 1 :] - cols[a]).sum(axis=1)


def output_distribution(system: DCSystem) -> JointTensor:
    """Joint law of the K channel outputs given one hidden draw.

    Entry ``(y_1, ..., y_K)`` equals ``sum_x p(x) * prod_k w_k(y_k | x)``:
    the tensor product of the channels applied to the diagonal embedding
    of ``p``.  `forward_law` computes it as one product of the first half's
    Khatri-Rao factor, scaled by ``p``, with the second half's.  The guard
    still counts the ``L'^K * L`` cells of the full Khatri-Rao product.
    """
    shape = tuple(ch.outputs for ch in system.channels)
    check_dense_cells(math.prod(shape) * system.hidden_size, "the joint output law")
    flat = forward_law(system.p.probs, [ch.entries for ch in system.channels])
    flat.flags.writeable = False
    return JointTensor(shape, flat)


def kl_divergence(a: JointTensor, b: JointTensor) -> float:
    """Relative entropy ``D(a || b)`` in bits; ``inf`` if supp(a) ⊄ supp(b)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    mask = av > 0.0
    if np.any(bv[mask] == 0.0):
        return math.inf
    return float(np.sum(av[mask] * np.log2(av[mask] / bv[mask])))


def lp_distance(a: JointTensor, b: JointTensor, k: int) -> float:
    """L1 or L2 distance between joint tensors over the same alphabet."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if k == 1:
        return float(np.abs(a.values - b.values).sum())
    if k == 2:
        d = a.values - b.values
        return float(math.sqrt(d @ d))
    raise ValueError("k must be 1 or 2")


def permute_system(tau: Permutation, system: DCSystem) -> DCSystem:
    """Relabel the hidden alphabet by ``tau`` without changing the output law.

    The hidden mass moves with its label -- ``p'(i) = p(tau^{-1}(i))`` -- and
    every channel's columns are gathered the same way, so the joint output
    distribution of the relabeled system is identical.
    """
    if tau.size != system.hidden_size:
        raise ValueError(
            f"permutation of size {tau.size} does not act on alphabet of size "
            f"{system.hidden_size}"
        )
    src = tau.source_indices()
    p_new = Distribution(system.p.probs[src])
    chans = tuple(Channel(ch.entries[:, src]) for ch in system.channels)
    return DCSystem(p_new, chans)


def numerical_rank(mat: np.ndarray) -> int:
    """Number of singular values above ``SINGULAR_RTOL`` times the largest.

    The cutoff is relative, so scaling ``mat`` never changes its rank.
    """
    s = np.linalg.svd(np.asarray(mat, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > SINGULAR_RTOL * s[0]))


def channel_invertible(W: Channel) -> bool:
    """Whether a square channel has full `numerical_rank`."""
    if W.outputs != W.inputs:
        raise ValueError(f"invertibility needs a square channel, got {W.outputs}x{W.inputs}")
    return numerical_rank(W.entries) == W.inputs
