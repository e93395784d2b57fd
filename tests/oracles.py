"""Independent reference implementations used to pin expected values.

Everything in this module is deliberately written the slow, obvious way
(nested loops over tuples, exact rational row reduction) and shares no code
with the package, so tests compare the library against a second derivation
rather than against itself.
"""

import collections
import decimal
import itertools
import math
from fractions import Fraction

import numpy as np


def joint_output(p, channels):
    """Forward law by direct summation: q[y] = sum_x p[x] prod_k W_k[y_k, x]."""
    p = np.asarray(p, dtype=float)
    channels = [np.asarray(w, dtype=float) for w in channels]
    shape = tuple(w.shape[0] for w in channels)
    out = np.zeros(shape)
    for ys in itertools.product(*(range(s) for s in shape)):
        total = 0.0
        for x in range(p.size):
            term = p[x]
            for k, y in enumerate(ys):
                term *= channels[k][y, x]
            total += term
        out[ys] = total
    return out


def exact_output_kl_bits(r, s, channels, digits=50):
    """D(theta(r) || theta(s)) in bits for exact rational laws of float inputs.

    Every float in ``r``, ``s`` and the channels is read as the exact
    rational it stores; the two laws are summed cell by cell in `Fraction`,
    and the logarithms are taken in `decimal` at ``digits`` digits.
    """
    r = [Fraction(float(x)) for x in r]
    s = [Fraction(float(x)) for x in s]
    channels = [[[Fraction(float(v)) for v in row] for row in w] for w in channels]
    ctx = decimal.Context(prec=digits)

    def dec(f):
        return ctx.divide(decimal.Decimal(f.numerator), decimal.Decimal(f.denominator))

    total = decimal.Decimal(0)
    for ys in itertools.product(*(range(len(w)) for w in channels)):
        a = b = Fraction(0)
        for x in range(len(r)):
            term = math.prod((w[y][x] for w, y in zip(channels, ys)), start=Fraction(1))
            a += r[x] * term
            b += s[x] * term
        if a > 0:
            total = ctx.add(total, ctx.multiply(dec(a), ctx.ln(dec(a / b))))
    return float(ctx.divide(total, ctx.ln(decimal.Decimal(2))))


def marginal(arr, keep):
    """Sum out all axes not in ``keep`` (0-based), accumulating cell by cell."""
    arr = np.asarray(arr, dtype=float)
    keep = sorted(keep)
    out = np.zeros(tuple(arr.shape[a] for a in keep))
    for idx in itertools.product(*(range(s) for s in arr.shape)):
        out[tuple(idx[a] for a in keep)] += arr[idx]
    return out


def kl_bits(a, b):
    """Relative entropy in bits, elementwise loop, 0 log 0 = 0."""
    total = 0.0
    for x, y in zip(np.ravel(a), np.ravel(b)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            total += x * math.log2(x / y)
    return total


def entropy_bits(v):
    return -sum(x * math.log2(x) for x in np.ravel(v) if x > 0.0)


def mutual_information_bits(joint2d):
    """I(X;Y) from a two-axis joint, via the H(X)+H(Y)-H(X,Y) identity."""
    joint2d = np.asarray(joint2d, dtype=float)
    hx = entropy_bits(marginal(joint2d, [0]))
    hy = entropy_bits(marginal(joint2d, [1]))
    return hx + hy - entropy_bits(joint2d)


def nearest_simplex_point(v, step=1e-4):
    """Brute-force grid search for the Euclidean projection, L in {2, 3}.

    The candidates are the grid points ``(a, 1 - a)``, or ``(a, b, 1 - a - b)``
    with ``a + b <= 1`` in ``a``-major order; the first at the least squared
    distance wins.
    """
    v = np.asarray(v, dtype=float)
    grid = np.arange(0.0, 1.0 + step, step)
    if v.size == 2:
        cands = np.stack([grid, 1.0 - grid], axis=1)
    elif v.size == 3:
        a, b = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
        inside = a + b <= 1.0
        a, b = a[inside], b[inside]
        cands = np.stack([a, b, 1.0 - a - b], axis=1)
    else:
        raise ValueError("grid oracle only written for L in {2, 3}")
    d = (cands[:, 0] - v[0]) ** 2
    for i in range(1, v.size):
        d = d + (cands[:, i] - v[i]) ** 2
    return cands[np.argmin(d)]


def exact_rank(rows):
    """Rank by Gauss-Jordan elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank, row = 0, 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def exact_column_power(columns, K):
    """K-fold tensor power of exact rational columns, rows in the canonical
    order (last tensor factor fastest); returns a list of rows for exact_rank."""
    columns = [[Fraction(x) for x in col] for col in columns]
    size = len(columns[0])
    rows = []
    for ys in itertools.product(range(size), repeat=K):
        rows.append(
            [math.prod((col[y] for y in ys), start=Fraction(1)) for col in columns]
        )
    return rows


def best_relabeling(p_true, p_est):
    """Exhaustive search for the 1-based relabeling map minimizing L1 error.

    Returns (mapping, distance) where the relabeled estimate is
    new[i] = est[mapping.index(i)] -- i.e. mass at position j moves to
    position mapping[j].  Ties resolved to the lexicographically smallest
    mapping, mirroring the documented contract.
    """
    p_true = np.asarray(p_true, dtype=float)
    p_est = np.asarray(p_est, dtype=float)
    best_map, best_d = None, math.inf
    for perm in itertools.permutations(range(1, p_true.size + 1)):
        relabeled = np.empty_like(p_est)
        for j, target in enumerate(perm):
            relabeled[target - 1] = p_est[j]
        d = float(np.abs(relabeled - p_true).sum())
        if d < best_d - 1e-12:
            best_map, best_d = perm, d
    return best_map, best_d


def tuple_counts(records):
    """Occurrences of each record's row tuple, counted one row at a time."""
    return collections.Counter(tuple(int(y) for y in row) for row in records)
