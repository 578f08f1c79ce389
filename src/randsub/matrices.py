"""Substitution matrices, primitivity tests, and Perron-Frobenius data.

The expected substitution matrix has entry (i, j) equal to the expected
number of occurrences of letter i in the image of letter j, so column j
sums to the expected image length of letter j.  Primitivity and
irreducibility are decided on the support, which keeps zero-probability
images: a degenerate substitution can be primitive even though its
expected matrix is not.  The support is read as a directed graph with an
edge j -> i when letter i occurs in an image of j; irreducibility is
strong connectivity of that graph, and primitivity is strong connectivity
with period 1.  Two breadth-first walks decide both in time linear in the
number of edges, so no matrix power is ever formed.

Perron-Frobenius vectors come from one power iteration over a stack of
equal-size matrices, one per probability assignment: each step takes one
stacked product ``np.matmul(ms, x[:, :, None])`` for every point not yet
converged, which is the same BLAS matrix-vector product per matrix as
``m @ x``, so each point's result is bit for bit that of iterating its
matrix alone.  A single matrix is iterated as the view ``m[None]`` and is
never copied.  ``perron_data`` runs it on one explicit matrix; the stack cap
and the M + I shift for degenerate probabilities live in ``induced._perron_rights``.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import RandomSubstitution
from .errors import NoConvergenceError, NotPrimitiveError

DEFAULT_PF_TOL = 1e-12
PF_ITERATION_CAP = 10**6


def _image_letters(sub: RandomSubstitution) -> list[str]:
    """Each letter's image letters, joined in declaration order."""
    return ["".join(rule.images) for rule in sub.rules]


def _assemble(columns: Sequence[str], weights: Sequence) -> Iterator[np.ndarray]:
    """Each point's matrix, entry (i, j) summing the weights of letter i's occurrences in
    ``columns[j]``.  ``weights`` has one entry per occurrence, a float or P floats for P
    points, summed with ``np.add.at`` in column order; one matrix is held at a time."""
    n = len(columns)
    rows = np.fromiter(map(ord, "".join(columns)), dtype=np.intp)
    cols = np.repeat(np.arange(n), list(map(len, columns)))
    for point_weights in np.array(weights, dtype=float).reshape(len(rows), -1).T:
        m = np.zeros((n, n))
        np.add.at(m, (rows, cols), point_weights)
        yield m


def substitution_matrix(sub: RandomSubstitution) -> np.ndarray:
    """Expected letter-count matrix M[i, j] = sum_q p_jq * |w_(j,q)|_i."""
    weights = [p for r in sub.rules for w, p in zip(r.images, r.probabilities) for _ in w]
    return next(_assemble(_image_letters(sub), weights))


def support_matrix(sub: RandomSubstitution) -> np.ndarray:
    """0/1 matrix: entry (i, j) = 1 iff letter i occurs in some image of j,
    regardless of that image's probability."""
    columns = _image_letters(sub)
    return (next(_assemble(columns, [1.0] * sum(map(len, columns)))) > 0).astype(np.int64)


def _bfs_levels(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Breadth-first distances from vertex 0, with -1 where unreachable."""
    level = [-1] * len(adjacency)
    level[0] = 0
    queue = [0]
    for u in queue:
        for v in adjacency[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _strong_period(successors: Sequence[Sequence[int]]) -> tuple[bool, int]:
    """Whether the directed graph on vertices 0..n-1 with the given
    successor lists is strongly connected, and if so its period.

    A breadth-first search from vertex 0 assigns levels, and a second one
    over the predecessor lists checks that every vertex reaches vertex 0.
    The period of a strongly connected graph is the gcd of
    level(u) + 1 - level(v) over its edges u -> v (Denardo, Math. Oper.
    Res. 1977).  These terms sum to the length of any closed walk along
    it, so the gcd divides every cycle length; and each term is the
    difference of two closed walks through vertex 0, one through the edge
    and one along the search tree's path to v, so the period divides the
    gcd.  A single vertex without a loop has no cycle and period 0.
    """
    n = len(successors)
    if n == 0:  # vacuously strongly connected, and A^1 is (vacuously) positive
        return True, 1
    level = _bfs_levels(successors)
    if -1 in level:
        return False, 0
    predecessors: list[list[int]] = [[] for _ in range(n)]
    period = 0
    for u, vs in enumerate(successors):
        for v in vs:
            predecessors[v].append(u)
            period = gcd(period, level[u] + 1 - level[v])
    if -1 in _bfs_levels(predecessors):
        return False, 0
    return True, period


def _successors(columns: Sequence[str]) -> list[list[int]]:
    """Successors j -> i for the letters i of ``columns[j]``, whatever their weights."""
    return [list(map(ord, set(column))) for column in columns]


def _support_columns(support: np.ndarray) -> list[str]:
    """Each column's letters: chr(i) for its positive entries (i, j)."""
    return ["".join(map(chr, np.flatnonzero(column))) for column in np.asarray(support).T > 0]


def is_irreducible_matrix(support: np.ndarray) -> bool:
    """True iff the 0/1 matrix A is irreducible, i.e. (I + A)^(n-1) > 0."""
    return _strong_period(_successors(_support_columns(support)))[0]


def is_primitive_matrix(support: np.ndarray) -> bool:
    """True iff some power of the 0/1 matrix A is entrywise positive."""
    return _strong_period(_successors(_support_columns(support))) == (True, 1)


def is_primitive(sub: RandomSubstitution) -> bool:
    return _strong_period(_successors(_image_letters(sub))) == (True, 1)


def is_irreducible(sub: RandomSubstitution) -> bool:
    return _strong_period(_successors(_image_letters(sub)))[0]


class PerronData(NamedTuple):
    """Dominant eigendata of a primitive non-negative matrix.

    ``right`` is L1-normalised (entries sum to 1) and ``left`` is scaled so
    that <left, right> = 1.  ``residual`` is the infinity norm of
    M @ right - lam * right.
    """

    lam: float
    right: np.ndarray
    left: np.ndarray
    residual: float
    iterations: int


def _power_iterates(
    ms: np.ndarray, tol: float, cap: int
) -> list[tuple[float, np.ndarray, int, float]]:
    """Per matrix of the stack ``ms`` (P, n, n), (lam, x summing to 1, steps,
    max|M x - lam x|) by power iteration from the uniform vector; the product that
    tests a step's convergence is the next step's product.  Each step takes one
    stacked product for every live point, and a point leaves the stack at the step
    where it converges; the stack is compacted only then, so a one-matrix stack is
    never copied.  A ``NoConvergenceError`` names in ``point`` the stack index of
    the first point that collapsed or did not converge."""
    if not 0.0 < tol < np.inf:  # tol <= 0 never converges, and NaN or inf proves nothing
        raise ValueError(f"Perron-Frobenius tolerance must be positive and finite, got {tol!r}")
    p, n = ms.shape[:2]
    results: list = [None] * p
    live = np.arange(p)
    x = np.full((p, n), 1.0 / n)
    y = np.matmul(ms, x[:, :, None])[:, :, 0]
    # Converge a little past tol so downstream identities hold at tol.
    target = tol / 8.0
    for it in range(1, cap + 1):
        total = y.sum(axis=1)
        if (total <= 0.0).any():
            point = int(live[(total <= 0.0).argmax()])
            raise NoConvergenceError("power iteration collapsed to the zero vector", point)
        y /= total[:, None]
        delta = np.abs(y - x).max(axis=1)
        x = y
        y = np.matmul(ms, x[:, :, None])[:, :, 0]
        lam = y.sum(axis=1)
        residual = np.abs(y - lam[:, None] * x).max(axis=1)
        done = (delta < target) & (residual <= tol * np.maximum(1.0, lam) / 2.0)
        if done.any():
            for k in np.flatnonzero(done).tolist():
                results[live[k]] = (lam[k], x[k], it, residual[k])
            if done.all():
                return results
            keep = ~done
            live, ms, x, y = live[keep], ms[keep], x[keep], y[keep]
    raise NoConvergenceError(f"power iteration did not converge in {cap} steps", int(live[0]))


def perron_data(m: np.ndarray, tol: float = DEFAULT_PF_TOL) -> PerronData:
    """Dominant eigenvalue and eigenvectors of a primitive matrix by power
    iteration."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:  # the empty graph counts as primitive, and 1/n divides by zero
        raise ValueError("matrix must be non-empty")
    if not np.isfinite(m).all():  # NaN passes the sign test and inf never converges
        raise ValueError("matrix entries must be finite")
    if (m < 0).any():
        raise ValueError("matrix must be non-negative")
    if not is_primitive_matrix(m):
        raise NotPrimitiveError("matrix is not primitive")
    lam, right, it_r, residual = _power_iterates(m[None], tol, PF_ITERATION_CAP)[0]
    _, left_raw, it_l, _ = _power_iterates(m.T[None], tol, PF_ITERATION_CAP)[0]
    left = left_raw / float(left_raw @ right)
    return PerronData(float(lam), right, left, float(residual), it_r + it_l)

