"""Substitution matrices, primitivity tests, and Perron-Frobenius data.

The expected substitution matrix has entry (i, j) equal to the expected
number of occurrences of letter i in the image of letter j, so column j
sums to the expected image length of letter j.  Primitivity and
irreducibility are decided on the support, which keeps zero-probability
images: a degenerate substitution can be primitive even though its
expected matrix is not.  The support is read as a directed graph with an
edge j -> i when letter i occurs in an image of j; irreducibility is
strong connectivity of that graph, and primitivity is strong connectivity
with period 1.  One sort of the edges and two breadth-first walks decide
both, so no matrix power is ever formed.

Perron-Frobenius vectors come from one power iteration over a stack of
equal-size matrices, one per probability assignment: each step takes one
stacked product ``np.matmul(ms, x[:, :, None])`` for every point not yet
converged, which is the same BLAS matrix-vector product per matrix as
``m @ x``, so each point's result is bit for bit that of iterating its
matrix alone.  A step's lambda, the sum of its product, is the next step's
normaliser, and the residual is computed only on steps where some point's
change has already fallen below tol / 8.  A single matrix is iterated as the
view ``m[None]`` and is never copied.  ``perron_data`` runs it on one explicit
matrix; the stack cap and the M + I shift for degenerate probabilities live in
``induced._perron_rights``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_PF_TOL, RandomSubstitution
from .errors import NoConvergenceError, NotPrimitiveError

PF_ITERATION_CAP = 10**6


def _unique(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values; ``np.unique`` is slower here and loads ``numpy.ma``."""
    codes = np.sort(codes)
    if len(codes) < 2:
        return codes
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


def _entries(sub: RandomSubstitution) -> tuple[np.ndarray, np.ndarray]:
    """M's entries (index, weights): i * n + j and the image's probability for each
    letter i of an image of j, in rule, image and letter order."""
    entries = [(r.source, w, p) for r in sub.rules for w, p in zip(r.images, r.probabilities)]
    cols, images, weights = zip(*entries)
    lengths = list(map(len, images))
    rows = np.fromiter(map(ord, "".join(images)), dtype=np.intp)
    return rows * sub.n_letters + np.repeat(cols, lengths), np.repeat(weights, lengths)[:, None]


def _assemble(index: np.ndarray, weights: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Each point's n x n matrix, entry (i, j) summing the (entries, P) ``weights`` at
    index i * n + j one by one in entry order (as ``np.add.at`` would); one at a time."""
    for point_weights in weights.T:
        yield np.bincount(index, point_weights, n * n).reshape(n, n)


def substitution_matrix(sub: RandomSubstitution) -> np.ndarray:
    """Expected letter-count matrix M[i, j] = sum_q p_jq * |w_(j,q)|_i."""
    return next(_assemble(*_entries(sub), sub.n_letters))


def support_matrix(sub: RandomSubstitution) -> np.ndarray:
    """0/1 matrix: entry (i, j) = 1 iff letter i occurs in some image of j,
    regardless of that image's probability."""
    index, weights = _entries(sub)
    return (next(_assemble(index, np.ones_like(weights), sub.n_letters)) > 0).astype(np.int64)


def _bfs_levels(edges: np.ndarray, n: int) -> list[int]:
    """Breadth-first distances from vertex 0 along the sorted distinct edges
    i -> j, coded i * n + j, with -1 where unreachable."""
    starts = [0] + np.searchsorted(edges, np.arange(1, n + 1) * n).tolist()
    targets = (edges % n).tolist()
    level, queue = [0] + [-1] * (n - 1), [0]
    for u in queue:
        for v in targets[starts[u] : starts[u + 1]]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _strong_period(index: np.ndarray, n: int) -> tuple[bool, int]:
    """Whether the graph on vertices 0..n-1 with edges i -> j at ``index`` i * n + j, a
    matrix's graph reversed, is strongly connected, and if so its period.

    A breadth-first search from vertex 0 assigns levels, and a second one
    over the reversed edges checks that every vertex reaches vertex 0.
    The period of a strongly connected graph is the gcd of
    level(u) + 1 - level(v) over its edges u -> v (Denardo, Math. Oper.
    Res. 1977).  These terms sum to the length of any closed walk along
    it, so the gcd divides every cycle length; and each term is the
    difference of two closed walks through vertex 0, one through the edge
    and one along the search tree's path to v, so the period divides the
    gcd.  A single vertex without a loop has no cycle and period 0.
    """
    if n == 0:  # vacuously strongly connected, and A^1 is (vacuously) positive
        return True, 1
    edges = _unique(index)
    level = _bfs_levels(edges, n)
    if -1 in level:
        return False, 0
    heads, tails = np.divmod(edges, n)
    del edges
    period = int(np.gcd.reduce(np.take(level, heads) + 1 - np.take(level, tails)))
    tails *= n
    tails += heads  # the reversed edges j -> i, coded j * n + i
    del heads
    if -1 in _bfs_levels(_unique(tails), n):
        return False, 0
    return True, period


def is_irreducible_matrix(support: np.ndarray) -> bool:
    """True iff the 0/1 matrix A is irreducible, i.e. (I + A)^(n-1) > 0."""
    return _strong_period(np.flatnonzero(np.asarray(support) > 0), len(support))[0]


def is_primitive_matrix(support: np.ndarray) -> bool:
    """True iff some power of the 0/1 matrix A is entrywise positive."""
    return _strong_period(np.flatnonzero(np.asarray(support) > 0), len(support)) == (True, 1)


def is_primitive(sub: RandomSubstitution) -> bool:
    return _strong_period(_entries(sub)[0], sub.n_letters) == (True, 1)


def is_irreducible(sub: RandomSubstitution) -> bool:
    return _strong_period(_entries(sub)[0], sub.n_letters)[0]


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


def _check_pf_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:  # tol <= 0 never converges, and NaN or inf proves nothing
        raise ValueError(f"Perron-Frobenius tolerance must be positive and finite, got {tol!r}")


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
    _check_pf_tol(tol)
    p, n = ms.shape[:2]
    results: list = [None] * p
    live = np.arange(p)
    x = np.full((p, n), 1.0 / n)
    y = np.matmul(ms, x[:, :, None])[:, :, 0]
    lam = y.sum(axis=1)
    # Converge a little past tol so downstream identities hold at tol.
    target = tol / 8.0
    for it in range(1, cap + 1):
        if lam.min() <= 0.0:
            point = int(live[(lam <= 0.0).argmax()])
            raise NoConvergenceError("power iteration collapsed to the zero vector", point)
        y /= lam[:, None]
        delta = np.abs(y - x).max(axis=1)
        x = y
        y = np.matmul(ms, x[:, :, None])[:, :, 0]
        lam = y.sum(axis=1)
        if not delta.min() < target:
            continue
        residual = np.abs(y - lam[:, None] * x).max(axis=1)
        done = (delta < target) & (residual <= tol * np.maximum(1.0, lam) / 2.0)
        if done.any():
            for k in np.flatnonzero(done).tolist():
                results[live[k]] = (lam[k], x[k], it, residual[k])
            if done.all():
                return results
            keep = ~done
            live, ms, x, y, lam = live[keep], ms[keep], x[keep], y[keep], lam[keep]
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

