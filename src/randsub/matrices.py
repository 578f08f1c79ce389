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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .core import RandomSubstitution
from .errors import NoConvergenceError, NotPrimitiveError

DEFAULT_PF_TOL = 1e-12
PF_ITERATION_CAP = 10**6


def substitution_matrix(sub: RandomSubstitution) -> np.ndarray:
    """Expected letter-count matrix M[i, j] = sum_q p_jq * |w_(j,q)|_i."""
    n = sub.n_letters
    m = np.zeros((n, n), dtype=float)
    for rule in sub.rules:
        j = rule.source
        for image, p in zip(rule.images, rule.probabilities):
            for c in image:
                m[ord(c), j] += p
    return m


def support_matrix(sub: RandomSubstitution) -> np.ndarray:
    """0/1 matrix: entry (i, j) = 1 iff letter i occurs in some image of j,
    regardless of that image's probability."""
    n = sub.n_letters
    m = np.zeros((n, n), dtype=np.int64)
    for rule in sub.rules:
        for image in rule.images:
            for c in image:
                m[ord(c), rule.source] = 1
    return m


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


def _matrix_successors(support: np.ndarray) -> list[list[int]]:
    """Successors j -> i for the positive entries (i, j) of each column."""
    positive = np.asarray(support) > 0
    successors: list[list[int]] = [[] for _ in range(positive.shape[1])]
    for j, i in zip(*(axis.tolist() for axis in np.nonzero(positive.T))):
        successors[j].append(i)
    return successors


def _substitution_successors(sub: RandomSubstitution) -> list[list[int]]:
    """Successors j -> i for the letters i of the images of each letter j,
    regardless of their probabilities."""
    return [list(map(ord, set("".join(rule.images)))) for rule in sub.rules]


def is_irreducible_matrix(support: np.ndarray) -> bool:
    """True iff the 0/1 matrix A is irreducible, i.e. (I + A)^(n-1) > 0."""
    return _strong_period(_matrix_successors(support))[0]


def is_primitive_matrix(support: np.ndarray) -> bool:
    """True iff some power of the 0/1 matrix A is entrywise positive."""
    return _strong_period(_matrix_successors(support)) == (True, 1)


def is_primitive(sub: RandomSubstitution) -> bool:
    return _strong_period(_substitution_successors(sub)) == (True, 1)


def is_irreducible(sub: RandomSubstitution) -> bool:
    return _strong_period(_substitution_successors(sub))[0]


@dataclass
class PerronData:
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


def _power_iterate(m: np.ndarray, tol: float, cap: int) -> tuple[float, np.ndarray, int]:
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    # Converge a little past tol so downstream identities hold at tol.
    target = tol / 8.0
    for it in range(1, cap + 1):
        y = m @ x
        total = y.sum()
        if total <= 0.0:
            raise NoConvergenceError("power iteration collapsed to the zero vector")
        y /= total
        delta = np.abs(y - x).max()
        x = y
        mx = m @ x
        lam = mx.sum()
        residual = np.abs(mx - lam * x).max()
        if delta < target and residual <= tol * max(1.0, lam) / 2.0:
            return lam, x, it
    raise NoConvergenceError(f"power iteration did not converge in {cap} steps")


def perron_data(
    m: np.ndarray,
    tol: float = DEFAULT_PF_TOL,
    require_primitive: bool = True,
) -> PerronData:
    """Dominant eigenvalue and eigenvectors by power iteration.

    ``require_primitive=False`` skips the support check; the caller must
    then guarantee a unique dominant eigenvalue some other way (used for
    degenerate probability choices whose set-valued substitution is still
    primitive).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if (m < 0).any():
        raise ValueError("matrix must be non-negative")
    if require_primitive and not is_primitive_matrix(m):
        raise NotPrimitiveError("matrix is not primitive")
    lam, right, it_r = _power_iterate(m, tol, PF_ITERATION_CAP)
    _, left_raw, it_l = _power_iterate(m.T, tol, PF_ITERATION_CAP)
    left = left_raw / float(left_raw @ right)
    residual = float(np.abs(m @ right - lam * right).max())
    return PerronData(float(lam), right, left, residual, it_r + it_l)


def _perron_right(m: np.ndarray, degenerate: bool, tol: float = DEFAULT_PF_TOL) -> np.ndarray:
    """Right Perron vector of the expected matrix of a substitution whose
    support is primitive.  With images of probability zero (``degenerate``)
    that matrix can be irreducible but periodic, where power iteration
    oscillates forever; M + I has the same Perron vector and is aperiodic,
    so it is iterated instead.  Only the right vector is iterated."""
    m = np.asarray(m, dtype=float)
    if degenerate:
        m = m + np.eye(m.shape[0])
    return _power_iterate(m, tol, PF_ITERATION_CAP)[1]
