"""Substitution matrices, primitivity tests, and Perron-Frobenius data.

The expected substitution matrix has entry (i, j) equal to the expected
number of occurrences of letter i in the image of letter j, so column j
sums to the expected image length of letter j.  Primitivity and
irreducibility are decided on the 0/1 support matrix, which keeps
zero-probability images: a degenerate substitution can be primitive even
though its expected matrix is not.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_irreducible_matrix(support: np.ndarray) -> bool:
    """True iff (I + A)^(n-1) is entrywise positive for the 0/1 matrix A."""
    n = support.shape[0]
    reach = ((support > 0) | np.eye(n, dtype=bool)).astype(np.int64)
    # Boolean repeated squaring reaches the (n-1)-th power quickly.
    steps = max(1, int(np.ceil(np.log2(max(n - 1, 1)))) + 1)
    for _ in range(steps):
        reach = ((reach @ reach) > 0).astype(np.int64)
        if reach.all():
            return True
    return bool(reach.all())


def is_primitive_matrix(support: np.ndarray) -> bool:
    """True iff some power k <= n^2 - 2n + 2 of the support is positive."""
    n = support.shape[0]
    if n == 1:
        return bool(support[0, 0] > 0)
    power = (support > 0).astype(np.int64)
    if (power.sum(axis=0) == 0).any() or (power.sum(axis=1) == 0).any():
        return False
    # With no zero rows, positivity of A^k is monotone in k, so it is
    # enough to test the squares A, A^2, A^4, ... past the Wielandt bound.
    wielandt = n * n - 2 * n + 2
    k = 1
    while True:
        if power.all():
            return True
        if k >= wielandt:
            return False
        power = ((power @ power) > 0).astype(np.int64)
        k *= 2


def is_primitive(sub: RandomSubstitution) -> bool:
    return is_primitive_matrix(support_matrix(sub))


def is_irreducible(sub: RandomSubstitution) -> bool:
    return is_irreducible_matrix(support_matrix(sub))


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
    max_iterations: int = PF_ITERATION_CAP,
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
    if require_primitive and not is_primitive_matrix((m > 0).astype(np.int64)):
        raise NotPrimitiveError("matrix is not primitive")
    lam, right, it_r = _power_iterate(m, tol, max_iterations)
    _, left_raw, it_l = _power_iterate(m.T, tol, max_iterations)
    left = left_raw / float(left_raw @ right)
    residual = float(np.abs(m @ right - lam * right).max())
    return PerronData(float(lam), right, left, residual, it_r + it_l)


def _perron_right(m: np.ndarray, degenerate: bool, tol: float = DEFAULT_PF_TOL) -> np.ndarray:
    """Right Perron vector of the expected matrix of a substitution whose
    support is primitive.  With images of probability zero (``degenerate``)
    that matrix can be irreducible but periodic, where power iteration
    oscillates forever; M + I has the same Perron vector and is aperiodic,
    so it is iterated instead."""
    if degenerate:
        m = m + np.eye(m.shape[0])
    return perron_data(m, tol=tol, require_primitive=False).right
