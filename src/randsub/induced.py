"""Induced (collared) substitutions, word frequencies, and ergodicity probes.

The induced substitution of window length ell acts on the legal ell-words:
a window w maps, per realisation v of the image of w, to the sequence of
the first |image of w_0| windows of length ell read along v.  Because
every image is non-empty, v is always long enough for these windows, and
every window produced is again a legal ell-word.  Only the first
|image of w_0| + ell - 1 letters of v are read, so tails are cut to
ell - 1 letters.  The right Perron-Frobenius eigenvector of the induced
matrix, normalised to sum 1, gives the ell-word frequency vector, the
letter frequencies at ell = 1; scanning it over several probability
assignments and window lengths is a finite test for unique ergodicity:
any variation disproves it, while agreement at finite depth proves
nothing and is reported as such.  ``_induced_entries`` builds the induced
matrices on the language codec's integer codes, as entries in one fixed order;
``_tail_maps`` expands every distinct tail of a window length in one array pass
on packed codes b^len + code, with no dict or string per tail or key.  Both lay
the images out by the codec's ``image_table`` and expand rows by its ``fan_out``.
``_perron_rights`` is the one route from probabilities to Perron vectors: it
holds the stack cap and the M + I shift.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Alphabet,
    RandomSubstitution,
    Rule,
    Word,
    _image_budget_error,
    letter_counts,
    with_probabilities,
)
from .errors import EmptySubshiftError, NoConvergenceError, NotPrimitiveError
from .language import LanguageTable, code_base, code_dtype, encode_rows, fan_out, image_table
from .language import legal_words
from . import matrices
from .matrices import DEFAULT_PF_TOL, _assemble, _check_pf_tol, _power_iterates, _strong_period
from .matrices import is_primitive, substitution_matrix

DEFAULT_SCAN_TOL = 1e-6
# Matrix entries iterated together.  Stacking saves interpreter steps, not memory:
# one stacked power iteration holds at most this many float64s (512 KiB), or one
# matrix when a matrix is larger.
_STACK_ENTRIES = 2**16


class InducedSubstitution(NamedTuple):
    """The induced substitution over legal ``ell``-words.

    ``words`` lists the induced alphabet in canonical order and ``sub`` is
    a genuine RandomSubstitution over tokens naming those words, so the
    whole matrix/serialisation machinery applies to it unchanged.
    """

    ell: int
    words: tuple[Word, ...]
    sub: RandomSubstitution


def _windows(
    sub: RandomSubstitution, ell: int, table: LanguageTable | None, budget: int
) -> tuple[Word, ...]:
    """The legal ell-words in canonical order: the induced alphabet."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if ell == 1:
        # Legal letters are exactly those occurring in some image; no
        # language closure (or primitivity) is needed for ell = 1.
        return tuple(sorted({c for rule in sub.rules for image in rule.images for c in image}))
    return legal_words(sub, ell, table=table, budget=budget).words(ell)


def _first_occurrences(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the key columns in first-occurrence order: each one's first
    row, ascending, and each row's distinct-row number."""
    order = np.lexsort(keys[::-1])  # stable, so each run of equal rows starts at its first
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    if new.all():  # nothing merges
        order = np.arange(len(order))
        return order, order
    firsts = order[new]
    by_first = np.argsort(firsts)
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.argsort(by_first)[np.cumsum(new) - 1]  # the inverse permutation
    return firsts[by_first], number


def _image_table(sub: RandomSubstitution, weights: list, base: int, dtype: type):
    """The rules' ``image_table``, and per image its weights (images, P)."""
    p = np.concatenate([np.reshape(w, (len(w), -1)) for w in weights])
    return (*image_table([rule.images for rule in sub.rules], base, dtype), p)


def _tail_maps(
    sub: RandomSubstitution, tails: np.ndarray, keep: int, weights: list, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cut realisation maps of the rows of ``tails`` (T, m letters) in one array
    pass: per key its tail, ascending, its packed code b^len + code and its weights
    (keys, P), ``weights`` holding per letter floats or (images, P).  Per position,
    every live partial is repeated by its letter's arity, joined with each image and
    cut to ``keep`` letters; equal (tail, key) pairs merge in first-occurrence order
    and sum their acc * p in that order, so keys, key order and weight bits are those
    of expanding each tail alone in a dict.  A tail stops once its letters' shortest
    images reach ``keep`` letters: every partial is then full, and later letters only
    multiply by probability sums that are 1 in exact arithmetic.  A budget error names
    the first tail with more than ``budget`` keys, at its first such position."""
    base, (count, m) = code_base(sub.n_letters), tails.shape
    dtype = code_dtype(base, keep + sub.max_image_len + 1)
    pows = np.array([base**k for k in range(keep + sub.max_image_len + 1)], dtype=dtype)
    arity, first, image_code, image_len, p = _image_table(sub, weights, base, dtype)
    shortest = np.minimum.reduceat(image_len, first)
    stop = np.minimum((np.cumsum(shortest[tails], axis=1) < keep).sum(axis=1) + 1, m)
    owner, packed = np.arange(count), np.ones(count, dtype=dtype)  # the empty word
    length, acc = np.zeros(count, dtype=np.intp), np.ones((count, p.shape[1]))
    finished, failed = [], (count, 0, 0)  # (tail, position, keys) of the first failure
    for position in range(1, int(stop.max(initial=0)) + 1):
        row, image = fan_out(tails[owner, position - 1], arity, first)
        grown = image_len[image]
        owner, acc = owner[row], acc[row] * p[image]
        packed = packed[row] * pows[grown] + image_code[image]
        length = length[row] + grown
        cut = length > keep
        packed[cut] //= pows[length[cut] - keep]
        firsts, key = _first_occurrences(owner, packed)
        acc = np.array([np.bincount(key, column, len(firsts)) for column in acc.T]).T
        owner, packed, length = owner[firsts], packed[firsts], np.minimum(length, keep)[firsts]
        sizes = np.bincount(owner, minlength=count)
        if sizes.max() > budget:  # later tails no longer count; earlier ones may still fail
            tail = int(np.argmax(sizes > budget))
            failed = (tail, position, int(sizes[tail]))
        done = (stop[owner] == position) | (owner >= failed[0])
        finished.append((owner[done], packed[done], acc[done]))
        owner, packed, length, acc = owner[~done], packed[~done], length[~done], acc[~done]
    tail, position, size = failed
    if tail < count:  # the message reads only the tail's length
        raise _image_budget_error(tails[tail], position, size, budget)
    finished.append((owner, packed, acc))
    owner, packed, acc = (np.concatenate(column) for column in zip(*finished))
    order = np.argsort(owner, kind="stable")
    return owner[order], packed[order], acc[order]


def _induced_entries(
    sub: RandomSubstitution, words: tuple[Word, ...], weights: list, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The induced matrix's entries (index i * n + j, weights) and each image's first.
    Window j = w gets, per image x of w_0 (weight p0) and key s of the cut tail map of
    w[1:] (weight pt), the windows of x + s starting in x, weighted 0.0 + p0 * pt: one
    entry per letter, by window, image, tail, then letter.  No two (x, s) give the same
    image, so nothing merges: a rule's images are distinct (``Rule.validate``) and cut
    tails are distinct keys of ell - 1 letters, so x + s gives (x, s), and the windows
    cover x + s.  The distinct tails are expanded together, in order of first window.
    ``weights`` holds per letter floats, or (images, P) for P points."""
    base, ell, n = code_base(sub.n_letters), len(words[0]), len(words)
    dtype = code_dtype(base, ell - 1 + sub.max_image_len)
    pows = np.array([base**k for k in range(ell + sub.max_image_len)], dtype=dtype)
    letters = np.frombuffer("".join(words).encode("utf-32-le"), dtype="<u4").reshape(n, ell)
    window_codes = encode_rows(letters, base, dtype)
    firsts, tail_of = _first_occurrences(window_codes % pows[ell - 1])
    owner, keys, pt = _tail_maps(sub, letters[firsts, 1:], ell - 1, weights, budget)
    tail_codes = (keys - base ** (ell - 1)).astype(dtype)  # every key has ell - 1 letters
    tail_size = np.bincount(owner, minlength=len(firsts))
    arity, first, image_code, length, p0 = _image_table(sub, weights, base, dtype)
    # one row per (window, image), then per (window, image, tail), and x + s as
    # code(x) * b^(ell - 1) + code(s)
    window, image = fan_out(letters[:, 0], arity, first)
    row, tail = fan_out(tail_of[window], tail_size, np.cumsum(tail_size) - tail_size)
    window, image = window[row], image[row]
    length = length[image]
    weight = np.repeat(0.0 + p0[image] * pt[tail], length, axis=0)
    joined = image_code[image] * pows[ell - 1]
    joined += tail_codes[tail]
    del row, image, tail  # the loop below is the peak; hold no more there than it reads
    starts, index = np.cumsum(length) - length, np.repeat(window, length)
    del window
    for k in range(sub.max_image_len):  # cut the window at offset k from x + s
        has = length > k
        codes = joined[has] // pows[length[has] - 1 - k] % pows[ell]
        found = np.searchsorted(window_codes, codes)
        if not np.array_equal(window_codes.take(found, mode="clip"), codes):
            raise AssertionError("window of a legal image fell outside the language")
        found *= n
        index[starts[has] + k] += found
    return index, weight, starts


def induced_substitution(
    sub: RandomSubstitution,
    ell: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> InducedSubstitution:
    """Build the induced substitution on legal ell-words."""
    words = _windows(sub, ell, table, budget)
    # dotted names would collide with the image syntax, so join with +
    join = "+".join if sub.alphabet.needs_dots else "".join
    ind_alphabet = Alphabet([join(sub.alphabet.decode(w)) for w in words])
    weights = [r.probabilities for r in sub.rules]
    index, weights, starts = _induced_entries(sub, words, weights, budget)
    letters = "".join(map(chr, (index // len(words)).tolist()))
    bounds = starts.tolist() + [len(letters)]
    merged: list[dict] = [{} for _ in words]
    owners, probabilities = (index[starts] % len(words)).tolist(), weights[starts, 0].tolist()
    for i, end, j, p in zip(bounds, bounds[1:], owners, probabilities):
        merged[j][letters[i:end]] = p
    rules = [Rule(j, tuple(images), tuple(images.values())) for j, images in enumerate(merged)]
    return InducedSubstitution(ell=ell, words=words, sub=RandomSubstitution(ind_alphabet, rules))


def induced_matrix(ind: InducedSubstitution) -> np.ndarray:
    """Expected matrix of the induced substitution, over the induced alphabet."""
    return substitution_matrix(ind.sub)


def induced_is_primitive(ind: InducedSubstitution) -> bool:
    return is_primitive(ind.sub)


class FrequencyVector(NamedTuple):
    """L1-normalised dominant right eigenvector of the induced matrix,
    keyed by legal ell-word; entry v is the frequency (cylinder measure)
    of v."""

    ell: int
    words: tuple[Word, ...]
    values: tuple[float, ...]

    def as_dict(self) -> dict[Word, float]:
        return dict(zip(self.words, self.values))

    def entry(self, word: Word) -> float:
        return self.values[self.words.index(word)]


def _perron_rights(
    sub: RandomSubstitution, words, weights, budget, degenerate=False, tol=DEFAULT_PF_TOL
) -> Iterator[np.ndarray]:
    """Each point's right Perron vector on ``words``; primitivity is decided once, by support.
    The points' matrices are iterated in stacks of at most ``_STACK_ENTRIES`` entries
    (one matrix, never copied, when it is larger); a ``NoConvergenceError`` names in
    ``point`` the index of the first point that failed.  Images of probability 0 can
    make a matrix periodic, where power iteration oscillates forever; M + I has the
    same Perron vector and is aperiodic, so ``degenerate`` points iterate it."""
    n = len(words)
    index, weights = _induced_entries(sub, words, weights, budget)[:2]
    if _strong_period(index, n) != (True, 1):
        raise NotPrimitiveError(f"induced substitution at ell={len(words[0])} is not primitive")
    if sub.max_image_len == 1:
        raise EmptySubshiftError()
    assembled = _assemble(index, weights, n)
    start = 0
    while stack := list(islice(assembled, max(1, _STACK_ENTRIES // n**2))):
        ms = stack[0][None] if len(stack) == 1 else np.stack(stack)
        del stack  # stacked copies of its matrices are all that is needed
        if degenerate:
            ms = ms + np.eye(n)
        try:
            rights = [x for _, x, _, _ in _power_iterates(ms, tol, matrices.PF_ITERATION_CAP)]
        except NoConvergenceError as exc:
            raise NoConvergenceError(str(exc), start + exc.point) from None
        yield from rights
        start += len(rights)


def word_frequencies(
    sub: RandomSubstitution,
    ell: int,
    table: LanguageTable | None = None,
    tol: float = DEFAULT_PF_TOL,
    budget: int = DEFAULT_BUDGET,
) -> FrequencyVector:
    """Frequencies of the legal ell-words under the stationary measure.

    Requires the induced substitution to be primitive as a set-valued
    substitution; zero-probability images are allowed (they may make the
    weighted matrix itself non-primitive, in which case entries of the
    result can be zero).  An empty subshift carries no invariant measure,
    so it is refused at every ell.
    """
    _check_pf_tol(tol)  # before the closure, which can take seconds
    words = _windows(sub, ell, table, budget)
    weights = [r.probabilities for r in sub.rules]
    (right,) = _perron_rights(sub, words, weights, budget, sub.is_degenerate, tol)
    return FrequencyVector(ell=ell, words=words, values=tuple(float(x) for x in right))


class ErgodicityWitness(NamedTuple):
    """One frequency entry that moved across the probability grid."""

    ell: int
    word: Word
    low_point: int
    high_point: int
    low_value: float
    high_value: float

    @property
    def spread(self) -> float:
        return self.high_value - self.low_value


class ErgodicityVerdict(NamedTuple):
    """Outcome of the finite unique-ergodicity scan.

    ``not_uniquely_ergodic`` True is a rigorous conclusion (frequencies
    depend on the probabilities); False only means no dependence was seen
    up to ``ell_max`` on this grid, which proves nothing.
    """

    not_uniquely_ergodic: bool
    ell_max: int
    grid: tuple[dict[str, tuple[float, ...]], ...]
    tol: float
    witness: ErgodicityWitness | None

    @property
    def status(self) -> str:
        return "not-uniquely-ergodic" if self.not_uniquely_ergodic else "consistent-up-to"


def unique_ergodicity_scan(
    sub: RandomSubstitution,
    ell_max: int,
    grid: list[dict[str, tuple[float, ...]]],
    tol: float = DEFAULT_SCAN_TOL,
    budget: int = DEFAULT_BUDGET,
) -> ErgodicityVerdict:
    """Compare frequency vectors across a grid of probability assignments.

    The verdict carries the most probability-sensitive entry as witness:
    among all (ell, word) whose value varies by more than ``tol`` across
    the grid, the one with the largest high/low ratio, ties broken in
    canonical (ell, word) order.
    """
    if not tol >= 0.0:  # NaN included: a spread of 0 must never count as variation
        raise ValueError(f"scan tolerance must be at least 0, got {tol!r}")
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    if len(grid) < 2:
        raise ValueError("the scan needs at least two grid points")
    probed = [with_probabilities(sub, point) for point in grid]
    if any(p.is_degenerate for p in probed):
        raise ValueError(
            "degenerate grid point (a probability is 0); the scan only covers "
            "non-degenerate probability assignments"
        )
    if not is_primitive(sub):
        raise NotPrimitiveError("unique-ergodicity scan requires a primitive substitution")

    table = legal_words(sub, ell_max, budget=budget)
    # per letter, one row per image holding its probability at every grid point
    by_letter = zip(*[[rule.probabilities for rule in p.rules] for p in probed])
    weights = [np.array(probabilities).T for probabilities in by_letter]
    witness: ErgodicityWitness | None = None
    witness_ratio = -np.inf
    for ell in range(1, ell_max + 1):
        words = _windows(sub, ell, table, budget)
        try:
            values = np.array(list(_perron_rights(sub, words, weights, budget)))
        except NoConvergenceError as exc:
            where = f"{exc} (ell {ell}, grid point {exc.point})"
            raise NoConvergenceError(where, exc.point) from None
        low_values, high_values = values.min(axis=0), values.max(axis=0)
        ratios = np.where(
            high_values - low_values > tol,
            high_values / np.maximum(low_values, 1e-300),
            -np.inf,
        )
        best = int(ratios.argmax())  # first word of the largest ratio
        if ratios[best] > witness_ratio:
            witness_ratio = ratios[best]
            column = values[:, best].tolist()  # the word's value at each point
            low, high = column.index(min(column)), column.index(max(column))
            witness = ErgodicityWitness(ell, words[best], low, high, column[low], column[high])
    return ErgodicityVerdict(
        not_uniquely_ergodic=witness is not None,
        ell_max=ell_max,
        grid=tuple({k: tuple(v) for k, v in point.items()} for point in grid),
        tol=tol,
        witness=witness,
    )


class RatioViolation(NamedTuple):
    """A pair of images whose letter-count differences are not aligned
    with the letter-frequency ratios, certifying that the letter
    frequencies depend on the probability vector."""

    letter: int
    image_pair: tuple[int, int]
    letter_pair: tuple[int, int]
    delta_first: int
    delta_second: int
    residual: float


class RatioConditionReport(NamedTuple):
    violations: tuple[RatioViolation, ...]
    checked: int
    tol: float

    @property
    def holds(self) -> bool:
        return not self.violations


def ratio_condition_check(
    sub: RandomSubstitution, tol: float = 1e-9
) -> RatioConditionReport:
    """Necessary condition for unique ergodicity at window length 1.

    For every letter j, every pair of its images and every pair of target
    letters (i1, i2), the count differences must satisfy
    d_i1 * R_i2 = d_i2 * R_i1 where R is the letter-frequency vector; a
    violation means R depends on the probabilities.  R is read as the ell = 1
    word frequencies, so an empty subshift is refused.
    """
    if not is_primitive(sub):
        raise NotPrimitiveError("ratio condition check requires a primitive substitution")
    r = word_frequencies(sub, 1).values
    n = sub.n_letters
    violations = []
    checked = 0
    for rule in sub.rules:
        counts = [letter_counts(image, n) for image in rule.images]
        pairs = product(combinations(range(rule.arity), 2), combinations(range(n), 2))
        for (q1, q2), (i1, i2) in pairs:
            d1 = counts[q1][i1] - counts[q2][i1]
            d2 = counts[q1][i2] - counts[q2][i2]
            checked += 1
            residual = abs(d1 * r[i2] - d2 * r[i1])
            if residual > tol:
                violations.append(
                    RatioViolation(rule.source, (q1, q2), (i1, i2), d1, d2, float(residual))
                )
    return RatioConditionReport(tuple(violations), checked, tol)
