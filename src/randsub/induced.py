"""Induced (collared) substitutions, word frequencies, and ergodicity probes.

The induced substitution of window length ell acts on the legal ell-words:
a window w maps, per realisation v of the image of w, to the sequence of
the first |image of w_0| windows of length ell read along v.  Because
every image is non-empty, v is always long enough for these windows, and
every window produced is again a legal ell-word.  The right
Perron-Frobenius eigenvector of the induced matrix, normalised to sum 1,
gives the ell-word frequency vector; scanning it over several probability
assignments and window lengths is a finite test for unique ergodicity:
any variation disproves it, while agreement at finite depth proves
nothing and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Alphabet,
    RandomSubstitution,
    Rule,
    Word,
    _realisation_map,
    letter_counts,
    with_probabilities,
)
from .errors import NotPrimitiveError
from .language import LanguageTable, legal_words
from .matrices import DEFAULT_PF_TOL, _perron_right, is_primitive, substitution_matrix

DEFAULT_SCAN_TOL = 1e-6


@dataclass(frozen=True)
class InducedSubstitution:
    """The induced substitution over legal ``ell``-words.

    ``words`` lists the induced alphabet in canonical order and ``sub`` is
    a genuine RandomSubstitution over tokens naming those words, so the
    whole matrix/serialisation machinery applies to it unchanged.
    """

    ell: int
    base: RandomSubstitution
    words: tuple[Word, ...]
    sub: RandomSubstitution


def induced_substitution(
    sub: RandomSubstitution,
    ell: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> InducedSubstitution:
    """Build the induced substitution on legal ell-words."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if ell == 1:
        # Legal letters are exactly those occurring in some image; no
        # language closure (or primitivity) is needed for ell = 1.
        occurring = {c for rule in sub.rules for image in rule.images for c in image}
        words = tuple(sorted(occurring))
    else:
        table = legal_words(sub, ell, table=table, budget=budget)
        words = table.words(ell)
    if sub.alphabet.needs_dots:
        # dotted names would collide with the image syntax, so join with +
        tokens = ["+".join(sub.alphabet.decode(w)) for w in words]
    else:
        tokens = [sub.alphabet.format_word(w) for w in words]
    ind_alphabet = Alphabet(tokens)
    position = {w: i for i, w in enumerate(words)}

    rules = []
    for i, w in enumerate(words):
        first_rule = sub.rules[ord(w[0])]
        tail_map = (
            _realisation_map(sub, w[1:], budget) if len(w) > 1 else {"": 1.0}
        )
        merged: dict[Word, float] = {}
        for first_image, p0 in zip(first_rule.images, first_rule.probabilities):
            span = len(first_image)
            for tail, pt in tail_map.items():
                v = first_image + tail
                # len(v) >= span + ell - 1 always: the tail letters each
                # contribute at least one symbol, so every window exists.
                image_seq = []
                for k in range(span):
                    window = v[k : k + ell]
                    if window not in position:
                        raise AssertionError(
                            "window of a legal image fell outside the language"
                        )
                    image_seq.append(chr(position[window]))
                u = "".join(image_seq)
                merged[u] = merged.get(u, 0.0) + p0 * pt
        rules.append(Rule(i, tuple(merged), tuple(merged.values())))
    return InducedSubstitution(
        ell=ell, base=sub, words=words, sub=RandomSubstitution(ind_alphabet, rules)
    )


def induced_matrix(ind: InducedSubstitution) -> np.ndarray:
    """Expected matrix of the induced substitution (same formula as the
    base substitution matrix, over the induced alphabet)."""
    return substitution_matrix(ind.sub)


def induced_is_primitive(ind: InducedSubstitution) -> bool:
    return is_primitive(ind.sub)


@dataclass(frozen=True)
class FrequencyVector:
    """L1-normalised dominant right eigenvector of the induced matrix,
    keyed by legal ell-word; entry v is the frequency (cylinder measure)
    of v.  ``probabilities`` records the probability vectors it was
    computed from."""

    ell: int
    words: tuple[Word, ...]
    values: tuple[float, ...]
    probabilities: tuple[tuple[float, ...], ...]

    def as_dict(self) -> dict[Word, float]:
        return dict(zip(self.words, self.values))

    def entry(self, word: Word) -> float:
        return self.values[self.words.index(word)]


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
    result can be zero).
    """
    ind = induced_substitution(sub, ell, table=table, budget=budget)
    if not induced_is_primitive(ind):
        raise NotPrimitiveError(f"induced substitution at ell={ell} is not primitive")
    right = _perron_right(induced_matrix(ind), sub.is_degenerate, tol=tol)
    return FrequencyVector(
        ell=ell,
        words=ind.words,
        values=tuple(float(x) for x in right),
        probabilities=tuple(rule.probabilities for rule in sub.rules),
    )


@dataclass(frozen=True)
class ErgodicityWitness:
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


@dataclass(frozen=True)
class ErgodicityVerdict:
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
    threads: int = 1,
) -> ErgodicityVerdict:
    """Compare frequency vectors across a grid of probability assignments.

    ``threads`` is accepted for compatibility and has no effect: the work
    holds the interpreter lock, so a pool measured no faster.  The verdict
    carries the most probability-sensitive entry as witness:
    among all (ell, word) whose value varies by more than ``tol`` across
    the grid, the one with the largest high/low ratio, ties broken in
    canonical (ell, word) order.
    """
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
    witness: ErgodicityWitness | None = None
    witness_ratio = 0.0
    for ell in range(1, ell_max + 1):
        vectors = [word_frequencies(p, ell, table=table, budget=budget) for p in probed]
        words = vectors[0].words
        for w_index, word in enumerate(words):
            values = [vec.values[w_index] for vec in vectors]
            low = min(range(len(values)), key=values.__getitem__)
            high = max(range(len(values)), key=values.__getitem__)
            if values[high] - values[low] <= tol:
                continue
            floor = max(values[low], 1e-300)
            ratio = values[high] / floor
            if witness is None or ratio > witness_ratio:
                witness_ratio = ratio
                witness = ErgodicityWitness(
                    ell=ell,
                    word=word,
                    low_point=low,
                    high_point=high,
                    low_value=values[low],
                    high_value=values[high],
                )
    return ErgodicityVerdict(
        not_uniquely_ergodic=witness is not None,
        ell_max=ell_max,
        grid=tuple({k: tuple(v) for k, v in point.items()} for point in grid),
        tol=tol,
        witness=witness,
    )


@dataclass(frozen=True)
class RatioViolation:
    """A pair of images whose letter-count differences are not aligned
    with the letter-frequency ratios, certifying that the letter
    frequencies depend on the probability vector."""

    letter: int
    image_pair: tuple[int, int]
    letter_pair: tuple[int, int]
    delta_first: int
    delta_second: int
    residual: float


@dataclass(frozen=True)
class RatioConditionReport:
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
    violation means R depends on the probabilities.
    """
    if not is_primitive(sub):
        raise NotPrimitiveError("ratio condition check requires a primitive substitution")
    r = _perron_right(substitution_matrix(sub), sub.is_degenerate)
    n = sub.n_letters
    violations = []
    checked = 0
    for rule in sub.rules:
        counts = [letter_counts(image, n) for image in rule.images]
        for q1 in range(rule.arity):
            for q2 in range(q1 + 1, rule.arity):
                for i1 in range(n):
                    for i2 in range(i1 + 1, n):
                        d1 = counts[q1][i1] - counts[q2][i1]
                        d2 = counts[q1][i2] - counts[q2][i2]
                        checked += 1
                        residual = abs(d1 * r[i2] - d2 * r[i1])
                        if residual > tol:
                            violations.append(
                                RatioViolation(
                                    letter=rule.source,
                                    image_pair=(q1, q2),
                                    letter_pair=(i1, i2),
                                    delta_first=d1,
                                    delta_second=d2,
                                    residual=float(residual),
                                )
                            )
    return RatioConditionReport(tuple(violations), checked, tol)
