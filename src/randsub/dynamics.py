"""Splitting pairs, entropy brackets, periodic censuses, zeta series, and
mixing probes.

Topological entropy is bracketed from two sides: every value
log C(ell) / ell of the complexity profile is a rigorous upper bound
(the limit is the infimum of the subadditive sequence), and a splitting
pair for some power k gives the rigorous lower bound
freq(a) * log(2) / (2 * N_k), where N_k bounds the realisation lengths of
the k-th power.  Periodic-point counts are certified only up to a
legality horizon; they upper-bound the true counts and feed the
truncated zeta series exp(sum_n count(n) z^n / n).  For primitive
compatible substitutions a letter-frequency certificate sharpens these
bounds beyond what any horizon reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import (
    DEFAULT_BUDGET,
    RandomSubstitution,
    Word,
    _realisation_bounds,
    letter_counts,
    power_realisation_words,
)
from .errors import LengthOrderError, NotPrimitiveError
from .language import LanguageTable, complexity, legal_words
from .matrices import _perron_right, is_primitive, substitution_matrix


def is_strong_affix(u: Word, v: Word) -> bool:
    """True iff u is both a prefix and a suffix of v."""
    if len(u) > len(v):
        raise LengthOrderError("strong-affix test needs |u| <= |v|")
    return v.startswith(u) and v.endswith(u)


@dataclass(frozen=True)
class SplittingPair:
    letter: int
    power: int
    u: Word
    v: Word


@dataclass(frozen=True)
class SplittingReport:
    """First splitting pair (or None) per power k <= k_max and letter."""

    k_max: int
    pairs: dict[tuple[int, int], SplittingPair | None]

    def found(self) -> tuple[SplittingPair, ...]:
        return tuple(p for p in self.pairs.values() if p is not None)


def _as_splitting_pair(letter: int, k: int, u: Word, v: Word) -> SplittingPair | None:
    if len(u) > len(v):
        u, v = v, u
    return None if is_strong_affix(u, v) else SplittingPair(letter, k, u, v)


def _first_splitting_pair(letter: int, k: int, words: Iterator[Word]) -> SplittingPair | None:
    """First pair (words[i], words[j]), i < j, in (i, j) order that splits.
    The first word's partner is almost always near the front, so its row
    is searched while the words are still being generated; the rest of
    the stream is materialised only when that row finds nothing."""
    first = next(words)
    rest: list[Word] = []
    for v in words:
        pair = _as_splitting_pair(letter, k, first, v)
        if pair:
            return pair
        rest.append(v)
    for i, u in enumerate(rest):
        for j in range(i + 1, len(rest)):
            pair = _as_splitting_pair(letter, k, u, rest[j])
            if pair:
                return pair
    return None


def splitting_pairs(
    sub: RandomSubstitution, k_max: int, budget: int = DEFAULT_BUDGET
) -> SplittingReport:
    """Scan realisation pairs of every k-th letter image, in canonical
    enumeration order, for a pair (u, v) with |u| <= |v| and u not a
    strong affix of v.  Realisations are generated lazily and the search
    stops at the first pair, so the budget caps only what was generated."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    pairs: dict[tuple[int, int], SplittingPair | None] = {}
    for k in range(1, k_max + 1):
        for letter in range(sub.n_letters):
            words = power_realisation_words(sub, letter, k, budget=budget)
            pairs[(k, letter)] = _first_splitting_pair(letter, k, words)
    return SplittingReport(k_max=k_max, pairs=pairs)


def max_realisation_lengths(sub: RandomSubstitution, k_max: int) -> list[int]:
    """N_k = the longest possible realisation of the k-th image of any
    letter, for k = 1..k_max (no enumeration; dynamic programming)."""
    _images, bounds = _realisation_bounds(tuple(rule.images for rule in sub.rules), k_max)
    return [max(hi) for _lo, hi in bounds[1:]]


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided entropy estimate.

    ``upper_profile`` lists (ell, log C(ell)/ell); each entry is a valid
    upper bound and ``upper`` is their minimum.  ``lower`` is the best
    splitting-pair bound (0 when no pair was found up to k_max, see
    ``lower_status``).  ``exact_known`` is an optional externally known
    value for bundled examples.
    """

    upper_profile: tuple[tuple[int, float], ...]
    upper: float
    lower: float
    lower_status: str
    lower_witness: SplittingPair | None
    exact_known: float | None = None
    exact_note: str | None = None


def entropy_bracket(
    sub: RandomSubstitution,
    ell_max: int,
    k_max: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
    exact_known: float | None = None,
    exact_note: str | None = None,
) -> EntropyBracket:
    if not is_primitive(sub):
        raise NotPrimitiveError("entropy bracket requires a primitive substitution")
    table = legal_words(sub, ell_max, table=table, budget=budget)
    counts = complexity(table, ell_max)
    profile = tuple(
        (ell, math.log(c) / ell) for ell, c in enumerate(counts, start=1)
    )
    # Primitivity was checked on the support; the expected matrix itself
    # may be degenerate, in which case some frequencies are 0 and the
    # corresponding letters simply contribute no lower bound.
    freq = _perron_right(substitution_matrix(sub), sub.is_degenerate)
    n_k = max_realisation_lengths(sub, k_max)
    report = splitting_pairs(sub, k_max, budget=budget)
    best = 0.0
    witness: SplittingPair | None = None
    for (k, letter), pair in sorted(report.pairs.items()):
        if pair is None:
            continue
        value = float(freq[letter]) * math.log(2.0) / (2.0 * n_k[k - 1])
        if value > best:
            best = value
            witness = pair
    status = "splitting-pair" if witness else f"no splitting pair found up to k_max={k_max}"
    return EntropyBracket(
        upper_profile=profile,
        upper=min(v for _ell, v in profile),
        lower=best,
        lower_status=status,
        lower_witness=witness,
        exact_known=exact_known,
        exact_note=exact_note,
    )


@dataclass(frozen=True)
class PeriodicCensus:
    """Counts of n-periodic sequences whose repetitions look legal out to
    the given horizon.  Counts are certified upper bounds for the true
    number of sequences fixed by the n-th shift power; every cyclic
    rotation of a root is counted as its own sequence."""

    n_max: int
    horizon: int
    counts: dict[int, int]
    roots: dict[int, tuple[Word, ...]]

    def count(self, n: int) -> int:
        return self.counts[n]


def periodic_census(
    sub: RandomSubstitution,
    n_max: int,
    horizon: int | None = None,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PeriodicCensus:
    """Count length-n roots u (n <= n_max) whose periodic repetition has
    every length-``horizon`` window legal; horizon defaults to 2*n_max
    and must be at least that."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if horizon is None:
        horizon = 2 * n_max
    if horizon < 2 * n_max:
        raise ValueError("horizon must be at least 2 * n_max")
    table = legal_words(sub, horizon, table=table, budget=budget)
    counts: dict[int, int] = {}
    roots: dict[int, tuple[Word, ...]] = {}
    for n in range(1, n_max + 1):
        reps = horizon // n + 2
        survivors = []
        for u in table.words(n):
            tiled = u * reps
            if all(tiled[i : i + horizon] in table for i in range(n)):
                survivors.append(u)
        counts[n] = len(survivors)
        roots[n] = tuple(survivors)
    return PeriodicCensus(n_max=n_max, horizon=horizon, counts=counts, roots=roots)


def refine_census_by_frequencies(
    sub: RandomSubstitution, census: PeriodicCensus
) -> PeriodicCensus:
    """Drop census roots whose letter counts contradict the letter
    frequencies that every element of a compatible subshift has.

    Applies only when ``sub`` is primitive and compatible: all images of
    a letter, whatever their probabilities, have the same letter counts,
    so the integer count matrix M (M[i, j] = occurrences of letter i in
    any image of letter j) is well defined.  A root u of length n is kept
    iff its count vector c is an eigenvector of M, decided exactly by
    (Mc)_i * c_j == (Mc)_j * c_i for all i, j.  In every other case the
    census is returned unchanged; ``n_max`` and ``horizon`` are kept.

    Proof that refined counts remain certified upper bounds.  By
    induction on k, every realisation of the k-th image of a letter a has
    count vector M^k e_a.  A legal word w is a factor of a realisation of
    the K-th image of some letter b, where primitivity lets K be as large
    as wanted; for k <= K that realisation is a concatenation of level-k
    realisations.  So w is a concatenation of whole level-k blocks, with
    counts M^k e_a, plus two ends shorter than N_k, the longest level-k
    realisation.  Primitivity makes M^k e_a / |M^k e_a|_1 converge to the
    Perron-Frobenius vector R, uniformly in a, so
    |c(w)/|w| - R|_1 <= delta_k + 4 N_k / |w| with delta_k -> 0.  If u^oo
    lies in the subshift, every u^m is legal and c(u^m)/(mn) = c/n;
    letting m and then k grow gives c = nR, an eigenvector of M.
    Conversely an irreducible M has no non-negative eigenvector other than
    multiples of R, and c is non-zero with Mc non-zero, so the minors
    above vanish exactly when c = nR.  A dropped root is therefore no
    periodic point.  Since c is invariant under rotation and scales under
    repetition, the refined roots keep the census's rotation closure and
    divisor consistency.
    """
    if not is_primitive(sub):
        return census
    n_letters = sub.n_letters
    columns = []  # columns[j][i] = M[i, j]
    for rule in sub.rules:
        column = letter_counts(rule.images[0], n_letters)
        if any(letter_counts(w, n_letters) != column for w in rule.images[1:]):
            return census
        columns.append(column)

    def is_eigenvector(u: Word) -> bool:
        c = letter_counts(u, n_letters)
        mc = [sum(col[i] * cj for col, cj in zip(columns, c)) for i in range(n_letters)]
        return all(
            mc[i] * c[j] == mc[j] * c[i] for i in range(n_letters) for j in range(i)
        )

    roots = {
        length: tuple(u for u in words if is_eigenvector(u))
        for length, words in census.roots.items()
    }
    return PeriodicCensus(
        n_max=census.n_max,
        horizon=census.horizon,
        counts={length: len(words) for length, words in roots.items()},
        roots=roots,
    )


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated power series of exp(sum_n count(n) z^n / n)."""

    n_max: int
    coefficients: tuple[float, ...]  # degree 0..n_max
    log_terms: tuple[float, ...]  # count(n)/n for n = 1..n_max


def series_exp(log_terms: list[float]) -> list[float]:
    """Coefficients of exp(g) for g = sum_n log_terms[n-1] z^n (g(0)=0),
    to the same truncation degree."""
    n_max = len(log_terms)
    coeff = [1.0] + [0.0] * n_max
    for n in range(1, n_max + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += k * log_terms[k - 1] * coeff[n - k]
        coeff[n] = acc / n
    return coeff


def series_log(coefficients: list[float]) -> list[float]:
    """Inverse of series_exp: log of a series with constant term 1."""
    if not coefficients or abs(coefficients[0] - 1.0) > 1e-12:
        raise ValueError("series_log needs constant term 1")
    n_max = len(coefficients) - 1
    log_terms = [0.0] * n_max
    for n in range(1, n_max + 1):
        acc = n * coefficients[n]
        for k in range(1, n):
            acc -= k * log_terms[k - 1] * coefficients[n - k]
        log_terms[n - 1] = acc / n
    return log_terms


def zeta_series(census: PeriodicCensus, n_max: int) -> ZetaSeries:
    """Formal zeta series from a periodic census (census must cover n_max)."""
    if n_max > census.n_max:
        raise ValueError("census does not cover the requested degree")
    log_terms = [census.counts[n] / n for n in range(1, n_max + 1)]
    return ZetaSeries(
        n_max=n_max,
        coefficients=tuple(series_exp(log_terms)),
        log_terms=tuple(log_terms),
    )


def mixing_gaps(
    sub: RandomSubstitution,
    u: Word,
    v: Word,
    n_max: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Gaps n <= n_max for which some word w of length n makes u w v
    legal.  Absence of a gap is rigorous relative to the substitution's
    language."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not u or not v:
        raise ValueError("u and v must be non-empty")
    longest = len(u) + n_max + len(v)
    table = legal_words(sub, longest, table=table, budget=budget)
    if u not in table or v not in table:
        raise ValueError("u and v must be legal words")
    achievable = []
    for n in range(n_max + 1):
        total = len(u) + n + len(v)
        if any(w.startswith(u) and w.endswith(v) for w in table.words(total)):
            achievable.append(n)
    return tuple(achievable)
