"""Seeded Monte-Carlo realisations and empirical-frequency reports.

The generator is pinned so reports are reproducible bit for bit across
runs and machines, and is counter-based so expansion could proceed in any
order: the uniform variate for the letter at position i of the depth-d
word is

    key_d  = mix64(seed + (d + 1) * GOLDEN)         (all mod 2^64)
    value  = mix64(key_d + (i + 1) * GOLDEN)
    u      = (value >> 11) * 2^-53

where GOLDEN = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finaliser.
The variate picks an image by inverse CDF over the rule's images in
declaration order.  Each level of the expansion is fully determined by
(seed, depth, positions), independent of how the previous level was
produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_BUDGET, RandomSubstitution, Word
from .errors import BudgetExceededError, DegenerateRuleError, WordTooShortError
from .induced import FrequencyVector, word_frequencies
from .language import code_base, code_dtype, decode_codes, encode_rows

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
GOLDEN = np.uint64(_GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finaliser on uint64 arrays; wraparound is intended.
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def stream_u01(seed: int, depth: int, positions: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates for the given positions of one depth."""
    key = _mix64(np.array([(seed + (depth + 1) * _GOLDEN) & _MASK], dtype=np.uint64))[0]
    counters = key + (positions.astype(np.uint64) + np.uint64(1)) * GOLDEN
    return (_mix64(counters) >> np.uint64(11)) * 2.0**-53


class _RuleTables:
    """Per-letter image tables in numpy form for vectorised expansion."""

    def __init__(self, sub: RandomSubstitution):
        self.images: list[list[np.ndarray]] = []
        self.lengths: list[np.ndarray] = []
        self.cumprobs: list[np.ndarray] = []
        for rule in sub.rules:
            total = sum(rule.probabilities)
            if total <= 0.0:
                raise DegenerateRuleError(
                    f"rule for letter {sub.alphabet.letters[rule.source]} has no "
                    "positive-probability image"
                )
            self.images.append(
                [np.fromiter(map(ord, w), dtype=np.uint16, count=len(w)) for w in rule.images]
            )
            self.lengths.append(np.array([len(w) for w in rule.images], dtype=np.int64))
            cum = np.cumsum(np.asarray(rule.probabilities, dtype=float))
            cum[-1] = max(cum[-1], 1.0)  # absorb rounding so every u lands
            self.cumprobs.append(cum)


def _expand_levels(
    sub: RandomSubstitution, letter: int, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The chosen realisation of the k-th image of a letter, as an array
    of letter indices; no level longer than ``budget`` letters is built."""
    tables = _RuleTables(sub)
    word = np.array([letter], dtype=np.uint16)
    for depth in range(k):
        u = stream_u01(seed, depth, np.arange(len(word), dtype=np.uint64))
        choices = np.empty(len(word), dtype=np.int64)
        lengths = np.empty(len(word), dtype=np.int64)
        for a in np.unique(word):
            mask = word == a
            picked = np.searchsorted(tables.cumprobs[a], u[mask], side="right")
            picked = np.minimum(picked, len(tables.cumprobs[a]) - 1)
            choices[mask] = picked
            lengths[mask] = tables.lengths[a][picked]
        total = int(lengths.sum())
        if total > budget:
            raise BudgetExceededError(
                f"sample of letter {sub.alphabet.letters[letter]}: {total} letters "
                f"at level {depth + 1} of {k}",
                budget,
            )
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        out = np.empty(total, dtype=np.uint16)
        for a in np.unique(word):
            for j, image in enumerate(tables.images[a]):
                sel = starts[(word == a) & (choices == j)]
                for t, c in enumerate(image):
                    out[sel + t] = c
        word = out
    return word


def sample_realisation(
    sub: RandomSubstitution, letter: int | str, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> Word:
    """One realisation of the k-th image of ``letter``, deterministic in
    (sub, letter, k, seed)."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    if isinstance(letter, str):
        letter = sub.alphabet.index(letter)
    arr = _expand_levels(sub, letter, k, seed, budget)
    return "".join(map(chr, arr.tolist()))


def _count_windows_py(word: Word, ell: int) -> dict[Word, int]:
    counts: dict[Word, int] = {}
    for i in range(len(word) - ell + 1):
        w = word[i : i + ell]
        counts[w] = counts.get(w, 0) + 1
    return counts


def _frequencies(counts: dict[Word, int], total: int) -> dict[Word, float]:
    """Window counts over their total, in canonical word order."""
    return {w: c / total for w, c in sorted(counts.items())}


def empirical_frequencies(word: Word, ell: int) -> dict[Word, float]:
    """Relative counts of the length-ell windows of ``word``."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if len(word) < ell:
        raise WordTooShortError(f"word of length {len(word)} has no {ell}-windows")
    return _frequencies(_count_windows_py(word, ell), len(word) - ell + 1)


def _window_counts(arr: np.ndarray, ell: int, n_letters: int) -> dict[Word, int]:
    base = code_base(n_letters)
    windows = np.lib.stride_tricks.sliding_window_view(arr, ell)
    codes = encode_rows(windows, base, code_dtype(base, ell))
    values, counts = np.unique(codes, return_counts=True)
    return dict(zip(decode_codes(values, ell, base), counts.tolist()))


@dataclass(frozen=True)
class SampleReport:
    """Empirical window frequencies of one sampled realisation against
    the predicted frequency vector.  Identical inputs (including the
    seed) reproduce the report bit for bit."""

    seed: int
    start_letter: int
    depth: int
    ell: int
    sample_length: int
    empirical: dict[Word, float]
    predicted: FrequencyVector
    max_abs_deviation: float

    def rows(self) -> list[tuple[Word, float, float, float]]:
        """(word, empirical, predicted, abs deviation) per legal word."""
        out = []
        for word, pred in zip(self.predicted.words, self.predicted.values):
            emp = self.empirical.get(word, 0.0)
            out.append((word, emp, pred, abs(emp - pred)))
        return out


def frequency_report(
    sub: RandomSubstitution,
    ell: int,
    k: int,
    seed: int,
    start_letter: int | str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SampleReport:
    """Sample one realisation of depth k and compare its window
    frequencies with the stationary prediction."""
    if start_letter is None:
        start = 0
    elif isinstance(start_letter, str):
        start = sub.alphabet.index(start_letter)
    else:
        start = start_letter
    predicted = word_frequencies(sub, ell, budget=budget)
    arr = _expand_levels(sub, start, k, seed, budget)
    if len(arr) < ell:
        raise WordTooShortError(
            f"sample of length {len(arr)} is shorter than ell={ell}; increase the depth"
        )
    empirical = _frequencies(_window_counts(arr, ell, sub.n_letters), len(arr) - ell + 1)
    deviation = 0.0
    for word, pred in zip(predicted.words, predicted.values):
        deviation = max(deviation, abs(empirical.get(word, 0.0) - pred))
    legal = set(predicted.words)
    for word, emp in empirical.items():
        if word not in legal:
            deviation = max(deviation, emp)
    return SampleReport(
        seed=seed,
        start_letter=start,
        depth=k,
        ell=ell,
        sample_length=int(len(arr)),
        empirical=empirical,
        predicted=predicted,
        max_abs_deviation=deviation,
    )
