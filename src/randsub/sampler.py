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

All images sit in one flat array.  A level takes one draw per letter: the
chosen image id is the letter's first id plus the count of its cumulative
probabilities <= u, and the next level is one gather from the flat array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_BUDGET, RandomSubstitution, Word, _letter_index
from .errors import BudgetExceededError, WordTooShortError
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


def _expand_levels(
    sub: RandomSubstitution, letter: int, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The chosen realisation of the k-th image of a letter, as an array
    of letter indices; no level longer than ``budget`` letters is built."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    # All images in one flat array, each letter's first image id, and its
    # cumulative probabilities in one row, padded with inf past its arity.
    cum = np.full((sub.n_letters, max(rule.arity for rule in sub.rules)), np.inf)
    images: list[Word] = []
    first = np.empty(sub.n_letters, dtype=np.int32)
    for a, rule in enumerate(sub.rules):
        first[a] = len(images)
        images.extend(rule.images)
        row = np.cumsum(np.asarray(rule.probabilities, dtype=float))
        row[-1] = max(row[-1], 1.0)  # absorb rounding so every u lands
        cum[a, : rule.arity] = row
    lengths = np.array([len(w) for w in images], dtype=np.int32)
    starts = (np.cumsum(lengths) - lengths).astype(np.int32)
    flat = np.fromiter(map(ord, "".join(images)), dtype=np.uint16)
    word = np.array([letter], dtype=np.uint16)
    for depth in range(k):
        u = stream_u01(seed, depth, np.arange(len(word), dtype=np.uint64))
        # Inverse CDF: the image id is the letter's first id plus the number
        # of cumulative probabilities <= u; the last one is >= 1 > u.
        chosen = first[word]
        for column in cum[:, :-1].T:
            chosen += column[word] <= u
        size = lengths[chosen]
        total = int(size.sum())
        if total > budget:
            raise BudgetExceededError(
                f"sample of letter {sub.alphabet.letters[letter]}: {total} letters "
                f"at level {depth + 1} of {k}",
                budget,
            )
        # The gather index steps by one inside an image; at each head it
        # jumps from the end of the previous image to the start of its own.
        jump = starts[chosen]
        jump[1:] -= (jump + size - 1)[:-1]
        step = np.ones(total, dtype=np.int32)
        step[np.cumsum(size) - size] = jump
        word = flat[np.cumsum(step, dtype=np.int32, out=step)]
    return word


def sample_realisation(
    sub: RandomSubstitution, letter: int | str, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> Word:
    """One realisation of the k-th image of ``letter``, deterministic in
    (sub, letter, k, seed)."""
    arr = _expand_levels(sub, _letter_index(sub, letter), k, seed, budget)
    return "".join(map(chr, arr.tolist()))


def _window_counts(arr: np.ndarray, ell: int, n_letters: int) -> dict[Word, int]:
    """Counts of the length-ell windows of an array of letters < n_letters."""
    base = code_base(n_letters)
    windows = np.lib.stride_tricks.sliding_window_view(arr, ell)
    codes = encode_rows(windows, base, code_dtype(base, ell))
    values, counts = np.unique(codes, return_counts=True)
    return dict(zip(decode_codes(values, ell, base), counts.tolist()))


def _frequencies(counts: dict[Word, int], total: int) -> dict[Word, float]:
    """Window counts over their total, in canonical word order."""
    return {w: c / total for w, c in sorted(counts.items())}


def empirical_frequencies(word: Word, ell: int) -> dict[Word, float]:
    """Relative counts of the length-ell windows of ``word``."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if len(word) < ell:
        raise WordTooShortError(f"word of length {len(word)} has no {ell}-windows")
    arr = np.fromiter(map(ord, word), dtype=np.uint32, count=len(word))
    return _frequencies(_window_counts(arr, ell, int(arr.max()) + 1), len(word) - ell + 1)


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
    start = _letter_index(sub, 0 if start_letter is None else start_letter)
    predicted = word_frequencies(sub, ell, budget=budget)
    arr = _expand_levels(sub, start, k, seed, budget)
    if len(arr) < ell:
        raise WordTooShortError(
            f"sample of length {len(arr)} is shorter than ell={ell}; increase the depth"
        )
    empirical = _frequencies(_window_counts(arr, ell, sub.n_letters), len(arr) - ell + 1)
    expected = predicted.as_dict()
    deviation = max(
        abs(empirical.get(w, 0.0) - expected.get(w, 0.0))
        for w in expected.keys() | empirical.keys()
    )
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
