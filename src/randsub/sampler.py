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

A letter's chosen image id is its first id plus the count of cumulative
probabilities cum <= u, tested as ceil(cum * 2^53) <= value >> 11, which is
exact because u is.  The counters of a block of positions end, end + 1, ...
are one add of key_d + end * GOLDEN to the progression (1, 2, ...) * GOLDEN,
built once per expansion: the same values mod 2^64.  Each image, padded to a
power of two, is one packed row: the next level is a gather of rows,
compressed by their masks.

Memory follows the image choices, not the letters.  Each level keeps only
its choices, in the smallest unsigned dtype that fits the image ids (one
byte a letter for up to 256 images), as a list of blocks of _BLOCK = 2^14,
small enough that a block's draws and buffers stay in L2.  The next level's
letters are gathered from them a block at a time, and each block is drawn
and chosen while it is in cache, so no level's letters are ever held whole;
a level's length is summed from the previous level's choices before any of
its letters exist.  Each block of choices is dropped once it is gathered, so
the level being chosen reuses its memory and one level's choices are held at
a time.  A report never builds the last level: at depth k >= 1 it counts the
windows from the image ids chosen at level k - 1, as they are chosen, and
spells each distinct m-gram by the language codec's ``fan_out``
(``_window_counts``).  Its peak is about 1 MB of reused block buffers, the
counts, and the choices of the level before the last but one, held while
the last but one is chosen: for period doubling, 1/4 byte a sampled letter.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_BUDGET, RandomSubstitution, Word, _letter_index, _level_bounds
from .errors import BudgetExceededError, WordTooShortError
from .induced import FrequencyVector, _windows, word_frequencies
from .language import code_base, code_digits, code_dtype, decode_codes, encode_rows, fan_out

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
GOLDEN = np.uint64(_GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_BLOCK = 1 << 14  # letters per block of a level, so that its draws stay in L2
_GATHER = 1 << 16  # padded letters per gather step, so that uneven images gather many rows


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    # SplitMix64 finaliser, in place with one scratch buffer; wraparound is intended.
    scratch = np.empty_like(z) if scratch is None else scratch
    for shift, factor in ((30, _M1), (27, _M2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= factor
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _key(seed: int, depth: int) -> int:
    """key_d, the mixed seed of one depth, as a Python int."""
    return int(_mix64(np.array([(seed + (depth + 1) * _GOLDEN) & _MASK], dtype=np.uint64))[0])


def _progression(
    key: int, end: int, steps: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``value >> 11`` at positions end, end + 1, ... of the depth keyed by
    ``key``, into ``out``, from ``steps`` = (1, 2, ...) * GOLDEN: a single
    add of key + end * GOLDEN to each counter, all mod 2^64."""
    np.add(steps[: len(out)], np.uint64((key + end * _GOLDEN) & _MASK), out=out)
    _mix64(out, scratch)
    out >>= np.uint64(11)
    return out


def _draws(
    seed: int, depth: int, counters: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``value >> 11`` for the uint64 counters (position + 1) of one depth, in place."""
    counters *= GOLDEN
    return _progression(_key(seed, depth), 0, counters, counters, scratch)


def stream_u01(seed: int, depth: int, positions: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates for the given positions of one depth."""
    return _draws(seed, depth, positions.astype(np.uint64) + np.uint64(1)) * 2.0**-53


def _level_blocks(
    sub: RandomSubstitution,
    letter: int,
    k: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    image_ids: bool = False,
) -> Iterator[int | np.ndarray]:
    """The length of the chosen realisation of the k-th image of a letter,
    then its letter indices in blocks of _BLOCK (the last may be shorter),
    each a view of a reused buffer that the next block overwrites; no level
    longer than ``budget`` letters is begun.  With ``image_ids`` (k >= 1), only
    the image ids chosen at level k - 1 are yielded, in such blocks, as they
    are chosen: the last level is never built."""
    if k < 0:
        raise ValueError("depth must be non-negative")
    images = [w for rule in sub.rules for w in rule.images]
    lengths = np.array([len(w) for w in images], dtype=np.intp)
    width = 1 << (int(lengths.max()) - 1).bit_length()
    # Each image padded to ``width`` letters (a power of two, since numpy
    # gathers such rows fastest) is one row, with a mask row.  Each letter
    # has its first image id and thresholds ceil(cum * 2^53) cut to [0, 2^53]:
    # its last cum counts as 1, so that every draw lands, and 1 or more (as
    # the padding past its arity) is above every draw.
    table = np.zeros((len(images), width), dtype=np.uint16)
    mask = np.arange(width) < lengths[:, None]
    table[mask] = np.fromiter(map(ord, "".join(images)), dtype=np.uint16)
    packed, packed_mask = table.view(f"V{2 * width}")[:, 0], mask.view(f"V{width}")[:, 0]
    choice = np.min_scalar_type(len(images) - 1)  # the smallest unsigned dtype for every image id
    first = np.cumsum([0] + [rule.arity for rule in sub.rules[:-1]], dtype=np.intp)
    cum = np.full((sub.n_letters, max(rule.arity for rule in sub.rules)), 1.0)
    for a, rule in enumerate(sub.rules):
        cum[a, : rule.arity - 1] = np.cumsum(rule.probabilities[:-1])
    thresholds = np.clip(np.ceil(cum * 2.0**53), 0, 2.0**53).astype(np.uint64)
    # Reused buffers, which ``take`` fills with mode="clip" (mode="raise"
    # buffers ``out``).  A gather step of ``step`` rows holds at most _GATHER
    # padded letters, however uneven the images, and steps are joined into
    # blocks of _BLOCK letters before they are drawn or counted.
    step = min(_BLOCK, max(1, _GATHER // width))
    rows, keep = np.empty(step, packed.dtype), np.empty(step, packed_mask.dtype)
    joined, below = np.empty(_BLOCK, np.uint16), np.empty(_BLOCK, bool)
    index, ids, picked = (np.empty(_BLOCK, np.intp) for _ in range(3))
    draws, scratch = np.empty(_BLOCK, np.uint64), np.empty(_BLOCK, np.uint64)
    steps = np.arange(1, _BLOCK + 1, dtype=np.uint64) * GOLDEN  # wraps mod 2^64

    def gather(chosen: list[np.ndarray | None], masked: bool) -> Iterator[np.ndarray]:
        # The next level, a step of chosen rows at a time, compressed by
        # their mask rows unless every chosen image fills its row.  Each
        # block of choices is dropped once it is cast, so that the level
        # being chosen reuses its memory.
        fill = 0
        for i in range(len(chosen)):
            chunk = picked[: len(chosen[i])]
            np.copyto(chunk, chosen[i])  # take is slow on uint8 indices
            chosen[i] = None
            for row in range(0, len(chunk), step):
                picks = chunk[row : row + step]
                part = packed.take(picks, out=rows[: len(picks)], mode="clip").view(np.uint16)
                if masked:
                    mask_rows = packed_mask.take(picks, out=keep[: len(picks)], mode="clip")
                    part = part.compress(mask_rows.view(bool))
                while fill + len(part) >= _BLOCK:
                    joined[fill:] = part[: _BLOCK - fill]
                    yield joined
                    fill, part = 0, part[_BLOCK - fill :]
                joined[fill : fill + len(part)] = part
                fill += len(part)
        if fill:
            yield joined[:fill]

    blocks, length = [np.array([letter], dtype=np.uint16)], 1
    for depth in range(k):
        # Inverse CDF a block at a time: the image id is the letter's first id
        # plus its count of thresholds <= v, that is, of cum <= u = v * 2^-53.
        last = image_ids and depth == k - 1
        key, chosen, end, total = _key(seed, depth), [], 0, 0
        for letters in blocks:
            n = len(letters)
            held = index[:n]
            np.copyto(held, letters)
            v = _progression(key, end, steps, draws[:n], scratch[:n])
            block = first.take(held, out=ids[:n], mode="clip")
            for column in thresholds[:, :-1].T:
                cut = column.take(held, out=scratch[:n], mode="clip")
                block += np.less_equal(cut, v, out=below[:n])
            total += int(lengths.take(block, out=held, mode="clip").sum())
            if last:
                yield block
            else:
                chosen.append(block.astype(choice))
            end += n
        if total > budget:
            raise _level_error(sub, letter, total, depth + 1, k, budget)
        blocks, length = gather(chosen, total < length * width), total
    if not image_ids:
        yield length
        yield from blocks


def _level_error(
    sub: RandomSubstitution, letter: int, total: int, level: int, k: int, budget: int
) -> BudgetExceededError:
    return BudgetExceededError(
        f"sample of letter {sub.alphabet.letters[letter]}: {total} letters at level {level} of {k}",
        budget,
    )


def _forced_level_error(
    sub: RandomSubstitution, letter: int, k: int, budget: int
) -> BudgetExceededError | None:
    """The error the expansion to depth k must raise, when it is known without
    drawing: at the first level whose longest realisation of ``letter`` passes
    the budget, every realisation has that length.  None otherwise."""
    bounds = _level_bounds(tuple(rule.images for rule in sub.rules))
    next(bounds)  # level 0, the letter itself
    for level, (lo, hi) in zip(range(1, k + 1), bounds):
        if hi[letter] > budget:
            forced = lo[letter] == hi[letter]
            return _level_error(sub, letter, hi[letter], level, k, budget) if forced else None
    return None


def _expand_levels(
    sub: RandomSubstitution, letter: int, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The chosen realisation of the k-th image of a letter, as an array
    of letter indices; no level longer than ``budget`` letters is built."""
    blocks = _level_blocks(sub, letter, k, seed, budget)
    word, end = np.empty(next(blocks), dtype=np.uint16), 0
    for block in blocks:
        word[end : end + len(block)] = block
        end += len(block)
    return word


def sample_realisation(
    sub: RandomSubstitution, letter: int | str, k: int, seed: int, budget: int = DEFAULT_BUDGET
) -> Word:
    """One realisation of the k-th image of ``letter``, deterministic in
    (sub, letter, k, seed)."""
    arr = _expand_levels(sub, _letter_index(sub, letter), k, seed, budget)
    return arr.astype("<u4").tobytes().decode("utf-32-le")


def _merge_counts(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of (codes, counts) parts, with their summed counts."""
    codes = np.concatenate([c for c, _ in parts])
    counts = np.concatenate([n for _, n in parts])
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return codes[first], np.add.reduceat(counts, first)


def _merged(
    parts: Iterable[tuple[np.ndarray, np.ndarray]], dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """``_merge_counts`` of a stream of parts.  Parts wait until they hold as
    many codes as the merged counts, then are merged into them: a merge costs
    at most about twice the codes waiting, and live memory stays within a few
    times the distinct codes plus a part."""
    merged, waiting = [(np.empty(0, dtype=dtype), np.empty(0, dtype=np.intp))], 0
    for part in parts:
        merged.append(part)
        waiting += len(part[0])
        if waiting >= len(merged[0][0]):
            merged, waiting = [_merge_counts(merged)], 0
    return _merge_counts(merged)


def _gram_length(ell: int, size: int) -> int:
    """m: a window of ell letters that starts in one image ends within the
    next m - 1 images, if none of them is shorter than ``size``."""
    return 1 - (1 - ell) // size


def _window_counts(
    blocks: Iterable[np.ndarray], ell: int, n_letters: int, images: list[Word] | None = None
) -> tuple[dict[Word, int], int]:
    """Counts of the length-ell windows of the word spelt by consecutive
    blocks of symbols (letters < n_letters, or ids of ``images``), and its
    length.

    A window starting in the image of symbol j depends on symbols j ...
    j + m - 1 only, and on j + t only while j + 1 ... j + t - 1 spell fewer
    than ell - 1 letters: later ones are encoded as 0.  The m-grams are
    encoded a block at a time after the m - 1 symbols carried, and counted
    by ``bincount`` if their code space fits in a block.  For letters they
    are the windows; otherwise each distinct one is spelt once into the
    windows starting in its first image, and the last m - 1 symbols into
    all of theirs."""
    sizes = np.ones(1, np.intp) if images is None else np.array(list(map(len, images)))
    m, unmasked = (_gram_length(ell, int(size)) for size in (sizes.min(), sizes.max()))
    base = code_base(n_letters if images is None else len(images))
    dense = base**m <= _BLOCK
    dtype = np.min_scalar_type(base**m - 1) if dense else code_dtype(base, m)
    symbol = np.min_scalar_type(base - 1)
    symbols, codes, held = np.empty(m - 1, symbol), np.empty(0, dtype), 0

    def gram_counts() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        nonlocal symbols, codes, held
        counts = np.zeros(base**m if dense else 0, np.intp)
        for block in blocks:
            size = held + len(block)
            if size > len(symbols):
                symbols = np.concatenate((symbols[:held], np.empty(size - held, symbol)))
            symbols[held:size] = block
            n = size - m + 1  # m-grams starting in the carried symbols and the block
            if n > 0:
                if n > len(codes):
                    codes = np.empty(n, dtype)
                grams = codes[:n]
                grams[:] = symbols[:n]
                ends = np.cumsum(sizes[symbols[:size]]) if unmasked < m else None
                for t in range(1, m):
                    grams *= base
                    kept = t < unmasked or ends[t - 1 : t - 1 + n] - ends[:n] < ell - 1
                    np.add(grams, symbols[t : t + n], out=grams, where=kept)
                if dense:
                    counts += np.bincount(grams, minlength=len(counts))
                else:
                    yield np.unique(grams, return_counts=True)
            held = min(size, m - 1)
            symbols[:held] = symbols[size - held : size]
        if dense:
            seen = np.flatnonzero(counts)
            yield seen, counts[seen]

    values, counts = _merged(gram_counts(), dtype)
    if images is None:
        length = int(counts.sum()) + held
        return dict(zip(decode_codes(values, ell, base), counts.tolist())), length
    text = np.fromiter(map(ord, "".join(images)), np.intp)  # every image's letters, joined
    offsets = np.cumsum(sizes) - sizes

    def spell(ids: np.ndarray) -> np.ndarray:
        return text[fan_out(ids, sizes, offsets)[1]]

    letter_base = code_base(n_letters)
    letter_dtype = code_dtype(letter_base, ell)
    tail = spell(symbols[:held])
    step = max(1, _BLOCK // (m * int(sizes.max())))  # m-grams spelt at once

    def window_counts() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, len(values), step):
            grams = code_digits(values[start : start + step], m, base)
            spelt = sizes[grams]
            lengths = spelt.sum(1)
            gram, starts = fan_out(np.arange(len(grams)), spelt[:, 0], np.cumsum(lengths) - lengths)
            windows = np.lib.stride_tricks.sliding_window_view(spell(grams.ravel()), ell)
            yield encode_rows(windows[starts], letter_base, letter_dtype), counts[start + gram]
        if len(tail) >= ell:
            windows = np.lib.stride_tricks.sliding_window_view(tail, ell)
            yield encode_rows(windows, letter_base, letter_dtype), np.ones(len(windows), np.intp)

    length = int(counts @ sizes[(values // base ** (m - 1)).astype(np.intp)]) + len(tail)
    values, counts = _merged(window_counts(), letter_dtype)
    return dict(zip(decode_codes(values, ell, letter_base), counts.tolist())), length


def _frequencies(counts: dict[Word, int], total: int) -> dict[Word, float]:
    """Window counts over their total, in canonical word order."""
    return {w: c / total for w, c in sorted(counts.items())}


def empirical_frequencies(word: Word, ell: int) -> dict[Word, float]:
    """Relative counts of the length-ell windows of ``word``."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if len(word) < ell:
        raise WordTooShortError(f"word of length {len(word)} has no {ell}-windows")
    arr = np.frombuffer(word.encode("utf-32-le"), dtype="<u4")
    blocks = (arr[i : i + _BLOCK] for i in range(0, len(arr), _BLOCK))
    return _frequencies(_window_counts(blocks, ell, int(arr.max()) + 1)[0], len(word) - ell + 1)


class SampleReport(NamedTuple):
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
    if k < 0:  # before the closure and the expansion, which can take seconds
        raise ValueError("depth must be non-negative")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    # A depth whose levels must outgrow the budget is refused before any
    # draw, after the prediction's closure, whose errors come first.  Any
    # other sample is expanded and counted before the prediction, which can
    # take seconds, so that the expansion's errors come first.
    if (error := _forced_level_error(sub, start, k, budget)) is not None:
        _windows(sub, ell, None, budget)
        raise error
    # Windows are counted from the image ids chosen at level k - 1 (k >= 1).
    blocks = _level_blocks(sub, start, k, seed, budget, k > 0)
    images = [w for rule in sub.rules for w in rule.images] if k else None
    if not k:
        next(blocks)  # the length of depth 0's one letter
    counts, length = _window_counts(blocks, ell, sub.n_letters, images)
    if length < ell:
        raise WordTooShortError(
            f"sample of length {length} is shorter than ell={ell}; increase the depth"
        )
    predicted = word_frequencies(sub, ell, budget=budget)
    empirical = _frequencies(counts, length - ell + 1)
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
        sample_length=length,
        empirical=empirical,
        predicted=predicted,
        max_abs_deviation=deviation,
    )
