"""Legal languages of random substitutions by fixpoint closure.

A word is legal when it occurs inside some realisation of some iterated
image of a letter.  The closure below works on windows, never on full
realisations of long words: for each known legal word u it enumerates the
windows of realisations of the image of u that start inside the first
letter's image and end inside the last letter's image ("spanning"
windows).  Any window of any deeper iterate lies inside the image of a
legal word no longer than the window, so iterating this step from the
alphabet letters reaches exactly the legal words of each length up to the
requested bound.

Encoding.  Letters are the digits 0..n-1 of base ``b = max(n, 2)``, so a
word of length m is the integer code ``sum w_i b^(m-1-i)`` and the words
of one length sort as their codes do.  A window whose length varies (a
live partial window or an emitted window) packs its code and its length
as ``b^m + code``, one integer; appending a word of length k with code c
is ``packed * b^k + c`` and cutting the last k letters is
``packed // b^k``.  ``encode_rows`` and ``decode_codes`` are the one
codec, shared with the sampler's window counter.  ``image_table`` is the
one image layout and ``fan_out`` the one row expansion (a row per item of
a key) of the closure, the tail engine, the induced join and the sampler.

Rounds.  Round r processes, as one batch, every word that became known
in round r-1 (round 1 processes the letters).  Within the batch, lengths
go up: the live partial windows of u are those of u minus its last
letter, each extended by every image of u's last letter.  They are kept
in a per-word index: the sorted codes of the words of one length that
have partials, closed by the sentinel b^m, and each word's first row
(CSR), so a prefix's rows are one ``searchsorted`` on the codes and two
reads of the row starts away.  Partials shorter than the bound stay
live; every extension emits its window, cut to the bound.
The round's fresh words are the unknown factors of its windows, computed
top-down length by length: an unknown factor of length L is an emitted
window of length L or a prefix or suffix of an unknown word of length
L+1, tested against a sorted array of the known words per length.

Bounded memory.  Extensions run in chunks of about 2^15 (partial, image)
pairs; each chunk deduplicates its live partials per word and its
windows before they are kept.  A chunk hands on its partials with one
row count per word, never a word code per partial, so a kept partial
costs 10 bytes: its packed code and its int16 length.

Budget.  Work is one unit per (partial, image) extension, charged in the
order the rounds run: lengths go up, and within one length the words go
in lexicographic order.  A length's work is known before any of its
extensions run, so the closure stops before the charged work would pass
the budget: a failing closure runs at most ``budget`` extensions, and the
error names the cumulative work at the first word that crossed it.

Overflow.  Codes are int64 while ``b^(ell + longest image)`` stays below
2^62; beyond that the same code runs on numpy arrays of Python ints.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_BUDGET, RandomSubstitution, Word, same_support
from .errors import BudgetExceededError, EmptySubshiftError, NotPrimitiveError
from .matrices import _unique, is_primitive

_CHUNK = 2**15


def is_empty_subshift(sub: RandomSubstitution) -> bool:
    """True iff every realisation of every letter image has length 1.

    The characterisation is only valid for primitive substitutions, so
    anything else is rejected.
    """
    if not is_primitive(sub):
        raise NotPrimitiveError("emptiness test requires a primitive substitution")
    return sub.max_image_len == 1


# -- base-n codec -------------------------------------------------------


def code_base(n_letters: int) -> int:
    """Base of the word codes; at least 2 so that packed lengths stay
    distinct for a one-letter alphabet."""
    return max(2, n_letters)


def code_dtype(base: int, digits: int) -> type:
    """int64 while ``base**digits`` stays below 2^62, Python ints beyond."""
    return np.int64 if base**digits < 2**62 else object


def encode_word(word: Word, base: int) -> int:
    code = 0
    for c in word:
        code = code * base + ord(c)
    return code


def encode_rows(letters: np.ndarray, base: int, dtype: type) -> np.ndarray:
    """Codes of the rows of a 2-D array of letter indices."""
    codes = letters[:, 0].astype(dtype)
    for t in range(1, letters.shape[1]):
        codes *= base
        codes += letters[:, t]
    return codes


def code_digits(codes: np.ndarray, length: int, base: int) -> np.ndarray:
    """Letter indices of words of one length from their codes, a row each."""
    digits = np.empty((len(codes), length), dtype="<u4")
    rest = codes
    for t in range(length - 1, -1, -1):
        digits[:, t] = rest % base
        rest = rest // base
    return digits


def decode_codes(codes: np.ndarray, length: int, base: int) -> list[Word]:
    """Words of one length from their codes, in the order given."""
    text = code_digits(codes, length, base).tobytes().decode("utf-32-le")
    return [text[i : i + length] for i in range(0, len(text), length)]


def image_table(images: list, base: int, dtype: type) -> tuple[np.ndarray, ...]:
    """Per letter a (``images[a]``) its image count and first image id, per image
    its code and its int16 length: rule order, then declaration order."""
    count = np.array(list(map(len, images)))
    flat = [w for ws in images for w in ws]
    code = np.array([encode_word(w, base) for w in flat], dtype=dtype)
    return count, np.cumsum(count) - count, code, np.array(list(map(len, flat)), np.int16)


def fan_out(keys: np.ndarray, count: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's entry and item, one row per (entry of ``keys``, item of its key) in
    entry order, then item order; key k has items first[k] .. first[k] + count[k] - 1."""
    sizes = count[keys]
    item = np.repeat(first[keys] - np.cumsum(sizes) + sizes, sizes)
    item += np.arange(len(item))
    return np.repeat(np.arange(len(keys)), sizes), item


def _member(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Elementwise membership of ``codes`` in a sorted array."""
    if len(sorted_codes) == 0:
        return np.zeros(len(codes), dtype=bool)
    idx = np.searchsorted(sorted_codes, codes)
    found = sorted_codes[np.minimum(idx, len(sorted_codes) - 1)] == codes
    return (idx < len(sorted_codes)) & found


# -- the table ----------------------------------------------------------


class LanguageTable:
    """Legal words of every length up to ``max_len``, plus per-length
    stabilisation rounds of the closure that produced them.

    Tables are built single-threaded and are safe for concurrent reads
    afterwards (a read may fill a per-length cache of decoded words; racing
    fills store equal values); ``extend`` mutates in place and re-runs the
    closure.
    """

    def __init__(self, sub: RandomSubstitution, max_len: int, budget: int = DEFAULT_BUDGET):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        self.sub = sub
        self.budget = budget
        self.max_len = 0
        self.stabilized_at: dict[int, int] = {}
        self._base = code_base(sub.n_letters)
        self._codes: dict[int, np.ndarray] = {}
        self._words: dict[int, tuple[Word, ...]] = {}
        self._sets: dict[int, frozenset[Word]] = {}
        self.extend(max_len)

    def extend(self, max_len: int, budget: int | None = None) -> "LanguageTable":
        """Close up to ``max_len`` under ``budget`` (the table's own
        budget when omitted); a no-op when the table is long enough."""
        if max_len > self.max_len:
            closure = _Closure(self.sub, max_len, self.budget if budget is None else budget)
            self._codes, self.stabilized_at = closure.run()
            self._words, self._sets = {}, {}
            self.max_len = max_len
        return self

    def codes(self, length: int) -> np.ndarray:
        """Codes of the legal words of one length, sorted (canonical order)."""
        if length < 1:
            raise ValueError("length must be at least 1")
        self.extend(length)
        return self._codes[length]

    def words(self, length: int) -> tuple[Word, ...]:
        """Legal words of one length in canonical (lexicographic) order."""
        codes = self.codes(length)
        if length not in self._words:
            self._words[length] = tuple(decode_codes(codes, length, self._base))
        return self._words[length]

    def count(self, length: int) -> int:
        return len(self.codes(length))

    def __contains__(self, word: Word) -> bool:
        # A set of the decoded words, built on the first query of a length,
        # answers the census's and mixing scan's many single-word queries
        # faster than encoding each word and searching the codes.
        if not word:
            return False
        length = len(word)
        if length not in self._sets:
            self._sets[length] = frozenset(self.words(length))
        return word in self._sets[length]


class _Closure:
    """One run of the window fixpoint up to length ``ell``."""

    def __init__(self, sub: RandomSubstitution, ell: int, budget: int):
        if is_empty_subshift(sub):
            raise EmptySubshiftError()
        self.sub = sub
        self.ell = ell
        self.budget = budget
        self.base = code_base(sub.n_letters)
        top = ell + sub.max_image_len
        self.dtype = code_dtype(self.base, top)
        self.pows = np.array([self.base**k for k in range(top + 1)], dtype=self.dtype)
        self.empty = np.zeros(0, dtype=self.dtype)
        # A letter's windows grow from the empty word by the tails of its
        # images, one per (image, offset); longer words grow by images.
        tails = [[w[o:] for w in rule.images for o in range(len(w))] for rule in sub.rules]
        self.tails = image_table(tails, self.base, self.dtype)
        self.images = image_table([rule.images for rule in sub.rules], self.base, self.dtype)
        # Live partial windows of every processed word of length m < ell:
        # the sorted codes of the words that have partials, closed by the
        # sentinel b^m, each word's first row, and per row a packed partial
        # and its length; the empty word's one partial is itself.
        codes = np.arange(2).astype(self.dtype)
        empty_word = (codes, np.arange(2), self.pows[:1], np.zeros(1, dtype=np.int16))
        self.live = {0: empty_word}
        self.work = 0

    def run(self) -> tuple[dict[int, np.ndarray], dict[int, int]]:
        ell = self.ell
        known = {m: self.empty for m in range(1, ell + 1)}
        known[1] = np.arange(self.sub.n_letters).astype(self.dtype)
        batch = {1: known[1]}
        round_added: dict[int, int] = {}
        rounds = 0
        while batch:
            rounds += 1
            windows = self._round(batch, rounds)
            batch = {}
            carry = self.empty
            for m in range(ell, 0, -1):
                if len(windows[m]) == len(carry) == 0:
                    continue
                # unknown factors of length m: windows of that length, and
                # prefixes and suffixes of the unknown factors one longer
                parts = (windows[m], carry // self.base, carry % self.pows[m])
                cand = _unique(np.concatenate(parts))
                fresh = cand[~_member(known[m], cand)]
                if len(fresh):
                    known[m] = np.sort(np.concatenate((known[m], fresh)))
                    round_added[m] = rounds
                    batch[m] = fresh
                carry = fresh
            batch = dict(sorted(batch.items()))
        # Every letter of a primitive substitution occurs in some window,
        # so the known words are exactly the factors of the windows.
        stabilized_at = {m: round_added.get(m, 0) for m in range(1, ell + 1)}
        return known, stabilized_at

    # -- one round --------------------------------------------------

    def _round(self, batch: dict[int, np.ndarray], rounds: int) -> dict[int, np.ndarray]:
        """Process one batch; return its emitted windows per length."""
        ell = self.ell
        chunks: list[np.ndarray] = []
        for m, words in batch.items():
            table = self.tails if m == 1 else self.images
            # each word extends its prefix's live partials by the images
            # of its last letter
            codes, starts = self.live[m - 1][:2]
            prefix = words // self.base
            at = np.searchsorted(codes, prefix)
            lo = starts[at]
            hi = starts[at + (codes[at] == prefix)]
            last = (words % self.base).astype(np.int64)
            work = self.work + np.cumsum((hi - lo) * table[0][last])
            if work[-1] > self.budget:
                first = int(np.argmax(work > self.budget))
                raise BudgetExceededError(
                    f"language closure to length {ell}: {int(work[first])} window extensions "
                    f"in round {rounds}",
                    self.budget,
                )
            self._extend(m, table, words, lo, hi, last, chunks)
            self.work = int(work[-1])
        windows = _unique(np.concatenate(chunks)) if chunks else self.empty
        edges = np.searchsorted(windows, self.pows[: ell + 2])
        return {
            m: windows[edges[m] : edges[m + 1]] - self.pows[m] for m in range(1, ell + 1)
        }

    # -- extensions -------------------------------------------------

    def _extend(self, m: int, table, words, lo, hi, last, chunks: list[np.ndarray]) -> None:
        """Extend the words' stems (rows lo..hi of the length m-1 index)
        by the images of their last letters, in chunks; emitted windows
        go to ``chunks``, live partials into the length-m index."""
        count_of, first_of, img_code, img_len = table
        stem_packed, stem_len = self.live[m - 1][2:]
        ell, pows = self.ell, self.pows
        stems = hi - lo
        ext = stems * count_of[last]
        ends = np.cumsum(ext)
        stored = []
        i = 0
        while i < len(words):
            j = max(i + 1, int(np.searchsorted(ends, ends[i] - ext[i] + _CHUNK, side="right")))
            # one row per (word, stem), then one per (stem, image)
            owner, stem = fan_out(np.arange(i, j), stems, lo)
            row, image = fan_out(last[i:j][owner], count_of, first_of)
            stem, size = stem[row], img_len[image]
            grown = stem_packed[stem] * pows[size] + img_code[image]
            length = stem_len[stem] + size
            chunks.append(_unique(grown // pows[np.maximum(length - ell, 0)]))
            if len(chunks) > 16:
                chunks[:] = [_unique(np.concatenate(chunks))]
            if m < ell:
                keep = length < ell
                owner, grown, length = owner[row[keep]], grown[keep], length[keep]
                order = np.lexsort((grown, owner))
                owner, grown, length = owner[order], grown[order], length[order]
                first = np.ones(len(owner), dtype=bool)
                first[1:] = (owner[1:] != owner[:-1]) | (grown[1:] != grown[:-1])
                counts = np.bincount(owner[first], minlength=j - i)
                stored.append((counts, grown[first], length[first]))
            i = j
        if m < ell:
            self._store(m, words, stored)

    def _store(self, m: int, words: np.ndarray, parts) -> None:
        """Merge the chunks' (row count per word, partials, lengths) of
        ``words`` into the index of length-m words, to which they are all
        new; words without partials stay out of it."""
        if len(parts) == 1:
            counts, packed, lengths = parts[0]
        else:
            counts, packed, lengths = (np.concatenate(column) for column in zip(*parts))
        has = counts > 0
        words, sizes = words[has], counts[has]
        if m in self.live:
            old_codes, old_starts, old_packed, old_lengths = self.live[m]
            at = np.searchsorted(old_codes, words)
            rows = np.repeat(old_starts[at], sizes) + np.arange(len(packed))
            fresh = _mask(len(old_packed) + len(packed), rows)
            packed = _merge(old_packed, packed, fresh)
            lengths = _merge(old_lengths, lengths, fresh)
            fresh = _mask(len(old_codes) + len(words), at + np.arange(len(words)))
            sizes = _merge(old_starts[1:] - old_starts[:-1], sizes, fresh[:-1])
            codes = _merge(old_codes, words, fresh)
        else:
            codes = np.concatenate((words, self.pows[m : m + 1]))
        starts = np.zeros(len(codes), dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        self.live[m] = (codes, starts, packed, lengths)


def _mask(size: int, spots: np.ndarray) -> np.ndarray:
    """A boolean array of ``size`` entries, set at ``spots``."""
    mask = np.zeros(size, dtype=bool)
    mask[spots] = True
    return mask


def _merge(old: np.ndarray, new: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``new``'s entries where ``fresh`` is set, ``old``'s elsewhere, in order."""
    out = np.empty(len(fresh), dtype=old.dtype)
    out[fresh] = new
    out[~fresh] = old
    return out


def legal_words(
    sub: RandomSubstitution,
    ell: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LanguageTable:
    """Language table holding exactly the legal words of lengths 1..ell.

    A passed ``table`` is extended under ``budget`` when it is too short.
    """
    if table is None:
        return LanguageTable(sub, ell, budget=budget)
    if table.sub is not sub and not same_support(table.sub, sub):
        raise ValueError("table was built for a substitution with a different support")
    return table.extend(ell, budget)


def is_legal(table: LanguageTable, word: Word) -> bool:
    """Membership of ``word`` in the legal language (extends the table
    when the word is longer than what has been computed so far)."""
    return word in table


def complexity(table: LanguageTable, ell_max: int) -> list[int]:
    """Number of legal words of each length 1..ell_max."""
    table.extend(ell_max)
    return [table.count(m) for m in range(1, ell_max + 1)]
