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
codec, shared with the sampler's window counter.

Rounds.  Round r processes, as one batch, every word that became known
in round r-1 (round 1 processes the letters).  Within the batch, lengths
go up: the live partial windows of u are those of u minus its last
letter, found by ``searchsorted`` in a table sorted by word code, each
extended by every image of u's last letter.  Partials shorter than the
bound stay live; every extension emits its window, cut to the bound.
The round's fresh words are the unknown factors of its windows, computed
top-down length by length: an unknown factor of length L is an emitted
window of length L or a prefix or suffix of an unknown word of length
L+1, tested against a sorted array of the known words per length.

Bounded memory.  Extensions run in chunks of about 2^15 (partial, image)
pairs; each chunk deduplicates its live partials per word and its
windows before they are kept.

Budget.  Work is one unit per (partial, image) extension, charged word
by word in lexicographic order within a round, as a word-at-a-time queue
would.  A word's work is known before its extensions run, so once the
charged work passes the budget, only the words before that point in the
order are extended further; the error names the exact work at the first
word that crossed the budget.

Overflow.  Codes are int64 while ``b^(ell + longest image)`` stays below
2^62; beyond that the same code runs on numpy arrays of Python ints.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_BUDGET, RandomSubstitution, Word, same_support
from .errors import BudgetExceededError, EmptySubshiftError, NotPrimitiveError
from .matrices import is_primitive

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
    codes = np.zeros(letters.shape[0], dtype=dtype)
    for t in range(letters.shape[1]):
        codes = codes * base + letters[:, t].astype(dtype)
    return codes


def decode_codes(codes: np.ndarray, length: int, base: int) -> list[Word]:
    """Words of one length from their codes, in the order given."""
    digits = np.empty((len(codes), length), dtype="<u4")
    rest = codes
    for t in range(length - 1, -1, -1):
        digits[:, t] = rest % base
        rest = rest // base
    text = digits.tobytes().decode("utf-32-le")
    return [text[i : i + length] for i in range(0, len(text), length)]


def _unique(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values; sorting beats ``np.unique``'s hashing here."""
    codes = np.sort(codes)
    if len(codes) < 2:
        return codes
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


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

    def words(self, length: int) -> tuple[Word, ...]:
        """Legal words of one length in canonical (lexicographic) order."""
        if length < 1:
            raise ValueError("length must be at least 1")
        self.extend(length)
        if length not in self._words:
            self._words[length] = tuple(decode_codes(self._codes[length], length, self._base))
        return self._words[length]

    def count(self, length: int) -> int:
        if length < 1:
            raise ValueError("length must be at least 1")
        self.extend(length)
        return len(self._codes[length])

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
            raise EmptySubshiftError(
                "empty subshift: all images have length 1, no legal words beyond letters"
            )
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
        self.tails = self._image_table(
            [[w[o:] for w in rule.images for o in range(len(w))] for rule in sub.rules]
        )
        self.images = self._image_table([rule.images for rule in sub.rules])
        # Live partial windows of every processed word of length m < ell,
        # as parallel arrays (word code, packed partial, partial length)
        # sorted by word code; the empty word's one partial is itself.
        empty_word = (np.zeros(1, dtype=self.dtype), self.pows[:1], np.zeros(1, dtype=np.int16))
        self.live = {0: empty_word}
        self.work = 0

    def _image_table(self, words_per_letter):
        """(count, code, length, base**length) per letter, padded."""
        width = max(len(ws) for ws in words_per_letter)
        count = np.array([len(ws) for ws in words_per_letter], dtype=np.int64)
        code = np.zeros((len(words_per_letter), width), dtype=self.dtype)
        length = np.zeros((len(words_per_letter), width), dtype=np.int16)
        for a, ws in enumerate(words_per_letter):
            for k, w in enumerate(ws):
                code[a, k] = encode_word(w, self.base)
                length[a, k] = len(w)
        return count, code, length, self.pows[length]

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
        before = self.work
        charged = 0
        ranks: dict[int, np.ndarray] | None = None
        works: dict[int, np.ndarray] = {}
        limit: int | None = None  # only words ranked below are extended
        chunks: list[np.ndarray] = []
        for m, words in batch.items():
            table = self.tails if m == 1 else self.images
            # each word extends its prefix's live partials by the images
            # of its last letter
            keys = self.live[m - 1][0]
            prefix = words // self.base
            lo = np.searchsorted(keys, prefix, side="left")
            hi = np.searchsorted(keys, prefix, side="right")
            last = (words % self.base).astype(np.int64)
            works[m] = (hi - lo) * table[0][last]
            charged += int(works[m].sum())
            if before + charged > self.budget:
                if ranks is None:
                    ranks = self._ranks(batch)
                limit = self._first_over(ranks, works, before, limit)
            if limit is not None:
                select = ranks[m] < limit
                words, lo, hi, last = words[select], lo[select], hi[select], last[select]
            self._extend(m, table, words, lo, hi, last, chunks)
        if limit is not None:
            cum = before + np.cumsum(self._flat_works(ranks, works, limit + 1))
            first = int(np.argmax(cum > self.budget))
            raise BudgetExceededError(
                f"language closure to length {ell}: {int(cum[first])} window extensions "
                f"in round {rounds}",
                self.budget,
            )
        self.work = before + charged
        windows = _unique(np.concatenate(chunks)) if chunks else self.empty
        edges = np.searchsorted(windows, self.pows[: ell + 2])
        return {
            m: windows[edges[m] : edges[m + 1]] - self.pows[m] for m in range(1, ell + 1)
        }

    def _ranks(self, batch: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Position of every batch word in lexicographic order."""
        lengths = np.concatenate([np.full(len(w), m) for m, w in batch.items()])
        aligned = np.concatenate([w * self.pows[self.ell - m] for m, w in batch.items()])
        order = np.lexsort((lengths, aligned))
        flat = np.empty(len(order), dtype=np.int64)
        flat[order] = np.arange(len(order))
        out, start = {}, 0
        for m, w in batch.items():
            out[m] = flat[start : start + len(w)]
            start += len(w)
        return out

    @staticmethod
    def _flat_works(ranks, works, size: int) -> np.ndarray:
        """Known works in lexicographic order (0 where not yet known)."""
        flat = np.zeros(size, dtype=np.int64)
        for m, w in works.items():
            keep = ranks[m] < size
            flat[ranks[m][keep]] = w[keep]
        return flat

    def _first_over(self, ranks, works, before: int, limit: int | None) -> int:
        """Rank of the first word whose known cumulative work passes the
        budget; unknown works count as zero, so the true crossing is at
        or before it."""
        size = sum(len(r) for r in ranks.values()) if limit is None else limit + 1
        cum = before + np.cumsum(self._flat_works(ranks, works, size))
        over = cum > self.budget
        return int(np.argmax(over)) if over.any() else size - 1

    # -- extensions -------------------------------------------------

    def _extend(self, m: int, table, words, lo, hi, last, chunks: list[np.ndarray]) -> None:
        """Extend the words' stems (rows lo..hi of the length m-1 table)
        by the images of their last letters, in chunks; emitted windows
        go to ``chunks``, live partials into the length-m table."""
        count_of, img_code, img_len, img_pow = table
        _keys, stem_packed, stem_len = self.live[m - 1]
        ell, pows = self.ell, self.pows
        ext = (hi - lo) * count_of[last]
        ends = np.cumsum(ext)
        stored = []
        i = 0
        while i < len(words):
            j = max(i + 1, int(np.searchsorted(ends, ends[i] - ext[i] + _CHUNK, side="right")))
            count = hi[i:j] - lo[i:j]
            total = int(count.sum())
            if total:
                # one row per (word, stem), then one per (stem, image)
                offsets = np.cumsum(count) - count
                stem = np.repeat(lo[i:j] - offsets, count) + np.arange(total)
                owner = np.repeat(np.arange(i, j), count)
                letter = last[owner]
                fan = count_of[letter]
                row = np.repeat(np.arange(total), fan)
                image = np.arange(int(fan.sum())) - np.repeat(np.cumsum(fan) - fan, fan)
                stem, owner, letter = stem[row], owner[row], letter[row]
                grown = stem_packed[stem] * img_pow[letter, image] + img_code[letter, image]
                length = stem_len[stem] + img_len[letter, image]
                chunks.append(_unique(grown // pows[np.maximum(length - ell, 0)]))
                if len(chunks) > 16:
                    chunks[:] = [_unique(np.concatenate(chunks))]
                if m < ell:
                    keep = length < ell
                    owner, grown, length = owner[keep], grown[keep], length[keep]
                    order = np.lexsort((grown, owner))
                    owner, grown, length = owner[order], grown[order], length[order]
                    first = np.ones(len(owner), dtype=bool)
                    first[1:] = (owner[1:] != owner[:-1]) | (grown[1:] != grown[:-1])
                    stored.append((words[owner[first]], grown[first], length[first]))
            i = j
        if m < ell:
            self._store(m, stored)

    def _store(self, m: int, parts) -> None:
        """Merge new (word, partial, length) rows, sorted by word, into
        the table of length-m words; their words are all new to it."""
        if parts:
            keys, packed, lengths = (np.concatenate(column) for column in zip(*parts))
        else:
            keys, packed, lengths = self.empty, self.empty, np.zeros(0, dtype=np.int16)
        if m in self.live:
            old_keys, old_packed, old_lengths = self.live[m]
            total = len(old_keys) + len(keys)
            fresh = np.zeros(total, dtype=bool)
            fresh[np.searchsorted(old_keys, keys) + np.arange(len(keys))] = True
            merged = []
            for old, new in ((old_keys, keys), (old_packed, packed), (old_lengths, lengths)):
                out = np.empty(total, dtype=old.dtype)
                out[fresh] = new
                out[~fresh] = old
                merged.append(out)
            keys, packed, lengths = merged
        self.live[m] = (keys, packed, lengths)


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
