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

Spanning-window sets are computed incrementally: the live partial windows
of u extend those of u minus its last letter, so every word is processed
once and merging keeps the state space bounded by the language itself
instead of the exponential number of realisations.
"""

from __future__ import annotations

from collections import deque

from .core import DEFAULT_BUDGET, RandomSubstitution, Word, same_support, subwords
from .errors import BudgetExceededError, EmptySubshiftError, NotPrimitiveError
from .matrices import is_primitive


def is_empty_subshift(sub: RandomSubstitution) -> bool:
    """True iff every realisation of every letter image has length 1.

    The characterisation is only valid for primitive substitutions, so
    anything else is rejected.
    """
    if not is_primitive(sub):
        raise NotPrimitiveError("emptiness test requires a primitive substitution")
    return sub.max_image_len == 1


class LanguageTable:
    """Legal words of every length up to ``max_len``, plus per-length
    stabilisation rounds of the closure that produced them.

    Tables are built single-threaded and are safe for concurrent reads
    afterwards; ``extend`` mutates in place and re-runs the closure.
    """

    def __init__(self, sub: RandomSubstitution, max_len: int, budget: int = DEFAULT_BUDGET):
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        self.sub = sub
        self.budget = budget
        self.max_len = 0
        self.stabilized_at: dict[int, int] = {}
        self._by_len: dict[int, tuple[Word, ...]] = {}
        self._sets: dict[int, frozenset[Word]] = {}
        self.extend(max_len)

    def extend(self, max_len: int) -> "LanguageTable":
        if max_len > self.max_len:
            self._close(max_len)
        return self

    def words(self, length: int) -> tuple[Word, ...]:
        """Legal words of one length in canonical (lexicographic) order."""
        if length < 1:
            raise ValueError("length must be at least 1")
        self.extend(length)
        return self._by_len.get(length, ())

    def count(self, length: int) -> int:
        return len(self.words(length))

    def __contains__(self, word: Word) -> bool:
        if not word:
            return False
        self.extend(len(word))
        return word in self._sets.get(len(word), frozenset())

    # -- closure ------------------------------------------------------

    def _close(self, ell: int) -> None:
        sub = self.sub
        if is_empty_subshift(sub):
            raise EmptySubshiftError(
                "empty subshift: all images have length 1, no legal words beyond letters"
            )
        rules = sub.rules
        budget = self.budget
        work = 0

        # Live partial windows of each word: suffixes (after an anchor
        # offset inside the first letter's image) of realisations of the
        # word's image that are still shorter than ell.
        live: dict[Word, tuple[Word, ...]] = {}
        emitted_of: dict[Word, frozenset[Word]] = {}

        def process(word: Word) -> frozenset[Word]:
            """Live partials and emitted spanning windows, memoised."""
            if word in emitted_of:
                return emitted_of[word]
            nonlocal work
            # Emitting only the longest window per branch is enough: the
            # merge step below closes every new word under subwords.
            emitted: set[Word] = set()
            if len(word) == 1:
                partials: set[Word] = set()
                rule = rules[ord(word)]
                for image in rule.images:
                    for offset in range(len(image)):
                        tail = image[offset:]
                        work += 1
                        emitted.add(tail[: min(ell, len(tail))])
                        if len(tail) < ell:
                            partials.add(tail)
            else:
                process(word[:-1])  # ensures live[prefix] exists
                partials = set()
                rule = rules[ord(word[-1])]
                for stem in live[word[:-1]]:
                    for image in rule.images:
                        grown = stem + image
                        work += 1
                        emitted.add(grown[: min(ell, len(grown))])
                        if len(grown) < ell:
                            partials.add(grown)
            if work > budget:
                raise BudgetExceededError(
                    f"language closure to length {ell}: {work} window extensions "
                    f"in round {rounds}",
                    budget,
                )
            live[word] = tuple(sorted(partials))
            result = frozenset(emitted)
            emitted_of[word] = result
            return result

        known: set[Word] = set()
        derived: set[Word] = set()
        round_added: dict[int, int] = {}
        frontier: list[Word] = sorted(chr(i) for i in range(sub.n_letters))
        known.update(frontier)
        rounds = 0
        queue = deque(frontier)
        while queue:
            rounds += 1
            fresh: set[Word] = set()
            for _ in range(len(queue)):
                word = queue.popleft()
                for window in process(word):
                    if window not in known:
                        fresh.add(window)
                    if window not in derived:
                        derived.add(window)
                        for piece in subwords(window):
                            derived.add(piece)
                            if piece not in known:
                                fresh.add(piece)
                emitted_of[word] = frozenset()  # merged; free the memo
            for word in sorted(fresh):
                known.add(word)
                round_added[len(word)] = rounds
                queue.append(word)

        by_len: dict[int, list[Word]] = {m: [] for m in range(1, ell + 1)}
        for word in derived:
            if len(word) <= ell:
                by_len[len(word)].append(word)
        self._by_len = {m: tuple(sorted(ws)) for m, ws in by_len.items()}
        self._sets = {m: frozenset(ws) for m, ws in self._by_len.items()}
        self.stabilized_at = {m: round_added.get(m, 0) for m in range(1, ell + 1)}
        self.max_len = ell


def legal_words(
    sub: RandomSubstitution,
    ell: int,
    table: LanguageTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> LanguageTable:
    """Language table holding exactly the legal words of lengths 1..ell."""
    if table is None:
        return LanguageTable(sub, ell, budget=budget)
    if table.sub is not sub and not same_support(table.sub, sub):
        raise ValueError("table was built for a substitution with a different support")
    return table.extend(ell)


def is_legal(table: LanguageTable, word: Word) -> bool:
    """Membership of ``word`` in the legal language (extends the table
    when the word is longer than what has been computed so far)."""
    return word in table


def complexity(table: LanguageTable, ell_max: int) -> list[int]:
    """Number of legal words of each length 1..ell_max."""
    table.extend(ell_max)
    return [table.count(m) for m in range(1, ell_max + 1)]
