"""Alphabets, words, and random substitutions.

A random substitution maps each letter to a finite weighted set of
non-empty image words; applying it to a word substitutes every letter
independently and concatenates the results.  Words are stored internally
as strings whose characters are ``chr(letter_index)``, so they sort in
canonical (letter-index lexicographic) order and pack tightly into sets.
Everything in this module is immutable after construction and all
operations are pure, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadProbabilityError,
    BudgetExceededError,
    EmptyImageError,
    SpecSyntaxError,
    UnknownLetterError,
)

# A word over an Alphabet: each character is chr(index of the letter).
Word = str

PROB_TOL = 1e-9
# The one work cap of every enumeration: realisations and language closure.
DEFAULT_BUDGET = 10**7
# Power-iteration tolerance (matrix, freq) and the scan's grid spread (ergodicity);
# here rather than in matrices and induced, so that the CLI parser loads no numpy.
DEFAULT_PF_TOL = 1e-12
DEFAULT_SCAN_TOL = 1e-6

_RESERVED = set("#:|.,")


class Alphabet:
    """An ordered finite set of distinct letter tokens."""

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Sequence[str]):
        letters = tuple(letters)
        if not letters:
            raise SpecSyntaxError("alphabet must contain at least one letter")
        for tok in letters:
            if not tok:
                raise SpecSyntaxError("alphabet letters must be non-empty tokens")
            bad = set(tok) & _RESERVED
            if bad or any(c.isspace() for c in tok):
                raise SpecSyntaxError(f"letter {tok!r} contains a reserved character")
        if len(set(letters)) != len(letters):
            raise SpecSyntaxError("alphabet letters must be pairwise distinct")
        self.letters = letters
        self._index = {tok: i for i, tok in enumerate(letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.letters)})"

    @property
    def needs_dots(self) -> bool:
        """True when some letter token has more than one character."""
        return any(len(tok) > 1 for tok in self.letters)

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise UnknownLetterError(f"unknown letter {letter!r}") from None

    def encode(self, tokens: Iterable[str]) -> Word:
        return "".join(chr(self.index(tok)) for tok in tokens)

    def decode(self, word: Word) -> tuple[str, ...]:
        return tuple(self.letters[ord(c)] for c in word)

    def word(self, text: str) -> Word:
        """Parse a word written in the spec image syntax.

        Single-character alphabets use plain concatenation (``aba``);
        dotted form (``ab.cd.ab``) is accepted always and required when
        some letter token is multi-character.
        """
        if not text:
            raise EmptyImageError("empty word")
        if "." in text:
            tokens = text.split(".")
            if any(not t for t in tokens):
                raise EmptyImageError(f"empty component in dotted word {text!r}")
            return self.encode(tokens)
        if text in self._index:
            return chr(self._index[text])
        if self.needs_dots:
            raise SpecSyntaxError(
                f"word {text!r} must be dotted: the alphabet has multi-character letters"
            )
        return self.encode(text)

    def format_word(self, word: Word) -> str:
        tokens = self.decode(word)
        return ".".join(tokens) if self.needs_dots else "".join(tokens)


class Rule(NamedTuple):
    """Images and probabilities for one source letter.

    Image words are pairwise distinct (duplicates are merged at parse
    time with probabilities summed) and kept in declaration order.
    """

    source: int
    images: tuple[Word, ...]
    probabilities: tuple[float, ...]

    @property
    def arity(self) -> int:
        return len(self.images)

    def validate(self) -> None:
        if not self.images:
            raise SpecSyntaxError("rule needs at least one image")
        if len(set(self.images)) != len(self.images):
            raise SpecSyntaxError("rule images must be distinct after merging")
        for w in self.images:
            if not w:
                raise EmptyImageError("image words must be non-empty")
        for p in self.probabilities:
            if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
                raise BadProbabilityError(f"probability {p!r} outside [0, 1]")
        total = sum(self.probabilities)
        if abs(total - 1.0) > PROB_TOL:
            raise BadProbabilityError(f"rule probabilities sum to {total!r}, expected 1")


class RandomSubstitution:
    """A random substitution: one weighted rule per alphabet letter."""

    __slots__ = ("alphabet", "rules", "max_image_len", "min_image_len")

    def __init__(self, alphabet: Alphabet, rules: Sequence[Rule]):
        rules = tuple(rules)
        if len(rules) != len(alphabet):
            raise SpecSyntaxError(
                f"need exactly one rule per letter ({len(alphabet)}), got {len(rules)}"
            )
        for i, rule in enumerate(rules):
            if rule.source != i:
                raise SpecSyntaxError("rules must be listed in alphabet order")
            rule.validate()
        self.alphabet = alphabet
        self.rules = rules
        lengths = [len(w) for rule in rules for w in rule.images]
        self.max_image_len = max(lengths)
        self.min_image_len = min(lengths)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RandomSubstitution)
            and self.alphabet == other.alphabet
            and self.rules == other.rules
        )

    def __repr__(self) -> str:
        return f"RandomSubstitution({serialize(self)!r})"

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    @property
    def is_deterministic(self) -> bool:
        return all(rule.arity == 1 for rule in self.rules)

    @property
    def is_degenerate(self) -> bool:
        """True when some image carries probability zero."""
        return any(p == 0.0 for rule in self.rules for p in rule.probabilities)

    def rule(self, letter: int | str) -> Rule:
        return self.rules[_letter_index(self, letter)]

    def expected_image_lengths(self) -> list[float]:
        """Expected length of the image of each letter."""
        return [
            sum(p * len(w) for w, p in zip(r.images, r.probabilities)) for r in self.rules
        ]


def _letter_index(sub: RandomSubstitution, letter: int | str) -> int:
    """The index of a letter given by its token or its index."""
    if isinstance(letter, str):
        return sub.alphabet.index(letter)
    if not 0 <= letter < sub.n_letters:
        raise UnknownLetterError(f"letter index {letter!r} outside 0..{sub.n_letters - 1}")
    return letter


def same_support(a: RandomSubstitution, b: RandomSubstitution) -> bool:
    """True when the two substitutions have the same alphabet and image
    sets (probabilities may differ); such substitutions share a language."""
    return a.alphabet == b.alphabet and all(
        ra.images == rb.images for ra, rb in zip(a.rules, b.rules)
    )


def with_probabilities(
    sub: RandomSubstitution, assignment: dict[str, Sequence[float]]
) -> RandomSubstitution:
    """Return a copy of ``sub`` with the probability vectors of the named
    letters replaced; image sets and their declaration order are kept."""
    rules = []
    for rule in sub.rules:
        letter = sub.alphabet.letters[rule.source]
        if letter in assignment:
            probs = tuple(float(p) for p in assignment[letter])
            if len(probs) != rule.arity:
                raise BadProbabilityError(
                    f"rule {letter} has {rule.arity} images, got {len(probs)} probabilities"
                )
            rules.append(Rule(rule.source, rule.images, probs))
        else:
            rules.append(rule)
    unknown = set(assignment) - set(sub.alphabet.letters)
    if unknown:
        raise UnknownLetterError(f"unknown letters in assignment: {sorted(unknown)}")
    return RandomSubstitution(sub.alphabet, rules)


# ---------------------------------------------------------------------------
# Spec text format
# ---------------------------------------------------------------------------
#
#   # comment to end of line
#   alphabet: a b
#   rule a -> ab:0.5 | ba:0.5
#   rule b -> a:1
#
# Probabilities are decimal literals or fractions like 1/3.  A rule may omit
# the :prob part on all of its images, which means uniform probabilities.
# When some letter token is multi-character the images are dotted, e.g.
# ab.cd.ab; otherwise images are plain concatenations of one-char letters.


def parse_probability(text: str, line: int | None = None) -> float:
    text = text.strip()
    try:
        if "/" in text:
            from fractions import Fraction  # loaded only for a fraction
            value = float(Fraction(text))
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise BadProbabilityError(f"cannot parse probability {text!r}", line) from None
    if not (0.0 <= value <= 1.0):
        raise BadProbabilityError(f"probability {text!r} outside [0, 1]", line)
    return value


def _parse_image(alphabet: Alphabet, text: str, line: int) -> Word:
    try:
        return alphabet.word(text)
    except UnknownLetterError as exc:
        raise UnknownLetterError(f"in image {text!r}: {exc}", line) from None
    except EmptyImageError:
        raise EmptyImageError(f"empty image in {text!r}", line) from None
    except SpecSyntaxError as exc:
        raise SpecSyntaxError(str(exc), line) from None


def parse_spec(text: str) -> RandomSubstitution:
    """Parse the on-disk spec format into a validated RandomSubstitution."""
    alphabet: Alphabet | None = None
    pending: dict[int, Rule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if alphabet is None:
            if not stripped.startswith("alphabet:"):
                raise SpecSyntaxError(
                    "spec must start with an 'alphabet:' line", lineno, raw.find(stripped) + 1
                )
            try:
                alphabet = Alphabet(stripped[len("alphabet:"):].split())
            except SpecSyntaxError as exc:
                raise SpecSyntaxError(str(exc), lineno) from None
            continue
        if not stripped.startswith("rule "):
            raise SpecSyntaxError(f"expected a 'rule' line, got {stripped!r}", lineno)
        body = stripped[len("rule "):]
        if "->" not in body:
            raise SpecSyntaxError("rule line is missing '->'", lineno, raw.find(body) + 1)
        lhs, rhs = body.split("->", 1)
        letter = lhs.strip()
        try:
            source = alphabet.index(letter)
        except UnknownLetterError:
            raise UnknownLetterError(f"rule for unknown letter {letter!r}", lineno) from None
        if source in pending:
            raise SpecSyntaxError(f"duplicate rule for letter {letter!r}", lineno)
        alts = [alt.strip() for alt in rhs.split("|")]
        if any(not alt for alt in alts):
            raise SpecSyntaxError("empty alternative in rule", lineno)
        images: list[Word] = []
        probs: list[float | None] = []
        for alt in alts:
            if ":" in alt:
                image_text, prob_text = alt.rsplit(":", 1)
                images.append(_parse_image(alphabet, image_text.strip(), lineno))
                probs.append(parse_probability(prob_text, lineno))
            else:
                images.append(_parse_image(alphabet, alt, lineno))
                probs.append(None)
        if any(p is None for p in probs):
            if any(p is not None for p in probs):
                raise BadProbabilityError(
                    "a rule must give probabilities for all images or for none", lineno
                )
            probs = [1.0 / len(images)] * len(images)
        merged: dict[Word, float] = {}
        for w, p in zip(images, probs):
            merged[w] = merged.get(w, 0.0) + p  # duplicate images merge
        rule = Rule(source, tuple(merged), tuple(merged.values()))
        try:
            rule.validate()
        except BadProbabilityError as exc:
            raise BadProbabilityError(f"rule {letter}: {exc}", lineno) from None
        pending[source] = rule
    if alphabet is None:
        raise SpecSyntaxError("empty spec: no alphabet line found")
    missing = [alphabet.letters[i] for i in range(len(alphabet)) if i not in pending]
    if missing:
        raise SpecSyntaxError(f"missing rules for letters: {' '.join(missing)}")
    return RandomSubstitution(alphabet, [pending[i] for i in range(len(alphabet))])


def format_float(x: float) -> str:
    """Format to 12 significant digits, the package-wide output precision."""
    return f"{x:.12g}"


def _format_images(sub: RandomSubstitution, rule: Rule) -> str:
    """A rule's right-hand side in the spec grammar: ``image:p | image:p ...``."""
    return " | ".join(
        f"{sub.alphabet.format_word(w)}:{format_float(p)}"
        for w, p in zip(rule.images, rule.probabilities)
    )


def serialize(sub: RandomSubstitution) -> str:
    """Emit the spec grammar; parse_spec(serialize(sub)) round-trips."""
    lines = ["alphabet: " + " ".join(sub.alphabet.letters)]
    for rule in sub.rules:
        lines.append(f"rule {sub.alphabet.letters[rule.source]} -> {_format_images(sub, rule)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Realisations
# ---------------------------------------------------------------------------


def _image_budget_error(word: Word, position: int, count: int, budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"image of a word of length {len(word)}: {count} distinct partial "
        f"realisations after {position} of its letters",
        budget,
    )


def _power_budget_error(
    sub: RandomSubstitution, letter: int, k: int, level: int, count: int, budget: int
) -> BudgetExceededError:
    return BudgetExceededError(
        f"power {k} of letter {sub.alphabet.letters[letter]}: {count} distinct "
        f"realisations at level {level}",
        budget,
    )


def _within_power(
    exc: BudgetExceededError, sub: RandomSubstitution, letter: int, k: int, level: int
) -> BudgetExceededError:
    """An image expansion's budget error, prefixed with the power
    expansion and level it ran in."""
    return BudgetExceededError(
        f"power {k} of letter {sub.alphabet.letters[letter]}, level {level}: {exc.detail}",
        exc.budget,
    )


def _realisation_map(sub: RandomSubstitution, word: Word, budget: int) -> dict[Word, float]:
    """Distinct realisations of the image of ``word`` with aggregated
    probabilities, keyed in lexicographic order of per-letter choices."""
    partial: dict[Word, float] = {"": 1.0}
    for position, c in enumerate(word, start=1):
        rule = sub.rules[ord(c)]
        grown: dict[Word, float] = {}
        for prefix, acc in partial.items():
            for image, p in zip(rule.images, rule.probabilities):
                joined = prefix + image
                grown[joined] = grown.get(joined, 0.0) + acc * p
        if len(grown) > budget:
            raise _image_budget_error(word, position, len(grown), budget)
        partial = grown
    return partial


def realisations(
    sub: RandomSubstitution, word: Word, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[Word, float]]:
    """Yield every distinct realisation of the image of ``word`` exactly once
    with its aggregated probability; the probabilities sum to 1."""
    if not word:
        raise ValueError("realisations of the empty word are not defined")
    return iter(_realisation_map(sub, word, budget).items())


def power_realisations(
    sub: RandomSubstitution, letter: int | str, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[Word, float]]:
    """Distinct realisations of the k-th image of a single letter."""
    if k < 0:
        raise ValueError("power must be non-negative")
    letter = _letter_index(sub, letter)
    dist: dict[Word, float] = {chr(letter): 1.0}
    for level in range(1, k + 1):
        grown: dict[Word, float] = {}
        for w, p in dist.items():
            try:
                image = _realisation_map(sub, w, budget)
            except BudgetExceededError as exc:
                raise _within_power(exc, sub, letter, k, level) from exc
            for v, q in image.items():
                grown[v] = grown.get(v, 0.0) + p * q
            if len(grown) > budget:
                raise _power_budget_error(sub, letter, k, level, len(grown), budget)
        dist = grown
    return iter(dist.items())


def realisation_words(
    sub: RandomSubstitution, word: Word, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """Lazily yield the distinct realisations of the image of ``word`` in
    exactly the order of ``realisations``, without probabilities.

    That order is the order of each realisation's lexicographically least
    sequence of per-letter image choices.  A depth-first walk over the
    images in declaration order meets the sequences in that order, and it
    may prune a (position, prefix) pair it has seen before: everything
    below it was already yielded from a smaller sequence.  The walk keeps
    an explicit stack, so long words need no deep recursion.  The budget
    caps the distinct prefixes generated at each position.
    """
    if not word:
        raise ValueError("realisations of the empty word are not defined")
    n = len(word)
    # Reversed, so that popping the stack takes the first image first.
    choices = [sub.rules[ord(c)].images[::-1] for c in word]
    last = sub.rules[ord(word[-1])].images
    seen: list[set[Word]] = [set() for _ in range(n + 1)]
    done = seen[n]
    stack = [(0, "")]
    while stack:
        position, prefix = stack.pop()
        level = seen[position]
        if prefix in level:
            continue
        level.add(prefix)
        if len(level) > budget:
            raise _image_budget_error(word, position, len(level), budget)
        if position < n - 1:
            stack.extend((position + 1, prefix + image) for image in choices[position])
            continue
        # Most nodes sit at the last position; yielding them here rather
        # than through the stack keeps a full walk as fast as the map.
        for image in last:
            w = prefix + image
            if w not in done:
                done.add(w)
                if len(done) > budget:
                    raise _image_budget_error(word, n, len(done), budget)
                yield w


def power_realisation_words(
    sub: RandomSubstitution, letter: int | str, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """Lazily yield the distinct realisations of the k-th image of a single
    letter in exactly the key order of ``power_realisations``.

    Level j streams the image of each level-(j-1) word, in that level's
    order, and drops the words it has already yielded.  The budget caps
    the distinct words generated at each level, and the distinct prefixes
    of each image as in ``realisation_words``.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    letter = _letter_index(sub, letter)

    def image(w: Word, level: int) -> Iterator[Word]:
        try:
            yield from realisation_words(sub, w, budget)
        except BudgetExceededError as exc:
            raise _within_power(exc, sub, letter, k, level) from exc

    def next_level(words: Iterator[Word], level: int) -> Iterator[Word]:
        seen: set[Word] = set()
        for w in words:
            for v in image(w, level):
                if v not in seen:
                    seen.add(v)
                    if len(seen) > budget:
                        raise _power_budget_error(sub, letter, k, level, len(seen), budget)
                    yield v

    words: Iterator[Word] = iter((chr(letter),))
    for level in range(1, k + 1):
        words = next_level(words, level)
    return words


@functools.lru_cache(maxsize=128)
def _realisation_bounds(rule_images: tuple[tuple[Word, ...], ...], k: int) -> tuple[tuple, tuple]:
    """The images of each letter as tuples of letter indices, and for
    each level j <= k the lengths of the shortest and the longest j-th
    image of every letter.  Memoised, so that testing many words against
    one substitution and power computes them once."""
    images = tuple(tuple(tuple(map(ord, v)) for v in vs) for vs in rule_images)
    ones = (1,) * len(images)
    bounds = [(ones, ones)]
    for _ in range(k):
        lo, hi = bounds[-1]
        bounds.append((
            tuple(min(sum(lo[c] for c in v) for v in vs) for vs in images),
            tuple(max(sum(hi[c] for c in v) for v in vs) for vs in images),
        ))
    return images, tuple(bounds)


def is_realisation(sub: RandomSubstitution, letter: int | str, k: int, word: Word) -> bool:
    """True iff ``word`` is a realisation of the k-th image of ``letter``,
    that is a key of ``power_realisations(sub, letter, k)``; images of
    probability zero count.

    Nothing is enumerated.  A segmentation dynamic programme uses that
    ``word`` lies in the k-th image of a iff some image v of a splits it
    into |v| consecutive pieces with piece i in the (k-1)-th image of v_i.
    Membership of word[start:end] is memoised on (letter, level, start,
    end), and piece lengths are cut to the shortest and longest
    realisation lengths of each level, which are memoised across calls.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    letter = _letter_index(sub, letter)
    images, bounds = _realisation_bounds(tuple(rule.images for rule in sub.rules), k)
    lo, hi = bounds[k]
    if not lo[letter] <= len(word) <= hi[letter]:
        return False

    @functools.cache
    def member(b: int, level: int, start: int, end: int) -> bool:
        lo, hi = bounds[level]
        if not lo[b] <= end - start <= hi[b]:
            return False
        if level == 0:
            return ord(word[start]) == b
        lo, hi = bounds[level - 1]
        for image in images[b]:
            ends = {start}  # where the pieces placed so far can end
            for c in image:
                ends = {
                    cut
                    for s in ends
                    for cut in range(s + lo[c], min(s + hi[c], end) + 1)
                    if member(c, level - 1, s, cut)
                }
            if end in ends:
                return True
        return False

    return member(letter, k, 0, len(word))


def subwords(word: Word, max_len: int | None = None) -> set[Word]:
    """All non-empty subwords of ``word`` (optionally only up to max_len)."""
    n = len(word)
    top = n if max_len is None else min(max_len, n)
    return {word[i : i + m] for m in range(1, top + 1) for i in range(n - m + 1)}


def letter_counts(word: Word, n_letters: int) -> list[int]:
    return [word.count(chr(i)) for i in range(n_letters)]
