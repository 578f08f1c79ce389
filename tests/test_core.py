import math

import pytest

import randsub as rs
from randsub.core import power_realisation_words, realisation_words

FIB_TEXT = "alphabet: a b\nrule a -> ab:0.5 | ba:0.5\nrule b -> a:1\n"


def words_of(sub, pairs):
    return {sub.alphabet.format_word(w): p for w, p in pairs}


class TestParse:
    def test_random_fibonacci_shape(self):
        sub = rs.parse_spec(FIB_TEXT)
        assert sub.alphabet.letters == ("a", "b")
        assert sub.rules[0].arity == 2
        assert sub.rules[1].arity == 1
        assert sub.max_image_len == 2
        assert sub.min_image_len == 1

    def test_identity_substitution(self):
        sub = rs.parse_spec("alphabet: a\nrule a -> a:1\n")
        assert sub.max_image_len == 1
        assert sub.is_deterministic

    def test_duplicate_images_merge(self):
        sub = rs.parse_spec("alphabet: a\nrule a -> aa:0.5 | aa:0.5\n")
        assert [sub.alphabet.format_word(w) for w in sub.rules[0].images] == ["aa"]
        assert sub.rules[0].probabilities == (1.0,)

    def test_comments_blank_lines_fractions_uniform(self):
        sub = rs.parse_spec(
            "# golden-ish\n\nalphabet: x y  # two letters\n"
            "rule x -> xyx | x\n"
            "rule y -> xy:1/3 | y:2/3\n"
        )
        assert sub.rules[0].probabilities == (0.5, 0.5)
        assert sub.rules[1].probabilities[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_multicharacter_letters_dotted(self):
        sub = rs.parse_spec("alphabet: ab cd\nrule ab -> ab.cd:1\nrule cd -> ab:1\n")
        assert sub.alphabet.needs_dots
        assert sub.alphabet.decode(sub.rules[0].images[0]) == ("ab", "cd")
        again = rs.parse_spec(rs.serialize(sub))
        assert rs.serialize(again) == rs.serialize(sub)

    def test_errors(self):
        with pytest.raises(rs.SpecSyntaxError):
            rs.parse_spec("rule a -> a:1\n")
        with pytest.raises(rs.SpecSyntaxError):
            rs.parse_spec("alphabet: a\nnot a rule\n")
        with pytest.raises(rs.SpecSyntaxError):
            rs.parse_spec("alphabet: a\nrule a -> a:1\nrule a -> a:1\n")
        with pytest.raises(rs.SpecSyntaxError):
            rs.parse_spec("alphabet: a b\nrule a -> ab:1\n")  # missing rule b
        with pytest.raises(rs.UnknownLetterError):
            rs.parse_spec("alphabet: a\nrule a -> ab:1\n")
        with pytest.raises(rs.UnknownLetterError):
            rs.parse_spec("alphabet: a\nrule b -> a:1\n")
        with pytest.raises(rs.BadProbabilityError):
            rs.parse_spec("alphabet: a\nrule a -> a:0.4\n")  # sum != 1
        with pytest.raises(rs.BadProbabilityError):
            rs.parse_spec("alphabet: a\nrule a -> a:2\n")  # out of range
        with pytest.raises(rs.BadProbabilityError):
            rs.parse_spec("alphabet: a\nrule a -> aa:0.5 | a\n")  # mixed
        with pytest.raises(rs.EmptyImageError):
            rs.parse_spec("alphabet: a\nrule a -> :1\n")
        with pytest.raises(rs.SpecSyntaxError):
            rs.parse_spec("alphabet: a a\nrule a -> a:1\n")

    def test_error_carries_line_number(self):
        try:
            rs.parse_spec("alphabet: a\nrule a -> a:0.4\n")
        except rs.BadProbabilityError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected BadProbabilityError")


# (spec text, error class, line number or None)
MALFORMED_SPECS = {
    "empty-alphabet": ("alphabet:\nrule a -> a\n", rs.SpecSyntaxError, 1),
    "reserved-character": ("alphabet: a b|c\nrule a -> a\n", rs.SpecSyntaxError, 1),
    "duplicate-letters": ("alphabet: a b a\nrule a -> a\n", rs.SpecSyntaxError, 1),
    "late-bad-alphabet": (
        "# header\n\n  # indented comment\nalphabet: a a\nrule a -> a\n", rs.SpecSyntaxError, 4
    ),
    "empty-dotted-component": (
        "alphabet: ab cd\nrule ab -> ab..cd:1\nrule cd -> ab:1\n", rs.EmptyImageError, 2
    ),
    "undotted-multicharacter": (
        "alphabet: ab cd\nrule ab -> abcd:1\nrule cd -> ab:1\n", rs.SpecSyntaxError, 2
    ),
    "missing-arrow": ("alphabet: a\n\nrule a a:1\n", rs.SpecSyntaxError, 3),
    "empty-alternative": ("alphabet: a\nrule a -> aa | \n", rs.SpecSyntaxError, 2),
    "no-alphabet-line": ("# only a comment\n\n", rs.SpecSyntaxError, None),
    "unparseable-probability": ("alphabet: a\nrule a -> a:x\n", rs.BadProbabilityError, 2),
    "zero-denominator": ("alphabet: a\nrule a -> a:1/0\n", rs.BadProbabilityError, 2),
}


@pytest.mark.parametrize("text, error, line", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
def test_malformed_spec_refused(text, error, line):
    with pytest.raises(error) as info:
        rs.parse_spec(text)
    assert type(info.value) is error
    assert info.value.line == line


def test_unknown_example_name_refused():
    with pytest.raises(KeyError, match="unknown example 'nope'; bundled examples: "):
        rs.get_example("nope")


def test_empty_letter_token_refused():
    with pytest.raises(rs.SpecSyntaxError, match="non-empty"):
        rs.Alphabet(["a", ""])


A, AA = chr(0), chr(0) * 2


@pytest.mark.parametrize(
    "letters, rules, error",
    [
        ("a", [rs.Rule(0, (), ())], rs.SpecSyntaxError),
        ("a", [rs.Rule(0, (A, A), (0.5, 0.5))], rs.SpecSyntaxError),
        ("a", [rs.Rule(0, ("",), (1.0,))], rs.EmptyImageError),
        ("a", [rs.Rule(0, (A, AA), (1.5, -0.5))], rs.BadProbabilityError),
        ("ab", [rs.Rule(0, (A,), (1.0,)), rs.Rule(0, (A,), (1.0,))], rs.SpecSyntaxError),
        ("ab", [rs.Rule(0, (A,), (1.0,))], rs.SpecSyntaxError),
    ],
    ids=["no-image", "duplicate-images", "empty-image", "probability-range", "order", "count"],
)
def test_invalid_rules_refused(letters, rules, error):
    with pytest.raises(error) as info:
        rs.RandomSubstitution(rs.Alphabet(list(letters)), rules)
    assert type(info.value) is error


class TestSerialize:
    def test_round_trip_is_identity_on_canonical_text(self):
        for name in rs.example_names():
            sub = rs.get_example(name)
            text = rs.serialize(sub)
            assert rs.serialize(rs.parse_spec(text)) == text

    def test_round_trip_with_fractions(self):
        sub = rs.parse_spec("alphabet: a\nrule a -> a:1/3 | aa:2/3\n")
        text = rs.serialize(sub)
        assert rs.serialize(rs.parse_spec(text)) == text


class TestRealisations:
    def test_fibonacci_single_letter(self):
        sub = rs.with_probabilities(rs.parse_spec(FIB_TEXT), {"a": [0.25, 0.75]})
        got = words_of(sub, rs.realisations(sub, sub.alphabet.word("a")))
        assert got == {"ab": 0.25, "ba": 0.75}

    def test_three_letter_word_probabilities(self):
        # a -> ab with p, ba with 1-p; b -> aa
        sub = rs.parse_spec("alphabet: a b\nrule a -> ab:0.3 | ba:0.7\nrule b -> aa:1\n")
        got = words_of(sub, rs.realisations(sub, sub.alphabet.word("aba")))
        p, q = 0.3, 0.7
        expect = {"abaaab": p * p, "abaaba": p * q, "baaaab": q * p, "baaaba": q * q}
        assert set(got) == set(expect)
        for w, pr in expect.items():
            assert got[w] == pytest.approx(pr, abs=1e-12)

    def test_deterministic_single_realisation(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        out = list(rs.realisations(sub, sub.alphabet.word("ab")))
        assert len(out) == 1 and out[0][1] == 1.0

    def test_probabilities_sum_to_one_and_lengths_bounded(self):
        sub = rs.parse_spec(FIB_TEXT)
        for text in ["a", "b", "ab", "bab", "aaab"]:
            u = sub.alphabet.word(text)
            pairs = list(rs.realisations(sub, u))
            assert sum(p for _w, p in pairs) == pytest.approx(1.0, abs=1e-9)
            for w, _p in pairs:
                assert sub.min_image_len * len(u) <= len(w) <= sub.max_image_len * len(u)

    def test_concatenation_law(self):
        sub = rs.parse_spec(FIB_TEXT)
        A = sub.alphabet
        u, v = A.word("ab"), A.word("ba")
        left = dict(rs.realisations(sub, u))
        right = dict(rs.realisations(sub, v))
        combined = {}
        for wu, pu in left.items():
            for wv, pv in right.items():
                combined[wu + wv] = combined.get(wu + wv, 0.0) + pu * pv
        direct = dict(rs.realisations(sub, u + v))
        assert set(direct) == set(combined)
        for w in direct:
            assert direct[w] == pytest.approx(combined[w], abs=1e-12)

    def test_empty_word_rejected(self):
        sub = rs.parse_spec(FIB_TEXT)
        with pytest.raises(ValueError):
            list(rs.realisations(sub, ""))

    def test_budget(self):
        sub = rs.get_example("full-shift-2")
        with pytest.raises(rs.BudgetExceededError) as info:
            list(rs.realisations(sub, sub.alphabet.word("0" * 10), budget=100))
        # 4^4 = 256 partials after the fourth letter are the first count over 100.
        assert str(info.value) == (
            "image of a word of length 10: 256 distinct partial realisations "
            "after 4 of its letters (budget 100)"
        )
        # The 4th power of a has 47 realisations, each image of a short word.
        redundant = rs.get_example("redundant-image")
        with pytest.raises(rs.BudgetExceededError) as info:
            list(rs.power_realisations(redundant, "a", 4, budget=46))
        assert str(info.value) == (
            "power 4 of letter a: 47 distinct realisations at level 4 (budget 46)"
        )

    def test_budget_inside_a_power_names_the_power(self):
        # The cube of 1 expands words of length 4 at level 3; one image of
        # such a word outgrows the budget before the level's count does.
        sub = rs.get_example("full-shift-2")
        with pytest.raises(rs.BudgetExceededError) as info:
            list(rs.power_realisations(sub, "1", 3, budget=100))
        assert str(info.value) == (
            "power 3 of letter 1, level 3: image of a word of length 4: 256 "
            "distinct partial realisations after 4 of its letters (budget 100)"
        )
        assert info.value.budget == 100
        with pytest.raises(rs.BudgetExceededError) as info:
            list(power_realisation_words(sub, "1", 3, budget=100))
        assert str(info.value) == (
            "power 3 of letter 1, level 3: image of a word of length 4: 101 "
            "distinct partial realisations after 4 of its letters (budget 100)"
        )


class TestPowerRealisations:
    def test_square_of_section_two_example(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> ab:0.3 | ba:0.7\nrule b -> aa:1\n")
        got = words_of(sub, rs.power_realisations(sub, "a", 2))
        assert set(got) == {"abaa", "baaa", "aaab", "aaba"}
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_power(self):
        sub = rs.parse_spec(FIB_TEXT)
        assert list(rs.power_realisations(sub, "a", 0)) == [(chr(0), 1.0)]

    def test_period_doubling_square_lengths(self):
        sub = rs.get_example("period-doubling")
        for w, _p in rs.power_realisations(sub, "0", 2):
            assert len(w) == 4


class TestRealisationStreams:
    def test_streams_are_lazy_within_budget(self):
        # The image of 0^10 has 4^10 realisations; the first few are
        # generated well within a budget of 100 words per position, and the
        # walk fills the last position first.
        sub = rs.get_example("full-shift-2")
        words = realisation_words(sub, sub.alphabet.word("0" * 10), budget=100)
        first = [sub.alphabet.format_word(next(words)) for _ in range(3)]
        assert first == ["0" * 20, "0" * 19 + "1", "0" * 18 + "10"]
        with pytest.raises(rs.BudgetExceededError, match="101 distinct partial realisations"):
            list(words)

    def test_long_deterministic_word_needs_no_recursion(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        word = sub.alphabet.word("ab" * 1000)
        assert list(realisation_words(sub, word)) == [
            w for w, _p in rs.realisations(sub, word)
        ]

    def test_power_stream_validates_arguments(self):
        sub = rs.parse_spec(FIB_TEXT)
        assert list(power_realisation_words(sub, "b", 0)) == [chr(1)]
        with pytest.raises(ValueError):
            power_realisation_words(sub, "a", -1)
        with pytest.raises(ValueError):
            rs.power_realisations(sub, "a", -1)
        with pytest.raises(ValueError):
            list(realisation_words(sub, ""))


class TestIsRealisation:
    def test_power_zero_and_zero_probability_images(self):
        sub = rs.with_probabilities(rs.parse_spec(FIB_TEXT), {"a": [1.0, 0.0]})
        A = sub.alphabet
        assert rs.is_realisation(sub, "a", 0, A.word("a"))
        assert not rs.is_realisation(sub, "a", 0, A.word("b"))
        assert not rs.is_realisation(sub, "a", 0, "")
        assert rs.is_realisation(sub, 0, 1, A.word("ba"))  # probability zero
        with pytest.raises(ValueError):
            rs.is_realisation(sub, "a", -1, A.word("a"))


LETTER_ENTRY_POINTS = {
    "rule": lambda sub, a: sub.rule(a),
    "power_realisations": lambda sub, a: rs.power_realisations(sub, a, 1),
    "power_realisation_words": lambda sub, a: power_realisation_words(sub, a, 1),
    "is_realisation": lambda sub, a: rs.is_realisation(sub, a, 1, sub.alphabet.word("01")),
    "sample_realisation": lambda sub, a: rs.sample_realisation(sub, a, 2, 0),
    "frequency_report": lambda sub, a: rs.frequency_report(sub, 1, 2, 0, start_letter=a),
}


@pytest.mark.parametrize("letter", [5, -1])
@pytest.mark.parametrize("call", LETTER_ENTRY_POINTS.values(), ids=LETTER_ENTRY_POINTS)
def test_letter_index_outside_the_alphabet_refused(call, letter):
    golden = rs.get_example("golden")
    with pytest.raises(rs.UnknownLetterError, match="outside 0..1"):
        call(golden, letter)
    call(golden, 1)  # a valid index is still taken as given


class TestWithProbabilities:
    def test_override_and_validation(self):
        sub = rs.parse_spec(FIB_TEXT)
        flipped = rs.with_probabilities(sub, {"a": [0.9, 0.1]})
        assert flipped.rules[0].probabilities == (0.9, 0.1)
        assert rs.same_support(sub, flipped)
        with pytest.raises(rs.BadProbabilityError):
            rs.with_probabilities(sub, {"a": [1.0]})
        with pytest.raises(rs.UnknownLetterError):
            rs.with_probabilities(sub, {"z": [1.0]})
        with pytest.raises(rs.BadProbabilityError):
            rs.with_probabilities(sub, {"a": [0.9, 0.2]})
        with pytest.raises(rs.BadProbabilityError):
            rs.with_probabilities(sub, {"a": [0.0, 0.0]})

    def test_degenerate_flag(self):
        sub = rs.with_probabilities(rs.parse_spec(FIB_TEXT), {"a": [1.0, 0.0]})
        assert sub.is_degenerate


def test_letter_counts_and_subwords():
    assert rs.letter_counts(chr(0) + chr(1) + chr(0), 2) == [2, 1]
    assert rs.subwords("abc") == {"a", "b", "c", "ab", "bc", "abc"}
    assert rs.subwords("abca", max_len=2) == {"a", "b", "c", "ab", "bc", "ca"}


def test_format_float_twelve_significant_digits():
    from randsub.core import format_float

    assert format_float(2.0) == "2"
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(math.pi) == "3.14159265359"
