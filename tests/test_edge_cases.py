"""Argument checks, small records and degenerate inputs of the library that
the behavioural tests elsewhere never reach, each pinned to its message or
result."""

import numpy as np
import pytest

import randsub as rs
from randsub.core import realisation_words

A, B = "\x00", "\x01"  # the letters a and b as the library's internal words
THREE_IMAGES = "alphabet: a b\nrule a -> ab:0.2 | ba:0.3 | aab:0.5\nrule b -> a:1\n"
NOT_PRIMITIVE = "alphabet: a b\nrule a -> a:0.5 | aa:0.5\nrule b -> b:1\n"


class TestCore:
    def test_realisation_budget_at_the_last_position(self):
        # One letter: every distinct realisation is counted at the last position.
        sub = rs.parse_spec(THREE_IMAGES)
        assert list(realisation_words(sub, A, budget=3)) == [A + B, B + A, A + A + B]
        with pytest.raises(rs.BudgetExceededError) as exc:
            list(realisation_words(sub, A, budget=2))
        assert str(exc.value) == (
            "image of a word of length 1: 3 distinct partial realisations "
            "after 1 of its letters (budget 2)"
        )

    def test_is_realisation_outside_the_length_bounds(self):
        sub = rs.parse_spec(THREE_IMAGES)
        assert rs.is_realisation(sub, "a", 1, A + B)
        assert not rs.is_realisation(sub, "a", 1, A)  # shorter than every image
        assert not rs.is_realisation(sub, "a", 1, A + B + A + B)  # longer than every image

    def test_alphabet_hash_and_repr(self):
        sub = rs.parse_spec(THREE_IMAGES)
        other = rs.parse_spec("alphabet: a b\nrule a -> b:1\nrule b -> a:1\n")
        assert sub.alphabet == other.alphabet
        assert hash(sub.alphabet) == hash(other.alphabet)
        assert len({sub.alphabet, other.alphabet}) == 1
        assert repr(sub.alphabet) == "Alphabet(a b)"

    def test_substitution_eq_and_repr(self):
        sub = rs.parse_spec(THREE_IMAGES)
        assert sub == rs.parse_spec(rs.serialize(sub))
        assert sub != rs.parse_spec(NOT_PRIMITIVE)
        assert sub != THREE_IMAGES
        assert repr(sub) == f"RandomSubstitution({THREE_IMAGES!r})"


class TestDynamics:
    def test_bounds_below_one(self):
        pd = rs.get_example("period-doubling")
        with pytest.raises(ValueError, match="^k_max must be at least 1$"):
            rs.splitting_pairs(pd, 0)
        with pytest.raises(ValueError, match="^n_max must be at least 1$"):
            rs.periodic_census(pd, 0)

    def test_zeta_series_past_its_census(self):
        census = rs.periodic_census(rs.get_example("period-doubling"), 2)
        assert len(rs.zeta_series(census, 2).coefficients) == 3
        with pytest.raises(ValueError, match="^census does not cover the requested degree$"):
            rs.zeta_series(census, 3)

    def test_mixing_gaps_arguments(self):
        pd = rs.get_example("period-doubling")
        with pytest.raises(ValueError, match="^n_max must be non-negative$"):
            rs.mixing_gaps(pd, A, A, -1)
        for u, v in (("", A), (A, "")):
            with pytest.raises(ValueError, match="^u and v must be non-empty$"):
                rs.mixing_gaps(pd, u, v, 2)


class TestInduced:
    def test_word_frequencies_at_ell_0(self):
        with pytest.raises(ValueError, match="^ell must be at least 1$"):
            rs.word_frequencies(rs.get_example("period-doubling"), 0)

    def test_witness_spread(self):
        witness = rs.ErgodicityWitness(1, A, 0, 1, 0.25, 0.75)
        assert witness.spread == 0.5

    def test_non_primitive_scan_and_ratio_check(self):
        sub = rs.parse_spec(NOT_PRIMITIVE)
        grid = [{"a": (0.5, 0.5)}, {"a": (0.9, 0.1)}]
        message = "^unique-ergodicity scan requires a primitive substitution$"
        with pytest.raises(rs.NotPrimitiveError, match=message):
            rs.unique_ergodicity_scan(sub, 1, grid)
        message = "^ratio condition check requires a primitive substitution$"
        with pytest.raises(rs.NotPrimitiveError, match=message):
            rs.ratio_condition_check(sub)


class TestLanguage:
    def test_lengths_below_one(self):
        pd = rs.get_example("period-doubling")
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            rs.LanguageTable(pd, 0)
        table = rs.LanguageTable(pd, 2)
        with pytest.raises(ValueError, match="^length must be at least 1$"):
            table.codes(0)
        assert "" not in table
        assert A in table and A + A in table


class TestMatricesSamplerAndNamespace:
    def test_empty_matrix_is_primitive(self):
        # No entry of the 0 x 0 matrix (or of its powers) is zero.
        assert rs.is_primitive_matrix(np.zeros((0, 0)))

    def test_empirical_frequencies_at_ell_0(self):
        with pytest.raises(ValueError, match="^ell must be at least 1$"):
            rs.empirical_frequencies(A + B, 0)

    def test_lazy_namespace(self):
        import randsub.core

        assert rs.core is randsub.core
        names = dir(rs)
        assert names == sorted(names)
        assert {"core", "word_frequencies", "LanguageTable"} <= set(names)
        assert set(rs.__all__) <= set(names)
