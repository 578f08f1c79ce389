import math

import numpy as np
import pytest

import randsub as rs

TAU = (1 + math.sqrt(5)) / 2


def fib_at(p):
    """Random Fibonacci with P(a -> ba) = p, P(a -> ab) = 1 - p."""
    return rs.with_probabilities(rs.get_example("random-fibonacci"), {"a": [p, 1 - p]})


def induced_rule(ind, source_text):
    src = ind.sub.alphabet.index(source_text)
    rule = ind.sub.rules[src]
    return {
        tuple(ind.sub.alphabet.decode(w)): p
        for w, p in zip(rule.images, rule.probabilities)
    }


def eq_r_vector(p):
    """The frequency vector of the length-2 words of random Fibonacci in
    order (aa, ab, ba, bb), as a function of P(a -> ba) = p."""
    kernel = np.array(
        [TAU, TAU**2 * (1 - p + p * p), TAU**2 * (1 - p + p * p), p * (1 - p)]
    )
    return kernel / kernel.sum()


class TestInducedConstruction:
    def test_fibonacci_window_two_rules(self):
        ind = rs.induced_substitution(fib_at(0.3), 2)
        assert ind.sub.alphabet.letters == ("aa", "ab", "ba", "bb")
        # (ba) maps to (aa) with prob q, (ab) with prob p
        rule_ba = induced_rule(ind, "ba")
        assert rule_ba[("aa",)] == pytest.approx(0.7, abs=1e-12)
        assert rule_ba[("ab",)] == pytest.approx(0.3, abs=1e-12)
        rule_bb = induced_rule(ind, "bb")
        assert rule_bb == {("aa",): pytest.approx(1.0, abs=1e-12)}
        rule_aa = induced_rule(ind, "aa")
        assert rule_aa[("ab", "ba")] == pytest.approx(0.7**2, abs=1e-12)
        assert rule_aa[("ab", "bb")] == pytest.approx(0.7 * 0.3, abs=1e-12)
        assert rule_aa[("ba", "aa")] == pytest.approx(0.3 * 0.7, abs=1e-12)
        assert rule_aa[("ba", "ab")] == pytest.approx(0.3**2, abs=1e-12)

    def test_rule_probabilities_sum_to_one(self):
        for name in ("random-fibonacci", "golden", "period-doubling", "sofic-ab"):
            ind = rs.induced_substitution(rs.get_example(name), 3)
            for rule in ind.sub.rules:
                assert sum(rule.probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_image_length_matches_first_letter_realisation(self):
        golden = rs.get_example("golden")
        ind = rs.induced_substitution(golden, 2)
        # images of the window 00 have lengths 3 (first 0 -> 010) or 1 (0 -> 0)
        rule = ind.sub.rules[ind.sub.alphabet.index("00")]
        assert sorted({len(w) for w in rule.images}) == [1, 3]

    def test_window_one_is_the_base_substitution(self):
        fib = rs.get_example("random-fibonacci")
        ind = rs.induced_substitution(fib, 1)
        assert rs.serialize(ind.sub) == rs.serialize(fib)

    def test_window_one_drops_unproduced_letters(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> b:1\nrule b -> b:1\n")
        ind = rs.induced_substitution(sub, 1)
        assert ind.sub.alphabet.letters == ("b",)

    def test_abab_legal_for_induced_but_not_a_window_image(self):
        ind = rs.induced_substitution(fib_at(0.5), 2)
        ab = chr(ind.sub.alphabet.index("ab"))
        table = rs.legal_words(ind.sub, 2)
        assert ab + ab in table


class TestInducedMatrix:
    def test_fibonacci_matrix_formula(self):
        for p in (0.3, 0.5, 0.85):
            q = 1 - p
            m = rs.induced_matrix(rs.induced_substitution(fib_at(p), 2))
            expected = np.array(
                [
                    [p * q, p, q, 1],
                    [1 - p * q, q, p, 0],
                    [1 - p * q, 1, 0, 0],
                    [p * q, 0, 0, 0],
                ]
            )
            assert np.abs(m - expected).max() < 1e-12

    def test_window_one_matrix_equals_substitution_matrix(self):
        pd = rs.get_example("period-doubling")
        m1 = rs.induced_matrix(rs.induced_substitution(pd, 1))
        np.testing.assert_array_equal(m1, rs.substitution_matrix(pd))

    def test_column_sums_are_expected_first_letter_image_lengths(self):
        golden = rs.get_example("golden")
        ind = rs.induced_substitution(golden, 2)
        m = rs.induced_matrix(ind)
        exp_len = golden.expected_image_lengths()
        for j, w in enumerate(ind.words):
            assert m[:, j].sum() == pytest.approx(exp_len[ord(w[0])], abs=1e-12)

    def test_eigenvalue_stable_across_windows(self):
        for name in ("random-fibonacci", "golden", "period-doubling"):
            sub = rs.get_example(name)
            base = rs.perron_data(rs.substitution_matrix(sub)).lam
            for ell in (2, 3):
                lam = rs.perron_data(
                    rs.induced_matrix(rs.induced_substitution(sub, ell)),
                    require_primitive=False,
                ).lam
                assert lam == pytest.approx(base, abs=1e-9)


class TestInducedPrimitivity:
    def test_fibonacci_window_two(self):
        assert rs.induced_is_primitive(rs.induced_substitution(fib_at(0.5), 2))

    def test_reducible_base_window_one(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1\nrule b -> b:1\n")
        assert not rs.induced_is_primitive(rs.induced_substitution(sub, 1))


class TestWordFrequencies:
    def test_fibonacci_matches_closed_form(self):
        freq = rs.word_frequencies(fib_at(0.5), 2)
        np.testing.assert_allclose(freq.values, eq_r_vector(0.5), atol=1e-9)
        fib = rs.get_example("random-fibonacci")
        bb = freq.entry(fib.alphabet.word("bb"))
        assert 0.0426 <= bb <= 0.0436

    def test_degenerate_choice_gives_zero_entry(self):
        freq = rs.word_frequencies(fib_at(1.0), 2)
        fib = rs.get_example("random-fibonacci")
        assert freq.entry(fib.alphabet.word("bb")) == pytest.approx(0.0, abs=1e-12)

    def test_periodic_expected_matrix(self):
        # Primitive support, periodic expected matrix [[0, 1], [2, 0]].
        sub = rs.parse_spec("alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n")
        freq = rs.word_frequencies(sub, 1)
        np.testing.assert_allclose(freq.values, [math.sqrt(2) - 1, 2 - math.sqrt(2)], atol=1e-12)

    def test_entries_sum_to_one(self):
        for ell in (1, 2, 3):
            freq = rs.word_frequencies(rs.get_example("golden"), ell)
            assert sum(freq.values) == pytest.approx(1.0, abs=1e-12)

    def test_forgetting_collars(self):
        fib = rs.get_example("random-fibonacci")
        r1 = rs.word_frequencies(fib, 1)
        r3 = rs.word_frequencies(fib, 3)
        for letter_word, r1_value in r1.as_dict().items():
            total = sum(v for w, v in r3.as_dict().items() if w[0] == letter_word)
            assert total == pytest.approx(r1_value, abs=1e-10)

    def test_not_primitive_rejected(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1\nrule b -> b:1\n")
        with pytest.raises(rs.NotPrimitiveError):
            rs.word_frequencies(sub, 1)


class TestErgodicityScan:
    def test_fibonacci_not_uniquely_ergodic_witness_bb(self):
        fib = rs.get_example("random-fibonacci")
        verdict = rs.unique_ergodicity_scan(
            fib, 2, [{"a": (0.5, 0.5)}, {"a": (0.9, 0.1)}]
        )
        assert verdict.not_uniquely_ergodic
        assert verdict.status == "not-uniquely-ergodic"
        w = verdict.witness
        assert w.ell == 2
        assert fib.alphabet.format_word(w.word) == "bb"
        assert w.high_value == pytest.approx(0.0431400059, abs=1e-8)
        assert w.low_value == pytest.approx(0.0139042182, abs=1e-8)

    def test_threaded_scan_matches_sequential(self):
        fib = rs.get_example("random-fibonacci")
        grid = [{"a": (0.5, 0.5)}, {"a": (0.9, 0.1)}]
        a = rs.unique_ergodicity_scan(fib, 2, grid, threads=1)
        b = rs.unique_ergodicity_scan(fib, 2, grid, threads=4)
        assert a == b

    def test_budget_caps_the_language_closure(self):
        fib = rs.get_example("random-fibonacci")
        grid = [{"a": (0.5, 0.5)}, {"a": (0.9, 0.1)}]
        with pytest.raises(rs.BudgetExceededError, match="closure to length 9"):
            rs.unique_ergodicity_scan(fib, 9, grid, budget=100)

    def test_deterministic_substitution_consistent(self):
        det = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        verdict = rs.unique_ergodicity_scan(det, 2, [{"a": (1.0,)}, {"a": (1.0,)}])
        assert not verdict.not_uniquely_ergodic
        assert verdict.status == "consistent-up-to"

    def test_golden_letter_frequencies_depend_on_p(self):
        golden = rs.get_example("golden")
        verdict = rs.unique_ergodicity_scan(
            golden,
            1,
            [{"0": (0.5, 0.5), "1": (0.5, 0.5)}, {"0": (0.9, 0.1), "1": (0.1, 0.9)}],
        )
        assert verdict.not_uniquely_ergodic
        assert verdict.witness.ell == 1

    def test_degenerate_grid_point_rejected(self):
        fib = rs.get_example("random-fibonacci")
        with pytest.raises(ValueError):
            rs.unique_ergodicity_scan(fib, 2, [{"a": (1.0, 0.0)}, {"a": (0.5, 0.5)}])

    def test_needs_two_points(self):
        fib = rs.get_example("random-fibonacci")
        with pytest.raises(ValueError):
            rs.unique_ergodicity_scan(fib, 2, [{"a": (0.5, 0.5)}])


class TestRatioCondition:
    def test_fibonacci_holds_vacuously(self):
        report = rs.ratio_condition_check(rs.get_example("random-fibonacci"))
        assert report.holds
        assert report.checked == 1  # one image pair for a, one letter pair

    def test_golden_violated(self):
        report = rs.ratio_condition_check(rs.get_example("golden"))
        assert not report.holds
        letters = {v.letter for v in report.violations}
        assert letters == {0, 1}

    def test_deterministic_vacuous(self):
        det = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        report = rs.ratio_condition_check(det)
        assert report.holds and report.checked == 0

    def test_primitive_degenerate_substitution_is_checked(self):
        # The expected matrix [[0, 1], [2, 0]] is periodic, but the
        # set-valued substitution is primitive; R = (sqrt2 - 1, 2 - sqrt2).
        sub = rs.parse_spec("alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n")
        assert rs.is_primitive(sub)
        report = rs.ratio_condition_check(sub)
        assert report.checked == 1
        (violation,) = report.violations
        assert (violation.letter, violation.image_pair, violation.letter_pair) == (0, (0, 1), (0, 1))
        assert violation.residual == pytest.approx(2**0.5, abs=1e-9)
