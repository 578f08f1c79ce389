import math
from itertools import product

import numpy as np
import pytest

import randsub as rs
import randsub.dynamics


class TestStrongAffix:
    def test_prefix_and_suffix(self):
        assert rs.is_strong_affix("ab", "abab") is True

    def test_not_a_prefix(self):
        assert rs.is_strong_affix("ab", "ba") is False

    def test_word_is_strong_affix_of_itself(self):
        assert rs.is_strong_affix("ba", "ba") is True

    def test_length_order_enforced(self):
        with pytest.raises(rs.LengthOrderError):
            rs.is_strong_affix("abc", "ab")


class TestSplittingPairs:
    def test_fibonacci_letter_a_at_power_one(self):
        fib = rs.get_example("random-fibonacci")
        report = rs.splitting_pairs(fib, 1)
        pair = report.pairs[(1, 0)]
        got = {fib.alphabet.format_word(pair.u), fib.alphabet.format_word(pair.v)}
        assert got == {"ab", "ba"}
        assert report.pairs[(1, 1)] is None  # b has a single image

    def test_power_splitting_example(self):
        sub = rs.get_example("power-splitting")
        report = rs.splitting_pairs(sub, 2)
        assert report.pairs[(1, 0)] is None and report.pairs[(1, 1)] is None
        assert report.pairs[(2, 0)] is not None and report.pairs[(2, 1)] is not None

    def test_deterministic_never_splits(self):
        det = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        report = rs.splitting_pairs(det, 3)
        assert all(p is None for p in report.pairs.values())

    def test_redundant_image_never_splits(self):
        report = rs.splitting_pairs(rs.get_example("redundant-image"), 4)
        assert all(p is None for p in report.pairs.values())

    def test_pair_respects_length_order(self):
        report = rs.splitting_pairs(rs.get_example("golden"), 2)
        for pair in report.found():
            assert len(pair.u) <= len(pair.v)
            assert not rs.is_strong_affix(pair.u, pair.v)

    def test_budget_caps_the_realisations_generated(self):
        # redundant-image never splits, so the search generates all 47
        # realisations of the 4th power of a and one more than 46 is too many.
        redundant = rs.get_example("redundant-image")
        with pytest.raises(rs.BudgetExceededError) as info:
            rs.splitting_pairs(redundant, 4, budget=46)
        assert str(info.value) == (
            "power 4 of letter a: 47 distinct realisations at level 4 (budget 46)"
        )
        assert not rs.splitting_pairs(redundant, 4, budget=47).found()
        # golden splits at once, so a budget far below its 763,506
        # realisations of the 4th power of 0 is enough for the search.
        golden = rs.get_example("golden")
        with pytest.raises(rs.BudgetExceededError):
            list(rs.power_realisations(golden, "0", 4, budget=1000))
        assert rs.splitting_pairs(golden, 4, budget=1000).pairs[(4, 0)] is not None


class TestMaxRealisationLengths:
    def test_period_doubling_doubles(self):
        assert rs.max_realisation_lengths(rs.get_example("period-doubling"), 3) == [2, 4, 8]

    def test_fibonacci(self):
        assert rs.max_realisation_lengths(rs.get_example("random-fibonacci"), 3) == [2, 3, 5]


class TestEntropyBracket:
    def test_period_doubling(self, tables):
        pd = rs.get_example("period-doubling")
        bracket = rs.entropy_bracket(pd, 14, 2, table=tables("period-doubling", 18))
        assert bracket.lower == pytest.approx(math.log(2) / 6, abs=1e-12)
        w = bracket.lower_witness
        assert (w.letter, w.power) == (0, 1)
        assert pd.alphabet.format_word(w.u) == "01"
        assert pd.alphabet.format_word(w.v) == "10"
        exact = (2 / 3) * math.log(2)
        assert all(v >= exact - 1e-9 for _ell, v in bracket.upper_profile)
        assert bracket.lower <= exact <= bracket.upper

    def test_redundant_image_zero_entropy(self):
        bracket = rs.entropy_bracket(rs.get_example("redundant-image"), 10, 3)
        assert bracket.lower == 0.0
        assert "no splitting pair" in bracket.lower_status
        for ell, v in bracket.upper_profile:
            assert v == pytest.approx(math.log(2) / ell, abs=1e-12)

    def test_upper_is_minimum_of_profile(self):
        bracket = rs.entropy_bracket(rs.get_example("golden"), 8, 1)
        assert bracket.upper == min(v for _ell, v in bracket.upper_profile)

    def test_exact_value_inside_bracket_for_known_examples(self, tables):
        for name in ("golden", "period-doubling", "sofic-ab", "full-shift-2"):
            spec = rs.EXAMPLES[name]
            bracket = rs.entropy_bracket(
                rs.get_example(name), 10, 2, table=tables(name, 10), exact_known=spec.exact_entropy
            )
            assert bracket.lower <= spec.exact_entropy + 1e-12
            assert all(v >= spec.exact_entropy - 1e-9 for _ell, v in bracket.upper_profile)

    def test_not_primitive_rejected(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1\nrule b -> b:1\n")
        with pytest.raises(rs.NotPrimitiveError):
            rs.entropy_bracket(sub, 4, 1)

    def test_k_max_checked_before_the_closure(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the language was closed before k_max was checked")

        monkeypatch.setattr(randsub.dynamics, "legal_words", refused)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            rs.entropy_bracket(rs.get_example("sofic-ab"), 22, 0)

    def test_periodic_expected_matrix(self):
        # The support is primitive, but with a -> a at probability zero the
        # expected matrix [[0, 1], [2, 0]] is periodic; its Perron vector
        # gives the letter frequencies (sqrt 2 - 1, 2 - sqrt 2).
        sub = rs.parse_spec("alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n")
        bracket = rs.entropy_bracket(sub, 6, 2)
        w = bracket.lower_witness
        assert (w.letter, w.power) == (1, 2)
        n_2 = rs.max_realisation_lengths(sub, 2)[1]
        expected = (2 - math.sqrt(2)) * math.log(2) / (2 * n_2)
        assert bracket.lower == pytest.approx(expected, abs=1e-12)


def lucas_numbers(n_max):
    """Trace of the n-th power of [[1,1],[1,0]]: periodic-point counts of
    the golden shift (independent integer-matrix oracle)."""
    a = np.array([[1, 1], [1, 0]], dtype=object)
    out = []
    power = a.copy()
    for _ in range(n_max):
        out.append(int(power[0, 0] + power[1, 1]))
        power = power @ a
    return out


def rotations(u):
    return {u[i:] + u[:i] for i in range(len(u))}


def period_doubling_images(u):
    """Every word obtained from u by choosing one period-doubling image
    (0 -> 01 | 10, 1 -> 00) for each letter."""
    options = {"0": ("01", "10"), "1": ("00",)}
    return {"".join(parts) for parts in product(*(options[c] for c in u))}


def formatted_roots(sub, census, n):
    return {sub.alphabet.format_word(w) for w in census.roots[n]}


class TestPeriodicCensus:
    def test_golden_counts_match_trace_oracle(self, tables):
        golden = rs.get_example("golden")
        census = rs.periodic_census(golden, 8, 16, table=tables("golden", 16))
        assert [census.count(n) for n in range(1, 9)] == lucas_numbers(8)
        # Golden is not compatible, also when only one image of each letter
        # has positive probability: the language uses every image.
        degenerate = rs.with_probabilities(golden, {"0": (1, 0), "1": (1, 0)})
        for sub in (golden, degenerate):
            assert rs.refine_census_by_frequencies(sub, census) == census

    def test_sofic_counts(self, tables):
        sofic = rs.get_example("sofic-ab")
        census = rs.periodic_census(sofic, 12, 24, table=tables("sofic-ab", 24))
        expected = [0, 2, 0, 6, 0, 14, 0, 30, 0, 62, 0, 126]
        for c in (census, rs.refine_census_by_frequencies(sofic, census)):
            assert [c.count(n) for n in range(1, 13)] == expected

    def test_period_doubling_composite_structure(self, tables):
        # Counts fixed by the shift are closed under rotation, so they
        # decompose over necklaces of each dividing period.  A point that
        # returns to a shift of itself under substituted images and whose
        # 2-windows are legal lies in the subshift.  (001)^oo is such a
        # point; periodic choices of images on it give the 000101 and
        # 000110 necklaces, 15 6-periodic points with the 3 rotations of
        # 001, all there are by the census.  The necklaces of 000100101
        # and 000101001 are images of each other, so both are genuine
        # 9-periodic points.  Every genuine root must survive the
        # frequency refinement too.
        pd = rs.get_example("period-doubling")
        raw = rs.periodic_census(pd, 9, 18, table=tables("period-doubling", 18))

        assert rotations("001" * 2) & period_doubling_images("001")
        genuine3 = rotations("001")
        genuine6 = set().union(
            *(rotations(w) for u in genuine3 for w in period_doubling_images(u))
        )
        x1, x2 = "000100101", "000101001"
        assert rotations(x2 * 2) & period_doubling_images(x1)
        assert rotations(x1 * 2) & period_doubling_images(x2)
        genuine9 = rotations(x1) | rotations(x2) | rotations("001" * 3)
        assert len(genuine6) == 15 and len(genuine9) == 21

        for census in (raw, rs.refine_census_by_frequencies(pd, raw)):
            assert (census.n_max, census.horizon) == (raw.n_max, raw.horizon)
            assert formatted_roots(pd, census, 3) == genuine3
            assert formatted_roots(pd, census, 6) == genuine6
            assert genuine9 <= formatted_roots(pd, census, 9)
            assert (census.count(9) - census.count(3)) % 9 == 0

    def test_counts_closed_under_rotation(self, tables):
        for name, n_max, horizon in (("period-doubling", 6, 12), ("random-fibonacci", 8, 16)):
            sub = rs.get_example(name)
            raw = rs.periodic_census(sub, n_max, horizon, table=tables(name, horizon))
            for census in (raw, rs.refine_census_by_frequencies(sub, raw)):
                for n, roots in census.roots.items():
                    roots = set(roots)
                    assert roots <= set(raw.roots[n])
                    for u in roots:
                        assert u[1:] + u[:1] in roots

    def test_divisor_consistency(self, tables):
        for name, n_max, horizon in (("golden", 8, 16), ("period-doubling", 9, 18)):
            sub = rs.get_example(name)
            raw = rs.periodic_census(sub, n_max, horizon, table=tables(name, horizon))
            for census in (raw, rs.refine_census_by_frequencies(sub, raw)):
                for n in range(1, n_max + 1):
                    for d in range(1, n):
                        if n % d == 0:
                            assert census.count(n) >= census.count(d)
                            for u in census.roots[d]:
                                assert u * (n // d) in census.roots[n]

    def test_frequency_refinement_needs_primitivity(self):
        # a -> b, b -> aa is compatible and irreducible but not primitive;
        # a^oo and b^oo are both in its subshift although their letter
        # counts are no eigenvectors of the count matrix.
        sub = rs.parse_spec("alphabet: a b\nrule a -> b\nrule b -> aa\n")
        roots = (sub.alphabet.word("a"), sub.alphabet.word("b"))
        census = rs.PeriodicCensus(n_max=1, horizon=2, counts={1: 2}, roots={1: roots})
        assert rs.refine_census_by_frequencies(sub, census) == census

    def test_counts_non_increasing_in_horizon(self):
        pd = rs.get_example("period-doubling")
        shallow = rs.periodic_census(pd, 4, 8)
        deep = rs.periodic_census(pd, 4, 18)
        for n in range(1, 5):
            assert deep.count(n) <= shallow.count(n)
        assert deep.count(2) < shallow.count(2)  # alternating root dies deeper

    def test_horizon_validation(self):
        pd = rs.get_example("period-doubling")
        with pytest.raises(ValueError):
            rs.periodic_census(pd, 4, 7)
        census = rs.periodic_census(pd, 2)
        assert census.horizon == 4


class TestZetaSeries:
    def test_sofic_matches_polynomial_division_oracle(self, tables):
        # oracle: (1 - z^2) / (1 - 2 z^2) expanded by long division
        sofic = rs.get_example("sofic-ab")
        census = rs.periodic_census(sofic, 12, 24, table=tables("sofic-ab", 24))
        series = rs.zeta_series(census, 12)
        refined = rs.zeta_series(rs.refine_census_by_frequencies(sofic, census), 12)
        assert refined == series
        numer = [1.0, 0.0, -1.0] + [0.0] * 10
        denom = [1.0, 0.0, -2.0]
        quotient = []
        rem = numer[:]
        for k in range(13):
            c = rem[k] / denom[0]
            quotient.append(c)
            for j, d in enumerate(denom):
                if k + j < len(rem):
                    rem[k + j] -= c * d
        np.testing.assert_allclose(series.coefficients, quotient, atol=1e-9)

    def test_golden_matches_fibonacci_expansion(self, tables):
        # 1 / (1 - z - z^2): coefficients follow c_n = c_{n-1} + c_{n-2}
        census = rs.periodic_census(
            rs.get_example("golden"), 8, 16, table=tables("golden", 16)
        )
        series = rs.zeta_series(census, 8)
        expansion = [1.0, 1.0]
        while len(expansion) < 9:
            expansion.append(expansion[-1] + expansion[-2])
        np.testing.assert_allclose(series.coefficients, expansion, atol=1e-9)

    def test_empty_census_gives_constant_one(self):
        census = rs.PeriodicCensus(
            n_max=4, horizon=8, counts={n: 0 for n in range(1, 5)}, roots={}
        )
        series = rs.zeta_series(census, 4)
        assert list(series.coefficients) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_exp_log_round_trip(self, tables):
        census = rs.periodic_census(
            rs.get_example("period-doubling"), 9, 18, table=tables("period-doubling", 18)
        )
        series = rs.zeta_series(census, 9)
        back = rs.series_log(list(series.coefficients))
        np.testing.assert_allclose(back, series.log_terms, atol=1e-9)

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            rs.series_log([2.0, 1.0])


class TestMixingGaps:
    def test_period_doubling_only_even_gaps(self, tables):
        pd = rs.get_example("period-doubling")
        gaps = rs.mixing_gaps(
            pd, pd.alphabet.word("11"), pd.alphabet.word("11"), 10,
            table=tables("period-doubling", 18),
        )
        assert gaps == (2, 4, 6, 8, 10)
        assert all(g % 2 == 0 for g in gaps)

    def test_golden_all_gaps(self, tables):
        golden = rs.get_example("golden")
        gaps = rs.mixing_gaps(
            golden, golden.alphabet.word("0"), golden.alphabet.word("0"), 6,
            table=tables("golden", 16),
        )
        assert gaps == (0, 1, 2, 3, 4, 5, 6)

    def test_full_shift_all_gaps(self, tables):
        fs = rs.get_example("full-shift-2")
        gaps = rs.mixing_gaps(
            fs, fs.alphabet.word("01"), fs.alphabet.word("10"), 5,
            table=tables("full-shift-2", 12),
        )
        assert gaps == (0, 1, 2, 3, 4, 5)

    def test_illegal_words_rejected(self):
        golden = rs.get_example("golden")
        with pytest.raises(ValueError):
            rs.mixing_gaps(golden, golden.alphabet.word("11"), golden.alphabet.word("0"), 3)
