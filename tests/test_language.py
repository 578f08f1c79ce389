import pytest

import randsub as rs
from conftest import brute_force_no_11, traced_peak


class TestEmptiness:
    def test_empty_demo_is_empty(self):
        assert rs.is_empty_subshift(rs.get_example("empty-demo")) is True

    def test_fibonacci_not_empty(self):
        assert rs.is_empty_subshift(rs.get_example("random-fibonacci")) is False

    def test_one_letter_identity_is_empty(self):
        sub = rs.parse_spec("alphabet: a\nrule a -> a:1\n")
        assert rs.is_empty_subshift(sub) is True

    def test_not_primitive_rejected(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1\nrule b -> b:1\n")
        with pytest.raises(rs.NotPrimitiveError):
            rs.is_empty_subshift(sub)

    def test_legal_words_on_empty_subshift(self):
        with pytest.raises(rs.EmptySubshiftError):
            rs.legal_words(rs.get_example("empty-demo"), 3)


class TestGoldenOracle:
    def test_language_equals_no_11_words(self, tables):
        table = tables("golden", 12)
        golden = rs.get_example("golden")
        for ell in range(1, 13):
            got = {golden.alphabet.format_word(w) for w in table.words(ell)}
            assert got == brute_force_no_11(ell), f"mismatch at length {ell}"

    def test_11_not_legal(self, tables):
        golden = rs.get_example("golden")
        assert not rs.is_legal(tables("golden", 12), golden.alphabet.word("11"))


class TestKnownLanguages:
    def test_fibonacci_length_two(self):
        fib = rs.get_example("random-fibonacci")
        table = rs.legal_words(fib, 2)
        got = [fib.alphabet.format_word(w) for w in table.words(2)]
        assert got == ["aa", "ab", "ba", "bb"]
        assert rs.is_legal(table, fib.alphabet.word("bb"))

    def test_full_shift_counts(self, tables):
        table = tables("full-shift-2", 12)
        assert rs.complexity(table, 12) == [2**ell for ell in range(1, 13)]

    def test_redundant_image_complexity_two(self):
        table = rs.legal_words(rs.get_example("redundant-image"), 10)
        assert rs.complexity(table, 10) == [2] * 10

    def test_single_letters_legal_for_primitives(self):
        for name in rs.example_names():
            sub = rs.get_example(name)
            if rs.is_empty_subshift(sub):
                continue
            table = rs.legal_words(sub, 2)
            assert table.count(1) == sub.n_letters

    def test_golden_counts_fibonacci_numbers(self, tables):
        assert rs.complexity(tables("golden", 12), 6) == [2, 3, 5, 8, 13, 21]


class TestDeterministicCrossCheck:
    def test_matches_direct_iteration(self):
        # deterministic Fibonacci: language = factors of the fixed point
        sub = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        word = "a"
        for _ in range(18):
            word = "".join({"a": "ab", "b": "a"}[c] for c in word)
        table = rs.legal_words(sub, 8)
        for ell in range(1, 9):
            factors = {word[i : i + ell] for i in range(len(word) - ell + 1)}
            got = {sub.alphabet.format_word(w) for w in table.words(ell)}
            assert got == factors


class TestTableMechanics:
    def test_extension_in_place(self):
        fib = rs.get_example("random-fibonacci")
        table = rs.legal_words(fib, 3)
        assert table.max_len == 3
        counts_before = rs.complexity(table, 3)
        table.extend(6)
        assert rs.complexity(table, 3) == counts_before
        # membership query auto-extends
        assert rs.is_legal(table, fib.alphabet.word("abaabab"))
        assert table.max_len >= 7

    def test_factor_closedness(self, tables):
        table = tables("period-doubling", 18)
        for ell in (5, 9):
            for w in table.words(ell):
                assert w[1:] in table and w[:-1] in table

    def test_substitution_closedness(self):
        pd = rs.get_example("period-doubling")
        table = rs.legal_words(pd, 6)
        for m in (1, 2):
            for u in table.words(m):
                for v, _p in rs.realisations(pd, u):
                    for piece in rs.subwords(v, max_len=6):
                        assert piece in table

    def test_submultiplicative(self, tables):
        table = tables("period-doubling", 18)
        counts = rs.complexity(table, 12)
        for k in range(1, 12):
            for ell in range(1, 12 - k + 1):
                assert counts[k + ell - 1] <= counts[k - 1] * counts[ell - 1]

    def test_stabilized_at_recorded(self):
        table = rs.legal_words(rs.get_example("golden"), 6)
        assert set(table.stabilized_at) == set(range(1, 7))
        assert all(r >= 0 for r in table.stabilized_at.values())

    def test_budget_exhaustion(self):
        with pytest.raises(rs.BudgetExceededError):
            rs.legal_words(rs.get_example("sofic-ab"), 20, budget=50)

    def test_budget_error_names_length_round_and_work(self):
        with pytest.raises(rs.BudgetExceededError) as info:
            rs.legal_words(rs.get_example("sofic-ab"), 20, budget=50)
        assert str(info.value) == (
            "language closure to length 20: 56 window extensions in round 3 (budget 50)"
        )
        assert info.value.budget == 50

    def test_passed_table_extends_under_the_callers_budget(self):
        sofic = rs.get_example("sofic-ab")
        table = rs.legal_words(sofic, 3)
        with pytest.raises(rs.BudgetExceededError) as info:
            rs.legal_words(sofic, 20, table=table, budget=50)
        assert str(info.value) == (
            "language closure to length 20: 56 window extensions in round 3 (budget 50)"
        )
        assert table.max_len == 3

    def test_codes_decode_to_sorted_words(self, tables):
        table = tables("period-doubling", 18)
        for ell in (1, 7, 18):
            words = table.words(ell)
            assert len(words) == table.count(ell)
            assert list(words) == sorted(set(words))
            assert all(len(w) == ell and w in table for w in words)
        assert "\x02" not in table and "\x01" * 3 not in table

    def test_wrong_table_rejected(self):
        fib = rs.get_example("random-fibonacci")
        pd = rs.get_example("period-doubling")
        table = rs.legal_words(fib, 3)
        with pytest.raises(ValueError):
            rs.legal_words(pd, 3, table=table)

    def test_probability_change_reuses_table(self):
        fib = rs.get_example("random-fibonacci")
        table = rs.legal_words(fib, 3)
        skew = rs.with_probabilities(fib, {"a": [0.9, 0.1]})
        assert rs.legal_words(skew, 3, table=table) is table


class TestClosureMemory:
    def test_traced_peak_of_sofic_ab_at_24(self):
        # sofic-ab's letters share one image set, so every word of a length
        # has one class code: at ell 24 the closure holds 12,284 live
        # partials under 12 class codes, and its traced peak is about
        # 2 MiB.  One partial set per word held 1,585,737 partials under 606
        # of its words and peaked at 24 MiB.  The warm-up keeps module
        # loading out of the traced peak.
        sofic = rs.get_example("sofic-ab")
        rs.legal_words(sofic, 8)
        peak = traced_peak(lambda: rs.legal_words(sofic, 24))
        assert peak <= 4 * 2**20


class TestClassCodes:
    @pytest.mark.parametrize(
        "name, ell, work, most",
        [("sofic-ab", 20, 549_448, 12_280), ("full-shift-2", 12, 1_497_968, 32_768)],
    )
    def test_shared_image_sets_extend_once(self, monkeypatch, name, ell, work, most):
        # Both letters share one image set, so each length's words extend one
        # class code once (6,140 and 16,384 extensions), while the budget is
        # still charged every word's extensions.
        extend = rs.language._Closure._extend
        ran = [0]

        def counted(self, m, table, words, lo, hi, last, chunks):
            ran[0] += int(((hi - lo) * table[0][last]).sum())
            return extend(self, m, table, words, lo, hi, last, chunks)

        monkeypatch.setattr(rs.language._Closure, "_extend", counted)
        closure = rs.language._Closure(rs.get_example(name), ell, 10**8)
        closure.run()
        assert closure.work == work
        assert ran[0] <= most
