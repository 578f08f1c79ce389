import tracemalloc

import numpy as np
import pytest

import randsub as rs
from conftest import seed_for_draw, traced_peak
from randsub.sampler import GOLDEN, _draws, _key, _progression, _window_counts


def _count_windows_py(word, ell):
    """Oracle: window counts by slicing the string."""
    counts = {}
    for i in range(len(word) - ell + 1):
        w = word[i : i + ell]
        counts[w] = counts.get(w, 0) + 1
    return counts

# Pinned outputs of the documented generator (seed 1729, depth 0).
STREAM_VECTORS = [
    0.7027766098872166,
    0.21457033759284438,
    0.45633980136372876,
    0.6080035337514242,
]


class TestStream:
    def test_pinned_vectors(self):
        got = rs.stream_u01(1729, 0, np.arange(4, dtype=np.uint64))
        np.testing.assert_allclose(got, STREAM_VECTORS, rtol=0, atol=0)

    def test_depth_and_seed_decorrelate(self):
        base = rs.stream_u01(1, 0, np.arange(8, dtype=np.uint64))
        other_depth = rs.stream_u01(1, 1, np.arange(8, dtype=np.uint64))
        other_seed = rs.stream_u01(2, 0, np.arange(8, dtype=np.uint64))
        assert not np.allclose(base, other_depth)
        assert not np.allclose(base, other_seed)

    def test_range(self):
        u = rs.stream_u01(99, 3, np.arange(1000, dtype=np.uint64))
        assert (u >= 0).all() and (u < 1).all()


class TestProgression:
    def test_progression_matches_the_counters(self):
        # A block's draws are one add of key + end * GOLDEN to (1, 2, ...) *
        # GOLDEN: the counters' values mod 2^64 at any offset, including
        # those whose products wrap.
        steps = np.arange(1, 9, dtype=np.uint64) * GOLDEN
        for seed in (-3, 2**64 + 5, 2**70):
            for depth in (0, 5):
                for end in (2**32 - 5, 2**32, 2**63 - 4, 2**63, 2**63 + 3, 2**64 - 9):
                    got = _progression(_key(seed, depth), end, steps, np.empty(8, np.uint64))
                    counters = np.array(range(end + 1, end + 9), dtype=np.uint64)
                    assert np.array_equal(got, _draws(seed, depth, counters)), (seed, end)


class TestSampleRealisation:
    def test_variate_on_a_cumulative_probability_picks_the_next_image(self):
        # The seed that makes u exactly 1/2 at depth 0, position 0.  The
        # inverse CDF counts the cumulative probabilities <= u, so u = 1/2
        # picks the second of two halves.
        seed = seed_for_draw(2**52)
        assert rs.stream_u01(seed, 0, np.zeros(1, dtype=np.uint64))[0] == 0.5
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1/2 | b:1/2\nrule b -> a:1\n")
        assert rs.sample_realisation(sub, "a", 1, seed) == chr(1)

    def test_rounded_rule_takes_its_last_image_on_the_last_draw(self):
        # a's probabilities add up to 1 - 2^-53 and the last draw is
        # u = 1 - 2^-53.  The last cumulative probability counts as 1, so u
        # picks a's last image and not the first image of b, whose rule has
        # more images.
        sub = rs.parse_spec(
            "alphabet: a b\nrule a -> a:0.7 | b:0.2 | ab:0.1\n"
            "rule b -> a:1/4 | b:1/4 | ab:1/4 | ba:1/4\n"
        )
        assert rs.sample_realisation(sub, "a", 1, seed_for_draw(2**53 - 1)) == chr(0) + chr(1)

    @pytest.mark.parametrize(
        "name, letter, k", [("period-doubling", "0", 10), ("random-fibonacci", "a", 14)]
    )
    def test_budget_boundary(self, name, letter, k):
        # A level of exactly ``budget`` letters is built; one letter less
        # refuses it before the gather.
        sub = rs.get_example(name)
        size = len(rs.sample_realisation(sub, letter, k, 5))
        assert len(rs.sample_realisation(sub, letter, k, 5, budget=size)) == size
        with pytest.raises(rs.BudgetExceededError) as info:
            rs.sample_realisation(sub, letter, k, 5, budget=size - 1)
        assert str(info.value) == (
            f"sample of letter {letter}: {size} letters at level {k} of {k} (budget {size - 1})"
        )

    def test_period_doubling_length_is_power_of_two(self):
        pd = rs.get_example("period-doubling")
        for seed in (0, 1, 42):
            assert len(rs.sample_realisation(pd, "0", 5, seed)) == 32

    def test_deterministic_per_seed(self):
        fib = rs.get_example("random-fibonacci")
        a = rs.sample_realisation(fib, "a", 10, 7)
        b = rs.sample_realisation(fib, "a", 10, 7)
        c = rs.sample_realisation(fib, "a", 10, 8)
        assert a == b
        assert a != c

    def test_degenerate_probabilities_match_deterministic_iteration(self):
        fib = rs.get_example("random-fibonacci")
        always_ba = rs.with_probabilities(fib, {"a": [1.0, 0.0]})
        sampled = rs.sample_realisation(always_ba, "a", 9, 123)
        word = "a"
        for _ in range(9):
            word = "".join({"a": "ba", "b": "a"}[c] for c in word)
        assert "".join(fib.alphabet.decode(sampled)) == word

    def test_depth_zero(self):
        fib = rs.get_example("random-fibonacci")
        assert rs.sample_realisation(fib, "b", 0, 5) == chr(1)

    def test_sample_is_a_valid_realisation(self):
        golden = rs.get_example("golden")
        sampled = rs.sample_realisation(golden, "0", 4, 11)
        assert rs.is_realisation(golden, "0", 4, sampled)


class TestEmpiricalFrequencies:
    def test_constant_word(self):
        assert rs.empirical_frequencies("aaaa", 2) == {"aa": 1.0}

    def test_alternating_word(self):
        got = rs.empirical_frequencies("abab", 2)
        assert got["ab"] == pytest.approx(2 / 3)
        assert got["ba"] == pytest.approx(1 / 3)

    def test_too_short(self):
        with pytest.raises(rs.WordTooShortError):
            rs.empirical_frequencies("ab", 3)

    def test_packed_and_direct_window_counts_agree(self):
        # Binary windows pack into int64 codes up to ell 61; from ell 62
        # the shared codec runs on Python-int codes.  The counter takes
        # consecutive blocks; here the whole word is one.
        word = rs.sample_realisation(rs.get_example("random-fibonacci"), "a", 12, 3)
        arr = np.fromiter(map(ord, word), dtype=np.uint16)
        for ell in (1, 5, 62, 63):
            assert _window_counts([arr], ell, 2) == (_count_windows_py(word, ell), len(word))

    def test_non_index_string_matches_oracle(self):
        # Letters are code points 97 and 98 here, so the codes use base 99.
        word = "abba" * 50
        for ell in (1, 3, 63):
            total = len(word) - ell + 1
            expected = {w: c / total for w, c in sorted(_count_windows_py(word, ell).items())}
            got = rs.empirical_frequencies(word, ell)
            assert got == expected
            assert list(got) == list(expected)

    def test_frequencies_sum_to_one(self):
        fib = rs.get_example("random-fibonacci")
        w = rs.sample_realisation(fib, "a", 12, 3)
        freqs = rs.empirical_frequencies(w, 2)
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-9)


class TestFrequencyReport:
    def test_budget_caps_the_expansion(self):
        pd = rs.get_example("period-doubling")
        with pytest.raises(rs.BudgetExceededError) as info:
            rs.frequency_report(pd, 2, 20, 0, budget=1000)
        assert str(info.value) == (
            "sample of letter 0: 1024 letters at level 10 of 20 (budget 1000)"
        )

    def test_report_consistent_with_empirical_frequencies(self):
        pd = rs.get_example("period-doubling")
        report = rs.frequency_report(pd, 2, 8, 77)
        word = rs.sample_realisation(pd, "0", 8, 77)
        assert report.empirical == rs.empirical_frequencies(word, 2)
        assert report.sample_length == len(word)

    def test_period_doubling_letter_frequencies(self):
        pd = rs.get_example("period-doubling")
        report = rs.frequency_report(pd, 1, 17, 1729)
        assert report.sample_length >= 10**5
        assert report.max_abs_deviation < 0.01
        rows = {pd.alphabet.format_word(w): pred for w, _e, pred, _d in report.rows()}
        assert rows["0"] == pytest.approx(2 / 3, abs=1e-12)

    def test_reproducible(self):
        fib = rs.get_example("random-fibonacci")
        a = rs.frequency_report(fib, 2, 12, 5)
        b = rs.frequency_report(fib, 2, 12, 5)
        assert a == b

    def test_negative_depth_refused(self):
        golden = rs.get_example("golden")
        with pytest.raises(ValueError, match="depth must be non-negative"):
            rs.frequency_report(golden, 1, -1, 0)
        with pytest.raises(ValueError, match="depth must be non-negative"):
            rs.sample_realisation(golden, 0, -1, 0)

    def test_negative_depth_is_refused_before_the_prediction(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the prediction was computed")

        monkeypatch.setattr(rs.sampler, "word_frequencies", reached)
        with pytest.raises(ValueError, match="depth must be non-negative"):
            rs.frequency_report(rs.get_example("period-doubling"), 16, -1, 0)

    def test_budget_caps_the_prediction(self):
        fib = rs.get_example("random-fibonacci")
        with pytest.raises(rs.BudgetExceededError, match="closure to length 4"):
            rs.frequency_report(fib, 4, 10, 0, budget=10)

    @pytest.mark.parametrize(
        "ell, depth, budget, message",
        [
            (16, 40, 10**7, "16777216 letters at level 24 of 40 (budget 10000000)"),
            (2, 20, 1000, "1024 letters at level 10 of 20 (budget 1000)"),
        ],
    )
    def test_forced_level_is_refused_before_the_prediction(
        self, monkeypatch, ell, depth, budget, message
    ):
        # Period doubling's levels have forced lengths 2^d, so the level that
        # passes the budget and its length are known before any draw.
        def reached(*args, **kwargs):
            raise AssertionError("the prediction was computed")

        monkeypatch.setattr(rs.sampler, "word_frequencies", reached)
        pd = rs.get_example("period-doubling")
        with pytest.raises(rs.BudgetExceededError) as caught:
            rs.frequency_report(pd, ell, depth, 0, budget=budget)
        assert str(caught.value) == f"sample of letter 0: {message}"

    def test_unforced_level_fails_in_the_expansion(self, monkeypatch):
        # golden's shortest and longest level lengths differ (0 -> 0 | 010),
        # so only the drawn sample says where it passes the budget.  The
        # sample is expanded before the prediction, which is never computed.
        calls = []
        prediction = rs.sampler.word_frequencies

        def counted(*args, **kwargs):
            calls.append(args)
            return prediction(*args, **kwargs)

        monkeypatch.setattr(rs.sampler, "word_frequencies", counted)
        golden = rs.get_example("golden")
        with pytest.raises(rs.BudgetExceededError) as caught:
            rs.frequency_report(golden, 2, 40, 7, budget=100000)
        assert str(caught.value) == (
            "sample of letter 0: 159390 letters at level 25 of 40 (budget 100000)"
        )
        assert len(calls) == 0

    def test_traced_peak_per_sampled_letter(self):
        # tracemalloc sees numpy's buffers.  The peak is a quarter byte a
        # sampled letter of one-byte choices, one level at a time, plus about
        # 1 MB of reused block buffers and counts: about 1.3 bytes a letter
        # at 2^20 letters, most of it fixed.  Two levels of choices beside
        # blocks of 2^16 letters read 4.0, gathering and counting the last
        # level 4.9, holding the final word (two bytes a letter) 4.5, and
        # whole-level intp choices with one int64 code per window 20.
        pd = rs.get_example("period-doubling")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = rs.frequency_report(pd, 4, 20, 2024)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.sample_length == 2**20
        assert peak <= 2 * report.sample_length

    def test_traced_peak_grows_under_a_byte_per_added_letter(self):
        # Each level keeps only its one-byte image choices, and the last level
        # is counted as it is gathered, so one more level of period doubling
        # adds to the peak only the last level's choices, half a byte per
        # added letter.  Holding the final word added 2.75 bytes.
        pd = rs.get_example("period-doubling")
        peaks = [traced_peak(lambda: rs.frequency_report(pd, 4, k, 2024)) for k in (21, 22)]
        assert peaks[1] - peaks[0] <= 2**22 - 2**21

    def test_traced_peak_grows_under_three_eighths_byte_per_added_letter(self):
        # A report counts its windows from the last but one level's image ids
        # as they are chosen, so neither those ids nor the last level are
        # held.  The peak comes while they are counted, holding the choices of
        # the level before: one more level of period doubling adds a quarter
        # byte per added letter (2^19 bytes from depth 21 to 22).  Gathering
        # and counting the last level added half a byte (2^20 bytes).
        pd = rs.get_example("period-doubling")
        peaks = [traced_peak(lambda: rs.frequency_report(pd, 4, k, 2024)) for k in (21, 22)]
        assert peaks[1] - peaks[0] <= 3 * 2**18

    def test_deviation_shrinks_to_threshold_for_deterministic(self):
        det = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        report = rs.frequency_report(det, 1, 25, 1)
        assert report.sample_length >= 10**5
        assert report.max_abs_deviation < 0.01
