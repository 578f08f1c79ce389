import numpy as np
import pytest

import randsub as rs
from randsub.sampler import _count_windows_py, _window_counts

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


class TestSampleRealisation:
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
        # Binary windows pack into int64 codes up to ell 62; from ell 63
        # the counter falls back to counting strings directly.
        word = rs.sample_realisation(rs.get_example("random-fibonacci"), "a", 12, 3)
        arr = np.fromiter(map(ord, word), dtype=np.uint16)
        for ell in (1, 5, 62, 63):
            assert _window_counts(arr, ell, 2) == _count_windows_py(word, ell)

    def test_frequencies_sum_to_one(self):
        fib = rs.get_example("random-fibonacci")
        w = rs.sample_realisation(fib, "a", 12, 3)
        freqs = rs.empirical_frequencies(w, 2)
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-9)


class TestFrequencyReport:
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

    def test_budget_caps_the_prediction(self):
        fib = rs.get_example("random-fibonacci")
        with pytest.raises(rs.BudgetExceededError, match="closure to length 4"):
            rs.frequency_report(fib, 4, 10, 0, budget=10)

    def test_deviation_shrinks_to_threshold_for_deterministic(self):
        det = rs.parse_spec("alphabet: a b\nrule a -> ab:1\nrule b -> a:1\n")
        report = rs.frequency_report(det, 1, 25, 1)
        assert report.sample_length >= 10**5
        assert report.max_abs_deviation < 0.01
