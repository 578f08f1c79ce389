import math

import numpy as np
import pytest

import randsub as rs


class TestSubstitutionMatrix:
    def test_period_doubling(self):
        m = rs.substitution_matrix(rs.get_example("period-doubling"))
        assert m.tolist() == [[1.0, 2.0], [1.0, 0.0]]

    def test_random_fibonacci_any_p(self):
        fib = rs.get_example("random-fibonacci")
        for p in (0.5, 0.1, 0.9):
            m = rs.substitution_matrix(rs.with_probabilities(fib, {"a": [p, 1 - p]}))
            assert m.tolist() == [[1.0, 1.0], [1.0, 0.0]]

    def test_identity(self):
        m = rs.substitution_matrix(rs.parse_spec("alphabet: a\nrule a -> a:1\n"))
        assert m.tolist() == [[1.0]]

    def test_column_sums_are_expected_image_lengths(self):
        for name in rs.example_names():
            sub = rs.get_example(name)
            m = rs.substitution_matrix(sub)
            np.testing.assert_allclose(
                m.sum(axis=0), sub.expected_image_lengths(), atol=1e-12
            )

    def test_deterministic_matrix_has_integer_letter_counts(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> abaab:1\nrule b -> ba:1\n")
        m = rs.substitution_matrix(sub)
        assert m.tolist() == [[3.0, 1.0], [2.0, 1.0]]


class TestSupportAndPrimitivity:
    def test_support_ignores_probabilities(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> b:0 | a:1\nrule b -> a:1\n")
        support = rs.support_matrix(sub)
        expected = rs.substitution_matrix(sub)
        assert support.tolist() == [[1, 1], [1, 0]]
        assert expected[1][0] == 0.0  # b never produced in expectation

    def test_support_of_fibonacci_and_golden(self):
        assert rs.support_matrix(rs.get_example("random-fibonacci")).tolist() == [
            [1, 1],
            [1, 0],
        ]
        assert rs.support_matrix(rs.get_example("golden")).tolist() == [[1, 1], [1, 1]]

    def test_degenerate_primitive_with_non_primitive_matrix(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> b:0 | a:1\nrule b -> a:1\n")
        assert rs.is_primitive(sub)
        m = rs.substitution_matrix(sub)
        assert not rs.is_primitive_matrix((m > 0).astype(np.int64))

    def test_fibonacci_primitive(self):
        assert rs.is_primitive(rs.get_example("random-fibonacci"))

    def test_empty_demo_primitive(self):
        assert rs.is_primitive(rs.get_example("empty-demo"))

    def test_block_diagonal_not_irreducible(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> a:1\nrule b -> b:1\n")
        assert not rs.is_irreducible(sub)
        assert not rs.is_primitive(sub)

    def test_irreducible_not_primitive(self):
        sub = rs.parse_spec("alphabet: a b\nrule a -> b:1\nrule b -> a:1\n")
        assert rs.is_irreducible(sub)
        assert not rs.is_primitive(sub)

    def test_primitivity_stable_under_square(self):
        for name in rs.example_names():
            sub = rs.get_example(name)
            if not rs.is_primitive(sub):
                continue
            support = rs.support_matrix(sub)
            squared = ((support @ support) > 0).astype(np.int64)
            assert rs.is_primitive_matrix(squared)

    def test_long_cycle_is_periodic_until_a_chord(self):
        # Letter j maps to letter j + 1 mod 2000: one cycle of length 2000,
        # far past what squaring 2000 x 2000 matrices decides quickly.
        n = 2000
        cycle = np.zeros((n, n), dtype=np.int8)
        cycle[(np.arange(n) + 1) % n, np.arange(n)] = 1
        assert rs.is_irreducible_matrix(cycle)
        assert not rs.is_primitive_matrix(cycle)
        # A chord 1999 -> 1 adds a cycle of length 1999, coprime to 2000.
        chorded = cycle.copy()
        chorded[1, n - 1] = 1
        assert rs.is_irreducible_matrix(chorded)
        assert rs.is_primitive_matrix(chorded)

        letters = rs.Alphabet([f"x{j}" for j in range(n)])
        rules = [rs.Rule(j, (chr((j + 1) % n),), (1.0,)) for j in range(n)]
        sub = rs.RandomSubstitution(letters, rules)
        assert rs.is_irreducible(sub)
        assert not rs.is_primitive(sub)
        rules[-1] = rs.Rule(n - 1, (chr(0), chr(1)), (0.5, 0.5))
        sub = rs.RandomSubstitution(letters, rules)
        assert rs.is_irreducible(sub)
        assert rs.is_primitive(sub)


class TestPerron:
    def test_period_doubling_eigendata(self):
        pf = rs.perron_data(rs.substitution_matrix(rs.get_example("period-doubling")))
        assert abs(pf.lam - 2.0) < 1e-12
        assert abs(pf.right[0] - 2 / 3) < 1e-12
        assert abs(pf.right[1] - 1 / 3) < 1e-12
        assert pf.residual < 1e-12

    def test_identity_matrix(self):
        pf = rs.perron_data(np.array([[1.0]]))
        assert pf.lam == pytest.approx(1.0, abs=1e-15)
        assert pf.right.tolist() == [1.0]
        assert pf.left.tolist() == [1.0]

    def test_normalisations(self):
        m = rs.substitution_matrix(rs.get_example("golden"))
        pf = rs.perron_data(m)
        assert abs(pf.right.sum() - 1.0) < 1e-12
        assert abs(pf.left @ pf.right - 1.0) < 1e-12
        assert (pf.right > 0).all() and (pf.left > 0).all()
        np.testing.assert_allclose(m @ pf.right, pf.lam * pf.right, atol=1e-11)
        np.testing.assert_allclose(pf.left @ m, pf.lam * pf.left, atol=1e-11)

    def test_column_sum_sandwich(self):
        for name in ("golden", "period-doubling", "random-fibonacci", "sofic-ab"):
            m = rs.substitution_matrix(rs.get_example(name))
            pf = rs.perron_data(m)
            sums = m.sum(axis=0)
            assert sums.min() - 1e-9 <= pf.lam <= sums.max() + 1e-9

    def test_not_primitive_rejected(self):
        with pytest.raises(rs.NotPrimitiveError):
            rs.perron_data(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_square_and_negative_rejected(self, monkeypatch):
        # Every guard (square, non-empty, finite, non-negative) raises before the power
        # iteration starts; a NaN or inf entry would otherwise run the whole
        # PF_ITERATION_CAP and end in NoConvergenceError.
        def no_iteration(*args):
            raise AssertionError("power iteration reached")

        monkeypatch.setattr(rs.matrices, "_power_iterates", no_iteration)
        with pytest.raises(ValueError, match="square"):
            rs.perron_data(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            rs.perron_data(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="non-negative"):
            rs.perron_data(np.array([[1.0, -0.1], [1.0, 1.0]]))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                rs.perron_data(np.array([[bad, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # tol <= 0 would run the full iteration cap before failing
        m = rs.substitution_matrix(rs.get_example("random-fibonacci"))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            rs.perron_data(m, tol=tol)
