"""Invariant suites over the bundled registry plus a reproducible pool of
randomly generated small primitive substitutions."""

import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import randsub as rs
from randsub.core import power_realisation_words
from randsub.sampler import _expand_levels, stream_u01

ROOT = Path(__file__).resolve().parents[1]

POOL_SIZE = 100


def random_substitution(rng: random.Random, letters: str) -> rs.RandomSubstitution:
    lines = [f"alphabet: {' '.join(letters)}"]
    for letter in letters:
        k = rng.randint(1, 3)
        images = []
        for _ in range(k):
            length = rng.randint(1, 3)
            images.append("".join(rng.choice(letters) for _ in range(length)))
        images = list(dict.fromkeys(images))
        lines.append(f"rule {letter} -> " + " | ".join(images))
    return rs.parse_spec("\n".join(lines) + "\n")


def random_primitive_substitution(rng: random.Random) -> rs.RandomSubstitution:
    n = rng.choice((2, 2, 2, 3))
    while True:
        sub = random_substitution(rng, "abc"[:n])
        if rs.is_primitive(sub):
            return sub


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(0xC0FFEE)
    return [random_primitive_substitution(rng) for _ in range(POOL_SIZE)]


@pytest.fixture(scope="module")
def registry():
    return [rs.get_example(name) for name in rs.example_names()]


def all_words_up_to(sub, length):
    words = [chr(i) for i in range(sub.n_letters)]
    frontier = list(words)
    for _ in range(length - 1):
        frontier = [w + chr(i) for w in frontier for i in range(sub.n_letters)]
        words.extend(frontier)
    return words


class TestRealisationProbabilities:
    def test_pool_sums_to_one(self, pool):
        for sub in pool:
            for u in all_words_up_to(sub, 2):
                total = sum(p for _w, p in rs.realisations(sub, u))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_registry_sums_to_one(self, registry):
        for sub in registry:
            for u in all_words_up_to(sub, 2):
                total = sum(p for _w, p in rs.realisations(sub, u))
                assert total == pytest.approx(1.0, abs=1e-9)


def materialising_splitting_pairs(sub, k_max, budget=10**6):
    """Reference: splitting_pairs as it was before realisations were
    streamed, materialising every realisation before the (i, j) search."""
    pairs = {}
    for k in range(1, k_max + 1):
        for letter in range(sub.n_letters):
            words = [w for w, _p in rs.power_realisations(sub, letter, k, budget=budget)]
            hit = None
            for i in range(len(words)):
                if hit:
                    break
                for j in range(i + 1, len(words)):
                    u, v = words[i], words[j]
                    if len(u) > len(v):
                        u, v = v, u
                    if not rs.is_strong_affix(u, v):
                        hit = rs.SplittingPair(letter, k, u, v)
                        break
            pairs[(k, letter)] = hit
    return pairs


def dp_max_realisation_lengths(sub, k_max):
    """The longest k-th image lengths by their own DP, as an oracle."""
    longest = [1] * sub.n_letters
    out = []
    for _ in range(k_max):
        longest = [
            max(sum(longest[ord(c)] for c in image) for image in rule.images)
            for rule in sub.rules
        ]
        out.append(max(longest))
    return out


class TestMaxRealisationLengths:
    def test_pool_and_registry_match_dp(self, pool, registry):
        for sub in pool + registry:
            for k_max in range(6):
                assert rs.max_realisation_lengths(sub, k_max) == dp_max_realisation_lengths(
                    sub, k_max
                )


class TestRealisationStreams:
    def test_power_stream_order_on_pool_and_registry(self, pool, registry):
        for sub in pool + registry:
            for letter in range(sub.n_letters):
                for k in range(4):
                    expect = [w for w, _p in rs.power_realisations(sub, letter, k)]
                    assert list(power_realisation_words(sub, letter, k)) == expect

    def test_splitting_pairs_match_reference_on_pool_and_registry(self, pool, registry):
        for sub in pool + registry:
            assert rs.splitting_pairs(sub, 3).pairs == materialising_splitting_pairs(sub, 3)

    def test_splitting_pairs_match_reference_on_deep_spec(self):
        deep = rs.parse_spec((ROOT / "perfbench" / "deep.spec").read_text())
        assert rs.splitting_pairs(deep, 4).pairs == materialising_splitting_pairs(deep, 4)


class TestIsRealisation:
    def test_pool_agrees_with_enumeration(self, pool):
        for sub in pool:
            candidates = all_words_up_to(sub, 6)
            for letter in range(sub.n_letters):
                for k in range(3):
                    members = {w for w, _p in rs.power_realisations(sub, letter, k)}
                    for w in members:
                        assert rs.is_realisation(sub, letter, k, w)
                    for w in candidates:
                        assert rs.is_realisation(sub, letter, k, w) == (w in members)


def dense_is_irreducible_matrix(support):
    """Reference: is_irreducible_matrix as it was before the graph walk,
    by boolean repeated squaring of I + A."""
    n = support.shape[0]
    reach = ((support > 0) | np.eye(n, dtype=bool)).astype(np.int64)
    steps = max(1, int(np.ceil(np.log2(max(n - 1, 1)))) + 1)
    for _ in range(steps):
        reach = ((reach @ reach) > 0).astype(np.int64)
        if reach.all():
            return True
    return bool(reach.all())


def dense_is_primitive_matrix(support):
    """Reference: is_primitive_matrix as it was before the graph walk, by
    squaring A past the Wielandt bound n^2 - 2n + 2."""
    n = support.shape[0]
    if n == 1:
        return bool(support[0, 0] > 0)
    power = (support > 0).astype(np.int64)
    if (power.sum(axis=0) == 0).any() or (power.sum(axis=1) == 0).any():
        return False
    wielandt = n * n - 2 * n + 2
    k = 1
    while True:
        if power.all():
            return True
        if k >= wielandt:
            return False
        power = ((power @ power) > 0).astype(np.int64)
        k *= 2


def assert_matches_dense(sub):
    support = rs.support_matrix(sub)
    assert rs.is_primitive(sub) == dense_is_primitive_matrix(support), rs.serialize(sub)
    assert rs.is_irreducible(sub) == dense_is_irreducible_matrix(support), rs.serialize(sub)


# The full shift's induced substitution at ell has 2 * 4^ell images, so its
# build takes 0.4 s at ell 6 and about 30 s at ell 8.
REGISTRY_INDUCED_ELL = {"full-shift-2": 6}


class TestPrimitivityOracle:
    def test_random_matrices_match_dense(self):
        rng = np.random.default_rng(20260418)
        verdicts = set()
        for a in ([[0]], [[1]], [[3]]):
            a = np.array(a, dtype=np.int64)
            assert rs.is_primitive_matrix(a) == dense_is_primitive_matrix(a)
            assert rs.is_irreducible_matrix(a) == dense_is_irreducible_matrix(a)
        for n in range(1, 9):
            for trial in range(2500):
                if trial % 2:
                    a = rng.random((n, n)) < rng.uniform(0.05, 0.6)
                else:
                    # Edges only from class c to class c + 1 mod p: periodic
                    # whenever the graph is strongly connected and p > 1.
                    p = int(rng.integers(1, n + 1))
                    cls = rng.integers(0, p, size=n)
                    allowed = cls[:, None] == (cls[None, :] + 1) % p
                    a = allowed & (rng.random((n, n)) < rng.uniform(0.3, 1.0))
                a = a.astype(np.int64)
                primitive = rs.is_primitive_matrix(a)
                irreducible = rs.is_irreducible_matrix(a)
                assert primitive == dense_is_primitive_matrix(a), a.tolist()
                assert irreducible == dense_is_irreducible_matrix(a), a.tolist()
                verdicts.add((primitive, irreducible))
        # Every possible pair of verdicts was exercised.
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_substitutions_match_dense(self, pool, registry):
        rng = random.Random(0xFACADE)
        unfiltered = [random_substitution(rng, "abc"[: rng.choice((1, 2, 3))]) for _ in range(300)]
        for sub in pool + registry + unfiltered:
            assert_matches_dense(sub)
        assert not all(rs.is_irreducible(sub) for sub in unfiltered)
        assert not all(rs.is_primitive(sub) == rs.is_irreducible(sub) for sub in unfiltered)

    def test_induced_substitutions_match_dense(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            for ell in range(1, 5):
                assert_matches_dense(rs.induced_substitution(sub, ell).sub)
        for name in rs.example_names():
            sub = rs.get_example(name)
            if rs.is_empty_subshift(sub):
                continue
            ell_max = REGISTRY_INDUCED_ELL.get(name, 10)
            table = rs.legal_words(sub, ell_max)
            for ell in range(1, ell_max + 1):
                assert_matches_dense(rs.induced_substitution(sub, ell, table=table).sub)


class TestLanguageInvariants:
    def test_pool_factor_and_substitution_closed(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                assert sub.max_image_len == 1
                continue
            table = rs.legal_words(sub, 5)
            for ell in range(2, 6):
                for w in table.words(ell):
                    assert w[1:] in table and w[:-1] in table
            for m in (1, 2):
                for u in table.words(m):
                    for v, _p in rs.realisations(sub, u):
                        for piece in rs.subwords(v, max_len=5):
                            assert piece in table

    def test_pool_submultiplicative(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            counts = rs.complexity(rs.legal_words(sub, 5), 5)
            for k in range(1, 5):
                for ell in range(1, 6 - k):
                    assert counts[k + ell - 1] <= counts[k - 1] * counts[ell - 1]

    def test_registry_submultiplicative(self, registry, tables):
        for sub, name in zip(registry, rs.example_names()):
            if rs.is_empty_subshift(sub):
                continue
            counts = rs.complexity(tables(name, 8), 8)
            for k in range(1, 8):
                for ell in range(1, 9 - k):
                    assert counts[k + ell - 1] <= counts[k - 1] * counts[ell - 1]


def str_closure(sub, ell, budget):
    """Reference: the language closure on sets of str windows, as it was
    before words were coded as integers.  Returns the legal words per
    length and the per-length stabilisation rounds."""
    rules = sub.rules
    work = 0
    live = {}
    emitted_of = {}

    def process(word):
        nonlocal work
        if word in emitted_of:
            return emitted_of[word]
        emitted = set()
        partials = set()
        if len(word) == 1:
            for image in rules[ord(word)].images:
                for offset in range(len(image)):
                    tail = image[offset:]
                    work += 1
                    emitted.add(tail[:ell])
                    if len(tail) < ell:
                        partials.add(tail)
        else:
            process(word[:-1])
            for stem in live[word[:-1]]:
                for image in rules[ord(word[-1])].images:
                    grown = stem + image
                    work += 1
                    emitted.add(grown[:ell])
                    if len(grown) < ell:
                        partials.add(grown)
        if work > budget:
            raise rs.BudgetExceededError(
                f"language closure to length {ell}: {work} window extensions "
                f"in round {rounds}",
                budget,
            )
        live[word] = tuple(sorted(partials))
        emitted_of[word] = frozenset(emitted)
        return emitted_of[word]

    known, derived, round_added = set(), set(), {}
    frontier = sorted(chr(i) for i in range(sub.n_letters))
    known.update(frontier)
    rounds = 0
    queue = deque(frontier)
    while queue:
        rounds += 1
        fresh = set()
        for _ in range(len(queue)):
            word = queue.popleft()
            for window in process(word):
                if window not in known:
                    fresh.add(window)
                if window not in derived:
                    derived.add(window)
                    for piece in rs.subwords(window):
                        derived.add(piece)
                        if piece not in known:
                            fresh.add(piece)
            emitted_of[word] = frozenset()
        for word in sorted(fresh):
            known.add(word)
            round_added[len(word)] = rounds
            queue.append(word)
    words = {m: tuple(sorted(w for w in derived if len(w) == m)) for m in range(1, ell + 1)}
    return words, {m: round_added.get(m, 0) for m in range(1, ell + 1)}


def closure_outcome(close, sub, ell, budget):
    """(words per length, stabilized_at), or the budget error's text."""
    try:
        return close(sub, ell, budget)
    except rs.BudgetExceededError as exc:
        return str(exc)


def table_closure(sub, ell, budget):
    table = rs.LanguageTable(sub, ell, budget=budget)
    return {m: table.words(m) for m in range(1, ell + 1)}, table.stabilized_at


def assert_closures_agree(sub, ell, budget=10**8):
    expect = closure_outcome(str_closure, sub, ell, budget)
    assert closure_outcome(table_closure, sub, ell, budget) == expect, (rs.serialize(sub), ell)


class TestLanguageOracle:
    def test_pool_tables_match(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            for ell in (1, 2, 3, 5, 8):
                assert_closures_agree(sub, ell)

    def test_registry_tables_match(self, registry):
        for sub, name in zip(registry, rs.example_names()):
            if rs.is_empty_subshift(sub):
                continue
            for ell in (1, 4, 12) if name == "full-shift-2" else (1, 4, 11, 18):
                assert_closures_agree(sub, ell)

    def test_budget_errors_match(self, pool, registry):
        for sub, ell in [(sub, 8) for sub in pool] + [(sub, 12) for sub in registry]:
            if rs.is_empty_subshift(sub):
                continue
            for budget in (50, 1000, 5000):
                assert_closures_agree(sub, ell, budget)

    def test_wide_codes_match(self):
        # 3^(40 + 2) >= 2^62, so this closure runs on Python-int codes
        tribonacci = rs.parse_spec(
            "alphabet: a b c\nrule a -> ab:1\nrule b -> ac:1\nrule c -> a:1\n"
        )
        assert rs.language.code_dtype(3, 40 + tribonacci.max_image_len) is object
        for budget in (10**8, 50, 100):
            assert_closures_agree(tribonacci, 40, budget)
        assert rs.legal_words(tribonacci, 40).count(40) == 81


class TestInducedPrimitivity:
    def test_pool_induced_primitive_up_to_four(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            for ell in range(1, 5):
                ind = rs.induced_substitution(sub, ell)
                assert rs.induced_is_primitive(ind), rs.serialize(sub)

    def test_registry_induced_primitive_up_to_four(self, registry):
        for sub in registry:
            if rs.is_empty_subshift(sub):
                continue
            for ell in range(1, 5):
                assert rs.induced_is_primitive(rs.induced_substitution(sub, ell))


class TestCensusAndZeta:
    def test_pool_divisor_consistency_and_round_trip(self, pool):
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            n_max = 4 if sub.n_letters == 2 else 3
            raw = rs.periodic_census(sub, n_max)
            for census in (raw, rs.refine_census_by_frequencies(sub, raw)):
                for n in range(1, n_max + 1):
                    roots = set(census.roots[n])
                    assert roots <= set(raw.roots[n])
                    assert all(u[1:] + u[:1] in roots for u in roots)
                    for d in range(1, n):
                        if n % d == 0:
                            assert census.count(n) >= census.count(d)
                series = rs.zeta_series(census, n_max)
                back = rs.series_log(list(series.coefficients))
                np.testing.assert_allclose(back, series.log_terms, atol=1e-9)

    def test_registry_divisor_consistency(self, registry, tables):
        for sub, name in zip(registry, rs.example_names()):
            if rs.is_empty_subshift(sub):
                continue
            raw = rs.periodic_census(sub, 4, 8, table=tables(name, 8))
            for census in (raw, rs.refine_census_by_frequencies(sub, raw)):
                for n in range(1, 5):
                    assert set(census.roots[n]) <= set(raw.roots[n])
                    for d in range(1, n):
                        if n % d == 0:
                            assert census.count(n) >= census.count(d)


class TestPerronIdentities:
    def test_pool(self, pool):
        for sub in pool:
            m = rs.substitution_matrix(sub)
            if not rs.is_primitive_matrix((m > 0).astype(np.int64)):
                continue  # degenerate-support cases are not generated here
            pf = rs.perron_data(m)
            assert abs(pf.right.sum() - 1.0) < 1e-12
            assert abs(pf.left @ pf.right - 1.0) < 1e-12
            assert (pf.right > 0).all() and (pf.left > 0).all()
            assert pf.residual <= 1e-12 * max(1.0, pf.lam)
            np.testing.assert_allclose(m @ pf.right, pf.lam * pf.right, atol=1e-10)
            sums = m.sum(axis=0)
            assert sums.min() - 1e-9 <= pf.lam <= sums.max() + 1e-9

    def test_registry(self, registry):
        for sub in registry:
            pf = rs.perron_data(rs.substitution_matrix(sub))
            assert abs(pf.right.sum() - 1.0) < 1e-12
            assert abs(pf.left @ pf.right - 1.0) < 1e-12


class TestSamplerReproducibility:
    def test_pool_member_reports_are_pure(self, pool):
        sub = pool[0]
        if rs.is_empty_subshift(sub):
            sub = next(s for s in pool if not rs.is_empty_subshift(s))
        a = rs.frequency_report(sub, 1, 8, 2024)
        b = rs.frequency_report(sub, 1, 8, 2024)
        assert a == b


class _RuleTables:
    """Per-letter image tables of the scatter sampler below."""

    def __init__(self, sub):
        self.images = []
        self.lengths = []
        self.cumprobs = []
        for rule in sub.rules:
            self.images.append(
                [np.fromiter(map(ord, w), dtype=np.uint16, count=len(w)) for w in rule.images]
            )
            self.lengths.append(np.array([len(w) for w in rule.images], dtype=np.int64))
            cum = np.cumsum(np.asarray(rule.probabilities, dtype=float))
            cum[-1] = max(cum[-1], 1.0)
            self.cumprobs.append(cum)


def scatter_expand_levels(sub, letter, k, seed):
    """Reference: the sampler as it was before the flat image table, with
    a searchsorted per letter and a scatter per (letter, image, offset)."""
    tables = _RuleTables(sub)
    word = np.array([letter], dtype=np.uint16)
    for depth in range(k):
        u = stream_u01(seed, depth, np.arange(len(word), dtype=np.uint64))
        choices = np.empty(len(word), dtype=np.int64)
        lengths = np.empty(len(word), dtype=np.int64)
        for a in np.unique(word):
            mask = word == a
            picked = np.searchsorted(tables.cumprobs[a], u[mask], side="right")
            picked = np.minimum(picked, len(tables.cumprobs[a]) - 1)
            choices[mask] = picked
            lengths[mask] = tables.lengths[a][picked]
        total = int(lengths.sum())
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        out = np.empty(total, dtype=np.uint16)
        for a in np.unique(word):
            for j, image in enumerate(tables.images[a]):
                sel = starts[(word == a) & (choices == j)]
                for t, c in enumerate(image):
                    out[sel + t] = c
        word = out
    return word


# Mixed arities with non-dyadic probabilities, and a zero-probability
# image whose expected matrix is periodic.
HAND_SAMPLER_SPECS = (
    "alphabet: a b c\nrule a -> ab:0.3 | c:0.1 | bca:0.6\nrule b -> a:1/3 | cc:2/3\n"
    "rule c -> b:1\n",
    "alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n",
)
SAMPLER_SEEDS = (0, 1, -3, 2**64 + 5)


def assert_samplers_agree(sub, depths, seeds=SAMPLER_SEEDS):
    for letter in range(sub.n_letters):
        for depth in depths:
            for seed in seeds:
                got = _expand_levels(sub, letter, depth, seed)
                want = scatter_expand_levels(sub, letter, depth, seed)
                assert got.dtype == want.dtype, (letter, depth, seed)
                assert np.array_equal(got, want), (letter, depth, seed)


class TestSamplerOracle:
    def test_pool_levels_match(self, pool):
        for sub in pool:
            assert_samplers_agree(sub, range(7))

    def test_registry_levels_match(self, registry):
        for sub in registry:
            assert_samplers_agree(sub, (8,))

    def test_hand_specs_match(self):
        for text in HAND_SAMPLER_SPECS:
            assert_samplers_agree(rs.parse_spec(text), (1, 5, 12), SAMPLER_SEEDS + (2**70,))
