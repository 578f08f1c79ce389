"""Invariant suites over the bundled registry plus a reproducible pool of
randomly generated small primitive substitutions."""

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import randsub as rs
import randsub.induced
import randsub.matrices
import randsub.sampler
from conftest import seed_for_draw
from randsub.core import (
    _image_budget_error,
    _level_bounds,
    _realisation_map,
    power_realisation_words,
)
from randsub.induced import _tail_maps
from randsub.language import code_base, code_dtype, decode_codes, encode_rows
from randsub.matrices import DEFAULT_PF_TOL, PF_ITERATION_CAP, _assemble, _power_iterates
from randsub.sampler import _expand_levels, _window_counts, stream_u01

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


SHARED_POOL_SIZE = 30


def shared_class_substitution(rng: random.Random) -> rs.RandomSubstitution:
    """A primitive, non-empty substitution on 2 or 3 letters with one letter's
    rule copied onto another, so that two letters share one image set."""
    n = rng.choice((2, 3))
    while True:
        lines = rs.serialize(random_substitution(rng, "abc"[:n])).splitlines()
        rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
        source, target = rng.sample(rules, 2)
        lines[target] = lines[target].split("->")[0] + "->" + lines[source].split("->")[1]
        sub = rs.parse_spec("\n".join(lines) + "\n")
        if rs.is_primitive(sub) and sub.max_image_len > 1:
            return sub


@pytest.fixture(scope="module")
def shared_pool():
    rng = random.Random(0x5AC1A55)
    return [shared_class_substitution(rng) for _ in range(SHARED_POOL_SIZE)]


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


class TestSerializeRoundTrip:
    def test_pool_and_registry(self, pool, registry):
        # One parse reaches serialize's fixpoint; images and their order come
        # back exactly, probabilities to 12 significant digits, and the
        # registry's dyadic probabilities exactly.
        for sub in pool + registry:
            text = rs.serialize(sub)
            again = rs.parse_spec(text)
            assert rs.serialize(again) == text
            for rule, back in zip(sub.rules, again.rules):
                assert back.images == rule.images, text
                for p, q in zip(rule.probabilities, back.probabilities):
                    assert math.isclose(p, q, rel_tol=5e-12), text
        for sub in registry:
            assert rs.parse_spec(rs.serialize(sub)) == sub

    def test_uniform_thirds_come_back_rounded(self):
        sub = rs.parse_spec("alphabet: a\nrule a -> a | aa | aaa\n")
        again = rs.parse_spec(rs.serialize(sub))
        assert sub.rules[0].probabilities == (1 / 3,) * 3
        assert again.rules[0].probabilities == (0.333333333333,) * 3
        assert again != sub


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


# The full shift's window tails have 4^(ell - 1) full realisations each, so
# the full-tail build (full_tail_induced below) takes 0.4 s at ell 6 and
# 10-25 s at ell 8.
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


def wide_code_subs():
    """Tribonacci, and a 3-letter substitution whose b and c share one image
    set: at length 40 their codes pass 2^62 and run as Python ints."""
    tribonacci = rs.parse_spec("alphabet: a b c\nrule a -> ab:1\nrule b -> ac:1\nrule c -> a:1\n")
    shared = rs.parse_spec("alphabet: a b c\nrule a -> ab\nrule b -> ca\nrule c -> ca\n")
    return tribonacci, shared


def str_closure(sub, ell, budget):
    """Reference: the language closure on sets of str windows, as it was
    before words were coded as integers.  Each round's words are queued
    shortest first and lexicographically within a length, the order in
    which the closure charges its budget; the words and rounds found do
    not depend on that order.  Returns the legal words per length, the
    per-length stabilisation rounds and each processed word's live
    partial windows, sorted."""
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
        for word in sorted(fresh, key=lambda w: (len(w), w)):
            known.add(word)
            round_added[len(word)] = rounds
            queue.append(word)
    words = {m: tuple(sorted(w for w in derived if len(w) == m)) for m in range(1, ell + 1)}
    return words, {m: round_added.get(m, 0) for m in range(1, ell + 1)}, live


@pytest.fixture(scope="class")
def references():
    """``str_closure``'s outcome per (substitution, ell, budget), computed once
    for every test of a class that reads it: (words, rounds, live sets), or
    the budget error's text.  The class scope frees them, about 140 MB, once
    ``TestLanguageOracle`` is done."""
    cache = {}

    def get(sub, ell, budget=10**8):
        key = (rs.serialize(sub), ell, budget)
        if key not in cache:
            try:
                cache[key] = str_closure(sub, ell, budget)
            except rs.BudgetExceededError as exc:
                cache[key] = str(exc)
        return cache[key]

    return get


def table_closure(sub, ell, budget):
    """(words per length, stabilized_at) of a table, or the budget error's text."""
    try:
        table = rs.LanguageTable(sub, ell, budget=budget)
    except rs.BudgetExceededError as exc:
        return str(exc)
    return {m: table.words(m) for m in range(1, ell + 1)}, table.stabilized_at


def class_code(sub, word):
    """``word`` with each letter replaced by the first letter whose rule has
    the same image set."""
    sets = [set(rule.images) for rule in sub.rules]
    return "".join(chr(sets.index(sets[ord(c)])) for c in word)


def indexed_partials(closure):
    """Each class code's live partials decoded from a run closure's index:
    sorted class codes closed by the sentinel b^m, and each code's first row."""
    base, out = closure.base, {}
    for m, (codes, starts, packed, lengths) in closure.live.items():
        assert codes[-1] == base**m and starts[-1] == len(packed) == len(lengths)
        assert all(codes[:-1] < codes[1:]) and all(starts[:-1] < starts[1:])
        if m == 0:
            continue
        spelled = np.empty(len(packed), dtype=object)
        for length in set(lengths.tolist()):
            rows = np.flatnonzero(lengths == length)
            spelled[rows] = decode_codes(packed[rows] - base**length, length, base)
        words = decode_codes(codes[:-1], m, base)
        for word, lo, hi in zip(words, starts[:-1], starts[1:]):
            out[word] = tuple(sorted(spelled[lo:hi]))
    return out


def assert_closures_agree(references, sub, ell, budget=10**8):
    expect = references(sub, ell, budget)
    expect = expect if isinstance(expect, str) else expect[:2]
    assert table_closure(sub, ell, budget) == expect, (rs.serialize(sub), ell)


class TestLanguageOracle:
    def test_pool_tables_match(self, pool, shared_pool, references):
        for sub in pool + shared_pool:
            if rs.is_empty_subshift(sub):
                continue
            for ell in (1, 2, 3, 5, 8):
                assert_closures_agree(references, sub, ell)

    def test_registry_tables_match(self, registry, references):
        for sub, name in zip(registry, rs.example_names()):
            if rs.is_empty_subshift(sub):
                continue
            for ell in (1, 4, 12) if name == "full-shift-2" else (1, 4, 11, 18):
                assert_closures_agree(references, sub, ell)

    def test_budget_errors_match(self, pool, shared_pool, registry, references):
        cases = [(sub, 8) for sub in pool + shared_pool] + [(sub, 12) for sub in registry]
        for sub, ell in cases:
            if rs.is_empty_subshift(sub):
                continue
            for budget in (50, 1000, 5000):
                assert_closures_agree(references, sub, ell, budget)

    def test_failing_closure_stays_within_budget(self, pool, shared_pool, registry, monkeypatch):
        # Sum the (partial, image) pairs handed to every extension: a
        # closure that fails must stop before it runs past its budget.
        extend = rs.language._Closure._extend
        ran = [0]

        def counted(self, m, table, words, lo, hi, last, chunks):
            ran[0] += int(((hi - lo) * table[0][last]).sum())
            return extend(self, m, table, words, lo, hi, last, chunks)

        monkeypatch.setattr(rs.language._Closure, "_extend", counted)
        cases = [(sub, 8) for sub in pool + shared_pool] + [(sub, 12) for sub in registry]
        cases.append((rs.get_example("sofic-ab"), 20))
        for sub, ell in cases:
            if rs.is_empty_subshift(sub):
                continue
            for budget in (50, 100, 1000, 5000):
                ran[0] = 0
                try:
                    rs.LanguageTable(sub, ell, budget=budget)
                except rs.BudgetExceededError:
                    assert ran[0] <= budget, (rs.serialize(sub), ell, budget, ran[0])

    def test_partial_index_matches_live_sets(self, pool, shared_pool, registry, references):
        # Every processed word's oracle live set is the index entry of its
        # class code, and every index key is the class code of a processed
        # word with partials; words without partials stay out of the index.
        cases = [(sub, 8) for sub in pool + shared_pool] + [(sub, 12) for sub in registry]
        for sub, ell in cases:
            if rs.is_empty_subshift(sub):
                continue
            closure = rs.language._Closure(sub, ell, 10**8)
            closure.run()
            index = indexed_partials(closure)
            keys = set()
            for word, partials in references(sub, ell)[2].items():
                key = class_code(sub, word)
                if partials:
                    assert index.get(key) == partials, (rs.serialize(sub), ell, word)
                    keys.add(key)
                else:
                    assert key not in index, (rs.serialize(sub), ell, word)
            assert set(index) == keys, (rs.serialize(sub), ell)

    def test_wide_codes_match(self, references):
        # 3^(40 + 2) >= 2^62, so these closures run on Python-int codes
        tribonacci, shared = wide_code_subs()
        for sub in (tribonacci, shared):
            assert rs.language.code_dtype(3, 40 + sub.max_image_len) is object
            for budget in (10**8, 50, 100):
                assert_closures_agree(references, sub, 40, budget)
        assert rs.legal_words(tribonacci, 40).count(40) == 81
        assert rs.legal_words(shared, 40).count(40) == 124


def full_tail_induced(sub, ell, table=None):
    """Words and rules of the induced substitution built from every full
    realisation of each window's tail, not from tails cut to ell - 1
    letters.  Cutting early changes no key and no key order, because
    (x + y)[:k] == (x[:k] + y)[:k]; it only changes how the probabilities
    are summed."""
    if ell == 1:
        words = tuple(sorted({c for rule in sub.rules for image in rule.images for c in image}))
    else:
        words = rs.legal_words(sub, ell, table=table).words(ell)
    position = {w: i for i, w in enumerate(words)}
    rules = []
    for w in words:
        first_rule = sub.rules[ord(w[0])]
        tail_map = _realisation_map(sub, w[1:], 10**8) if len(w) > 1 else {"": 1.0}
        merged = {}
        for first_image, p0 in zip(first_rule.images, first_rule.probabilities):
            for tail, pt in tail_map.items():
                v = first_image + tail
                u = "".join(chr(position[v[k : k + ell]]) for k in range(len(first_image)))
                merged[u] = merged.get(u, 0.0) + p0 * pt
        rules.append((tuple(merged), tuple(merged.values())))
    return words, rules


def seeded_point(sub, rng):
    """A seeded non-degenerate probability assignment for every letter."""
    assignment = {}
    for letter, rule in zip(sub.alphabet.letters, sub.rules):
        weights = [rng.uniform(0.1, 1.0) for _ in rule.images]
        assignment[letter] = [x / sum(weights) for x in weights]
    return assignment


def non_dyadic(sub, rng):
    """``sub`` with seeded probabilities whose sums round differently when
    they are added in another order."""
    return rs.with_probabilities(sub, seeded_point(sub, rng))


def assert_induced_matches_full_tails(sub, ell, table=None):
    ind = rs.induced_substitution(sub, ell, table=table)
    words, rules = full_tail_induced(sub, ell, table=table)
    assert ind.words == words
    assert len(ind.sub.rules) == len(rules)
    for rule, (images, probabilities) in zip(ind.sub.rules, rules):
        assert rule.images == images, rs.serialize(sub)
        np.testing.assert_allclose(rule.probabilities, probabilities, rtol=1e-14, atol=0)


class TestInducedTailCut:
    def test_pool_matches_full_tails(self, pool):
        rng = random.Random(0xD1FF)
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            sub = non_dyadic(sub, rng)
            for ell in range(1, 5):
                assert_induced_matches_full_tails(sub, ell)

    def test_registry_matches_full_tails(self):
        rng = random.Random(0xD1FE)
        for name in rs.example_names():
            sub = rs.get_example(name)
            if rs.is_empty_subshift(sub):
                continue
            ell_max = REGISTRY_INDUCED_ELL.get(name, 8)
            table = rs.legal_words(sub, ell_max)
            for probed in (sub, non_dyadic(sub, rng)):
                for ell in range(1, ell_max + 1):
                    assert_induced_matches_full_tails(probed, ell, table=table)


class TestInducedTailMaps:
    @pytest.mark.parametrize(
        "name, tails", [("random-fibonacci", 510), ("period-doubling", 695)]
    )
    def test_one_map_per_distinct_tail(self, monkeypatch, name, tails):
        # These languages have 851 and 1,198 windows of length 12; their
        # distinct tails enter the engine once, in one pass.
        sub = rs.get_example(name)
        table = rs.legal_words(sub, 12)
        calls = []

        def counted(sub, rows, *args):
            calls.append(rows.tolist())
            return _tail_maps(sub, rows, *args)

        monkeypatch.setattr(randsub.induced, "_tail_maps", counted)
        ind = rs.induced_substitution(sub, 12, table=table)
        (rows,) = calls
        assert len(rows) == tails
        assert {"".join(map(chr, row)) for row in rows} == {w[1:] for w in ind.words}


def full_realisation_map(sub, word, budget, keep=None, weights=None):
    """Reference: the cut tail map as it was before tails stopped once full,
    expanding every letter of ``word``."""
    partial = {"": 1.0}
    for position, c in enumerate(word, start=1):
        rule = sub.rules[ord(c)]
        probabilities = rule.probabilities if weights is None else weights[ord(c)]
        grown = {}
        for prefix, acc in partial.items():
            for image, p in zip(rule.images, probabilities):
                joined = (prefix + image)[:keep]
                grown[joined] = grown.get(joined, 0.0) + acc * p
        if len(grown) > budget:
            raise _image_budget_error(word, position, len(grown), budget)
        partial = grown
    return partial


def cut_realisation_map(sub, word, budget, keep, weights=None):
    """Reference: the cut tail map as it was expanded in a dict of strings, one
    tail at a time, before tails became packed codes.  Each partial is cut to
    its first ``keep`` letters as it grows, and the expansion stops once the
    shortest images of the letters expanded so far reach ``keep`` letters."""
    partial = {"": 1.0}
    reach = 0  # the length every partial has reached, before the cut
    for position, c in enumerate(word, start=1):
        rule = sub.rules[ord(c)]
        probabilities = rule.probabilities if weights is None else weights[ord(c)]
        grown = {}
        for prefix, acc in partial.items():
            for image, p in zip(rule.images, probabilities):
                joined = (prefix + image)[:keep]
                grown[joined] = grown.get(joined, 0.0) + acc * p
        if len(grown) > budget:
            raise _image_budget_error(word, position, len(grown), budget)
        partial = grown
        reach += min(map(len, rule.images))
        if reach >= keep:
            break
    return partial


def decode_packed(packed, base):
    """Words from packed codes b^len + code, of any lengths."""
    words = []
    for code in packed.tolist():
        letters = []
        while code > 1:
            code, digit = divmod(code, base)
            letters.append(chr(digit))
        words.append("".join(reversed(letters)))
    return words


def engine_maps(sub, words, keep, weights=None, budget=10**8):
    """``_tail_maps`` over words of one length in one pass: per word a dict from
    each decoded key to its weights, one per point."""
    if weights is None:
        weights = [rule.probabilities for rule in sub.rules]
    rows = np.array([list(map(ord, w)) for w in words], dtype=np.uint32)
    rows = rows.reshape(len(words), len(words[0]))
    owner, packed, acc = _tail_maps(sub, rows, keep, weights, budget)
    keys = decode_packed(packed, code_base(sub.n_letters))
    maps = [{} for _ in words]
    for tail, key, values in zip(owner.tolist(), keys, acc):
        maps[tail][key] = values
    return maps


def map_values(realisation_map, points):
    """A map's weights as a (keys, points) array; a dict's lone 1.0 stands for every point."""
    values = np.array(list(realisation_map.values()), dtype=float)
    return np.broadcast_to(values.reshape(len(values), -1), (len(values), points))


def realisation_map_outcome(realisation_map, *args):
    """The map, or the text of its budget error."""
    try:
        return realisation_map(*args)
    except rs.BudgetExceededError as exc:
        return str(exc)


def by_length(words):
    """The words grouped by length, each group in the given order."""
    groups = {}
    for word in words:
        groups.setdefault(len(word), []).append(word)
    return list(groups.values())


def assert_early_stop_matches(sub, words, weights=None):
    """Same keys in the same order, and sums within a few ulps, at every
    ``keep`` from 1 to 8; returns how many maps stopped before the last letter."""
    stopped = 0
    shortest = [min(map(len, rule.images)) for rule in sub.rules]
    points = 1 if weights is None else len(weights[0][0])
    for group in by_length(words):
        for keep in range(1, 9):
            for word, got in zip(group, engine_maps(sub, group, keep, weights)):
                want = full_realisation_map(sub, word, 10**8, keep, weights)
                assert list(got) == list(want), (rs.serialize(sub), word, keep)
                np.testing.assert_allclose(
                    map_values(got, points), map_values(want, points), rtol=1e-14, atol=0
                )
                stopped += sum(shortest[ord(c)] for c in word[:-1]) >= keep
    return stopped


def seeded_words(sub, rng, max_length=9, per_length=4):
    return [
        "".join(chr(rng.randrange(sub.n_letters)) for _ in range(length))
        for length in range(1, max_length + 1)
        for _ in range(per_length)
    ]


class TestTailEarlyStop:
    """Cut tail maps stop once every partial is full; the expansion of every
    letter is the reference."""

    def test_pool(self, pool):
        rng = random.Random(0x7A11)
        stopped = 0
        for sub in pool:
            words = seeded_words(sub, rng, per_length=2)
            stopped += assert_early_stop_matches(non_dyadic(sub, rng), words)
        assert stopped > 1000

    def test_registry(self, registry):
        rng = random.Random(0x7A12)
        stopped = 0
        for sub in registry:
            words = seeded_words(sub, rng)
            stopped += assert_early_stop_matches(non_dyadic(sub, rng), words)
            # the scan's weights: one row per image, one column per grid point
            points = [non_dyadic(sub, rng) for _ in range(3)]
            by_letter = zip(*[[rule.probabilities for rule in p.rules] for p in points])
            weights = [np.array(probabilities).T for probabilities in by_letter]
            stopped += assert_early_stop_matches(sub, words, weights)
        assert stopped > 100

    def test_budget_errors_match(self, pool, registry):
        rng = random.Random(0x7A13)
        raised = 0
        for sub in [*pool[:30], *registry]:
            for word in seeded_words(sub, rng, per_length=1):
                for keep in (1, 2, 3, 5, 8):
                    for budget in (1, 2, 3, 5, 8):
                        got = realisation_map_outcome(
                            lambda: engine_maps(sub, [word], keep, budget=budget)[0]
                        )
                        want = realisation_map_outcome(
                            full_realisation_map, sub, word, budget, keep
                        )
                        if isinstance(want, str):
                            assert got == want, (rs.serialize(sub), word, keep, budget)
                            raised += 1
                        else:
                            assert list(got) == list(want), (rs.serialize(sub), word, keep)
        assert raised > 100


def cut_maps_outcome(sub, words, keep, weights, budget):
    """The reference maps of ``words`` expanded one after another, or the
    text of the first budget error."""
    return realisation_map_outcome(
        lambda: [cut_realisation_map(sub, w, budget, keep, weights) for w in words]
    )


def assert_engine_matches_cut_maps(sub, words, keep, weights, budget=10**8):
    """One engine pass over ``words`` against the reference, tail by tail: the
    same keys in the same order and the same weight bits, or the same budget
    error; returns whether it raised."""
    points = 1 if weights is None else len(np.reshape(weights[0][0], -1))
    got = realisation_map_outcome(lambda: engine_maps(sub, words, keep, weights, budget))
    want = cut_maps_outcome(sub, words, keep, weights, budget)
    if isinstance(want, str):
        assert got == want, (rs.serialize(sub), words, keep, budget)
        return True
    for word, got_map, want_map in zip(words, got, want):
        assert list(got_map) == list(want_map), (rs.serialize(sub), word, keep)
        got_values, want_values = map_values(got_map, points), map_values(want_map, points)
        assert same_bits(got_values, want_values), (rs.serialize(sub), word, keep)
    return False


class TestTailMapEngine:
    """The tail maps of one window length, expanded together on packed codes,
    against the dict expansion of each tail: keys, key order, weight bits and
    budget errors, at one and three points and every ``keep`` from 0 to 8."""

    def test_pool_and_registry(self, pool, registry):
        rng = random.Random(0x7A14)
        for sub in pool + registry:
            probed = non_dyadic(sub, rng)
            one = [rule.probabilities for rule in probed.rules]
            three = grid_weights([non_dyadic(sub, rng) for _ in range(3)])
            for group in by_length(seeded_words(sub, rng, max_length=5, per_length=3)):
                for keep in range(0, 9):
                    for weights in (one, three):
                        assert_engine_matches_cut_maps(probed, group, keep, weights)

    def test_budget_errors_name_the_first_failing_tail(self, pool, registry):
        # Tails fail at different positions; the error must be the first
        # failing tail's, at its first failing position.
        rng = random.Random(0x7A15)
        raised = 0
        for sub in [*pool[:40], *registry]:
            for group in by_length(seeded_words(sub, rng, max_length=6, per_length=4)):
                for keep in (0, 2, 4, 8):
                    for budget in (1, 2, 3, 5, 8):
                        raised += assert_engine_matches_cut_maps(sub, group, keep, None, budget)
        assert raised > 100

    def test_tribonacci_at_ell_40(self):
        # 3^(39 + 2 + 1) >= 2^62, so the engine runs on Python-int codes
        tribonacci = rs.parse_spec(TRIBONACCI_SPEC)
        assert code_dtype(code_base(3), 39 + tribonacci.max_image_len + 1) is object
        tails = list(dict.fromkeys(w[1:] for w in rs.legal_words(tribonacci, 40).words(40)))
        for weights in (None, grid_weights([tribonacci] * 3)):
            assert_engine_matches_cut_maps(tribonacci, tails, 39, weights)


def loop_witness(sub, ell_max, grid, tol=1e-6):
    """Reference: the scan's witness picked word by word, keeping the
    first (ell, word) of the largest high/low ratio among the entries
    that vary by more than ``tol``, and the first grid point of each
    extreme value."""
    probed = [rs.with_probabilities(sub, point) for point in grid]
    table = rs.legal_words(sub, ell_max)
    witness = None
    witness_ratio = 0.0
    for ell in range(1, ell_max + 1):
        vectors = [rs.word_frequencies(p, ell, table=table) for p in probed]
        for w_index, word in enumerate(vectors[0].words):
            values = [vec.values[w_index] for vec in vectors]
            low = min(range(len(values)), key=values.__getitem__)
            high = max(range(len(values)), key=values.__getitem__)
            if values[high] - values[low] <= tol:
                continue
            ratio = values[high] / max(values[low], 1e-300)
            if witness is None or ratio > witness_ratio:
                witness_ratio = ratio
                witness = rs.ErgodicityWitness(
                    ell=ell,
                    word=word,
                    low_point=low,
                    high_point=high,
                    low_value=values[low],
                    high_value=values[high],
                )
    return witness


class TestErgodicityWitness:
    def test_pool_matches_loop_witness(self, pool):
        rng = random.Random(0xE460)
        scanned = 0
        for sub in pool:
            if rs.is_empty_subshift(sub) or max(r.arity for r in sub.rules) < 2:
                continue
            points = [seeded_point(sub, rng) for _ in range(3)]
            # the repeated point makes exact ties, pinning first-index picks
            grid = [*points, points[1]]
            expected = loop_witness(sub, 3, grid)
            verdict = rs.unique_ergodicity_scan(sub, 3, grid)
            assert verdict.status == (
                "consistent-up-to" if expected is None else "not-uniquely-ergodic"
            )
            assert verdict.witness == expected, rs.serialize(sub)
            scanned += 1
        assert scanned > 0


def matrix_perron_right(m, degenerate, tol=DEFAULT_PF_TOL):
    """Reference: the right Perron vector of one matrix, iterating M + I
    when the probabilities are degenerate, up to the library's current cap."""
    if degenerate:
        m = m + np.eye(len(m))
    return _power_iterates(m[None], tol, randsub.matrices.PF_ITERATION_CAP)[0][1]


def reference_frequencies(sub, ell, table=None):
    """Reference: the Perron vector of the induced substitution's own
    substitution matrix, summed entry by entry in its rule order."""
    ind = rs.induced_substitution(sub, ell, table=table)
    return matrix_perron_right(rs.substitution_matrix(ind.sub), sub.is_degenerate)


def scan_vectors(monkeypatch, sub, ell_max, grid):
    """Per window length, the per-point Perron vectors the scan compared."""
    seen = []
    shared = randsub.induced._perron_rights

    def recorded(*args):
        vectors = list(shared(*args))
        seen.append(vectors)
        return iter(vectors)

    with monkeypatch.context() as patch:
        patch.setattr(randsub.induced, "_perron_rights", recorded)
        rs.unique_ergodicity_scan(sub, ell_max, grid)
    return seen


class TestOneBuildPerWindowLength:
    """The scan builds each window length once for the whole grid; every
    point's frequencies must be bit for bit those of a one-point build."""

    def assert_scan_matches_points(self, monkeypatch, sub, ell_max, grid):
        table = rs.legal_words(sub, ell_max)
        seen = scan_vectors(monkeypatch, sub, ell_max, grid)
        assert len(seen) == ell_max
        for ell, vectors in enumerate(seen, start=1):
            assert len(vectors) == len(grid)
            for point, vector in zip(grid, vectors):
                probed = rs.with_probabilities(sub, point)
                values = rs.word_frequencies(probed, ell, table=table).values
                assert np.array_equal(vector, values), (rs.serialize(sub), ell, point)
                assert np.array_equal(vector, reference_frequencies(probed, ell, table))

    def test_pool(self, pool, monkeypatch):
        rng = random.Random(0x5CA2)
        scanned = 0
        for sub in pool:
            if rs.is_empty_subshift(sub):
                continue
            grid = [seeded_point(sub, rng) for _ in range(3)]
            self.assert_scan_matches_points(monkeypatch, sub, 3, grid)
            scanned += 1
        assert scanned > 0

    def test_registry(self, monkeypatch):
        rng = random.Random(0x5CA3)
        for name in rs.example_names():
            sub = rs.get_example(name)
            if rs.is_empty_subshift(sub):
                continue
            grid = [seeded_point(sub, rng) for _ in range(3)]
            self.assert_scan_matches_points(monkeypatch, sub, 6, grid)

    def test_degenerate_point(self):
        # zero-probability images stay in the support and shift the matrix by I
        fib = rs.with_probabilities(rs.get_example("random-fibonacci"), {"a": (1.0, 0.0)})
        assert fib.is_degenerate
        table = rs.legal_words(fib, 6)
        for ell in range(1, 7):
            values = rs.word_frequencies(fib, ell, table=table).values
            assert np.array_equal(values, reference_frequencies(fib, ell, table))


def degenerate_variant(sub, rng):
    """``sub`` with one seeded image of probability 0 in every rule of two
    or more images; the support, and so primitivity, is unchanged."""
    assignment = {}
    for letter, rule in zip(sub.alphabet.letters, sub.rules):
        if rule.arity > 1:
            weights = [rng.uniform(0.1, 1.0) for _ in rule.images]
            weights[rng.randrange(rule.arity)] = 0.0
            assignment[letter] = [x / sum(weights) for x in weights]
    return rs.with_probabilities(sub, assignment)


class TestLetterFrequencies:
    """Letter frequencies are the ell = 1 word frequencies: the induced
    matrix at ell = 1 is the substitution matrix, assembled in the same
    order, so the vector must be bit for bit the Perron vector of that
    matrix, as the entropy bracket and the ratio condition once read it."""

    def test_ell_one_route_matches_the_substitution_matrix(self, pool, registry, monkeypatch):
        # A degenerate matrix with a Jordan block at its dominant eigenvalue
        # converges like 1/k and stalls at any cap; both routes must stall
        # alike, which a lower cap shows without a million steps each.
        monkeypatch.setattr(randsub.matrices, "PF_ITERATION_CAP", 10**4)
        rng = random.Random(0x1E77)
        checked = degenerate = stalled = 0
        for sub in [*pool, *registry, rs.parse_spec(DEGENERATE_SPEC)]:
            if rs.is_empty_subshift(sub):
                continue
            for probed in (sub, non_dyadic(sub, rng), degenerate_variant(sub, rng)):
                checked += 1
                degenerate += probed.is_degenerate
                m = rs.substitution_matrix(probed)
                try:
                    expected = matrix_perron_right(m, probed.is_degenerate)
                except rs.NoConvergenceError as exc:
                    with pytest.raises(rs.NoConvergenceError) as raised:
                        rs.word_frequencies(probed, 1)
                    assert str(raised.value) == str(exc), rs.serialize(probed)
                    stalled += 1
                    continue
                assert np.array_equal(rs.word_frequencies(probed, 1).values, expected), (
                    rs.serialize(probed)
                )
        assert checked > 250 and degenerate > 80 and 0 < stalled < 10


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


def word_mixing_gaps(words, u, v, n_max):
    """Reference: mixing gaps as they were before they were read on codes, by
    testing the prefix and suffix of every legal word; ``words`` maps each
    length to its decoded legal words."""
    return tuple(
        n for n in range(n_max + 1)
        if any(w.startswith(u) and w.endswith(v) for w in words[len(u) + n + len(v)])
    )


class TestMixingGapsOnCodes:
    def test_pool_and_registry_match_words(self, pool, registry):
        checked = 0
        for sub in pool + registry:
            if rs.is_empty_subshift(sub):
                continue
            table = rs.legal_words(sub, 8)
            words = {m: table.words(m) for m in range(1, 9)}
            legal = words[1] + words[2]
            for u in legal:
                for v in legal:
                    gaps = rs.mixing_gaps(sub, u, v, 4, table=table)
                    assert gaps == word_mixing_gaps(words, u, v, 4), (rs.serialize(sub), u, v)
                    checked += 1
        assert checked > 2000


class TestMembershipOnCodes:
    def test_registry_matches_word_sets(self, registry, tables):
        for sub, name in zip(registry, rs.example_names()):
            if rs.is_empty_subshift(sub):
                continue
            table = tables(name, 6)
            legal = frozenset(w for m in range(1, 7) for w in table.words(m))
            for word in all_words_up_to(sub, 6):
                assert (word in table) == (word in legal), (name, word)

    def test_refused_and_extending_words(self, tables):
        # In base 2, "\x00\x02" has the code of the legal "\x01\x00"; a
        # one-letter alphabet codes in base 2 too, so index 1 is a digit.
        pd = tables("period-doubling", 6)
        assert "\x01\x00" in pd and "\x00\x02" not in pd and "" not in pd
        one = rs.legal_words(rs.parse_spec("alphabet: a\nrule a -> aa\n"), 3)
        assert "\x00" * 3 in one
        assert "\x01" not in one and "\x00\x01" not in one and "\x01\x00" not in one
        assert "" not in one
        # A word longer than the table extends it, as ``is_legal`` documents.
        short = rs.legal_words(rs.get_example("period-doubling"), 3)
        assert rs.is_legal(short, "\x00\x01\x00\x00\x00") and short.max_len == 5
        assert "\x01\x01\x01\x00" + "\x00" * 4 not in short and short.max_len == 8


def string_census(table, n_max, horizon):
    """Reference: census roots as they were before the census read codes, by
    testing every rotation's window of each decoded root against the set of
    decoded legal words."""
    legal = frozenset(table.words(horizon))
    roots = {}
    for n in range(1, n_max + 1):
        reps = horizon // n + 2
        roots[n] = tuple(
            u for u in table.words(n)
            if all((u * reps)[i : i + horizon] in legal for i in range(n))
        )
    return roots


def assert_census_matches_strings(sub, n_max, horizons, table):
    for horizon in horizons:
        census = rs.periodic_census(sub, n_max, horizon, table=table)
        expect = string_census(table, n_max, horizon)
        assert census.roots == expect, (rs.serialize(sub), horizon)
        assert census.counts == {n: len(roots) for n, roots in expect.items()}


class TestCensusOnCodes:
    def test_pool_and_registry_match_string_census(self, pool, registry, tables):
        cases = [(sub, 4 if sub.n_letters == 2 else 3, None) for sub in pool]
        cases += [(sub, 4, name) for sub, name in zip(registry, rs.example_names())]
        for sub, n_max, name in cases:
            if rs.is_empty_subshift(sub):
                continue
            horizons = (2 * n_max, 2 * n_max + 3)
            table = tables(name, horizons[1]) if name else rs.legal_words(sub, horizons[1])
            assert_census_matches_strings(sub, n_max, horizons, table)

    def test_wide_codes_match_string_census(self):
        for sub in wide_code_subs():
            table = rs.legal_words(sub, 40)
            assert table.codes(40).dtype == object
            assert_census_matches_strings(sub, 20, (40,), table)
            assert all(w in table for w in table.words(40)) and "\x02" * 40 not in table


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


def loop_substitution_matrix(sub):
    """Reference: substitution_matrix as it was before the one assembly,
    adding each image's probability once per occurrence of each letter,
    rule by rule and image by image."""
    n = sub.n_letters
    m = np.zeros((n, n), dtype=float)
    for rule in sub.rules:
        j = rule.source
        for image, p in zip(rule.images, rule.probabilities):
            for c in image:
                m[ord(c), j] += p
    return m


def loop_support_matrix(sub):
    """Reference: support_matrix as it was before the one assembly."""
    n = sub.n_letters
    m = np.zeros((n, n), dtype=np.int64)
    for rule in sub.rules:
        for image in rule.images:
            for c in image:
                m[ord(c), rule.source] = 1
    return m


def two_product_iterate(m, tol, cap):
    """Reference: the one-matrix power iteration as it was before one product per step,
    with a second product per step to test convergence."""
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    target = tol / 8.0
    for it in range(1, cap + 1):
        y = m @ x
        total = y.sum()
        if total <= 0.0:
            raise rs.NoConvergenceError("power iteration collapsed to the zero vector")
        y /= total
        delta = np.abs(y - x).max()
        x = y
        mx = m @ x
        lam = mx.sum()
        residual = np.abs(mx - lam * x).max()
        if delta < target and residual <= tol * max(1.0, lam) / 2.0:
            return lam, x, it, residual
    raise rs.NoConvergenceError(f"power iteration did not converge in {cap} steps")


def two_product_perron_data(m, tol):
    """Reference: perron_data on the two-product iteration, with its
    residual computed from one more product."""
    lam, right, it_r, _ = two_product_iterate(m, tol, PF_ITERATION_CAP)
    _, left_raw, it_l, _ = two_product_iterate(m.T, tol, PF_ITERATION_CAP)
    left = left_raw / float(left_raw @ right)
    residual = float(np.abs(m @ right - lam * right).max())
    return rs.PerronData(float(lam), right, left, residual, it_r + it_l)


DEGENERATE_SPEC = "alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n"
ORACLE_INDUCED_ELL = 6


@pytest.fixture(scope="module")
def matrix_subs(pool, registry):
    """The pool with seeded non-dyadic probabilities, the registry, a
    degenerate substitution, and the induced substitutions at ell <= 6 of
    every non-empty registry example, as given and with non-dyadic
    probabilities."""
    rng = random.Random(0xA55E)
    subs = [non_dyadic(sub, rng) for sub in pool] + registry + [rs.parse_spec(DEGENERATE_SPEC)]
    for sub in registry:
        if rs.is_empty_subshift(sub):
            continue
        table = rs.legal_words(sub, ORACLE_INDUCED_ELL)
        for probed in (sub, non_dyadic(sub, rng)):
            for ell in range(1, ORACLE_INDUCED_ELL + 1):
                subs.append(rs.induced_substitution(probed, ell, table=table).sub)
    return subs


class TestMatrixAssembly:
    """Every matrix comes from one assembly; its entries must be bit for
    bit the loop's, which adds in the same order."""

    def test_substitution_and_support_match_loop(self, matrix_subs):
        for sub in matrix_subs:
            m = rs.substitution_matrix(sub)
            assert m.dtype == np.float64
            assert np.array_equal(m, loop_substitution_matrix(sub)), rs.serialize(sub)
            support = rs.support_matrix(sub)
            assert support.dtype == np.int64
            assert np.array_equal(support, loop_support_matrix(sub)), rs.serialize(sub)

    def test_induced_frequency_matrices_match_loop(self, monkeypatch):
        # word_frequencies (one point) and the scan (three points) assemble
        # each point's induced matrix without building the induced substitution.
        built = []

        def recorded(*args):
            for m in _assemble(*args):
                built.append(m.copy())
                yield m

        monkeypatch.setattr(randsub.induced, "_assemble", recorded)
        rng = random.Random(0xA55F)
        for name in rs.example_names():
            sub = rs.get_example(name)
            if rs.is_empty_subshift(sub):
                continue
            table = rs.legal_words(sub, ORACLE_INDUCED_ELL)
            grid = [seeded_point(sub, rng) for _ in range(3)]
            probed = [rs.with_probabilities(sub, point) for point in grid]
            for ell in range(1, ORACLE_INDUCED_ELL + 1):
                built.clear()
                rs.word_frequencies(probed[0], ell, table=table)
                expected = rs.induced_substitution(probed[0], ell, table=table).sub
                assert len(built) == 1
                assert np.array_equal(built[0], loop_substitution_matrix(expected)), (name, ell)
            built.clear()
            rs.unique_ergodicity_scan(sub, ORACLE_INDUCED_ELL, grid)
            assert len(built) == ORACLE_INDUCED_ELL * len(grid)
            for i, m in enumerate(built):
                ell, point = divmod(i, len(grid))
                expected = rs.induced_substitution(probed[point], ell + 1, table=table).sub
                assert np.array_equal(m, loop_substitution_matrix(expected)), (name, ell + 1)


def dict_induced_images(sub, ell, words, points, tails_first=False):
    """Reference: the induced build as it was before windows became codes.  Each
    first image is joined with each cut tail in Python, every window is looked up
    in a dict of strings, and each window's images are merged into a dict,
    window by window; per window, one merged dict per point of ``points``, each
    point's per-letter probabilities as Python floats.  ``tails_first`` swaps the
    image and tail loops."""
    letter = {w: chr(i) for i, w in enumerate(words)}
    tail_maps = {}
    for w in words:
        if w[1:] not in tail_maps:
            tail_maps[w[1:]] = [
                cut_realisation_map(sub, w[1:], 10**8, ell - 1, weights) for weights in points
            ]
        maps = tail_maps[w[1:]]
        firsts = list(enumerate(sub.rules[ord(w[0])].images))
        pairs = [(q, x, s) for q, x in firsts for s in maps[0]]
        if tails_first:
            pairs = [(q, x, s) for s in maps[0] for q, x in firsts]
        windows = [
            "".join([letter[(x + s)[k : k + ell]] for k in range(len(x))]) for _, x, s in pairs
        ]
        merged = [{} for _ in points]
        for images, weights, tail_map in zip(merged, points, maps):
            p0 = weights[ord(w[0])]
            for (q, _, s), u in zip(pairs, windows):
                images[u] = images.get(u, 0.0) + p0[q] * tail_map[s]
        yield merged


def add_at_matrices(merged_images):
    """Reference: each point's matrix from merged images, with ``np.add.at`` over
    lists of letters and weights in window, image and letter order."""
    columns, flat = [], []
    for merged in merged_images:
        columns.append("".join(merged))
        flat += [p for image, p in merged.items() for _ in image]
    n = len(columns)
    rows = np.fromiter(map(ord, "".join(columns)), dtype=np.intp)
    cols = np.repeat(np.arange(n), list(map(len, columns)))
    for point_weights in np.array(flat, dtype=float).reshape(len(rows), -1).T:
        m = np.zeros((n, n))
        np.add.at(m, (rows, cols), point_weights)
        yield m


def array_induced_matrices(sub, words, weights):
    index, entry_weights, _ = randsub.induced._induced_entries(sub, words, weights, 10**8)
    return _assemble(index, entry_weights, len(words))


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.int64), b.view(np.int64))


def grid_weights(points):
    """Per letter, the (images, P) probability array of P same-support points,
    as the ergodicity scan weighs them."""
    by_letter = zip(*[[rule.probabilities for rule in p.rules] for p in points])
    return [np.array(probabilities).T for probabilities in by_letter]


TRIBONACCI_SPEC = "alphabet: a b c\nrule a -> ab\nrule b -> ac\nrule c -> a\n"
DIFFERENTIAL_ELL = 7


@pytest.fixture(scope="module")
def induced_cases(pool, registry):
    """(sub, table, ell, words, one-point weights, three-point weights) for every
    non-empty pool and registry substitution at ell 1-7 with seeded non-dyadic
    probabilities, and tribonacci at ell 40, where codes are Python ints."""
    rng = random.Random(0xA55A)
    cases = []
    for sub in pool + registry:
        if rs.is_empty_subshift(sub):
            continue
        table = rs.legal_words(sub, DIFFERENTIAL_ELL)
        probed = [non_dyadic(sub, rng) for _ in range(4)]
        for ell in range(1, DIFFERENTIAL_ELL + 1):
            words = randsub.induced._windows(sub, ell, table, 10**8)
            one = [rule.probabilities for rule in probed[0].rules]
            cases.append((probed[0], table, ell, words, one, grid_weights(probed[1:])))
    tribonacci = rs.parse_spec(TRIBONACCI_SPEC)
    words = randsub.induced._windows(tribonacci, 40, None, 10**8)
    assert code_dtype(code_base(3), 40 + 1) is object
    one = [rule.probabilities for rule in tribonacci.rules]
    cases.append((tribonacci, None, 40, words, one, grid_weights([tribonacci] * 3)))
    return cases


class TestArrayInducedBuild:
    """The induced build on integer codes against the dict join it replaced:
    every matrix bit for bit at one and three points, and every induced rule's
    images, key order and probability bits."""

    def test_matches_dict_build(self, induced_cases):
        for sub, table, ell, words, one, three in induced_cases:
            # The dict reference runs once per point on Python floats: the same
            # IEEE operations, elementwise, as on the points' weight arrays.
            points = [one] + [[w[:, k].tolist() for w in three] for k in range(3)]
            by_point = list(zip(*dict_induced_images(sub, ell, words, points)))
            merged = by_point[0]
            ind = rs.induced_substitution(sub, ell, table=table, budget=10**8)
            assert ind.words == words and len(ind.sub.rules) == len(merged)
            for j, (rule, images) in enumerate(zip(ind.sub.rules, merged)):
                assert rule.source == j and rule.images == tuple(images), (rs.serialize(sub), ell)
                got, want = np.array(rule.probabilities), np.array(list(images.values()))
                assert same_bits(got, want), (rs.serialize(sub), ell, j)
            for weights, references in ((one, by_point[:1]), (three, by_point[1:])):
                built = array_induced_matrices(sub, words, weights)
                for point, (m, images) in enumerate(zip(built, references)):
                    ref = next(add_at_matrices(images))
                    assert same_bits(m, ref), (rs.serialize(sub), ell, point)
                assert point == (0 if weights is one else 2)

    def test_loop_order_is_observed(self, induced_cases):
        # Iterating tails before images reorders images and resums matrix
        # entries; the comparisons above must see both.
        reordered = resummed = 0
        for sub, table, ell, words, one, _ in induced_cases:
            if ell > 5:
                continue
            swapped = [m for m, in dict_induced_images(sub, ell, words, [one], tails_first=True)]
            ind = rs.induced_substitution(sub, ell, table=table, budget=10**8)
            reordered += any(r.images != tuple(m) for r, m in zip(ind.sub.rules, swapped))
            m = next(array_induced_matrices(sub, words, one))
            resummed += not same_bits(m, next(add_at_matrices(swapped)))
        assert reordered > 0 and resummed > 0


class TestOneProductPerStep:
    """The product that tests a step's convergence is the next step's
    product; the iteration must match the two-product one bit for bit."""

    @pytest.mark.parametrize("tol", [DEFAULT_PF_TOL, 1e-6])
    def test_power_iteration_matches_two_products(self, matrix_subs, tol):
        checked = 0
        for sub in matrix_subs:
            m = rs.substitution_matrix(sub)
            if sub.is_degenerate:
                m = m + np.eye(len(m))  # as _perron_rights iterates it
            if not rs.is_primitive_matrix(m):
                continue
            for a in (m, m.T):
                lam, x, steps, residual = _power_iterates(a[None], tol, PF_ITERATION_CAP)[0]
                ref_lam, ref_x, ref_steps, ref_residual = two_product_iterate(
                    a, tol, PF_ITERATION_CAP
                )
                assert lam == ref_lam and steps == ref_steps, rs.serialize(sub)
                assert np.array_equal(x, ref_x) and residual == ref_residual, rs.serialize(sub)
            checked += 1
        assert checked == len(matrix_subs)

    def test_perron_data_matches_two_products(self, matrix_subs):
        checked = 0
        for sub in matrix_subs:
            m = rs.substitution_matrix(sub)
            if not rs.is_primitive_matrix(m):
                continue
            pf, ref = rs.perron_data(m), two_product_perron_data(m, DEFAULT_PF_TOL)
            assert (pf.lam, pf.residual, pf.iterations) == (ref.lam, ref.residual, ref.iterations)
            assert np.array_equal(pf.right, ref.right) and np.array_equal(pf.left, ref.left)
            checked += 1
        assert checked == len(matrix_subs) - 1  # all but the degenerate one


@pytest.fixture(scope="module")
def induced_stacks(registry):
    """Per non-empty registry example and ell <= 5, its induced matrices at
    four seeded non-dyadic grid points, stacked; only primitive stacks."""
    rng = random.Random(0x57AC)
    stacks = []
    for sub in registry:
        if rs.is_empty_subshift(sub):
            continue
        table = rs.legal_words(sub, 5)
        for ell in range(1, 6):
            points = [non_dyadic(sub, rng) for _ in range(4)]
            ms = np.stack(
                [rs.induced_matrix(rs.induced_substitution(p, ell, table=table)) for p in points]
            )
            if rs.is_primitive_matrix(ms[0]):
                stacks.append(ms)
    return stacks


def assert_stack_matches_points(ms, tol, cap=PF_ITERATION_CAP):
    """``_power_iterates`` on the stack against the per-point iterations;
    returns each point's step count."""
    results = _power_iterates(ms, tol, cap)
    assert len(results) == len(ms)
    for m, (lam, x, steps, residual) in zip(ms, results):
        for ref_lam, ref_x, ref_steps, ref_residual in (
            _power_iterates(m[None], tol, cap)[0],
            two_product_iterate(m, tol, cap),
        ):
            assert (lam, steps, residual) == (ref_lam, ref_steps, ref_residual)
            assert np.array_equal(x, ref_x)
    return [steps for _, _, steps, _ in results]


class TestStackedPowerIteration:
    """One stacked product per step for every live point; each point must
    leave the stack with bit for bit the results of its own iteration."""

    @pytest.mark.parametrize("tol", [1e-6, DEFAULT_PF_TOL])
    def test_stack_matches_each_point(self, induced_stacks, tol):
        staggered = 0
        for ms in induced_stacks:
            staggered += len(set(assert_stack_matches_points(ms, tol))) > 1
        assert len(induced_stacks) > 20 and staggered > 5

    @pytest.mark.parametrize("tol", [1e-6, DEFAULT_PF_TOL])
    def test_degenerate_points_iterate_m_plus_identity(self, tol):
        fib = rs.get_example("random-fibonacci")
        points = [{"a": (1.0, 0.0)}, {"a": (0.0, 1.0)}, {"a": (0.3, 0.7)}]
        table = rs.legal_words(fib, 5)
        for ell in range(1, 6):
            probed = [rs.with_probabilities(fib, point) for point in points]
            ms = np.stack(
                [rs.induced_matrix(rs.induced_substitution(p, ell, table=table)) for p in probed]
            )
            shifted = ms + np.eye(ms.shape[1])
            assert_stack_matches_points(shifted, tol)
            for p, m, shifted_m in zip(probed, ms, shifted):
                right = rs.word_frequencies(p, ell, table=table, tol=tol).values
                iterated = shifted_m if p.is_degenerate else m
                reference = two_product_iterate(iterated, tol, PF_ITERATION_CAP)[1]
                assert np.array_equal(right, reference), (ell, p.rules[0].probabilities)

    @pytest.mark.parametrize("tol", [1e-6, DEFAULT_PF_TOL])
    def test_cap_names_the_first_unconverged_point(self, induced_stacks, tol):
        checked = 0
        for ms in induced_stacks:
            steps = [two_product_iterate(m, tol, PF_ITERATION_CAP)[2] for m in ms]
            for cap in {1, min(steps), max(steps) - 1} - {0}:
                if cap >= max(steps):
                    continue
                first = next(k for k, s in enumerate(steps) if s > cap)
                with pytest.raises(rs.NoConvergenceError) as stacked:
                    _power_iterates(ms, tol, cap)
                with pytest.raises(rs.NoConvergenceError) as single:
                    two_product_iterate(ms[first], tol, cap)
                assert str(stacked.value) == str(single.value)
                assert stacked.value.point == first
                checked += first > 0
        assert checked > 0

    @pytest.mark.parametrize("tol", [1e-6, DEFAULT_PF_TOL])
    def test_collapse_names_the_point(self, induced_stacks, tol):
        # A weighted shift is nilpotent: its iterate reaches the zero vector at
        # step n, beside primitive points that may already have left the stack.
        for ms in induced_stacks:
            nilpotent = 0.5 * np.eye(ms.shape[1], k=-1)
            with pytest.raises(rs.NoConvergenceError) as single:
                two_product_iterate(nilpotent, tol, PF_ITERATION_CAP)
            for k in range(len(ms) + 1):
                stack = np.insert(ms, k, nilpotent, axis=0)
                with pytest.raises(rs.NoConvergenceError) as stacked:
                    _power_iterates(stack, tol, PF_ITERATION_CAP)
                assert str(stacked.value) == str(single.value)
                assert str(stacked.value) == "power iteration collapsed to the zero vector"
                assert stacked.value.point == k

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_scan_in_small_stacks(self, monkeypatch, size):
        # Seven points: stacks of 1, 2 or 3 points at the longest window,
        # with a short last stack for 2 and 3.
        fib = rs.get_example("random-fibonacci")
        rng = random.Random(0x57AD + size)
        grid = [seeded_point(fib, rng) for _ in range(7)]
        ell_max = 5
        table = rs.legal_words(fib, ell_max)
        n = len(table.words(ell_max))
        monkeypatch.setattr(randsub.induced, "_STACK_ENTRIES", size * n * n)
        shapes = []
        iterates = randsub.induced._power_iterates

        def recorded(ms, *args):
            shapes.append(ms.shape)
            return iterates(ms, *args)

        monkeypatch.setattr(randsub.induced, "_power_iterates", recorded)
        seen = scan_vectors(monkeypatch, fib, ell_max, grid)
        last = [k for k, m, _ in shapes if m == n]
        assert last == [size] * (7 // size) + [7 % size] * (7 % size > 0)
        assert all(k <= max(1, size * n * n // (m * m)) for k, m, _ in shapes)
        for ell, vectors in enumerate(seen, start=1):
            for point, vector in zip(grid, vectors):
                probed = rs.with_probabilities(fib, point)
                values = rs.word_frequencies(probed, ell, table=table).values
                assert np.array_equal(vector, values), (ell, point)


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


# (spec, depths): mixed arities with non-dyadic probabilities, a
# zero-probability image whose expected matrix is periodic, longest images of
# 3, 5 and 9 letters (packed rows of 8, 16 and 32 bytes, compressed by their
# masks), images all of 4 letters (no mask) or all of 3 (padded to 4), and a
# rare 500-letter image beside 1-letter ones (packed rows of 512 letters,
# nearly all padding).  Seed 1 takes that image first at depth 6, from a.
HAND_SAMPLER_SPECS = (
    (
        "alphabet: a b c\nrule a -> ab:0.3 | c:0.1 | bca:0.6\nrule b -> a:1/3 | cc:2/3\n"
        "rule c -> b:1\n",
        (1, 5, 12),
    ),
    ("alphabet: a b\nrule a -> bb:1 | a:0\nrule b -> a:1\n", (1, 5, 12)),
    ("alphabet: a b\nrule a -> abb:0.35 | b:0.65\nrule b -> a:0.2 | ba:0.8\n", (1, 5, 12)),
    (
        "alphabet: a b c\nrule a -> abcab:0.3 | c:0.7\nrule b -> a:1\n"
        "rule c -> b:0.5 | ca:0.5\n",
        (1, 5, 12),
    ),
    ("alphabet: a b\nrule a -> abaababaa:0.2 | b:0.8\nrule b -> a:0.7 | ab:0.3\n", (1, 5, 12)),
    (
        "alphabet: a b c\nrule a -> abca:0.3 | cccb:0.7\nrule b -> baab:1\n"
        "rule c -> acbc:1/3 | bbbb:2/3\n",
        (1, 3, 6),
    ),
    ("alphabet: a b\nrule a -> aba:0.4 | bba:0.6\nrule b -> aab:1\n", (1, 4, 8)),
    (f"alphabet: a b\nrule a -> a:0.99 | {'ab' * 250}:0.01\nrule b -> b:1\n", (1, 6, 9)),
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
        for text, depths in HAND_SAMPLER_SPECS:
            assert_samplers_agree(rs.parse_spec(text), depths, SAMPLER_SEEDS + (2**70,))

    def test_sample_string_matches_the_join(self):
        for text, depths in HAND_SAMPLER_SPECS:
            sub = rs.parse_spec(text)
            for letter in range(sub.n_letters):
                for seed in SAMPLER_SEEDS:
                    arr = _expand_levels(sub, letter, depths[-1], seed)
                    want = "".join(map(chr, arr.tolist()))
                    assert rs.sample_realisation(sub, letter, depths[-1], seed) == want

    def test_integer_thresholds_match_float_comparisons(self, pool):
        # Each rule's cumulative probabilities c, with draws v = t - 1, t and
        # t + 1 around t = ceil(c * 2^53) (cut to [0, 2^53], found in exact
        # arithmetic) from seeds that invert the generator: the image taken
        # is the one the float inverse CDF takes, counting c <= v * 2^-53
        # over all but the last cumulative probability.
        rng = random.Random(0x7E57)
        edges = rs.parse_spec("alphabet: a b\nrule a -> a | b | ab\nrule b -> ba | b\n")
        probabilities = (
            (0.0, 0.5, 0.5),
            (1.0, 0.0, 0.0),
            (1 - 2**-53, 2**-53, 0.0),
            (0.5, 0.5 + 2**-52, 0.0),
            (-1e-10, 0.5, 0.5 + 1e-10),
        )
        subs = [non_dyadic(sub, rng) for sub in pool]
        subs += [rs.with_probabilities(edges, {"a": p}) for p in probabilities]
        for sub in subs:
            for letter, rule in enumerate(sub.rules):
                cum = np.cumsum(rule.probabilities)[:-1]
                for c in cum:
                    t = min(max(math.ceil(Fraction(float(c)) * 2**53), 0), 2**53)
                    for v in (t - 1, t, t + 1):
                        if not 0 <= v < 2**53:
                            continue
                        image = rule.images[int(np.count_nonzero(cum <= v * 2.0**-53))]
                        got = _expand_levels(sub, letter, 1, seed_for_draw(v))
                        assert got.tolist() == list(map(ord, image)), (rule, c, v)


class TestSamplerBlockEdges:
    """The sampler against the scatter oracle with blocks of 5 and 64
    letters, so that every progression offset, dropped block of choices and
    gather step crosses a block edge."""

    @pytest.fixture(params=(5, 64), autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(randsub.sampler, "_BLOCK", request.param)

    def test_registry_levels_match(self, registry):
        for sub in registry:
            assert_samplers_agree(sub, (8,))

    def test_hand_specs_match(self):
        for text, depths in HAND_SAMPLER_SPECS:
            assert_samplers_agree(rs.parse_spec(text), depths, SAMPLER_SEEDS + (2**70,))


class TestSampleRefusal:
    """Both entry points refuse a sample with the message of an oracle, the
    first level of the scatter sampler longer than the budget, or both go
    on; where the level bounds force that level's length, before any draw.
    Depths are 1 and the three around that level (11 and 12 where no level
    up to 12 passes the budget): the deepest that samples, the level
    itself, and one deeper, which repeats its refusal as every deeper
    depth would."""

    BUDGETS = (8, 64, 1000)
    MAX_DEPTH = 12

    def test_pool_and_registry_match_the_oracle(self, pool, registry, monkeypatch):
        class Predicted(Exception):
            pass

        def predict(*args, **kwargs):
            raise Predicted

        def draw(*args, **kwargs):
            raise AssertionError("a forced refusal made a draw")

        def refusal(run):
            """The budget message ``run`` raises, or None if it goes on."""
            try:
                run()
            except rs.BudgetExceededError as error:
                return str(error)
            except Predicted:
                pass
            return None

        monkeypatch.setattr(randsub.sampler, "word_frequencies", predict)
        cases = {"refused": 0, "forced": 0, "sampled": 0}
        for seed, sub in enumerate(pool + registry):
            levels = _level_bounds(tuple(r.images for r in sub.rules))
            bounds = list(itertools.islice(levels, self.MAX_DEPTH + 1))
            for letter, name in enumerate(sub.alphabet.letters):
                lengths = [1]  # the oracle's level lengths, until one passes every budget
                while len(lengths) <= self.MAX_DEPTH and lengths[-1] <= max(self.BUDGETS):
                    lengths.append(len(scatter_expand_levels(sub, letter, len(lengths), seed)))
                for budget in self.BUDGETS:
                    # The oracle's first level longer than the budget, if any
                    failing = next((d for d, n in enumerate(lengths) if n > budget), None)
                    end = self.MAX_DEPTH if failing is None else failing
                    depths = {1, end - 1, end, end + 1} & set(range(1, self.MAX_DEPTH + 1))
                    for depth in sorted(depths):
                        over = (d for d in range(1, depth + 1) if bounds[d][1][letter] > budget)
                        first = next(over, 0)  # the first level whose longest passes the budget
                        lo, hi = (b[letter] for b in bounds[first])
                        forced = first > 0 and lo == hi
                        want = None
                        if failing is not None and failing <= depth:
                            want = (
                                f"sample of letter {name}: {lengths[failing]} letters at level "
                                f"{failing} of {depth} (budget {budget})"
                            )
                        with monkeypatch.context() as patch:
                            if forced:
                                assert (failing, lengths[failing]) == (first, hi)
                                patch.setattr(randsub.sampler, "_progression", draw)
                            runs = (
                                lambda: rs.sample_realisation(sub, letter, depth, seed, budget),
                                lambda: rs.frequency_report(sub, 1, depth, seed, letter, budget),
                            )
                            for run in runs:
                                assert refusal(run) == want, (sub.rules, letter, budget, depth)
                        cases["forced" if forced else "refused" if want else "sampled"] += 1
        assert min(cases.values()) > 0, cases


def whole_array_window_counts(arr, ell, n_letters):
    """Reference: every window encoded into one code array and counted by
    one ``np.unique``, as the sampler counted before it went a block at a time."""
    base = code_base(n_letters)
    windows = np.lib.stride_tricks.sliding_window_view(arr, ell)
    codes = encode_rows(windows, base, code_dtype(base, ell))
    values, counts = np.unique(codes, return_counts=True)
    return dict(zip(decode_codes(values, ell, base), counts.tolist()))


def array_blocks(arr):
    """Consecutive slices of _BLOCK letters, as the counter takes them."""
    block = randsub.sampler._BLOCK
    return [arr[i : i + block] for i in range(0, len(arr), block)]


def assert_window_counts_agree(arr, ell, n_letters):
    got, length = _window_counts(array_blocks(arr), ell, n_letters)
    want = whole_array_window_counts(arr, ell, n_letters)
    assert length == len(arr)
    assert got == want, (len(arr), ell)
    assert list(got) == list(want), (len(arr), ell)


class TestBlockwiseWindowCounts:
    """The blockwise window counter against the whole-array one, fed slices
    of _BLOCK letters, with blocks small enough that every edge is crossed."""

    @pytest.fixture(params=(5, 64))
    def block(self, request, monkeypatch):
        monkeypatch.setattr(randsub.sampler, "_BLOCK", request.param)
        return request.param

    def test_window_counts_around_block_multiples(self, block):
        rng = np.random.default_rng(11)
        for ell in (1, 2, 4):
            for k in (1, 2, 7):
                for windows in (k * block - 1, k * block, k * block + 1):
                    arr = rng.integers(0, 3, windows + ell - 1).astype(np.uint16)
                    assert_window_counts_agree(arr, ell, 3)

    def test_ell_longer_than_the_block(self, block):
        rng = np.random.default_rng(12)
        for ell in (block + 1, 2 * block + 3):
            for size in (ell, ell + 1, ell + block, 3 * block + ell):
                assert_window_counts_agree(rng.integers(0, 2, size).astype(np.uint16), ell, 2)

    def test_one_window(self, block):
        rng = np.random.default_rng(13)
        for ell in (1, 2, block - 1, block, block + 1):
            assert_window_counts_agree(rng.integers(0, 3, ell).astype(np.uint16), ell, 3)

    def test_waiting_partials_are_merged(self, block, monkeypatch):
        # Nearly every window of a random 4-letter array is distinct at ell 10,
        # so partial counts wait for several blocks between merges, and the
        # merges still come often enough to bound the waiting codes.
        merges = []
        merge = randsub.sampler._merge_counts

        def counted(parts):
            merges.append(len(parts))
            return merge(parts)

        monkeypatch.setattr(randsub.sampler, "_merge_counts", counted)
        arr = np.random.default_rng(14).integers(0, 4, 40 * block + 9).astype(np.uint16)
        assert_window_counts_agree(arr, 10, 4)
        assert max(merges) > 2
        assert 2 < len(merges) < 40 // 2

    def test_python_int_codes(self, block):
        # Binary codes leave int64 at ell 62.
        assert code_dtype(2, 61) is np.int64 and code_dtype(2, 62) is object
        rng = np.random.default_rng(15)
        for ell in (62, 63):
            for size in (ell, ell + 2 * block, ell + 5 * block + 1):
                assert_window_counts_agree(rng.integers(0, 2, size).astype(np.uint16), ell, 2)
            periodic = np.resize(np.array([0, 1, 1], dtype=np.uint16), ell + 7 * block)
            assert_window_counts_agree(periodic, ell, 2)

    def test_pool_samples(self, pool, block):
        for i, sub in enumerate(pool):
            arr = _expand_levels(sub, 0, 5, i)
            for ell in (1, 3):
                if len(arr) >= ell:
                    assert_window_counts_agree(arr, ell, sub.n_letters)

    def test_hand_spec_samples(self, block):
        for text, depths in HAND_SAMPLER_SPECS:
            sub = rs.parse_spec(text)
            for letter in range(sub.n_letters):
                arr = _expand_levels(sub, letter, depths[1], 1)
                for ell in (1, 2, 5):
                    if len(arr) >= ell:
                        assert_window_counts_agree(arr, ell, sub.n_letters)


def ragged_blocks(arr, rng):
    """``arr`` cut into blocks of 0, 1 and 2 to 11 symbols, with an empty
    block at each end."""
    blocks, start = [arr[:0]], 0
    while start < len(arr):
        size = int(rng.choice((0, 1, int(rng.integers(2, 12)))))
        blocks.append(arr[start : start + size])
        start += size
    return blocks + [arr[len(arr) :]]


class TestWindowCountCarry:
    """The counter fed blocks of 0 and 1 symbols among longer ones, so that
    the m - 1 symbols it carries come from several blocks, for m up to 7,
    counted densely and, for the largest m over 5 or 6 symbols, by
    ``np.unique``."""

    def test_letters(self):
        rng = np.random.default_rng(16)
        for n_letters in (3, 5):
            for ell in range(1, 8):
                for extra in (0, 1, 5, 40):
                    arr = rng.integers(0, n_letters, ell + extra).astype(np.uint16)
                    got, length = _window_counts(ragged_blocks(arr, rng), ell, n_letters)
                    assert length == len(arr)
                    assert got == whole_array_window_counts(arr, ell, n_letters), (ell, extra)

    def test_image_ids(self):
        # The shortest image has one letter, so m = ell.
        rng = np.random.default_rng(17)
        for images in (["\0", "\1\0", "\1\1\0"], ["\0", "\1", "\0\1", "\1\1\0", "\0\0", "\1\0"]):
            for ell in range(1, 8):
                for count in (ell, ell + 1, ell + 5, ell + 40):
                    ids = rng.integers(0, len(images), count)
                    word = np.array([ord(c) for i in ids for c in images[i]], dtype=np.uint16)
                    got, length = _window_counts(ragged_blocks(ids, rng), ell, 2, images)
                    assert length == len(word)
                    assert got == whole_array_window_counts(word, ell, 2), (images, ell, count)


class TestStreamedWindowCounts:
    """A report counts the last level's blocks as they are gathered; its
    counts must be those of the joined sample.  With blocks of 5 and 64
    letters, windows up to 2 * block + 3 letters cross many blocks, and some
    blocks are shorter than a window."""

    @pytest.fixture(params=(5, 64))
    def block(self, request, monkeypatch):
        monkeypatch.setattr(randsub.sampler, "_BLOCK", request.param)
        # The prediction is not under test, and at ell 131 it is out of reach.
        empty = rs.FrequencyVector(ell=0, words=(), values=())
        monkeypatch.setattr(randsub.sampler, "word_frequencies", lambda *a, **kw: empty)
        return request.param

    def test_hand_spec_reports(self, block):
        for text, depths in HAND_SAMPLER_SPECS:
            sub = rs.parse_spec(text)
            for letter in range(sub.n_letters):
                for depth, seed in ((depths[1], 0), (depths[1], 1), (depths[1] + 2, 1)):
                    word = rs.sample_realisation(sub, letter, depth, seed)
                    for ell in (1, 2, 3, block, block + 1, 2 * block + 3):
                        if len(word) < ell:
                            continue
                        report = rs.frequency_report(sub, ell, depth, seed, letter)
                        want = rs.empirical_frequencies(word, ell)
                        assert report.empirical == want, (text, letter, depth, seed, ell)
                        assert list(report.empirical) == list(want)
                        assert report.sample_length == len(word)


class TestImageIdReports:
    """A report counts its windows from the m-grams of the image ids chosen
    at level k - 1 and never builds level k, at every depth k >= 1; its counts
    and length must be those of the joined sample."""

    @pytest.fixture(autouse=True)
    def routes(self, monkeypatch):
        # The prediction is not under test; the route each report takes is.
        empty = rs.FrequencyVector(ell=0, words=(), values=())
        monkeypatch.setattr(randsub.sampler, "word_frequencies", lambda *a, **kw: empty)
        taken, level_blocks = [], randsub.sampler._level_blocks

        def spy(sub, letter, k, seed, budget, image_ids=False):
            taken.append(image_ids)
            return level_blocks(sub, letter, k, seed, budget, image_ids)

        monkeypatch.setattr(randsub.sampler, "_level_blocks", spy)
        return taken

    @staticmethod
    def assert_report_matches(sub, letter, depth, seed, ell, routes):
        """The report's route: True where it counted image ids."""
        word = rs.sample_realisation(sub, letter, depth, seed)
        routes.clear()
        if len(word) < ell:
            with pytest.raises(rs.WordTooShortError, match=f"sample of length {len(word)} is"):
                rs.frequency_report(sub, ell, depth, seed, letter)
            return routes[0]
        report = rs.frequency_report(sub, ell, depth, seed, letter)
        want = rs.empirical_frequencies(word, ell)
        assert report.empirical == want, (sub.rules, letter, depth, seed, ell)
        assert list(report.empirical) == list(want)
        assert report.sample_length == len(word)
        return routes[0]

    @staticmethod
    def ells(sub):
        longest = max(len(w) for rule in sub.rules for w in rule.images)
        return sorted({*range(1, min(2 * longest + 1, 19) + 1), longest + 1, 2 * longest + 1})

    @staticmethod
    def gram_space(sub, ell):
        images = [w for rule in sub.rules for w in rule.images]
        return code_base(len(images)) ** randsub.sampler._gram_length(ell, min(map(len, images)))

    def test_pool(self, pool, routes):
        wide = 0
        for i, sub in enumerate(pool):
            for depth in range(5):
                for ell in self.ells(sub):
                    # Depth 0 counts its one letter; every other depth, ids.
                    assert self.assert_report_matches(sub, 0, depth, i, ell, routes) == (depth > 0)
                    wide += depth > 0 and self.gram_space(sub, ell) > randsub.sampler._BLOCK
        assert wide > 0  # some m-gram code spaces exceed a block: counted by unique

    def test_hand_specs(self, routes):
        for text, depths in HAND_SAMPLER_SPECS:
            sub = rs.parse_spec(text)
            for letter in range(sub.n_letters):
                for depth in (*range(5), depths[1]):
                    for ell in self.ells(sub):
                        self.assert_report_matches(sub, letter, depth, 1, ell, routes)

    def test_int64_fallback(self, routes):
        # Six images, the shortest one letter long: the m-grams of ids are the
        # ell-grams, whose codes leave int64 at ell 24 (6^24 > 2^62), while
        # ternary letter codes do not (3^24 < 2^62); such a report still
        # counts ids, on Python-int m-gram codes.
        text, _ = HAND_SAMPLER_SPECS[0]
        sub = rs.parse_spec(text)
        assert code_dtype(6, 23) is np.int64 and code_dtype(6, 24) is object
        assert code_dtype(3, 24) is np.int64
        for ell in (23, 24, 25):
            assert self.assert_report_matches(sub, 0, 12, 3, ell, routes)
