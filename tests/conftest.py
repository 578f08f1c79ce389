import tracemalloc

import pytest

import randsub as rs


@pytest.fixture(scope="session")
def tables():
    """Language tables shared across test modules (pure, read-only)."""
    cache = {}

    def get(name: str, ell: int, budget: int = 10**8) -> rs.LanguageTable:
        if name not in cache:
            cache[name] = rs.legal_words(rs.get_example(name), ell, budget=budget)
        return cache[name].extend(ell)

    return get


def brute_force_no_11(ell: int) -> set[str]:
    """Binary words of length ell avoiding the factor 11 (golden shift)."""
    from itertools import product

    return {
        "".join(w) for w in product("01", repeat=ell) if "11" not in "".join(w)
    }


def unmix64(z):
    """Inverse of the SplitMix64 finaliser on Python ints."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    mask = 2**64 - 1
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    return unshift(z, 30)


def seed_for_draw(v: int) -> int:
    """The seed whose draw ``value >> 11`` at depth 0, position 0 is v, found
    by inverting the documented generator."""
    golden = 0x9E3779B97F4A7C15
    key = (unmix64(v << 11) - golden) % 2**64
    return (unmix64(key) - golden) % 2**64


def traced_peak(run):
    """Bytes traced by tracemalloc (numpy's buffers included) at the peak of
    ``run()``, above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
