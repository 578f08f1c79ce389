"""Fixed reference work for calibrating the benchmark to machine speed.

    python3 perfbench/calibrate.py

It starts like every ``randsub`` child, by importing numpy, then does a
fixed amount of each kind of work the reports spend their time on, and
prints the results:

- pure-Python set, dict and string work (language closure, realisation
  enumeration, induced builds);
- boolean powers of a dense int64 matrix (primitivity tests);
- masking, sorting and converting a half-million-element numpy array (the
  sampler).

Nothing here uses ``randsub``, so a change to the program cannot change
it.  ``run.py`` runs it after every report and divides each report's CPU
time by the mean CPU time of the calibration children on either side: a
host that runs everything slower for a while slows both alike, and the
quotient stays put.
"""

from __future__ import annotations

import itertools

import numpy as np

EXPECTED = "65331 31164 160278232"  # what it prints; checked by run.py


def python_work() -> int:
    """Factors of the Thue-Morse word: substring counts and a set."""
    word = "0"
    for _ in range(15):
        word = "".join("01" if c == "0" else "10" for c in word)
    total = 0
    for length in range(1, 17):
        counts: dict[str, int] = {}
        for i in range(len(word) - length + 1):
            w = word[i : i + length]
            counts[w] = counts.get(w, 0) + 1
        total += len(counts) + max(counts.values())
    pairs = {(a, b) for a, b in itertools.product(range(200), repeat=2) if (a * b) % 7 == 3}
    return total + len(pairs)


def matrix_work() -> int:
    """Boolean powers of a fixed sparse 0/1 matrix, as a primitivity test does."""
    n = 256
    idx = np.arange(n)
    power = np.zeros((n, n), dtype=np.int64)
    power[idx, (idx + 1) % n] = 1
    power[idx, (idx * 7 + 3) % n] = 1
    acc = 0
    for _ in range(3):
        power = ((power @ power) > 0).astype(np.int64)
        acc += int(power.sum())
    return acc


def array_work() -> int:
    """A pseudo-random binary word: masks, window codes, unique counts and
    the conversion to a Python string, as the sampler does."""
    n = 1 << 19
    z = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(29)
    word = (z % np.uint64(3)).astype(np.uint16)
    word[word == 2] = 0
    codes = np.zeros(n - 3, dtype=np.int64)
    for t in range(4):
        codes = codes * 2 + word[t : n - 3 + t].astype(np.int64)
    values, counts = np.unique(codes, return_counts=True)
    text = "".join(map(chr, word.tolist()))
    return len(values) * 10**7 + int(counts.max()) + text.count("\x01")


if __name__ == "__main__":
    print(python_work(), matrix_work(), array_work())
