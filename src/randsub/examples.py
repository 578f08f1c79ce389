"""Bundled example substitutions.

Every example is a spec text, so the registry exercises the parser and
all of them round-trip through serialize.  Where the topological entropy
of the subshift has a known closed form it is recorded so entropy
brackets can be sanity-checked against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import RandomSubstitution, parse_spec


class ExampleSpec(NamedTuple):
    name: str
    text: str
    description: str
    exact_entropy: float | None = None
    entropy_note: str | None = None


_TAU = (1.0 + math.sqrt(5.0)) / 2.0

EXAMPLES: dict[str, ExampleSpec] = {
    ex.name: ex
    for ex in [
        ExampleSpec(
            name="random-fibonacci",
            text=(
                "alphabet: a b\n"
                "rule a -> ba:0.5 | ab:0.5\n"
                "rule b -> a:1\n"
            ),
            description="a maps to ba or ab, b maps to a; non-minimal golden-ratio system",
            exact_entropy=0.444399,
            entropy_note="series value sum_{i>=2} log(i)/tau^(i+2), approx 0.444399",
        ),
        ExampleSpec(
            name="period-doubling",
            text=(
                "alphabet: 0 1\n"
                "rule 0 -> 01:0.5 | 10:0.5\n"
                "rule 1 -> 00:1\n"
            ),
            description="random period doubling; constant image length 2",
            exact_entropy=2.0 / 3.0 * math.log(2.0),
            entropy_note="closed form (2/3)*log(2)",
        ),
        ExampleSpec(
            name="golden",
            text=(
                "alphabet: 0 1\n"
                "rule 0 -> 010:0.5 | 0:0.5\n"
                "rule 1 -> 01:0.5 | 1:0.5\n"
            ),
            description="generates the golden shift (binary words with no 11)",
            exact_entropy=math.log(_TAU),
            entropy_note="golden shift entropy log((1+sqrt 5)/2)",
        ),
        ExampleSpec(
            name="full-shift-2",
            text=(
                "alphabet: 0 1\n"
                "rule 0 -> 00:0.25 | 01:0.25 | 10:0.25 | 11:0.25\n"
                "rule 1 -> 00:0.25 | 01:0.25 | 10:0.25 | 11:0.25\n"
            ),
            description="both letters map to all four binary 2-blocks; the full 2-shift",
            exact_entropy=math.log(2.0),
            entropy_note="full binary shift entropy log 2",
        ),
        ExampleSpec(
            name="sofic-ab",
            text=(
                "alphabet: a b\n"
                "rule a -> ab:0.5 | ba:0.5\n"
                "rule b -> ab:0.5 | ba:0.5\n"
            ),
            description="a strictly sofic shift tiled by ab/ba dominoes",
            exact_entropy=0.5 * math.log(2.0),
            entropy_note="domino shift entropy (1/2)*log 2",
        ),
        ExampleSpec(
            name="empty-demo",
            text=(
                "alphabet: a b\n"
                "rule a -> a:0.5 | b:0.5\n"
                "rule b -> a:1\n"
            ),
            description="primitive but every image has length 1: empty subshift",
        ),
        ExampleSpec(
            name="redundant-image",
            text=(
                "alphabet: a b\n"
                "rule a -> ab:0.5 | abab:0.5\n"
                "rule b -> ab:1\n"
            ),
            description="the long image of a is redundant; two periodic sequences only",
            exact_entropy=0.0,
            entropy_note="two periodic orbits, zero entropy",
        ),
        ExampleSpec(
            name="power-splitting",
            text=(
                "alphabet: a b\n"
                "rule a -> ab:0.5 | abab:0.5\n"
                "rule b -> abb:1\n"
            ),
            description="no splitting pair at power 1, both letters split at power 2",
        ),
    ]
}


def example_names() -> tuple[str, ...]:
    return tuple(EXAMPLES)


def get_example(name: str) -> RandomSubstitution:
    try:
        spec = EXAMPLES[name]
    except KeyError:
        known = ", ".join(EXAMPLES)
        raise KeyError(f"unknown example {name!r}; bundled examples: {known}") from None
    return parse_spec(spec.text)
