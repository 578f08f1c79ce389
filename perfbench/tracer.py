"""Span tracer for one ``randsub`` CLI report, and the per-layer metrics
built from its spans.

Run as a script, it wraps the public functions of the ``randsub`` modules
listed in ``TARGETS``, runs one report in-process through
``randsub.cli.main`` and writes the recorded spans as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json zeta --example sofic-ab --nmax 12

The report itself goes to stdout exactly as the CLI prints it, and the
exit code is the CLI's.  Nothing in ``src/`` knows about the tracer: each
wrapped name is replaced in every ``randsub`` module that holds it, so
calls made through a by-name import (``from .language import
legal_words``) are traced too.

Spans nest per thread.  A span opened on a worker thread with nothing open
on that thread gets the main thread's innermost open span as its parent,
so the ergodicity scan's thread-pool work nests under the scan.  A span's
self time is its duration minus the union of its direct children's
intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path


def _table_counts(args, kwargs, table) -> dict:
    return {
        "table": id(table),
        "words": sum(table.count(m) for m in range(1, table.max_len + 1)),
        "rounds": max(table.stabilized_at.values(), default=0),
    }


def _induced_counts(args, kwargs, ind) -> dict:
    return {
        "alphabet": len(ind.words),
        "images": sum(rule.arity for rule in ind.sub.rules),
    }


# (module, function, count function or None, consume the returned iterator)
TARGETS = [
    ("randsub.language", "legal_words", _table_counts, False),
    ("randsub.matrices", "is_primitive", None, False),
    ("randsub.matrices", "is_primitive_matrix",
     lambda args, kwargs, result: {"order": int(args[0].shape[0])}, False),
    ("randsub.matrices", "perron_data",
     lambda args, kwargs, pf: {"iterations": int(pf.iterations)}, False),
    ("randsub.induced", "induced_substitution", _induced_counts, False),
    ("randsub.induced", "word_frequencies", None, False),
    ("randsub.induced", "unique_ergodicity_scan", None, False),
    ("randsub.core", "power_realisations",
     lambda args, kwargs, items: {"realisations": len(items)}, True),
    ("randsub.dynamics", "entropy_bracket", None, False),
    ("randsub.dynamics", "periodic_census", None, False),
    ("randsub.dynamics", "mixing_gaps", None, False),
    ("randsub.dynamics", "splitting_pairs", None, False),
    ("randsub.sampler", "frequency_report",
     lambda args, kwargs, report: {"letters": int(report.sample_length)}, False),
]

# Per-layer metric -> functions whose summed self time it reports.
SELF_TIMES = {
    "language.closure_s": ("legal_words",),
    "matrices.primitivity_s": ("is_primitive", "is_primitive_matrix"),
    "matrices.pf_s": ("perron_data",),
    "induced.build_s": ("induced_substitution",),
    "induced.frequencies_s": ("word_frequencies",),
    "induced.scan_s": ("unique_ergodicity_scan",),
    "core.realise_s": ("power_realisations",),
    "dynamics.entropy_s": ("entropy_bracket",),
    "dynamics.census_s": ("periodic_census",),
    "dynamics.mixing_s": ("mixing_gaps",),
    "dynamics.splitting_s": ("splitting_pairs",),
    "sampler.report_s": ("frequency_report",),
}

# Per-layer metric -> (function, count summed over its spans); a count of
# None sums the number of spans.
COUNTS = {
    "matrices.primitivity_order": ("is_primitive_matrix", "order"),
    "matrices.pf_iterations": ("perron_data", "iterations"),
    "induced.builds": ("induced_substitution", None),
    "induced.alphabet": ("induced_substitution", "alphabet"),
    "induced.images": ("induced_substitution", "images"),
    "core.realisations": ("power_realisations", "realisations"),
    "sampler.letters": ("frequency_report", "letters"),
}

TABLE_COUNTS = ("language.words", "language.rounds", "language.tables")

LAYER_METRICS = ("cli.self_s", *SELF_TIMES, *TABLE_COUNTS, *COUNTS)


class Tracer:
    """Records spans in memory; ``install`` patches the ``randsub`` modules."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._tables: dict[int, object] = {}  # keeps traced tables alive so ids stay unique
        self.origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, counter, consume):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = {"id": next(self._ids), "parent": parent, "name": name,
                    "thread": threading.get_ident(), "counts": {}}
            stack.append(span["id"])
            span["start"] = time.perf_counter() - self.origin
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - self.origin
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
                if "table" in span["counts"]:
                    self._tables[id(result)] = result
            return iter(result) if consume else result

        return traced

    def install(self) -> None:
        import randsub.cli  # noqa: F401  (imports every module the CLI uses)

        modules = [m for name, m in sys.modules.items()
                   if name == "randsub" or name.startswith("randsub.")]
        for module_name, fn_name, counter, consume in TARGETS:
            original = getattr(sys.modules[module_name], fn_name)
            traced = self.wrap(fn_name, original, counter, consume)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        inside = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], ())
        ]
        out[span["id"]] = span["end"] - span["start"] - _union(inside)
    return out


def library_time(spans: list[dict]) -> float:
    """Wall time covered by top-level spans, i.e. spent inside the library."""
    return _union([(s["start"], s["end"]) for s in spans if s["parent"] is None])


def layer_metrics(children: list[tuple[float, list[dict]]]) -> dict[str, float]:
    """Per-layer metrics summed over traced children, each given as
    (child wall time measured by the parent, its spans)."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    for wall, spans in children:
        out["cli.self_s"] += wall - library_time(spans)
        own = self_times(spans)
        for metric, names in SELF_TIMES.items():
            out[metric] += sum(own[s["id"]] for s in spans if s["name"] in names)
        for metric, (name, key) in COUNTS.items():
            out[metric] += sum(
                1 if key is None else s["counts"].get(key, 0)
                for s in spans if s["name"] == name
            )
        tables: dict[int, dict] = {}
        for span in sorted(spans, key=lambda s: s["end"]):
            if "table" in span["counts"]:
                tables[span["counts"]["table"]] = span["counts"]
        out["language.words"] += sum(t["words"] for t in tables.values())
        out["language.rounds"] = max(
            out["language.rounds"], *(t["rounds"] for t in tables.values()), 0
        )
        out["language.tables"] += len(tables)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from randsub.cli import main as cli_main

    try:
        code = cli_main(argv[1:])
    finally:
        sys.stdout.flush()
        Path(argv[0]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
