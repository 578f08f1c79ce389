"""Command-line interface.

Every subcommand reads a substitution from --spec FILE or a bundled
--example NAME and yields deterministic CSV-style lines (comma separator,
'.' decimal point, LF endings, header rows); ``main`` loads it and writes them
once.  All but info and matrix take --budget; matrix, freq (solver) and
ergodicity (scan spread) take --tol; ergodicity alone accepts --threads, a no-op.
--probs is taken where probabilities are read; language, periodic, zeta and
mixing depend on the support only and refuse it.
OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set; a library import of randsub sets no variable.

Importing the CLI loads core, errors and examples, none of which loads numpy.
The computing modules (dynamics, induced, language, matrices, sampler) are
registered in ``sys.modules`` and run on their first attribute access, so
--help, a usage error and an unreadable --spec load no numpy, while each
report loads numpy and only the modules it calls: zeta, periodic and mixing
never load induced or sampler.

Exit codes: 0 success; 1 domain error (empty subshift, not primitive,
no convergence, ...); 2 usage or spec-format error, or a closed stdout;
3 budget exhausted.  Scripts exit through ``run``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import os
import sys
import types
from collections.abc import Iterator

# Before numpy loads: its OpenBLAS would otherwise start a worker thread that
# busy-waits after the import and after every product.  Measured on 2 vCPUs,
# one thread cut `randsub --help` from 0.25 to 0.16 s of CPU and the perfbench
# reports by about a third; up to `freq` ell 14, wall time stayed within noise
# (two threads a shade faster at ell 12, 0.239 against 0.244 s).  Large
# dense products do gain from a second thread: `freq --example period-doubling
# --ell 16` (an 865 MB matrix) took 5.4 s of wall time against 3.5 s.  Stdout
# is the same either way, and a thread count the user set stands.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (
    DEFAULT_BUDGET,
    DEFAULT_PF_TOL,
    DEFAULT_SCAN_TOL,
    RandomSubstitution,
    _format_images,
    format_float,
    parse_probability,
    parse_spec,
    serialize,
    with_probabilities,
)
from .errors import (
    BudgetExceededError,
    RandsubError,
    SpecError,
)
from .examples import EXAMPLES, example_names, get_example


class _Rerun:
    """A module's loader whose failed run leaves the module lazy, so that the
    next access runs it again and raises its own error.  CPython's import of a
    module already in ``sys.modules`` reads its ``__spec__``, which runs a lazy
    module, and discards the error; the importer would then meet a half-run
    module and report a missing name instead."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name: str):
        return getattr(self.loader, name)

    def exec_module(self, module) -> None:
        try:
            self.loader.exec_module(module)
        except BaseException:
            # Newer Pythons keep the module lazy while it runs; LazyLoader must
            # record a plain module's class, or the rerun recurses.
            module.__class__ = types.ModuleType
            importlib.util.LazyLoader(self).exec_module(module)
            raise


def _lazy(name: str):
    """``randsub.<name>``, registered in ``sys.modules`` now and run on its
    first attribute access, so a subcommand loads only the modules it calls."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(_Rerun(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


dynamics, induced, language, matrices, sampler = map(
    _lazy, ("dynamics", "induced", "language", "matrices", "sampler")
)

DOMAIN_EXIT = 1
USAGE_EXIT = 2
BUDGET_EXIT = 3


def _load_substitution(args: argparse.Namespace) -> RandomSubstitution:
    if args.example is not None:
        sub = get_example(args.example)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            sub = parse_spec(handle.read())
    if getattr(args, "probs", None):
        sub = with_probabilities(sub, _parse_assignment(args.probs))
    return sub


def _parse_assignment(text: str) -> dict[str, tuple[float, ...]]:
    """Parse ``a:0.5,0.5 b:1`` into {letter: probability vector}."""
    out: dict[str, tuple[float, ...]] = {}
    for group in text.split():
        if ":" not in group:
            raise SpecError(f"bad probability group {group!r}, expected letter:p1,p2,...")
        letter, values = group.split(":", 1)
        out[letter] = tuple(parse_probability(v) for v in values.split(","))
    return out


def _positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an int of at least 1, got {text!r}")
    return value


def _format_assignment(point: dict[str, tuple[float, ...]]) -> str:
    return ";".join(
        f"{letter}={'|'.join(format_float(p) for p in probs)}"
        for letter, probs in sorted(point.items())
    )


def _row(*cells) -> str:
    return ",".join(str(c) for c in cells)


def _matrix_rows(labels: list[str], matrix) -> Iterator[str]:
    yield _row("", *labels)
    for label, row in zip(labels, matrix):
        yield _row(label, *(format_float(float(x)) for x in row))


def _cmd_info(sub: RandomSubstitution, args) -> Iterator[str]:
    yield _row("field", "value")
    yield _row("letters", " ".join(sub.alphabet.letters))
    yield _row("letter_count", sub.n_letters)
    yield _row("max_image_len", sub.max_image_len)
    yield _row("min_image_len", sub.min_image_len)
    yield _row("deterministic", str(sub.is_deterministic).lower())
    yield _row("degenerate", str(sub.is_degenerate).lower())
    primitive = matrices.is_primitive(sub)
    yield _row("primitive", str(primitive).lower())
    yield _row("irreducible", str(matrices.is_irreducible(sub)).lower())
    if primitive:
        yield _row("empty_subshift", str(language.is_empty_subshift(sub)).lower())
    for rule in sub.rules:
        yield _row(f"rule_{sub.alphabet.letters[rule.source]}", _format_images(sub, rule))


def _cmd_language(sub: RandomSubstitution, args) -> Iterator[str]:
    table = language.legal_words(sub, args.lmax, budget=args.budget)
    yield _row("length", "count")
    for ell in range(1, args.lmax + 1):
        yield _row(ell, table.count(ell))
    if args.dump_words:
        yield ""
        yield _row("length", "word")
        for ell in range(1, args.lmax + 1):
            for word in table.words(ell):
                yield _row(ell, sub.alphabet.format_word(word))


def _cmd_matrix(sub: RandomSubstitution, args) -> Iterator[str]:
    letters = list(sub.alphabet.letters)
    matrix = matrices.substitution_matrix(sub)
    yield from _matrix_rows(letters, matrix)
    pf = matrices.perron_data(matrix, tol=args.tol)
    yield ""
    yield _row("lambda", format_float(pf.lam))
    for letter, value in zip(letters, pf.right):
        yield _row("right", letter, format_float(float(value)))
    for letter, value in zip(letters, pf.left):
        yield _row("left", letter, format_float(float(value)))
    yield _row("residual", format_float(pf.residual))


def _cmd_induced(sub: RandomSubstitution, args) -> Iterator[str]:
    ind = induced.induced_substitution(sub, args.ell, budget=args.budget)
    yield serialize(ind.sub).rstrip("\n")
    yield ""
    yield from _matrix_rows(list(ind.sub.alphabet.letters), induced.induced_matrix(ind))


def _cmd_freq(sub: RandomSubstitution, args) -> Iterator[str]:
    freq = induced.word_frequencies(sub, args.ell, tol=args.tol, budget=args.budget)
    yield _row("word", "frequency")
    for word, value in zip(freq.words, freq.values):
        yield _row(sub.alphabet.format_word(word), format_float(value))


def _cmd_ergodicity(sub: RandomSubstitution, args) -> Iterator[str]:
    grid: list[dict[str, tuple[float, ...]]] = []
    skipped = 0
    with open(args.grid, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            point = _parse_assignment(line)
            probed = with_probabilities(sub, point)
            if probed.is_degenerate:
                skipped += 1  # scan theory covers non-degenerate points only
                continue
            grid.append(point)
    if skipped:
        print(
            f"warning: skipped {skipped} degenerate grid point(s); the scan "
            "only covers non-degenerate probabilities",
            file=sys.stderr,
        )
    verdict = induced.unique_ergodicity_scan(
        sub, args.lmax, grid, tol=args.tol, budget=args.budget
    )
    yield _row("field", "value")
    yield _row("verdict", verdict.status)
    yield _row("ell_max", verdict.ell_max)
    yield _row("grid_points", len(verdict.grid))
    yield _row("tol", format_float(verdict.tol))
    if verdict.witness is not None:
        w = verdict.witness
        yield _row("witness_ell", w.ell)
        yield _row("witness_word", sub.alphabet.format_word(w.word))
        yield _row("witness_low_point", _format_assignment(dict(verdict.grid[w.low_point])))
        yield _row("witness_low_value", format_float(w.low_value))
        yield _row("witness_high_point", _format_assignment(dict(verdict.grid[w.high_point])))
        yield _row("witness_high_value", format_float(w.high_value))


def _cmd_entropy(sub: RandomSubstitution, args) -> Iterator[str]:
    exact = exact_note = None
    if args.example is not None:
        spec = EXAMPLES[args.example]
        exact, exact_note = spec.exact_entropy, spec.entropy_note
    bracket = dynamics.entropy_bracket(
        sub,
        args.lmax,
        args.kmax,
        budget=args.budget,
        exact_known=exact,
        exact_note=exact_note,
    )
    yield _row("ell", "upper")
    for ell, value in bracket.upper_profile:
        yield _row(ell, format_float(value))
    yield ""
    yield _row("field", "value")
    yield _row("upper", format_float(bracket.upper))
    yield _row("lower", format_float(bracket.lower))
    yield _row("lower_status", bracket.lower_status)
    if bracket.lower_witness is not None:
        w = bracket.lower_witness
        yield _row("lower_letter", sub.alphabet.letters[w.letter])
        yield _row("lower_power", w.power)
        yield _row("lower_pair_u", sub.alphabet.format_word(w.u))
        yield _row("lower_pair_v", sub.alphabet.format_word(w.v))
    if bracket.exact_known is not None:
        yield _row("exact", format_float(bracket.exact_known))
        yield _row("exact_note", bracket.exact_note or "")


def _cmd_periodic(sub: RandomSubstitution, args) -> Iterator[str]:
    census = dynamics.periodic_census(sub, args.nmax, args.horizon, budget=args.budget)
    yield _row("n", "count")
    for n in range(1, args.nmax + 1):
        yield _row(n, census.counts[n])


def _cmd_zeta(sub: RandomSubstitution, args) -> Iterator[str]:
    census = dynamics.periodic_census(sub, args.nmax, args.horizon, budget=args.budget)
    series = dynamics.zeta_series(census, args.nmax)
    yield _row("degree", "coefficient")
    for degree, coeff in enumerate(series.coefficients):
        yield _row(degree, format_float(coeff))


def _cmd_mixing(sub: RandomSubstitution, args) -> Iterator[str]:
    u = sub.alphabet.word(args.u)
    v = sub.alphabet.word(args.v)
    gaps = dynamics.mixing_gaps(sub, u, v, args.nmax, budget=args.budget)
    yield _row("gap")
    for gap in gaps:
        yield _row(gap)


def _cmd_sample(sub: RandomSubstitution, args) -> Iterator[str]:
    report = sampler.frequency_report(
        sub, args.ell, args.depth, args.seed, start_letter=args.letter, budget=args.budget
    )
    yield _row("word", "empirical", "predicted", "abs_dev")
    for word, emp, pred, dev in report.rows():
        yield _row(
            sub.alphabet.format_word(word),
            format_float(emp),
            format_float(pred),
            format_float(dev),
        )
    yield ""
    yield _row("field", "value")
    yield _row("start_letter", sub.alphabet.letters[report.start_letter])
    yield _row("depth", report.depth)
    yield _row("ell", report.ell)
    yield _row("seed", report.seed)
    yield _row("sample_length", report.sample_length)
    yield _row("max_abs_deviation", format_float(report.max_abs_deviation))


class _Parser(argparse.ArgumentParser):  # help is flushed; a failed write still exits 0
    def _print_message(self, message, file=None):
        with contextlib.suppress(AttributeError, OSError):
            super()._print_message(message, file)
            (file or sys.stderr).flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randsub",
        description="Random substitution subshifts: languages, matrices, "
        "frequencies, entropy, periodic points, zeta series, mixing, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="path to a substitution spec file")
    source.add_argument(
        "--example", choices=example_names(), help="bundled example name"
    )
    common.add_argument("--out", help="write the report here instead of stdout")
    probs = argparse.ArgumentParser(add_help=False)
    probs.add_argument(
        "--probs",
        help="probability override, e.g. 'a:0.5,0.5 b:1' (fractions allowed)",
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_BUDGET, help="work budget for enumerations"
    )
    enumerating = [common, budget]  # support only: no --probs
    weighted = [common, probs, budget]
    # One --tol action for matrix and freq: safe because both read the same default.
    pf = argparse.ArgumentParser(add_help=False)
    pf.add_argument("--tol", type=float, default=DEFAULT_PF_TOL, help="power-iteration tolerance")

    p = sub.add_parser("info", parents=[common, probs], help="substitution summary and flags")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("language", parents=enumerating, help="legal-word counts per length")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--dump-words", action="store_true")
    p.set_defaults(func=_cmd_language)

    p = sub.add_parser(
        "matrix", parents=[common, probs, pf], help="substitution matrix and eigendata"
    )
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("induced", parents=weighted, help="induced substitution and matrix")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_induced)

    p = sub.add_parser(
        "freq", parents=[*weighted, pf], help="word frequencies at one window length"
    )
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("ergodicity", parents=weighted, help="unique-ergodicity scan over a grid")
    p.add_argument("--grid", required=True, help="file with one probability assignment per line")
    p.add_argument("--lmax", type=int, default=2)
    p.add_argument(
        "--tol", type=float, default=DEFAULT_SCAN_TOL, help="grid spread that counts as variation"
    )
    p.add_argument(
        "--threads", type=_positive_int, default=1, help="accepted for compatibility; has no effect"
    )
    p.set_defaults(func=_cmd_ergodicity)

    p = sub.add_parser("entropy", parents=weighted, help="entropy bracket")
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("periodic", parents=enumerating, help="periodic-point census")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("zeta", parents=enumerating, help="truncated zeta series from the census")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("mixing", parents=enumerating, help="achievable gaps between two words")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("sample", parents=weighted, help="seeded sample vs predicted frequencies")
    p.add_argument("--letter", default=None)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The parser leaves cycles behind; freed before numpy loads, they lower the peak RSS.
    gc.collect()
    try:
        sub = _load_substitution(args)
        payload = "".join(line + "\n" for line in args.func(sub, args))
        if args.out is None:
            sys.stdout.write(payload)
            sys.stdout.flush()  # a closed stdout fails here, not at teardown
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(payload)
        return 0
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except RandsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def run() -> None:
    """Entry point of the ``randsub`` script and ``-m randsub.cli``: ``os._exit``
    after the flushes skips teardown, about 0.02 s of CPU per report on 2 vCPUs."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, usage errors
        code = 0 if exc.code is None else exc.code
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
