"""Benchmark of ``randsub`` CLI reports.

    python3 perfbench/run.py --workload closure --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each workload is a fixed sequence of CLI
reports over the bundled examples and ``perfbench/deep.spec``; the workload
seed generates the ergodicity grid and the sample seeds, and the CLI only
sees the generated files and flags.  One parent process runs the reports
as child processes strictly one at a time (a closed loop with one client),
repeats the sequence while another repetition fits in ``--seconds``,
checks every report's stdout and prints medians over the repetitions.

Report times are the children's CPU time (user + system, from
``os.wait4``), scaled to a reference machine speed.  ``calibrate.py``
does a fixed mix of the kinds of work the reports do and uses nothing from
``randsub``; it runs after every report.  Each report's CPU time is
multiplied by ``CALIBRATION_REF_S`` over the mean CPU time of the
calibration children on either side of it.  On a shared host whose speed
drifts by tens of percent within seconds to minutes, the scaled times stay
put while the raw ones do not.  Raw CPU and wall times are printed and
recorded as well.

With ``--trace 1`` it runs the sequence once untraced and once through
``perfbench/tracer.py``, which wraps the library's public functions, and
prints per-layer metrics instead.  See ``perfbench/README.md``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (versions,
machine, every child's argv, per-report times, spans when traced) is
written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import calibrate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
DEFAULT_SEED = 0
MIN_REPS = 3  # untraced repetitions per run, even past --seconds
FREQ_TOL = 1e-12  # the CLI's default --tol for freq
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "ref_cpu_s": "s", "report1_ref_s": "s", "report2_ref_s": "s", "report3_ref_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
# CPU time of one calibrate.py child on the baseline machine
# (perfbench/README.md); scaled times read as CPU seconds on a machine that
# runs it this fast.
CALIBRATION_REF_S = 0.44
DEEP_SPEC = "perfbench/deep.spec"

# sha256 of each report's stdout at the seed commit.  Reports marked
# ``seeded`` depend on the workload seed and are pinned at DEFAULT_SEED
# only; every other report has the same stdout for every seed.
PINNED = {
    "closure/zeta-sofic-ab":
        "6bc819688b30dcd3038218a340d8867980c9e6be0be6e242f7852b1d6f149043",
    "closure/entropy-period-doubling":
        "74c6a8ab6036e69719d29008502f0b94ec37a0544cca6b6849c2b35e27ad4831",
    "closure/mixing-period-doubling":
        "422f444cac247472c475951fe3e996906838b81881a05af188929f91fb092e3f",
    "frequencies/freq-period-doubling":
        "41b18ade5f77f44e582c73cd964d4ae3d788f6297c6b1e88e3e1014e99a92e02",
    "frequencies/freq-random-fibonacci":
        "50106008343e4b417f284a3fc1f47d297a38212e1530385335246d20e3a33232",
    "frequencies/ergodicity-threads1":
        "a6d301a1ac5731b910431e59713cc925cac5e71f93fe12f50e1180061185825d",
    "frequencies/ergodicity-threads2":
        "a6d301a1ac5731b910431e59713cc925cac5e71f93fe12f50e1180061185825d",
    "realise/entropy-deep":
        "6200a28c508d8d2e63a00092aad4c5e55d89b622ee1717f0feeae0b75947bbfe",
    "realise/sample-random-fibonacci":
        "88811fcc292b406e7c6476cf313ca1bf4dd913dae5a1b3edb85be24a8ca9bd00",
    "realise/sample-period-doubling":
        "38f2ff73c65ec93200a21a635da2eaad7930b0ab4e8493b42490dbbe3dc710cc",
}


# -- output checks ---------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line]


def _fields(text: str) -> dict[str, str]:
    return {row[0]: row[1] for row in _rows(text) if len(row) == 2}


def check_sofic_zeta(nmax: int) -> Callable[[str], list[str]]:
    # (1 - z^2) / (1 - 2 z^2) = 1 + z^2 + 2 z^4 + 4 z^6 + ...
    want = [1.0] + [2.0 ** (d // 2 - 1) if d % 2 == 0 else 0.0 for d in range(1, nmax + 1)]

    def check(text: str) -> list[str]:
        got = [float(value) for _degree, value in _rows(text)[1:]]
        if len(got) != len(want) or any(
            abs(g - w) > 1e-9 * max(1.0, w) for g, w in zip(got, want)
        ):
            return [f"zeta coefficients {got} differ from (1-z^2)/(1-2z^2)"]
        return []

    return check


def check_bracket(text: str) -> list[str]:
    f = _fields(text)
    lower, exact, upper = (float(f[k]) for k in ("lower", "exact", "upper"))
    if not lower <= exact <= upper:
        return [f"entropy bracket violated: {lower} <= {exact} <= {upper} is false"]
    return []


def check_deep_bracket(text: str) -> list[str]:
    # deep.spec has no known entropy; its language holds every binary word,
    # so the upper bound is log 2, and a splitting pair gives lower > 0.
    f = _fields(text)
    lower, upper = float(f["lower"]), float(f["upper"])
    if not 0.0 < lower <= upper or abs(upper - math.log(2.0)) > 1e-9:
        return [f"entropy bracket {lower} .. {upper} is not 0 < lower <= upper = log 2"]
    return []


def check_freq(text: str) -> list[str]:
    values = [float(row[1]) for row in _rows(text)[1:]]
    problems = []
    if not values or min(values) < 0.0:
        problems.append("frequencies missing or negative")
    if abs(math.fsum(values) - 1.0) > FREQ_TOL:
        problems.append(f"frequencies sum to {math.fsum(values)!r}, not 1 within {FREQ_TOL}")
    return problems


def check_scan(text: str) -> list[str]:
    verdict = _fields(text).get("verdict")
    if verdict != "not-uniquely-ergodic":
        return [f"scan verdict {verdict!r}, expected 'not-uniquely-ergodic'"]
    return []


def check_sample_length(length: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        got = _fields(text).get("sample_length")
        return [] if got == str(length) else [f"sample_length {got}, expected {length}"]

    return check


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    name: str
    command: str  # the per-subcommand time it adds to, e.g. "zeta_s"
    metric: str  # the end-to-end metric it adds to, e.g. "report1_ref_s"
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    seeded: bool = False
    same_as: str | None = None  # must print the same bytes as this report


def reports_for(workload: str, seed: int, grid_path: Path) -> list[Report]:
    """The workload's report sequence; writes its ergodicity grid file."""
    rng = random.Random(seed)
    if workload == "closure":
        return [
            Report("zeta-sofic-ab", "zeta_s", "report1_ref_s",
                   ("zeta", "--example", "sofic-ab", "--nmax", "10", "--horizon", "20"),
                   check_sofic_zeta(10)),
            Report("entropy-period-doubling", "entropy_s", "report2_ref_s",
                   ("entropy", "--example", "period-doubling", "--lmax", "16", "--kmax", "2"),
                   check_bracket),
            Report("mixing-period-doubling", "mixing_s", "report3_ref_s",
                   ("mixing", "--example", "period-doubling", "--u", "11", "--v", "11",
                    "--nmax", "12"),
                   lambda text: []),
        ]
    if workload == "frequencies":
        # 16 non-degenerate points a:p,1-p, one p drawn from each of the
        # strata 0.10-0.14, 0.15-0.19, ..., 0.85-0.89.  Power iteration is
        # slower near the ends, so stratifying keeps the scan's work about
        # the same for every seed.
        grid_path.write_text(
            "".join(
                f"a:{k / 100:g},{(100 - k) / 100:g} b:1\n"
                for k in (10 + 5 * i + rng.randrange(5) for i in range(16))
            ),
            encoding="utf-8",
        )
        scan = ("ergodicity", "--example", "random-fibonacci", "--lmax", "9",
                "--grid", str(grid_path.relative_to(ROOT)))
        return [
            Report("freq-period-doubling", "freq_s", "report1_ref_s",
                   ("freq", "--example", "period-doubling", "--ell", "10"), check_freq),
            Report("freq-random-fibonacci", "freq_s", "report2_ref_s",
                   ("freq", "--example", "random-fibonacci", "--ell", "11"), check_freq),
            Report("ergodicity-threads1", "ergodicity_s", "report3_ref_s",
                   (*scan, "--threads", "1"), check_scan, seeded=True),
            Report("ergodicity-threads2", "ergodicity_s", "report3_ref_s",
                   (*scan, "--threads", "2"), check_scan, seeded=True,
                   same_as="ergodicity-threads1"),
        ]
    if workload == "realise":
        fib_seed, pd_seed = rng.randrange(2**32), rng.randrange(2**32)
        return [
            Report("entropy-deep", "entropy_s", "report1_ref_s",
                   ("entropy", "--spec", DEEP_SPEC, "--lmax", "8", "--kmax", "4"),
                   check_deep_bracket),
            Report("sample-random-fibonacci", "sample_s", "report2_ref_s",
                   ("sample", "--example", "random-fibonacci", "--letter", "a",
                    "--depth", "31", "--ell", "2", "--seed", str(fib_seed)),
                   check_sample_length(3_524_578), seeded=True),
            Report("sample-period-doubling", "sample_s", "report3_ref_s",
                   ("sample", "--example", "period-doubling", "--letter", "0",
                    "--depth", "22", "--ell", "4", "--seed", str(pd_seed)),
                   check_sample_length(2**22), seeded=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("closure", "frequencies", "realise")

# Layer shares the workloads were designed around: (label, layer metrics,
# reports whose traced library time is the base, lowest share, highest
# share).  Library time is traced wall time minus cli.self_s, so the
# interpreter's start-up is left out of the base.
EXPECTED_SHARES = {
    "closure": [
        ("closure / workload", ("language.closure_s",), None, 0.90, 1.0),
    ],
    "frequencies": [
        ("primitivity / freq_s", ("matrices.primitivity_s",),
         ("freq-period-doubling", "freq-random-fibonacci"), 0.65, 0.90),
        ("closure / freq_s", ("language.closure_s",),
         ("freq-period-doubling", "freq-random-fibonacci"), 0.0, 0.05),
    ],
    "realise": [
        ("realisation / entropy_s", ("core.realise_s",), ("entropy-deep",), 0.90, 1.0),
    ],
}


# -- children ---------------------------------------------------------------


@dataclass
class Child:
    report: Report | None
    argv: list[str]
    wall: float
    cpu: float  # user + system time of the child and its threads
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration on either side
    spans: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_child(argv: list[str], env: dict[str, str], scratch: Path,
              report: Report | None = None) -> Child:
    """Run one child to completion; wall time covers spawn to reap, CPU
    time is the child's own user + system time."""
    with open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        err.seek(0)
        return Child(report, argv, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0,
                     proc.returncode, out, err.read())


def check_child(child: Child, workload: str, seed: int, earlier: dict[str, bytes]) -> None:
    report = child.report
    if child.exit != 0:
        tail = child.stderr.decode(errors="replace")[-300:]
        child.problems.append(f"exit code {child.exit}: {tail}")
        return
    try:
        child.problems.extend(report.check(child.stdout.decode("utf-8")))
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        child.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
    if report.same_as is not None and child.stdout != earlier.get(report.same_as):
        child.problems.append(f"stdout differs from {report.same_as}")
    if not report.seeded or seed == DEFAULT_SEED:
        digest = hashlib.sha256(child.stdout).hexdigest()
        if digest != PINNED[f"{workload}/{report.name}"]:
            child.problems.append(f"stdout sha256 {digest} differs from the seed commit's")


def setup_child(env: dict[str, str], scratch: Path) -> Child:
    """A child that imports the CLI and exits before computing anything."""
    child = run_child([sys.executable, "-m", "randsub.cli", "--help"], env, scratch)
    if child.exit != 0 or not child.stdout.startswith(b"usage: randsub"):
        raise RuntimeError(f"randsub --help failed: {child.stderr.decode(errors='replace')}")
    return child


def calibration_child(env: dict[str, str], scratch: Path) -> Child:
    """A child that runs calibrate.py's fixed work."""
    child = run_child([sys.executable, str(BENCH / "calibrate.py")], env, scratch)
    if child.exit != 0 or child.stdout.decode().strip() != calibrate.EXPECTED:
        raise RuntimeError(f"calibrate.py failed: {child.stderr.decode(errors='replace')}")
    return child


def scale(before: Child, after: Child) -> float:
    """CALIBRATION_REF_S over the mean CPU time of two calibration children."""
    return 2.0 * CALIBRATION_REF_S / (before.cpu + after.cpu)


def run_sequence(reports: list[Report], env: dict[str, str], scratch: Path,
                 workload: str, seed: int, traced: bool,
                 calibration: list[Child] | None = None) -> list[Child]:
    """Run the reports one at a time and check them.  With ``calibration``,
    which must hold the calibration child run last, a calibration child
    runs after each report and sets the report's ``scale``."""
    children = []
    for report in reports:
        if traced:
            spans_path = scratch / "spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *report.argv]
        else:
            argv = [sys.executable, "-m", "randsub.cli", *report.argv]
        child = run_child(argv, env, scratch, report)
        if calibration is not None:
            calibration.append(calibration_child(env, scratch))
            child.scale = scale(calibration[-2], calibration[-1])
        if traced:
            try:
                child.spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            except (OSError, ValueError) as exc:
                child.problems.append(f"no spans: {exc}")
        children.append(child)
    earlier: dict[str, bytes] = {}
    for child in children:
        check_child(child, workload, seed, earlier)
        earlier[child.report.name] = child.stdout
    return children


def sequence_wall(children: list[Child]) -> float:
    return sum(c.wall for c in children)


def sequence_cpu(children: list[Child]) -> float:
    return sum(c.cpu for c in children)


# -- run record ---------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


VERSIONS = """\
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def run_record(args, loadavg) -> dict:
    versions = subprocess.run([sys.executable, "-c", VERSIONS], capture_output=True,
                              text=True, cwd=ROOT)
    return {
        "git_sha": git_sha(),
        "python": sys.version,
        **(json.loads(versions.stdout) if versions.returncode == 0 else
           {"numpy": None, "blas": None, "blas_version": None}),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_record(child: Child, label: str | None = None) -> dict:
    return {
        "report": child.report.name if child.report else label,
        "argv": child.argv,
        "wall_s": child.wall,
        "cpu_s": child.cpu,
        "scale": child.scale,
        "rss_mb": child.rss_mb,
        "exit": child.exit,
        "sha256": hashlib.sha256(child.stdout).hexdigest(),
        "problems": child.problems,
    }


# -- metrics ---------------------------------------------------------------


def sequence_ref(children: list[Child]) -> float:
    return sum(c.scale * c.cpu for c in children)


def end_to_end(reps: list[list[Child]], setup: list[list[Child]]) -> dict[str, float]:
    per_rep = []
    for children in reps:
        values = {"ref_cpu_s": sequence_ref(children),
                  "report1_ref_s": 0.0, "report2_ref_s": 0.0, "report3_ref_s": 0.0,
                  "peak_rss_mb": max(c.rss_mb for c in children)}
        for child in children:
            values[child.report.metric] += child.scale * child.cpu
        per_rep.append(values)
    out = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    out["setup_s"] = statistics.median(c.scale * c.cpu for rep in setup for c in rep)
    return out


def by_command(children: list[Child], time_of: Callable[[Child], float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for child in children:
        out[child.report.command] = out.get(child.report.command, 0.0) + time_of(child)
    return out


def shares(workload: str, children: list[Child]) -> list[tuple[str, float, float, float]]:
    out = []
    for label, metrics, names, low, high in EXPECTED_SHARES[workload]:
        picked = [c for c in children if names is None or c.report.name in names]
        layers = tracer.layer_metrics([(c.wall, c.spans) for c in picked])
        library = sum(c.wall for c in picked) - layers["cli.self_s"]
        share = sum(layers[m] for m in metrics) / library
        out.append((label, share, low, high))
    return out


def print_children(children: list[Child]) -> None:
    for child in children:
        status = "ok" if not child.problems else "FAILED: " + "; ".join(child.problems)
        print(f"    {child.report.name:26} {child.report.command:13} "
              f"cpu {child.cpu:7.3f} s  wall {child.wall:7.3f} s  scale {child.scale:.3f} "
              f"{child.rss_mb:7.1f} MB  {status}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "randsub" / "cli.py").is_file():
        print(f"error: no randsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        record = run_record(args, loadavg)
        reports = reports_for(args.workload, args.seed, scratch / "grid.txt")
        setup_child(env, scratch)  # warms the bytecode cache; not counted
        start = time.perf_counter()
        calibration = [calibration_child(env, scratch)]
        setup: list[list[Child]] = []
        reps, longest = [], 0.0
        while True:
            rep_start = time.perf_counter()
            # Two set-up children per repetition spread the set-up samples
            # over the run like the reports.  They run between the same two
            # calibration children as the first report.
            before = calibration[-1]
            setup.append([setup_child(env, scratch) for _ in range(2)])
            reps.append(run_sequence(reports, env, scratch, args.workload, args.seed, False,
                                     calibration))
            for child in setup[-1]:
                child.scale = scale(before, calibration[len(calibration) - len(reports)])
            longest = max(longest, time.perf_counter() - rep_start)
            if args.trace or (len(reps) >= MIN_REPS
                              and time.perf_counter() - start + longest > args.seconds):
                break
        traced = (run_sequence(reports, env, scratch, args.workload, args.seed, True)
                  if args.trace else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    children = [c for rep in reps for c in rep] + (traced or [])
    failed = sum(1 for c in children if c.problems)
    print(f"randsub benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, git {record['git_sha']}")
    print(f"  python {sys.version.split()[0]}, numpy {record['numpy']}, "
          f"{record['blas']} {record['blas_version']}, nproc {record['nproc']}, "
          f"load {loadavg[0]:.2f}")
    for i, rep in enumerate(reps, 1):
        print(f"  repetition {i} (untraced): scaled cpu {sequence_ref(rep):.3f} s, "
              f"cpu {sequence_cpu(rep):.3f} s, wall {sequence_wall(rep):.3f} s")
        print_children(rep)
    if traced:
        print(f"  traced repetition: wall {sequence_wall(traced):.3f} s")
        print_children(traced)

    if args.trace:
        layers = tracer.layer_metrics([(c.wall, c.spans) for c in traced])
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in layers.items()
        }
        overhead = sequence_wall(traced) - sequence_wall(reps[0])
        print("per-layer metrics (traced repetition):")
        for name, m in metrics.items():
            value = f"{m['value']:14.4f}" if m["unit"] == "s" else f"{m['value']:14d}"
            print(f"  {name:28} {value} {m['unit']}")
        print(f"  tracing overhead: traced wall_s {sequence_wall(traced):.3f} s - untraced "
              f"wall_s {sequence_wall(reps[0]):.3f} s = {overhead:+.3f} s")
        for label, share, low, high in shares(args.workload, traced):
            verdict = "reproduced" if low <= share <= high else "NOT reproduced"
            print(f"  share of library time {label:24} {share:6.1%} "
                  f"(expected {low:.0%}..{high:.0%}): {verdict}")
        record["tracing_overhead_s"] = overhead
        record["spans"] = {c.report.name: c.spans for c in traced}
    else:
        values = end_to_end(reps, setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"end-to-end metrics (median of {len(reps)} repetitions; setup_s over "
              f"{sum(map(len, setup))} children; CPU times scaled to calibrate.py = "
              f"{CALIBRATION_REF_S} s):")
        for name, m in metrics.items():
            print(f"  {name:12} {m['value']:10.4f} {m['unit']}")
        print("  not declared, raw medians: "
              f"cpu_s {statistics.median(map(sequence_cpu, reps)):.4f} s, "
              f"wall_s {statistics.median(map(sequence_wall, reps)):.4f} s, "
              f"calibration cpu {statistics.median(c.cpu for c in calibration):.4f} s")
        print("  per subcommand (median of summed report time), raw cpu and wall:")
        for command in by_command(reps[0], lambda c: c.cpu):
            cpu, wall = (statistics.median(by_command(rep, time_of)[command] for rep in reps)
                         for time_of in (lambda c: c.cpu, lambda c: c.wall))
            print(f"  {command:12} {cpu:10.4f} s {wall:10.4f} s")
    print(f"  failed_ratio {failed}/{len(children)} = {failed / len(children):.4g}")

    record["calibration"] = [child_record(c, "calibration") for c in calibration]
    record["setup"] = [child_record(c, "setup") for rep in setup for c in rep]
    record["reports"] = [child_record(c) for c in children]
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
