import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randsub as rs
import randsub.matrices
from randsub import cli
from randsub.cli import main
from randsub.induced import DEFAULT_SCAN_TOL
from randsub.matrices import DEFAULT_PF_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--example", "period-doubling")
        assert code == 0
        assert "lambda,2" in out

    def test_domain_error_is_one(self, capsys):
        code, _out, err = run_cli(
            capsys, "language", "--example", "empty-demo", "--lmax", "3"
        )
        assert code == 1
        assert "empty subshift" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("freq", "--example", "empty-demo", "--ell", "1"),
            ("sample", "--example", "empty-demo", "--depth", "5", "--ell", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_frequencies_for_an_empty_subshift(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: empty subshift: all images have length 1, "
            "no legal words beyond letters\n"
        )

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.sub"
        bad.write_text("alphabet: a\nrule a -> a:0.4\n")
        code, _out, err = run_cli(capsys, "info", "--spec", str(bad))
        assert code == 2
        assert "probabilit" in err

    def test_missing_spec_file_is_two(self, capsys):
        code, _out, _err = run_cli(capsys, "info", "--spec", "/nonexistent/x.sub")
        assert code == 2

    def test_budget_error_is_three(self, capsys):
        code, _out, err = run_cli(
            capsys, "language", "--example", "sofic-ab", "--lmax", "20",
            "--budget", "100",
        )
        assert code == 3
        assert "budget" in err

    def test_entropy_budget_caps_generated_realisations(self, capsys):
        # Golden's 4th power of 0 has 763,506 realisations, but the pair
        # search stops after a few, so a budget of 10,000 is enough.
        code, out, _err = run_cli(
            capsys, "entropy", "--example", "golden", "--lmax", "8", "--kmax", "4",
            "--budget", "10000",
        )
        assert code == 0
        assert "lower_status,splitting-pair" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("induced", "--example", "random-fibonacci", "--ell", "4", "--budget", "10"),
            ("freq", "--example", "random-fibonacci", "--ell", "4", "--budget", "10"),
            ("ergodicity", "--example", "random-fibonacci", "--lmax", "9", "--budget", "100"),
            ("entropy", "--example", "period-doubling", "--lmax", "8", "--budget", "10"),
            ("periodic", "--example", "period-doubling", "--nmax", "4", "--budget", "10"),
            ("zeta", "--example", "period-doubling", "--nmax", "4", "--budget", "10"),
            ("mixing", "--example", "period-doubling", "--u", "0", "--v", "0",
             "--nmax", "4", "--budget", "10"),
            ("sample", "--example", "random-fibonacci", "--depth", "4", "--ell", "4",
             "--budget", "10"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_enumerating_subcommand_honours_budget(self, capsys, tmp_path, argv):
        if argv[0] == "ergodicity":
            grid = tmp_path / "grid.txt"
            grid.write_text("a:0.5,0.5\na:0.9,0.1\n")
            argv = (*argv, "--grid", str(grid))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: language closure to length ")

    def test_budget_caps_the_sample_expansion(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--example", "period-doubling", "--depth", "20",
            "--budget", "1000", "--ell", "2",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: sample of letter 0: 1024 letters at level 10 of 20")

    def test_library_key_error_is_not_a_usage_error(self, monkeypatch):
        # A KeyError can only come from a fault in the program, never
        # from input: it must surface instead of turning into exit 2.
        def broken(sub, args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "_cmd_info", broken)
        with pytest.raises(KeyError):
            main(["info", "--example", "golden"])

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_non_positive_solver_tolerance_is_two(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "freq", "--example", "random-fibonacci", "--ell", "2", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be positive and finite" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lmax", "1", "--tol", "-1"), "scan tolerance must be at least 0"),
            (("--lmax", "1", "--tol", "nan"), "scan tolerance must be at least 0"),
            (("--lmax", "0"), "ell_max must be at least 1"),
        ],
        ids=["negative-tol", "nan-tol", "lmax-0"],
    )
    def test_bad_scan_arguments_are_two(self, capsys, tmp_path, flags, message):
        grid = tmp_path / "grid.txt"
        grid.write_text("0:0.5,0.5\n0:0.9,0.1\n")
        code, out, err = run_cli(
            capsys, "ergodicity", "--example", "period-doubling", "--grid", str(grid), *flags
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--budget", "0"), ("--budget", "-1"), ("--budget", "x"), ("--threads", "0")],
    )
    def test_budget_or_threads_below_one_is_two(self, capsys, flag, value):
        argv = ["language", "--example", "sofic-ab", "--lmax", "3"]
        if flag == "--threads":
            # only the scan takes --threads; argparse refuses the value before --grid is read
            argv = ["ergodicity", "--example", "sofic-ab", "--grid", "unread.txt"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an int of at least 1, got '{value}'" in captured.err

    def test_negative_sample_depth_is_two(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--example", "golden", "--depth", "-1", "--ell", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: depth must be non-negative\n"

    @pytest.mark.parametrize("probs", ["a0.5,0.5", "a:0.5,x", "z:1"])
    def test_bad_probability_group_is_two(self, capsys, probs):
        code, out, err = run_cli(
            capsys, "info", "--example", "random-fibonacci", "--probs", probs
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_zero_denominator_probability_is_two(self, capsys):
        code, out, err = run_cli(
            capsys, "freq", "--example", "random-fibonacci", "--ell", "2",
            "--probs", "a:1/0,1 b:1",
        )
        assert (code, out) == (2, "")
        assert "cannot parse probability '1/0'" in err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["language", "--example", "golden"])  # missing --lmax
        assert exc.value.code == 2


class TestOptionScope:
    """Each option is declared only on the subcommands that read it."""

    SHARED = {"--spec", "--example", "--out"}
    WEIGHTED = SHARED | {"--probs"}
    EXPECTED = {
        "info": WEIGHTED,
        "language": SHARED | {"--budget", "--lmax", "--dump-words"},
        "matrix": WEIGHTED | {"--tol"},
        "induced": WEIGHTED | {"--budget", "--ell"},
        "freq": WEIGHTED | {"--budget", "--tol", "--ell"},
        "ergodicity": WEIGHTED | {"--budget", "--tol", "--threads", "--grid", "--lmax"},
        "entropy": WEIGHTED | {"--budget", "--lmax", "--kmax"},
        "periodic": SHARED | {"--budget", "--nmax", "--horizon"},
        "zeta": SHARED | {"--budget", "--nmax", "--horizon"},
        "mixing": SHARED | {"--budget", "--u", "--v", "--nmax"},
        "sample": WEIGHTED | {"--budget", "--letter", "--depth", "--seed", "--ell"},
    }
    # Per subcommand taking --probs, the arguments of a golden run whose stdout
    # an override of letter 0 changes; the ergodicity grid names letter 1 only.
    READS_PROBS = {
        "info": (),
        "matrix": (),
        "induced": ("--ell", "2"),
        "freq": ("--ell", "2"),
        "ergodicity": ("--grid", "grid.txt"),
        "entropy": ("--lmax", "4", "--kmax", "1"),
        "sample": ("--depth", "6"),
    }

    def test_each_subcommand_declares_exactly_its_options(self):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(self.EXPECTED)
        for name, parser in subparsers.choices.items():
            options = {s for a in parser._actions for s in a.option_strings}
            assert options - {"-h", "--help"} == self.EXPECTED[name], name

    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy", "--example", "golden", "--lmax", "4", "--kmax", "1", "--tol", "-1"),
            ("language", "--example", "golden", "--lmax", "3", "--tol", "nan"),
            ("sample", "--example", "golden", "--depth", "4", "--tol", "1e-3"),
            ("info", "--example", "golden", "--budget", "5"),
            ("matrix", "--example", "golden", "--budget", "5"),
            ("freq", "--example", "golden", "--ell", "2", "--threads", "2"),
            ("language", "--example", "golden", "--lmax", "3", "--probs", "0:0.9,0.1"),
            ("periodic", "--example", "golden", "--nmax", "3", "--probs", "0:0.9,0.1"),
            ("zeta", "--example", "golden", "--nmax", "3", "--probs", "0:0.9,0.1"),
            ("mixing", "--example", "golden", "--u", "0", "--v", "1", "--nmax", "3",
             "--probs", "0:0.9,0.1"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_an_option_a_subcommand_does_not_read_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_probs_is_declared_where_it_is_read(self):
        assert {name for name, options in self.EXPECTED.items() if "--probs" in options} == set(
            self.READS_PROBS
        )
        assert sum(map(len, self.EXPECTED.values())) == 72

    @pytest.mark.parametrize("name", sorted(READS_PROBS))
    def test_each_probs_override_changes_stdout(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.txt").write_text("1:0.5,0.5\n1:0.9,0.1\n")
        argv = (name, "--example", "golden", *self.READS_PROBS[name])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, overridden, _ = run_cli(capsys, *argv, "--probs", "0:0.9,0.1")
        assert code == 0
        assert overridden != out

    @pytest.mark.parametrize(
        "argv, default",
        [
            (("freq", "--example", "golden", "--ell", "2"), DEFAULT_PF_TOL),
            (("matrix", "--example", "golden"), DEFAULT_PF_TOL),
            (("ergodicity", "--example", "golden", "--grid", "g.txt"), DEFAULT_SCAN_TOL),
        ],
        ids=lambda value: value[0] if isinstance(value, tuple) else None,
    )
    def test_tolerance_defaults_come_from_the_library(self, argv, default):
        assert cli.build_parser().parse_args(argv).tol == default


class TestOutputs:
    def test_matrix_values(self, capsys):
        _code, out, _ = run_cli(capsys, "matrix", "--example", "period-doubling")
        lines = out.splitlines()
        assert lines[0] == ",0,1"
        assert lines[1] == "0,1,2"
        assert lines[2] == "1,1,0"
        assert "right,0,0.666666666667" in lines
        assert "right,1,0.333333333333" in lines

    def test_language_counts_and_dump(self, capsys):
        _code, out, _ = run_cli(
            capsys, "language", "--example", "golden", "--lmax", "3", "--dump-words"
        )
        blocks = out.split("\n\n")
        assert blocks[0].splitlines() == ["length,count", "1,2", "2,3", "3,5"]
        words = blocks[1].splitlines()
        assert words[0] == "length,word"
        assert "2,01" in words and "2,11" not in words

    def test_zeta_sofic(self, capsys):
        _code, out, _ = run_cli(
            capsys, "zeta", "--example", "sofic-ab", "--nmax", "12", "--horizon", "24",
        )
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert [rows[str(d)] for d in range(13)] == [
            "1", "0", "1", "0", "2", "0", "4", "0", "8", "0", "16", "0", "32",
        ]

    def test_periodic_counts(self, capsys):
        _code, out, _ = run_cli(
            capsys, "periodic", "--example", "sofic-ab", "--nmax", "4", "--horizon", "24",
        )
        assert out.splitlines() == ["n,count", "1,0", "2,2", "3,0", "4,6"]

    def test_mixing_even_gaps(self, capsys):
        _code, out, _ = run_cli(
            capsys, "mixing", "--example", "period-doubling",
            "--u", "11", "--v", "11", "--nmax", "10",
        )
        assert out.splitlines() == ["gap", "2", "4", "6", "8", "10"]

    def test_freq_with_probability_override(self, capsys):
        _code, out, _ = run_cli(
            capsys, "freq", "--example", "random-fibonacci", "--ell", "2",
            "--probs", "a:0.9,0.1",
        )
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert float(rows["bb"]) == pytest.approx(0.9 * 0.1 / (
            (1 + math.sqrt(5)) / 2
            + 2 * ((1 + math.sqrt(5)) / 2) ** 2 * (1 - 0.9 + 0.81)
            + 0.09
        ), abs=1e-9)

    def test_freq_with_fractional_probability_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "freq", "--example", "random-fibonacci", "--ell", "2",
            "--probs", "a:1/3,2/3 b:1",
        )
        sub = rs.with_probabilities(rs.get_example("random-fibonacci"), {"a": (1 / 3, 2 / 3)})
        freq = rs.word_frequencies(sub, 2)
        expected = ["word,frequency"] + [
            f"{sub.alphabet.format_word(word)},{cli.format_float(value)}"
            for word, value in zip(freq.words, freq.values)
        ]
        assert (code, out) == (0, "\n".join(expected) + "\n")

    def test_induced_emits_spec_grammar(self, capsys):
        _code, out, _ = run_cli(
            capsys, "induced", "--example", "random-fibonacci", "--ell", "2"
        )
        assert out.startswith("alphabet: aa ab ba bb\n")
        assert "rule bb -> aa:1" in out

    def test_entropy_report(self, capsys):
        _code, out, _ = run_cli(
            capsys, "entropy", "--example", "period-doubling",
            "--lmax", "8", "--kmax", "1",
        )
        assert "lower,0.115524530093" in out
        assert "lower_pair_u,01" in out
        assert "lower_pair_v,10" in out
        assert "exact,0.462098120373" in out

    def test_ergodicity_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("a:0.5,0.5 b:1\na:0.9,0.1 b:1\n# comment\n")
        _code, out, _ = run_cli(
            capsys, "ergodicity", "--example", "random-fibonacci",
            "--grid", str(grid), "--lmax", "2",
        )
        assert "verdict,not-uniquely-ergodic" in out
        assert "witness_word,bb" in out

    def test_ergodicity_non_convergence_names_its_place(self, capsys, tmp_path, monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("a:0.5,0.5 b:1\na:0.3,0.7 b:1\na:0.12,0.88 b:1\na:0.7,0.3 b:1\n")
        monkeypatch.setattr(randsub.matrices, "PF_ITERATION_CAP", 32)
        code, out, err = run_cli(
            capsys, "ergodicity", "--example", "random-fibonacci",
            "--grid", str(grid), "--lmax", "4",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: power iteration did not converge in 32 steps (ell 4, grid point 3)\n"
        )

    def test_ergodicity_warns_on_degenerate_point(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("a:0.5,0.5\na:0.9,0.1\na:1,0\n")
        code, out, err = run_cli(
            capsys, "ergodicity", "--example", "random-fibonacci",
            "--grid", str(grid), "--lmax", "1",
        )
        assert code == 0
        assert "degenerate" in err

    def test_info_round_trips_spec_file(self, capsys, tmp_path):
        for name in rs.example_names():
            path = tmp_path / f"{name}.sub"
            path.write_text(rs.serialize(rs.get_example(name)))
            _c, from_file, _ = run_cli(capsys, "info", "--spec", str(path))
            _c, from_registry, _ = run_cli(capsys, "info", "--example", name)
            assert from_file == from_registry


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _c, first, _ = run_cli(
            capsys, "sample", "--example", "period-doubling",
            "--letter", "0", "--depth", "12", "--seed", "9", "--ell", "2",
        )
        _c, second, _ = run_cli(
            capsys, "sample", "--example", "period-doubling",
            "--letter", "0", "--depth", "12", "--seed", "9", "--ell", "2",
        )
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "--example", "golden"),
            ("language", "--example", "golden", "--lmax", "4"),
            ("matrix", "--example", "period-doubling"),
            ("induced", "--example", "random-fibonacci", "--ell", "2"),
            ("freq", "--example", "random-fibonacci", "--ell", "2"),
            ("ergodicity", "--example", "random-fibonacci", "--lmax", "2"),
            ("entropy", "--example", "period-doubling", "--lmax", "6", "--kmax", "1"),
            ("periodic", "--example", "sofic-ab", "--nmax", "4", "--horizon", "12"),
            ("zeta", "--example", "sofic-ab", "--nmax", "4", "--horizon", "12"),
            ("mixing", "--example", "period-doubling", "--u", "11", "--v", "11",
             "--nmax", "6"),
            ("sample", "--example", "period-doubling", "--depth", "6", "--ell", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        if argv[0] == "ergodicity":
            grid = tmp_path / "grid.txt"
            grid.write_text("a:0.5,0.5\na:0.9,0.1\n")
            argv = (*argv, "--grid", str(grid))
        target = tmp_path / "report.csv"
        code = main([*argv, "--out", str(target)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        _c, stdout_version, _ = run_cli(capsys, *argv)
        assert stdout_version
        with open(target, encoding="utf-8", newline="") as handle:
            assert handle.read() == stdout_version

    def test_failed_run_writes_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "language", "--example", "sofic-ab", "--lmax", "20",
            "--budget", "50", "--out", str(target),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()

    def test_threads_flag_does_not_change_output(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("a:0.5,0.5\na:0.9,0.1\n")
        _c, seq, _ = run_cli(
            capsys, "ergodicity", "--example", "random-fibonacci",
            "--grid", str(grid), "--lmax", "2", "--threads", "1",
        )
        _c, par, _ = run_cli(
            capsys, "ergodicity", "--example", "random-fibonacci",
            "--grid", str(grid), "--lmax", "2", "--threads", "4",
        )
        assert seq == par


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Run in a fresh interpreter: which modules one import loads, which environment
# variables it writes, and how many threads the process then holds.
FRESH_IMPORT = """
import json, os, sys
before = dict(os.environ)
import {module}
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "fractions": "fractions" in sys.modules,
    "changed": {{k: os.environ.get(k) for k in before.keys() | os.environ.keys()
                if before.get(k) != os.environ.get(k)}},
    "tasks": tasks,
}}))
"""


def child_env(env, **preset):
    """``env`` with ``preset`` applied (None removes a variable) and this
    checkout's ``src`` first on PYTHONPATH, for a fresh interpreter."""
    for name, value in preset.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    src = str(Path(rs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def fresh_import(module, **preset):
    # Importing randsub.cli here has set a thread variable in this process,
    # so each child starts from an environment with all three removed.
    env = child_env({k: v for k, v in os.environ.items() if k not in THREAD_VARS}, **preset)
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT.format(module=module)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


class TestBlasThreads:
    def test_import_randsub_loads_no_numpy_and_sets_nothing(self):
        result = fresh_import("randsub")
        assert result["numpy"] is False
        assert result["changed"] == {}

    def test_cli_defaults_openblas_to_one_thread(self):
        # The CLI loads numpy only with its first computing module; the
        # setting is in place by then.
        assert fresh_import("randsub.cli")["numpy"] is False
        result = fresh_import("randsub.cli, randsub.language")
        assert result["numpy"] is True
        assert result["changed"] == {"OPENBLAS_NUM_THREADS": "1"}
        if result["tasks"] is None:
            pytest.skip("thread count read from /proc/self/task on Linux only")
        assert result["tasks"] == 1

    @pytest.mark.parametrize("var", THREAD_VARS)
    def test_cli_leaves_a_preset_thread_count(self, var):
        assert fresh_import("randsub.cli", **{var: "3"})["changed"] == {}

    def test_cli_import_loads_neither_dataclasses_nor_fractions(self):
        # Records are NamedTuples, which generate no methods at import, and
        # fractions loads only when a probability is written as one.
        result = fresh_import("randsub.cli")
        assert (result["dataclasses"], result["fractions"]) == (False, False)


# Run in a fresh interpreter: the induced, frequency, scan, sample and mixing
# routes, then whether numpy.ma was loaded.  A plain np.unique loads it, which
# costs about 9 ms of CPU in every process that calls it.
MASKED_ARRAYS_LOADED = """
import sys
import randsub as rs
fib, pd = rs.get_example("random-fibonacci"), rs.get_example("period-doubling")
rs.induced_substitution(pd, 5)
rs.word_frequencies(pd, 6)
rs.unique_ergodicity_scan(fib, 4, [{"a": (0.3, 0.7)}, {"a": (0.6, 0.4)}])
rs.frequency_report(fib, 3, 14, 7)
rs.mixing_gaps(pd, "\\x00", "\\x01", 6)
print("numpy.ma" in sys.modules)
"""


class TestNoMaskedArrays:
    def test_frequency_routes_leave_numpy_ma_unloaded(self):
        env = child_env({k: v for k, v in os.environ.items() if k not in THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, "-c", MASKED_ARRAYS_LOADED],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "False"

# Run in a fresh interpreter with perfbench on sys.path: which modules
# ``import randsub.cli`` leaves for the tracer, then the span names of one
# traced report.
TRACED_REPORT = """
import json, sys
sys.path.insert(0, {perfbench!r})
from tracer import TARGETS, Tracer
import randsub.cli
missing = sorted({{module for module, *_ in TARGETS}} - set(sys.modules))
numpy = "numpy" in sys.modules
tracer = Tracer()
tracer.install()
code = randsub.cli.main(["zeta", "--example", "sofic-ab", "--nmax", "4"])
print(json.dumps({{"missing": missing, "numpy": numpy, "code": code,
                  "spans": sorted({{span["name"] for span in tracer.spans}})}}))
"""


class TestLazyModules:
    def test_cli_import_registers_every_traced_module(self):
        perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_REPORT.format(perfbench=perfbench)],
            env=child_env(dict(os.environ)), capture_output=True, text=True,
            timeout=120, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert (result["missing"], result["numpy"], result["code"]) == ([], False, 0)
        assert {"legal_words", "periodic_census"} <= set(result["spans"])

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--help",), 0),
            (("freq", "--example", "no-such", "--ell", "2"), 2),
            (("freq", "--spec", "no-such.spec", "--ell", "2"), 2),
        ],
        ids=["help", "usage", "missing-spec"],
    )
    def test_paths_that_compute_nothing_skip_numpy(self, tmp_path, argv, code):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "randsub.cli", *argv],
            env=child_env(dict(os.environ)), cwd=tmp_path, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == code
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "randsub.core" in imported
        assert not [name for name in imported if name.split(".")[0] == "numpy"]


WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["randsub", *{argv!r}]
runpy.run_module("randsub.cli", run_name="__main__")
"""


class TestModuleLoadErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta", "--example", "sofic-ab", "--nmax", "3"),
            ("freq", "--example", "golden", "--ell", "2"),
            ("sample", "--example", "golden", "--ell", "2", "--depth", "3"),
            ("info", "--example", "golden"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_module_that_fails_to_load_reports_its_own_error(self, argv):
        # zeta's dynamics imports language by name; its failure used to
        # surface as a missing name in language.
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_NUMPY.format(argv=argv)],
            env=child_env(dict(os.environ)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "numpy" in proc.stderr
        assert "cannot import name" not in proc.stderr


def cli_process(argv, stdout=subprocess.PIPE, **preset):
    """Run ``python -m randsub.cli`` (the ``run`` exit path) in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "randsub.cli", *argv],
        env=child_env(dict(os.environ), **preset),
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )


def in_process(capsys, argv):
    """``main`` in this interpreter, with argparse's exits read as codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode("utf-8"), captured.err


class TestProcessExit:
    @pytest.fixture(autouse=True)
    def fixed_help_width(self, monkeypatch):
        # argparse wraps --help to the terminal; a child writing to a pipe
        # and this process under pytest may see different widths.
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("info", "--example", "golden"), 0),
            (("--help",), 0),
            (("language", "--example", "empty-demo", "--lmax", "3"), 1),
            (("language", "--example", "golden"), 2),  # missing --lmax
            (("language", "--example", "sofic-ab", "--lmax", "20", "--budget", "50"), 3),
            (("ergodicity", "--example", "random-fibonacci", "--lmax", "1"), 0),
        ],
        ids=["success", "help", "domain", "usage", "budget", "stderr-warning"],
    )
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_process_matches_main(self, capsys, tmp_path, argv, code, unbuffered):
        if argv[0] == "ergodicity":  # a degenerate point: the warning goes to stderr
            grid = tmp_path / "grid.txt"
            grid.write_text("a:0.5,0.5\na:0.9,0.1\na:1,0\n")
            argv = (*argv, "--grid", str(grid))
        proc = cli_process(argv, PYTHONUNBUFFERED=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == in_process(
            capsys, argv
        )
        assert proc.returncode == code

    def test_out_file_is_complete(self, capsys, tmp_path):
        argv = ("language", "--example", "golden", "--lmax", "12", "--dump-words")
        target = tmp_path / "report.csv"
        proc = cli_process([*argv, "--out", str(target)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == in_process(capsys, argv)[1]

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX pipe semantics")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("info", "--example", "golden"), 2),  # fits the buffer: fails at the flush
            (("language", "--example", "full-shift-2", "--lmax", "12", "--dump-words"), 2),
            (("--help",), 0),  # a failed help write is ignored, as recent argparse does
        ],
        ids=["small", "large", "help"],
    )
    def test_closed_stdout(self, argv, code, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == code
        assert "Traceback" not in err
        assert "Exception ignored" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [("--help",), ("info", "--help")], ids=["top", "sub"])
    def test_failed_help_write_exits_0(self, monkeypatch, argv, failing):
        # Python 3.10's argparse lets an OSError from the help write escape.
        class Closed:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0


class TestPackageNamespace:
    # The public names as the eager package imported them, by defining module.
    PUBLIC = {
        "core": [
            "Alphabet", "RandomSubstitution", "Rule", "Word", "is_realisation",
            "letter_counts", "parse_spec", "power_realisations", "realisations",
            "same_support", "serialize", "subwords", "with_probabilities",
        ],
        "dynamics": [
            "EntropyBracket", "PeriodicCensus", "SplittingPair", "SplittingReport",
            "ZetaSeries", "entropy_bracket", "is_strong_affix",
            "max_realisation_lengths", "mixing_gaps", "periodic_census",
            "refine_census_by_frequencies", "series_exp", "series_log",
            "splitting_pairs", "zeta_series",
        ],
        "errors": [
            "BadProbabilityError", "BudgetExceededError", "DegenerateRuleError",
            "EmptyImageError", "EmptySubshiftError", "LengthOrderError",
            "NoConvergenceError", "NotPrimitiveError", "RandsubError", "SpecError",
            "SpecSyntaxError", "UnknownLetterError", "WordTooShortError",
        ],
        "examples": ["EXAMPLES", "ExampleSpec", "example_names", "get_example"],
        "induced": [
            "ErgodicityVerdict", "ErgodicityWitness", "FrequencyVector",
            "InducedSubstitution", "RatioConditionReport", "RatioViolation",
            "induced_is_primitive", "induced_matrix", "induced_substitution",
            "ratio_condition_check", "unique_ergodicity_scan", "word_frequencies",
        ],
        "language": [
            "LanguageTable", "complexity", "is_empty_subshift", "is_legal", "legal_words",
        ],
        "matrices": [
            "PerronData", "is_irreducible", "is_irreducible_matrix", "is_primitive",
            "is_primitive_matrix", "perron_data", "substitution_matrix",
            "support_matrix",
        ],
        "sampler": [
            "SampleReport", "empirical_frequencies", "frequency_report",
            "sample_realisation", "stream_u01",
        ],
    }

    def test_all_lists_the_same_75_names(self):
        names = sorted(name for names in self.PUBLIC.values() for name in names)
        assert len(names) == 75
        assert sorted(rs.__all__) == names

    def test_each_name_is_its_defining_modules_object(self):
        for module, names in self.PUBLIC.items():
            home = importlib.import_module(f"randsub.{module}")
            for name in names:
                assert getattr(rs, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from randsub import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(rs.__all__)
        assert all(namespace[name] is getattr(rs, name) for name in rs.__all__)

    def test_submodules_resolve_as_attributes(self):
        assert rs.language.code_dtype is importlib.import_module("randsub.language").code_dtype
        assert all(getattr(rs, module).__name__ == f"randsub.{module}" for module in self.PUBLIC)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rs.no_such_name


class TestRecords:
    # Each result record's fields in the order the dataclasses declared them.
    FIELDS = {
        "Rule": ("source", "images", "probabilities"),
        "SplittingPair": ("letter", "power", "u", "v"),
        "SplittingReport": ("k_max", "pairs"),
        "EntropyBracket": (
            "upper_profile", "upper", "lower", "lower_status", "lower_witness",
            "exact_known", "exact_note",
        ),
        "PeriodicCensus": ("n_max", "horizon", "counts", "roots"),
        "ZetaSeries": ("n_max", "coefficients", "log_terms"),
        "ExampleSpec": ("name", "text", "description", "exact_entropy", "entropy_note"),
        "InducedSubstitution": ("ell", "words", "sub"),
        "FrequencyVector": ("ell", "words", "values"),
        "ErgodicityWitness": (
            "ell", "word", "low_point", "high_point", "low_value", "high_value",
        ),
        "ErgodicityVerdict": ("not_uniquely_ergodic", "ell_max", "grid", "tol", "witness"),
        "RatioViolation": (
            "letter", "image_pair", "letter_pair", "delta_first", "delta_second", "residual",
        ),
        "RatioConditionReport": ("violations", "checked", "tol"),
        "PerronData": ("lam", "right", "left", "residual", "iterations"),
        "SampleReport": (
            "seed", "start_letter", "depth", "ell", "sample_length", "empirical",
            "predicted", "max_abs_deviation",
        ),
    }
    DEFAULTS = {
        "EntropyBracket": {"exact_known": None, "exact_note": None},
        "ExampleSpec": {"exact_entropy": None, "entropy_note": None},
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_fields_immutability_and_repr(self, name):
        cls = getattr(rs, name)
        fields = self.FIELDS[name]
        assert cls._fields == fields
        assert cls._field_defaults == self.DEFAULTS.get(name, {})
        values = [f"value {i}" for i in range(len(fields))]
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], "other")
        assert getattr(record, fields[0]) == "value 0"
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
        assert repr(record) == f"{name}({shown})"
