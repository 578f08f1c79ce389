import math

import pytest

import randsub as rs
from randsub import cli
from randsub.cli import main


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
            ("sample", "--example", "random-fibonacci", "--depth", "10", "--ell", "4",
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
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "_cmd_info", broken)
        with pytest.raises(KeyError):
            main(["info", "--example", "golden"])

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["language", "--example", "golden"])  # missing --lmax
        assert exc.value.code == 2


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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code = main(
            ["language", "--example", "golden", "--lmax", "4", "--out", str(target)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        _c, stdout_version, _ = run_cli(
            capsys, "language", "--example", "golden", "--lmax", "4"
        )
        assert target.read_text() == stdout_version

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
