"""Tests for argument parsing, CSV emission and the CLI entry point."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccmix import oracle
from ccmix.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    _write_csv,
    emit_reports,
    main,
    parse_args,
)
from ccmix.experiments import run_posterior_experiment, run_toy_experiment
from ccmix.oracle import random_spec, save_spec


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args(["toy"])
        assert cfg == RunConfig(command="toy")
        assert cfg.seed == 42 and cfg.iterations == 101_000
        assert cfg.burn_in == 1000 and cfg.output_dir == Path("out")
        assert cfg.spec_file is None and cfg.replicates == 10

    def test_all_flags(self, tmp_path):
        cfg = parse_args(
            [
                "posterior",
                "--seed",
                "7",
                "--iters",
                "5000",
                "--burn-in",
                "500",
                "--out",
                str(tmp_path),
                "--replicates",
                "3",
            ]
        )
        assert cfg.command == "posterior"
        assert cfg.seed == 7 and cfg.iterations == 5000 and cfg.burn_in == 500
        assert cfg.output_dir == tmp_path and cfg.replicates == 3

    def test_oracle_spec_flag(self, tmp_path):
        cfg = parse_args(["oracle", "--spec", str(tmp_path / "s.tsv")])
        assert cfg.command == "oracle"
        assert cfg.spec_file == tmp_path / "s.tsv"

    def test_iters_must_exceed_burn_in(self):
        with pytest.raises(UsageError):
            parse_args(["toy", "--iters", "100", "--burn-in", "100"])

    def test_oracle_refuses_experiment_flags(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["oracle", "--iters", "5"])
        assert "--iters" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            parse_args(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            parse_args([])

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        spec = tmp_path / "s.tsv"
        assert parse_args(["oracle", "--seed", "3", "--spec", str(spec)]) == RunConfig(
            command="oracle", seed=3, spec_file=spec
        )
        assert parse_args(["oracle"]) == RunConfig(command="oracle")
        assert parse_args(["toy", "--iters", "500", "--burn-in", "50"]).iterations == 500
        assert parse_args(["toy"]) == RunConfig(command="toy")
        with pytest.raises(SystemExit) as exc:
            parse_args(["oracle", "--iters", "5"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        assert parse_args(["oracle", "--seed", "5"]) == RunConfig(command="oracle", seed=5)

    def test_import_loads_no_scipy(self):
        # Every benchmark workload pays this import in its setup time and
        # its peak RSS, so the oracle's graph search stays in numpy.
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, ccmix.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestMainExitCodes:
    def test_usage_error_is_exit_2(self, capsys):
        assert main(["toy", "--iters", "10", "--burn-in", "10"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["oracle", "--seed", "-1"], "--seed"),
            (["toy", "--seed", "-1", "--iters", "600", "--burn-in", "100"], "--seed"),
            (
                ["toy", "--replicates", "0", "--iters", "600", "--burn-in", "100"],
                "--replicates",
            ),
            (["posterior", "--burn-in", "-1", "--iters", "600"], "--burn-in"),
            # The ACF needs more than DEFAULT_MAX_LAG = 50 kept sweeps.
            (["toy", "--iters", "150", "--burn-in", "100"], "--iters"),
            (["posterior", "--iters", "50", "--burn-in", "0"], "--iters"),
        ],
        ids=["oracle-seed", "seed", "replicates", "burn-in", "kept-toy", "kept-posterior"],
    )
    def test_flags_a_study_cannot_run_are_exit_2(self, tmp_path, capsys, argv, flag):
        if argv[0] != "oracle":
            argv = [*argv, "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_label_chain_that_never_moves_is_exit_1(self, tmp_path, capsys):
        # MwG stays on label 2 for all 60 kept sweeps: its label has no ACF.
        argv = ["--iters", "160", "--burn-in", "100", "--replicates", "1", "--seed", "2"]
        assert main(["posterior", *argv, "--out", str(tmp_path)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mwg" in err
        assert "Traceback" not in err

    def test_argparse_rejection_is_exit_2(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unwritable_output_is_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(
            [
                "toy",
                "--iters",
                "600",
                "--burn-in",
                "100",
                "--replicates",
                "1",
                "--out",
                str(blocker / "sub"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_toy_report():
    return run_toy_experiment(seed=5, n_iter=800, burn_in=100, replicates=1)


@pytest.fixture(scope="module")
def tiny_posterior_report():
    return run_posterior_experiment(seed=5, n_iter=800, burn_in=100, replicates=1)


class TestEmitReports:
    def test_toy_file_set(self, tmp_path, tiny_toy_report):
        files = emit_reports(tiny_toy_report, tmp_path)
        names = sorted(p.name for p in files)
        assert names == sorted(
            [f"acf_{s}_{c}.csv" for s in ("gibbs", "cc", "mcc", "fcc") for c in "mz"]
            + ["summary.csv"]
        )
        for p in files:
            assert p.exists()

    def test_posterior_file_set(self, tmp_path, tiny_posterior_report):
        files = emit_reports(tiny_posterior_report, tmp_path)
        names = sorted(p.name for p in files)
        assert names == sorted(
            [f"acf_{s}_{c}.csv" for s in ("mwg", "mcc", "fcc") for c in "mz"]
            + ["summary.csv", "density.csv"]
        )

    def test_acf_csv_schema(self, tmp_path, tiny_toy_report):
        emit_reports(tiny_toy_report, tmp_path)
        lines = (tmp_path / "acf_gibbs_m.csv").read_text().splitlines()
        assert lines[0] == "lag,value"
        assert len(lines) == 52  # header + lags 0..50
        lag, value = lines[1].split(",")
        assert lag == "0" and float(value) == 1.0
        # Every value survives a text round trip exactly (str of a float).
        for line, expected in zip(lines[1:], tiny_toy_report.results["gibbs"].acf_m):
            assert float(line.split(",")[1]) == expected

    def test_summary_csv_schema(self, tmp_path, tiny_posterior_report):
        emit_reports(tiny_posterior_report, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "sampler,mean_z,acceptance,wallclock_s"
        assert len(lines) == 4
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert set(rows) == {"mwg", "mcc", "fcc"}
        assert rows["fcc"].split(",")[1] == ""  # no acceptance rate

    def test_density_csv_schema(self, tmp_path, tiny_posterior_report):
        emit_reports(tiny_posterior_report, tmp_path)
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "z,kde,exact"
        assert len(lines) == len(tiny_posterior_report.density_grid) + 1

    def test_unix_line_endings(self, tmp_path, tiny_toy_report):
        emit_reports(tiny_toy_report, tmp_path)
        raw = (tmp_path / "summary.csv").read_bytes()
        assert b"\r" not in raw

    def test_csv_bytes_match_the_row_by_row_writer(self, tmp_path):
        # The writer that wrote each row with its own write call.
        def row_by_row(path, header, rows):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(str(v) for v in row) + "\n")

        header = ["a", "b", "c"]
        rows = [(0, "", -0.0), (5e-324, 1e16, 0.1), ("gibbs", 7, np.float64(0.5))]
        pinned = b"0,,-0.0\n5e-324,1e+16,0.1\ngibbs,7,0.5\n"
        for rows_of, want in ((rows, pinned), ([], b"a,b,c\n")):
            _write_csv(tmp_path / "new.csv", header, iter(rows_of))
            row_by_row(tmp_path / "old.csv", header, iter(rows_of))
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "old.csv").read_bytes()
            assert want in new


_GOOD_SPEC = (
    "#grid\n0.0\t1.0\n#pi\n0.25\t0.25\n0.25\t0.25\n#pseudo\n0.5\t0.5\n0.5\t0.5\n"
    "#proposal\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n"
)


class TestEndToEnd:
    ARGS = ["--iters", "2000", "--burn-in", "200", "--replicates", "2", "--seed", "9"]

    def test_toy_rerun_is_deterministic_except_wallclock(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["toy", *self.ARGS, "--out", str(out1)]) == EXIT_OK
        assert main(["toy", *self.ARGS, "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        for p in sorted(out1.glob("acf_*.csv")):
            assert p.read_bytes() == (out2 / p.name).read_bytes()
        s1 = (out1 / "summary.csv").read_text().splitlines()
        s2 = (out2 / "summary.csv").read_text().splitlines()
        for a, b in zip(s1, s2):
            assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]  # all but wallclock

    def test_posterior_writes_density(self, tmp_path, capsys):
        out = tmp_path / "post"
        assert main(["posterior", *self.ARGS, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert (out / "density.csv").exists()
        assert "true posterior mean" in stdout
        assert "wrote 8 files" in stdout

    def test_oracle_single_spec(self, tmp_path, capsys):
        spec = random_spec(np.random.default_rng(3), 2, 8)
        path = tmp_path / "spec.tsv"
        save_spec(spec, path)
        assert main(["oracle", "--spec", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out
        # A second run in the same process prints the same lines.
        assert main(["oracle", "--spec", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "content",
        [
            None,  # no such file
            "#grid\n0.0\t1.0\n#pi\nabc\t0.5\n",
            "#grid\n0.0\t1.0\n",
            "#grid\n#pi\n0.5\t0.5\n#pseudo\n0.5\t0.5\n",
            "#grid\n0.0\t1.0\n#pi\nnan\t0.5\n0.25\t0.25\n#pseudo\n0.5\t0.5\n0.5\t0.5\n",
            _GOOD_SPEC.replace("1.0", "nan", 1),
            # Valid specs that a kernel builder rejects.
            "#grid\n0.0\t1.0\n#pi\n0.25\t0.25\n0.25\t0.25\n#pseudo\n0.5\t0.5\n0.5\t0.5\n",
            "#grid\n0.0\t1.0\n#pi\n0.25\t0.25\n0.25\t0.25\n#pseudo\n1.0\t0.0\n0.5\t0.5\n"
            "#proposal\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n",
            "#grid\n0.0\t1.0\n#pi\n0.25\t0.25\n0.25\t0.25\n#pseudo\n1e-320\t1.0\n0.5\t0.5\n"
            "#proposal\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n0.5\t0.5\n",
            # A spec that passes every check, with a second #pi section
            # or an unknown section added.
            _GOOD_SPEC + "#pi\n0.1\t0.4\n0.1\t0.4\n",
            _GOOD_SPEC + "#weights\n1.0\t0.0\n",
        ],
        ids=["missing", "non-numeric", "no-pi-section", "empty-grid", "nan-mass", "nan-grid",
             "no-proposal", "vanishing-pseudo", "ratio-span", "duplicate-section",
             "unknown-section"],
    )
    def test_oracle_bad_spec_file_is_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "spec.tsv"
        if content is not None:
            path.write_text(content)
        assert main(["oracle", "--spec", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_oracle_default_sweep(self, capsys):
        assert main(["oracle", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    @pytest.mark.parametrize("key, value", [("invariance", 1.0), ("gibbs_gap", -1.0)])
    def test_oracle_failed_check_is_exit_1(self, monkeypatch, capsys, key, value):
        verify = oracle.verify
        monkeypatch.setattr(oracle, "verify", lambda s, hs: {**verify(s, hs), key: value})
        assert main(["oracle", "--seed", "1"]) == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        fail = f"FAIL {oracle.CHECKS[key][0]}: {value}"
        assert [ln for ln in lines if not ln.startswith("PASS ")] == [fail]
        assert len(lines) == 7
