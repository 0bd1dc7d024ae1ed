"""End-to-end tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    rc = main([
        "generate", "--scenario", "3", "--seed", "7",
        "--strings", "6", "--machines", "3", "-o", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture
def alloc_file(tmp_path, model_file):
    path = tmp_path / "alloc.json"
    rc = main([
        "allocate", "--model", str(model_file),
        "--heuristic", "mwf", "-o", str(path),
    ])
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSimpleCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "scenario2" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--datasets", "10"]) == 0
        out = capsys.readouterr().out
        assert "case3" in out and "yes" in out


class TestGenerate:
    def test_writes_valid_json(self, model_file):
        data = json.loads(model_file.read_text())
        assert data["kind"] == "system-model"
        assert len(data["strings"]) == 6

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            main(["generate", "--scenario", "1", "--seed", "3",
                  "--strings", "4", "--machines", "3", "-o", str(p)])
        assert p1.read_text() == p2.read_text()


class TestAllocateEvaluate:
    def test_allocate_prints_summary(self, model_file, capsys, tmp_path):
        out_path = tmp_path / "a2.json"
        assert main([
            "allocate", "--model", str(model_file),
            "--heuristic", "tf", "-o", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "tf:" in out
        assert out_path.exists()

    def test_allocate_psg_with_seed(self, model_file, capsys):
        assert main([
            "allocate", "--model", str(model_file),
            "--heuristic", "best-random", "--seed", "5",
        ]) == 0

    def test_missing_model_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.json"
        assert main(["allocate", "--model", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_evaluate_feasible(self, model_file, alloc_file, capsys):
        rc = main([
            "evaluate", "--model", str(model_file),
            "--allocation", str(alloc_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "total worth" in out


class TestUbSurgeSimulate:
    def test_ub_partial(self, model_file, capsys):
        assert main(["ub", "--model", str(model_file)]) == 0
        assert "upper bound" in capsys.readouterr().out

    def test_ub_complete(self, model_file, capsys):
        assert main([
            "ub", "--model", str(model_file), "--objective", "complete",
        ]) == 0
        assert "upper bound (slackness" in capsys.readouterr().out

    def test_ub_complete_reports_no_fit(self, tmp_path, capsys):
        """Λ* < 0 proves no complete mapping fits: one line, no
        negative 'slackness'."""
        path = tmp_path / "crowded.json"
        assert main([
            "generate", "--scenario", "1", "--seed", "1",
            "--strings", "30", "--machines", "2", "-o", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "ub", "--model", str(path), "--objective", "complete",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("no complete mapping fits")
        assert "upper bound" not in lines[0]

    @pytest.mark.parametrize("argv", [
        ["ub", "--model", "m.json", "--solver", "highs"],
        ["lint", "--jobs", "2"],
    ])
    def test_removed_options_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_surge(self, model_file, alloc_file, capsys):
        assert main([
            "surge", "--model", str(model_file),
            "--allocation", str(alloc_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "max absorbable surge" in out

    def test_simulate(self, model_file, alloc_file, capsys):
        assert main([
            "simulate", "--model", str(model_file),
            "--allocation", str(alloc_file), "--datasets", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "eq.(5) estimate" in out


class TestFigureCommands:
    def test_fig5_smoke_no_ub(self, capsys):
        assert main(["fig5", "--scale", "smoke", "--no-ub"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "evolutionary dominates" in out


class TestDescribeCommand:
    def test_describe(self, model_file, alloc_file, capsys):
        assert main([
            "describe", "--model", str(model_file),
            "--allocation", str(alloc_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "machine loads:" in out
        assert "slackness" in out


class TestParserCoverage:
    @pytest.mark.parametrize("argv", [
        ["report", "--scale", "smoke"],
        ["surge-curve", "--scale", "default"],
        ["ablate", "crossover"],
        ["ablate", "heterogeneity"],
        ["fig4", "--scale", "paper", "--no-ub", "--workers", "2"],
    ])
    def test_new_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestFleetCommand:
    def test_prints_signature(self, capsys):
        code = main([
            "fleet", "--scenario", "fleet-smoke", "--shards", "2",
            "--workers", "1", "--seed", "42",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "signature: " in out
        assert "composed: " in out

    def test_zero_shards_is_usage_error(self, capsys):
        code = main(["fleet", "--scenario", "fleet-smoke", "--shards", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n_shards" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        code = main([
            "fleet", "--scenario", "fleet-smoke", "--shards", "2",
            "--workers", "1", "--seed", "42", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_shards"] == 2
        assert payload["n_placed"] + len(payload["rejected"]) == (
            payload["n_strings"]
        )
        sig = capsys.readouterr().out.split("signature: ")[1].split()[0]
        assert payload["signature"] == sig
