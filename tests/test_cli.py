"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out

    def test_version_flag_reports_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("synthesize", "simulate", "settle", "engines", "serve",
                        "figure3", "figure5", "example1", "example2"):
            assert command in text


class TestStoreFlag:
    def test_example1_store_caches_run(self, tmp_path, capsys):
        from repro.store import ResultStore

        store_dir = str(tmp_path / "cli-store")
        args = ["example1", "--trials", "40", "--seed", "5", "--store", store_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert len(ResultStore(store_dir).keys()) == 1
        assert main(args) == 0  # second run served from the store
        second = capsys.readouterr().out
        assert len(ResultStore(store_dir).keys()) == 1
        assert first == second


class TestSynthesizeAndSimulate:
    def test_synthesize_prints_design(self, capsys):
        code = main(["synthesize", "--probabilities", "a=0.3,b=0.7", "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcomes : a, b" in out
        assert "initializing" in out

    def test_synthesize_writes_json_and_simulate_reads_it(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        assert main(["synthesize", "--probabilities", "a=0.25,b=0.75",
                     "-o", str(design)]) == 0
        capsys.readouterr()
        assert design.exists()

        code = main(["simulate", str(design), "--trials", "150", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ensemble of 150 trials" in out
        assert "working[b]" in out

    def test_bad_probability_string(self, capsys):
        code = main(["synthesize", "--probabilities", "not-a-mapping"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_distribution_reports_error(self, capsys):
        code = main(["synthesize", "--probabilities", "a=0.5,b=0.9"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestSettle:
    def test_settle_logarithm(self, capsys):
        code = main(["settle", "--module", "logarithm", "--inputs", "x=16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'y': 4" in out

    def test_settle_linear_with_gain(self, capsys):
        code = main(["settle", "--module", "linear", "--alpha", "2", "--beta", "3",
                     "--inputs", "x=10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'y': 15" in out

    def test_settle_polynomial(self, capsys):
        code = main(["settle", "--module", "polynomial", "--coefficients", "1,0,2",
                     "--inputs", "x=3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'y': 19" in out

    def test_settle_isolation_no_inputs(self, capsys):
        code = main(["settle", "--module", "isolation"])
        assert code == 0
        assert "'y': 1" in capsys.readouterr().out


@pytest.fixture
def design_file(tmp_path):
    """A small saved design for simulate-subcommand smoke tests."""
    design = tmp_path / "design.json"
    assert main(["synthesize", "--probabilities", "a=0.4,b=0.6",
                 "-o", str(design)]) == 0
    return design


class TestEngineSelection:
    """The --engine / --workers / --tau-* knobs, backed by the registry."""

    def test_engines_subcommand_prints_capability_matrix(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for engine in ("direct", "batch-direct", "tau-leaping", "ode"):
            assert engine in out
        assert "TauLeapOptions" in out

    def test_engines_verbose_includes_summaries(self, capsys):
        assert main(["engines", "--verbose"]) == 0
        assert "lock-step" in capsys.readouterr().out

    def test_engines_reports_backend_availability_truthfully(self, capsys):
        from repro.sim import numba_available

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        if numba_available():
            assert "numba*" not in out
            assert "declared but not available" not in out
        else:
            # Engines still *declare* numba, but the table must say it cannot
            # actually load here (requests fall back to numpy).
            assert "numba*" in out
            assert "declared but not available" in out
            assert "fall back to numpy" in out

    def test_simulate_wide_chunk_size_flag(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--trials", "300", "--seed", "7",
                     "--engine", "batch-direct", "--chunk-size", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ensemble of 300 trials" in out

    def test_chunk_size_flag_on_per_trial_engine(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--trials", "10", "--seed", "7",
                     "--engine", "direct", "--chunk-size", "4"])
        assert code == 0
        assert "Ensemble of 10 trials" in capsys.readouterr().out
        code = main(["simulate", str(design_file), "--trials", "10", "--seed", "7",
                     "--engine", "direct", "--chunk-size", "0"])
        assert code == 1
        assert "chunk_size must be positive" in capsys.readouterr().err

    def test_retired_python_backend_rejected(self, design_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(design_file), "--trials", "10", "--seed", "7",
                  "--backend", "python"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'python'" in capsys.readouterr().err

    def test_simulate_batch_engine_with_workers(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--trials", "120", "--seed", "7",
                     "--engine", "batch-direct", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ensemble of 120 trials" in out

    def test_simulate_tau_options_are_threaded(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--trials", "30", "--seed", "3",
                     "--engine", "tau-leaping",
                     "--tau-epsilon", "0.01", "--tau-n-critical", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ensemble of 30 trials" in out

    def test_tau_options_require_tau_engine(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--tau-epsilon", "0.01"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--engine tau-leaping" in captured.err

    def test_unknown_engine_suggests_closest_match(self, design_file, capsys):
        code = main(["simulate", str(design_file), "--engine", "dirct"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown engine 'dirct'" in captured.err
        assert "did you mean 'direct'?" in captured.err

    def test_settle_with_ode_engine(self, capsys):
        code = main(["settle", "--module", "linear", "--beta", "2",
                     "--inputs", "x=10", "--engine", "ode"])
        out = capsys.readouterr().out
        assert code == 0
        assert "'y': 20" in out

    def test_settle_with_tau_options(self, capsys):
        code = main(["settle", "--module", "linear", "--inputs", "x=12",
                     "--engine", "tau-leaping", "--tau-epsilon", "0.01"])
        assert code == 0
        assert "'y':" in capsys.readouterr().out


class TestExperimentCommands:
    def test_figure3_small(self, capsys):
        code = main(["figure3", "--gammas", "1,100", "--trials", "80", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "error %" in out

    def test_example1(self, capsys):
        code = main(["example1", "--trials", "120", "--seed", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TV distance" in out

    def test_example2(self, capsys):
        code = main(["example2", "--trials", "100", "--x1", "5", "--x2", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "X1=5" in out
        assert "TV distance" in out

    def test_figure5_minimal(self, capsys):
        code = main(["figure5", "--moi", "1,4,8", "--trials", "25", "--skip-natural"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 5" in out

    def test_example1_through_batch_engine(self, capsys):
        code = main(["example1", "--trials", "150", "--seed", "4",
                     "--engine", "batch-direct", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TV distance" in out

    def test_example2_batch_engine(self, capsys):
        code = main(["example2", "--trials", "80", "--x1", "3", "--x2", "2",
                     "--engine", "batch-direct"])
        out = capsys.readouterr().out
        assert code == 0
        assert "X1=3" in out
        assert "TV distance" in out

    def test_figure3_with_engine_flag(self, capsys):
        code = main(["figure3", "--gammas", "10", "--trials", "40", "--seed", "2",
                     "--engine", "direct"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out

    def test_figure3_on_batch_direct_prints_each_gamma(self, capsys):
        code = main(["figure3", "--trials", "300", "--gammas", "1,100",
                     "--engine", "batch-direct", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split()[:2] for line in out.splitlines()]
        assert ["1", "300"] in rows and ["100", "300"] in rows

    def test_figure3_rejects_deterministic_engines(self, capsys):
        code = main(["figure3", "--gammas", "10", "--trials", "10", "--engine", "ode"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "'ode'" in captured.err

    def test_figure5_tau_flags_validated(self, capsys):
        code = main(["figure5", "--moi", "1", "--trials", "5", "--skip-natural",
                     "--tau-epsilon", "0.01"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--engine tau-leaping" in captured.err
