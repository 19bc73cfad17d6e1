"""CLI tests for the ``batch`` subcommand and ``solve --rhs``."""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import _load_matrix, build_parser, main
from repro.numeric import _native
from repro.solve.triangular import serial_body
from repro.symbolic.levels import solve_schedule

SMALL = "Fault_639"  # smallest-ish suite member keeps CLI tests quick


class TestSolveRhs:
    def test_block_rhs(self, capsys):
        assert main(["solve", SMALL, "--engine", "rlb", "--rhs", "3"]) == 0
        out = capsys.readouterr().out
        assert "right-hand sides = 3" in out
        assert "relative residual" in out

    def test_single_rhs_output_unchanged(self, capsys):
        assert main(["solve", SMALL, "--engine", "rl"]) == 0
        out = capsys.readouterr().out
        assert "right-hand sides" not in out
        assert "relative residual" in out

    def test_rhs_must_be_positive(self, capsys):
        assert main(["solve", SMALL, "--rhs", "0"]) == 2
        assert "--rhs must be >= 1" in capsys.readouterr().err

    def test_unknown_method_clean_exit(self, capsys):
        assert main(["solve", SMALL, "--engine", "nope"]) == 2
        assert "unknown engine" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_threaded_engine(self, capsys):
        assert main(["batch", SMALL, "--engine", "rlb_par", "--workers", "2",
                     "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "Same-pattern batch" in out
        # the engine and its serial twin, each a loop; no speedup claim
        assert "looped rlb_par" in out
        assert "looped rlb " in out
        assert "speedup" not in out
        assert "worst relative residual" in out

    def test_batch_with_block_rhs(self, capsys):
        assert main(["batch", SMALL, "--engine", "rl_par", "--batch", "3",
                     "--rhs", "2"]) == 0
        out = capsys.readouterr().out
        assert "right-hand sides per matrix" in out

    def test_batch_serial_engine_fallback(self, capsys):
        assert main(["batch", SMALL, "--engine", "rl", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "looped rl " in out

    def test_batch_flag_validation(self, capsys):
        assert main(["batch", SMALL, "--batch", "0"]) == 2
        assert main(["batch", SMALL, "--workers", "0"]) == 2
        assert main(["batch", SMALL, "--rhs", "0"]) == 2
        assert main(["batch", SMALL, "--engine", "nope"]) == 2
        # workers must not be silently dropped for non-threaded engines
        assert main(["batch", SMALL, "--engine", "rl", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--batch must be >= 1" in err
        assert "workers must be >= 1" in err
        assert "--rhs must be >= 1" in err
        assert "unknown engine" in err
        assert "workers= is not accepted by engine 'rl'" in err

    def test_batch_parser_defaults(self):
        args = build_parser().parse_args(["batch", "x"])
        assert args.engine == "rlb_par"
        assert args.batch == 8
        assert args.rhs == 1
        assert args.workers is None

    def test_factorize_trace_rejected_for_serial_engine(self, capsys):
        # a serial engine has no timeline; exiting 0 with no trace file
        # written would be a silent lie
        assert main(["factorize", SMALL, "--engine", "rl",
                     "--trace", "x.json"]) == 2
        assert main(["factorize", SMALL, "--engine", "rlb",
                     "--gantt"]) == 2
        err = capsys.readouterr().err
        assert "--gantt/--trace need a timeline" in err

    def test_factorize_threaded_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "exec.trace.json"
        assert main(["factorize", SMALL, "--engine", "rl_par", "--workers", "2",
                     "--trace", str(trace), "--gantt"]) == 0
        out = capsys.readouterr().out
        # per-worker-thread gantt lanes: a lane, not lane 0 — on a pattern
        # of 1-3 tasks either of the two workers may run them all
        assert "repro-exec-" in out
        assert json.loads(trace.read_text())


class TestSolveWorkers:
    def test_parallel_solve_report(self, capsys):
        """``--workers`` reports the graph that runs: the fused solve graph's
        task count, as the pattern's schedule has it, and which serial body
        ran, so a failed build is not silent."""
        assert main(["solve", SMALL, "--engine", "rlb", "--rhs", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        plan = repro.plan(_load_matrix(SMALL))
        symb = plan.symb
        sched = solve_schedule(symb)
        assert (f"solve graph   : {len(sched.fused.children)} tasks over "
                f"{len(sched.ranges)} task ranges, {symb.nsup} supernodes") in out
        body = serial_body(plan.factorize(engine="rlb").storage)
        assert ("serial body   : compiled (one C call per solve)" if body == "compiled"
                else "serial body   : Python walk (fallback)") in out
        assert "leaf block" not in out
        assert "level schedule" not in out
        assert "serial solve" in out
        assert "parallel solve" in out
        assert "bit-identical: yes" in out

    @pytest.mark.parametrize("compiled", [True, False])
    def test_the_report_names_the_analysis_body(self, capsys, monkeypatch, compiled):
        """The report says which body ran the analysis loops — beside the
        serial body under ``--workers`` and without it — so a fallback
        analysis is not silent."""
        if not compiled:
            monkeypatch.setattr(_native, "analysis_loops", lambda: None)
        elif _native.analysis_loops() is None:
            pytest.skip("no compiler")
        line = ("analysis body : compiled (one C call per loop)" if compiled
                else "analysis body : Python loops (fallback)")
        for extra in ([], ["--workers", "2"]):
            assert main(["solve", SMALL, "--engine", "rl", *extra]) == 0
            out = capsys.readouterr().out
            assert line in out.splitlines()
            assert ("serial body" in out) == bool(extra)

    def test_workers_must_be_positive(self, capsys):
        assert main(["solve", SMALL, "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serial_output_unchanged_without_workers(self, capsys):
        assert main(["solve", SMALL, "--engine", "rl"]) == 0
        assert "parallel solve" not in capsys.readouterr().out


class TestServeCommand:
    def test_stream_demo(self, capsys):
        assert main(["serve", SMALL, "--count", "3", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Streaming serving session" in out
        assert "bit-identical to serial" in out
        assert "first-result latency" in out
        assert "worst relative residual" in out

    def test_stream_flag_is_gone(self, capsys):
        # a bare `serve` is the session demo; there is no flag to ask for it
        with pytest.raises(SystemExit) as exc:
            main(["serve", SMALL, "--stream"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    def test_flag_validation(self, capsys):
        assert main(["serve", SMALL, "--engine", "rl", "--workers", "2"]) == 2
        assert main(["serve", SMALL, "--count", "0"]) == 2
        assert main(["serve", SMALL, "--workers", "0"]) == 2
        assert main(["serve", SMALL, "--engine", "nope"]) == 2
        err = capsys.readouterr().err
        assert "workers= is not accepted by engine 'rl'" in err
        assert "--count must be >= 1" in err
        assert "workers must be >= 1" in err
        assert "unknown engine" in err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "x"])
        assert args.engine == "rlb_par"
        assert args.count == 8
        assert not args.gateway


def test_batch_command_registered():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["batch"])  # matrix argument required


def test_serve_command_registered():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve"])  # matrix argument required
