"""Tests for the command-line interface and the breakdown report."""

from __future__ import annotations

import json
import re

import pytest

from repro.analysis import COST_CLASSES, breakdown, render_breakdowns
from repro.cli import build_parser, main
from repro.ordering import ORDERINGS
from repro.sparse import get_entry, grid_laplacian
from repro.sparse.io import write_matrix_market
from repro.symbolic import analyze, count_blocks

SMALL = "Fault_639"  # smallest-ish suite member keeps CLI tests quick


def stats_table(out):
    """``{statistic: value}`` from ``analyze``'s two-column table."""
    rows = {}
    for line in out.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) == 2:
            rows[cells[0]] = cells[1]
    return rows


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_ordering_choices(self):
        for bad in ("bogus", "amd"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["analyze", "x", "--ordering", bad])

    def test_no_command_takes_backend(self, capsys):
        """A row is named with ``--engine`` alone: ``--backend`` is a flag no
        command has."""
        for command in ("factorize", "solve", "batch", "serve", "update"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "x", "--backend", "gpu"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --backend gpu" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Queen_4147" in out and "nlpkkt120" in out

    def test_analyze_suite_matrix(self, capsys):
        assert main(["analyze", SMALL]) == 0
        out = capsys.readouterr().out
        assert "supernodes" in out and "RLB blocks" in out

    def test_analyze_mtx_file(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, grid_laplacian((6, 6)))
        assert main(["analyze", str(path)]) == 0
        assert "n" in capsys.readouterr().out

    def test_factorize_cpu(self, capsys):
        assert main(["factorize", SMALL, "--engine", "rl"]) == 0
        out = capsys.readouterr().out
        assert "modeled seconds" in out and "best MKL threads" in out

    def test_factorize_threaded_engine(self, capsys):
        assert main(["factorize", SMALL, "--engine", "rl_par",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "rl_par" in out
        assert "workers (threaded DAG)" in out
        assert "measured wall seconds" in out

    @pytest.mark.parametrize("engine,lane", [("rl_par", "threaded"), ("rl_proc", "process")])
    def test_factorize_measured_rows_print_one_measured_block(self, engine, lane, capsys):
        """A threads or process row prints what it measured — workers,
        granularity, tasks, wall clock — and no modeled row."""
        assert main(["factorize", SMALL, "--engine", engine, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert f"workers ({lane} DAG)" in out and "coarse" in out and "DAG tasks" in out
        assert float(out.split("measured wall seconds")[1].split()[0]) > 0
        assert ("start method" in out) == (lane == "process")
        for modeled in ("modeled", "MKL", "BLAS calls", "on GPU"):
            assert modeled not in out, modeled

    @pytest.mark.parametrize("engine", ["rl_par", "rl_proc"])
    def test_solve_measured_rows_print_measured_seconds(self, engine, capsys):
        assert main(["solve", SMALL, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert float(out.split("measured factor time =")[1].split("s")[0]) > 0
        assert "modeled" not in out

    def test_factorize_fine_threaded_engine(self, capsys):
        # the engine name carries the granularity and the substrate
        assert main(["factorize", SMALL, "--engine", "rlb_par",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "rlb_par" in out and "fine" in out

    def test_retired_engine_flags_refused(self, capsys):
        # --engine is the one spelling; the granularity is in its name
        for argv in (["factorize", "x", "--method", "rl"],
                     ["solve", "x", "--method", "rl"],
                     ["factorize", "x", "--granularity", "fine"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_factorize_flag_conflicts_rejected(self, capsys):
        # clean exit 2 (no traceback) for every invalid flag combination
        assert main(["factorize", SMALL, "--engine", "rl_par",
                     "--workers", "0"]) == 2
        assert main(["factorize", SMALL, "--engine", "rl",
                     "--workers", "2"]) == 2
        # no engine named: the rl_gpu default takes no workers
        assert main(["factorize", SMALL, "--workers", "2"]) == 2
        assert main(["factorize", SMALL, "--engine", "rl_par",
                     "--threshold", "0"]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err
        assert "workers= is not accepted by engine 'rl'" in err
        assert "workers= is not accepted by engine 'rl_gpu'" in err
        assert "threshold= is not accepted by engine 'rl_par'" in err

    def test_factorize_gpu_with_gantt_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["factorize", SMALL, "--engine", "rl_gpu", "--gantt",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "copy_out" in out  # the Gantt lanes
        data = json.loads(trace.read_text())
        assert any(r.get("ph") == "X" for r in data)

    def test_factorize_v1_gantt_and_trace(self, tmp_path, capsys):
        """``rlb_gpu_v1`` takes the tracer like every gpu row: its serial
        loop's timeline draws all four lanes, at the untraced seconds."""
        from repro.numeric.rlb_gpu import factorize_rlb_gpu_v1

        trace = tmp_path / "v1.json"
        assert main(["factorize", SMALL, "--engine", "rlb_gpu_v1", "--threshold", "0",
                     "--gantt", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        for lane in ("cpu", "gpu", "copy_in", "copy_out"):
            assert any(line.split("|")[0].strip() == lane for line in out.splitlines()), lane
        assert any(r.get("ph") == "X" for r in json.loads(trace.read_text()))
        system = analyze(get_entry(SMALL).builder())
        seconds = factorize_rlb_gpu_v1(system.symb, system.matrix, threshold=0).modeled_seconds
        assert f"modeled seconds {seconds:.4f}" in " ".join(out.split())

    @pytest.mark.parametrize("engine", ["rl_gpu", "rlb_gpu_v2", "rlb_gpu_v1"])
    def test_factorize_gpu_rows_name_no_dag(self, engine, capsys):
        """The gpu rows are host loops over the supernodes: the report
        names no task granularity and counts no DAG tasks."""
        assert main(["factorize", SMALL, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "modeled seconds" in out and "transfers" in out
        assert "granularity" not in out and "DAG" not in out

    def test_factorize_unknown_method(self, capsys):
        assert main(["factorize", SMALL, "--engine", "nope"]) == 2

    def test_factorize_threshold_flag(self, capsys):
        assert main(["factorize", SMALL, "--engine", "rlb_gpu_v2",
                     "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        # threshold 0 offloads every supernode
        total = out.split("supernodes on GPU")[1].split("/")[1].split()[0]
        ongpu = out.split("supernodes on GPU")[1].split("/")[0].split()[-1]
        assert ongpu == total

    def test_solve(self, capsys):
        assert main(["solve", SMALL, "--engine", "rlb"]) == 0
        assert "relative residual" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["rl_gpu", "rlb_gpu_v2"])
    def test_solve_factorizes_on_the_device(self, capsys, engine):
        """``--engine rl_gpu`` factorizes on the simulated device; the
        solve runs on the host and prints no device estimate."""
        assert main(["solve", SMALL, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"method = {engine}" in out
        assert float(out.split("relative residual =")[1].split()[0]) < 1e-12
        assert "estimate" not in out

    def test_solve_takes_no_backend(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", SMALL, "--backend", "gpu"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend gpu" in capsys.readouterr().err

    def test_solve_with_mindeg_ordering(self, capsys):
        assert main(["solve", SMALL, "--ordering", "mindeg"]) == 0

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_analyze_statistics_match_library(self, tmp_path, capsys,
                                              ordering):
        A = grid_laplacian((6, 5, 2))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, A)
        assert main(["analyze", str(path), "--ordering", ordering]) == 0
        stats = stats_table(capsys.readouterr().out)
        symb = analyze(A, ordering=ordering).symb
        assert stats["n"] == str(A.n)
        assert stats["supernodes"] == str(symb.nsup)
        assert stats["factor entries (dense panels)"] == str(
            symb.factor_nnz_dense())
        assert stats["largest update matrix entries"] == str(
            symb.largest_update_size())
        assert stats["RLB blocks"] == str(count_blocks(symb))
        assert stats["ordering"] == ordering

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_solve_mtx_file(self, tmp_path, capsys, ordering):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, grid_laplacian((6, 5, 2)))
        assert main(["solve", str(path), "--ordering", ordering]) == 0
        out = capsys.readouterr().out
        assert float(out.split("relative residual =")[1].split()[0]) < 1e-12

    def test_suite_subset(self, capsys):
        assert main(["suite", SMALL]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and SMALL in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", SMALL]) == 0
        out = capsys.readouterr().out
        assert "syrk" in out and "rl_gpu" in out


class TestBreakdownReport:
    @pytest.fixture(scope="class")
    def symb(self):
        return analyze(grid_laplacian((8, 8, 3))).symb

    @pytest.mark.parametrize("method", ["rl", "rlb", "rl_gpu", "rlb_gpu"])
    def test_classes_and_totals(self, symb, method):
        b = breakdown(symb, method=method)
        assert set(b.seconds) <= set(COST_CLASSES)
        assert b.total > 0
        assert abs(sum(b.fraction(c) for c in b.seconds) - 1.0) < 1e-9

    def test_rl_has_no_gemm_rlb_does(self, symb):
        assert breakdown(symb, method="rl").seconds.get("gemm", 0) == 0
        assert breakdown(symb, method="rlb").seconds.get("gemm", 0) > 0

    @pytest.mark.parametrize("method", ["rl", "rlb"])
    def test_cpu_total_is_the_engine_report(self, method):
        """breakdown() prices the very kernel stream the engines' report is
        priced from: its total is the modeled seconds at that thread count
        (summed per class instead of per call, hence approx)."""
        import repro

        plan = repro.plan(grid_laplacian((8, 8, 3)))
        report = plan.factorize(engine=method).result.cpu_times_by_threads
        for t in (8, 128):
            total = breakdown(plan.symb, method=method, threads=t).total
            assert total == pytest.approx(report[t], rel=1e-9)

    def test_cpu_methods_have_no_transfers(self, symb):
        b = breakdown(symb, method="rl")
        assert "h2d" not in b.seconds and "d2h" not in b.seconds

    def test_gpu_threshold_zero_offloads_everything(self, symb):
        b = breakdown(symb, method="rl_gpu", threshold=0)
        # every panel pays an H2D, so h2d time is visible
        assert b.seconds.get("h2d", 0) > 0

    def test_syrk_dominates_rl_at_suite_scale(self):
        """The paper's premise: the update computation is the flop bulk.
        (Holds at suite scale; on tiny fixtures the per-call floor and
        assembly bytes dominate instead.)"""
        from repro.sparse import get_entry

        symb = analyze(get_entry("Serena").builder()).symb
        b = breakdown(symb, method="rl")
        assert b.dominant() in ("syrk", "trsm")

    def test_render_contains_all_methods(self, symb):
        bs = [breakdown(symb, method=m) for m in ("rl", "rlb")]
        text = render_breakdowns(bs, title="T")
        assert text.startswith("T")
        assert "rl" in text and "rlb" in text and "total" in text
from repro.cli import main
def test_plan_cmd(capsys):
    assert main(["plan", "nlpkkt120"]) == 0
    out = capsys.readouterr().out
    assert "rlb_gpu_v2" in out and "recommended" in out


@pytest.mark.parametrize("command", [
    "analyze", "factorize", "solve", "batch", "serve", "update", "breakdown", "plan",
])
@pytest.mark.parametrize("content", [None, "not a matrix\n"], ids=["missing", "malformed"])
def test_unreadable_matrix_exits_2(tmp_path, capsys, command, content):
    """A ``MATRIX`` that is neither a suite name nor a readable Matrix Market
    file is one line on stderr and exit 2, like any other bad argument."""
    path = tmp_path / "nope.mtx"
    if content is not None:
        path.write_text(content)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"cannot read matrix {str(path)!r}")
    assert len(err.splitlines()) == 1
