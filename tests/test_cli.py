"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
MIXED_FILE = str(EXAMPLES / "mixed_a100_l4.json")
TIMELINE_GOLDEN = Path(__file__).resolve().parent / "fixtures" \
    / "analyze_timeline.txt"


class TestParser:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-2.7b" in out
        assert "llama-6.7b" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_requires_workload_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--model", "gpt3-1.3b"])

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--sizes", "1.3b"], ["--engine", "vectorized"]),
        (["replan", "--model", "gpt3-1.3b", "--global-batch", "8",
          "--delta", "delta.json"], ["--engine", "vectorized"]),
        (["bench"], ["--no-interpreted"]),
        (["bench"], ["--min-engine-speedup", "2.0"]),
    ], ids=["sweep-engine", "replan-engine", "bench-no-interpreted",
            "bench-min-engine-speedup"])
    def test_flags_removed_in_2_0_rejected(self, argv, flag, capsys):
        build_parser().parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flag)
        assert flag[0] in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_valid_config(self, capsys):
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--stages", "2", "--dp", "1", "--gacc", "8",
            "--zero", "1", "--ckpt", "full",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples/s" in out

    def test_analyze_oom_reported(self, capsys):
        code = main([
            "analyze", "--model", "gpt3-6.7b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--stages", "1", "--dp", "2", "--gacc", "4",
        ])
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_analyze_invalid_config(self, capsys):
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "7", "--stages", "2",
            "--dp", "2", "--gacc", "2",
        ])
        assert code == 1
        assert "invalid" in capsys.readouterr().out

    def test_analyze_plan_not_fitting_cluster(self, capsys):
        # a well-formed plan on 3 GPUs of a 2-GPU cluster: the engine's
        # validation error is reported, not raised
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--tp", "3",
        ])
        assert code == 1
        assert "invalid configuration: plan uses 3 GPUs" in \
            capsys.readouterr().out

    def test_explicit_zero_gacc_reaches_validation(self, capsys):
        # an explicit --gacc 0 is not "unset": it must not be replaced
        # by global_batch // dp and analyze a different plan
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--dp", "2",
            "--gacc", "0",
        ])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().out

    def test_analyze_timeline(self, capsys):
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--stages", "2", "--dp", "1", "--gacc", "8",
            "--zero", "1", "--ckpt", "full", "--timeline",
        ])
        assert code == 0
        assert "stage  0 |" in capsys.readouterr().out

    def test_analyze_timeline_golden(self, capsys):
        """The rendered plan, memory and 1F1B timeline, byte for byte:
        pins the timeline's record order and its rendering."""
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "8", "--global-batch", "64", "--stages", "4",
            "--dp", "2", "--gacc", "16", "--zero", "1", "--ckpt", "full",
            "--timeline",
        ])
        assert code == 0
        assert capsys.readouterr().out.encode() == TIMELINE_GOLDEN.read_bytes()


class TestSolvers:
    def test_lists_registered_solvers(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("mist", "megatron", "deepspeed", "aceso", "uniform"):
            assert name in out


class TestTune:
    def test_tune_smoke_scale(self, capsys):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--scale", "smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan[mist" in out
        assert "samples/s" in out

    def test_tune_compare_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--scale", "smoke",
            "--compare", "megatron",
            "--json", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "megatron:" in out
        from repro.api import SolveReport
        import json
        payload = json.loads(out_file.read_text())
        assert len(payload) == 2
        loaded = SolveReport.from_dict(payload[0])
        assert loaded.solver == "mist" and loaded.found

    def test_tune_engine_flag_removed(self, capsys):
        # --engine went away in 2.0: the only evaluation path is the
        # compiled one, so argparse rejects the flag outright
        with pytest.raises(SystemExit):
            main([
                "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
                "--gpus", "2", "--global-batch", "8",
                "--engine", "vectorized",
            ])
        assert "--engine" in capsys.readouterr().err

    def test_tune_invalid_job_clean_error(self, capsys):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "-1", "--global-batch", "8", "--scale", "smoke",
        ])
        assert code == 2
        assert "invalid job" in capsys.readouterr().err
        # an unknown model is a clean error too, not a traceback
        code = main([
            "tune", "--model", "gpt3-99b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--scale", "smoke",
        ])
        assert code == 2
        assert "invalid model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tune", "analyze"])
    def test_partial_node_gpu_count_rejected(self, capsys, command):
        # 12 GPUs is not whole 8-GPU nodes: exit 2, never a silent
        # search on 8 while "L4 x 12" is printed
        code = main([command, "--model", "gpt3-1.3b", "--gpu", "L4",
                     "--gpus", "12", "--global-batch", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid job" in err and "cluster=" in err

    def test_tune_json_written_when_infeasible(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main([
            "tune", "--model", "gpt3-6.7b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--scale", "smoke",
            "--space", "3d", "--json", str(out_file),
        ])
        assert code == 1
        assert "no feasible plan" in capsys.readouterr().out
        import json
        payload = json.loads(out_file.read_text())
        assert payload["plan"] is None

    def test_tune_unknown_solver(self, capsys):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--scale", "smoke",
            "--solver", "alpa",
        ])
        assert code == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_tune_unknown_compare_solver(self, capsys):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--scale", "smoke",
            "--compare", "alpa",
        ])
        assert code == 2
        assert "unknown solver" in capsys.readouterr().err


class TestClusterCommand:
    def test_inspect_mixed_cluster(self, capsys):
        assert main(["cluster", MIXED_FILE]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous cluster: 8 GPUs in 2 group(s)" in out
        assert "A100-40GB" in out and "L4" in out
        assert "tuner memory budget" in out
        assert "baseline fallback view" in out

    def test_inspect_json_output(self, capsys):
        assert main(["cluster", MIXED_FILE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["groups"]) == 2

    def test_inspect_homogeneous_file(self, capsys, tmp_path):
        path = tmp_path / "homo.json"
        path.write_text(json.dumps(
            {"gpu": "L4", "num_nodes": 1, "gpus_per_node": 4}))
        assert main(["cluster", str(path)]) == 0
        out = capsys.readouterr().out
        assert "homogeneous cluster" in out
        assert "4 GPUs" in out

    def test_missing_file_clean_error(self, capsys):
        assert main(["cluster", "/no/such/file.json"]) == 2
        assert "invalid cluster file" in capsys.readouterr().err

    def test_bad_schema_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gpu": "no-such-gpu",
                                    "gpus_per_node": 4}))
        assert main(["cluster", str(path)]) == 2
        assert "invalid cluster file" in capsys.readouterr().err
        path.write_text(json.dumps({"gpu": "L4", "num_nodes": 2,
                                    "gpus_per_node": 1,
                                    "inter_node_latency": -1.0}))
        assert main(["cluster", str(path)]) == 2
        assert "inter_node_latency" in capsys.readouterr().err
        assert main(["tune", "--model", "gpt3-1.3b", "--global-batch",
                     "8", "--cluster", str(path), "--scale", "smoke"]) == 2
        assert "inter_node_latency" in capsys.readouterr().err

    def test_non_object_json_clean_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["cluster", str(path)]) == 2
        assert "invalid cluster file" in capsys.readouterr().err
        assert main(["tune", "--model", "gpt3-1.3b", "--global-batch",
                     "8", "--cluster", str(path), "--scale", "smoke"]) == 2
        assert "invalid job" in capsys.readouterr().err


class TestTuneCluster:
    def _mixed_small(self, tmp_path) -> str:
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"groups": [
            {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
             "gpus_per_node": 2},
            {"name": "l4", "gpu": "L4", "num_nodes": 1,
             "gpus_per_node": 2},
        ]}))
        return str(path)

    def test_tune_heterogeneous_cluster(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main([
            "tune", "--model", "gpt3-1.3b", "--global-batch", "16",
            "--cluster", self._mixed_small(tmp_path),
            "--scale", "smoke", "--json", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2xA100-40GB+2xL4" in out
        assert "@a100" in out and "@l4" in out
        payload = json.loads(out_file.read_text())
        groups = {s.get("device_group") for s in payload["plan"]["stages"]}
        assert groups == {"a100", "l4"}

    def test_homogeneous_cluster_file_matches_flag_path(self, capsys,
                                                        tmp_path):
        homo = tmp_path / "homo.json"
        homo.write_text(json.dumps(
            {"gpu": "L4", "num_nodes": 1, "gpus_per_node": 2}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tune", "--model", "gpt3-1.3b", "--global-batch", "8",
                     "--cluster", str(homo), "--scale", "smoke",
                     "--json", str(a)]) == 0
        assert main(["tune", "--model", "gpt3-1.3b", "--gpu", "L4",
                     "--gpus", "2", "--global-batch", "8",
                     "--scale", "smoke", "--json", str(b)]) == 0
        plan_a = json.loads(a.read_text())["plan"]
        plan_b = json.loads(b.read_text())["plan"]
        assert plan_a == plan_b

    def test_gpus_contradicting_cluster_rejected(self, capsys, tmp_path):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--global-batch", "16",
            "--gpus", "8", "--cluster", self._mixed_small(tmp_path),
            "--scale", "smoke",
        ])
        assert code == 2
        assert "contradicts" in capsys.readouterr().err

    def test_explicit_gpu_with_cluster_rejected(self, capsys, tmp_path):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--global-batch", "16",
            "--gpu", "H100-80GB", "--cluster", self._mixed_small(tmp_path),
            "--scale", "smoke",
        ])
        assert code == 2
        assert "--gpu conflicts" in capsys.readouterr().err

    def test_missing_gpus_without_cluster_rejected(self, capsys):
        code = main(["tune", "--model", "gpt3-1.3b",
                     "--global-batch", "16", "--scale", "smoke"])
        assert code == 2
        assert "--gpus is required" in capsys.readouterr().err


class TestReplan:
    def test_delta_leaving_invalid_cluster_clean_error(self, capsys,
                                                       tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            {"ops": [{"op": "resize_group", "gpus_per_node": 0}]}))
        code = main(["replan", "--model", "gpt3-1.3b", "--gpus", "2",
                     "--global-batch", "8", "--scale", "smoke",
                     "--delta", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid cluster" in err and "at least one" in err

    @pytest.mark.parametrize("op", [
        {"op": "remove_nodes", "count": 1.5},
        {"op": "remove_nodes", "count": "abc"},
        {"op": "resize_group", "num_nodes": True},
    ])
    def test_non_integer_count_clean_error(self, capsys, tmp_path, op):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"ops": [op]}))
        code = main(["replan", "--model", "gpt3-1.3b", "--gpus", "2",
                     "--global-batch", "8", "--scale", "smoke",
                     "--delta", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid delta file" in err and "must be an integer" in err


class TestSweep:
    def test_sweep_through_registry(self, capsys, tmp_path):
        code = main([
            "sweep", "--gpu", "L4", "--sizes", "1.3b",
            "--solvers", "megatron", "mist",
            "--scale", "smoke", "--global-batch", "8",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "megatron (samp/s | x)" in out
        assert "1.00x" in out
        assert (tmp_path / "sweep.json").exists()

    def test_sweep_cache_reused(self, capsys, tmp_path):
        args = [
            "sweep", "--gpu", "L4", "--sizes", "1.3b",
            "--solvers", "mist", "--scale", "smoke",
            "--global-batch", "8", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_sweep_unknown_size(self, capsys):
        code = main(["sweep", "--sizes", "9000b", "--solvers", "mist",
                     "--scale", "smoke"])
        assert code == 2

    def test_sweep_bad_reference_rejected(self, capsys):
        code = main(["sweep", "--sizes", "1.3b", "--solvers", "mist",
                     "--reference", "mists", "--scale", "smoke"])
        assert code == 2
        assert "--reference" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--global-batch", "global_batch"), ("--seq-len", "seq_len"),
    ])
    def test_sweep_zero_rejected_not_defaulted(self, flag, field, capsys,
                                               tmp_path):
        code = main(["sweep", "--sizes", "1.3b", "--solvers", "mist",
                     "--scale", "smoke", flag, "0",
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing was solved


class TestLoadCommand:
    @pytest.mark.parametrize("argv, message", [
        (["--requests", "0"], "requests must be >= 1"),
        (["--requests", "3", "--unique-jobs", "5"],
         "need 1 <= unique_jobs <= requests"),
    ], ids=["zero-requests", "more-jobs-than-requests"])
    def test_bad_trace_override_rejected(self, argv, message, capsys):
        assert main(["load", *argv]) == 2
        assert message in capsys.readouterr().err


class TestCampaignCommand:
    SPEC = {
        "name": "cli-grid",
        "solvers": ["megatron", "mist"],
        "models": ["gpt3-1.3b"],
        "clusters": [{"gpu": "L4", "num_gpus": 2}],
        "scales": ["smoke"],
        "global_batches": [8],
        "interference": "none",
    }

    def _spec_file(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_run_then_resume_zero_new_searches(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        run_dir = str(tmp_path / "run")
        out_file = tmp_path / "report.json"
        code = main(["campaign", "run", spec, "--dir", run_dir,
                     "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples/s" in out
        assert "2/2 cells done" in out
        assert "solved 2" in out

        from repro.campaigns import CampaignReport

        report = CampaignReport.from_json(out_file.read_text())
        assert report.complete
        assert report.counters["solved"] == 2

        # immediate --resume: everything from the manifest, no searches
        code = main(["campaign", "run", spec, "--dir", run_dir,
                     "--resume", "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "(manifest)" in out
        resumed = CampaignReport.from_json(out_file.read_text())
        assert resumed.counters["solved"] == 0
        assert resumed.counters["manifest_hits"] == 2
        # per-cell plans identical across runs (and so to solve())
        assert ([rec["plan"] for rec in resumed.cells]
                == [rec["plan"] for rec in report.cells])

    def test_status_and_report_commands(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        run_dir = str(tmp_path / "run")
        assert main(["campaign", "run", spec, "--dir", run_dir]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", "--dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "cli-grid" in out
        assert "2/2 done" in out

        out_file = tmp_path / "again.json"
        assert main(["campaign", "report", "--dir", run_dir,
                     "--json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "megatron (samp/s | x)" in out
        assert json.loads(out_file.read_text())["counters"]["done"] == 2

    def test_missing_spec_file_clean_error(self, capsys):
        assert main(["campaign", "run", "/no/such/spec.json"]) == 2
        assert "invalid campaign spec" in capsys.readouterr().err

    def test_invalid_spec_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "solvers": []}))
        assert main(["campaign", "run", str(path)]) == 2
        assert ">= 1 solver" in capsys.readouterr().err

    def test_resume_requires_dir(self, capsys, tmp_path):
        assert main(["campaign", "run", self._spec_file(tmp_path),
                     "--resume"]) == 2
        assert "--resume requires --dir" in capsys.readouterr().err

    def test_service_executor_requires_url(self, capsys, tmp_path):
        assert main(["campaign", "run", self._spec_file(tmp_path),
                     "--executor", "service"]) == 2
        assert "--service-url" in capsys.readouterr().err

    def test_status_without_manifest(self, capsys, tmp_path):
        assert main(["campaign", "status", "--dir",
                     str(tmp_path / "nope")]) == 2
        assert "no readable campaign manifest" in capsys.readouterr().err

    def test_unknown_solver_in_spec(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {**self.SPEC, "solvers": ["alpa"]}))
        assert main(["campaign", "run", str(path)]) == 2
        assert "unknown solver" in capsys.readouterr().err


class TestServeCommand:
    @pytest.mark.parametrize("argv, message", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--max-pending", "-1"], "max_pending must be >= 0"),
        (["--quota", "-1"], "quota must be >= 0"),
        (["--worker-retries", "-1"], "worker_retries must be >= 0"),
    ], ids=["workers", "max-pending", "quota", "worker-retries"])
    def test_bad_bounds_rejected(self, argv, message, capsys, tmp_path,
                                 monkeypatch):
        from repro.service import TuningService

        def started(self):
            pytest.fail("the daemon started with a bad bound")

        monkeypatch.setattr(TuningService, "serve_forever", started)
        code = main(["serve", "--port", "0", "--cache-dir", str(tmp_path),
                     *argv])
        assert code == 2
        assert message in capsys.readouterr().err
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.workers == 2
        assert args.cache_dir is None

    def test_serve_accepts_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--workers", "8", "--cache-dir", "/tmp/plans"])
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 0, 8)
        assert args.cache_dir == "/tmp/plans"

    def test_serve_boots_and_answers_healthz(self, tmp_path):
        # drive the same wiring _cmd_serve uses, minus the blocking
        # serve_forever() (covered by scripts/service_smoke.py in CI)
        from repro.api import PlanCache
        from repro.service import Client, TuningService

        service = TuningService(workers=1,
                                cache=PlanCache(tmp_path / "plans"))
        handle = service.run_in_thread()
        try:
            assert Client(handle.url).health()["status"] == "ok"
        finally:
            handle.stop()


def _spec_file(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "boundary", "solvers": ["synthetic"],
        "models": ["gpt3-1.3b"], "clusters": [{"gpu": "L4", "num_gpus": 2}],
        "scales": ["smoke"], "global_batches": [8],
        "interference": "none"}))
    return path


def _bad_manifest_dir(tmp_path) -> Path:
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps(
        {"name": "boundary", "spec": "ops", "fingerprint": "f",
         "cells": []}))
    return run_dir


_TUNE = ["--model", "gpt3-1.3b", "--global-batch", "8", "--scale", "smoke"]
_MISSING = "/no/such/dir/x.json"
_NO_SUCH = "No such file or directory"


def _tune_json(tmp_path, monkeypatch):
    return (["tune", *_TUNE, "--gpus", "2", "--solver", "synthetic",
             "--json", _MISSING], [_MISSING, _NO_SUCH])


def _replan_json(tmp_path, monkeypatch):
    delta = tmp_path / "d.json"
    delta.write_text(json.dumps({"ops": [{"op": "add_nodes", "count": 1}]}))
    return (["replan", *_TUNE, "--gpus", "2", "--solver", "synthetic",
             "--delta", str(delta), "--json", _MISSING], [_MISSING, _NO_SUCH])


def _replan_incumbent_typo(tmp_path, monkeypatch):
    # a misspelled job key once loaded the job at that field's default
    delta = tmp_path / "d.json"
    delta.write_text(json.dumps({"ops": [{"op": "add_nodes", "count": 1}]}))
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"solver": "synthetic", "job": {
        "model": "gpt3-1.3b", "num_gpus": 2, "global_batch": 8,
        "seq_lne": 4096}}))
    return (["replan", *_TUNE, "--gpus", "2", "--solver", "synthetic",
             "--delta", str(delta), "--incumbent", str(report)],
            [str(report), "'seq_lne'"])


def _sweep_json(tmp_path, monkeypatch):
    return (["sweep", "--sizes", "1.3b", "--solvers", "synthetic",
             "--scale", "smoke", "--global-batch", "8", "--json", _MISSING],
            [_MISSING, _NO_SUCH])


def _campaign_run_json(tmp_path, monkeypatch):
    return (["campaign", "run", str(_spec_file(tmp_path)),
             "--json", _MISSING], [_MISSING, _NO_SUCH])


def _campaign_report_json(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    assert main(["campaign", "run", str(_spec_file(tmp_path)),
                 "--dir", str(run_dir)]) == 0
    return (["campaign", "report", "--dir", str(run_dir),
             "--json", _MISSING], [_MISSING, _NO_SUCH])


def _bench_out(tmp_path, monkeypatch):
    import repro.benchmarking

    monkeypatch.setattr(repro.benchmarking, "run_bench",
                        lambda scale, **_: {"scale": scale})
    monkeypatch.setattr(repro.benchmarking, "format_bench", lambda _: "")
    return ["bench", "--out", _MISSING], [_MISSING, _NO_SUCH]


def _load_out(tmp_path, monkeypatch):
    import repro.loadgen

    monkeypatch.setattr(repro.loadgen, "run_load",
                        lambda *_, **__: {"schema": "stub"})
    monkeypatch.setattr(repro.loadgen, "format_load", lambda _: "")
    return (["load", "--url", "http://127.0.0.1:9", "--out", _MISSING],
            [_MISSING, _NO_SUCH])


def _campaign_dir_unwritable(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "run")
    return (["campaign", "run", str(_spec_file(tmp_path)), "--dir", target],
            [target, "Not a directory"])


def _campaign_status_bad_spec(tmp_path, monkeypatch):
    run_dir = _bad_manifest_dir(tmp_path)
    return (["campaign", "status", "--dir", str(run_dir)],
            [str(run_dir / "manifest.json"), "must be a JSON object"])


def _campaign_report_bad_spec(tmp_path, monkeypatch):
    run_dir = _bad_manifest_dir(tmp_path)
    return (["campaign", "report", "--dir", str(run_dir)],
            [str(run_dir / "manifest.json"), "must be a JSON object"])


def _cluster_dir(tmp_path, monkeypatch):
    return ["cluster", str(tmp_path)], [str(tmp_path), "Is a directory"]


def _tune_cluster_dir(tmp_path, monkeypatch):
    return (["tune", *_TUNE, "--cluster", str(tmp_path)],
            [str(tmp_path), "Is a directory"])


def _replan_delta_dir(tmp_path, monkeypatch):
    return (["replan", *_TUNE, "--gpus", "2", "--delta", str(tmp_path)],
            [str(tmp_path), "Is a directory"])


def _campaign_spec_dir(tmp_path, monkeypatch):
    return (["campaign", "run", str(tmp_path)],
            [str(tmp_path), "Is a directory"])


def _serve_port(tmp_path, monkeypatch):
    from repro.service import TuningService

    def started(self):
        pytest.fail("the daemon started on an invalid port")

    monkeypatch.setattr(TuningService, "serve_forever", started)
    return (["serve", "--port", "99999", "--cache-dir", str(tmp_path)],
            ["port must be in 0..65535"])


def _unknown_compare(tmp_path, monkeypatch):
    import repro.cli

    def solved(*_, **__):
        pytest.fail("a solve ran before --compare was checked")

    monkeypatch.setattr(repro.cli, "solve", solved)
    return (["tune", *_TUNE, "--gpus", "2", "--compare", "alpa"],
            ["unknown solver 'alpa'"])


class TestErrorBoundary:
    """Bad input exits 2 from ``main()`` with one ``repro <command>:
    error:`` line on stderr naming the input, never a traceback."""

    @pytest.mark.parametrize("case", [
        _tune_json, _replan_json, _replan_incumbent_typo, _sweep_json,
        _campaign_run_json,
        _campaign_report_json, _bench_out, _load_out,
        _campaign_dir_unwritable, _campaign_status_bad_spec,
        _campaign_report_bad_spec, _cluster_dir, _tune_cluster_dir,
        _replan_delta_dir, _campaign_spec_dir, _serve_port,
        _unknown_compare,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_bad_input_exits_two(self, case, tmp_path, monkeypatch, capsys):
        argv, expected = case(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1, err
        command = " ".join(argv[:2] if argv[0] == "campaign" else argv[:1])
        assert lines[0].startswith(f"repro {command}: error: "), lines[0]
        for text in expected:
            assert text in lines[0], lines[0]

    def test_unhandled_errors_still_propagate(self, monkeypatch):
        import repro.cli

        def broken(*_, **__):
            raise RuntimeError("a bug, not bad input")

        monkeypatch.setattr(repro.cli, "solve", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["tune", *_TUNE, "--gpus", "2"])
