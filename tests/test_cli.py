"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
MIXED_FILE = str(EXAMPLES / "mixed_a100_l4.json")


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

    def test_analyze_timeline(self, capsys):
        code = main([
            "analyze", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--stages", "2", "--dp", "1", "--gacc", "8",
            "--zero", "1", "--ckpt", "full", "--timeline",
        ])
        assert code == 0
        assert "stage  0 |" in capsys.readouterr().out


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

    def test_tune_parallel_compare_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--seq-len", "2048",
            "--scale", "smoke", "--parallelism", "2",
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
        assert "invalid job" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["tune", "analyze"])
    def test_partial_node_gpu_count_rejected(self, capsys, command):
        # 12 GPUs is not whole 8-GPU nodes: exit 2, never a silent
        # search on 8 while "L4 x 12" is printed
        code = main([command, "--model", "gpt3-1.3b", "--gpu", "L4",
                     "--gpus", "12", "--global-batch", "8"])
        assert code == 2
        out = capsys.readouterr().out
        assert "invalid job" in out and "cluster=" in out

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
        assert "unknown solver" in capsys.readouterr().out

    def test_tune_unknown_compare_solver(self, capsys):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--gpu", "L4",
            "--gpus", "2", "--global-batch", "8", "--scale", "smoke",
            "--compare", "alpa",
        ])
        assert code == 2
        assert "unknown solver" in capsys.readouterr().out


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
        assert "invalid cluster file" in capsys.readouterr().out

    def test_bad_schema_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gpu": "no-such-gpu",
                                    "gpus_per_node": 4}))
        assert main(["cluster", str(path)]) == 2
        assert "invalid cluster file" in capsys.readouterr().out

    def test_non_object_json_clean_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["cluster", str(path)]) == 2
        assert "invalid cluster file" in capsys.readouterr().out
        assert main(["tune", "--model", "gpt3-1.3b", "--global-batch",
                     "8", "--cluster", str(path), "--scale", "smoke"]) == 2
        assert "invalid job" in capsys.readouterr().out


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
        assert "contradicts" in capsys.readouterr().out

    def test_explicit_gpu_with_cluster_rejected(self, capsys, tmp_path):
        code = main([
            "tune", "--model", "gpt3-1.3b", "--global-batch", "16",
            "--gpu", "H100-80GB", "--cluster", self._mixed_small(tmp_path),
            "--scale", "smoke",
        ])
        assert code == 2
        assert "--gpu conflicts" in capsys.readouterr().out

    def test_missing_gpus_without_cluster_rejected(self, capsys):
        code = main(["tune", "--model", "gpt3-1.3b",
                     "--global-batch", "16", "--scale", "smoke"])
        assert code == 2
        assert "--gpus is required" in capsys.readouterr().out


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
        assert "--reference" in capsys.readouterr().out


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
        assert "invalid campaign spec" in capsys.readouterr().out

    def test_invalid_spec_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "solvers": []}))
        assert main(["campaign", "run", str(path)]) == 2
        assert ">= 1 solver" in capsys.readouterr().out

    def test_resume_requires_dir(self, capsys, tmp_path):
        assert main(["campaign", "run", self._spec_file(tmp_path),
                     "--resume"]) == 2
        assert "--resume requires --dir" in capsys.readouterr().out

    def test_service_executor_requires_url(self, capsys, tmp_path):
        assert main(["campaign", "run", self._spec_file(tmp_path),
                     "--executor", "service"]) == 2
        assert "--service-url" in capsys.readouterr().out

    def test_status_without_manifest(self, capsys, tmp_path):
        assert main(["campaign", "status", "--dir",
                     str(tmp_path / "nope")]) == 2
        assert "no readable campaign manifest" in capsys.readouterr().out

    def test_unknown_solver_in_spec(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {**self.SPEC, "solvers": ["alpa"]}))
        assert main(["campaign", "run", str(path)]) == 2
        assert "unknown solver" in capsys.readouterr().out


class TestServeCommand:
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
