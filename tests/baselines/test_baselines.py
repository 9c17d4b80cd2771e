"""Tests for the baseline system reproductions."""

import numpy as np
import pytest

from repro.baselines import (
    AcesoTuner,
    CAPABILITY_TABLE,
    DeepSpeedTuner,
    MegatronTuner,
    UniformHeuristicTuner,
    pipeline_grids,
)
from repro.core import SPACE_3D
from repro.costmodel import InterferenceModel, calibrated_interference
from repro.hardware import make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 2)
SEQ_LEN = 2048
BATCH = 16


class TestPipelineGrids:
    def test_yields_valid_tuples(self):
        for num_stages, dp, tp, gacc, b in pipeline_grids(MODEL, CLUSTER,
                                                          BATCH):
            assert num_stages * dp * tp == CLUSTER.total_gpus
            assert dp * b * gacc == BATCH
            assert MODEL.num_layers % num_stages == 0

    def test_covers_pure_dp_and_pure_pp(self):
        combos = {(s, dp, tp)
                  for s, dp, tp, _, _ in pipeline_grids(MODEL, CLUSTER,
                                                        BATCH)}
        assert (1, 2, 1) in combos  # pure DP
        assert (2, 1, 1) in combos  # pure PP


class TestMegatron:
    @pytest.fixture(scope="class")
    def result(self):
        return MegatronTuner(MODEL, CLUSTER, seq_len=SEQ_LEN).tune(BATCH)

    def test_finds_plan(self, result):
        assert result.found
        assert result.throughput > 0

    def test_space_restrictions(self):
        tuner = MegatronTuner(MODEL, CLUSTER, seq_len=SEQ_LEN)
        for plan in tuner.candidate_plans(BATCH):
            for stage in plan.stages:
                assert stage.zero in (0, 1)  # no ZeRO-2/3
                assert stage.ckpt in (0, stage.layers)  # full or none
                assert stage.oo == stage.ao == stage.go == stage.wo == 0.0

    def test_uniform_stages(self):
        tuner = MegatronTuner(MODEL, CLUSTER, seq_len=SEQ_LEN)
        for plan in tuner.candidate_plans(BATCH):
            assert len({s.layers for s in plan.stages}) == 1

    def test_oom_candidates_counted(self, result):
        assert result.candidates_tried > result.candidates_oom >= 0


class TestDeepSpeed:
    def test_includes_zero3_and_offload(self):
        tuner = DeepSpeedTuner(MODEL, CLUSTER, seq_len=SEQ_LEN)
        zeros = set()
        offloads = set()
        for plan in tuner.candidate_plans(BATCH):
            for stage in plan.stages:
                zeros.add(stage.zero)
                offloads.add((stage.oo, stage.go))
        assert 3 in zeros
        assert (1.0, 0.0) in offloads  # coarse optimizer offload
        assert (0.5, 0.0) not in offloads  # never fractional

    def test_finds_plan(self):
        result = DeepSpeedTuner(MODEL, CLUSTER, seq_len=SEQ_LEN).tune(BATCH)
        assert result.found


class TestAceso:
    def test_predictor_has_no_interference_factors(self):
        tuner = AcesoTuner(MODEL, CLUSTER, seq_len=SEQ_LEN)
        assert tuner.analyzer.interference.factors == {}

    def test_factorless_sweep_sums_channels(self):
        # overlap-unaware: without factors the four channels serialize
        x = np.random.default_rng(0).random((4, 257))
        x[x < 0.2] = 0.0  # idle channels too
        expected = x.sum(axis=0)
        total = InterferenceModel().sweep(x)
        assert total.tobytes() == expected.tobytes()

    def test_finds_plan_without_sharding_or_offload(self):
        result = AcesoTuner(MODEL, CLUSTER, seq_len=SEQ_LEN).tune(BATCH)
        assert result.found
        for stage in result.best_plan.stages:
            assert stage.zero == 0
            assert stage.oo == stage.ao == 0.0

    def test_per_stage_ckpt_can_differ(self):
        # the search space allows heterogeneous ckpt; just assert the
        # plan is structurally valid with per-stage values
        result = AcesoTuner(MODEL, CLUSTER, seq_len=SEQ_LEN).tune(BATCH)
        result.best_plan.validate(MODEL, CLUSTER)


class TestUniformHeuristic:
    def test_same_config_across_stages(self):
        tuner = UniformHeuristicTuner(
            MODEL, CLUSTER, seq_len=SEQ_LEN,
            interference=calibrated_interference(True),
        )
        result = tuner.tune(BATCH)
        assert result.found
        stages = result.best_plan.stages
        assert len({(s.ckpt, s.zero, s.oo, s.ao) for s in stages}) == 1

    def test_full_ckpt_policy_recomputes_every_layer(self):
        # the shared checkpoint grid honours ckpt_policy="full", as
        # Mist's menus do
        tuner = UniformHeuristicTuner(
            MODEL, CLUSTER, seq_len=SEQ_LEN,
            space=SPACE_3D.with_(ckpt_policy="full"),
        )
        result = tuner.tune(32)
        assert result.found
        assert all(s.ckpt == s.layers for s in result.best_plan.stages)

    @pytest.mark.parametrize("scale", ["smoke", "quick", "full"])
    def test_mist_grid_covers_uniform_grid(self, scale):
        # §3.3's "Mist never loses to its uniform restriction" needs
        # every uniform (S, G) pair in Mist's grid, at every preset cap;
        # pure enumeration, nothing is searched or executed
        from repro.api import MistSolver, TuningJob, UniformSolver
        from repro.campaigns.spec import batch_for_size, gpu_count_for_size

        for size in ("1.3b", "2.7b", "6.7b", "13b", "22b"):
            job = TuningJob(model=f"gpt3-{size}",
                            num_gpus=gpu_count_for_size(size),
                            global_batch=batch_for_size(size),
                            scale=scale, interference="none")
            mist = MistSolver().make_tuner(job)
            uniform = UniformSolver().make_tuner(job)
            mist_sg = {(len(slots), g) for g, _, slots
                       in mist._sg_grid(job.global_batch)}
            uniform_sg = {(p[0], p[3])
                          for p in uniform.pipeline_grid(job.global_batch)}
            assert uniform_sg, size
            assert uniform_sg <= mist_sg, (size, uniform_sg - mist_sg)


class TestCapabilityTable:
    def test_five_rows(self):
        assert len(CAPABILITY_TABLE) == 5

    def test_names_unique(self):
        names = [cap.name for cap in CAPABILITY_TABLE]
        assert len(names) == len(set(names))
