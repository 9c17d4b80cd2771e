"""Heterogeneous tuning: group assignments, budgets, bit-for-bit parity."""

import pytest

import repro.core.tuner as tuner_module
import repro.execution.engine as engine_module
from repro.core import MistTuner, SPACE_MIST
from repro.core.inter_stage import StageSlot, group_stage_assignments
from repro.core.memo import GLOBAL_MENU_MEMO
from repro.core.tuner import traced_model
from repro.core.spaces import get_scale
from repro.execution import ExecutionEngine
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
SEQ_LEN = 2048
BATCH = 16
SPACE = get_scale("smoke").apply(SPACE_MIST)


def mixed() -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def make_tuner(cluster):
    return MistTuner(MODEL, cluster, seq_len=SEQ_LEN, space=SPACE,
                     max_gacc_candidates=2)


class TestGroupStageAssignments:
    def test_every_group_hosts_at_least_one_stage(self):
        for assignment in group_stage_assignments(mixed(), MODEL.num_layers):
            groups = {slot.group for slot in assignment}
            assert groups == {"a100", "l4"}

    def test_stage_gpus_divide_group_gpus(self):
        h = mixed()
        for assignment in group_stage_assignments(h, MODEL.num_layers):
            for slot in assignment:
                group = h.group_named(slot.group)
                count = sum(1 for s in assignment if s.group == slot.group)
                assert slot.stage_gpus * count == group.total_gpus

    def test_groups_are_contiguous(self):
        for assignment in group_stage_assignments(mixed(), MODEL.num_layers):
            order = []
            for slot in assignment:
                if not order or order[-1] != slot.group:
                    order.append(slot.group)
            assert len(order) == len(set(order))

    def test_both_traversal_directions_enumerated(self):
        firsts = {a[0].group
                  for a in group_stage_assignments(mixed(), MODEL.num_layers)}
        assert firsts == {"a100", "l4"}

    def test_respects_layer_budget(self):
        assignments = group_stage_assignments(mixed(), 2)
        assert assignments  # 1 stage per group still fits
        assert all(len(a) <= 2 for a in assignments)

    def test_slots_are_named_tuples(self):
        slot = group_stage_assignments(mixed(), 4)[0][0]
        assert isinstance(slot, StageSlot)
        assert slot.stage_gpus >= 1


class TestHeterogeneousSearch:
    @pytest.fixture(scope="class")
    def result(self):
        return make_tuner(mixed()).search(BATCH)

    def test_finds_feasible_plan(self, result):
        assert result.found
        assert result.best_plan.total_gpus == 4

    def test_plan_validates_against_cluster(self, result):
        result.best_plan.validate(MODEL, mixed())

    def test_stages_tagged_with_groups(self, result):
        tags = {s.device_group for s in result.best_plan.stages}
        assert tags == {"a100", "l4"}

    def test_per_stage_memory_fits_its_groups_budget(self, result):
        cluster = mixed()
        tuner = make_tuner(cluster)
        for stage in result.best_plan.stages:
            budget = tuner.analyzers[stage.device_group].memory_budget
            gpu = cluster.group_named(stage.device_group).gpu
            assert budget < gpu.usable_memory_bytes
        # executing checks the tracked peaks against each group's device
        out = ExecutionEngine(cluster, system="mist").run(
            result.best_plan, MODEL, seq_len=SEQ_LEN)
        for report in out.stage_memory:
            assert report.fits

    def test_search_log_records_group_assignments(self, result):
        assert result.search_log
        for entry in result.search_log:
            assert len(entry["groups"]) == entry["num_stages"]

    def test_parallel_search_identical(self, result):
        parallel = make_tuner(mixed()).search(BATCH, parallelism=4)
        assert parallel.best_plan == result.best_plan

    def test_slow_inter_group_link_priced_into_prediction(self, result):
        # choke the inter-group link: boundary stages' p2p is clamped
        # during tuning (not only at execution), so the predicted
        # objective must not improve
        choked = HeterogeneousCluster(
            groups=mixed().groups, inter_group_bandwidth=1e8,
            inter_group_latency=1e-3)
        slow = make_tuner(choked).search(BATCH)
        assert slow.found
        assert (slow.predicted_iteration_time
                >= result.predicted_iteration_time - 1e-12)

    def test_larger_gpu_gets_no_fewer_layers(self, result):
        by_group = {"a100": 0, "l4": 0}
        for stage in result.best_plan.stages:
            by_group[stage.device_group] += stage.layers
        assert by_group["a100"] >= by_group["l4"]


class TestHomogeneousParity:
    def test_single_group_cluster_reproduces_plain_plans(self):
        plain = make_cluster("L4", 1, 4)
        wrapped = HeterogeneousCluster(
            groups=(DeviceGroup("l4", plain),))
        base = make_tuner(plain).search(BATCH)
        hetero = make_tuner(wrapped).search(BATCH)
        assert base.found
        assert hetero.best_plan == base.best_plan
        assert hetero.top_plans == base.top_plans
        assert hetero.search_log == base.search_log

    def test_single_group_plans_carry_no_group_tag(self):
        wrapped = HeterogeneousCluster(
            groups=(DeviceGroup("l4", make_cluster("L4", 1, 2)),))
        result = make_tuner(wrapped).search(8)
        assert result.found
        assert all(s.device_group == "" for s in result.best_plan.stages)

    @staticmethod
    def _pair(num_nodes=1):
        plain = make_cluster("L4", num_nodes, 4)
        return plain, HeterogeneousCluster(groups=(DeviceGroup("l4", plain),))

    def test_single_group_cluster_runs_like_plain(self):
        plain, wrapped = self._pair()
        plan = make_tuner(plain).search(BATCH).best_plan
        runs = [ExecutionEngine(cluster, system="mist").run(
                    plan, MODEL, seq_len=SEQ_LEN)
                for cluster in (plain, wrapped)]
        assert repr(runs[0].iteration_time) == repr(runs[1].iteration_time)
        assert runs[0].stage_memory == runs[1].stage_memory
        assert runs[0].pipeline == runs[1].pipeline

    def test_single_group_cluster_validates_like_plain(self):
        from repro.core.plan import PlanValidationError, StageConfig, \
            TrainingPlan

        plain, wrapped = self._pair()
        plan = make_tuner(plain).search(BATCH).best_plan
        for cluster in (plain, wrapped):
            plan.validate(MODEL, cluster)
        too_wide = TrainingPlan(global_batch=4, gacc=1, stages=(
            StageConfig(layers=24, microbatch=4, dp=1, tp=8),))
        messages = []
        for cluster in self._pair(num_nodes=2):
            with pytest.raises(PlanValidationError) as err:
                too_wide.validate(MODEL, cluster)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == \
            "stage 0: TP=8 exceeds node size 4"

    def test_tagged_plan_on_plain_cluster_validates_and_runs(self):
        import dataclasses

        plain, wrapped = self._pair()
        plan = make_tuner(plain).search(BATCH).best_plan
        tagged = dataclasses.replace(plan, stages=tuple(
            dataclasses.replace(stage, device_group=f"g{idx % 2}")
            for idx, stage in enumerate(plan.stages)))
        base = ExecutionEngine(plain, system="mist").run(
            plan, MODEL, seq_len=SEQ_LEN)
        for cluster in (plain, wrapped):
            tagged.validate(MODEL, cluster)
            run = ExecutionEngine(cluster, system="mist").run(
                tagged, MODEL, seq_len=SEQ_LEN)
            assert repr(run.iteration_time) == repr(base.iteration_time)
            assert run.stage_memory == base.stage_memory

    def test_single_group_cluster_gets_plain_interference(self):
        from repro.api import TuningJob
        from repro.api.solvers import _job_interference

        models = [_job_interference(TuningJob.for_cluster(
                      cluster, model="gpt3-1.3b", global_batch=BATCH))
                  for cluster in self._pair()]
        assert list(models[0]) == list(models[1]) == [""]
        assert models[0][""].fingerprint() == models[1][""].fingerprint()


class TestHeterogeneousExecution:
    def test_plan_with_unknown_group_rejected(self):
        from repro.core.plan import PlanValidationError, StageConfig, \
            TrainingPlan

        plan = TrainingPlan(global_batch=4, gacc=2, stages=(
            StageConfig(layers=12, microbatch=1, dp=2, tp=1,
                        device_group="a100"),
            StageConfig(layers=12, microbatch=1, dp=2, tp=1,
                        device_group="h100"),
        ))
        with pytest.raises(PlanValidationError, match="unknown device group"):
            plan.validate(MODEL, mixed())

    def test_group_gpu_overuse_rejected(self):
        from repro.core.plan import PlanValidationError, StageConfig, \
            TrainingPlan

        plan = TrainingPlan(global_batch=4, gacc=2, stages=(
            StageConfig(layers=12, microbatch=1, dp=2, tp=1,
                        device_group="a100"),
            StageConfig(layers=12, microbatch=1, dp=2, tp=1,
                        device_group="a100"),
        ))
        with pytest.raises(PlanValidationError, match="group 'a100'"):
            plan.validate(MODEL, mixed())

    def test_oversized_stage_ooms_on_small_group_but_fits_large(self):
        from repro.execution import OOMError
        from repro.core.plan import StageConfig, TrainingPlan

        # no checkpointing, no offload: an activation load a 24 GB L4
        # cannot hold but a 40 GB A100 can (identical work per stage)
        plan = TrainingPlan(global_batch=12, gacc=1, stages=(
            StageConfig(layers=12, microbatch=6, dp=2, tp=1,
                        device_group="a100"),
            StageConfig(layers=12, microbatch=6, dp=2, tp=1,
                        device_group="l4"),
        ))
        engine = ExecutionEngine(mixed(), system="mist")
        unchecked = engine.run(plan, MODEL, seq_len=SEQ_LEN,
                               check_memory=False)
        fits = {stage.device_group: rep.fits
                for stage, rep in zip(plan.stages, unchecked.stage_memory)}
        assert fits == {"a100": True, "l4": False}
        with pytest.raises(OOMError):
            engine.run(plan, MODEL, seq_len=SEQ_LEN)

    def test_engine_caches_traced_models_per_gpu(self, monkeypatch):
        GLOBAL_MENU_MEMO.clear()
        engine = ExecutionEngine(mixed(), system="mist")
        result = make_tuner(mixed()).search(BATCH)
        engine.run(result.best_plan, MODEL, seq_len=SEQ_LEN)
        # a second run finds every group's trace and kernel cached
        monkeypatch.setattr(tuner_module, "trace", None)
        monkeypatch.setattr(engine_module, "compile_expr", None)
        engine.run(result.best_plan, MODEL, seq_len=SEQ_LEN)
        for group in mixed().groups:
            assert traced_model(MODEL, group.gpu).gpu == group.gpu
