"""Integration tests for the execution engine."""

import dataclasses

import pytest

from repro.core.memo import GLOBAL_MENU_MEMO
from repro.core.plan import (
    PlanValidationError,
    StageConfig,
    TrainingPlan,
    uniform_plan,
)
from repro.core.tuner import traced_model
from repro.execution import (
    ExecutionEngine,
    OOMError,
    fastest,
    render_timeline,
)
from repro.hardware import make_cluster
from repro.models import get_model


@pytest.fixture(scope="module")
def model():
    return get_model("gpt3-2.7b")


@pytest.fixture(scope="module")
def cluster():
    return make_cluster("L4", 1, 4)


@pytest.fixture(scope="module")
def engine(cluster):
    return ExecutionEngine(cluster, system="mist")


def fig2b_plan(model, cluster):
    """The paper's Fig. 2(b) plan: full CKPT, DP=2, PP=2."""
    return uniform_plan(model, cluster, global_batch=8, gacc=4,
                        num_stages=2, dp=2, tp=1, ckpt_all=True)


class TestEngineBasics:
    def test_fig2b_runs_within_memory(self, engine, model, cluster):
        result = engine.run(fig2b_plan(model, cluster), model, seq_len=4096)
        assert result.throughput > 0
        assert all(r.fits for r in result.stage_memory)
        # the paper's example sits near the memory limit
        assert result.peak_memory > 0.85 * result.stage_memory[0].capacity

    def test_no_memopt_ooms(self, engine, model, cluster):
        plan = uniform_plan(model, cluster, global_batch=8, gacc=4,
                            num_stages=2, dp=2, tp=1, ckpt_all=False)
        with pytest.raises(OOMError):
            engine.run(plan, model, seq_len=4096)

    def test_zero2_beats_full_ckpt_pipeline(self, engine, model, cluster):
        """The Fig. 2(d) result: ZeRO-2 + DP=4 beats full-CKPT + PP=2."""
        base = engine.run(fig2b_plan(model, cluster), model, seq_len=4096)
        z2 = uniform_plan(model, cluster, global_batch=8, gacc=1,
                          num_stages=1, dp=4, tp=1, zero=2, ckpt_all=True)
        faster = engine.run(z2, model, seq_len=4096)
        assert faster.throughput > base.throughput

    def test_cooptimized_beats_zero_only(self, engine, model, cluster):
        """The Fig. 2(f) result: ZeRO-2 + reduced CKPT beats ZeRO-2 alone."""
        z2 = uniform_plan(model, cluster, global_batch=8, gacc=1,
                          num_stages=1, dp=4, tp=1, zero=2, ckpt_all=True)
        co = TrainingPlan(
            global_batch=8, gacc=1,
            stages=(StageConfig(layers=32, microbatch=2, dp=4, tp=1,
                                zero=2, ckpt=28),),
        )
        r_z2 = engine.run(z2, model, seq_len=4096)
        r_co = engine.run(co, model, seq_len=4096)
        assert r_co.throughput > r_z2.throughput

    def test_invalid_plan_rejected(self, engine, model, cluster):
        plan = uniform_plan(model, cluster, global_batch=8, gacc=4,
                            num_stages=2, dp=2, tp=1, ckpt_all=True)
        wrong_model = get_model("gpt3-1.3b")
        with pytest.raises(Exception):
            engine.run(plan, wrong_model, seq_len=4096)

    def test_unknown_system_rejected(self, cluster):
        with pytest.raises(ValueError):
            ExecutionEngine(cluster, system="pytorch")


class TestExecuteStep:
    """``ExecutionEngine.execute`` runs plans in order and reports an OOM
    as ``None``; ``fastest`` keeps the first best measured plan."""

    @pytest.fixture(scope="class")
    def plans(self, model, cluster):
        fits = fig2b_plan(model, cluster)
        oom = uniform_plan(model, cluster, global_batch=8, gacc=4,
                           num_stages=2, dp=2, tp=1, ckpt_all=False)
        faster = uniform_plan(model, cluster, global_batch=8, gacc=1,
                              num_stages=1, dp=4, tp=1, zero=2,
                              ckpt_all=True)
        return fits, oom, faster

    def run(self, engine, model, plans):
        return fastest(engine.execute(plans, model, seq_len=4096))

    def test_oom_plan_reported_and_skipped(self, engine, model, plans):
        fits, oom, faster = plans
        runs = list(engine.execute([fits, oom, faster], model,
                                   seq_len=4096))
        assert [plan for plan, _ in runs] == [fits, oom, faster]
        assert runs[1][1] is None
        assert runs[0][1].iteration_time == engine.run(
            fits, model, seq_len=4096).iteration_time
        best = self.run(engine, model, [fits, oom, faster])
        assert best.plan is faster
        assert best.result.throughput > runs[0][1].throughput
        assert (best.runs, best.ooms) == (3, 1)

    def test_tie_keeps_the_first_plan(self, engine, model, plans):
        fits = plans[0]
        # equal stages, so equal measured bits; only the label differs
        twin = dataclasses.replace(fits, source="twin")
        best = self.run(engine, model, [fits, twin])
        assert best.plan is fits
        best = self.run(engine, model, [twin, fits])
        assert best.plan is twin

    def test_all_oom_returns_no_plan(self, engine, model, plans):
        oom = plans[1]
        assert tuple(self.run(engine, model, [oom, oom])) == \
            (None, None, 2, 2)
        assert tuple(self.run(engine, model, [])) == (None, None, 0, 0)

    def test_runs_lazily_in_order(self, engine, model, plans,
                                  monkeypatch):
        fits, oom, faster = plans
        ran = []

        def run(plan, *args, **kwargs):
            ran.append(plan)
            return ExecutionEngine.run(engine, plan, *args, **kwargs)

        monkeypatch.setattr(engine, "run", run)
        runs = engine.execute([oom, fits, faster], model, seq_len=4096)
        assert not ran
        assert next(runs)[1] is None
        plan, result = next(runs)
        assert plan is fits and result is not None
        runs.close()
        assert ran == [oom, fits]  # the third plan never ran

    def test_invalid_plan_raises(self, engine, model, cluster, plans):
        stage = dataclasses.replace(plans[0].stages[0], tp=8)
        wide = dataclasses.replace(plans[0], stages=(stage, stage))
        with pytest.raises(PlanValidationError):
            list(engine.execute([wide], model, seq_len=4096))


class TestSystemDifferences:
    def test_megatron_faster_than_mist_same_plan(self, model, cluster):
        """Same search space, Mist slightly slower (impl overhead, Fig 13)."""
        plan = fig2b_plan(model, cluster)
        mist = ExecutionEngine(cluster, system="mist").run(
            plan, model, seq_len=4096
        )
        megatron = ExecutionEngine(cluster, system="megatron").run(
            plan, model, seq_len=4096
        )
        assert megatron.throughput > mist.throughput
        assert megatron.throughput < 1.08 * mist.throughput

    def test_offload_plan_hurts_more_without_overlap(self, model, cluster):
        """Mist overlaps offload traffic; DeepSpeed-style serializes it."""
        plan = TrainingPlan(
            global_batch=8, gacc=1,
            stages=(StageConfig(layers=32, microbatch=2, dp=4, tp=1,
                                zero=2, ckpt=32, oo=0.5),),
        )
        mist = ExecutionEngine(cluster, system="mist").run(
            plan, model, seq_len=4096
        )
        ds = ExecutionEngine(cluster, system="deepspeed").run(
            plan, model, seq_len=4096
        )
        assert mist.throughput > ds.throughput

    def test_serial_slowest(self, model, cluster):
        plan = fig2b_plan(model, cluster)
        serial = ExecutionEngine(cluster, system="serial").run(
            plan, model, seq_len=4096
        )
        mist = ExecutionEngine(cluster, system="mist").run(
            plan, model, seq_len=4096
        )
        assert serial.throughput <= mist.throughput * 1.02


class TestTimeline:
    def test_render_contains_all_stages(self, engine, model, cluster):
        result = engine.run(fig2b_plan(model, cluster), model, seq_len=4096)
        art = render_timeline(result.pipeline, width=60)
        assert "stage  0" in art and "stage  1" in art
        assert "idle" in art

    def test_deeper_pipeline_has_bigger_bubbles(self, engine, model, cluster):
        shallow = engine.run(fig2b_plan(model, cluster), model, seq_len=4096)
        deep_plan = uniform_plan(model, cluster, global_batch=8, gacc=4,
                                 num_stages=4, dp=1, tp=1, ckpt_all=True)
        deep = engine.run(deep_plan, model, seq_len=4096)
        assert max(
            deep.pipeline.bubble_fraction(i) for i in range(4)
        ) > max(shallow.pipeline.bubble_fraction(i) for i in range(2))


class TestTraceCache:
    def test_same_name_different_shape_is_not_a_cache_hit(self, cluster):
        """``get_model(..., **overrides)`` keeps the model's name, so the
        process-wide trace cache must key on the whole config."""
        base = get_model("gpt3-1.3b")
        narrow = get_model("gpt3-1.3b",
                           ffn_hidden_size=2 * base.hidden_size)
        assert narrow.name == base.name and narrow != base
        assert (traced_model(narrow, cluster.gpu)
                is not traced_model(base, cluster.gpu))
        plan = uniform_plan(base, cluster, global_batch=8, gacc=4,
                            num_stages=2, dp=2, tp=1, ckpt_all=True)
        shared = ExecutionEngine(cluster, system="mist")
        shared.run(plan, base, seq_len=2048)
        reused = shared.run(plan, narrow, seq_len=2048)
        GLOBAL_MENU_MEMO.clear()
        fresh = ExecutionEngine(cluster, system="mist").run(
            plan, narrow, seq_len=2048)
        assert reused.iteration_time == fresh.iteration_time
        assert reused.peak_memory == fresh.peak_memory
