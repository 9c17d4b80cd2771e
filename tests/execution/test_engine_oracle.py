"""The execution engine against the loops it replaced.

``ExecutionEngine.run`` prices a plan through three array-speed paths:
one compiled memory kernel per traced graph
(:func:`repro.execution.memory_tracker.track_stage_memory`), a 1F1B
execution order cached per ``(S, G)`` with a lazily built timeline
(:func:`repro.execution.pipeline.simulate_pipeline`), and one row-wise
contention call per plan (:func:`repro.execution.schedule.phase_wall_times`).
The references below are what they replaced, kept verbatim: the
dict-driven simulation sweep building one record per phase, the tracker
walking each expression tree with :func:`repro.symbolic.evaluate`, and
the scalar phase pricing the engine called four times per stage. Every
output must match its reference bit for bit (``float.hex``).
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.execution.pipeline as pipeline_mod
from repro.core.plan import StageConfig, TrainingPlan, uniform_plan
from repro.execution import ExecutionEngine
from repro.execution.engine import _COMPONENT_FIELDS
from repro.execution.events import contention_model, corun_total_time
from repro.execution.memory_tracker import (ALLOCATOR_SLACK, FP16_BYTES,
                                            GRAD_BYTES, OPT_BYTES,
                                            StageMemoryReport,
                                            quantize_ratio,
                                            track_stage_memory)
from repro.execution.pipeline import PhaseRecord, one_f_one_b_order, \
    simulate_pipeline
from repro.execution.schedule import SCHEDULES, phase_wall_times
from repro.hardware import DeviceGroup, HeterogeneousCluster, make_cluster
from repro.models import get_model, list_models
from repro.models.graph import trace_model
from repro.symbolic import Expr, evaluate
from repro.tracing.liveness import backward_transient, forward_transient
from repro.tracing.memory import FRAMEWORK_OVERHEAD_BYTES


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def reference_simulate_pipeline(fwd_times, bwd_times, p2p_delay=0.0):
    """The dict-driven sweep: ``(total_time, timeline, stage_busy)``."""
    num_stages = len(fwd_times)
    num_microbatches = len(fwd_times[0])
    orders = [one_f_one_b_order(num_stages, num_microbatches, i)
              for i in range(num_stages)]
    end: dict[tuple[str, int, int], float] = {}
    position = [0] * num_stages  # next op index per stage
    stage_clock = [0.0] * num_stages
    timeline: list[PhaseRecord] = []
    stage_busy = [0.0] * num_stages

    remaining = sum(len(order) for order in orders)
    while remaining:
        progressed = False
        for i in range(num_stages):
            while position[i] < len(orders[i]):
                kind, k = orders[i][position[i]]
                if kind == "F":
                    dep = ("F", i - 1, k) if i > 0 else None
                    duration = fwd_times[i][k]
                else:
                    dep = ("B", i + 1, k) if i < num_stages - 1 else None
                    duration = bwd_times[i][k]
                if dep is not None and dep not in end:
                    break  # dependency not ready; revisit next sweep
                ready = stage_clock[i]
                if dep is not None:
                    ready = max(ready, end[dep] + p2p_delay)
                record = PhaseRecord(stage=i, kind=kind, microbatch=k,
                                     start=ready, end=ready + duration)
                timeline.append(record)
                end[(kind, i, k)] = record.end
                stage_clock[i] = record.end
                stage_busy[i] += duration
                position[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("pipeline schedule deadlocked (bug)")

    total = max(stage_clock)
    timeline.sort(key=lambda r: (r.start, r.stage))
    return total, timeline, stage_busy


def reference_track_stage_memory(graph, gpu, stage, *, stage_idx,
                                 num_stages, inflight, seq_len,
                                 runtime_overhead_bytes=0.0):
    """The tracker evaluating each graph tree with ``evaluate``."""
    env = {"b": stage.microbatch, "s": seq_len, "tp": stage.tp}
    block, pre, post = graph.block, graph.pre, graph.post
    has_pre = stage_idx == 0
    has_post = stage_idx == num_stages - 1

    block_params = float(evaluate(block.param_count, env))
    param_elems = stage.layers * block_params
    if has_pre:
        param_elems += float(evaluate(pre.param_count, env))
    if has_post:
        param_elems += float(evaluate(post.param_count, env))

    z1, z2, z3 = stage.zero_flags
    dp = stage.dp
    wo = quantize_ratio(stage.wo, stage.layers)
    go = quantize_ratio(stage.go, stage.layers)
    oo = quantize_ratio(stage.oo, stage.layers)
    ao = quantize_ratio(stage.ao, stage.layers)

    p16 = FP16_BYTES * param_elems
    g16 = GRAD_BYTES * param_elems
    o32 = OPT_BYTES * param_elems
    z3_frac = 1.0 / dp if z3 else 1.0
    z2_frac = 1.0 / dp if z2 else 1.0
    z1_frac = 1.0 / dp if z1 else 1.0

    block_p16 = FP16_BYTES * block_params
    params_buf = (2 * block_p16) if (z3 or wo > 0) else 0.0
    grads_buf = (2 * GRAD_BYTES * block_params) if (z2 or go > 0) else 0.0
    opt_buf = (2 * OPT_BYTES * block_params * z1_frac) if oo > 0 else 0.0

    params = p16 * z3_frac * (1 - wo) + params_buf
    grads = g16 * z2_frac * (1 - go) + grads_buf
    opt_states = o32 * z1_frac * (1 - oo) + opt_buf

    saved_full = float(evaluate(block.saved_activation_bytes(), env))
    saved_ckpt = float(evaluate(block.ckpt_saved_bytes(), env))
    saved_block = (stage.layers - stage.ckpt) * saved_full \
        + stage.ckpt * saved_ckpt
    saved_edges = 0.0
    if has_pre:
        saved_edges += float(evaluate(pre.saved_activation_bytes(), env))
    if has_post:
        saved_edges += float(evaluate(post.saved_activation_bytes(), env))
    boundary = float(evaluate(graph.boundary_activation_bytes, env))
    activations = inflight * ((1 - ao) * saved_block + saved_edges) \
        + 2 * boundary

    t_fwd = float(evaluate(forward_transient(block), env))
    t_bwd = float(evaluate(backward_transient(block), env))
    if stage.ckpt > 0:
        t_bwd += saved_full - saved_ckpt
    if has_pre:
        t_fwd = max(t_fwd, float(evaluate(forward_transient(pre), env)))
        t_bwd = max(t_bwd, float(evaluate(backward_transient(pre), env)))
    if has_post:
        t_fwd = max(t_fwd, float(evaluate(forward_transient(post), env)))
        t_bwd = max(t_bwd, float(evaluate(backward_transient(post), env)))
    transient = max(t_fwd, t_bwd)

    states = params + grads + opt_states
    peak = states + (activations + transient) * (1.0 + ALLOCATOR_SLACK)
    return StageMemoryReport(
        stage_idx=stage_idx, peak=peak, params=params, grads=grads,
        opt_states=opt_states, activations=activations, transient=transient,
        capacity=(gpu.usable_memory_bytes - FRAMEWORK_OVERHEAD_BYTES
                  - runtime_overhead_bytes),
    )


def reference_phase_wall_time(row, capability, contention):
    """The scalar pricing: one ``corun_total_time`` call per phase, whose
    ``row`` holds its busy seconds in ``PHASE_RESOURCES`` order."""
    comp, tp, dp, p2p, d2h, h2d = row
    comp = comp * (1.0 + capability.impl_overhead) + tp
    g2g = dp + p2p
    if capability.overlap_offload:
        c2g, g2c, serial = h2d, d2h, 0.0
    else:
        c2g = g2c = 0.0
        serial = h2d + d2h
    overlapped = corun_total_time(np.array([comp, g2g, c2g, g2c]), contention)
    return float(overlapped) + serial


def phase_rows(comp):
    """A stage's four distinct phases as ``PHASE_RESOURCES`` rows: the
    stable forward and backward, then microbatch 0's forward with its
    extras and microbatch gacc-1's backward with its extra."""
    fwd = (comp["comp_fwd"], comp["tp_fwd"], comp["dp_fwd"],
           comp["p2p_fwd"], comp["d2h_fwd"], comp["h2d_fwd"])
    bwd = (comp["comp_bwd"], comp["tp_bwd"], comp["dp_bwd"],
           comp["p2p_bwd"], comp["d2h_bwd"], comp["h2d_bwd"])
    first_extra = (comp["comp_first"], 0.0, comp["dp_first"], 0.0,
                   comp["d2h_first"], comp["h2d_first"])
    last_extra = (0.0, 0.0, comp["dp_last"], 0.0, 0.0, 0.0)
    first = tuple(a + b for a, b in zip(fwd, first_extra))
    last = tuple(a + b for a, b in zip(bwd, last_extra))
    return fwd, bwd, first, last


def reference_run(engine, plan, model, *, seq_len, flash=True):
    """The engine loop: reference tracker, four scalar pricings per
    stage, reference simulation. ``(memory reports, total, timeline,
    stage_busy)``; never raises on OOM."""
    reports, fwd_times, bwd_times = [], [], []
    max_p2p_lat = 0.0
    links = engine.cluster.p2p_links(
        [stage.device_group for stage in plan.stages])

    def wall(phase):
        return reference_phase_wall_time(phase, engine.capability,
                                         engine.contention)

    for idx, stage in enumerate(plan.stages):
        gcluster = engine._stage_cluster(stage)
        traced = engine._traced(model, flash, gcluster)
        reports.append(reference_track_stage_memory(
            traced.graph, gcluster.gpu, stage, stage_idx=idx,
            num_stages=plan.num_stages, inflight=plan.inflight(idx),
            seq_len=seq_len,
            runtime_overhead_bytes=engine.capability.extra_memory_bytes))
        env = engine._stage_env(plan, idx, seq_len, gcluster, links[idx])
        comp = dict(zip(_COMPONENT_FIELDS,
                        map(float, engine._components_fn(traced)(**env))))
        fwd, bwd, first, last = phase_rows(comp)
        fwd_row = [wall(first)]
        bwd_row = [wall(last)]
        if plan.gacc > 1:
            fwd_row += [wall(fwd)] * (plan.gacc - 1)
            bwd_row = [wall(bwd)] * (plan.gacc - 1) + bwd_row
        fwd_times.append(fwd_row)
        bwd_times.append(bwd_row)
        max_p2p_lat = max(max_p2p_lat, float(env["p2p_lat"]))
    return (reports, *reference_simulate_pipeline(fwd_times, bwd_times,
                                                  p2p_delay=max_p2p_lat))


# ---------------------------------------------------------------------------
# bit-level comparison helpers
# ---------------------------------------------------------------------------

def _hex(value) -> str:
    return float(value).hex()


def _records(timeline) -> list[tuple]:
    return [(r.stage, r.kind, r.microbatch, _hex(r.start), _hex(r.end))
            for r in timeline]


def _report_fields(report: StageMemoryReport) -> dict:
    return {name: (value if isinstance(value, int) else _hex(value))
            for name, value in dataclasses.asdict(report).items()}


def assert_pipeline_matches(result, total, timeline, stage_busy):
    assert _hex(result.total_time) == _hex(total)
    assert [_hex(b) for b in result.stage_busy] == \
        [_hex(b) for b in stage_busy]
    assert len(result.starts) == len(timeline)
    assert _records(result.timeline) == _records(timeline)


# ---------------------------------------------------------------------------
# 1F1B simulator
# ---------------------------------------------------------------------------

def _durations(rng, mode: str, s_num: int, g: int):
    if mode == "ties":  # a small palette: many exact ties and zeros
        palette = np.array([0.0, 0.5, 1.0, 1.0, 2.0])
        fwd = rng.choice(palette, size=(s_num, g))
        bwd = rng.choice(palette, size=(s_num, g))
    elif mode == "engine":  # the engine's rows: 4 distinct values a stage
        base = rng.uniform(0.0, 2.0, size=(s_num, 4))
        fwd = np.repeat(base[:, 2:3], g, axis=1)
        bwd = np.repeat(base[:, 3:4], g, axis=1)
        fwd[:, 0] = base[:, 0]
        bwd[:, -1] = base[:, 1]
    else:  # first/last outliers over a continuous base, with zeros
        fwd = rng.uniform(0.0, 2.0, size=(s_num, g))
        bwd = rng.uniform(0.0, 2.0, size=(s_num, g))
        fwd[rng.random((s_num, g)) < 0.1] = 0.0
        bwd[rng.random((s_num, g)) < 0.1] = 0.0
        fwd[:, 0] *= 50.0
        bwd[:, -1] *= 50.0
    return fwd.tolist(), bwd.tolist()


class TestSimulatorDifferential:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(s_num=st.integers(min_value=1, max_value=16),
           g=st.integers(min_value=1, max_value=64),
           mode=st.sampled_from(["ties", "engine", "outliers"]),
           p2p_delay=st.sampled_from([0.0, 1e-3, 0.37]),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_matches_dict_driven_sweep(self, s_num, g, mode, p2p_delay,
                                       seed):
        fwd, bwd = _durations(np.random.default_rng(seed), mode, s_num, g)
        result = simulate_pipeline(fwd, bwd, p2p_delay=p2p_delay)
        assert_pipeline_matches(
            result, *reference_simulate_pipeline(fwd, bwd, p2p_delay))

    @pytest.mark.parametrize("s_num, g", [(1, 1), (4, 1), (16, 3), (3, 64)])
    def test_fewer_and_more_microbatches_than_stages(self, s_num, g):
        fwd, bwd = _durations(np.random.default_rng(s_num * g), "outliers",
                              s_num, g)
        assert_pipeline_matches(simulate_pipeline(fwd, bwd, 0.25),
                                *reference_simulate_pipeline(fwd, bwd, 0.25))

    def test_results_compare_field_by_field(self):
        fwd, bwd = _durations(np.random.default_rng(7), "ties", 3, 5)
        a = simulate_pipeline(fwd, bwd)
        assert a == simulate_pipeline(fwd, bwd)
        bwd[1][2] += 1.0
        assert a != simulate_pipeline(fwd, bwd)

    def test_bubble_fractions_match_reference(self, monkeypatch):
        fwd, bwd = _durations(np.random.default_rng(3), "outliers", 4, 9)
        result = simulate_pipeline(fwd, bwd, 0.1)
        total, _, busy = reference_simulate_pipeline(fwd, bwd, 0.1)
        built = _count_constructions(monkeypatch, [PhaseRecord])
        bubbles = [result.bubble_fraction(i)
                   for i in range(result.num_stages)]
        assert built.count == 0  # bubbles are read without records
        assert bubbles == [1.0 - b / total for b in busy]


# ---------------------------------------------------------------------------
# memory tracker
# ---------------------------------------------------------------------------

#: (stage_idx, num_stages): first, middle, last, and a lone stage
POSITIONS = [(0, 3), (1, 3), (2, 3), (0, 1)]


@pytest.mark.parametrize("flash", [True, False], ids=["flash", "noflash"])
@pytest.mark.parametrize("name", list_models())
def test_memory_tracker_matches_evaluate_walk(name, flash):
    model = get_model(name)
    graph = trace_model(model, flash=flash)
    gpu = make_cluster("A100-80GB", 1, 8).gpu
    layers = 4
    for b in (1, 2, 4):
        for tp in (1, 2, 4):
            for zero, (stage_idx, num_stages) in zip((1, 2, 3, 0),
                                                     POSITIONS):
                stage = StageConfig(layers=layers, microbatch=b, dp=2, tp=tp,
                                    zero=zero, ckpt=2, wo=0.25, go=0.5,
                                    oo=0.75, ao=0.25)
                kwargs = dict(stage_idx=stage_idx, num_stages=num_stages,
                              inflight=num_stages - stage_idx, seq_len=2048,
                              runtime_overhead_bytes=0.4 * 1024**3)
                got = track_stage_memory(graph, gpu, stage, **kwargs)
                want = reference_track_stage_memory(graph, gpu, stage,
                                                    **kwargs)
                assert _report_fields(got) == _report_fields(want), \
                    (name, flash, b, tp, stage_idx, num_stages)


# ---------------------------------------------------------------------------
# phase pricing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pcie_only", [True, False], ids=["pcie", "nvlink"])
@pytest.mark.parametrize("system", sorted(SCHEDULES))
def test_row_pricing_matches_scalar_calls(system, pcie_only):
    capability = SCHEDULES[system]
    contention = contention_model(pcie_only=pcie_only)
    rng = np.random.default_rng(11)
    rows = rng.uniform(0.0, 3.0, size=(64, 6))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[0] = 0.0
    walls = phase_wall_times(rows, capability, contention)
    assert walls.shape == (64,)
    for row, got in zip(rows.tolist(), walls.tolist()):
        want = reference_phase_wall_time(row, capability, contention)
        assert _hex(got) == _hex(want)
        assert _hex(phase_wall_times([row], capability,
                                     contention)[0]) == _hex(want)


# ---------------------------------------------------------------------------
# the whole engine
# ---------------------------------------------------------------------------

MODEL = get_model("gpt3-1.3b")


def _offload_plan(gacc: int, groups=("", "")) -> TrainingPlan:
    half = MODEL.num_layers // 2
    return TrainingPlan(global_batch=2 * gacc, gacc=gacc, stages=(
        StageConfig(layers=half, microbatch=1, dp=2, tp=1, zero=1,
                    ckpt=half // 2, wo=0.5, go=0.25, oo=0.5, ao=0.25,
                    device_group=groups[0]),
        StageConfig(layers=half, microbatch=1, dp=2, tp=1, zero=2,
                    ckpt=half, oo=1.0, device_group=groups[1]),
    ))


def _mixed():
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, 2)),
        DeviceGroup("l4", make_cluster("L4", 1, 2)),
    ))


def _cases():
    l4x8 = make_cluster("L4", 1, 8)
    yield "offload-g1", make_cluster("L4", 1, 4), _offload_plan(1)
    yield "offload-g8", make_cluster("L4", 1, 4), _offload_plan(8)
    yield "mixed-g4", _mixed(), _offload_plan(4, ("a100", "l4"))
    yield "uniform-s4", l4x8, uniform_plan(
        MODEL, l4x8, global_batch=64, gacc=16, num_stages=4, dp=2, tp=1,
        zero=1, ckpt_all=True)
    yield "uniform-s8-g2", l4x8, uniform_plan(
        MODEL, l4x8, global_batch=8, gacc=2, num_stages=8, dp=1, tp=1,
        ckpt_all=True)


@pytest.mark.parametrize("system", sorted(SCHEDULES))
@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: c[0])
def test_engine_matches_reference_loop(case, system):
    _, cluster, plan = case
    engine = ExecutionEngine(cluster, system=system)
    result = engine.run(plan, MODEL, seq_len=1024, check_memory=False)
    reports, total, timeline, busy = reference_run(engine, plan, MODEL,
                                                   seq_len=1024)
    assert [_report_fields(r) for r in result.stage_memory] == \
        [_report_fields(r) for r in reports]
    assert _hex(result.iteration_time) == _hex(total)
    assert_pipeline_matches(result.pipeline, total, timeline, busy)


# ---------------------------------------------------------------------------
# saved work
# ---------------------------------------------------------------------------

class _Counter:
    count = 0


def _count_constructions(monkeypatch, classes) -> _Counter:
    """Count ``__init__`` calls of ``classes`` and their subclasses."""
    counter = _Counter()
    seen = set()
    todo = list(classes)
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls in seen or "__init__" not in vars(cls):
            continue
        seen.add(cls)

        def counted(self, *args, _init=vars(cls)["__init__"], **kwargs):
            counter.count += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counter


def _count_calls(monkeypatch, func) -> _Counter:
    """Count calls of ``func`` through every loaded module binding it."""
    counter = _Counter()

    def counted(*args, **kwargs):
        counter.count += 1
        return func(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return counter


class TestSavedWork:
    """After the first run per traced graph, a run is numbers only."""

    def test_second_run_builds_no_trees_and_prices_once(self, monkeypatch):
        cluster = make_cluster("L4", 1, 8)
        engine = ExecutionEngine(cluster, system="mist")
        first = uniform_plan(MODEL, cluster, global_batch=64, gacc=16,
                             num_stages=4, dp=2, tp=1, zero=1, ckpt_all=True)
        second = uniform_plan(MODEL, cluster, global_batch=32, gacc=4,
                              num_stages=2, dp=2, tp=2, zero=2,
                              ckpt_all=False)
        engine.run(first, MODEL, seq_len=1024, check_memory=False)

        nodes = _count_constructions(monkeypatch, [Expr])
        evaluations = _count_calls(monkeypatch, evaluate)
        pricings = _count_calls(monkeypatch, corun_total_time)
        records = _count_constructions(monkeypatch, [PhaseRecord])
        result = engine.run(second, MODEL, seq_len=1024, check_memory=False)

        assert nodes.count == 0
        assert evaluations.count == 0
        assert pricings.count == 1
        assert records.count == 0  # the timeline is built on access only
        assert len(result.pipeline.timeline) == len(result.pipeline.starts)
        assert records.count == len(result.pipeline.starts)

    def test_sweep_order_is_cached_per_shape(self):
        pipeline_mod._sweep.cache_clear()
        simulate_pipeline([[1.0] * 6] * 3, [[2.0] * 6] * 3)
        simulate_pipeline([[3.0] * 6] * 3, [[1.0] * 6] * 3, p2p_delay=0.5)
        info = pipeline_mod._sweep.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize is not None  # bounded
