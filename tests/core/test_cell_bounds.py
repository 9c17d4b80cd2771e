"""The (S, G) cell bounds the pruned search cuts with.

``MistTuner._cell_bounds`` floors every stage position's time by its
least compute-channel time at each layer count, and
:func:`~repro.core.inter_stage.objective_floors` composes the floors
through Eq. (1) with every delta at zero, one DP per pipeline depth.
The tests check the bound against the objectives of exhaustive
searches, the kernel premises it rests on, the DP against brute-force
enumeration and the memo key of the bounds against cold solves, and
ratchet how few cells two reference searches explore.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TuningJob, delta_job, replan, solve
from repro.api.solvers import MistSolver
from repro.benchmarking import plan_hash
from repro.core import NAMED_SPACES
from repro.core.analyzer import SymbolicPerformanceAnalyzer
from repro.core.inter_stage import objective_floors
from repro.core.memo import GLOBAL_MENU_MEMO, MenuMemo
from repro.symbolic import free_symbols

ROOT = Path(__file__).resolve().parents[2]


def _corpus_script():
    path = ROOT / "scripts" / "refresh_plan_corpus.py"
    spec = importlib.util.spec_from_file_location("refresh_plan_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = _corpus_script()
#: the plan corpus's cold mist jobs, then every named space on its two
#: smallest Table-4 quick jobs
MIST_JOBS = [job for solver, job, _ in CORPUS.solves() if solver == "mist"]
JOBS = MIST_JOBS + [job.with_(space=name) for job in MIST_JOBS[:2]
                    for name in NAMED_SPACES if name != "mist"]
MIXED_BASE = TuningJob.for_cluster(CORPUS.MIXED_A100_L4, model="gpt3-2.7b",
                                   global_batch=64, scale="smoke")


@pytest.mark.parametrize("job", JOBS, ids=[
    f"{job.name}-{job.scale}-{job.space}" for job in JOBS])
def test_bound_never_exceeds_the_solved_objective(job):
    tuner = MistSolver().make_tuner(job)
    # the premise of the cut, enforced when each model was built
    assert all(factor >= 1.0
               for analyzer in tuner.analyzers.values()
               for entry in analyzer.interference.factors.values()
               for factor in entry.values())
    grid = tuner._sg_grid(job.global_batch)
    bounds, feasible = tuner._cell_bounds(job.global_batch, grid,
                                          MenuMemo())
    result = tuner.search(job.global_batch, prune=False)
    solved = 0
    for bound, ok, entry in zip(bounds, feasible, result.search_log,
                                strict=True):
        if entry["objective"] is None:
            continue
        assert ok and bound <= entry["objective"], entry
        solved += 1
    assert solved


def test_floor_reads_no_pinned_symbol():
    # the floor evaluates at ZeRO 0, no offload, gacc 1, one in flight:
    # the two compute channels (compute plus the TP collectives
    # serialized with it, forward and backward) must not read any of them
    job = TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64)
    runtime = MistSolver().make_tuner(job).analyzers[""].traced.runtime
    read = set().union(*(free_symbols(expr) for expr in (
        runtime.comp_fwd, runtime.tp_fwd, runtime.comp_bwd, runtime.tp_bwd)))
    assert {"b", "tp", "l", "ckpt"} <= read
    pinned = {"z1", "z2", "z3", "wo", "go", "oo", "ao", "gacc", "inflight"}
    assert not pinned & read


def test_recomputation_never_lowers_the_compute_channel():
    job = TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64)
    analyzer = MistSolver().make_tuner(job).analyzers[""]
    b, tp, layers, ckpt, pre, post = (a.ravel() for a in np.meshgrid(
        [1, 2, 4, 8], [1, 2, 4], range(1, 9), range(9), [0, 1], [0, 1],
        indexing="ij"))
    valid = ckpt <= layers
    b, tp, layers, ckpt, pre, post = (
        a[valid] for a in (b, tp, layers, ckpt, pre, post))

    def comp(ckpt_values):
        return analyzer.compute_channel(analyzer.build_env(
            b=b, s=job.seq_len, dp=1, tp=tp, l=layers, ckpt=ckpt_values,
            zero=0, wo=0, go=0, oo=0, ao=0, gacc=1, inflight=1,
            has_pre=pre, has_post=post))

    pinned, recomputed = comp(0), comp(ckpt)
    assert (recomputed >= pinned).all()
    assert (recomputed[ckpt > 0] > pinned[ckpt > 0]).all()


def _enumerated_floor(floors, total_layers, gacc):
    best = math.inf
    for combo in itertools.product(*(stage.items() for stage in floors)):
        if sum(layers for layers, _ in combo) != total_layers:
            continue
        times = [f for _, f in combo]
        best = min(best, (gacc - 1) * max(times) + sum(times))
    return best


@st.composite
def _depth_batches(draw):
    """Cells of one depth: shared layer counts, per-cell floors and G.

    Floors come partly from a few small integers, so cells differ in how
    many distinct values they hold (the padded rows of the DP).
    """
    stages = draw(st.integers(1, 4))
    layer_counts = sorted(draw(st.sets(st.integers(1, 6), min_size=1,
                                       max_size=4)))
    cells = draw(st.integers(1, 4))
    value = st.one_of(st.integers(0, 3).map(float),
                      st.floats(0.0, 10.0, allow_nan=False))
    floors = np.array(draw(st.lists(
        st.lists(st.lists(value, min_size=len(layer_counts),
                          max_size=len(layer_counts)),
                 min_size=stages, max_size=stages),
        min_size=cells, max_size=cells)))
    gaccs = draw(st.lists(st.sampled_from([1, 1, 2, 3, 8]),
                          min_size=cells, max_size=cells))
    return floors, layer_counts, gaccs


class TestObjectiveFloors:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(batch=_depth_batches(), total_layers=st.integers(1, 16))
    def test_equals_enumeration(self, batch, total_layers):
        floors, layer_counts, gaccs = batch
        least = objective_floors(floors, layer_counts, total_layers, gaccs)
        assert least.shape == (len(floors),)
        for cell, gacc, got in zip(floors, gaccs, least.tolist()):
            stages = [dict(zip(layer_counts, row.tolist())) for row in cell]
            assert got == _enumerated_floor(stages, total_layers, gacc)
            # a cell gets the same bits on its own as in the batch
            alone = objective_floors(cell[None], layer_counts,
                                     total_layers, [gacc])
            assert float(alone[0]).hex() == float(got).hex()

    def test_bottleneck_trades_against_the_sum(self):
        # a balanced 2 + 2 split costs (G-1)*3 + 6; the skewed 3 + 1
        # split's bottleneck is 4, which only wins when G is small
        cell = [[1.0, 3.0, 4.0], [1.0, 3.0, 4.0]]
        least = objective_floors(np.array([cell, cell]), [1, 2, 3], 4, [1, 8])
        assert least.tolist() == [5.0, 7 * 3.0 + 6.0]

    def test_short_row_pads_with_its_own_largest_floor(self):
        # the second cell holds one distinct floor, the first three; at
        # G = 1 an inf pad would make the short row NaN
        floors = np.array([[[1.0, 2.0], [3.0, 2.0]], [[2.0, 2.0], [2.0, 2.0]]])
        least = objective_floors(floors, [1, 2], 3, [1, 1])
        assert least.tolist() == [3.0, 4.0]

    def test_unreachable_depth_is_infinite(self):
        least = objective_floors(np.array([[[1.0], [1.0]]]), [2], 5, [4])
        assert least.tolist() == [math.inf]


#: cluster deltas on the mixed fleet: a link change moves no compute
#: floor, a resized or grown group does, and a retyped group moves its
#: floors at unchanged stage positions (only its memo scope tells)
_MIXED_DELTAS = st.one_of(
    st.floats(0.05, 2.0, exclude_min=True).map(
        lambda factor: {"op": "degrade_link", "factor": factor,
                        "link": "inter_group"}),
    st.sampled_from([{"gpus_per_node": 2}, {"gpus_per_node": 1},
                     {"num_nodes": 2}]).map(
        lambda size: {"op": "resize_group", "group": "l4", **size}),
    st.integers(1, 2).map(
        lambda count: {"op": "add_nodes", "count": count, "group": "a100"}),
    st.sampled_from(["A100-80GB", "T4"]).map(
        lambda gpu: {"op": "retype_group", "group": "l4", "gpu": gpu}),
)


def _bounds(report):
    return [entry.get("bound") for entry in report.search_log]


class TestBoundsMemo:
    """A replan reuses the base solve's bounds when its delta leaves
    every floor alone (the memo key is not too fine), and always gets
    the bounds a cold solve gets (not too coarse)."""

    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(op=_MIXED_DELTAS)
    def test_warm_replan_matches_cold_solve(self, op):
        delta = {"ops": [op]}
        GLOBAL_MENU_MEMO.clear()
        base = solve(MIXED_BASE)
        warm = replan(MIXED_BASE, delta, incumbent=base)
        GLOBAL_MENU_MEMO.clear()
        cold = solve(delta_job(MIXED_BASE, delta))
        # the predicted winner; ``report.plan`` is the best *measured*
        # of the top plans, and a replan keeps only its winner
        assert plan_hash(warm.top_plans[0]) == plan_hash(cold.top_plans[0])
        assert warm.predicted == cold.predicted
        assert _bounds(warm) == _bounds(cold)

    @pytest.mark.parametrize("op, evaluates", [
        ({"op": "degrade_link", "factor": 0.5, "link": "inter_group"}, False),
        ({"op": "resize_group", "group": "l4", "gpus_per_node": 2}, True),
        ({"op": "retype_group", "group": "l4", "gpu": "T4"}, True),
    ], ids=["degrade-link", "resize-l4", "retype-l4"])
    def test_replan_evaluates_floors_only_when_they_move(
            self, monkeypatch, op, evaluates):
        GLOBAL_MENU_MEMO.clear()
        base = solve(MIXED_BASE)
        calls = []
        channel = SymbolicPerformanceAnalyzer.compute_channel
        monkeypatch.setattr(
            SymbolicPerformanceAnalyzer, "compute_channel",
            lambda self, env: calls.append(1) or channel(self, env))
        replan(MIXED_BASE, {"ops": [op]}, incumbent=base)
        assert bool(calls) is evaluates


@pytest.mark.parametrize("job, limit", [
    (TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
               scale="full"), 5),
    (MIXED_BASE, 3),
], ids=["gpt3-2.7b-full", "mixed-fleet-smoke"])
def test_explored_cells_ratchet(job, limit):
    result = MistSolver().make_tuner(job).search(
        job.global_batch, keep_top=job.keep_top)
    assert result.stats.cells_explored <= limit
