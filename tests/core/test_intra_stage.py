"""Tests for the intra-stage tuner and Pareto frontier extraction."""

import dataclasses

import numpy as np
import pytest

from repro.api import TuningJob, delta_job, solve
from repro.api.solvers import MistSolver
from repro.core import SPACE_3D, SPACE_MIST, SymbolicPerformanceAnalyzer
from repro.core import intra_stage
from repro.core.analyzer import StagePrediction
from repro.core.intra_stage import (IntraStageTuner, StageShape,
                                    _fiber_winners, _pareto_rows,
                                    ckpt_pairs, stage_parallelism_options)
from repro.core.memo import GLOBAL_MENU_MEMO, MenuMemo
from repro.costmodel.interference import InterferenceModel
from repro.core.spaces import SCALES
from repro.hardware import make_cluster
from repro.models import get_model
from repro.symbolic import CompiledExpr
from repro.tracing import HARDWARE_SYMBOLS, trace


@pytest.fixture(scope="module")
def analyzer():
    cluster = make_cluster("L4", 1, 4)
    traced = trace(get_model("gpt3-1.3b"), cluster.gpu, flash=True)
    return SymbolicPerformanceAnalyzer(traced, cluster)


def make_tuner(analyzer, space=SPACE_MIST, **kwargs):
    defaults = dict(global_batch=16, seq_len=2048)
    defaults.update(kwargs)
    return IntraStageTuner(analyzer, space, **defaults)


SHAPE = StageShape(stage_gpus=2, gacc=4, inflight=2, has_pre=True,
                   has_post=False)


class TestEnumeration:
    def test_returns_menu_per_layer_count(self, analyzer):
        tuner = make_tuner(analyzer)
        menus = tuner.tune([SHAPE], [10, 12, 14])[0].menus
        assert set(menus) == {10, 12, 14}
        assert any(menus.values())

    def test_counts_evaluated_configs(self, analyzer):
        [entry] = make_tuner(analyzer).tune([SHAPE], [12])
        assert entry.evaluated > 100
        assert 0 <= entry.prefiltered <= entry.evaluated

    def test_bigger_space_evaluates_more(self, analyzer):
        small = make_tuner(analyzer, space=SPACE_3D)
        big = make_tuner(analyzer, space=SPACE_MIST)
        assert big.tune([SHAPE], [12])[0].evaluated \
            > small.tune([SHAPE], [12])[0].evaluated

    def test_microbatch_follows_dp(self, analyzer):
        tuner = make_tuner(analyzer, global_batch=16)
        [entry] = tuner.tune([StageShape(stage_gpus=4, gacc=4, inflight=1,
                                         has_pre=True, has_post=True)],
                              [24])
        menus = entry.menus
        for point in menus[24]:
            cfg = point.config
            assert cfg.dp * cfg.microbatch * 4 == 16

    def test_single_row_menu(self, analyzer):
        # every grid axis has one value, so every symbol is a scalar
        space = SPACE_3D.with_(zero_levels=(0,), ckpt_policy="full")
        tuner = make_tuner(analyzer, space=space)
        shape = StageShape(stage_gpus=1, gacc=4, inflight=1, has_pre=True,
                           has_post=True)
        [entry] = tuner.tune([shape], [12])
        [point] = entry.menus[12]
        assert (entry.evaluated, entry.prefiltered) == (1, 0)
        cfg = point.config
        assert (cfg.layers, cfg.ckpt, cfg.microbatch, cfg.dp, cfg.tp) \
            == (12, 12, 4, 1, 1)
        pred = analyzer.predict(analyzer.build_env(
            b=4, s=2048, dp=1, tp=1, l=12, ckpt=12, zero=0, wo=0.0, go=0.0,
            oo=0.0, ao=0.0, gacc=4, inflight=1, has_pre=1, has_post=1))
        assert (point.t, point.d, point.peak_mem) == (
            pred.t_stable[0], pred.delta[0], pred.peak_mem[0])

    def test_one_block_left_of_one_row_blocks(self, analyzer):
        # two one-row option blocks, one over budget: after the drop
        # every symbol is a scalar again
        space = SPACE_3D.with_(zero_levels=(0,), ckpt_policy="full")
        shape = StageShape(stage_gpus=2, gacc=1, inflight=1, has_pre=True,
                           has_post=True)
        [entry] = make_tuner(analyzer, space=space).tune([shape], [24])
        assert (entry.evaluated, entry.prefiltered) == (2, 1)
        [point] = entry.menus[24]
        cfg = point.config
        pred = analyzer.predict(analyzer.build_env(
            b=cfg.microbatch, s=2048, dp=cfg.dp, tp=cfg.tp, l=24, ckpt=24,
            zero=0, wo=0.0, go=0.0, oo=0.0, ao=0.0, gacc=1, inflight=1,
            has_pre=1, has_post=1))
        assert (point.t, point.d, point.peak_mem) == (
            pred.t_stable[0], pred.delta[0], pred.peak_mem[0])

    def test_prefiltered_counts_rows_over_budget(self, analyzer,
                                                 monkeypatch):
        # the memory pass prices the whole menu; the counters are its
        # rows and the rows it finds over budget
        tuner = _case_tuner(analyzer, 128)
        shape, layer_counts = BRUTE_FORCE_CASES[-1][:2]
        [(name, env), *_] = _priced_envs(analyzer, tuner, shape,
                                         layer_counts, monkeypatch)
        assert name == "predict_memory"
        peak = analyzer.predict_memory(env)
        [entry] = tuner.tune([shape], layer_counts)
        assert entry.evaluated == peak.size
        assert entry.prefiltered \
            == int((peak > analyzer.memory_budget).sum()) > 0

    def test_prefilter_knob_is_gone(self, analyzer):
        with pytest.raises(TypeError, match="prefilter"):
            make_tuner(analyzer).tune([SHAPE], [12], prefilter=True)
        assert not hasattr(analyzer, "_comp_fn")
        assert [f.name for f in dataclasses.fields(StagePrediction)] \
            == ["t_stable", "delta", "peak_mem", "t_first", "t_last"]

    def test_infeasible_batch_yields_empty(self, analyzer):
        # global batch 3 cannot split over gacc=2
        tuner = make_tuner(analyzer, global_batch=3)
        [entry] = tuner.tune([StageShape(stage_gpus=2, gacc=2, inflight=1,
                                         has_pre=True, has_post=True)],
                              [24])
        assert entry.menus[24] == []
        assert (entry.evaluated, entry.prefiltered) == (0, 0)


class TestCkptPairs:
    @pytest.mark.parametrize("changes, layers, ckpt", [
        ({}, [10, 10, 12, 12], [0, 10, 0, 12]),
        ({"ckpt_policy": "full"}, [10, 12], [10, 12]),
        ({"tune_ckpt": True, "ckpt_grid_points": 5},
         [10] * 4 + [12] * 5, [0, 3, 6, 9, 0, 3, 6, 9, 12]),
        # the policy wins over the flexible grid
        ({"tune_ckpt": True, "ckpt_policy": "full"}, [10, 12], [10, 12]),
    ])
    def test_pairs_per_policy(self, changes, layers, ckpt):
        l_col, ckpt_col = ckpt_pairs(SPACE_3D.with_(**changes), [12, 10])
        assert l_col.tolist() == layers
        assert ckpt_col.tolist() == ckpt


class TestParetoFrontier:
    def test_frontier_is_nondominated(self, analyzer):
        tuner = make_tuner(analyzer)
        points = tuner.tune([SHAPE], [12])[0].menus[12]
        assert points
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i == j:
                    continue
                dominated = b.t <= a.t and b.d <= a.d and (
                    b.t < a.t or b.d < a.d
                )
                assert not dominated, (a, b)

    def test_frontier_sorted_by_t(self, analyzer):
        tuner = make_tuner(analyzer)
        points = tuner.tune([SHAPE], [12])[0].menus[12]
        ts = [p.t for p in points]
        assert ts == sorted(ts)

    def test_memory_respected(self, analyzer):
        tuner = make_tuner(analyzer)
        for points in tuner.tune([SHAPE], [10, 12])[0].menus.values():
            for point in points:
                assert point.peak_mem <= analyzer.memory_budget

    def test_full_ckpt_policy_forces_recompute(self, analyzer):
        space = SPACE_3D.with_(name="full", ckpt_policy="full")
        tuner = make_tuner(analyzer, space=space)
        points = tuner.tune([SHAPE], [12])[0].menus[12]
        assert points
        for point in points:
            assert point.config.ckpt == point.config.layers

    def test_auto_policy_is_full_or_none(self, analyzer):
        tuner = make_tuner(analyzer, space=SPACE_3D)
        points = tuner.tune([SHAPE], [12])[0].menus[12]
        for point in points:
            assert point.config.ckpt in (0, point.config.layers)


#: (shape, layer counts, global batch) whose quick-scale menus mix
#: memory-feasible and over-budget rows; in the last, the (dp 1, tp 4,
#: b 128) option block has no row within budget
BRUTE_FORCE_CASES = [
    (SHAPE, [10, 12, 14], 16),
    (StageShape(stage_gpus=1, gacc=1, inflight=1, has_pre=True,
                has_post=True), [24], 16),
    (StageShape(stage_gpus=1, gacc=2, inflight=4, has_pre=True,
                has_post=False), [16, 20], 16),
    (StageShape(stage_gpus=4, gacc=2, inflight=1, has_pre=True,
                has_post=True), [24], 16),
    (StageShape(stage_gpus=4, gacc=1, inflight=1, has_pre=True,
                has_post=True), [24], 128),
]


def _case_tuner(analyzer, global_batch):
    return make_tuner(analyzer, space=SCALES["quick"].apply(SPACE_MIST),
                      global_batch=global_batch)


def _priced_envs(analyzer, tuner, shape, layer_counts, monkeypatch):
    """The environments ``tune`` hands to ``predict_memory`` (the whole
    menu) and to ``predict_feasible`` (the option blocks left after the
    memory pass), in call order."""
    seen = []
    for name in ("predict_memory", "predict_feasible"):
        def spy(env, *args, name=name, method=getattr(analyzer, name)):
            seen.append((name, env))
            return method(env, *args)
        monkeypatch.setattr(analyzer, name, spy)
    tuner.tune([shape], layer_counts)
    monkeypatch.undo()
    return seen


def _full_menu(analyzer, tuner, shape, layer_counts, monkeypatch):
    """Every row of the menu, over budget or not, as flat ``(l, t, d,
    peak_mem)`` arrays in the grid's row order."""
    [(name, env), *_] = _priced_envs(analyzer, tuner, shape, layer_counts,
                                     monkeypatch)
    assert name == "predict_memory"
    pred = analyzer.predict(env)  # every field at the grid's shape
    l_col = np.broadcast_to(env["l"], pred.t_stable.shape)
    return (l_col.ravel().astype(int), pred.t_stable.ravel(),
            pred.delta.ravel(), pred.peak_mem.ravel())


def _brute_force_frontier(l_col, t, d, mem, budget):
    """``{l: [(t, d), ...]}`` of the non-dominated feasible rows, by an
    O(n^2) check of every feasible row against every other.

    Row ``b`` dominates row ``a`` when it has the same layer count, comes
    first in ``(t, d, row)`` order, and its ``d`` is at most ``a``'s plus
    the extraction's ``1e-12`` tolerance: deltas that are equal by
    construction can differ by float noise, which is not a trade-off.
    """
    feasible = np.flatnonzero(mem <= budget)
    frontier: dict[int, list] = {}
    for a in feasible:
        b = feasible
        first = (t[b] < t[a]) | ((t[b] == t[a]) & (
            (d[b] < d[a]) | ((d[b] == d[a]) & (b < a))))
        if not np.any((l_col[b] == l_col[a]) & first
                      & (d[b] <= d[a] + 1e-12)):
            frontier.setdefault(int(l_col[a]), []).append(
                (float(t[a]), float(d[a])))
    return {layers: sorted(pairs) for layers, pairs in frontier.items()}


class TestFrontierIsExact:
    """The whole non-dominated set reaches the inter-stage solve: the
    frontier of every row of the menu, so dropping the option blocks
    with no row within budget before the runtime kernel runs never
    changes a menu."""

    @pytest.mark.parametrize("case", range(len(BRUTE_FORCE_CASES)))
    def test_matches_brute_force(self, analyzer, monkeypatch, case):
        shape, layer_counts, global_batch = BRUTE_FORCE_CASES[case]
        menu = _full_menu(analyzer, _case_tuner(analyzer, global_batch),
                          shape, layer_counts, monkeypatch)
        expected = _brute_force_frontier(*menu, analyzer.memory_budget)
        [entry] = _case_tuner(analyzer, global_batch).tune(
            [shape], layer_counts)
        menus = entry.menus
        assert set(menus) == set(layer_counts)
        for layers in layer_counts:
            got = [(p.t, p.d) for p in menus[layers]]
            # one point per (t, d) pair, in ascending-t order
            assert got == expected.get(layers, []), (case, layers)

    def test_cases_carry_over_budget_rows(self, analyzer, monkeypatch):
        over = 0
        for shape, layer_counts, global_batch in BRUTE_FORCE_CASES:
            *_, mem = _full_menu(analyzer, _case_tuner(analyzer, global_batch),
                                 shape, layer_counts, monkeypatch)
            over += int((mem > analyzer.memory_budget).sum())
        assert over > 0

    def test_cases_drop_whole_blocks(self, analyzer, monkeypatch):
        # the oracle above covers the block drop only if some case has
        # an option block with no row within budget
        def blocks(env):
            return (np.shape(env["b"]) or (1,) * 8)[intra_stage._OPTION_AXIS]

        dropped = 0
        for shape, layer_counts, global_batch in BRUTE_FORCE_CASES:
            (_, menu), *priced = _priced_envs(
                analyzer, _case_tuner(analyzer, global_batch), shape,
                layer_counts, monkeypatch)
            dropped += blocks(menu) - sum(blocks(env) for _, env in priced)
        assert dropped > 0

    def test_ties_keep_first_row(self):
        l_col = np.array([4, 4, 4, 4, 2])
        t = np.array([1.0, 1.0, 0.5, 2.0, 3.0])
        d = np.array([2.0, 2.0, 3.0, 1.0, 1.0])
        frontiers = _pareto_rows(l_col, t, d)
        assert {layers: rows.tolist() for layers, rows in frontiers.items()} \
            == {2: [4], 4: [2, 0, 3]}

    def test_near_ties_within_epsilon_dropped(self):
        l_col = np.array([1, 1])
        t = np.array([1.0, 2.0])
        d = np.array([1.0, 1.0 - 1e-13])
        assert _pareto_rows(l_col, t, d)[1].tolist() == [0]

    def test_empty_menu(self):
        empty = np.array([], dtype=float)
        assert _pareto_rows(empty.astype(int), empty, empty) == {}

    def test_nan_delta_neither_joins_nor_hides_later_rows(self):
        frontiers = _pareto_rows(np.array([4, 4, 4, 4]),
                                 np.array([1.0, 2.0, 3.0, 4.0]),
                                 np.array([5.0, np.nan, 1.0, 0.5]))
        assert {layers: rows.tolist() for layers, rows in frontiers.items()} \
            == {4: [0, 2, 3]}

    def test_all_nan_group_has_empty_frontier(self):
        frontiers = _pareto_rows(np.array([2, 4, 4, 2]),
                                 np.array([1.0, 1.0, 2.0, 3.0]),
                                 np.array([np.nan, 3.0, 1.0, np.nan]))
        assert {layers: rows.tolist() for layers, rows in frontiers.items()} \
            == {2: [], 4: [1, 2]}


#: deltas the fiber property test draws from: exact ties, both zeros,
#: an infinity and a NaN
FIBER_DELTAS = np.array([0.0, -0.0, 0.5, 1.0, 1.0 + 5e-13, 2.0, np.inf,
                         np.nan])


class TestFiberWinners:
    """Reducing every fiber to its first least-delta row changes no
    frontier row, nor its order."""

    @staticmethod
    def _frontiers(l_col, t, d, rows):
        """Frontier rows per layer count; an empty frontier counts as
        absent, as ``tune`` lists every layer count either way."""
        frontiers = _pareto_rows(l_col[rows], t[rows], d[rows])
        return {layers: rows[kept].tolist()
                for layers, kept in frontiers.items() if kept.size}

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_unreduced_frontier(self, seed):
        rng = np.random.default_rng(seed)
        grid = tuple(int(e) for e in rng.integers(1, 5, rng.integers(2, 5)))
        # axis 0 carries the layer count; t is constant along the others
        # it does not read, and takes few values, so fibers tie exactly
        axes = [k for k in range(1, len(grid))
                if grid[k] > 1 and rng.random() < 0.6]
        l_col = np.broadcast_to(
            rng.integers(1, 3, grid[0]).reshape((-1,) + (1,) * (len(grid) - 1)),
            grid).ravel()
        t_shape = tuple(1 if k in axes else e for k, e in enumerate(grid))
        t = np.broadcast_to(rng.choice([0.5, 1.0, 1.5], t_shape),
                            grid).ravel()
        d = rng.choice(FIBER_DELTAS, grid).ravel()
        feasible = rng.random(grid) < 0.7
        if axes:
            # a wholly infeasible fiber
            corner = tuple(slice(None) if k in axes else int(rng.integers(e))
                           for k, e in enumerate(grid))
            feasible[corner] = False
        rows = np.flatnonzero(feasible)

        keep = _fiber_winners(rows, d[rows], grid, axes)
        assert np.all(np.diff(keep) > 0)
        assert self._frontiers(l_col, t, d, rows[keep]) == \
            self._frontiers(l_col, t, d, rows)

    def test_no_axes_keeps_every_row(self):
        rows = np.array([0, 3, 4])
        assert _fiber_winners(rows, np.array([1.0, np.nan, 2.0]), (2, 3),
                              []).tolist() == [0, 1, 2]


#: symbols constant within a (dp, tp, b) option block
BLOCK_SYMBOLS = frozenset(
    ("b", "dp", "tp") + tuple(sym.name for sym in HARDWARE_SYMBOLS))
#: symbols constant within a stack of stage positions
STAGE_SYMBOLS = frozenset(("s", "gacc"))
#: symbols that vary by stage position, along the menu grid's axis 0
POSITION_SYMBOLS = frozenset(("inflight", "has_pre", "has_post"))
#: symbols that vary by menu row, and the menu grid axis each lies on
ROW_AXES = {"l": 2, "ckpt": 2, "z1": 3, "z2": 3, "z3": 3,
            "wo": 4, "go": 5, "oo": 6, "ao": 7}
#: the last stage of SHAPE's pipeline: the two stack in one grid
LAST = StageShape(stage_gpus=2, gacc=4, inflight=1, has_pre=False,
                  has_post=True)


def _kernel_calls(analyzer, monkeypatch, tuner, *args, **kwargs):
    """``(kernel, env)`` of every compiled-kernel call ``tuner.tune``
    makes."""
    calls = []
    call = CompiledExpr.__call__

    def spy(fn, **env):
        calls.append((fn, env))
        return call(fn, **env)

    monkeypatch.setattr(CompiledExpr, "__call__", spy)
    tuner.tune(*args, **kwargs)
    monkeypatch.undo()
    return calls


class TestAxisFactoredMenus:
    """``tune`` prices the whole menu as one grid: each row symbol on
    its own axis, the option block's constants along the block axis,
    the stage positions' values along the position axis, so each
    kernel subexpression runs at the size of the axes it reads."""

    @pytest.mark.parametrize("stack", [[SHAPE], [SHAPE, LAST]],
                             ids=["one-position", "two-positions"])
    def test_each_row_symbol_lies_on_one_axis(self, analyzer, monkeypatch,
                                              stack):
        assert len(BLOCK_SYMBOLS) == 11 and len(ROW_AXES) == 9
        blocks = len(stage_parallelism_options(
            analyzer, SHAPE.stage_gpus, SHAPE.gacc, 16))
        assert blocks > 1
        # the quick-scale menu, so two positions fit in one grid
        tuner = (make_tuner(analyzer) if len(stack) == 1
                 else _case_tuner(analyzer, 16))
        calls = _kernel_calls(analyzer, monkeypatch, tuner, stack,
                              [10, 12, 14])

        # one memory pass over the whole menu, then one runtime call
        assert [fn for fn, _ in calls] == [analyzer._mem_fn, analyzer._fn]
        (_, memory), (_, runtime) = calls
        assert memory["b"].shape == (1, blocks) + (1,) * 6
        assert runtime.keys() == BLOCK_SYMBOLS | STAGE_SYMBOLS \
            | POSITION_SYMBOLS | ROW_AXES.keys()
        for fn, env in calls:
            for name, value in env.items():
                if name in STAGE_SYMBOLS or (name in POSITION_SYMBOLS
                                             and len(stack) == 1):
                    assert isinstance(value, np.float64), name
                elif name in POSITION_SYMBOLS:
                    assert np.shape(value) == (len(stack),) + (1,) * 7, name
                elif name in BLOCK_SYMBOLS:
                    # along the block axis, or a scalar for one block
                    assert np.shape(value) in {
                        (), (1, *(np.shape(env["b"])[1:2] or (1,)))
                        + (1,) * 6}, name
                    assert np.ndim(value) == np.ndim(env["b"]), name
                else:
                    long = [k for k, extent in enumerate(np.shape(value))
                            if extent > 1]
                    assert long == [ROW_AXES[name]], name

    def test_single_valued_axes_are_scalars(self, analyzer, monkeypatch):
        space = SPACE_MIST.with_(wo_grid=(0.0,), go_grid=(0.5,))
        shape = StageShape(stage_gpus=1, gacc=4, inflight=2, has_pre=True,
                           has_post=False)
        calls = _kernel_calls(analyzer, monkeypatch,
                              make_tuner(analyzer, space=space), [shape],
                              [12])
        [env] = [env for fn, env in calls if fn is analyzer._fn]
        for name in BLOCK_SYMBOLS | POSITION_SYMBOLS | {"wo", "go"}:
            assert isinstance(env[name], np.float64), name
        assert env["go"] == 0.5
        assert np.shape(env["oo"]) == (1, 1, 1, 1, 1, 1, 5, 1)


class TestSavedWork:
    """Counts, not times: the work axis factoring and the fiber
    reduction save on the gpt3-2.7b/L4 full-scale menus."""

    def test_gpt3_2_7b_full_scale_row_ratchet(self, monkeypatch):
        counts = dict(algorithm1=0, feasible=0, frontier_input=0)
        sweep = InterferenceModel.sweep
        predict_feasible = SymbolicPerformanceAnalyzer.predict_feasible
        pareto_rows = intra_stage._pareto_rows

        def algorithm1(model, x):
            counts["algorithm1"] += x.shape[1]
            return sweep(model, x)

        def feasible(analyzer, env, peak_mem):
            rows, pred = predict_feasible(analyzer, env, peak_mem)
            counts["feasible"] += rows.size
            return rows, pred

        def frontier(l_col, t, d):
            counts["frontier_input"] += l_col.size
            return pareto_rows(l_col, t, d)

        monkeypatch.setattr(InterferenceModel, "sweep", algorithm1)
        monkeypatch.setattr(SymbolicPerformanceAnalyzer, "predict_feasible",
                            feasible)
        monkeypatch.setattr(intra_stage, "_pareto_rows", frontier)
        GLOBAL_MENU_MEMO.clear()
        solve(TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
                        scale="full"))
        # the solve explores 5 of its 20 cells and prices ~193k rows
        assert counts["feasible"] > 150_000
        assert counts["algorithm1"] > 0
        # 4.0 when every sweep segment ran over every feasible row
        assert counts["algorithm1"] <= 1.6 * counts["feasible"]
        # 1.0 without the fiber reduction
        assert counts["frontier_input"] <= 0.25 * counts["feasible"]


# -- stacked stage positions ------------------------------------------------

#: the mixed A100 + L4 fleet of examples/mixed_a100_l4.json
MIXED_A100_L4 = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 4, "inter_node_bandwidth_gbps": 400},
        {"name": "l4", "gpu": "L4", "num_nodes": 1,
         "gpus_per_node": 4, "inter_node_bandwidth_gbps": 100},
    ],
    "inter_group_bandwidth_gbps": 100,
    "inter_group_latency_us": 25.0,
}
#: one cluster delta of each kind
MIXED_DELTAS = (
    {"ops": [{"op": "resize_group", "group": "l4", "gpus_per_node": 2}]},
    {"ops": [{"op": "degrade_link", "factor": 0.5, "link": "inter_group"}]},
    {"ops": [{"op": "add_nodes", "count": 1, "group": "a100"}]},
    {"ops": [{"op": "remove_group", "group": "a100"}]},
)
#: the paper's Table-4 GPT-3 grid on L4: (model, GPUs, global batch)
TABLE4_GRID = (
    ("gpt3-1.3b", 2, 32), ("gpt3-2.7b", 4, 64), ("gpt3-6.7b", 8, 128),
    ("gpt3-13b", 16, 256), ("gpt3-22b", 32, 512),
)


def _stack_jobs():
    """The five Table-4 quick jobs, gpt3-2.7b full, and the mixed
    fleet's base job with each delta applied."""
    jobs = [TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                      scale="quick") for model, gpus, batch in TABLE4_GRID]
    jobs.append(TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
                          scale="full"))
    base = TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-2.7b",
                                 global_batch=64, scale="smoke")
    return jobs + [base] + [delta_job(base, delta) for delta in MIXED_DELTAS]


def _cell_stacks(job):
    """``(tuner, shapes, layer counts)`` per stack of every (S, G) cell
    of ``job``'s grid: the cell's distinct positions that share a device
    group, stage GPUs and p2p link, in pipeline order. A stack that
    recurs in another cell is listed once."""
    mist = MistSolver().make_tuner(job)
    stacks = {}
    for task in mist._sg_grid(job.global_batch):
        shapes, counts = mist._cell_stages(task)
        cell = {}
        for shape in dict.fromkeys(shapes):
            cell.setdefault((shape.group, shape.stage_gpus, shape.p2p_link),
                            []).append(shape)
        for stack in cell.values():
            stacks[tuple(stack), tuple(counts)] = None
    tuners = {group: IntraStageTuner(
        analyzer, mist.space, global_batch=job.global_batch,
        seq_len=mist.seq_len) for group, analyzer in mist.analyzers.items()}
    return [(tuners[stack[0].group], list(stack), list(counts))
            for stack, counts in stacks]


def _entry_bits(entry):
    """Everything of a tuned entry, floats by ``float.hex``."""
    return (entry.evaluated, entry.prefiltered, [
        (layers, [(p.t.hex(), p.d.hex(), p.peak_mem.hex(), p.config)
                  for p in points])
        for layers, points in entry.menus.items()])


@pytest.fixture(scope="module")
def cell_stacks():
    """Every stack of :func:`_stack_jobs`, with each position's entry
    from a one-position ``tune``."""
    out = []
    for job in _stack_jobs():
        for tuner, shapes, counts in _cell_stacks(job):
            alone = [_entry_bits(tuner.tune([shape], counts)[0])
                     for shape in shapes]
            out.append((tuner, shapes, counts, alone))
    return out


class TestStackedPositions:
    """One ``tune`` call prices a stack of stage positions, and each
    position's entry is the one it gets priced alone."""

    @pytest.mark.parametrize("mode", ["cap-1-row", "unbounded", "reversed"])
    def test_stack_equals_each_position_alone(self, cell_stacks, mode,
                                              monkeypatch):
        if mode == "cap-1-row":
            monkeypatch.setattr(intra_stage, "_STACK_ROWS", 1)
        elif mode == "unbounded":
            monkeypatch.setattr(intra_stage, "_STACK_ROWS", 2**62)
        stacked = 0
        for tuner, shapes, counts, alone in cell_stacks:
            order = shapes[::-1] if mode == "reversed" else shapes
            got = dict(zip(order, tuner.tune(order, counts)))
            assert len(got) == len(shapes)
            for shape, want in zip(shapes, alone):
                assert _entry_bits(got[shape]) == want, (shape, counts)
            stacked += len(shapes) > 1
        # every job family brings stacks of more than one position
        assert stacked > 50

    def test_stacks_stay_under_the_row_cap(self, monkeypatch):
        grids = []
        predict_memory = SymbolicPerformanceAnalyzer.predict_memory

        def spy(analyzer, env):
            peak = predict_memory(analyzer, env)
            if peak.ndim == len(intra_stage._GRID_AXES):  # a menu grid
                grids.append(peak.shape)
            return peak

        monkeypatch.setattr(SymbolicPerformanceAnalyzer, "predict_memory",
                            spy)

        def search(model, gpus, batch, scale):
            grids.clear()
            job = TuningJob(model=model, num_gpus=gpus, global_batch=batch,
                            scale=scale)
            MistSolver().make_tuner(job).search(batch, memo=MenuMemo())
            assert grids
            return list(grids)

        cap = intra_stage._STACK_ROWS
        quick = [grid for job in TABLE4_GRID
                 for grid in search(*job, "quick")]
        assert all(np.prod(grid) <= cap or grid[0] == 1 for grid in quick)
        assert any(grid[0] > 1 for grid in quick)
        # full-scale menus are priced one position per call
        for job in TABLE4_GRID[:2]:
            assert {grid[0] for grid in search(*job, "full")} == {1}

    def test_repeated_position_counts_as_hit(self):
        job = TuningJob(model="gpt3-6.7b", num_gpus=8, global_batch=128,
                        scale="quick")
        mist = MistSolver().make_tuner(job)
        task = next(task for task in mist._sg_grid(128)
                    if len(set(mist._cell_stages(task)[0])) < len(task[2]))
        positions = len(task[2])
        unique = len(set(mist._cell_stages(task)[0]))
        memo = MenuMemo()
        _, cold = mist._solve_cell(128, task, memo)
        assert (cold.memo_misses, cold.memo_hits) \
            == (memo.misses, memo.hits) == (unique, positions - unique)
        _, warm = mist._solve_cell(128, task, memo)
        assert (warm.memo_misses, warm.memo_hits) == (0, positions)
        assert (warm.evaluated, warm.prefiltered) \
            == (cold.evaluated, cold.prefiltered)

    def test_shapes_must_share_a_grid(self, analyzer):
        other = dataclasses.replace(SHAPE, stage_gpus=1)
        with pytest.raises(ValueError, match="must share"):
            make_tuner(analyzer).tune([SHAPE, other], [12])
