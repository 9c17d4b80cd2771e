"""Tests for the intra-stage tuner and Pareto frontier extraction."""

import numpy as np
import pytest

from repro.core import SPACE_3D, SPACE_MIST, SymbolicPerformanceAnalyzer
from repro.core.intra_stage import IntraStageTuner, StageShape, _pareto_rows
from repro.evaluation import SCALES
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
        menus = tuner.tune(SHAPE, [10, 12, 14])
        assert set(menus) == {10, 12, 14}
        assert any(menus.values())

    def test_counts_evaluated_configs(self, analyzer):
        tuner = make_tuner(analyzer)
        tuner.tune(SHAPE, [12])
        assert tuner.evaluated > 100

    def test_bigger_space_evaluates_more(self, analyzer):
        small = make_tuner(analyzer, space=SPACE_3D)
        big = make_tuner(analyzer, space=SPACE_MIST)
        small.tune(SHAPE, [12])
        big.tune(SHAPE, [12])
        assert big.evaluated > small.evaluated

    def test_microbatch_follows_dp(self, analyzer):
        tuner = make_tuner(analyzer, global_batch=16)
        menus = tuner.tune(StageShape(stage_gpus=4, gacc=4, inflight=1,
                                      has_pre=True, has_post=True), [24])
        for point in menus[24]:
            cfg = point.config
            assert cfg.dp * cfg.microbatch * 4 == 16

    def test_infeasible_batch_yields_empty(self, analyzer):
        # global batch 3 cannot split over gacc=2
        tuner = make_tuner(analyzer, global_batch=3)
        menus = tuner.tune(StageShape(stage_gpus=2, gacc=2, inflight=1,
                                      has_pre=True, has_post=True), [24])
        assert menus[24] == []


class TestParetoFrontier:
    def test_frontier_is_nondominated(self, analyzer):
        tuner = make_tuner(analyzer)
        menus = tuner.tune(SHAPE, [12])
        points = menus[12]
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
        points = tuner.tune(SHAPE, [12])[12]
        ts = [p.t for p in points]
        assert ts == sorted(ts)

    def test_memory_respected(self, analyzer):
        tuner = make_tuner(analyzer)
        for points in tuner.tune(SHAPE, [10, 12]).values():
            for point in points:
                assert point.peak_mem <= analyzer.memory_budget

    def test_full_ckpt_policy_forces_recompute(self, analyzer):
        space = SPACE_3D.with_(name="full", ckpt_policy="full")
        tuner = make_tuner(analyzer, space=space)
        points = tuner.tune(SHAPE, [12])[12]
        assert points
        for point in points:
            assert point.config.ckpt == point.config.layers

    def test_auto_policy_is_full_or_none(self, analyzer):
        tuner = make_tuner(analyzer, space=SPACE_3D)
        points = tuner.tune(SHAPE, [12])[12]
        for point in points:
            assert point.config.ckpt in (0, point.config.layers)


#: (shape, layer counts) whose quick-scale menus mix memory-feasible and
#: over-budget rows
BRUTE_FORCE_CASES = [
    (SHAPE, [10, 12, 14]),
    (StageShape(stage_gpus=1, gacc=1, inflight=1, has_pre=True,
                has_post=True), [24]),
    (StageShape(stage_gpus=1, gacc=2, inflight=4, has_pre=True,
                has_post=False), [16, 20]),
    (StageShape(stage_gpus=4, gacc=2, inflight=1, has_pre=True,
                has_post=True), [24]),
]


def _full_menu(analyzer, tuner, shape, layer_counts, monkeypatch):
    """Every row of the menu as ``(l, t, d, peak_mem)`` arrays."""
    seen = []
    predict_blocks = analyzer.predict_blocks

    def spy(envs):
        pred = predict_blocks(envs)
        seen.append((np.concatenate([env["l"] for env in envs]), pred))
        return pred

    monkeypatch.setattr(analyzer, "predict_blocks", spy)
    tuner.tune(shape, layer_counts, prefilter=False)
    monkeypatch.undo()
    [(l_col, pred)] = seen
    return (l_col.astype(int), np.asarray(pred.t_stable),
            np.asarray(pred.delta), np.asarray(pred.peak_mem))


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
    """The whole non-dominated set reaches the inter-stage solve."""

    @pytest.mark.parametrize("prefilter", [False, True])
    @pytest.mark.parametrize("case", range(len(BRUTE_FORCE_CASES)))
    def test_matches_brute_force(self, analyzer, monkeypatch, case,
                                 prefilter):
        shape, layer_counts = BRUTE_FORCE_CASES[case]
        space = SCALES["quick"].apply(SPACE_MIST)
        menu = _full_menu(analyzer, make_tuner(analyzer, space=space),
                          shape, layer_counts, monkeypatch)
        expected = _brute_force_frontier(*menu, analyzer.memory_budget)
        menus = make_tuner(analyzer, space=space).tune(
            shape, layer_counts, prefilter=prefilter)
        assert set(menus) == set(layer_counts)
        for layers in layer_counts:
            got = [(p.t, p.d) for p in menus[layers]]
            # one point per (t, d) pair, in ascending-t order
            assert got == expected.get(layers, []), (case, layers)

    def test_cases_carry_over_budget_rows(self, analyzer, monkeypatch):
        space = SCALES["quick"].apply(SPACE_MIST)
        over = 0
        for shape, layer_counts in BRUTE_FORCE_CASES:
            *_, mem = _full_menu(analyzer, make_tuner(analyzer, space=space),
                                 shape, layer_counts, monkeypatch)
            over += int((mem > analyzer.memory_budget).sum())
        assert over > 0

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


#: symbols constant within a (dp, tp, b) option block
BLOCK_SYMBOLS = frozenset(
    ("b", "s", "dp", "tp", "gacc", "inflight", "has_pre", "has_post")
    + tuple(sym.name for sym in HARDWARE_SYMBOLS))
#: symbols that vary by menu row
ROW_SYMBOLS = frozenset(
    ("l", "ckpt", "z1", "z2", "z3", "wo", "go", "oo", "ao"))


class TestBlockScalars:
    """``tune`` hands each option block's constants to the compiled
    kernels as scalars, so block-constant work runs once per block."""

    @pytest.mark.parametrize("prefilter", [False, True])
    def test_kernels_receive_block_constants_as_scalars(
            self, analyzer, monkeypatch, prefilter):
        assert len(BLOCK_SYMBOLS) == 16 and len(ROW_SYMBOLS) == 9
        calls = []
        call = CompiledExpr.__call__

        def spy(fn, **env):
            calls.append((fn, env))
            return call(fn, **env)

        monkeypatch.setattr(CompiledExpr, "__call__", spy)
        make_tuner(analyzer).tune(SHAPE, [10, 12, 14], prefilter=prefilter)
        monkeypatch.undo()

        runtime = [env for fn, env in calls if fn is analyzer._fn]
        assert len(runtime) > 1, "expected one runtime call per block"
        assert runtime[0].keys() == BLOCK_SYMBOLS | ROW_SYMBOLS
        if prefilter:
            assert any(fn is analyzer._mem_fn for fn, _ in calls)
        for fn, env in calls:
            for name, value in env.items():
                if name in BLOCK_SYMBOLS:
                    assert np.ndim(value) == 0, name
                    assert isinstance(value, np.float64), name
                else:
                    assert np.ndim(value) == 1, name
