"""Tests for the inter-stage solvers: the DP against both oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SPACE_MIST, MenuMemo, MistTuner, StageConfig
from repro.core.inter_stage import solve, solve_exact, solve_milp
from repro.core.intra_stage import ParetoPoint
from repro.evaluation.workloads import get_scale
from repro.hardware import make_cluster
from repro.models import get_model


def point(layers: int, t: float, d: float) -> ParetoPoint:
    return ParetoPoint(
        t=t, d=d, peak_mem=1.0,
        config=StageConfig(layers=layers, microbatch=1, dp=1, tp=1),
    )


def menus_from_table(table):
    """table[i][l] = [(t, d), ...] -> Menus structure."""
    menus = []
    for stage in table:
        menus.append({
            l: [point(l, t, d) for t, d in pts] for l, pts in stage.items()
        })
    return menus


class TestExactSolver:
    def test_single_stage(self):
        menus = menus_from_table([{4: [(1.0, 0.1)]}])
        sol = solve_exact(menus, 4, gacc=4)
        assert sol is not None
        assert sol.layer_counts == [4]
        # (G-1)*t + t + d = 4*1 + 0.1
        assert sol.objective == pytest.approx(4.1)

    def test_balances_layers(self):
        stage_menu = {l: [(0.5 * l, 0.0)] for l in (2, 3, 4)}
        menus = menus_from_table([stage_menu, stage_menu])
        sol = solve_exact(menus, 6, gacc=8)
        assert sorted(sol.layer_counts) == [3, 3]

    def test_infeasible_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}, {2: [(1.0, 0.0)]}])
        assert solve_exact(menus, 10, gacc=2) is None

    def test_empty_menu_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}, {}])
        assert solve_exact(menus, 4, gacc=2) is None

    def test_trades_t_against_d(self):
        """With many microbatches, pick low t; with one, pick low d."""
        menu = {4: [(1.0, 5.0), (1.3, 0.0)]}
        menus = menus_from_table([menu])
        many = solve_exact(menus, 4, gacc=64)
        assert many.choices[0].t == pytest.approx(1.0)
        few = solve_exact(menus_from_table([menu]), 4, gacc=1)
        assert few.choices[0].t == pytest.approx(1.3)


class TestMILPSolver:
    def test_matches_exact_on_small_instance(self):
        stage_menu = {
            l: [(0.4 * l, 0.2), (0.5 * l, 0.0)] for l in (2, 3, 4)
        }
        menus = menus_from_table([stage_menu, stage_menu])
        exact = solve_exact(menus, 6, gacc=4)
        milp = solve_milp(menus, 6, gacc=4)
        assert milp is not None
        assert milp.objective == pytest.approx(exact.objective, rel=1e-6)

    def test_respects_layer_budget(self):
        stage_menu = {l: [(1.0, 0.0)] for l in (1, 2, 3)}
        menus = menus_from_table([stage_menu] * 3)
        sol = solve_milp(menus, 7, gacc=2)
        assert sum(sol.layer_counts) == 7

    def test_imbalance_unaware_ignores_deltas(self):
        menu = {4: [(1.0, 9.0), (1.4, 0.0)]}
        menus = menus_from_table([menu])
        aware = solve_milp(menus, 4, gacc=2, imbalance_aware=True)
        unaware = solve_milp(menus, 4, gacc=2, imbalance_aware=False)
        assert aware.choices[0].t == pytest.approx(1.4)
        assert unaware.choices[0].t == pytest.approx(1.0)

    def test_infeasible_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}])
        assert solve_milp(menus, 9, gacc=2) is None

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_stages=st.integers(min_value=1, max_value=3),
        gacc=st.integers(min_value=1, max_value=16),
    )
    def test_milp_equals_exact_property(self, seed, num_stages, gacc):
        """On random small instances the MILP is exactly optimal."""
        rng = np.random.default_rng(seed)
        layer_options = [2, 3, 4]
        table = []
        for _ in range(num_stages):
            stage = {}
            for l in layer_options:
                pts = [
                    (float(rng.uniform(0.1, 2.0) * l),
                     float(rng.uniform(0.0, 3.0)))
                    for _ in range(rng.integers(1, 3))
                ]
                stage[l] = pts
            table.append(stage)
        total = int(rng.integers(num_stages * 2, num_stages * 4 + 1))
        menus_a = menus_from_table(table)
        menus_b = menus_from_table(table)
        exact = solve_exact(menus_a, total, gacc)
        milp = solve_milp(menus_b, total, gacc)
        if exact is None:
            assert milp is None
        else:
            assert milp is not None
            assert milp.objective == pytest.approx(exact.objective, rel=1e-6)


@st.composite
def instances(draw, values):
    """(menus, total_layers): every stage offers the same layer counts.

    Each (stage, layer count) offers up to 4 points, so one parent's
    options of one layer count — a run of the DP's prefilter — hold up
    to 4 labels. The points are either as drawn or frontier-shaped:
    ``t`` ascending and ``d`` descending, as intra-stage tuning emits
    them, which is where the prefilter drops labels.
    """
    num_stages = draw(st.integers(1, 3))
    layer_counts = sorted(draw(st.sets(st.sampled_from((1, 2, 3, 4)),
                                       min_size=1, max_size=3)))
    frontier = draw(st.booleans())

    def points():
        pts = draw(st.lists(st.tuples(values, values), min_size=1,
                            max_size=4))
        if frontier:
            pts = list(zip(sorted(t for t, _ in pts),
                           sorted((d for _, d in pts), reverse=True)))
        return pts

    table = [{l: points() for l in layer_counts}
             for _ in range(num_stages)]
    total = draw(st.integers(num_stages * layer_counts[0],
                             num_stages * layer_counts[-1]))
    return menus_from_table(table), total


INTEGER = st.integers(0, 4).map(float)
CONTINUOUS = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


class TestLabelSettingDP:
    """``solve`` (the tuner's solver) against both oracles."""

    @settings(max_examples=300, deadline=None)
    @given(instance=instances(values=INTEGER),
           gacc=st.integers(1, 6), imbalance_aware=st.booleans())
    def test_same_choices_as_exact_on_integer_menus(
            self, instance, gacc, imbalance_aware):
        # integer-valued menus: every sum is exact and ties are common,
        # so the pick among tied optima is what is under test
        menus, total = instance
        dp = solve(menus, total, gacc, imbalance_aware=imbalance_aware)
        exact = solve_exact(menus, total, gacc, imbalance_aware)
        if exact is None:
            assert dp is None
            return
        assert dp is not None
        assert dp.objective == exact.objective
        assert len(dp.choices) == len(exact.choices)
        assert all(a is b for a, b in zip(dp.choices, exact.choices))

    @settings(max_examples=200, deadline=None)
    @given(instance=instances(values=CONTINUOUS), gacc=st.integers(1, 16))
    def test_objective_equals_exact_on_continuous_menus(self, instance, gacc):
        menus, total = instance
        dp = solve(menus, total, gacc)
        exact = solve_exact(menus, total, gacc)
        if exact is None:
            assert dp is None
        else:
            assert dp.objective == pytest.approx(exact.objective, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), num_stages=st.integers(2, 8),
           gacc=st.integers(1, 32))
    def test_objective_equals_milp_on_larger_menus(self, seed, num_stages,
                                                   gacc):
        rng = np.random.default_rng(seed)
        table = [{l: [(float(rng.uniform(0.1, 2.0) * l),
                       float(rng.uniform(0.0, 3.0))) for _ in range(8)]
                  for l in range(3, 8)}
                 for _ in range(num_stages)]
        total = int(rng.integers(3 * num_stages, 7 * num_stages + 1))
        menus = menus_from_table(table)
        dp = solve(menus, total, gacc)
        milp = solve_milp(menus, total, gacc)
        assert dp is not None and milp is not None
        assert sum(dp.layer_counts) == total
        assert dp.objective == pytest.approx(milp.objective, rel=1e-9)

    def test_tie_resolves_to_first_option_in_menu_order(self):
        # identical stages, 3 layers: (a, c) and (b, c) both cost 9.
        # After stage 0, b's label (M=1, E=2) beats a's (2, 2), so plain
        # Pareto pruning would keep only b; a comes first in menu order
        # and must survive to be picked.
        stage_menu = {1: [(2.0, 0.0), (1.0, 1.0)], 2: [(3.0, 3.0)]}
        menus = menus_from_table([stage_menu, stage_menu])
        sol = solve(menus, 3, gacc=2)
        assert sol.objective == 9.0
        assert sol.choices[0] is menus[0][1][0]
        assert sol.choices[1] is menus[1][2][0]
        exact = solve_exact(menus, 3, gacc=2)
        assert all(a is b for a, b in zip(sol.choices, exact.choices))

    def test_empty_or_infeasible_returns_none(self):
        assert solve(menus_from_table([{2: [(1.0, 0.0)]}, {}]), 4, 2) is None
        assert solve(menus_from_table([{2: [(1.0, 0.0)]}] * 2), 5, 2) is None

    def test_never_reaches_the_milp_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.optimize.milp called")

        # solve_milp imports milp when called, so patch it at the source
        monkeypatch.setattr("scipy.optimize.milp", forbidden)
        stage_menu = {l: [(0.1 * l + 0.01 * k, 0.02 * k) for k in range(8)]
                      for l in range(2, 12)}
        sol = solve(menus_from_table([stage_menu] * 4), 24, 8)
        assert sol is not None and sum(sol.layer_counts) == 24
        scale = get_scale("smoke")
        tuner = MistTuner(get_model("gpt3-1.3b"), make_cluster("L4", 1, 4),
                          seq_len=2048, space=scale.apply(SPACE_MIST),
                          max_gacc_candidates=scale.max_gacc_candidates)
        assert tuner.search(16, memo=MenuMemo()).found
