"""The inter-stage DP's dominance filter and final pick against the
forms they replaced.

:func:`repro.core.inter_stage._undominated` drops the labels an earlier
label of their own run dominates, then compares only the survivors pair
by pair; :func:`repro.core.inter_stage.solve` re-prices its final labels
in one row-wise Eq. (1). The references below are what they replaced,
kept verbatim: a pairwise mask per state group, and a ``_price`` call
per final label keeping the first strict minimum. The masks must be
equal on every input — exact ties, signed zeros, infinities, NaN, runs
whose bottleneck decreases — and the re-priced objective bit-equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TuningJob, solve
from repro.core import StageConfig, inter_stage
from repro.core.inter_stage import (_cheapest, _price, _run_prefilter,
                                    _undominated)
from repro.core.intra_stage import ParetoPoint
from repro.core.memo import GLOBAL_MENU_MEMO
from repro.core.objectives import pipeline_iteration_time_rows


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def reference_undominated(state: np.ndarray, bottleneck: np.ndarray,
                          exposed: np.ndarray) -> np.ndarray:
    """Mask of labels no *earlier* label at the same state dominates.

    Labels arrive in lexicographic path order. Label ``b`` is dropped
    when some label ``a`` before it at the same state has
    ``bottleneck_a <= bottleneck_b`` and ``exposed_a <= exposed_b``:
    every completion of ``b`` then costs at least as much as the same
    completion of ``a``, whose path is lexicographically smaller.
    Dominance is transitive, so comparing against every earlier label
    (kept or not) gives the same mask as comparing against kept ones.
    """
    keep = np.ones(len(state), dtype=bool)
    order = np.argsort(state, kind="stable")
    cuts = np.flatnonzero(np.diff(state[order])) + 1
    for group in np.split(order, cuts):
        if len(group) < 2:
            continue
        m, e = bottleneck[group], exposed[group]
        # dominated[a, b]: a is no worse than b on both label components
        dominated = (m[:, None] <= m[None, :]) & (e[:, None] <= e[None, :])
        earlier = np.tri(len(group), k=-1, dtype=bool).T
        keep[group] = ~(dominated & earlier).any(axis=0)
    return keep


def reference_pick(rows: list[list[ParetoPoint]], gacc: int,
                   imbalance_aware: bool) -> tuple[int, float]:
    """The per-label loop ``solve`` ran: the first strict minimum."""
    best, best_objective = -1, 0.0
    for k, choices in enumerate(rows):
        objective = _price(choices, gacc, imbalance_aware)
        if best < 0 or objective < best_objective:
            best, best_objective = k, objective
    return best, best_objective


# ---------------------------------------------------------------------------
# the dominance filter
# ---------------------------------------------------------------------------

#: label components: ties, signed zeros, infinities and NaN are common
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def runs(draw):
    """One stretch of labels sharing a run key and a state.

    Its bottleneck is sorted (as a frontier-shaped menu yields) or as
    drawn, so some runs decrease; adjacent stretches with equal key and
    state join into one.
    """
    size = draw(st.integers(1, 6))
    m = draw(st.lists(COMPONENT, min_size=size, max_size=size))
    if draw(st.booleans()):
        m = sorted(m, key=lambda v: (np.isnan(v), v))
    e = draw(st.lists(COMPONENT, min_size=size, max_size=size))
    return draw(st.integers(0, 2)), draw(st.integers(0, 3)), m, e


def concat(parts):
    run = np.concatenate([np.full(len(m), key) for key, _, m, _ in parts])
    state = np.concatenate([np.full(len(m), s, dtype=np.int64)
                            for _, s, m, _ in parts])
    m = np.concatenate([np.asarray(m, dtype=float) for _, _, m, _ in parts])
    e = np.concatenate([np.asarray(e, dtype=float) for _, _, _, e in parts])
    return state, run, m, e


class TestDominanceDifferential:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(parts=st.lists(runs(), min_size=1, max_size=12))
    def test_mask_equals_pairwise_reference(self, parts):
        state, run, m, e = concat(parts)
        expected = reference_undominated(state, m, e)
        assert np.array_equal(_undominated(state, run, m, e), expected)
        # the prefilter alone is sound: it drops no label the reference keeps
        assert not (expected & ~_run_prefilter(state, run, m, e)).any()

    def test_exact_ties_keep_only_the_first(self):
        state, run, m, e = concat([(0, 1, [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
                                   (1, 1, [1.0], [2.0])])
        assert _undominated(state, run, m, e).tolist() == [
            True, False, False, False]

    def test_decreasing_bottleneck_is_not_a_dominator(self):
        # the second label's E is lower, the third's M is: no one dominates
        state, run, m, e = concat([(0, 0, [3.0, 3.0, 1.0], [2.0, 1.0, 5.0])])
        assert _undominated(state, run, m, e).tolist() == [True, True, True]
        assert reference_undominated(state, m, e).tolist() == [
            True, True, True]

    def test_nan_neither_dominates_nor_is_dominated(self):
        nan = np.nan
        state, run, m, e = concat([(0, 0, [1.0, 1.0, 2.0, nan, 3.0],
                                    [nan, 4.0, 5.0, 0.0, nan])])
        expected = reference_undominated(state, m, e)
        assert expected.tolist() == [True, True, False, True, True]
        assert np.array_equal(_undominated(state, run, m, e), expected)

    def test_infinities(self):
        inf = np.inf
        state, run, m, e = concat([(0, 0, [-inf, 1.0, inf, inf],
                                    [inf, inf, -inf, -inf])])
        expected = reference_undominated(state, m, e)
        assert expected.tolist() == [True, False, True, False]
        assert np.array_equal(_undominated(state, run, m, e), expected)

    def test_replays_every_dp_call_of_a_cold_13b_quick_solve(self,
                                                             monkeypatch):
        calls = []
        undominated = inter_stage._undominated

        def spy(state, run, bottleneck, exposed):
            keep = undominated(state, run, bottleneck, exposed)
            calls.append((state.copy(), bottleneck.copy(), exposed.copy(),
                          keep.copy()))
            return keep

        monkeypatch.setattr(inter_stage, "_undominated", spy)
        GLOBAL_MENU_MEMO.clear()
        report = solve(TuningJob(model="gpt3-13b", num_gpus=16,
                                 global_batch=256, scale="quick"))
        assert report.plan is not None
        assert sum(len(state) for state, *_ in calls) > 10_000
        for state, bottleneck, exposed, keep in calls:
            assert np.array_equal(
                keep, reference_undominated(state, bottleneck, exposed))


# ---------------------------------------------------------------------------
# the final pick
# ---------------------------------------------------------------------------

def option(t: float, d: float) -> ParetoPoint:
    return ParetoPoint(t=t, d=d, peak_mem=1.0,
                       config=StageConfig(layers=1, microbatch=1, dp=1, tp=1))


class TestFinalPick:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), num_stages=st.integers(1, 12),
           num_rows=st.integers(1, 40), integer=st.booleans(),
           special=st.booleans(), gacc=st.integers(1, 32),
           imbalance_aware=st.booleans())
    def test_row_wise_price_matches_the_price_loop(
            self, seed, num_stages, num_rows, integer, special, gacc,
            imbalance_aware):
        # integer menus make tied objectives common; ``special`` mixes
        # in infinities and NaN
        rng = np.random.default_rng(seed)

        def value() -> float:
            if special and rng.random() < 0.05:
                return float(rng.choice([np.inf, np.nan]))
            if integer:
                return float(rng.integers(0, 4))
            return float(rng.uniform(0.0, 3.0) * 10.0 ** rng.integers(-3, 4))

        menus = [[option(value(), value())
                  for _ in range(rng.integers(1, 5))]
                 for _ in range(num_stages)]
        picks = np.stack([rng.integers(0, len(menu), num_rows)
                          for menu in menus], axis=1)
        rows = [[menus[i][o] for i, o in enumerate(row)] for row in picks]
        t = np.array([[p.t for p in row] for row in rows])
        d = np.array([[p.d for p in row] for row in rows])
        if not imbalance_aware:
            d = np.zeros_like(d)

        with np.errstate(invalid="ignore"):  # inf - inf
            priced = pipeline_iteration_time_rows(t, d, gacc)
            expected = [_price(row, gacc, imbalance_aware).hex()
                        for row in rows]
            best, objective = _cheapest(t, d, gacc)
            expected_best, expected_objective = reference_pick(
                rows, gacc, imbalance_aware)
        assert [float(v).hex() for v in priced] == expected
        assert best == expected_best
        assert objective.hex() == expected_objective.hex()

    def test_a_nan_first_row_is_kept(self):
        t = np.array([[np.nan], [1.0]])
        assert _cheapest(t, np.zeros_like(t), 2)[0] == 0

    def test_ties_resolve_to_the_first_row(self):
        t = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
        d = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]])
        assert _cheapest(t, d, 1) == (2, 2.0)


# ---------------------------------------------------------------------------
# saved work
# ---------------------------------------------------------------------------

class TestSavedWork:
    """Counts, not times: the run prefilter leaves the pairwise check a
    small share of the DP's candidate labels on a deep pipeline."""

    def test_gpt3_22b_quick_label_ratchet(self, monkeypatch):
        counts = dict(candidates=0, pairwise=0)
        undominated = inter_stage._undominated
        pairwise = inter_stage._pairwise_undominated

        def candidates(state, run, bottleneck, exposed):
            counts["candidates"] += len(state)
            return undominated(state, run, bottleneck, exposed)

        def survivors(state, bottleneck, exposed):
            counts["pairwise"] += len(state)
            return pairwise(state, bottleneck, exposed)

        monkeypatch.setattr(inter_stage, "_undominated", candidates)
        monkeypatch.setattr(inter_stage, "_pairwise_undominated", survivors)
        GLOBAL_MENU_MEMO.clear()
        solve(TuningJob(model="gpt3-22b", num_gpus=32, global_batch=512,
                        scale="quick"))
        assert counts["candidates"] > 50_000
        # 1.0 without the run prefilter (0.098 when this was written)
        assert counts["pairwise"] <= 0.15 * counts["candidates"]
