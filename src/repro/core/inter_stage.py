"""Inter-stage tuning: the imbalance-aware partition of paper Eq. 2/3.

Given, for every stage position ``i`` and candidate layer count ``l``, a
menu of Pareto points ``(t, d)`` from intra-stage tuning, choose one
``(l_i, f_i)`` per stage such that layer counts sum to the model depth
and

    (G-1) * max_i t_i  +  sum_i t_i  +  max_i (d_i - sum_{j<i} t_j)

is minimized (the exposed-delta term clamped at zero).

The paper hands this to an off-the-shelf MILP solver. Here
:func:`solve` — the only solver the tuner calls — is an exact,
deterministic label-setting dynamic program over (stage, layers used):
no wall-clock limit, and ties resolve to the first optimum in
lexicographic menu order, the same pick as :func:`solve_exact`. Its
cost follows the labels that can survive, not the square of the
candidates: a vectorized pass drops every candidate label that an
earlier label of its own *run* (one parent, one layer count, menu
order) dominates, and only the survivors are compared pair by pair —
the same mask as comparing all pairs, because dominance is transitive.
The surviving final labels are re-priced in one row-wise Eq. (1). Two
test oracles stay beside it, outside :mod:`repro.core`'s public names:
:func:`solve_exact` enumerates every assignment, and :func:`solve_milp`
is the paper's binary MILP solved by scipy's HiGHS backend. Only
:func:`solve_milp` imports scipy, when it is called, so the tuner runs
without it. :func:`objective_floors` is the tuner's (S, G) cell bound,
one DP per pipeline depth: the same objective with every delta at zero
over per-stage time floors, minimised exactly over layer assignments.

Heterogeneous clusters extend the stage partition with a *device-group
assignment*: every pipeline stage is pinned to one
:class:`~repro.hardware.topology.DeviceGroup` (contiguously, in group
order), and its menu of Pareto points is produced by that group's
analyzer — so each ``(t, d)`` option already reflects the group's
calibrated cost model and memory budget. The solve itself is unchanged:
it only sees per-stage menus, which now differ per group.
:func:`group_stage_assignments` enumerates the candidate assignments
the outer tuner loops over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.hardware import DeviceGroup, HeterogeneousCluster

from .intra_stage import ParetoPoint
from .objectives import pipeline_iteration_time, pipeline_iteration_time_rows

__all__ = [
    "InterStageSolution",
    "StageSlot",
    "group_stage_assignments",
    "objective_floors",
    "solve",
    "solve_milp",
    "solve_exact",
]

def objective_floors(floors: np.ndarray, layer_counts: list[int],
                     total_layers: int, gaccs: list[int]) -> np.ndarray:
    """Least Eq. (1) with every delta at zero, ``(G-1) * max_i f_i +
    sum_i f_i``, for each cell of a batch of one pipeline depth.

    ``floors[c, i, k]`` is cell ``c``'s stage ``i`` time with
    ``layer_counts[k]`` layers and ``gaccs[c]`` its ``G``; the minimum
    runs over one layer count per stage, summing to ``total_layers``
    (``inf`` when none does). A min-plus DP per bottleneck candidate
    ``M`` (each distinct floor of the cell): ``least[c, m, u]`` is the
    least ``sum f_i`` placing ``u`` layers with every ``f_i <= M_m``.
    The optimum's bottleneck is a candidate, and any row's ``(G-1) *
    M_m + sum`` is no less than its path's Eq. (1), so the least row is
    the exact minimum. Sums accumulate in stage order, as a path's own
    does, so a cell gets the same bits alone as in a batch.
    """
    # a cell's distinct floors, ascending, then its largest repeated
    # (an inf pad would give 0 * inf at G = 1)
    flat = np.sort(floors.reshape(len(floors), -1), axis=1)
    repeat = np.pad(flat[:, 1:] == flat[:, :-1], ((0, 0), (1, 0)))
    values = np.sort(np.where(repeat, flat[:, -1:], flat), axis=1)
    values = values[:, :int((~repeat).sum(axis=1).max(initial=0))]
    above = values[:, :, None, None] < floors[:, None]
    least = np.full(values.shape + (total_layers + 1,), np.inf)
    least[:, :, 0] = 0.0
    for stage in range(floors.shape[1]):
        step = np.full_like(least, np.inf)
        for k, layers in enumerate(layer_counts):
            if layers > total_layers:
                continue
            reach = (least[:, :, :total_layers + 1 - layers]
                     + floors[:, stage, k, None, None])
            np.copyto(reach, np.inf, where=above[:, :, stage, k, None])
            np.minimum(step[:, :, layers:], reach, out=step[:, :, layers:])
        least = step
    gacc = np.asarray(gaccs, dtype=np.float64)[:, None]
    objective = (gacc - 1) * values + least[:, :, total_layers]
    return objective.min(axis=1, initial=np.inf)


class StageSlot(NamedTuple):
    """One pipeline-stage position of a heterogeneous assignment."""

    group: str
    stage_gpus: int


def group_stage_assignments(cluster: HeterogeneousCluster,
                            max_total_stages: int,
                            ) -> list[tuple[StageSlot, ...]]:
    """Candidate stage -> device-group assignments for a mixed fleet.

    Every group hosts at least one stage; a group with ``n`` GPUs may
    host any stage count dividing ``n`` (each of its stages then owns
    ``n / s`` GPUs, the contiguous-range rule applied per group). The
    pipeline traverses groups in declaration order *or* reverse order —
    which end hosts the embedding/LM-head stages matters, so both
    directions are enumerated. Assignments longer than
    ``max_total_stages`` (the model depth) are dropped.
    """
    def options(group: DeviceGroup) -> list[int]:
        return [s for s in range(1, group.total_gpus + 1)
                if group.total_gpus % s == 0]

    assignments: list[tuple[StageSlot, ...]] = []
    seen: set[tuple[StageSlot, ...]] = set()
    orders = [cluster.groups]
    if len(cluster.groups) > 1:
        orders.append(tuple(reversed(cluster.groups)))
    for order in orders:
        for counts in itertools.product(*(options(g) for g in order)):
            if sum(counts) > max_total_stages:
                continue
            assignment = tuple(
                StageSlot(group=g.name, stage_gpus=g.total_gpus // s)
                for g, s in zip(order, counts)
                for _ in range(s)
            )
            if assignment not in seen:
                seen.add(assignment)
                assignments.append(assignment)
    return assignments

Menus = list[dict[int, list[ParetoPoint]]]
"""menus[i][l] -> Pareto points of stage i with l layers."""


@dataclass
class InterStageSolution:
    """Chosen (layer count, Pareto point) per stage, plus the objective."""

    objective: float
    choices: list[ParetoPoint]

    @property
    def layer_counts(self) -> list[int]:
        return [point.config.layers for point in self.choices]


def _flatten(menus: Menus) -> list[list[tuple[int, ParetoPoint]]]:
    """menus -> per-stage option lists [(l, point), ...]."""
    options = []
    for stage_menu in menus:
        stage_options = [
            (l, point)
            for l, points in sorted(stage_menu.items())
            for point in points
        ]
        options.append(stage_options)
    return options


def _price(choices: list[ParetoPoint], gacc: int,
           imbalance_aware: bool) -> float:
    """Eq. (1) for one pick per stage — the oracles' final objective
    (:func:`solve` prices its final labels with the bit-equal
    :func:`~repro.core.objectives.pipeline_iteration_time_rows`)."""
    t = np.array([p.t for p in choices])
    d = np.array([p.d for p in choices])
    if not imbalance_aware:
        d = np.zeros_like(d)
    return pipeline_iteration_time(t, d, gacc)


def solve_exact(menus: Menus, total_layers: int, gacc: int,
                imbalance_aware: bool = True) -> InterStageSolution | None:
    """Exhaustive enumeration (exponential; a test oracle for :func:`solve`).

    Keeps the first strict minimum in ``itertools.product`` order over
    :func:`_flatten` — the tie-break :func:`solve` reproduces.
    """
    options = _flatten(menus)
    if any(not opts for opts in options):
        return None
    best: InterStageSolution | None = None
    for combo in itertools.product(*options):
        if sum(l for l, _ in combo) != total_layers:
            continue
        choices = [p for _, p in combo]
        objective = _price(choices, gacc, imbalance_aware)
        if best is None or objective < best.objective:
            best = InterStageSolution(objective=objective, choices=choices)
    return best


def solve_milp(menus: Menus, total_layers: int, gacc: int,
               imbalance_aware: bool = True,
               time_limit: float = 30.0) -> InterStageSolution | None:
    """Eq. (2) as a binary MILP solved by HiGHS (a test oracle).

    Variables: ``x[i, o]`` (stage ``i`` picks option ``o``), plus the
    bottleneck time ``T`` and the exposed-delta bound ``Z``. Among tied
    optima the pick is HiGHS's, and a run that hits ``time_limit``
    returns ``None`` — which is why the tuner uses :func:`solve`.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    options = _flatten(menus)
    if any(not opts for opts in options):
        return None
    num_stages = len(options)
    offsets = np.cumsum([0] + [len(opts) for opts in options])
    n_x = int(offsets[-1])
    n_vars = n_x + 2  # + T, Z
    iT, iZ = n_x, n_x + 1

    t_coef = np.concatenate([
        np.array([p.t for _, p in opts]) for opts in options
    ])
    d_coef = np.concatenate([
        np.array([p.d for _, p in opts]) for opts in options
    ])
    l_coef = np.concatenate([
        np.array([l for l, _ in opts], dtype=float) for opts in options
    ])
    if not imbalance_aware:
        d_coef = np.zeros_like(d_coef)

    # objective: (G-1) T + sum_i t_i + Z
    c = np.zeros(n_vars)
    c[:n_x] = t_coef
    c[iT] = gacc - 1
    c[iZ] = 1.0

    constraints = []

    # one option per stage
    a_pick = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_pick[i, offsets[i]:offsets[i + 1]] = 1.0
    constraints.append(LinearConstraint(a_pick.tocsr(), 1.0, 1.0))

    # layer counts sum to the model depth
    a_layers = lil_matrix((1, n_vars))
    a_layers[0, :n_x] = l_coef
    constraints.append(
        LinearConstraint(a_layers.tocsr(), total_layers, total_layers)
    )

    # T >= t_i for every stage
    a_bottleneck = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_bottleneck[i, offsets[i]:offsets[i + 1]] = -t_coef[
            offsets[i]:offsets[i + 1]
        ]
        a_bottleneck[i, iT] = 1.0
    constraints.append(LinearConstraint(a_bottleneck.tocsr(), 0.0, np.inf))

    # Z >= d_i - sum_{j<i} t_j for every stage
    a_delta = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_delta[i, offsets[i]:offsets[i + 1]] = -d_coef[
            offsets[i]:offsets[i + 1]
        ]
        for j in range(i):
            a_delta[i, offsets[j]:offsets[j + 1]] = t_coef[
                offsets[j]:offsets[j + 1]
            ]
        a_delta[i, iZ] = 1.0
    constraints.append(LinearConstraint(a_delta.tocsr(), 0.0, np.inf))

    integrality = np.concatenate([np.ones(n_x), np.zeros(2)])
    bounds = Bounds(
        lb=np.zeros(n_vars),
        ub=np.concatenate([np.ones(n_x), [np.inf, np.inf]]),
    )

    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        # HiGHS stops within 0.01% of the optimum by default; an oracle
        # must not
        options={"time_limit": time_limit, "presolve": True,
                 "mip_rel_gap": 0.0},
    )
    if not result.success or result.x is None:
        return None

    choices: list[ParetoPoint] = []
    for i in range(num_stages):
        slice_x = result.x[offsets[i]:offsets[i + 1]]
        picked = int(np.argmax(slice_x))
        if slice_x[picked] < 0.5:
            return None  # infeasible relaxation artefact
        choices.append(options[i][picked][1])

    # Recompute the objective exactly (guards against MILP tolerance).
    return InterStageSolution(
        objective=_price(choices, gacc, imbalance_aware), choices=choices)


def _run_prefilter(state: np.ndarray, run: np.ndarray,
                   bottleneck: np.ndarray, exposed: np.ndarray) -> np.ndarray:
    """Sound first pass of :func:`_undominated`: drops only labels that
    an earlier label of their own *run* dominates.

    A run is a stretch of consecutive labels with one ``run`` key, one
    state and a bottleneck that never decreases; in :func:`solve` it is
    one parent label extended by the options of one layer count, in menu
    order (every menu frontier lists its points by ascending ``t``, and
    ``max(M, t)`` keeps that order). A decrease (an unsorted menu, or a
    NaN) starts a new run. Each earlier label of a run is no worse on
    ``M``, so label ``b`` has an earlier dominator in its run exactly
    when the least ``E`` before it in the run is ``<= E_b``: one
    segmented running minimum.
    """
    n = len(state)
    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = ((run[1:] != run[:-1]) | (state[1:] != state[:-1])
                | ~(bottleneck[1:] >= bottleneck[:-1]))
    run_of = np.cumsum(head) - 1
    pos = np.arange(n) - np.flatnonzero(head)[run_of]
    # one row per run: the least E up to each position (fmin skips NaN)
    least = np.full((run_of[-1] + 1, pos.max() + 1), np.nan)
    least[run_of, pos] = exposed
    np.fmin.accumulate(least, axis=1, out=least)
    inner = np.flatnonzero(~head)  # labels with an earlier label in their run
    keep = np.ones(n, dtype=bool)
    keep[inner] = ~(least[run_of[inner], pos[inner] - 1] <= exposed[inner])
    return keep


def _pairwise_undominated(state: np.ndarray, bottleneck: np.ndarray,
                          exposed: np.ndarray) -> np.ndarray:
    """Mask of labels no earlier label at the same state dominates,
    checked pair by pair.

    Every (earlier, later) pair within a state group is formed at once,
    so the work is the sum of ``n_g (n_g - 1) / 2`` over the groups with
    no loop over them.
    """
    order = np.argsort(state, kind="stable")
    grouped = state[order]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    head[1:] = grouped[1:] != grouped[:-1]
    start = np.flatnonzero(head)[np.cumsum(head) - 1]
    earlier = np.arange(len(order)) - start  # earlier labels in the group
    later = np.repeat(np.arange(len(order)), earlier)
    first = np.cumsum(earlier) - earlier  # where each label's pairs begin
    former = np.arange(later.size) - np.repeat(first - start, earlier)
    m, e = bottleneck[order], exposed[order]
    hit = (m[former] <= m[later]) & (e[former] <= e[later])
    keep = np.ones(len(order), dtype=bool)
    keep[order[later[hit]]] = False
    return keep


def _undominated(state: np.ndarray, run: np.ndarray, bottleneck: np.ndarray,
                 exposed: np.ndarray) -> np.ndarray:
    """Mask of labels no *earlier* label at the same state dominates.

    Labels arrive in lexicographic path order. Label ``b`` is dropped
    when some label ``a`` before it at the same state has
    ``bottleneck_a <= bottleneck_b`` and ``exposed_a <= exposed_b``:
    every completion of ``b`` then costs at least as much as the same
    completion of ``a``, whose path is lexicographically smaller.

    :func:`_run_prefilter` first drops labels dominated within their
    run; the pair check then runs on the survivors only. That gives the
    same mask as checking every pair, because dominance is transitive:
    a dropped label has an earlier dominator in its run, which is itself
    a survivor or has an earlier dominator, and so on, so every label
    with an earlier dominator has an earlier *surviving* one.
    """
    keep = _run_prefilter(state, run, bottleneck, exposed)
    rest = np.flatnonzero(keep)
    keep[rest] = _pairwise_undominated(state[rest], bottleneck[rest],
                                       exposed[rest])
    return keep


def _cheapest(t: np.ndarray, d: np.ndarray, gacc: int) -> tuple[int, float]:
    """Row and Eq. (1) of the first cheapest row of
    :func:`~repro.core.objectives.pipeline_iteration_time_rows`.

    The first strict minimum, as a scan with ``<`` keeps it: a NaN first
    row is never replaced, and a later NaN never wins.
    """
    objective = pipeline_iteration_time_rows(t, d, gacc)
    best = 0 if np.isnan(objective[0]) else int(np.nanargmin(objective))
    return best, float(objective[best])


def solve(menus: Menus, total_layers: int, gacc: int, *,
          imbalance_aware: bool = True) -> InterStageSolution | None:
    """Eq. (2), solved exactly by a label-setting DP.

    Stages are walked in order; a state is the number of layers placed
    so far, and every path reaching it carries a label ``(M, E)``: the
    bottleneck ``M = max t`` so far and ``E' = t_i + max(E, d_i)``
    (``E_0 = 0``; ``d = 0`` when not ``imbalance_aware``). Unrolled,
    ``E_S = sum t + max(0, max_i (d_i - sum_{j<i} t_j))``, so a complete
    path costs ``(G-1) * M + E`` — Eq. (1). Both components only grow
    along a path, so a label that an earlier label at the same state
    matches or beats on both can never finish ahead of it
    (:func:`_undominated`).

    Candidates are generated in lexicographic order over the per-stage
    option indices of :func:`_flatten`, so one parent's options of one
    layer count form a contiguous run at one state, in menu order; the
    dominance check first prunes within those runs, then compares only
    the survivors pairwise. Only *earlier* labels may prune, so the
    surviving labels at ``(S, total_layers)`` include the first optimum
    in that order; re-pricing them all at once exactly as
    :func:`solve_exact` prices one assignment and keeping the first
    strict minimum reproduces its choice.
    """
    options = _flatten(menus)
    if any(not opts for opts in options):
        return None
    num_stages = len(options)
    layers = [np.array([l for l, _ in opts]) for opts in options]
    t_of = [np.array([p.t for _, p in opts], dtype=float) for opts in options]
    d_of = [np.array([p.d for _, p in opts], dtype=float) if imbalance_aware
            else np.zeros(len(opts)) for opts in options]
    # fewest / most layers the stages from i on can still absorb
    rest_lo = np.cumsum([0] + [int(a.min()) for a in reversed(layers)])[::-1]
    rest_hi = np.cumsum([0] + [int(a.max()) for a in reversed(layers)])[::-1]

    used = np.zeros(1, dtype=np.int64)
    bottleneck = np.full(1, -np.inf)
    exposed = np.zeros(1)
    back: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(num_stages):
        reached = (used[:, None] + layers[i][None, :]).ravel()
        left = total_layers - reached
        # row-major over (label, option): lexicographic path order
        flat = np.flatnonzero((left >= rest_lo[i + 1])
                              & (left <= rest_hi[i + 1]))
        if flat.size == 0:
            return None
        parent, option = np.divmod(flat, len(layers[i]))
        t = t_of[i][option]
        cand_m = np.maximum(bottleneck[parent], t)
        cand_e = t + np.maximum(exposed[parent], d_of[i][option])
        state = reached[flat]
        keep = _undominated(state, parent, cand_m, cand_e)
        back.append((parent[keep], option[keep]))
        used = state[keep]
        bottleneck, exposed = cand_m[keep], cand_e[keep]

    # walk the back pointers of every final label at once
    picks = np.empty((len(used), num_stages), dtype=np.int64)
    path_t = np.empty((len(used), num_stages))
    path_d = np.empty((len(used), num_stages))
    label = np.arange(len(used))
    for i in reversed(range(num_stages)):
        parent, option = back[i]
        picks[:, i] = option[label]
        path_t[:, i] = t_of[i][picks[:, i]]
        path_d[:, i] = d_of[i][picks[:, i]]
        label = parent[label]

    best, objective = _cheapest(path_t, path_d, gacc)
    return InterStageSolution(
        objective=objective,
        choices=[options[i][o][1] for i, o in enumerate(picks[best])])
