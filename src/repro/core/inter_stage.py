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
lexicographic menu order, the same pick as :func:`solve_exact`. Two
test oracles stay beside it: :func:`solve_exact` enumerates every
assignment, and :func:`solve_milp` is the paper's binary MILP solved by
scipy's HiGHS backend.

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
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from repro.hardware import DeviceGroup, HeterogeneousCluster

from .intra_stage import ParetoPoint
from .objectives import pipeline_iteration_time

__all__ = [
    "InterStageSolution",
    "StageSlot",
    "group_stage_assignments",
    "objective_lower_bound",
    "solve",
    "solve_milp",
    "solve_exact",
]

#: relative safety margin subtracted from lower bounds before they are
#: compared against incumbents — absorbs float noise in the marginal
#: per-layer cost estimate so a bound can never spuriously exceed the
#: true objective it underestimates
_BOUND_SAFETY = 1e-9


def objective_lower_bound(per_layer_floor: float, total_layers: int,
                          num_stages: int, gacc: int) -> float:
    """Optimistic lower bound on Eq. (1) for one (S, G) cell.

    ``per_layer_floor`` is a lower bound on the *compute-only,
    interference-free* cost of one transformer layer under the cell's
    cheapest feasible (dp, tp, b) option. Every valid partition
    satisfies ``sum_i t_i >= L * floor`` and
    ``max_i t_i >= ceil(L / S) * floor`` (some stage hosts at least
    ``ceil(L / S)`` layers), and the exposed-delta term of Eq. (1) is
    clamped at zero — so

        (G - 1) * ceil(L / S) * floor  +  L * floor

    never exceeds the true objective of any plan in the cell. The
    branch-and-bound cut compares this against the current k-th-best
    incumbent and skips the whole cell when even the bound is worse.
    """
    if per_layer_floor < 0:
        per_layer_floor = 0.0
    bound = ((gacc - 1) * math.ceil(total_layers / num_stages)
             + total_layers) * per_layer_floor
    return bound * (1.0 - _BOUND_SAFETY)


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
    """Eq. (1) for one pick per stage — every solver's final objective."""
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
        options={"time_limit": time_limit, "presolve": True},
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


def _undominated(state: np.ndarray, bottleneck: np.ndarray,
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
    option indices of :func:`_flatten` and only *earlier* labels may
    prune, so the surviving labels at ``(S, total_layers)`` include the
    first optimum in that order; re-pricing them exactly as
    :func:`solve_exact` does and keeping the first strict minimum
    reproduces its choice.
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
        keep = _undominated(reached[flat], cand_m, cand_e)
        back.append((parent[keep], option[keep]))
        used = reached[flat][keep]
        bottleneck, exposed = cand_m[keep], cand_e[keep]

    # walk the back pointers of every final label at once
    picks = np.empty((len(used), num_stages), dtype=np.int64)
    label = np.arange(len(used))
    for i in reversed(range(num_stages)):
        parent, option = back[i]
        picks[:, i] = option[label]
        label = parent[label]

    best: InterStageSolution | None = None
    for row in picks:
        choices = [options[i][o][1] for i, o in enumerate(row)]
        objective = _price(choices, gacc, imbalance_aware)
        if best is None or objective < best.objective:
            best = InterStageSolution(objective=objective, choices=choices)
    return best
