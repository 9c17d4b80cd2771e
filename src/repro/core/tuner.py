"""Mist's hierarchical auto-tuner (paper Section 5.3, Figure 6).

Given a model, a cluster, and a global batch size, enumerate the outer
discrete choices — pipeline depth ``S`` and gradient-accumulation steps
``G`` — and for each:

1. **intra-stage tuning** builds Pareto frontiers of
   ``(t_stable, d_delta)`` per stage position and candidate layer count
   (batched symbolic evaluation, memory-constrained);
2. **inter-stage tuning** assembles them into the best pipeline
   partition by solving the imbalance-aware Eq. 2 exactly
   (:func:`repro.core.inter_stage.solve`, a label-setting DP).

The winner across all ``(S, G)`` becomes the output
:class:`~repro.core.plan.TrainingPlan`. The paper spreads the
``(S, G)`` loop over CPU cores (§5.3 / Fig. 16); here it runs on the
searching thread, because the per-cell work is GIL-bound Python and
numpy and an early incumbent tightens the bound cut for every later
cell. Independent jobs run in parallel on the service's worker tiers
and the campaign ``process-pool`` executor instead.

Every stage menu is priced on one path, pruned or not: peak memory
first, then the option blocks with no configuration within budget are
dropped before any runtime cost evaluation
(:meth:`IntraStageTuner.tune`). Pruning (Fig. 16's tractability
claim): by default the search runs the **prune-and-memoize search**
instead of exhaustively solving every cell, while still returning
bit-identical plans:

* a *branch-and-bound cut* solves cells in order of an optimistic
  lower bound, ties broken by enumeration order: each stage position's
  least compute-channel time at every layer count the cell offers,
  composed through Eq. (1) with every delta at zero and minimised
  exactly over the cell's layer assignments, one DP per pipeline depth
  and memoised per grid (:meth:`MistTuner._cell_bounds`,
  :func:`repro.core.inter_stage.objective_floors`). It skips any cell
  whose bound already exceeds the current ``keep_top``-th best
  incumbent — so ``top_plans`` stays identical, not just the winner.
  Incumbents come only from solved cells, which is what makes the
  bit-identity guarantee unconditional;
* a *keyed memoization layer* (:class:`repro.core.memo.MenuMemo`)
  shares identical stage-cost subproblems — same layer slice, device
  group, (dp, tp) options, budget — across cells and across repeated
  searches.

Explored/pruned/memo-hit counters are reported per search in
:class:`SearchStats` (surfaced as ``SolveReport.search_stats`` and in
the service ``/metrics``). ``prune=False`` runs the same driver and the
same per-cell routine with the bounds off and a private memo — the
exhaustive reference the property tests and `repro bench` compare
against.

The tuner reads a cluster through its group interface
(``cluster.sub_clusters``, ``cluster.p2p_links``) and never asks which
kind it holds: each device group gets its own traced cost model and
:class:`~repro.core.analyzer.SymbolicPerformanceAnalyzer` bounded by
that group's GPU memory, so a stage menu offered to the inter-stage
solve always respects the device that would host it. A plain
:class:`~repro.hardware.ClusterSpec` is the one group ``""``, whose
cells hold ``S`` equal stages of power-of-two depth; a mixed fleet
(more than one group) enumerates stage -> device-group assignments
instead (:func:`repro.core.inter_stage.group_stage_assignments`) and
logs each cell's groups. A one-group fleet is first reduced to its
plain cluster (:func:`~repro.hardware.reduce_fleet`) and gives the
same plans bit for bit.

Elastic re-tuning: :meth:`MistTuner.replan` warm-starts the same
pruned search from an incumbent plan after a cluster change
(:class:`~repro.hardware.ClusterDelta`) — the incumbent's (S, G) cell
is solved first, every later cell prunes against the best solved
objective, and per-device-group memo scoping keeps menus of unchanged
groups warm — while returning a ``best_plan`` bit-identical to a cold
:meth:`MistTuner.search` of the new cluster.
"""

from __future__ import annotations

import bisect
import math
import time
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.costmodel.interference import InterferenceModel
from repro.hardware import (
    ClusterSpec,
    GPUSpec,
    HeterogeneousCluster,
    reduce_fleet,
)
from repro.models.config import ModelConfig
from repro.tracing import TracedModel, trace

from . import inter_stage
from .analyzer import SymbolicPerformanceAnalyzer
from .inter_stage import StageSlot, group_stage_assignments
from .intra_stage import (
    IntraStageTuner,
    StageShape,
    stage_parallelism_options,
)
from .memo import (GLOBAL_KERNEL_CACHE, GLOBAL_MENU_MEMO, CellBounds,
                   MemoEntry, MenuMemo)
from .objectives import throughput
from .plan import TrainingPlan
from .spaces import SPACE_MIST, SearchSpace

__all__ = ["MistTuner", "SearchCancelled", "SearchStats", "TuningResult",
           "gacc_candidates", "traced_model"]

#: relative safety margin subtracted from cell bounds before they are
#: compared against incumbents — absorbs float noise between the floor
#: sums and the solved objective, so a bound never spuriously exceeds
#: the objective it underestimates
_BOUND_SAFETY = 1e-9


def traced_model(model: ModelConfig, gpu: GPUSpec, *,
                 flash: bool = True) -> TracedModel:
    """The process-wide trace of ``model`` on ``gpu``.

    Served from :data:`~repro.core.memo.GLOBAL_KERNEL_CACHE`; a miss
    calls this module's ``trace``, so a tool that wraps that name sees
    every real trace and no cache hit.
    """
    return GLOBAL_KERNEL_CACHE.get(
        (model, gpu, flash), lambda: trace(model, gpu, flash=flash))


def gacc_candidates(global_batch: int, num_stages: int,
                    cap: int | None = None) -> list[int]:
    """Gradient-accumulation steps worth trying for this depth: powers
    of two dividing ``global_batch`` plus ``global_batch`` itself, at
    most ``cap`` of them. The uniform heuristic draws from the same
    set, so Mist's (S, G) grid covers its grid at every scale."""
    out = []
    g = 1
    while g <= global_batch:
        if global_batch % g == 0:
            out.append(g)
        g *= 2
    if global_batch not in out:
        out.append(global_batch)
    # Deep pipelines need G >= S to fill; keep one undersized G as a
    # fallback but skip the clearly wasteful ones.
    if num_stages > 1:
        out = [g for g in out if g * 2 >= num_stages] or out[-1:]
    if cap is not None and len(out) > cap:
        # keep the spread: smallest, largest, and evenly in between
        idx = np.unique(np.round(
            np.linspace(0, len(out) - 1, cap)).astype(int))
        out = [out[i] for i in idx]
    return out


class SearchCancelled(RuntimeError):
    """Raised when a ``should_stop`` hook aborts a running search.

    Cooperative: the tuner polls the hook between (S, G) cells —
    explored *and* pruned — so a cancellation lands at the next cell
    boundary, never mid-solve.
    """


@dataclass
class SearchStats:
    """Explored/pruned/memoized accounting for one search.

    ``configs_evaluated`` / ``configs_prefiltered`` are *deterministic*
    regardless of memo warmth: a memo hit replays the counters the
    original computation recorded. ``memo_hits`` / ``memo_misses`` are
    the telemetry that distinguishes replay from fresh work.

    An exhaustive search (``prune=False``) explores every cell, so
    ``cells_explored == cells_total`` and ``cells_pruned == 0``. It
    shares subproblems across cells through a private per-search memo,
    so its ``memo_hits`` / ``memo_misses`` count reuse within that one
    search.
    """

    #: False when the search ran the exhaustive reference path
    prune: bool = True
    cells_total: int = 0
    cells_explored: int = 0
    #: cells skipped by the branch-and-bound cut
    cells_pruned: int = 0
    #: cells with no feasible (dp, tp, b) option at all
    cells_infeasible: int = 0
    configs_evaluated: int = 0
    configs_prefiltered: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: False disables the bound cut (e.g. interference factors < 1)
    bound_pruning: bool = True
    #: True when the search was warm-started from an incumbent plan
    #: (:meth:`MistTuner.replan`)
    warm: bool = False
    #: the incumbent's cell, when warm: ``{"num_stages": S, "gacc": G,
    #: "matched": bool}`` — ``matched`` is False when the cell no
    #: longer exists on the delta'd cluster and the replan fell back to
    #: cold ordering
    warm_seed: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)  # copies ``warm_seed``


@dataclass
class _CellCounts:
    """Per-cell work accounting, merged into :class:`SearchStats`."""

    evaluated: int = 0
    prefiltered: int = 0
    memo_hits: int = 0
    memo_misses: int = 0


@dataclass
class TuningResult:
    """Outcome of one auto-tuning run."""

    best_plan: TrainingPlan | None
    predicted_iteration_time: float
    predicted_throughput: float
    tuning_time_seconds: float
    configurations_evaluated: int
    #: per-(S, G) best objective, for diagnostics
    search_log: list[dict] = field(default_factory=list)
    #: predicted-best plans across (S, G) candidates, best first — the
    #: runner executes these in order (the artifact's final
    #: benchmark-one-case step), which de-biases the winner's curse of
    #: picking the argmin of noisy predictions
    top_plans: list[TrainingPlan] = field(default_factory=list)
    #: explored/pruned/memo-hit accounting for this search
    stats: "SearchStats | None" = None

    @property
    def found(self) -> bool:
        return self.best_plan is not None


class _Incumbents:
    """k-best objective tracker for the bound cut.

    The cut may skip a cell only when its optimistic bound exceeds the
    *k-th best solved* objective (k = ``keep_top``): anything pruned is
    then provably outside the final top-k, so ``top_plans`` — not just
    the winner — matches the exhaustive search bit for bit.
    """

    def __init__(self, k: int):
        self._k = k
        self._best: list[float] = []

    def offer(self, objective: float) -> None:
        bisect.insort(self._best, objective)
        del self._best[self._k:]

    def threshold(self) -> float:
        """The k-th best objective so far, or +inf before k solutions."""
        if len(self._best) < self._k:
            return math.inf
        return self._best[-1]


class MistTuner:
    """Memory-, overlap- and imbalance-aware automatic tuner.

    ``cluster`` may be a homogeneous :class:`ClusterSpec` or a
    :class:`~repro.hardware.HeterogeneousCluster`. ``interference``
    accepts a single :class:`InterferenceModel` (applied everywhere), a
    mapping from device-group name to model (``""`` names a plain
    cluster's one group), or ``None`` for each device's default.
    """

    def __init__(self, model: ModelConfig,
                 cluster: "ClusterSpec | HeterogeneousCluster", *,
                 seq_len: int, flash: bool = True,
                 space: SearchSpace = SPACE_MIST,
                 interference: "InterferenceModel | Mapping | None" = None,
                 max_gacc_candidates: int | None = None):
        self.model = model
        self.cluster = reduce_fleet(cluster)
        self.seq_len = seq_len
        self.flash = flash
        self.space = space
        self.max_gacc_candidates = max_gacc_candidates
        # Besides its StageShape/layer counts/global batch, a memoized
        # stage-cost subproblem depends on everything in its group's
        # memo scope. The scope is *per device group*: a stage menu is
        # priced entirely by its group's sub-cluster (plus the p2p
        # link already inside StageShape), so a cluster delta that
        # leaves a group untouched keeps that group's scope — and its
        # memo entries — valid, which is what lets a replan on the
        # delta'd cluster reuse menus for the unchanged groups.
        # Frozen-dataclass reprs spell out every field, so two tuners
        # share entries only when the group's cost model is
        # parameter-identical; false *misses* merely lose sharing.
        self.analyzers: dict[str, SymbolicPerformanceAnalyzer] = {}
        self._memo_scopes: dict[str, tuple] = {}
        for name, group_cluster in self.cluster.sub_clusters:
            analyzer = self.analyzers[name] = SymbolicPerformanceAnalyzer(
                traced_model(model, group_cluster.gpu, flash=flash),
                group_cluster,
                interference=self._group_interference(interference, name),
            )
            self._memo_scopes[name] = (
                repr(self.model), repr(group_cluster), self.seq_len,
                self.flash, repr(self.space),
                analyzer.interference.fingerprint(),
            )

    @staticmethod
    def _group_interference(
            interference: "InterferenceModel | Mapping | None",
            group_name: str) -> InterferenceModel | None:
        """Resolve the interference model for one device group."""
        if interference is None or isinstance(interference, InterferenceModel):
            return interference
        if isinstance(interference, Mapping):
            return interference.get(group_name)
        raise TypeError(
            "interference must be an InterferenceModel, a mapping from "
            f"device-group name to model, or None; got {type(interference)}"
        )

    # -- candidate enumeration ---------------------------------------------

    def _layer_counts(self, num_stages: int, *,
                      slack: int | None = None) -> list[int]:
        """Candidate per-stage layer counts around the balanced split."""
        total = self.model.num_layers
        base = total / num_stages
        if slack is None:
            slack = self.space.layer_slack
        lo = max(1, int(np.floor(base)) - slack)
        hi = min(total - (num_stages - 1), int(np.ceil(base)) + slack)
        return list(range(lo, hi + 1))

    # -- main loop ------------------------------------------------------------

    def _sg_grid(self, global_batch: int,
                 ) -> list[tuple[int, list[int], tuple[StageSlot, ...]]]:
        """The outer grid: ``(gacc, layer_counts, slots)`` per cell.

        ``slots`` holds one :class:`~repro.core.inter_stage.StageSlot`
        per pipeline stage, so ``len(slots)`` is the depth ``S``.
        A plain cluster enumerates power-of-two depths of equal stages
        on its one ``""`` group; a mixed fleet enumerates stage ->
        device-group assignments.
        """
        if len(self.cluster.sub_clusters) > 1:
            # mixed memory capacities want more skew than the balanced
            # split allows, so widen the per-stage layer slack by one
            slack = self.space.layer_slack + 1
            assignments = group_stage_assignments(
                self.cluster, self.model.num_layers)
        else:
            slack = self.space.layer_slack
            total_gpus = self.cluster.total_gpus
            assignments = [(StageSlot("", total_gpus // s),) * s
                           for s in self.cluster.pipeline_stage_counts()
                           if s <= self.model.num_layers]
        grid = []
        for slots in assignments:
            layer_counts = self._layer_counts(len(slots), slack=slack)
            for gacc in gacc_candidates(global_batch, len(slots),
                                        self.max_gacc_candidates):
                grid.append((gacc, layer_counts, slots))
        return grid

    def search(self, global_batch: int, *, keep_top: int = 3,
               progress: "Callable[[int, int], None] | None" = None,
               should_stop: "Callable[[], bool] | None" = None,
               prune: bool = True,
               memo: MenuMemo | None = None) -> TuningResult:
        """Solve the (S, G) grid and return the ranked outcome.

        ``prune=True`` (the default) runs the prune-and-memoize search:
        cells whose optimistic lower bound exceeds the ``keep_top``-th
        best solved objective are skipped, and identical stage-cost
        subproblems are served from ``memo`` (default: the process-wide
        :data:`~repro.core.memo.GLOBAL_MENU_MEMO`). The returned
        ``best_plan`` / ``top_plans`` / objectives are bit-identical to
        ``prune=False``, the exhaustive reference: the same driver with
        the bounds off, solving every cell in enumeration order against
        a private per-search memo (``memo`` is ignored). Both price
        every menu the same way (:meth:`IntraStageTuner.tune`), and
        every explored cell gets the same single exact inter-stage
        solve, so its ``search_log`` objective does not depend on
        ``prune``.

        ``progress(done, total)`` is invoked on the searching thread
        after every handled (S, G) cell — solved or pruned — so keep it
        cheap. ``should_stop()`` is polled before each cell; the first
        ``True`` raises :class:`SearchCancelled`, discarding partial
        results. Both hooks exist for long-running callers (the
        ``repro serve`` daemon) that need liveness and cancellation.
        """
        if not prune:
            memo = MenuMemo()
        elif memo is None:
            memo = GLOBAL_MENU_MEMO
        return self._search(
            global_batch, keep_top=keep_top,
            progress=progress, should_stop=should_stop, prune=prune,
            memo=memo,
        )

    def replan(self, global_batch: int, *, incumbent: TrainingPlan,
               progress: "Callable[[int, int], None] | None" = None,
               should_stop: "Callable[[], bool] | None" = None,
               memo: MenuMemo | None = None) -> TuningResult:
        """Warm-started search for a changed cluster (elastic re-tuning).

        ``incumbent`` is the plan that was running before the cluster
        changed (typically the cached :attr:`TuningResult.best_plan`
        of the pre-delta cluster). Only its *shape* is used — pipeline
        depth, device-group sequence, and gradient-accumulation steps
        locate the matching (S, G) cell of the new grid, which is
        solved first so the branch-and-bound cut starts from a strong
        incumbent objective on the very next cell. The plan itself is
        never re-priced or used as a bound, so the returned
        ``best_plan`` is **bit-identical** to what a cold
        :meth:`search` of this tuner would return; when the incumbent's
        cell no longer exists (``SearchStats.warm_seed["matched"]`` is
        False) the replan degrades to cold ordering and stays correct.

        Two things make a warm replan cheaper than a cold search:

        * it prunes against the *best* solved objective rather than the
          ``keep_top``-th best, so ``top_plans`` is ``[best_plan]`` —
          replanning wants *the* plan, fast;
        * the per-device-group memo scope keeps
          :class:`~repro.core.memo.MenuMemo` entries of unchanged
          groups valid across the delta, so shared stage subproblems
          replay instead of recompute (pass the same ``memo`` the cold
          search used; counters stay deterministic either way).
        """
        return self._search(
            global_batch, keep_top=1,
            progress=progress, should_stop=should_stop, prune=True,
            memo=memo if memo is not None else GLOBAL_MENU_MEMO,
            incumbent=incumbent,
        )

    def _incumbent_cell(self, grid: list[tuple],
                        plan: TrainingPlan) -> int | None:
        """Locate ``plan``'s (S, G) cell in the current grid, if any.

        A cell matches on gacc and on the stage -> device-group
        sequence (which fixes the depth), preferring one with the exact
        per-stage GPU counts but settling for the same group sequence
        when the delta resized a group. A stage on a group this cluster
        lacks counts as on ``""``, so on a homogeneous cluster (the one
        ``""`` group) any plan matches by depth and gacc alone.
        """
        stage_groups = tuple(
            s.device_group if s.device_group in self.analyzers else ""
            for s in plan.stages)
        stage_gpus = tuple(s.gpus for s in plan.stages)
        group_match = None
        for idx, (g, _, slots) in enumerate(grid):
            if g != plan.gacc \
                    or tuple(slot.group for slot in slots) != stage_groups:
                continue
            if tuple(slot.stage_gpus for slot in slots) == stage_gpus:
                return idx
            if group_match is None:
                group_match = idx
        return group_match

    def _plan_from_solution(self, solution: inter_stage.InterStageSolution,
                            global_batch: int, gacc: int) -> TrainingPlan:
        return TrainingPlan(
            global_batch=global_batch,
            gacc=gacc,
            stages=tuple(p.config for p in solution.choices),
            source=f"mist[{self.space.name}]",
        )

    # -- the search driver ---------------------------------------------------

    def _search(self, global_batch: int, *, keep_top: int,
                progress: "Callable[[int, int], None] | None",
                should_stop: "Callable[[], bool] | None",
                prune: bool, memo: MenuMemo,
                incumbent: TrainingPlan | None = None) -> TuningResult:
        start = time.perf_counter()
        grid = self._sg_grid(global_batch)
        total = len(grid)
        stats = SearchStats(prune=prune, cells_total=total)
        if prune:
            # The bound argument needs every interference factor >= 1
            # (see InterferenceModel.min_factor); a physically
            # meaningless model silently falls back to memoization
            # only.
            bound_ok = all(a.interference.min_factor() >= 1.0
                           for a in self.analyzers.values())
            bounds, feasible = self._cell_bounds(global_batch, grid, memo)
        else:
            # exhaustive reference: no bounds, no feasibility screen —
            # every cell is solved, in enumeration order
            bound_ok = False
            bounds, feasible = (math.inf,) * total, (True,) * total
        stats.bound_pruning = bound_ok
        seed_idx = None
        if incumbent is not None:
            # Warm start (replan): solve the incumbent plan's (S, G)
            # cell first. The incumbent only chooses *where to look
            # first* — its old objective is never reused as a bound
            # (the delta changed the cost model under it), so
            # bit-identity stays unconditional.
            seed_idx = self._incumbent_cell(grid, incumbent)
            stats.warm = True
            stats.warm_seed = {
                "num_stages": incumbent.num_stages,
                "gacc": incumbent.gacc,
                "matched": seed_idx is not None,
            }
        order = sorted(
            range(total),
            key=lambda i: (i != seed_idx, bounds[i], i),
        )

        # A warm replan (keep_top = 1) guarantees only the *winner*
        # bit-identical, so it prunes against the best solved objective
        # — far tighter than the top-k-protecting cut of a cold search,
        # and the source of the warm speedup (pruned cells evaluate zero
        # configurations).
        incumbents = _Incumbents(keep_top)
        outcomes: list = [None] * total
        for done, idx in enumerate(order):
            if should_stop is not None and should_stop():
                raise SearchCancelled(
                    f"search cancelled after {done}/{total} cells")
            if not feasible[idx]:
                outcomes[idx] = ("infeasible", None, _CellCounts())
            elif bound_ok and bounds[idx] > incumbents.threshold():
                outcomes[idx] = ("pruned", None, _CellCounts())
            else:
                solution, counts = self._solve_cell(
                    global_batch, grid[idx], memo)
                if solution:
                    incumbents.offer(solution.objective)
                outcomes[idx] = ("explored", solution, counts)
            if progress is not None:
                progress(done + 1, total)

        candidates: list[tuple[float, int, TrainingPlan]] = []
        search_log: list[dict] = []
        for idx, (gacc, _, slots) in enumerate(grid):
            status, solution, counts = outcomes[idx]
            stats.configs_evaluated += counts.evaluated
            stats.configs_prefiltered += counts.prefiltered
            stats.memo_hits += counts.memo_hits
            stats.memo_misses += counts.memo_misses
            if status == "explored":
                stats.cells_explored += 1
            elif status == "pruned":
                stats.cells_pruned += 1
            else:
                stats.cells_infeasible += 1
            # unsolvable cells log None, not inf — search logs must stay
            # strictly JSON-serializable (SolveReport round-trip contract)
            entry = {
                "num_stages": len(slots),
                "gacc": gacc,
                "objective": float(solution.objective) if solution else None,
                "status": status,
            }
            if math.isfinite(bounds[idx]):
                entry["bound"] = float(bounds[idx])
            if len(self.cluster.sub_clusters) > 1:
                entry["groups"] = [slot.group for slot in slots]
            search_log.append(entry)
            if solution:
                candidates.append((
                    solution.objective, idx,
                    self._plan_from_solution(solution, global_batch, gacc),
                ))

        # ties resolve by enumeration order
        candidates.sort(key=lambda item: (item[0], item[1]))
        best_objective = candidates[0][0] if candidates else math.inf
        return TuningResult(
            best_plan=candidates[0][2] if candidates else None,
            predicted_iteration_time=best_objective,
            predicted_throughput=(
                throughput(global_batch, best_objective)
                if math.isfinite(best_objective) else 0.0
            ),
            tuning_time_seconds=time.perf_counter() - start,
            configurations_evaluated=stats.configs_evaluated,
            search_log=search_log,
            top_plans=[plan for _, _, plan in candidates[:keep_top]],
            stats=stats,
        )

    def _cell_bounds(self, global_batch: int, grid: list[tuple],
                     memo: MenuMemo) -> CellBounds:
        """Optimistic lower bound + feasibility flag per (S, G) cell.

        For every stage position ``(device group, stage GPUs, gacc,
        has_pre, has_post)`` the floor ``F(l)`` is the least
        compute-channel time over the slot's (dp, tp, b) options at ckpt
        0, ZeRO 0 and no offload, at each layer count the cell's menus
        offer — one batched evaluation per device group. A cell's bound
        is :func:`~repro.core.inter_stage.objective_floors` of its
        positions' floors (one DP per pipeline depth): Eq. (1) with
        every delta at zero, minimised exactly over the layer
        assignments the inter-stage solve could pick. The grid's bounds
        are one ``memo`` entry, keyed by all a floor reads, so a replan
        whose delta moves no floor (a degraded link) evaluates none.

        Soundness, when every interference factor is >= 1 (the
        condition :meth:`_search` checks before it cuts): a menu point's
        stable time is at least its compute-channel time; that time
        reads only ``b, tp, l, ckpt, has_pre, has_post, s``, and
        recomputation only adds to it, so it is at least ``F(l)`` for
        the point's position and layer count. Eq. (1) grows with every
        ``t_i`` and its exposed-delta term is at least zero, so each
        plan in the cell costs at least the bound. The relative
        ``_BOUND_SAFETY`` margin absorbs float noise.

        A cell with a slot that has no (dp, tp, b) option at all is
        flagged infeasible (the exhaustive path would explore it and
        find nothing).
        """
        total_layers = self.model.num_layers
        cells: list[tuple[int, tuple[int, ...], tuple[tuple, ...]]] = []
        wanted: dict[tuple, set[int]] = {}
        for gacc, layer_counts, slots in grid:
            counts = (tuple(layer_counts) if len(slots) > 1
                      else (total_layers,))
            keys = tuple((slot.group, slot.stage_gpus, gacc, idx == 0,
                          idx == len(slots) - 1)
                         for idx, slot in enumerate(slots))
            cells.append((gacc, counts, keys))
            for key in keys:
                wanted.setdefault(key, set()).update(counts)
        # each group's scope once, not hashed again per stage position
        memo_key = ("bounds", global_batch,
                    tuple(self._memo_scopes.items()), tuple(cells))
        cached = memo.lookup(memo_key)
        if isinstance(cached, CellBounds):
            return cached

        # positions with no (dp, tp, b) option get no floors
        floors: dict[tuple, dict[int, float]] = {}
        by_group: dict[str, list[tuple]] = {}
        for key, counts in wanted.items():
            group, stage_gpus, gacc = key[:3]
            options = stage_parallelism_options(
                self.analyzers[group], stage_gpus, gacc, global_batch)
            if options:
                by_group.setdefault(group, []).append(
                    (key, options, sorted(counts)))

        for group, entries in by_group.items():
            analyzer = self.analyzers[group]
            rows = [(dp, tp, b, layers, key[3], key[4])
                    for key, options, counts in entries
                    for dp, tp, b in options
                    for layers in counts]
            dp_a, tp_a, b_a, l_a, pre_a, post_a = np.array(rows).T
            comp = analyzer.compute_channel(analyzer.build_env(
                b=b_a, s=self.seq_len, dp=dp_a, tp=tp_a, l=l_a, ckpt=0,
                zero=0, wo=0, go=0, oo=0, ao=0, gacc=1, inflight=1,
                has_pre=pre_a, has_post=post_a,
            ))
            pos = 0
            for key, options, counts in entries:
                size = len(options) * len(counts)
                least = comp[pos:pos + size].reshape(
                    len(options), len(counts)).min(axis=0)
                floors[key] = dict(zip(counts, least.tolist()))
                pos += size

        # cells of one depth share their layer counts: one DP for all
        by_depth: dict[tuple, list[int]] = {}
        for idx, (_, counts, keys) in enumerate(cells):
            if all(key in floors for key in keys):
                by_depth.setdefault((len(keys), counts), []).append(idx)
        bounds = [math.inf] * len(cells)
        feasible = [False] * len(cells)
        for (_, counts), members in by_depth.items():
            # a slot shared with deeper or shallower cells has floors at
            # their layer counts too; this cell offers only its own
            stacked = np.array([[[floors[key][n] for n in counts]
                                 for key in cells[idx][2]]
                                for idx in members])
            least = inter_stage.objective_floors(
                stacked, list(counts), total_layers,
                [cells[idx][0] for idx in members])
            for idx, bound in zip(members,
                                  (least * (1.0 - _BOUND_SAFETY)).tolist()):
                bounds[idx] = bound
                feasible[idx] = True
        entry = CellBounds(tuple(bounds), tuple(feasible))
        memo.store(memo_key, entry)
        return entry

    def _cell_stages(self, task: tuple,
                     ) -> tuple[list[StageShape], list[int]]:
        """A cell's :class:`StageShape` per stage, in pipeline order, and
        the layer counts its stage menus offer."""
        gacc, layer_counts, slots = task
        num_stages = len(slots)
        links = self.cluster.p2p_links([slot.group for slot in slots])
        shapes = [
            StageShape(stage_gpus=gpus, gacc=gacc,
                       inflight=min(gacc, num_stages - idx),
                       has_pre=(idx == 0), has_post=(idx == num_stages - 1),
                       group=group, p2p_link=link)
            for idx, ((group, gpus), link) in enumerate(zip(slots, links))
        ]
        return shapes, (list(layer_counts) if num_stages > 1
                        else [self.model.num_layers])

    def _solve_cell(
            self, global_batch: int, task: tuple, memo: MenuMemo,
    ) -> "tuple[inter_stage.InterStageSolution | None, _CellCounts]":
        """Solve one (S, G) cell: stage menus, then the inter-stage solve.

        Returns ``(solution, _CellCounts)``. Stage menus come from
        ``memo``, which stores pure menus keyed by the full subproblem
        fingerprint; a hit replays the evaluated/prefiltered counters
        its original computation recorded, keeping work accounting
        deterministic. The positions that miss and share a device
        group, stage GPUs and p2p link are priced by one
        :meth:`IntraStageTuner.tune` call; a position repeated in the
        cell is looked up again after the store, so it counts as a hit.
        The menus then go through one exact
        :func:`~repro.core.inter_stage.solve`, so a cell's solution is
        the same whether the search prunes or not.

        Heterogeneous cells tune each stage with its device group's
        analyzer, so every Pareto point is priced with that group's
        cost model and filtered against that group's memory budget;
        stages adjacent to a group boundary additionally price pipeline
        p2p over the inter-group link
        (:meth:`~repro.hardware.HeterogeneousCluster.p2p_links`, which
        the execution engine applies too).
        """
        gacc = task[0]
        shapes, stage_counts = self._cell_stages(task)
        keys = [(self._memo_scopes[shape.group], global_batch, shape,
                 tuple(stage_counts)) for shape in shapes]

        counts = _CellCounts()
        entries: dict[tuple, MemoEntry | None] = {}
        repeats = []
        # the misses of one device group, stage GPUs and p2p link are
        # positions of one grid: one tune call prices them together
        stacks: dict[tuple, list[tuple]] = {}
        for key in keys:
            if key in entries:
                repeats.append(key)
                continue
            entry = memo.lookup(key)
            if isinstance(entry, MemoEntry):
                counts.memo_hits += 1
                entries[key] = entry
            else:
                counts.memo_misses += 1
                entries[key] = None
                shape = key[2]
                stacks.setdefault(
                    (shape.group, shape.stage_gpus, shape.p2p_link),
                    []).append(key)
        for (group, *_), stack in stacks.items():
            tuner = IntraStageTuner(self.analyzers[group], self.space,
                                    global_batch=global_batch,
                                    seq_len=self.seq_len)
            for key, entry in zip(stack, tuner.tune(
                    [key[2] for key in stack], stage_counts)):
                memo.store(key, entry)
                entries[key] = entry
        # a position the cell repeats is looked up after the store, so
        # it counts as a hit
        for key in repeats:
            if isinstance(memo.lookup(key), MemoEntry):
                counts.memo_hits += 1
            else:
                counts.memo_misses += 1
        # count each unique subproblem once per cell, so a cell reports
        # the same work however warm the memo is
        for entry in entries.values():
            counts.evaluated += entry.evaluated
            counts.prefiltered += entry.prefiltered
        menus = [entries[key].menus for key in keys]

        solution = inter_stage.solve(
            menus, self.model.num_layers, gacc,
            imbalance_aware=self.space.imbalance_aware,
        )
        return solution, counts
