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
:class:`~repro.core.plan.TrainingPlan`. Searching the ``(S, G)`` grid is
embarrassingly parallel (the paper parallelizes it across cores, §5.3 /
Fig. 16): :meth:`MistTuner.search` fans the per-``(S, G)`` solves over a
thread pool when ``parallelism > 1``, and merges results in enumeration
order so the chosen plan is identical to the serial path.

Pruning (Fig. 16's tractability claim): by default the search runs the
**prune-and-memoize search** instead of exhaustively solving every
cell, while still returning bit-identical plans:

* a *memory-feasibility pre-filter* evaluates the symbolic peak-memory
  expressions alone and rejects over-budget configurations before any
  runtime cost evaluation (:meth:`IntraStageTuner.tune` with
  ``prefilter=True`` — the exact constraint, applied earlier);
* a *branch-and-bound cut* orders cells by an optimistic compute-only,
  interference-free lower bound
  (:func:`repro.core.inter_stage.objective_lower_bound`), seeds the
  first incumbent from the cell a Megatron-style uniform heuristic
  prefers, and skips any cell whose bound already exceeds the current
  ``keep_top``-th best incumbent — so ``top_plans`` stays identical,
  not just the winner. Incumbents come only from solved cells (the
  heuristic chooses *where to look first*, never the bound itself),
  which is what makes the bit-identity guarantee unconditional;
* a *keyed memoization layer* (:class:`repro.core.memo.MenuMemo`)
  shares identical stage-cost subproblems — same layer slice, device
  group, parallelism, budget — across cells, across the parallel
  fan-out workers, and across repeated searches.

Explored/pruned/memo-hit counters are reported per search in
:class:`SearchStats` (surfaced as ``SolveReport.search_stats`` and in
the service ``/metrics``). ``prune=False`` runs the same driver and the
same per-cell routine with every cut switched off — the exhaustive
reference the property tests and `repro bench` compare against.

On a :class:`~repro.hardware.HeterogeneousCluster` the outer loop
additionally enumerates stage -> device-group assignments
(:func:`repro.core.inter_stage.group_stage_assignments`): each group
gets its own traced cost model and
:class:`~repro.core.analyzer.SymbolicPerformanceAnalyzer` bounded by
that group's GPU memory, so a stage menu offered to the inter-stage
solve always respects the device that would host it. A single-group
heterogeneous cluster is reduced to its plain
:class:`~repro.hardware.ClusterSpec` and follows the homogeneous code
path bit for bit.

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
import os
import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.interference import InterferenceModel
from repro.hardware import ClusterSpec, GPUSpec, HeterogeneousCluster
from repro.models.config import ModelConfig
from repro.tracing import TracedModel, trace

from . import inter_stage
from .analyzer import SymbolicPerformanceAnalyzer
from .inter_stage import group_stage_assignments, objective_lower_bound
from .intra_stage import (
    IntraStageTuner,
    ParetoPoint,
    StageShape,
    stage_parallelism_options,
)
from .memo import GLOBAL_KERNEL_CACHE, GLOBAL_MENU_MEMO, MemoEntry, MenuMemo
from .objectives import pipeline_iteration_time, throughput
from .plan import TrainingPlan
from .spaces import SPACE_MIST, SearchSpace

__all__ = ["MistTuner", "SearchCancelled", "SearchStats", "TuningResult",
           "gacc_candidates", "traced_model"]


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
    the telemetry that distinguishes replay from fresh work. Under a
    parallel pruned search the explored/pruned split may vary slightly
    run-to-run (incumbents arrive in timing-dependent order); the
    returned plans never do.

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
    #: Megatron-style heuristic seed cell, when one was feasible:
    #: ``{"num_stages": S, "gacc": G, "objective": predicted}``
    seed: dict | None = None
    #: True when the search was warm-started from an incumbent plan
    #: (:meth:`MistTuner.replan`)
    warm: bool = False
    #: the incumbent's cell, when warm: ``{"num_stages": S, "gacc": G,
    #: "matched": bool}`` — ``matched`` is False when the cell no
    #: longer exists on the delta'd cluster and the replan fell back to
    #: cold ordering
    warm_seed: dict | None = None

    def to_dict(self) -> dict:
        return {
            "prune": self.prune,
            "cells_total": self.cells_total,
            "cells_explored": self.cells_explored,
            "cells_pruned": self.cells_pruned,
            "cells_infeasible": self.cells_infeasible,
            "configs_evaluated": self.configs_evaluated,
            "configs_prefiltered": self.configs_prefiltered,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "bound_pruning": self.bound_pruning,
            "seed": dict(self.seed) if self.seed else None,
            "warm": self.warm,
            "warm_seed": dict(self.warm_seed) if self.warm_seed else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        """Rebuild from :meth:`to_dict` output (manifest resume path).

        Unknown keys are ignored, so 1.x payloads that still carry an
        ``engine`` field load unchanged.
        """
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        for key in ("seed", "warm_seed"):
            value = known.get(key)
            if value is not None:
                known[key] = dict(value)
        return cls(**known)


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
    """Thread-safe k-best objective tracker for the bound cut.

    The cut may skip a cell only when its optimistic bound exceeds the
    *k-th best solved* objective (k = ``keep_top``): anything pruned is
    then provably outside the final top-k, so ``top_plans`` — not just
    the winner — matches the exhaustive search bit for bit. A stale
    (worse) threshold read under contention only makes the cut more
    conservative, never wrong.
    """

    def __init__(self, k: int):
        self._k = k
        self._lock = threading.Lock()
        self._best: list[float] = []

    def offer(self, objective: float) -> None:
        with self._lock:
            bisect.insort(self._best, objective)
            del self._best[self._k:]

    def threshold(self) -> float:
        """The k-th best objective so far, or +inf before k solutions."""
        with self._lock:
            if len(self._best) < self._k:
                return math.inf
            return self._best[-1]


class MistTuner:
    """Memory-, overlap- and imbalance-aware automatic tuner.

    ``cluster`` may be a homogeneous :class:`ClusterSpec` or a
    :class:`~repro.hardware.HeterogeneousCluster`. ``interference``
    accepts a single :class:`InterferenceModel` (applied everywhere), a
    mapping from device-group name to model (heterogeneous clusters),
    or ``None`` for each device's default.
    """

    def __init__(self, model: ModelConfig,
                 cluster: "ClusterSpec | HeterogeneousCluster", *,
                 seq_len: int, flash: bool = True,
                 space: SearchSpace = SPACE_MIST,
                 interference: "InterferenceModel | Mapping | None" = None,
                 max_gacc_candidates: int | None = None):
        self.model = model
        if isinstance(cluster, HeterogeneousCluster) and cluster.is_homogeneous:
            # one group == a plain cluster; take the (identical) fast path
            cluster = cluster.groups[0].cluster
        self.cluster = cluster
        self.hetero = (cluster if isinstance(cluster, HeterogeneousCluster)
                       else None)
        self.seq_len = seq_len
        self.flash = flash
        self.space = space
        if self.hetero is None:
            traced = traced_model(model, cluster.gpu, flash=flash)
            self.analyzer = SymbolicPerformanceAnalyzer(
                traced, cluster,
                interference=self._group_interference(interference, ""),
            )
            self.analyzers = {"": self.analyzer}
        else:
            self.analyzers = {}
            for group in self.hetero.groups:
                traced = traced_model(model, group.gpu, flash=flash)
                self.analyzers[group.name] = SymbolicPerformanceAnalyzer(
                    traced, group.cluster,
                    interference=self._group_interference(interference,
                                                          group.name),
                    gpu=group.gpu,
                )
            # convenience alias: the first group's analyzer
            self.analyzer = self.analyzers[self.hetero.groups[0].name]
        self.max_gacc_candidates = max_gacc_candidates
        # Everything a memoized stage-cost subproblem depends on besides
        # its StageShape/layer counts/global batch. The scope is *per
        # device group*: a stage menu is priced entirely by its group's
        # sub-cluster (plus the p2p clamps already inside StageShape),
        # so a cluster delta that leaves a group untouched keeps that
        # group's scope — and its memo entries — valid, which is what
        # lets a replan on the delta'd cluster reuse menus for the
        # unchanged groups. Frozen-dataclass reprs spell out every
        # field, so two tuners share entries only when the group's cost
        # model is parameter-identical; false *misses* merely lose
        # sharing.
        def _group_scope(analyzer: SymbolicPerformanceAnalyzer,
                         group_cluster: "ClusterSpec | HeterogeneousCluster",
                         ) -> tuple:
            return (
                repr(self.model), repr(group_cluster), self.seq_len,
                self.flash, repr(self.space),
                analyzer.interference.fingerprint(),
            )

        if self.hetero is None:
            self._memo_scopes = {"": _group_scope(self.analyzer,
                                                  self.cluster)}
        else:
            self._memo_scopes = {
                group.name: _group_scope(self.analyzers[group.name],
                                         group.cluster)
                for group in self.hetero.groups
            }

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

    def _stage_counts(self) -> list[int]:
        return [
            s for s in self.cluster.pipeline_stage_counts()
            if s <= self.model.num_layers
        ]

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

    def _sg_grid(self, global_batch: int) -> list[tuple]:
        """The outer grid: (num_stages, stage_gpus, gacc, layers, groups).

        Homogeneous clusters enumerate pipeline depths with equal-size
        stages (``groups is None``); heterogeneous clusters enumerate
        stage -> device-group assignments, where ``stage_gpus`` varies
        per stage and lives inside the assignment.
        """
        grid = []
        if self.hetero is not None:
            # mixed memory capacities want more skew than the balanced
            # split allows, so widen the per-stage layer slack by one
            slack = self.space.layer_slack + 1
            for assignment in group_stage_assignments(
                    self.hetero, self.model.num_layers):
                num_stages = len(assignment)
                layer_counts = self._layer_counts(num_stages, slack=slack)
                for gacc in gacc_candidates(global_batch, num_stages,
                                            self.max_gacc_candidates):
                    grid.append((num_stages, None, gacc, layer_counts,
                                 assignment))
            return grid
        for num_stages in self._stage_counts():
            stage_gpus = self.cluster.total_gpus // num_stages
            layer_counts = self._layer_counts(num_stages)
            for gacc in gacc_candidates(global_batch, num_stages,
                                        self.max_gacc_candidates):
                grid.append((num_stages, stage_gpus, gacc, layer_counts,
                             None))
        return grid

    def search(self, global_batch: int, *, parallelism: int = 1,
               verbose: bool = False, keep_top: int = 3,
               progress: "Callable[[int, int], None] | None" = None,
               should_stop: "Callable[[], bool] | None" = None,
               prune: bool = True,
               memo: MenuMemo | None = None) -> TuningResult:
        """Solve the (S, G) grid and return the ranked outcome.

        ``prune=True`` (the default) runs the prune-and-memoize search:
        memory-infeasible configurations are rejected symbolically
        before cost evaluation, cells whose optimistic lower bound
        exceeds the ``keep_top``-th best solved objective are skipped,
        and identical stage-cost subproblems are served from ``memo``
        (default: the process-wide
        :data:`~repro.core.memo.GLOBAL_MENU_MEMO`). The returned
        ``best_plan`` / ``top_plans`` / objectives are bit-identical to
        ``prune=False``, the exhaustive reference: the same driver with
        the prefilter, the bounds and the heuristic seed all off,
        solving every cell in enumeration order against a private
        per-search memo (``memo`` is ignored). Every explored cell gets
        the same single exact inter-stage solve either way, so its
        ``search_log`` objective does not depend on ``prune``.

        ``parallelism > 1`` fans the independent per-(S, G) solves over
        that many worker threads (``0`` means one per CPU core); results
        are merged in enumeration order, so the returned plans are
        identical regardless of worker count.

        ``progress(done, total)`` is invoked after every handled (S, G)
        cell — solved or pruned — (from worker threads when parallel —
        keep it cheap and thread-safe). ``should_stop()`` is polled
        before each cell; the first ``True`` raises
        :class:`SearchCancelled`, discarding partial results. Both hooks
        exist for long-running callers (the ``repro serve`` daemon) that
        need liveness and cancellation.
        """
        if not prune:
            memo = MenuMemo()
        elif memo is None:
            memo = GLOBAL_MENU_MEMO
        return self._search(
            global_batch, parallelism=parallelism, verbose=verbose,
            keep_top=keep_top, progress=progress, should_stop=should_stop,
            prune=prune, memo=memo,
        )

    def replan(self, global_batch: int, *, incumbent: TrainingPlan,
               parallelism: int = 1, verbose: bool = False,
               keep_top: int = 1,
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
          ``keep_top``-th best, so ``top_plans`` beyond the winner is
          advisory (hence the ``keep_top=1`` default — replanning wants
          *the* plan, fast);
        * the per-device-group memo scope keeps
          :class:`~repro.core.memo.MenuMemo` entries of unchanged
          groups valid across the delta, so shared stage subproblems
          replay instead of recompute (pass the same ``memo`` the cold
          search used; counters stay deterministic either way).
        """
        return self._search(
            global_batch, parallelism=parallelism, verbose=verbose,
            keep_top=keep_top, progress=progress, should_stop=should_stop,
            prune=True,
            memo=memo if memo is not None else GLOBAL_MENU_MEMO,
            incumbent=incumbent,
        )

    def _incumbent_cell(self, grid: list[tuple],
                        plan: TrainingPlan) -> int | None:
        """Locate ``plan``'s (S, G) cell in the current grid, if any.

        Homogeneous grids match on pipeline depth and gacc (stage size
        is implied by depth). Heterogeneous grids match the stage ->
        device-group sequence too, preferring an assignment with the
        exact per-stage GPU counts but settling for the same group
        sequence when the delta resized a group.
        """
        if self.hetero is None:
            for idx, (s, _, g, _, assignment) in enumerate(grid):
                if assignment is None and s == plan.num_stages \
                        and g == plan.gacc:
                    return idx
            return None
        stage_groups = tuple(s.device_group for s in plan.stages)
        stage_gpus = tuple(s.gpus for s in plan.stages)
        group_match = None
        for idx, (s, _, g, _, assignment) in enumerate(grid):
            if assignment is None or s != plan.num_stages or g != plan.gacc:
                continue
            if tuple(slot.group for slot in assignment) != stage_groups:
                continue
            if tuple(slot.stage_gpus for slot in assignment) == stage_gpus:
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

    def _search(self, global_batch: int, *, parallelism: int,
                verbose: bool, keep_top: int,
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
            # meaningless model silently falls back to prefilter +
            # memoization only.
            bound_ok = all(a.interference.min_factor() >= 1.0
                           for a in self.analyzers.values())
            bounds, feasible = self._cell_bounds(global_batch, grid)
        else:
            # exhaustive reference: no bounds, no feasibility screen —
            # every cell is solved, in enumeration order
            bound_ok = False
            bounds, feasible = [math.inf] * total, [True] * total
        stats.bound_pruning = bound_ok
        seed_idx = None
        if incumbent is not None:
            # Warm start (replan): solve the incumbent plan's (S, G)
            # cell first. Like the heuristic seed, the incumbent only
            # chooses *where to look first* — its old objective is
            # never reused as a bound (the delta changed the cost
            # model under it), so bit-identity stays unconditional.
            seed_idx = self._incumbent_cell(grid, incumbent)
            stats.warm = True
            stats.warm_seed = {
                "num_stages": incumbent.num_stages,
                "gacc": incumbent.gacc,
                "matched": seed_idx is not None,
            }
        if prune and seed_idx is None and self.hetero is None:
            seed_idx, seed_info = self._heuristic_seed(
                global_batch, grid, feasible)
            stats.seed = seed_info
        order = sorted(
            range(total),
            key=lambda i: (i != seed_idx, bounds[i], i),
        )

        # A warm replan guarantees only the *winner* bit-identical, so
        # it prunes against the best solved objective (k = 1) — far
        # tighter than the top-k-protecting cut of a cold search, and
        # the source of the warm speedup (pruned cells evaluate zero
        # configurations).
        incumbents = _Incumbents(1 if incumbent is not None else keep_top)
        outcomes: list = [None] * total
        done_lock = threading.Lock()
        done = [0]

        def _process(idx: int) -> None:
            if should_stop is not None and should_stop():
                raise SearchCancelled(
                    f"search cancelled after {done[0]}/{total} cells")
            if not feasible[idx]:
                outcomes[idx] = ("infeasible", None, _CellCounts())
            elif bound_ok and bounds[idx] > incumbents.threshold():
                outcomes[idx] = ("pruned", None, _CellCounts())
            else:
                solution, counts = self._solve_cell(
                    global_batch, grid[idx], memo, prefilter=prune)
                if solution:
                    incumbents.offer(solution.objective)
                outcomes[idx] = ("explored", solution, counts)
            with done_lock:
                done[0] += 1
                if progress is not None:
                    progress(done[0], total)

        workers = parallelism if parallelism > 0 else (os.cpu_count() or 1)
        if workers > 1 and total > 1:
            with ThreadPoolExecutor(
                    max_workers=min(workers, total)) as pool:
                list(pool.map(_process, order))
        else:
            for idx in order:
                _process(idx)

        candidates: list[tuple[float, int, TrainingPlan]] = []
        search_log: list[dict] = []
        for idx, (num_stages, _, gacc, _, assignment) in enumerate(grid):
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
                "num_stages": num_stages,
                "gacc": gacc,
                "objective": float(solution.objective) if solution else None,
                "status": status,
            }
            if math.isfinite(bounds[idx]):
                entry["bound"] = float(bounds[idx])
            if assignment is not None:
                entry["groups"] = [slot.group for slot in assignment]
            search_log.append(entry)
            if verbose:  # pragma: no cover - console aid
                obj = entry["objective"]
                detail = (f"{obj * 1e3:.1f} ms" if obj is not None
                          else status)
                print(f"  S={num_stages} G={gacc}: {detail}")
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
                     ) -> tuple[list[float], list[bool]]:
        """Optimistic lower bound + feasibility flag per (S, G) cell.

        The bound is compute-only and interference-free: for every
        unique (device group, stage GPUs, gacc) slot the marginal
        per-layer compute-channel time of its cheapest (dp, tp, b)
        option is measured with two batched evaluations (l=1 vs l=2),
        then composed through
        :func:`~repro.core.inter_stage.objective_lower_bound`. A cell
        with a slot that has no (dp, tp, b) option at all is flagged
        infeasible (the exhaustive path would explore it and find
        nothing).
        """
        slot_keys: set[tuple[str, int, int]] = set()
        for num_stages, stage_gpus, gacc, _, assignment in grid:
            if assignment is None:
                slot_keys.add(("", stage_gpus, gacc))
            else:
                for slot in assignment:
                    slot_keys.add((slot.group, slot.stage_gpus, gacc))

        floors: dict[tuple[str, int, int], float | None] = {}
        by_group: dict[str, list[tuple]] = {}
        for group, stage_gpus, gacc in slot_keys:
            analyzer = self.analyzers[group]
            options = stage_parallelism_options(
                analyzer, stage_gpus, gacc, global_batch)
            if not options:
                floors[(group, stage_gpus, gacc)] = None
                continue
            by_group.setdefault(group, []).append(
                ((group, stage_gpus, gacc), options))

        for group, entries in by_group.items():
            analyzer = self.analyzers[group]
            rows = [(dp, tp, b, gacc, layers)
                    for (_, _, gacc), options in entries
                    for dp, tp, b in options
                    for layers in (1, 2)]
            n = len(rows)
            dp_a, tp_a, b_a, gacc_a, l_a = (
                np.array([row[i] for row in rows], dtype=float)
                for i in range(5)
            )
            env = analyzer.build_env(
                b=b_a, s=np.full(n, self.seq_len), tp=tp_a, dp=dp_a,
                l=l_a, ckpt=np.zeros(n),
                z1=np.zeros(n), z2=np.zeros(n), z3=np.zeros(n),
                wo=np.zeros(n), go=np.zeros(n), oo=np.zeros(n),
                ao=np.zeros(n),
                gacc=gacc_a, inflight=np.ones(n),
                has_pre=np.zeros(n), has_post=np.zeros(n),
            )
            comp = analyzer.compute_channel(env)
            pos = 0
            for key, options in entries:
                floor = math.inf
                for _ in options:
                    marginal = float(comp[pos + 1] - comp[pos])
                    floor = min(floor, max(0.0, marginal))
                    pos += 2
                floors[key] = floor

        bounds: list[float] = []
        feasible: list[bool] = []
        total_layers = self.model.num_layers
        for num_stages, stage_gpus, gacc, _, assignment in grid:
            if assignment is None:
                slot_floors = [floors[("", stage_gpus, gacc)]]
            else:
                slot_floors = [floors[(s.group, s.stage_gpus, gacc)]
                               for s in assignment]
            finite = [f for f in slot_floors if f is not None]
            if len(finite) != len(slot_floors):
                bounds.append(math.inf)
                feasible.append(False)
                continue
            bounds.append(objective_lower_bound(
                min(finite), total_layers, num_stages, gacc))
            feasible.append(True)
        return bounds, feasible

    def _heuristic_seed(self, global_batch: int, grid: list[tuple],
                        feasible: list[bool],
                        ) -> "tuple[int | None, dict | None]":
        """Pick the cell a Megatron-style uniform layout prefers.

        For every feasible homogeneous cell, price the uniform
        heuristic candidates — balanced layer split, one shared
        (dp, tp, b) option, distributed optimizer (ZeRO-1 when the
        space allows it), full-or-none recomputation, no offloading —
        in a single batched prediction, and return the cell whose best
        memory-feasible candidate predicts the lowest Eq. (1)
        objective. That cell is solved *first*, so the branch-and-bound
        cut starts from a strong incumbent; the heuristic objective
        itself is advisory (recorded in :class:`SearchStats`) and never
        used as a bound, which keeps bit-identity unconditional.
        """
        space = self.space
        zero = 1 if 1 in space.zero_levels else space.zero_levels[0]
        total_layers = self.model.num_layers
        rows: list[tuple] = []
        row_meta: list[tuple[int, int]] = []  # (cell idx, candidate id)
        for idx, (num_stages, stage_gpus, gacc, _, assignment) in \
                enumerate(grid):
            if assignment is not None or not feasible[idx]:
                continue
            options = stage_parallelism_options(
                self.analyzer, stage_gpus, gacc, global_batch)
            base, extra = divmod(total_layers, num_stages)
            candidate = 0
            for dp, tp, b in options:
                ckpt_choices = ((lambda l: l),) if space.ckpt_policy == "full" \
                    else ((lambda l: 0), (lambda l: l))
                for ckpt_of in ckpt_choices:
                    for pos in range(num_stages):
                        layers = base + (1 if pos < extra else 0)
                        rows.append((
                            dp, tp, b, layers, ckpt_of(layers), zero, gacc,
                            min(gacc, num_stages - pos),
                            int(pos == 0), int(pos == num_stages - 1),
                        ))
                        row_meta.append((idx, candidate))
                    candidate += 1  # one candidate per (option, ckpt)
        if not rows:
            return None, None

        n = len(rows)
        cols = [np.array([row[i] for row in rows], dtype=float)
                for i in range(10)]
        dp_a, tp_a, b_a, l_a, ckpt_a, zero_a, gacc_a, inflight_a, \
            pre_a, post_a = cols
        env = self.analyzer.build_env(
            b=b_a, s=np.full(n, self.seq_len), tp=tp_a, dp=dp_a,
            l=l_a, ckpt=ckpt_a,
            z1=(zero_a >= 1).astype(float),
            z2=(zero_a >= 2).astype(float),
            z3=(zero_a >= 3).astype(float),
            wo=np.zeros(n), go=np.zeros(n), oo=np.zeros(n), ao=np.zeros(n),
            gacc=gacc_a, inflight=inflight_a,
            has_pre=pre_a, has_post=post_a,
        )
        pred = self.analyzer.predict(env)
        fits = pred.peak_mem <= self.analyzer.memory_budget

        best_idx, best_obj, best_gacc, best_stages = None, math.inf, 0, 0
        pos = 0
        while pos < n:
            idx, candidate = row_meta[pos]
            end = pos
            while end < n and row_meta[end] == (idx, candidate):
                end += 1
            if bool(fits[pos:end].all()):
                gacc = int(gacc_a[pos])
                objective = pipeline_iteration_time(
                    pred.t_stable[pos:end], pred.delta[pos:end], gacc)
                if objective < best_obj:
                    best_idx, best_obj = idx, objective
                    best_gacc, best_stages = gacc, end - pos
            pos = end
        if best_idx is None:
            return None, None
        return best_idx, {
            "num_stages": best_stages,
            "gacc": best_gacc,
            "objective": float(best_obj),
        }

    def _solve_cell(
            self, global_batch: int, task: tuple, memo: MenuMemo, *,
            prefilter: bool,
    ) -> "tuple[inter_stage.InterStageSolution | None, _CellCounts]":
        """Solve one (S, G) cell: stage menus, then the inter-stage solve.

        Returns ``(solution, _CellCounts)``. Stage menus come from
        ``memo``, which stores pure menus keyed by the full subproblem
        fingerprint; a hit replays the evaluated/prefiltered counters
        its original computation recorded, keeping work accounting
        deterministic. ``prefilter`` is forwarded to
        :meth:`IntraStageTuner.tune` (menus are identical either way,
        only the ``prefiltered`` counter differs, so a memo must only
        ever see one setting). The menus then go through one exact
        :func:`~repro.core.inter_stage.solve`, so a cell's solution is
        the same whether the search prunes or not.

        Heterogeneous cells tune each stage with its device group's
        analyzer, so every Pareto point is priced with that group's
        cost model and filtered against that group's memory budget;
        stages adjacent to a group boundary additionally price pipeline
        p2p over the inter-group link (the same clamp the execution
        engine applies).
        """
        num_stages, stage_gpus, gacc, layer_counts, assignment = task
        counts = _CellCounts()
        intra: dict[str, IntraStageTuner] = {}
        seen_in_cell: set[tuple] = set()

        def menus_for(group: str, shape: StageShape, lcounts: list[int],
                      ) -> dict[int, list[ParetoPoint]]:
            key = (self._memo_scopes[group], global_batch, shape,
                   tuple(lcounts))
            entry = memo.lookup(key)
            if entry is None:
                counts.memo_misses += 1
                tuner = intra.get(group)
                if tuner is None:
                    tuner = intra[group] = IntraStageTuner(
                        self.analyzers[group], self.space,
                        global_batch=global_batch, seq_len=self.seq_len,
                    )
                before_eval = tuner.evaluated
                before_pre = tuner.prefiltered
                menus = tuner.tune(shape, lcounts, prefilter=prefilter)
                entry = MemoEntry(
                    menus=menus,
                    evaluated=tuner.evaluated - before_eval,
                    prefiltered=tuner.prefiltered - before_pre,
                )
                memo.store(key, entry)
            else:
                counts.memo_hits += 1
            # count each unique subproblem once per cell, so a cell
            # reports the same work however warm the memo is
            if key not in seen_in_cell:
                seen_in_cell.add(key)
                counts.evaluated += entry.evaluated
                counts.prefiltered += entry.prefiltered
            return entry.menus

        # a homogeneous cell is a run of stages on the one "" group
        slots = ([("", stage_gpus)] * num_stages if assignment is None
                 else [(slot.group, slot.stage_gpus) for slot in assignment])
        stage_counts = (layer_counts if num_stages > 1
                        else [self.model.num_layers])
        menus = []
        for idx, (group, gpus) in enumerate(slots):
            boundary = any(slots[j][0] != group for j in (idx - 1, idx + 1)
                           if 0 <= j < num_stages)
            shape = StageShape(
                stage_gpus=gpus, gacc=gacc,
                inflight=min(gacc, num_stages - idx),
                has_pre=(idx == 0), has_post=(idx == num_stages - 1),
                group=group,
                p2p_bandwidth_cap=(self.hetero.inter_group_bandwidth
                                   if boundary else None),
                p2p_latency_floor=(self.hetero.inter_group_latency
                                   if boundary else None),
            )
            menus.append(menus_for(group, shape, stage_counts))

        solution = inter_stage.solve(
            menus, self.model.num_layers, gacc,
            imbalance_aware=self.space.imbalance_aware,
        )
        return solution, counts
