"""Uniform-strategy heuristic baseline (Yuan et al., ATC 2024; paper §3.3).

Tunes Mist's full optimization set but constrains every pipeline stage
to the *same* checkpoint count and offloading ratios — the search-space
reduction the paper argues is sub-optimal because pipeline stages have
inherently imbalanced memory and compute (26%/20% degradation in the
motivational examples).

It is Mist's search restricted to one stage configuration, built from
Mist's own parts: gacc steps from :func:`~repro.core.tuner.gacc_candidates`
under the same cap (so Mist's (S, G) grid covers this tuner's at every
scale), checkpoint counts from :func:`~repro.core.intra_stage.ckpt_pairs`,
and Eq. 1 priced row-wise over the configurations that fit at every
stage, keeping the first strict minimum.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.analyzer import SymbolicPerformanceAnalyzer
from repro.core.intra_stage import ckpt_pairs
from repro.core.objectives import pipeline_iteration_time_rows
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.core.spaces import SPACE_MIST, SearchSpace
from repro.core.tuner import gacc_candidates, traced_model
from repro.costmodel.interference import InterferenceModel
from repro.execution import ExecutionEngine, fastest
from repro.hardware import ClusterSpec
from repro.models.config import ModelConfig

from .common import BaselineResult, Capabilities, pipeline_grids

__all__ = ["UniformHeuristicTuner"]


class UniformHeuristicTuner:
    """Same memory-optimization configuration across all stages."""

    system = "mist"  # executes on Mist's runtime; only the tuner differs
    capabilities = Capabilities(
        name="Uniform Heuristic (Yuan et al.)",
        offload_o="fine", offload_a="fine",
        zero23=False,
        auto_tuning="partial",
    )

    def __init__(self, model: ModelConfig, cluster: ClusterSpec, *,
                 seq_len: int, flash: bool = True,
                 space: SearchSpace = SPACE_MIST,
                 interference: InterferenceModel | None = None,
                 max_gacc_candidates: int | None = None):
        self.model = model
        self.cluster = cluster
        self.seq_len = seq_len
        self.flash = flash
        self.space = space
        self.max_gacc_candidates = max_gacc_candidates
        traced = traced_model(model, cluster.gpu, flash=flash)
        self.analyzer = SymbolicPerformanceAnalyzer(
            traced, cluster, interference=interference
        )
        self.engine = ExecutionEngine(cluster, system=self.system)

    def _shared_config_grid(self, layers: int) -> dict[str, np.ndarray]:
        """Columns ``zero``, ``ckpt``, ``wo``, ``go``, ``oo``, ``ao`` of
        the shared configurations, with the checkpoint counts Mist's own
        :func:`~repro.core.intra_stage.ckpt_pairs` allows."""
        space = self.space
        grids = np.meshgrid(
            np.asarray(space.zero_levels), ckpt_pairs(space, [layers])[1],
            np.asarray(space.wo_grid), np.asarray(space.go_grid),
            np.asarray(space.oo_grid), np.asarray(space.ao_grid),
            indexing="ij",
        )
        return {name: g.reshape(-1) for name, g in
                zip(("zero", "ckpt", "wo", "go", "oo", "ao"), grids)}

    def pipeline_grid(self, global_batch: int):
        """The (num_stages, dp, tp, gacc, microbatch) tuples searched:
        :func:`pipeline_grids` restricted to Mist's gacc candidates."""
        for point in pipeline_grids(self.model, self.cluster, global_batch):
            num_stages, gacc = point[0], point[3]
            if gacc in gacc_candidates(global_batch, num_stages,
                                       self.max_gacc_candidates):
                yield point

    def tune(self, global_batch: int) -> BaselineResult:
        start = time.perf_counter()
        best_obj = np.inf
        best_plan: TrainingPlan | None = None
        tried = 0
        analyzer = self.analyzer

        for num_stages, dp, tp, gacc, microbatch in self.pipeline_grid(
                global_batch):
            tried += 1
            layers = self.model.num_layers // num_stages
            # validation reads only the point, never a row's memory config
            point = TrainingPlan(
                global_batch=global_batch, gacc=gacc,
                stages=(StageConfig(layers=layers, microbatch=microbatch,
                                    dp=dp, tp=tp),) * num_stages,
                source="uniform-heuristic",
            )
            try:
                point.validate(self.model, self.cluster)
            except PlanValidationError:
                continue

            def stage_env(i: int, config: dict[str, np.ndarray]):
                return analyzer.build_env(
                    b=microbatch, s=self.seq_len, dp=dp, tp=tp, l=layers,
                    gacc=gacc, inflight=min(gacc, num_stages - i),
                    has_pre=int(i == 0), has_post=int(i == num_stages - 1),
                    **config)

            # as Mist prices a menu: memory first, then runtime on the
            # rows that fit at every stage
            grid = self._shared_config_grid(layers)
            fits = np.logical_and.reduce([
                analyzer.predict_memory(stage_env(i, grid))
                <= analyzer.memory_budget for i in range(num_stages)])
            rows = {name: column[fits] for name, column in grid.items()}
            if not rows["ckpt"].size:
                continue
            preds = [analyzer.predict(stage_env(i, rows))
                     for i in range(num_stages)]
            # (rows, stages), C-contiguous: Eq. 1 reduces each row
            objective = pipeline_iteration_time_rows(
                np.stack([p.t_stable for p in preds], axis=1),
                np.stack([p.delta for p in preds], axis=1), gacc)
            # the first strict minimum; a NaN never wins
            j = int(np.argmin(np.fmin(objective, np.inf)))  # NaN -> inf
            if objective[j] < best_obj:
                best_obj = objective[j]
                best_plan = dataclasses.replace(point, stages=(
                    dataclasses.replace(
                        point.stages[0],
                        **{name: column[j].item()
                           for name, column in rows.items()}),
                ) * num_stages)

        best = fastest(self.engine.execute(
            [best_plan] if best_plan is not None else [], self.model,
            seq_len=self.seq_len, flash=self.flash))
        return BaselineResult(
            system="uniform-heuristic",
            best_plan=best.plan,
            best_result=best.result,
            tuning_time_seconds=time.perf_counter() - start,
            candidates_tried=tried,
            candidates_oom=best.ooms,
        )
