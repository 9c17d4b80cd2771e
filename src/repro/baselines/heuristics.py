"""Uniform-strategy heuristic baseline (Yuan et al., ATC 2024; paper §3.3).

Tunes Mist's full optimization set but constrains every pipeline stage
to the *same* checkpoint count and offloading ratios — the search-space
reduction the paper argues is sub-optimal because pipeline stages have
inherently imbalanced memory and compute (26%/20% degradation in the
motivational examples).

Implemented on top of Mist's analyzer: enumerate shared configurations
batched, evaluate every stage position, and keep the best Eq. 1
objective. Gradient-accumulation steps come from Mist's own
:func:`~repro.core.tuner.gacc_candidates` under the same cap, so Mist's
(S, G) grid covers this tuner's at every scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.analyzer import SymbolicPerformanceAnalyzer
from repro.core.objectives import pipeline_iteration_time
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.core.spaces import SPACE_MIST, SearchSpace
from repro.core.tuner import gacc_candidates, traced_model
from repro.costmodel.interference import InterferenceModel
from repro.execution import ExecutionEngine, OOMError
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

    def _shared_config_grid(self, layers: int):
        """(zero, ckpt, wo, go, oo, ao) arrays of shared configurations."""
        space = self.space
        if space.tune_ckpt:
            points = min(space.ckpt_grid_points, layers + 1)
            ckpt_vals = np.unique(
                np.round(np.linspace(0, layers, points)).astype(int)
            )
        else:
            ckpt_vals = np.array([0, layers])
        grids = np.meshgrid(
            np.asarray(space.zero_levels), ckpt_vals,
            np.asarray(space.wo_grid), np.asarray(space.go_grid),
            np.asarray(space.oo_grid), np.asarray(space.ao_grid),
            indexing="ij",
        )
        return [g.reshape(-1) for g in grids]

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

        for num_stages, dp, tp, gacc, microbatch in self.pipeline_grid(
                global_batch):
            tried += 1
            layers = self.model.num_layers // num_stages
            zero_g, ckpt_g, wo_g, go_g, oo_g, ao_g = \
                self._shared_config_grid(layers)
            n = zero_g.size

            stage_t = np.zeros((num_stages, n))
            stage_d = np.zeros((num_stages, n))
            fits = np.ones(n, dtype=bool)
            for i in range(num_stages):
                pred = self.analyzer.predict(self.analyzer.build_env(
                    b=microbatch, s=self.seq_len, dp=dp, tp=tp, l=layers,
                    ckpt=ckpt_g, zero=zero_g,
                    wo=wo_g, go=go_g, oo=oo_g, ao=ao_g, gacc=gacc,
                    inflight=min(gacc, num_stages - i),
                    has_pre=int(i == 0), has_post=int(i == num_stages - 1),
                ))
                stage_t[i] = pred.t_stable
                stage_d[i] = pred.delta
                fits &= pred.peak_mem <= self.analyzer.memory_budget

            if not fits.any():
                continue
            for j in np.nonzero(fits)[0]:
                obj = pipeline_iteration_time(stage_t[:, j], stage_d[:, j],
                                              gacc)
                if obj < best_obj:
                    try:
                        stage = StageConfig(
                            layers=layers, microbatch=microbatch, dp=dp,
                            tp=tp, zero=int(zero_g[j]), ckpt=int(ckpt_g[j]),
                            wo=float(wo_g[j]), go=float(go_g[j]),
                            oo=float(oo_g[j]), ao=float(ao_g[j]),
                        )
                        plan = TrainingPlan(
                            global_batch=global_batch, gacc=gacc,
                            stages=tuple(stage for _ in range(num_stages)),
                            source="uniform-heuristic",
                        )
                        plan.validate(self.model, self.cluster)
                    except PlanValidationError:
                        continue
                    best_obj = obj
                    best_plan = plan

        best_result = None
        oom = 0
        if best_plan is not None:
            try:
                best_result = self.engine.run(best_plan, self.model,
                                              seq_len=self.seq_len,
                                              flash=self.flash)
            except OOMError:
                oom = 1
                best_plan = None
        return BaselineResult(
            system="uniform-heuristic",
            best_plan=best_plan,
            best_result=best_result,
            tuning_time_seconds=time.perf_counter() - start,
            candidates_tried=tried,
            candidates_oom=oom,
        )
