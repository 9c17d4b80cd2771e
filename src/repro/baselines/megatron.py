"""Megatron-LM baseline (manual system; paper Table 1 row 1).

Search space: DP/TP/PP sizes, microbatch size, full-or-selective
activation recomputation, and the distributed optimizer (ZeRO-1
equivalent). No ZeRO-2/3, no offloading, uniform stages. The runtime
overlaps the gradient synchronization with backward compute
(``system="megatron"``).

The paper evaluates Megatron-LM by grid-searching this space and
keeping the best *measured* configuration; so does this class.
"""

from __future__ import annotations

from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan

from .common import Capabilities, GridSearchTuner, pipeline_grids

__all__ = ["MegatronTuner"]


class MegatronTuner(GridSearchTuner):
    system = "megatron"
    capabilities = Capabilities(
        name="Megatron-LM",
        zero23=False,
        auto_tuning="none",
    )

    #: distributed-optimizer options (ZeRO-1 equivalent): off / on
    ZERO_LEVELS = (0, 1)
    #: recomputation options: none / full
    CKPT_MODES = ("none", "full")

    def candidate_plans(self, global_batch: int):
        layers_total = self.model.num_layers
        for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
                self.model, self.cluster, global_batch):
            layers = layers_total // num_stages
            for zero in self.ZERO_LEVELS:
                for ckpt_mode in self.CKPT_MODES:
                    ckpt = layers if ckpt_mode == "full" else 0
                    try:
                        stage = StageConfig(
                            layers=layers, microbatch=microbatch,
                            dp=dp, tp=tp, zero=zero, ckpt=ckpt,
                        )
                        yield TrainingPlan(
                            global_batch=global_batch, gacc=gacc,
                            stages=tuple(stage for _ in range(num_stages)),
                            source="megatron-grid",
                        )
                    except PlanValidationError:
                        continue
