"""DeepSpeed baseline (manual system; paper Table 1 row 2).

Search space: DP/TP/PP sizes, microbatch, ZeRO stages 0-3, full-or-none
recomputation, and coarse (on/off) ZeRO-Offload of gradients and
optimizer states. Uniform stages; ratios are not tunable — this is the
"broader memory optimizations but only coarse-grained configuration"
column of Table 1.

DeepSpeed's runtime overlaps gradient collectives but serializes the
offload traffic (``system="deepspeed"``), which is why it loses to
Megatron-LM whenever its parallelization plans hit memory limits and it
must fall back to sub-optimal configurations (Section 6.2 observation 1).
"""

from __future__ import annotations

from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan

from .common import Capabilities, GridSearchTuner, pipeline_grids

__all__ = ["DeepSpeedTuner"]


class DeepSpeedTuner(GridSearchTuner):
    system = "deepspeed"
    capabilities = Capabilities(
        name="DeepSpeed",
        offload_g="coarse",
        offload_o="coarse",
        zero23=True,
        auto_tuning="none",
    )

    ZERO_LEVELS = (0, 1, 2, 3)
    CKPT_MODES = ("none", "full")
    #: ZeRO-Offload: all-or-nothing optimizer/gradient offload
    OFFLOAD_MODES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))  # (oo, go)

    def candidate_plans(self, global_batch: int):
        layers_total = self.model.num_layers
        for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
                self.model, self.cluster, global_batch):
            layers = layers_total // num_stages
            for zero in self.ZERO_LEVELS:
                for ckpt_mode in self.CKPT_MODES:
                    ckpt = layers if ckpt_mode == "full" else 0
                    for oo, go in self.OFFLOAD_MODES:
                        if (oo or go) and zero == 0:
                            continue  # ZeRO-Offload requires ZeRO
                        if go and zero < 2:
                            continue  # gradient offload rides ZeRO-2
                        try:
                            stage = StageConfig(
                                layers=layers, microbatch=microbatch,
                                dp=dp, tp=tp, zero=zero, ckpt=ckpt,
                                oo=oo, go=go,
                            )
                            yield TrainingPlan(
                                global_batch=global_batch, gacc=gacc,
                                stages=tuple(stage
                                             for _ in range(num_stages)),
                                source="deepspeed-grid",
                            )
                        except PlanValidationError:
                            continue
