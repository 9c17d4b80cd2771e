"""Shared infrastructure for baseline system reproductions.

Each baseline is characterized by (per paper Table 1):

* a :class:`Capabilities` row — which optimizations the system supports
  and at what granularity;
* a search space — which of those its (grid-search or automatic) tuner
  can actually vary;
* an execution :class:`~repro.execution.schedule.OverlapCapability` —
  what its runtime overlaps.

Manual systems (Megatron-LM, DeepSpeed) are represented the way the
paper evaluates them: a grid search over their configuration space with
every candidate *executed* on the engine and the best measured
throughput kept ("we perform a grid search over all possible
optimization combinations", Section 6.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.plan import PlanValidationError, TrainingPlan
from repro.execution import ExecutionEngine, IterationResult, OOMError
from repro.hardware import ClusterSpec
from repro.models.config import ModelConfig

__all__ = ["Capabilities", "BaselineResult", "GridSearchTuner",
           "pipeline_grids"]


def pipeline_grids(model: ModelConfig, cluster: ClusterSpec,
                   global_batch: int):
    """(num_stages, dp, tp, gacc, microbatch) tuples of the uniform-stage
    power-of-two configuration space shared by the baseline systems."""
    for num_stages in cluster.pipeline_stage_counts():
        if num_stages > model.num_layers:
            continue
        if model.num_layers % num_stages != 0:
            continue
        stage_gpus = cluster.total_gpus // num_stages
        for dp, tp in cluster.stage_parallelism_options(stage_gpus):
            if model.hidden_size % tp != 0:
                continue
            gacc = 1
            while gacc <= global_batch:
                per_wave = global_batch // gacc
                if global_batch % gacc == 0 and per_wave % dp == 0:
                    microbatch = per_wave // dp
                    if microbatch >= 1:
                        yield num_stages, dp, tp, gacc, microbatch
                gacc *= 2


@dataclass(frozen=True)
class Capabilities:
    """One row of the paper's Table 1."""

    name: str
    dp: bool = True
    tp: bool = True
    pp: bool = True
    #: offloading support for params/grads/optimizer/activations:
    #: "none", "coarse" (on/off) or "fine" (ratios)
    offload_p: str = "none"
    offload_g: str = "none"
    offload_o: str = "none"
    offload_a: str = "none"
    zero23: bool = False
    #: "none" (manual), "partial" (tunes a subset), "full"
    auto_tuning: str = "none"

    def as_row(self) -> dict:
        return {
            "System": self.name,
            "DP": self.dp, "TP": self.tp, "PP": self.pp,
            "Offload P": self.offload_p, "Offload G": self.offload_g,
            "Offload O": self.offload_o, "Offload A": self.offload_a,
            "ZeRO-2/3": self.zero23,
            "Auto-Tuning": self.auto_tuning,
        }


@dataclass
class BaselineResult:
    """Outcome of a baseline's configuration search."""

    system: str
    best_plan: TrainingPlan | None
    best_result: IterationResult | None
    tuning_time_seconds: float
    candidates_tried: int
    candidates_oom: int

    @property
    def found(self) -> bool:
        return self.best_plan is not None

    @property
    def throughput(self) -> float:
        return self.best_result.throughput if self.best_result else 0.0


class GridSearchTuner:
    """Execute-and-measure grid search (how the paper runs manual systems).

    Subclasses define :meth:`candidate_plans`; every structurally valid
    candidate is executed on this system's engine and ranked by measured
    throughput. OOMs are recorded, exactly like failed launches on a
    real cluster.
    """

    #: engine system key (overlap capability) — subclasses override
    system = "megatron"
    capabilities = Capabilities(name="grid-search")

    def __init__(self, model: ModelConfig, cluster: ClusterSpec, *,
                 seq_len: int, flash: bool = True):
        self.model = model
        self.cluster = cluster
        self.seq_len = seq_len
        self.flash = flash
        self.engine = ExecutionEngine(cluster, system=self.system)

    # -- to be provided by subclasses ----------------------------------------

    def candidate_plans(self, global_batch: int):
        raise NotImplementedError

    # -- search ------------------------------------------------------------------

    def tune(self, global_batch: int) -> BaselineResult:
        start = time.perf_counter()
        best_plan: TrainingPlan | None = None
        best_result: IterationResult | None = None
        tried = 0
        oom = 0
        for plan in self.candidate_plans(global_batch):
            tried += 1
            try:
                result = self.engine.run(plan, self.model,
                                         seq_len=self.seq_len,
                                         flash=self.flash)
            except OOMError:
                oom += 1
                continue
            except PlanValidationError:
                continue
            if best_result is None or result.throughput > best_result.throughput:
                best_plan, best_result = plan, result
        return BaselineResult(
            system=self.system,
            best_plan=best_plan,
            best_result=best_result,
            tuning_time_seconds=time.perf_counter() - start,
            candidates_tried=tried,
            candidates_oom=oom,
        )
