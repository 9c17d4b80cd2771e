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
optimization combinations", Section 6.1). Both are rows of one grid,
:class:`GridSearchTuner`, that differ only in their axis values.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.execution import ExecutionEngine, IterationResult, fastest
from repro.hardware import ClusterSpec
from repro.models.config import ModelConfig

__all__ = ["Capabilities", "BaselineResult", "DeepSpeedTuner",
           "GridSearchTuner", "MegatronTuner", "pipeline_grids"]


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

    The grid is :func:`pipeline_grids` x :attr:`ZERO_LEVELS` x {no
    recomputation, full} x :attr:`OFFLOAD_MODES`, under DeepSpeed's
    rules: offloading needs ZeRO, and gradient offload needs ZeRO-2.
    Every candidate is executed on this system's engine and the first
    best measured throughput is kept. OOMs are recorded, exactly like
    failed launches on a real cluster.
    """

    #: engine system key (overlap capability)
    system = "megatron"
    capabilities = Capabilities(name="grid-search")
    #: ZeRO stages searched
    ZERO_LEVELS: tuple[int, ...] = (0,)
    #: (oo, go) offload ratio pairs searched
    OFFLOAD_MODES: tuple[tuple[float, float], ...] = ((0.0, 0.0),)

    def __init__(self, model: ModelConfig, cluster: ClusterSpec, *,
                 seq_len: int, flash: bool = True):
        self.model = model
        self.cluster = cluster
        self.seq_len = seq_len
        self.flash = flash
        self.engine = ExecutionEngine(cluster, system=self.system)

    def candidate_plans(self, global_batch: int):
        """The grid's uniform-stage plans, each valid on the cluster."""
        for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
                self.model, self.cluster, global_batch):
            layers = self.model.num_layers // num_stages
            for zero, ckpt, (oo, go) in itertools.product(
                    self.ZERO_LEVELS, (0, layers), self.OFFLOAD_MODES):
                if (oo or go) and zero == 0:
                    continue  # ZeRO-Offload requires ZeRO
                if go and zero < 2:
                    continue  # gradient offload rides ZeRO-2
                try:
                    stage = StageConfig(
                        layers=layers, microbatch=microbatch, dp=dp, tp=tp,
                        zero=zero, ckpt=ckpt, oo=oo, go=go,
                    )
                    plan = TrainingPlan(
                        global_batch=global_batch, gacc=gacc,
                        stages=(stage,) * num_stages,
                        source=f"{self.system}-grid",
                    )
                    plan.validate(self.model, self.cluster)
                except PlanValidationError:
                    continue
                yield plan

    def tune(self, global_batch: int) -> BaselineResult:
        start = time.perf_counter()
        best = fastest(self.engine.execute(
            self.candidate_plans(global_batch), self.model,
            seq_len=self.seq_len, flash=self.flash))
        return BaselineResult(
            system=self.system,
            best_plan=best.plan,
            best_result=best.result,
            tuning_time_seconds=time.perf_counter() - start,
            candidates_tried=best.runs,
            candidates_oom=best.ooms,
        )


class MegatronTuner(GridSearchTuner):
    """Megatron-LM (Table 1 row 1): DP/TP/PP, microbatch, full-or-none
    recomputation and the distributed optimizer (ZeRO-1 equivalent); no
    ZeRO-2/3, no offloading. Its runtime overlaps the gradient
    synchronization with backward compute."""

    system = "megatron"
    capabilities = Capabilities(name="Megatron-LM")
    ZERO_LEVELS = (0, 1)


class DeepSpeedTuner(GridSearchTuner):
    """DeepSpeed (Table 1 row 2): ZeRO stages 0-3 and coarse (on/off)
    ZeRO-Offload of optimizer states and gradients; ratios are not
    tunable. Its runtime serializes the offload traffic, which is why it
    loses to Megatron-LM whenever its parallelization plans hit memory
    limits (Section 6.2 observation 1)."""

    system = "deepspeed"
    capabilities = Capabilities(name="DeepSpeed", offload_g="coarse",
                                offload_o="coarse", zero23=True)
    ZERO_LEVELS = (0, 1, 2, 3)
    OFFLOAD_MODES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
