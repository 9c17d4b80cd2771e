"""Discrete-event execution engine: the reproduction's "GPU cluster".

Runs a concrete :class:`~repro.core.plan.TrainingPlan` for one training
iteration and reports measured time, throughput, per-stage memory and a
full phase timeline. All systems (Mist and the baselines) execute here;
they differ in their :class:`~repro.execution.schedule.OverlapCapability`
and, upstream, in the plans their tuners can express.

Concreteness knobs that distinguish "execution" from the analyzer's
closed-form prediction (and give Section 6.6 its nonzero error):

* channel contention resolved by piecewise integration
  (:mod:`repro.execution.events`) rather than Algorithm 1;
* offloading ratios quantized to whole layers;
* 1F1B dependencies simulated exactly, including ramp-up/drain and the
  propagation of first/last-microbatch delays across stages;
* allocator slack in the memory tracker.

The engine reads a cluster through its group interface: each stage
runs on the sub-cluster its ``device_group`` tag resolves to
(``cluster.stage_group``; a plain cluster answers itself for any tag),
and ``cluster.p2p_links`` says which stages send activations over the
inter-group link. A one-group fleet is reduced to its plain cluster
(:func:`~repro.hardware.reduce_fleet`), so it runs like one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.memo import GLOBAL_KERNEL_CACHE
from repro.core.plan import StageConfig, TrainingPlan
from repro.hardware import ClusterSpec, HeterogeneousCluster, reduce_fleet
from repro.models.config import ModelConfig
from repro.symbolic import compile_expr
from repro.tracing import ALL_SYMBOLS, TracedModel
from repro.tracing.symbols import symbol_env

from .events import contention_model
from .memory_tracker import (
    OOMError,
    StageMemoryReport,
    quantize_ratio,
    track_stage_memory,
)
from .pipeline import PipelineResult, simulate_pipeline
from .schedule import PHASE_RESOURCES, SCHEDULES, OverlapCapability, \
    phase_wall_times

__all__ = ["ExecutionEngine", "Fastest", "IterationResult", "OOMError",
           "fastest"]

_ARG_NAMES = tuple(sym.name for sym in ALL_SYMBOLS)

_COMPONENT_FIELDS = (
    "comp_fwd", "comp_bwd", "tp_fwd", "tp_bwd", "dp_fwd", "dp_bwd",
    "p2p_fwd", "p2p_bwd", "d2h_fwd", "d2h_bwd", "h2d_fwd", "h2d_bwd",
    "comp_first", "dp_first", "d2h_first", "h2d_first", "dp_last",
)
#: a stage's component row: the kernel's outputs, then a 0.0
_ZERO = len(_COMPONENT_FIELDS)


def _phase_columns(suffix: str) -> list[int]:
    """Component-row columns of one phase's resources, in
    PHASE_RESOURCES order; a resource without a ``<resource>_<suffix>``
    component reads the row's trailing 0.0."""
    names = (f"{resource}_{suffix}" for resource in PHASE_RESOURCES)
    return [_COMPONENT_FIELDS.index(name) if name in _COMPONENT_FIELDS
            else _ZERO for name in names]


#: stable phases, and the extras of microbatch 0's forward and
#: microbatch gacc-1's backward
_FWD, _BWD, _FIRST, _LAST = map(_phase_columns,
                                ("fwd", "bwd", "first", "last"))


@dataclass
class IterationResult:
    """Measured outcome of one simulated training iteration."""

    plan: TrainingPlan
    system: str
    iteration_time: float
    throughput: float
    stage_memory: list[StageMemoryReport]
    pipeline: PipelineResult
    metadata: dict = field(default_factory=dict)

    @property
    def peak_memory(self) -> float:
        return max(report.peak for report in self.stage_memory)

    def describe(self) -> str:
        lines = [
            f"[{self.system}] iteration {self.iteration_time * 1e3:.1f} ms, "
            f"throughput {self.throughput:.2f} samples/s"
        ]
        for report in self.stage_memory:
            lines.append(
                f"  stage {report.stage_idx}: peak "
                f"{report.peak / 2**30:.2f} GiB "
                f"({report.utilization * 100:.0f}% of device)"
            )
        return "\n".join(lines)


class ExecutionEngine:
    """Simulated cluster executor for training plans.

    Accepts a homogeneous :class:`ClusterSpec` or a
    :class:`~repro.hardware.HeterogeneousCluster`; on the latter every
    stage executes on its :attr:`StageConfig.device_group`'s devices —
    memory is checked against that group's GPU, kernels are priced with
    its operator database, and activations crossing a group boundary
    ride the (usually slower) inter-group link.
    """

    def __init__(self, cluster: "ClusterSpec | HeterogeneousCluster", *,
                 system: str = "mist"):
        if system not in SCHEDULES:
            raise ValueError(
                f"unknown system {system!r}; known: {sorted(SCHEDULES)}"
            )
        self.cluster = reduce_fleet(cluster)
        self.system = system
        self.capability: OverlapCapability = SCHEDULES[system]
        # conservative: contention factors of the weakest fabric
        pcie_only = any(not sub.gpu.has_nvlink
                        for _, sub in self.cluster.sub_clusters)
        self.contention = contention_model(pcie_only=pcie_only)

    # -- traces and kernels -------------------------------------------------

    def _stage_cluster(self, stage: StageConfig) -> ClusterSpec:
        """The homogeneous (sub-)cluster executing ``stage``."""
        return self.cluster.stage_group(stage.device_group)[1]

    @staticmethod
    def _traced(model: ModelConfig, flash: bool,
                cluster: ClusterSpec) -> TracedModel:
        # the tuner module owns the process-wide trace entry point; a
        # module-level import would close the core <-> execution cycle
        from repro.core.tuner import traced_model

        return traced_model(model, cluster.gpu, flash=flash)

    @staticmethod
    def _components_fn(traced: TracedModel):
        rt = traced.runtime
        return GLOBAL_KERNEL_CACHE.get(
            (traced.config, traced.gpu, traced.flash, "engine.components"),
            lambda: compile_expr([getattr(rt, name)
                                  for name in _COMPONENT_FIELDS],
                                 arg_names=_ARG_NAMES))

    # -- execution ------------------------------------------------------------

    def run(self, plan: TrainingPlan, model: ModelConfig, *, seq_len: int,
            flash: bool = True, check_memory: bool = True) -> IterationResult:
        """Execute one iteration; raises :class:`OOMError` if a stage
        exceeds device memory (like the real cluster would)."""
        plan.validate(model, self.cluster)

        num_stages = plan.num_stages
        gacc = plan.gacc
        stage_memory: list[StageMemoryReport] = []
        components = np.zeros((num_stages, _ZERO + 1))
        max_p2p_lat = 0.0
        links = self.cluster.p2p_links(
            [stage.device_group for stage in plan.stages])

        for idx, stage in enumerate(plan.stages):
            gcluster = self._stage_cluster(stage)
            traced = self._traced(model, flash, gcluster)
            report = track_stage_memory(
                traced.graph, gcluster.gpu, stage,
                stage_idx=idx, num_stages=num_stages,
                inflight=plan.inflight(idx), seq_len=seq_len,
                runtime_overhead_bytes=self.capability.extra_memory_bytes,
            )
            stage_memory.append(report)
            if check_memory and not report.fits:
                raise OOMError(idx, report.peak, report.capacity)

            env = self._stage_env(plan, idx, seq_len, gcluster, links[idx])
            components[idx, :_ZERO] = self._components_fn(traced)(**env)
            max_p2p_lat = max(max_p2p_lat, float(env["p2p_lat"]))

        # Only microbatch 0's forward and microbatch gacc-1's backward
        # carry extras, so a stage has four distinct phases; the whole
        # plan's are priced in one call.
        fwd = components[:, _FWD]
        bwd = components[:, _BWD]
        phases = np.stack([fwd + components[:, _FIRST],
                           bwd + components[:, _LAST], fwd, bwd], axis=1)
        walls = phase_wall_times(phases.reshape(-1, len(PHASE_RESOURCES)),
                                 self.capability, self.contention)
        fwd_times: list[list[float]] = []
        bwd_times: list[list[float]] = []
        for fwd_first, bwd_last, fwd_wall, bwd_wall in \
                walls.reshape(num_stages, 4).tolist():
            fwd_times.append([fwd_first] + [fwd_wall] * (gacc - 1))
            bwd_times.append([bwd_wall] * (gacc - 1) + [bwd_last])

        pipeline = simulate_pipeline(fwd_times, bwd_times,
                                     p2p_delay=max_p2p_lat)
        iteration_time = pipeline.total_time
        return IterationResult(
            plan=plan,
            system=self.system,
            iteration_time=iteration_time,
            throughput=plan.global_batch / iteration_time,
            stage_memory=stage_memory,
            pipeline=pipeline,
            metadata={"seq_len": seq_len, "flash": flash,
                      "model": model.name},
        )

    def execute(self, plans: Iterable[TrainingPlan], model: ModelConfig, *,
                seq_len: int, flash: bool = True
                ) -> Iterator[tuple[TrainingPlan, IterationResult | None]]:
        """Run ``plans`` in order, one :meth:`run` each, lazily: yields
        each plan with its result, or with ``None`` when a stage ran out
        of memory. A plan that does not fit the cluster's shape raises
        :class:`~repro.core.plan.PlanValidationError`."""
        for plan in plans:
            try:
                yield plan, self.run(plan, model, seq_len=seq_len,
                                     flash=flash)
            except OOMError:
                yield plan, None

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _stage_env(plan: TrainingPlan, idx: int, seq_len: int,
                   cluster: ClusterSpec,
                   p2p_link: tuple[float, float] | None) -> dict[str, float]:
        """Symbol values of one stage, all scalars."""
        stage = plan.stages[idx]
        return symbol_env(
            cluster, b=stage.microbatch, s=seq_len, dp=stage.dp,
            tp=stage.tp, l=stage.layers, ckpt=stage.ckpt, zero=stage.zero,
            # execution quantizes offload ratios to whole layers
            wo=quantize_ratio(stage.wo, stage.layers),
            go=quantize_ratio(stage.go, stage.layers),
            oo=quantize_ratio(stage.oo, stage.layers),
            ao=quantize_ratio(stage.ao, stage.layers),
            gacc=plan.gacc, inflight=plan.inflight(idx),
            has_pre=int(idx == 0),
            has_post=int(idx == plan.num_stages - 1),
            p2p_link=p2p_link,
        )


class Fastest(NamedTuple):
    """The plan :func:`fastest` keeps, and what it saw."""

    plan: TrainingPlan | None
    result: IterationResult | None
    runs: int
    ooms: int


def fastest(runs: Iterable[tuple[TrainingPlan, IterationResult | None]]
            ) -> Fastest:
    """The first run with the highest measured throughput among
    :meth:`ExecutionEngine.execute`'s ``runs``, counting the runs and the
    out-of-memory ones; no plan when every run ran out of memory."""
    plan: TrainingPlan | None = None
    best: IterationResult | None = None
    count = ooms = 0
    for candidate, result in runs:
        count += 1
        if result is None:
            ooms += 1
        elif best is None or result.throughput > best.throughput:
            plan, best = candidate, result
    return Fastest(plan, best, count, ooms)
