"""Symbolic performance analyzer (paper Figure 6, Section 5.2).

Compiles the traced stage expressions once into a batched numpy
function over the full symbol vocabulary, then answers configuration
queries by value substitution:

* :meth:`SymbolicPerformanceAnalyzer.predict` — batched: every symbol
  may be a numpy array; returns stable microbatch times, first/last
  microbatch deltas (through the interference model, Eq. 5/6) and peak
  memory per configuration.
* :meth:`SymbolicPerformanceAnalyzer.predict_plan` — convenience for a
  concrete :class:`~repro.core.plan.TrainingPlan`: per-stage
  predictions plus the Eq. 1 iteration time and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.costmodel.interference import InterferenceModel
from repro.execution.schedule import MIST_IMPL_OVERHEAD
from repro.hardware import ClusterSpec, GPUSpec
from repro.symbolic import compile_expr
from repro.tracing import ALL_SYMBOLS, TracedModel
from repro.tracing.memory import FRAMEWORK_OVERHEAD_BYTES
from repro.tracing.symbols import hardware_env

from .objectives import pipeline_iteration_time, throughput
from .plan import TrainingPlan

__all__ = ["SymbolicPerformanceAnalyzer", "StagePrediction", "PlanPrediction",
           "FRAMEWORK_OVERHEAD_BYTES", "MEMORY_SAFETY_MARGIN_BYTES",
           "memory_budget_bytes"]

_ARG_NAMES = tuple(sym.name for sym in ALL_SYMBOLS)

#: extra safety margin the *predictor* keeps on top of the framework
#: overhead — absorbs the engine's whole-layer offload quantization so
#: tuned plans never OOM at execution time
MEMORY_SAFETY_MARGIN_BYTES = 192 * 1024**2


def memory_budget_bytes(gpu: GPUSpec) -> float:
    """Per-GPU byte budget the tuner bounds peak memory by."""
    return (gpu.usable_memory_bytes
            - FRAMEWORK_OVERHEAD_BYTES - MEMORY_SAFETY_MARGIN_BYTES)


@dataclass
class StagePrediction:
    """Batched per-configuration predictions for one stage shape."""

    t_stable: np.ndarray
    delta: np.ndarray
    peak_mem: np.ndarray
    t_first: np.ndarray
    t_last: np.ndarray
    peak_fwd: np.ndarray
    peak_bwd: np.ndarray

    @property
    def t_iteration_contrib(self) -> np.ndarray:  # pragma: no cover - alias
        return self.t_stable


@dataclass
class PlanPrediction:
    """Whole-plan prediction: Eq. 1 applied to per-stage (t, d)."""

    iteration_time: float
    throughput: float
    stage_t: np.ndarray
    stage_d: np.ndarray
    stage_peak_mem: np.ndarray
    fits_memory: bool
    memory_budget: float


class SymbolicPerformanceAnalyzer:
    """One-time compilation, many cheap configuration queries.

    ``gpu`` pins the device whose memory bounds the stages this
    analyzer prices — by default the cluster's GPU, but heterogeneous
    tuning builds one analyzer per
    :class:`~repro.hardware.topology.DeviceGroup` and passes that
    group's :class:`~repro.hardware.gpu.GPUSpec` explicitly.
    """

    def __init__(self, traced: TracedModel, cluster: ClusterSpec,
                 interference: InterferenceModel | None = None, *,
                 gpu: GPUSpec | None = None):
        gpu = gpu if gpu is not None else cluster.gpu
        if traced.gpu.name != gpu.name:
            raise ValueError(
                f"traced model priced for {traced.gpu.name}, analyzer "
                f"device is {gpu.name}"
            )
        self.traced = traced
        self.cluster = cluster
        self.gpu = gpu
        self.interference = interference or InterferenceModel.default(
            pcie_only=not gpu.has_nvlink
        )
        rt, mem = traced.runtime, traced.memory
        # Channel mapping mirrors the execution schedule: TP all-reduces
        # serialize with compute (dependent kernels wait on them), so
        # they live in the compute channel; the NCCL channel carries the
        # overlappable DP collectives and pipeline p2p. Forward and
        # backward phases are predicted separately (they have different
        # channel mixes) and summed into the stable microbatch time.
        comp_scale = 1.0 + MIST_IMPL_OVERHEAD
        self._fn = compile_expr(
            [
                # forward phase channels
                rt.comp_fwd * comp_scale + rt.tp_fwd,
                rt.dp_fwd + rt.p2p_fwd,
                rt.d2h_fwd,
                rt.h2d_fwd,
                # backward phase channels
                rt.comp_bwd * comp_scale + rt.tp_bwd,
                rt.dp_bwd + rt.p2p_bwd,
                rt.d2h_bwd,
                rt.h2d_bwd,
                # first-microbatch extras (applied to the forward phase)
                rt.comp_first * comp_scale, rt.dp_first,
                rt.d2h_first, rt.h2d_first,
                # last-microbatch extra (applied to the backward phase)
                rt.dp_last,
                mem.peak_fwd, mem.peak_bwd,
            ],
            arg_names=_ARG_NAMES,
        )
        # Narrow projections for the pruned search:
        # * the memory-feasibility pre-filter evaluates peak memory alone
        #   (cheap) to reject candidates before any runtime evaluation;
        # * the branch-and-bound cut evaluates the compute channels alone
        #   (fwd/bwd compute + the TP collectives serialized with it)
        #   for its optimistic, interference-free stage-time floor.
        # Compiled over their own free symbols (CompiledExpr.used_symbols)
        # so calls feed only the columns the projection actually reads.
        self._mem_fn = compile_expr([mem.peak_fwd, mem.peak_bwd])
        self._comp_fn = compile_expr(
            [rt.comp_fwd * comp_scale + rt.tp_fwd,
             rt.comp_bwd * comp_scale + rt.tp_bwd],
        )

    # -- environment construction ---------------------------------------------

    @property
    def memory_budget(self) -> float:
        """Per-GPU byte budget available to the plan (this device's)."""
        return memory_budget_bytes(self.gpu)

    def hardware_env(self, dp: npt.ArrayLike,
                     tp: npt.ArrayLike) -> dict[str, np.ndarray]:
        """Bandwidth/latency symbol values for (possibly batched) dp, tp."""
        return hardware_env(self.cluster, dp, tp)

    def build_env(self, **values: npt.ArrayLike) -> dict[str, np.ndarray]:
        """Full symbol environment: config values + derived hardware values."""
        env = {name: np.asarray(values[name], dtype=float)
               for name in values}
        missing_hw = [name for name in ("tp_bw", "dp_bw") if name not in env]
        if missing_hw:
            if "dp" not in values or "tp" not in values:
                raise ValueError(
                    "missing symbol values: hardware bandwidths require "
                    "'dp' and 'tp'"
                )
            env.update(self.hardware_env(values["dp"], values["tp"]))
        missing = [name for name in _ARG_NAMES if name not in env]
        if missing:
            raise ValueError(f"missing symbol values: {missing}")
        return env

    # -- prediction -------------------------------------------------------------

    def predict(self, env: dict[str, np.ndarray]) -> StagePrediction:
        """Evaluate all expressions and apply the interference model."""
        (comp_f, nccl_f, d2h_f, h2d_f,
         comp_b, nccl_b, d2h_b, h2d_b,
         comp_fx, nccl_fx, d2h_fx, h2d_fx,
         nccl_lx, peak_fwd, peak_bwd) = self._fn(
            **{name: env[name] for name in _ARG_NAMES}
        )
        predict = self.interference.predict
        fwd = predict(comp_f, nccl_f, d2h_f, h2d_f)
        bwd = predict(comp_b, nccl_b, d2h_b, h2d_b)
        t_stable = fwd + bwd
        t_first = predict(comp_f + comp_fx, nccl_f + nccl_fx,
                          d2h_f + d2h_fx, h2d_f + h2d_fx) + bwd
        t_last = fwd + predict(comp_b, nccl_b + nccl_lx, d2h_b, h2d_b)
        delta = np.maximum(t_first - t_stable, 0.0) + np.maximum(
            t_last - t_stable, 0.0
        )
        return StagePrediction(
            t_stable=np.asarray(t_stable, dtype=float),
            delta=np.asarray(delta, dtype=float),
            peak_mem=np.maximum(peak_fwd, peak_bwd),
            t_first=np.asarray(t_first, dtype=float),
            t_last=np.asarray(t_last, dtype=float),
            peak_fwd=np.asarray(peak_fwd, dtype=float),
            peak_bwd=np.asarray(peak_bwd, dtype=float),
        )

    def predict_memory(self, env: dict[str, np.ndarray]) -> np.ndarray:
        """Peak memory alone, via the memory-only compiled projection.

        Bit-identical to ``predict(env).peak_mem`` (same expression
        trees, compiled separately) at a fraction of the cost — the
        pruned tuner's memory-feasibility pre-filter runs this over the
        full candidate grid and hands only the surviving rows to
        :meth:`predict`.
        """
        peak_fwd, peak_bwd = self._mem_fn(
            **{name: env[name] for name in self._mem_fn.used_symbols}
        )
        return np.asarray(np.maximum(peak_fwd, peak_bwd), dtype=float)

    def compute_channel(self, env: dict[str, np.ndarray]) -> np.ndarray:
        """Compute-channel busy time (fwd + bwd), interference-free.

        With all interference factors >= 1 (see
        :meth:`repro.costmodel.interference.InterferenceModel.min_factor`)
        this never exceeds the stable microbatch time :meth:`predict`
        returns for the same configuration — the property the
        branch-and-bound lower bound rests on.
        """
        comp_fwd, comp_bwd = self._comp_fn(
            **{name: env[name] for name in self._comp_fn.used_symbols}
        )
        return np.asarray(comp_fwd + comp_bwd, dtype=float)

    def stage_env(self, plan: TrainingPlan, stage_idx: int,
                  seq_len: int) -> dict[str, np.ndarray]:
        """Symbol environment for one concrete stage of a plan."""
        stage = plan.stages[stage_idx]
        z1, z2, z3 = stage.zero_flags
        return self.build_env(
            b=stage.microbatch, s=seq_len, tp=stage.tp, dp=stage.dp,
            l=stage.layers, ckpt=stage.ckpt,
            z1=z1, z2=z2, z3=z3,
            wo=stage.wo, go=stage.go, oo=stage.oo, ao=stage.ao,
            gacc=plan.gacc, inflight=plan.inflight(stage_idx),
            has_pre=int(stage_idx == 0),
            has_post=int(stage_idx == plan.num_stages - 1),
        )

    def predict_plan(self, plan: TrainingPlan, *, seq_len: int) -> PlanPrediction:
        """Per-stage predictions composed through the Eq. 1 objective."""
        t = np.zeros(plan.num_stages)
        d = np.zeros(plan.num_stages)
        peak = np.zeros(plan.num_stages)
        for idx in range(plan.num_stages):
            pred = self.predict(self.stage_env(plan, idx, seq_len))
            t[idx] = float(np.asarray(pred.t_stable).reshape(-1)[0])
            d[idx] = float(np.asarray(pred.delta).reshape(-1)[0])
            peak[idx] = float(np.asarray(pred.peak_mem).reshape(-1)[0])
        iteration = pipeline_iteration_time(t, d, plan.gacc)
        return PlanPrediction(
            iteration_time=iteration,
            throughput=throughput(plan.global_batch, iteration),
            stage_t=t,
            stage_d=d,
            stage_peak_mem=peak,
            fits_memory=bool((peak <= self.memory_budget).all()),
            memory_budget=self.memory_budget,
        )
