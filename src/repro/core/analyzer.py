"""Symbolic performance analyzer (paper Figure 6, Section 5.2).

Compiles the traced stage expressions once into a batched numpy
function over the full symbol vocabulary, then answers configuration
queries by value substitution:

* :meth:`SymbolicPerformanceAnalyzer.predict` — batched: every symbol
  may be a numpy array; returns stable microbatch times, first/last
  microbatch deltas (through the interference model, Eq. 5/6) and peak
  memory per configuration.
* :meth:`SymbolicPerformanceAnalyzer.predict_memory` — peak memory
  alone, from its own kernel.
* :meth:`SymbolicPerformanceAnalyzer.predict_feasible` — the rest of
  :meth:`~SymbolicPerformanceAnalyzer.predict` over an axis-factored
  menu grid whose peak memory is known, at its memory-feasible rows: one
  stacked Algorithm 1 sweep per menu, each segment at the size of the
  axes it reads, or over the gathered rows when those are fewer.
* :meth:`SymbolicPerformanceAnalyzer.predict_plan` — convenience for a
  concrete :class:`~repro.core.plan.TrainingPlan`: per-stage
  predictions plus the Eq. 1 iteration time and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.costmodel.interference import InterferenceModel
from repro.execution.schedule import MIST_IMPL_OVERHEAD
from repro.hardware import ClusterSpec, GPUSpec
from repro.symbolic import compile_expr
from repro.tracing import ALL_SYMBOLS, TracedModel
from repro.tracing.memory import FRAMEWORK_OVERHEAD_BYTES
from repro.tracing.symbols import symbol_env

from .memo import GLOBAL_KERNEL_CACHE
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


def _row_shape(env: dict[str, np.ndarray]) -> tuple[int, ...]:
    """The broadcast shape of ``env``'s values, at least 1-d: the shape
    of every prediction made from it."""
    return np.broadcast(*env.values()).shape or (1,)


def _column(value: Any, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``; a scalar is spread."""
    value = np.asarray(value, dtype=float)
    return value if value.shape == shape else np.full(shape, value)


def gather_rows(value: Any, rows: np.ndarray,
                shape: tuple[int, ...]) -> Any:
    """``value``, broadcast to ``shape``, at the flat indices ``rows``:
    a float array of ``rows``' shape."""
    if not np.ndim(value):
        return np.full(rows.shape, value, dtype=float)
    if value.shape != shape:
        full = np.empty(shape)
        full[...] = value
        value = full
    return value.take(rows)


@dataclass
class StagePrediction:
    """Batched per-configuration predictions for one stage shape."""

    t_stable: np.ndarray
    delta: np.ndarray
    peak_mem: np.ndarray
    t_first: np.ndarray
    t_last: np.ndarray


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

    The cluster's GPU bounds the stages this analyzer prices;
    heterogeneous tuning builds one analyzer per device group, each on
    that group's homogeneous sub-cluster.
    """

    def __init__(self, traced: TracedModel, cluster: ClusterSpec,
                 interference: InterferenceModel | None = None):
        gpu = cluster.gpu
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
        # Compiled once per process: each kernel is a pure function of
        # the trace, shared through GLOBAL_KERNEL_CACHE under the trace
        # key plus a purpose tag. The runtime and memory kernels share
        # no output: the tuner prices memory first, then runtime only
        # where a row fits.
        rt, mem = traced.runtime, traced.memory
        key = (traced.config, traced.gpu, traced.flash)
        # Channel mapping mirrors the execution schedule: TP all-reduces
        # serialize with compute (dependent kernels wait on them), so
        # they live in the compute channel; the NCCL channel carries the
        # overlappable DP collectives and pipeline p2p. Forward and
        # backward phases are predicted separately (they have different
        # channel mixes) and summed into the stable microbatch time.
        comp_scale = 1.0 + MIST_IMPL_OVERHEAD
        self._fn = GLOBAL_KERNEL_CACHE.get(key + ("analyzer.fn",), lambda: (
            compile_expr([
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
            ], arg_names=_ARG_NAMES)))
        # Compiled over its own free symbols (CompiledExpr.used_symbols),
        # so calls feed only the columns it reads.
        self._mem_fn = GLOBAL_KERNEL_CACHE.get(
            key + ("analyzer.mem_fn",),
            lambda: compile_expr([mem.peak_fwd, mem.peak_bwd]))

    # -- environment construction ---------------------------------------------

    @property
    def memory_budget(self) -> float:
        """Per-GPU byte budget available to the plan (this device's)."""
        return memory_budget_bytes(self.gpu)

    def build_env(self, **values: Any) -> dict[str, np.ndarray]:
        """:func:`~repro.tracing.symbols.symbol_env` on this analyzer's
        cluster: config values (``zero=`` the ZeRO level) in, every
        symbol's value out."""
        return symbol_env(self.cluster, **values)

    # -- prediction -------------------------------------------------------------

    def predict(self, env: dict[str, np.ndarray]) -> StagePrediction:
        """Evaluate all expressions and apply the interference model.

        Every field has the broadcast shape of ``env``'s values, at
        least 1-d.
        """
        shape = _row_shape(env)
        pred = self._interfere(self._channels(env), self.predict_memory(env))
        return StagePrediction(**{name: _column(value, shape)
                                  for name, value in vars(pred).items()})

    def predict_feasible(self, env: dict[str, np.ndarray],
                         peak_mem: np.ndarray,
                         ) -> tuple[np.ndarray, StagePrediction]:
        """:meth:`predict` over a grid, at the rows that fit in memory.

        ``peak_mem`` is :meth:`predict_memory` of ``env`` (the grid),
        in any shape with the grid's cells in C order. Returns
        ``(rows, pred)``. ``rows`` holds the flat indices, in ascending
        order, of the grid rows whose peak memory is within
        :attr:`memory_budget`. ``pred.t_first``, ``pred.t_last`` and
        ``pred.delta`` are columns over ``rows``; ``pred.peak_mem`` is
        ``peak_mem``, and every other field keeps the shape of the grid
        axes it reads and broadcasts to the grid. The values are the
        bits :meth:`predict` gives for the same rows.
        """
        grid = _row_shape(env)
        rows = np.flatnonzero(peak_mem <= self.memory_budget)
        return rows, self._interfere(self._channels(env), peak_mem, rows,
                                     grid)

    def _channels(self, env: dict[str, np.ndarray]) -> tuple:
        """The runtime kernel's outputs, in :meth:`_interfere`'s order.

        Each has the broadcast shape of the symbols it reads, or is a
        scalar where it reads scalars only.
        """
        return self._fn(**{name: env[name] for name in _ARG_NAMES})

    def _interfere(self, channels: tuple, peak_mem: np.ndarray,
                   rows: np.ndarray | None = None,
                   grid: tuple[int, ...] = ()) -> StagePrediction:
        """Algorithm 1 over :meth:`_channels`' outputs.

        One stacked sweep per menu, each segment at the size of the axes
        it reads: the forward, backward, first- and last-microbatch
        inputs are written side by side into one ``(4, n)`` matrix, each
        at the broadcast shape of its own inputs, so every field keeps
        the shape of the axes it reads. Given ``rows``, flat indices into
        ``grid``, ``t_first``, ``t_last`` and ``delta`` are columns over
        those rows instead, and the first- and last-microbatch segments
        hold the gathered rows when those are fewer than the segments'
        cells. ``peak_mem`` passes through as the prediction's
        ``peak_mem``.
        """
        (comp_f, nccl_f, d2h_f, h2d_f,
         comp_b, nccl_b, d2h_b, h2d_b,
         comp_fx, nccl_fx, d2h_fx, h2d_fx,
         nccl_lx) = channels

        def at(value):
            return value if rows is None else gather_rows(value, rows, grid)

        # Each segment's four sweep slots, each the sum of its terms.
        # Known slot mismatch: D2H time fills c2g (H2D), H2D time g2c (D2H).
        segments = (
            ((comp_f,), (nccl_f,), (d2h_f,), (h2d_f,)),
            ((comp_b,), (nccl_b,), (d2h_b,), (h2d_b,)),
            ((comp_f, comp_fx), (nccl_f, nccl_fx), (d2h_f, d2h_fx),
             (h2d_f, h2d_fx)),
            ((comp_b,), (nccl_b, nccl_lx), (d2h_b,), (h2d_b,)),
        )
        layout = []  # (shape, gathered, start, stop) per segment
        stop = 0
        for k, slots in enumerate(segments):
            cast = np.broadcast(*(term for terms in slots for term in terms))
            gathered = k >= 2 and rows is not None and rows.size < cast.size
            start, stop = stop, stop + (rows.size if gathered else cast.size)
            layout.append((cast.shape, gathered, start, stop))

        x = np.empty((4, stop))
        for slots, (shape, gathered, start, stop) in zip(segments, layout):
            for row, terms in zip(x, slots):
                out = row[start:stop]
                if gathered:
                    value = terms[0] if len(terms) == 1 else np.add(*terms)
                    np.copyto(out, gather_rows(value, rows, grid))
                elif len(terms) == 1:
                    np.copyto(out.reshape(shape), terms[0])
                else:
                    np.add(*terms, out=out.reshape(shape))
        total = self.interference.sweep(x)
        fwd, bwd, first, last = (
            total[start:stop] if gathered
            else total[start:stop].reshape(shape)
            for shape, gathered, start, stop in layout)

        t_stable = fwd + bwd
        t_first = (first if layout[2][1] else at(first)) + at(bwd)
        t_last = at(fwd) + (last if layout[3][1] else at(last))
        stable = at(t_stable)
        delta = np.maximum(t_first - stable, 0.0) + np.maximum(
            t_last - stable, 0.0
        )
        return StagePrediction(
            t_stable=np.asarray(t_stable, dtype=float),
            delta=np.asarray(delta, dtype=float),
            peak_mem=peak_mem,
            t_first=np.asarray(t_first, dtype=float),
            t_last=np.asarray(t_last, dtype=float),
        )

    def predict_memory(self, env: dict[str, np.ndarray]) -> np.ndarray:
        """Peak memory per configuration, from the memory kernel, at
        ``env``'s broadcast shape (at least 1-d)."""
        peak_fwd, peak_bwd = self._mem_fn(
            **{name: env[name] for name in self._mem_fn.used_symbols}
        )
        return _column(np.maximum(peak_fwd, peak_bwd), _row_shape(env))

    def compute_channel(self, env: dict[str, np.ndarray]) -> np.ndarray:
        """Compute-channel busy time (fwd + bwd), interference-free:
        the runtime kernel's outputs 0 and 4.

        Every interference factor is >= 1 (see
        :class:`repro.costmodel.interference.InterferenceModel`), so
        this never exceeds the stable microbatch time :meth:`predict`
        returns for the same configuration. The two channels read only
        ``b, tp, l, ckpt, has_pre, has_post, s`` (and the TP link that
        follows ``tp``), and recomputation only adds to them, so their
        value at ckpt 0, ZeRO 0 and no offload floors every
        configuration of the same (dp, tp, b), layer count and stage
        position — the floor :meth:`repro.core.tuner.MistTuner._cell_bounds`
        composes into every (S, G) cell bound, one DP per pipeline depth.
        """
        channels = self._channels(env)
        return _column(channels[0] + channels[4], _row_shape(env))

    def stage_env(self, plan: TrainingPlan, stage_idx: int,
                  seq_len: int) -> dict[str, np.ndarray]:
        """Symbol environment for one concrete stage of a plan."""
        stage = plan.stages[stage_idx]
        return self.build_env(
            b=stage.microbatch, s=seq_len, tp=stage.tp, dp=stage.dp,
            l=stage.layers, ckpt=stage.ckpt, zero=stage.zero,
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
