"""Simulated per-stage memory accounting with OOM detection.

The engine's memory view is deliberately *more concrete* than the
analyzer's symbolic model:

* offloading ratios quantize to whole layers (a real runtime offloads
  tensors, not fractions of tensors);
* an allocator-slack factor models fragmentation;
* the in-flight microbatch count comes from the executed 1F1B schedule.

These differences are what make the Section 6.6 prediction-accuracy
experiment meaningful — the analyzer is compared against this tracker,
as the paper compares against measured memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memo import GLOBAL_KERNEL_CACHE
from repro.hardware import GPUSpec
from repro.models.graph import ModelGraph
from repro.symbolic import CompiledExpr, compile_expr
from repro.tracing.liveness import backward_transient, forward_transient
from repro.tracing.memory import (
    ALLOCATOR_SLACK,
    FP16_BYTES,
    FRAMEWORK_OVERHEAD_BYTES,
    GRAD_BYTES,
    OPT_BYTES,
)

from ..core.plan import StageConfig

__all__ = ["OOMError", "StageMemoryReport", "track_stage_memory",
           "quantize_ratio", "ALLOCATOR_SLACK"]


class OOMError(RuntimeError):
    """The simulated stage exceeds device memory."""

    def __init__(self, stage_idx: int, required: float, capacity: float):
        self.stage_idx = stage_idx
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"stage {stage_idx}: needs {required / 2**30:.2f} GiB, device "
            f"has {capacity / 2**30:.2f} GiB usable"
        )


@dataclass
class StageMemoryReport:
    """Peak memory breakdown of one executed stage (bytes)."""

    stage_idx: int
    peak: float
    params: float
    grads: float
    opt_states: float
    activations: float
    transient: float
    capacity: float

    @property
    def fits(self) -> bool:
        return self.peak <= self.capacity

    @property
    def utilization(self) -> float:
        return self.peak / self.capacity


def quantize_ratio(ratio: float, layers: int) -> float:
    """Round an offload ratio to whole layers (ratio of ``layers``)."""
    if layers <= 0:
        return ratio
    return round(ratio * layers) / layers


def _memory_fn(graph: ModelGraph) -> CompiledExpr:
    """The tracker's 14 graph quantities over ``(b, s, tp)``, compiled
    into one kernel per traced graph (outputs in the order
    :func:`track_stage_memory` unpacks them).

    Built from the layer graphs alone, never from the analyzer's
    :class:`~repro.tracing.StageMemoryExprs`: the tracker stays an
    independent check on the analyzer's memory model (Section 6.6).
    """
    def build() -> CompiledExpr:
        block, pre, post = graph.block, graph.pre, graph.post
        return compile_expr([
            block.param_count, pre.param_count, post.param_count,
            block.saved_activation_bytes(), pre.saved_activation_bytes(),
            post.saved_activation_bytes(), block.ckpt_saved_bytes(),
            graph.boundary_activation_bytes,
            forward_transient(block), backward_transient(block),
            forward_transient(pre), backward_transient(pre),
            forward_transient(post), backward_transient(post),
        ], arg_names=("b", "s", "tp"))

    return GLOBAL_KERNEL_CACHE.get(
        (graph.config, graph.flash, "engine.memory"), build)


def track_stage_memory(graph: ModelGraph, gpu: GPUSpec, stage: StageConfig,
                       *, stage_idx: int, num_stages: int, inflight: int,
                       seq_len: int,
                       runtime_overhead_bytes: float = 0.0) -> StageMemoryReport:
    """Account peak memory of one stage under the executed schedule.

    ``runtime_overhead_bytes`` is extra memory pinned by the executing
    system's runtime (beyond the common framework overhead).
    """
    (block_params, pre_params, post_params, saved_full, pre_saved,
     post_saved, saved_ckpt, boundary, block_fwd, block_bwd, pre_fwd,
     pre_bwd, post_fwd, post_bwd) = map(float, _memory_fn(graph)(
         b=stage.microbatch, s=seq_len, tp=stage.tp))
    has_pre = stage_idx == 0
    has_post = stage_idx == num_stages - 1

    # -- parameter/grad/optimizer state bytes on this rank -------------------
    param_elems = stage.layers * block_params
    if has_pre:
        param_elems += pre_params
    if has_post:
        param_elems += post_params

    z1, z2, z3 = stage.zero_flags
    dp = stage.dp
    wo = quantize_ratio(stage.wo, stage.layers)
    go = quantize_ratio(stage.go, stage.layers)
    oo = quantize_ratio(stage.oo, stage.layers)
    ao = quantize_ratio(stage.ao, stage.layers)

    p16 = FP16_BYTES * param_elems
    g16 = GRAD_BYTES * param_elems
    o32 = OPT_BYTES * param_elems
    z3_frac = 1.0 / dp if z3 else 1.0
    z2_frac = 1.0 / dp if z2 else 1.0
    z1_frac = 1.0 / dp if z1 else 1.0

    block_p16 = FP16_BYTES * block_params
    params_buf = (2 * block_p16) if (z3 or wo > 0) else 0.0
    grads_buf = (2 * GRAD_BYTES * block_params) if (z2 or go > 0) else 0.0
    opt_buf = (2 * OPT_BYTES * block_params * z1_frac) if oo > 0 else 0.0

    params = p16 * z3_frac * (1 - wo) + params_buf
    grads = g16 * z2_frac * (1 - go) + grads_buf
    opt_states = o32 * z1_frac * (1 - oo) + opt_buf

    # -- activations -----------------------------------------------------------
    saved_block = (stage.layers - stage.ckpt) * saved_full \
        + stage.ckpt * saved_ckpt
    saved_edges = 0.0
    if has_pre:
        saved_edges += pre_saved
    if has_post:
        saved_edges += post_saved
    activations = inflight * ((1 - ao) * saved_block + saved_edges) \
        + 2 * boundary

    # -- transients --------------------------------------------------------------
    t_fwd = block_fwd
    t_bwd = block_bwd
    if stage.ckpt > 0:
        t_bwd += saved_full - saved_ckpt
    if has_pre:
        t_fwd = max(t_fwd, pre_fwd)
        t_bwd = max(t_bwd, pre_bwd)
    if has_post:
        t_fwd = max(t_fwd, post_fwd)
        t_bwd = max(t_bwd, post_bwd)
    transient = max(t_fwd, t_bwd)

    # Fragmentation slack applies to the churning allocations
    # (activations/transients); persistent state buffers pack tightly.
    states = params + grads + opt_states
    peak = states + (activations + transient) * (1.0 + ALLOCATOR_SLACK)
    return StageMemoryReport(
        stage_idx=stage_idx,
        peak=peak,
        params=params,
        grads=grads,
        opt_states=opt_states,
        activations=activations,
        transient=transient,
        capacity=(gpu.usable_memory_bytes - FRAMEWORK_OVERHEAD_BYTES
                  - runtime_overhead_bytes),
    )
