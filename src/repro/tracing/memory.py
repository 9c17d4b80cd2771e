"""Stage-level symbolic memory model (the inter-layer memory pass).

Composes the intra-layer statistics (saved activations, transients,
parameter counts) into peak-memory expressions for one pipeline stage
under every optimization of Table 2:

* ZeRO flags ``z1/z2/z3`` shard optimizer states / gradients / fp16
  parameters across the DP group;
* offloading ratios ``wo/go/oo/ao`` keep that fraction of weights /
  gradients / optimizer states / block activations in host memory,
  at the price of working buffers for the layers in flight;
* ``ckpt`` of the ``l`` layers save only their input; the remaining
  ``l - ckpt`` save full activations;
* under 1F1B, ``inflight`` microbatches' activations coexist.

Mixed-precision Adam accounting: fp16 params (2 B/elem), fp16 grads
(2 B), fp32 master params + momentum + variance (12 B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.graph import ModelGraph
from repro.symbolic import Ceil, Expr, smax, smin

from .liveness import backward_transient, forward_transient
from .symbols import (
    AO,
    CKPT,
    DP,
    GO,
    HAS_POST,
    HAS_PRE,
    INFLIGHT,
    L,
    OO,
    WO,
    Z1,
    Z2,
    Z3,
)

__all__ = ["StageMemoryExprs", "build_stage_memory", "ALLOCATOR_SLACK",
           "FP16_BYTES", "FRAMEWORK_OVERHEAD_BYTES", "GRAD_BYTES",
           "OPT_BYTES"]

#: mixed-precision Adam bytes per parameter, the one definition the
#: analyzer's runtime and memory expressions and the engine's tracker
#: read
FP16_BYTES = 2
GRAD_BYTES = 2
OPT_BYTES = 12  # fp32 master + momentum + variance

#: allocator fragmentation slack on churning (activation/transient)
#: allocations — shared by the analyzer and the execution engine
ALLOCATOR_SLACK = 0.025
#: memory the framework itself pins (NCCL buffers, workspaces); carved
#: out of the device budget on both the predictor and execution side
FRAMEWORK_OVERHEAD_BYTES = int(0.6 * 1024**3)


@dataclass
class StageMemoryExprs:
    """Peak-memory expressions for one pipeline stage (bytes)."""

    peak_fwd: Expr
    peak_bwd: Expr
    # components, exposed for reporting and tests
    params_resident: Expr
    grads_resident: Expr
    opt_resident: Expr
    activations_resident: Expr
    transient_fwd: Expr
    transient_bwd: Expr
    # totals before sharding/offloading (for plan reports)
    param_bytes_total: Expr
    saved_per_microbatch: Expr

    @property
    def peak(self) -> Expr:
        return smax(self.peak_fwd, self.peak_bwd)


def build_stage_memory(graph: ModelGraph) -> StageMemoryExprs:
    """Build the symbolic stage memory model for ``graph``."""
    block, pre, post = graph.block, graph.pre, graph.post

    # -- model states ------------------------------------------------------
    param_elems = (
        L * block.param_count
        + HAS_PRE * pre.param_count
        + HAS_POST * post.param_count
    )
    p16 = FP16_BYTES * param_elems
    g16 = GRAD_BYTES * param_elems
    o32 = OPT_BYTES * param_elems

    # ZeRO sharding: resident fraction is 1/dp for sharded categories.
    z3_frac = Z3 / DP + (1 - Z3)
    z2_frac = Z2 / DP + (1 - Z2)
    z1_frac = Z1 / DP + (1 - Z1)

    block_p16 = FP16_BYTES * block.param_count
    block_g16 = GRAD_BYTES * block.param_count
    block_o32 = OPT_BYTES * block.param_count

    # Offloaded/sharded states need per-layer working buffers: two layers
    # (current + prefetched next) are materialized at full size.
    params_buf = smin(1, Z3 + Ceil.make(WO)) * 2 * block_p16
    grads_buf = smin(1, Z2 + Ceil.make(GO)) * 2 * block_g16
    opt_buf = Ceil.make(OO) * 2 * block_o32 * z1_frac

    params_resident = p16 * z3_frac * (1 - WO) + params_buf
    grads_resident = g16 * z2_frac * (1 - GO) + grads_buf
    opt_resident = o32 * z1_frac * (1 - OO) + opt_buf
    states = params_resident + grads_resident + opt_resident

    # -- activations -------------------------------------------------------
    block_saved_full = block.saved_activation_bytes()
    block_saved_ckpt = block.ckpt_saved_bytes()
    saved_block_mb = (L - CKPT) * block_saved_full + CKPT * block_saved_ckpt
    saved_edges_mb = (
        HAS_PRE * pre.saved_activation_bytes()
        + HAS_POST * post.saved_activation_bytes()
    )
    saved_per_mb = saved_block_mb + saved_edges_mb
    # Activation offloading applies to block activations; pre/post stashes
    # (token ids, logits) stay resident.
    act_resident = INFLIGHT * ((1 - AO) * saved_block_mb + saved_edges_mb)
    # p2p double-buffers at both boundaries
    act_resident = act_resident + 2 * graph.boundary_activation_bytes

    # -- transients --------------------------------------------------------
    t_fwd = smax(
        forward_transient(block),
        HAS_PRE * forward_transient(pre),
        HAS_POST * forward_transient(post),
    )
    # Recomputing a checkpointed layer rematerializes its full stash.
    recompute_extra = smin(CKPT, 1) * (block_saved_full - block_saved_ckpt)
    t_bwd = smax(
        backward_transient(block) + recompute_extra,
        HAS_PRE * backward_transient(pre),
        HAS_POST * backward_transient(post),
    )

    slack = 1.0 + ALLOCATOR_SLACK
    peak_fwd = states + (act_resident + t_fwd) * slack
    peak_bwd = states + (act_resident + t_bwd) * slack

    return StageMemoryExprs(
        peak_fwd=peak_fwd,
        peak_bwd=peak_bwd,
        params_resident=params_resident,
        grads_resident=grads_resident,
        opt_resident=opt_resident,
        activations_resident=act_resident,
        transient_fwd=t_fwd,
        transient_bwd=t_bwd,
        param_bytes_total=p16,
        saved_per_microbatch=saved_per_mb,
    )
