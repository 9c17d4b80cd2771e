"""Stage-level symbolic runtime model (the inter-layer runtime pass).

Produces per-microbatch *component busy times* for one pipeline stage,
split by phase (forward / backward) and by resource:

* ``comp`` — GPU kernel time;
* ``tp``   — tensor-parallel all-reduces (critical-path collectives);
* ``dp``   — data-parallel collectives (ZeRO-3 parameter all-gathers,
  ZeRO-2/3 per-microbatch gradient reduce-scatter);
* ``p2p``  — pipeline boundary transfers;
* ``d2h``/``h2d`` — offloading traffic over the host link.

One-time volumes appear as ``*_first``/``*_last`` extras: optimizer
state streaming and the repositioned per-layer optimizer step (first
microbatch), and the end-of-iteration gradient synchronization for
ZeRO < 2 (last microbatch).

Downstream consumers combine components differently:

* the **analyzer** (Mist's predictor) feeds the four hardware channels
  ``(comp+tp, dp+p2p, d2h, h2d)`` per phase to the interference model —
  TP all-reduces serialize with the kernels that wait on them, so they
  ride the compute channel — fully overlap-aware (Eq. 5/6);
* the **execution engine** combines components according to the
  executing system's overlap capabilities (Mist overlaps everything;
  Megatron-style systems only overlap the gradient sync), which is what
  makes overlap-unaware systems measurably slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.comm import (
    all_gather_time,
    all_reduce_time,
    host_copy_time,
    p2p_time,
    reduce_scatter_time,
)
from repro.costmodel.opdb import OperatorDatabase
from repro.models.graph import ModelGraph
from repro.models.ops import LayerGraph
from repro.symbolic import Const, Expr

from .memory import FP16_BYTES, GRAD_BYTES
from .symbols import (
    AO,
    CKPT,
    D2H_BW,
    DP,
    DP_BW,
    DP_LAT,
    GO,
    H2D_BW,
    HAS_POST,
    HAS_PRE,
    L,
    OO,
    P2P_BW,
    P2P_LAT,
    TP,
    TP_BW,
    TP_LAT,
    WO,
    Z1,
    Z2,
    Z3,
)

__all__ = ["StageRuntimeExprs", "build_stage_runtime"]

#: Adam update arithmetic per parameter (fp32 ops)
ADAM_FLOPS_PER_PARAM = 20.0


@dataclass
class StageRuntimeExprs:
    """Per-microbatch component busy-time expressions for one stage."""

    # steady-state components by phase
    comp_fwd: Expr
    comp_bwd: Expr
    tp_fwd: Expr
    tp_bwd: Expr
    dp_fwd: Expr
    dp_bwd: Expr
    p2p_fwd: Expr
    p2p_bwd: Expr
    d2h_fwd: Expr
    d2h_bwd: Expr
    h2d_fwd: Expr
    h2d_bwd: Expr
    # first-microbatch extras (repositioned optimizer step, Section 5.1)
    comp_first: Expr
    dp_first: Expr
    d2h_first: Expr
    h2d_first: Expr
    # last-microbatch extra (gradient sync for ZeRO < 2)
    dp_last: Expr


def _sum_fwd(db: OperatorDatabase, layer: LayerGraph) -> Expr:
    total: Expr = Const(0)
    for op in layer.ops:
        total = total + db.fwd_time(op)
    return total


def _sum_bwd(db: OperatorDatabase, layer: LayerGraph) -> Expr:
    total: Expr = Const(0)
    for op in layer.ops:
        total = total + db.bwd_time(op)
    return total


def _tp_time(bytes_: Expr) -> Expr:
    return all_reduce_time(bytes_, TP, TP_BW, TP_LAT)


def build_stage_runtime(graph: ModelGraph, db: OperatorDatabase) -> StageRuntimeExprs:
    """Build the symbolic per-microbatch runtime model for ``graph``."""
    block, pre, post = graph.block, graph.pre, graph.post

    # -- compute ------------------------------------------------------------
    block_fwd = _sum_fwd(db, block)
    block_bwd = _sum_bwd(db, block)
    comp_fwd = L * block_fwd + HAS_PRE * _sum_fwd(db, pre) \
        + HAS_POST * _sum_fwd(db, post)
    comp_bwd = (
        L * block_bwd
        + CKPT * block_fwd  # recompute checkpointed layers
        + HAS_PRE * _sum_bwd(db, pre)
        + HAS_POST * _sum_bwd(db, post)
    )

    # -- model-state volumes (per TP rank) -----------------------------------
    param_elems = (
        L * block.param_count
        + HAS_PRE * pre.param_count
        + HAS_POST * post.param_count
    )
    p16 = FP16_BYTES * param_elems
    g16 = GRAD_BYTES * param_elems
    z3_frac = Z3 / DP + (1 - Z3)
    z2_frac = Z2 / DP + (1 - Z2)
    z1_frac = Z1 / DP + (1 - Z1)

    # -- tensor-parallel collectives ------------------------------------------
    tp_fwd = (
        L * _tp_time(block.tp_allreduce_fwd_bytes())
        + HAS_PRE * _tp_time(pre.tp_allreduce_fwd_bytes())
        + HAS_POST * _tp_time(post.tp_allreduce_fwd_bytes())
    )
    tp_bwd = (
        L * _tp_time(block.tp_allreduce_bwd_bytes())
        + CKPT * _tp_time(block.tp_allreduce_fwd_bytes())  # recompute comms
        + HAS_PRE * _tp_time(pre.tp_allreduce_bwd_bytes())
        + HAS_POST * _tp_time(post.tp_allreduce_bwd_bytes())
    )

    # -- data-parallel collectives --------------------------------------------
    # ZeRO-3 gathers fp16 params for forward and again for backward.
    z3_gather = all_gather_time(p16, DP, DP_BW, DP_LAT)
    dp_fwd = Z3 * z3_gather
    # ZeRO-2/3 reduce-scatter gradients every microbatch.
    dp_bwd = Z3 * z3_gather + Z2 * reduce_scatter_time(g16, DP, DP_BW, DP_LAT)

    # -- pipeline p2p -----------------------------------------------------------
    boundary = graph.boundary_activation_bytes
    p2p_each = p2p_time(boundary, P2P_BW, P2P_LAT)
    # fwd: recv from previous (unless first), send to next (unless last);
    # bwd: the mirror image.
    p2p_fwd = (2 - HAS_PRE - HAS_POST) * p2p_each
    p2p_bwd = (2 - HAS_PRE - HAS_POST) * p2p_each

    # -- offloading traffic ------------------------------------------------------
    block_saved_full = block.saved_activation_bytes()
    block_saved_ckpt = block.ckpt_saved_bytes()
    saved_block_mb = (L - CKPT) * block_saved_full + CKPT * block_saved_ckpt

    # fwd: activations stream out; offloaded weights stream in.
    d2h_fwd = host_copy_time(AO * saved_block_mb, D2H_BW)
    h2d_fwd = host_copy_time(WO * p16 * z3_frac, H2D_BW)
    # bwd: activations stream back; weights re-fetched; gradients stream
    # out every microbatch (accumulated host-side).
    d2h_bwd = host_copy_time(GO * g16 * z2_frac, D2H_BW)
    h2d_bwd = host_copy_time(AO * saved_block_mb + WO * p16 * z3_frac, H2D_BW)

    # -- first-microbatch extras --------------------------------------------------
    # Offloaded optimizer shards live permanently in host memory and are
    # updated by a CPU Adam (ZeRO-Offload): per iteration only the fp16
    # gradients travel down and the updated fp16 params travel back up.
    # (``o32`` itself never moves.)
    opt_down = OO * (1 - GO) * g16 * z1_frac  # grads for the CPU step
    opt_up = OO * p16 * z1_frac  # updated fp16 params
    h2d_first = host_copy_time(opt_up + GO * g16 * z2_frac, H2D_BW)
    d2h_first = host_copy_time(opt_down, D2H_BW)
    # GPU-side Adam arithmetic covers only the resident shard; the CPU
    # update of the offloaded fraction overlaps with GPU work.
    comp_first = (
        ADAM_FLOPS_PER_PARAM * param_elems * z1_frac * (1 - OO)
        / db.gpu.peak_fp32_flops
    )
    # ZeRO-1/2 all-gather updated fp16 params after the optimizer step
    # (ZeRO-3 re-gathers per microbatch anyway).
    dp_first = Z1 * (1 - Z3) * all_gather_time(p16, DP, DP_BW, DP_LAT)

    # -- last-microbatch extra ------------------------------------------------------
    dp_last = (1 - Z2) * (
        Z1 * reduce_scatter_time(g16, DP, DP_BW, DP_LAT)
        + (1 - Z1) * all_reduce_time(g16, DP, DP_BW, DP_LAT)
    )

    return StageRuntimeExprs(
        comp_fwd=comp_fwd, comp_bwd=comp_bwd,
        tp_fwd=tp_fwd, tp_bwd=tp_bwd,
        dp_fwd=dp_fwd, dp_bwd=dp_bwd,
        p2p_fwd=p2p_fwd, p2p_bwd=p2p_bwd,
        d2h_fwd=d2h_fwd, d2h_bwd=d2h_bwd,
        h2d_fwd=h2d_fwd, h2d_bwd=h2d_bwd,
        comp_first=comp_first, dp_first=dp_first,
        d2h_first=d2h_first, h2d_first=h2d_first,
        dp_last=dp_last,
    )
