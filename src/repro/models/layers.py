"""Symbolic layer-graph builders for the supported model families.

Produces :class:`~repro.models.ops.LayerGraph` objects for:

* the repeated transformer block of each family (GPT-3 standard block,
  Llama gated-MLP block, Falcon parallel attention+MLP block),
* the pre-layer (token/position embedding) and
* the post-layer (final norm, LM head, cross-entropy loss),

with or without FlashAttention. The saved-activation accounting matches
the published formulas (Korthikanti et al.): a non-checkpointed GPT
block saves ``bsh(10 + 24/tp) + 2·b·a·s²/tp`` bytes without flash, and
drops the quadratic term with flash.
"""

from __future__ import annotations

import dataclasses

from repro.symbolic import Const, Expr

from .config import ModelConfig
from .ops import B, S, TP, LayerGraph, Op, OpKind

__all__ = [
    "build_transformer_layer",
    "build_pre_layer",
    "build_post_layer",
    "layer_param_count",
    "embedding_param_count",
    "head_param_count",
]

FP16 = 2  # bytes per activation element
FP32 = 4


def layer_param_count(config: ModelConfig) -> Expr:
    """Per-TP-rank parameter elements of one transformer layer."""
    sharded = config.attn_params_per_layer + config.mlp_params_per_layer
    replicated = config.norm_params_per_layer
    return Const(sharded) / TP + replicated


def embedding_param_count(config: ModelConfig) -> Expr:
    """Per-TP-rank parameter elements of the embedding (vocab-parallel)."""
    h, v = config.hidden_size, config.vocab_size
    params: Expr = Const(v * h) / TP
    if not config.rotary:
        params = params + config.max_position_embeddings * h  # replicated
    return params


def head_param_count(config: ModelConfig) -> Expr:
    """Per-TP-rank parameter elements of the output head.

    With tied embeddings the weight is still materialized on the last
    pipeline stage (as in Megatron-LM), so it costs memory there.
    """
    h, v = config.hidden_size, config.vocab_size
    return Const(v * h) / TP + h  # head matrix + final norm


def _gemm(name: str, inputs: tuple[str, ...], output: str, *, m: Expr, n: Expr,
          k: Expr, saved: Expr, allreduce_fwd: Expr = Const(0),
          allreduce_bwd: Expr = Const(0)) -> Op:
    """A GEMM computing ``[m, k] x [k, n]`` with weight resident on-rank."""
    out_bytes = FP16 * m * n
    flops = 2 * m * n * k
    io = FP16 * (m * k + k * n + m * n)
    return Op(
        name=name, kind=OpKind.GEMM, inputs=inputs, output=output,
        output_bytes=out_bytes, flops=flops, io_bytes=io, saved_bytes=saved,
        bwd_flops_factor=2.0, tp_allreduce_fwd=allreduce_fwd,
        tp_allreduce_bwd=allreduce_bwd,
    )


def _norm(name: str, inp: str, output: str, width: int) -> Op:
    bytes_ = FP16 * B * S * width
    return Op(
        name=name, kind=OpKind.NORM, inputs=(inp,), output=output,
        output_bytes=bytes_, flops=5 * B * S * width, io_bytes=2 * bytes_,
        saved_bytes=bytes_,  # input stashed for backward
        bwd_flops_factor=2.0,
    )


def _attention_ops(config: ModelConfig, flash: bool, input_name: str,
                   allreduce_output: bool) -> list[Op]:
    """QKV projection -> attention -> output projection."""
    h = config.hidden_size
    a = config.num_heads
    bsh = B * S * h
    ops: list[Op] = []

    ops.append(_gemm(
        "qkv_proj", (input_name,), "qkv",
        m=B * S, n=3 * h / TP, k=h,
        saved=FP16 * bsh,  # normed input needed for weight grad
    ))
    if config.rotary:
        q_k_bytes = FP16 * 2 * bsh / TP
        ops.append(Op(
            name="rotary", kind=OpKind.ELEMENTWISE, inputs=("qkv",),
            output="qkv_rot", output_bytes=FP16 * 3 * bsh / TP,
            flops=6 * B * S * h / TP, io_bytes=2 * q_k_bytes,
            saved_bytes=Const(0), bwd_flops_factor=1.0,
        ))
        attn_input = "qkv_rot"
    else:
        attn_input = "qkv"

    if flash:
        # Fused kernel: saves q,k,v (counted at qkv_proj output? no — the
        # fused op re-reads qkv which is stashed) plus per-row softmax
        # statistics; recomputes the s^2 intermediates in backward.
        ops.append(Op(
            name="flash_attention", kind=OpKind.FLASH_ATTN,
            inputs=(attn_input,), output="attn_ctx",
            output_bytes=FP16 * bsh / TP,
            flops=4 * B * S * S * h / TP,
            io_bytes=FP16 * 4 * bsh / TP,
            saved_bytes=FP16 * 3 * bsh / TP + FP32 * B * a * S / TP,
            bwd_flops_factor=2.5,  # dgrads + forward recompute inside bwd
        ))
    else:
        scores_bytes = FP16 * B * a * S * S / TP
        ops.append(Op(
            name="attn_scores", kind=OpKind.BMM, inputs=(attn_input,),
            output="scores", output_bytes=scores_bytes,
            flops=2 * B * S * S * h / TP,
            io_bytes=FP16 * 2 * bsh / TP + scores_bytes,
            saved_bytes=FP16 * 2 * bsh / TP,  # q, k
        ))
        ops.append(Op(
            name="softmax", kind=OpKind.SOFTMAX, inputs=("scores",),
            output="probs", output_bytes=scores_bytes,
            flops=5 * B * a * S * S / TP, io_bytes=2 * scores_bytes,
            saved_bytes=scores_bytes,  # probs needed for backward
            bwd_flops_factor=1.0,
        ))
        ops.append(Op(
            name="attn_context", kind=OpKind.BMM,
            inputs=("probs", attn_input), output="attn_ctx",
            output_bytes=FP16 * bsh / TP,
            flops=2 * B * S * S * h / TP,
            io_bytes=scores_bytes + FP16 * 2 * bsh / TP,
            saved_bytes=FP16 * bsh / TP,  # v
        ))

    ops.append(_gemm(
        "attn_out_proj", ("attn_ctx",), "attn_out",
        m=B * S, n=h, k=h / TP,
        saved=FP16 * bsh / TP,  # context
        allreduce_fwd=(FP16 * bsh) if allreduce_output else Const(0),
        allreduce_bwd=(FP16 * bsh) if allreduce_output else Const(0),
    ))
    return ops


def _mlp_ops(config: ModelConfig, input_name: str, *, saved_input: bool,
             allreduce_output: bool) -> list[Op]:
    h, e = config.hidden_size, config.ffn_hidden_size
    bsh = B * S * h
    bse = B * S * e
    input_saved = (FP16 * bsh) if saved_input else Const(0)
    ar_fwd = (FP16 * bsh) if allreduce_output else Const(0)
    ar_bwd = (FP16 * bsh) if allreduce_output else Const(0)
    ops: list[Op] = []
    if config.gated_mlp:
        ops.append(_gemm("mlp_gate", (input_name,), "mlp_g",
                         m=B * S, n=e / TP, k=h, saved=input_saved))
        ops.append(_gemm("mlp_up", (input_name,), "mlp_u",
                         m=B * S, n=e / TP, k=h, saved=Const(0)))
        ops.append(Op(
            name="silu_mul", kind=OpKind.ELEMENTWISE,
            inputs=("mlp_g", "mlp_u"), output="mlp_p",
            output_bytes=FP16 * bse / TP, flops=4 * bse / TP,
            io_bytes=FP16 * 3 * bse / TP,
            saved_bytes=FP16 * 2 * bse / TP,  # gate and up outputs
            bwd_flops_factor=1.5,
        ))
        ops.append(_gemm("mlp_down", ("mlp_p",), "mlp_out",
                         m=B * S, n=h, k=e / TP,
                         saved=FP16 * bse / TP,
                         allreduce_fwd=ar_fwd, allreduce_bwd=ar_bwd))
    else:
        ops.append(_gemm("mlp_up", (input_name,), "mlp_h",
                         m=B * S, n=e / TP, k=h, saved=input_saved))
        ops.append(Op(
            name="gelu", kind=OpKind.ELEMENTWISE, inputs=("mlp_h",),
            output="mlp_act", output_bytes=FP16 * bse / TP,
            flops=8 * bse / TP, io_bytes=FP16 * 2 * bse / TP,
            saved_bytes=FP16 * bse / TP, bwd_flops_factor=1.5,
        ))
        ops.append(_gemm("mlp_down", ("mlp_act",), "mlp_out",
                         m=B * S, n=h, k=e / TP,
                         saved=FP16 * bse / TP,
                         allreduce_fwd=ar_fwd, allreduce_bwd=ar_bwd))
    return ops


def _residual(name: str, inputs: tuple[str, ...], output: str, h: int) -> Op:
    bytes_ = FP16 * B * S * h
    n_in = len(inputs)
    return Op(
        name=name, kind=OpKind.ELEMENTWISE, inputs=inputs, output=output,
        output_bytes=bytes_, flops=n_in * B * S * h,
        io_bytes=(n_in + 1) * bytes_, saved_bytes=Const(0),
        bwd_flops_factor=0.0, bwd_io_factor=1.0,
    )


def build_transformer_layer(config: ModelConfig, *, flash: bool) -> LayerGraph:
    """The repeated decoder block of ``config``'s family."""
    h = config.hidden_size
    input_bytes = FP16 * B * S * h
    ops: list[Op] = []

    if config.parallel_attn:
        # Falcon: one shared input norm; attention and MLP run on the same
        # normed activations; their outputs fold into a single residual add
        # and a single TP all-reduce.
        ops.append(_norm("input_norm", "x", "x_norm", h))
        ops.extend(_attention_ops(config, flash, "x_norm",
                                  allreduce_output=False))
        ops.extend(_mlp_ops(config, "x_norm", saved_input=False,
                            allreduce_output=False))
        combine = _residual("parallel_add", ("attn_out", "mlp_out", "x"),
                            "y", h)
        combine = dataclasses.replace(
            combine,
            tp_allreduce_fwd=Const(FP16) * B * S * h,
            tp_allreduce_bwd=Const(FP16) * B * S * h,
        )
        ops.append(combine)
    else:
        ops.append(_norm("input_norm", "x", "x_norm", h))
        ops.extend(_attention_ops(config, flash, "x_norm",
                                  allreduce_output=True))
        ops.append(_residual("residual_attn", ("attn_out", "x"), "x_mid", h))
        ops.append(_norm("post_attn_norm", "x_mid", "x_mid_norm", h))
        ops.extend(_mlp_ops(config, "x_mid_norm", saved_input=True,
                            allreduce_output=True))
        ops.append(_residual("residual_mlp", ("mlp_out", "x_mid"), "y", h))

    params = layer_param_count(config)
    return LayerGraph(
        name=f"{config.family}_layer",
        ops=ops,
        input_tensor="x",
        input_bytes=input_bytes,
        param_bytes=FP16 * params,
        param_count=params,
    )


def build_pre_layer(config: ModelConfig) -> LayerGraph:
    """Token (+ position) embedding; vocab-parallel under TP."""
    h = config.hidden_size
    bsh_bytes = FP16 * B * S * h
    token_bytes = 8 * B * S  # int64 ids
    ops = [Op(
        name="embedding", kind=OpKind.EMBEDDING, inputs=("tokens",),
        output="x0", output_bytes=bsh_bytes,
        flops=B * S * h,
        io_bytes=bsh_bytes + token_bytes,
        saved_bytes=token_bytes,
        bwd_flops_factor=1.0,
        # vocab-parallel embedding all-reduces its output across TP
        tp_allreduce_fwd=bsh_bytes, tp_allreduce_bwd=Const(0),
    )]
    params = embedding_param_count(config)
    return LayerGraph(
        name="pre_layer", ops=ops, input_tensor="tokens",
        input_bytes=token_bytes,
        param_bytes=FP16 * params, param_count=params,
    )


def build_post_layer(config: ModelConfig) -> LayerGraph:
    """Final norm, LM head GEMM, and vocab-parallel cross-entropy."""
    h, v = config.hidden_size, config.vocab_size
    bsh_bytes = FP16 * B * S * h
    logits_bytes = FP16 * B * S * v / TP
    ops = [
        _norm("final_norm", "y", "y_norm", h),
        _gemm("lm_head", ("y_norm",), "logits",
              m=B * S, n=v / TP, k=h, saved=FP16 * B * S * h),
        Op(
            name="cross_entropy", kind=OpKind.CROSS_ENTROPY,
            inputs=("logits",), output="loss",
            output_bytes=FP32 * B * S,
            flops=6 * B * S * v / TP,
            io_bytes=2 * logits_bytes,
            saved_bytes=logits_bytes,  # kept for the backward softmax
            bwd_flops_factor=0.5,
            tp_allreduce_fwd=FP32 * 2 * B * S,  # max + sumexp reductions
            tp_allreduce_bwd=bsh_bytes,
        ),
    ]
    params = head_param_count(config)
    return LayerGraph(
        name="post_layer", ops=ops, input_tensor="y",
        input_bytes=bsh_bytes,
        param_bytes=FP16 * params, param_count=params,
    )
