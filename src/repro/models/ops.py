"""Operator-level building blocks for symbolic layer graphs.

Each :class:`Op` carries symbolic cost metadata: FLOPs, memory traffic,
output size, bytes stashed for the backward pass, and tensor-parallel
collective volume. Layer builders (:mod:`repro.models.layers`) assemble
ops into :class:`LayerGraph` objects whose aggregate expressions feed
the intra-layer analysis pass (paper Section 5.2.1).

Sizes are expressions over the canonical symbols:

* ``b`` — microbatch size,
* ``s`` — sequence length,
* ``tp`` — tensor-parallel degree.

All activation tensors are fp16 (2 bytes/element); dropout is disabled
and linears have no biases, per the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic import Const, Expr, as_expr

__all__ = ["Op", "LayerGraph", "OpKind", "B", "S", "TP"]


class OpKind:
    """Operator categories understood by the cost database."""

    GEMM = "gemm"
    BMM = "bmm"  # batched matmul (attention scores / context)
    FLASH_ATTN = "flash_attn"
    SOFTMAX = "softmax"
    ELEMENTWISE = "elementwise"
    NORM = "norm"
    EMBEDDING = "embedding"
    CROSS_ENTROPY = "cross_entropy"

    ALL = (GEMM, BMM, FLASH_ATTN, SOFTMAX, ELEMENTWISE, NORM, EMBEDDING,
           CROSS_ENTROPY)


# Canonical symbols shared by every layer graph. Using module-level
# singletons keeps structural equality across independently built graphs.
from repro.symbolic import Sym  # noqa: E402

B = Sym("b", integer=True)
S = Sym("s", integer=True)
TP = Sym("tp", integer=True)


@dataclass(frozen=True)
class Op:
    """One operator in a layer's forward graph, with symbolic costs."""

    name: str
    kind: str
    inputs: tuple[str, ...]
    output: str
    #: bytes of the output tensor (held live until its last consumer)
    output_bytes: Expr
    #: forward FLOPs
    flops: Expr = Const(0)
    #: forward DRAM traffic in bytes (reads + writes)
    io_bytes: Expr = Const(0)
    #: activation bytes stashed for the backward pass
    saved_bytes: Expr = Const(0)
    #: backward FLOPs = factor * forward FLOPs (2.0 for GEMMs: dgrad+wgrad)
    bwd_flops_factor: float = 2.0
    #: backward traffic = factor * forward traffic
    bwd_io_factor: float = 2.0
    #: bytes all-reduced across the TP group right after this op (forward)
    tp_allreduce_fwd: Expr = Const(0)
    #: bytes all-reduced across the TP group in this op's backward
    tp_allreduce_bwd: Expr = Const(0)

    def __post_init__(self):
        if self.kind not in OpKind.ALL:
            raise ValueError(f"unknown op kind {self.kind!r}")
        for attr in ("output_bytes", "flops", "io_bytes", "saved_bytes",
                     "tp_allreduce_fwd", "tp_allreduce_bwd"):
            object.__setattr__(self, attr, as_expr(getattr(self, attr)))


@dataclass
class LayerGraph:
    """A (symbolic) forward graph for one model block.

    ``ops`` execute in list order; tensor names connect producers to
    consumers. ``input_tensor`` is produced by the previous block.
    """

    name: str
    ops: list[Op]
    input_tensor: str
    input_bytes: Expr
    #: fp16 parameter bytes resident on one TP rank
    param_bytes: Expr = field(default_factory=lambda: Const(0))
    #: parameter elements on one TP rank (for optimizer state sizing)
    param_count: Expr = field(default_factory=lambda: Const(0))

    def __post_init__(self):
        self.input_bytes = as_expr(self.input_bytes)
        self.param_bytes = as_expr(self.param_bytes)
        self.param_count = as_expr(self.param_count)
        produced = {self.input_tensor}
        for op in self.ops:
            for tensor in op.inputs:
                if tensor not in produced:
                    raise ValueError(
                        f"{self.name}: op {op.name!r} consumes undefined "
                        f"tensor {tensor!r}"
                    )
            produced.add(op.output)

    # -- aggregate expressions (the intra-layer pass) -----------------------

    @property
    def output_bytes(self) -> Expr:
        return self.ops[-1].output_bytes

    def saved_activation_bytes(self) -> Expr:
        """Bytes stashed for backward when the layer is NOT checkpointed."""
        total: Expr = Const(0)
        for op in self.ops:
            total = total + op.saved_bytes
        return total

    def ckpt_saved_bytes(self) -> Expr:
        """Bytes stashed when the layer IS checkpointed (input only)."""
        return self.input_bytes

    def tp_allreduce_fwd_bytes(self) -> Expr:
        total: Expr = Const(0)
        for op in self.ops:
            total = total + op.tp_allreduce_fwd
        return total

    def tp_allreduce_bwd_bytes(self) -> Expr:
        total: Expr = Const(0)
        for op in self.ops:
            total = total + op.tp_allreduce_bwd
        return total
