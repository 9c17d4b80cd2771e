"""Operator computation database.

The paper estimates computation time from "an operator computation
database, which benchmarks new operators or unseen input shapes on the
current hardware and stores results for future use" (Section 5.2.1).

Without hardware, this reproduction replaces the CUDA benchmark with an
analytic roofline kernel model that preserves the properties the tuner
exploits:

* GEMM efficiency *saturates with work size* — larger microbatches (and
  smaller TP degrees) run closer to peak, reproducing the paper's
  "increasing the batch size improves kernel efficiency" lever;
* elementwise/normalization/softmax kernels are memory-bound;
* non-flash attention pays O(s²) memory traffic while FlashAttention is
  compute-bound with a backward recompute factor.

Because the model is closed-form, per-operator times are returned as
*symbolic expressions* over the graph symbols, which composes directly
with the symbolic analyzer. The database interface (memoized lookups
keyed by operator signature) is preserved from the paper so a real
profiler could be dropped in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware import GPUSpec
from repro.models.ops import Op, OpKind
from repro.symbolic import Const, Expr, smax

__all__ = ["OperatorDatabase", "OpTimings"]


@dataclass(frozen=True)
class OpTimings:
    """Forward and backward time expressions for one operator."""

    fwd: Expr
    bwd: Expr


class OperatorDatabase:
    """Prices operators on one GPU; memoizes by operator signature."""

    #: peak-efficiency ceilings per op kind (fraction of tensor-core peak)
    KIND_MAX_EFF = {
        OpKind.GEMM: 1.00,   # scaled by gpu.max_gemm_efficiency
        OpKind.BMM: 0.62,
        OpKind.FLASH_ATTN: 0.80,
    }
    #: FLOPs at which efficiency reaches half of its ceiling
    KIND_F_HALF = {
        OpKind.GEMM: 2.5e10,
        OpKind.BMM: 4.0e10,
        OpKind.FLASH_ATTN: 3.0e10,
    }

    def __init__(self, gpu: GPUSpec):
        self.gpu = gpu
        self._cache: dict[tuple, OpTimings] = {}

    # -- public API ---------------------------------------------------------

    def timings(self, op: Op) -> OpTimings:
        """Forward/backward time expressions for ``op`` (memoized)."""
        key = (op.name, op.kind, op.flops, op.io_bytes,
               op.bwd_flops_factor, op.bwd_io_factor)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        timings = OpTimings(fwd=self._price(op, backward=False),
                            bwd=self._price(op, backward=True))
        self._cache[key] = timings
        return timings

    def fwd_time(self, op: Op) -> Expr:
        return self.timings(op).fwd

    def bwd_time(self, op: Op) -> Expr:
        return self.timings(op).bwd

    # -- analytic kernel model ------------------------------------------------

    def _price(self, op: Op, *, backward: bool) -> Expr:
        flops = op.flops * op.bwd_flops_factor if backward else op.flops
        io = op.io_bytes * op.bwd_io_factor if backward else op.io_bytes
        overhead = Const(self.gpu.kernel_launch_overhead)
        if flops == Const(0) and io == Const(0):
            return Const(0)

        if op.kind in self.KIND_MAX_EFF:
            ceiling = self.KIND_MAX_EFF[op.kind]
            if op.kind == OpKind.GEMM:
                ceiling *= self.gpu.max_gemm_efficiency
            f_half = self.KIND_F_HALF[op.kind]
            # efficiency saturates as the per-rank workload grows
            eff = ceiling * flops / (flops + f_half)
            t_compute = flops / (self.gpu.peak_fp16_flops * eff)
            t_memory = io / self.gpu.mem_bandwidth
            return smax(t_compute, t_memory) + overhead

        # Memory-bound kernels: elementwise, norm, softmax, embedding, xent.
        # The small vector-ALU term prevents zero-cost ops with tiny IO.
        t_memory = io / self.gpu.mem_bandwidth
        t_alu = flops / (0.08 * self.gpu.peak_fp16_flops)
        return smax(t_memory, t_alu) + overhead

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OperatorDatabase(gpu={self.gpu.name}, entries={len(self._cache)})"
