#!/usr/bin/env python3
"""Symbolic analysis walkthrough (paper Figure 9 and Section A.5).

Demonstrates the symbolic machinery directly: declare symbols with
concrete defaults, trace a model, inspect the peak-memory expression,
and evaluate thousands of configurations in one batched call — the
paper highlights this workflow as an educational tool for understanding
how each dimension drives memory and runtime.

Run:  python examples/symbolic_analysis.py
"""

import numpy as np

from repro import get_model
from repro.hardware import get_gpu, make_cluster
from repro.symbolic import SymbolManager, count_nodes, free_symbols
from repro.tracing import trace
from repro.tracing.symbols import symbol_env

def main() -> None:
    # -- 1. symbols with concrete defaults (the paper's Figure 9 API) -----
    gsm = SymbolManager()
    b, s, h = gsm.symbols("b s h", (4, 2048, 2560), integer=True)
    act_bytes = 2 * b * s * h
    print("symbolic activation size:", act_bytes)
    print("with defaults           :",
          gsm.concretize(act_bytes) / 2**20, "MiB\n")

    # -- 2. trace a model: one pass yields closed-form expressions --------
    model = get_model("gpt3-2.7b")
    traced = trace(model, get_gpu("L4"), flash=True)
    peak = traced.memory.peak_bwd
    print(f"peak-memory expression: {count_nodes(peak)} DAG nodes over "
          f"symbols {sorted(free_symbols(peak))}\n")

    # -- 3. batched evaluation: sweep checkpointing x activation offload --
    cluster = make_cluster("L4", 1, 4)
    ckpt = np.arange(0, 33)
    ao = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ckpt_grid, ao_grid = np.meshgrid(ckpt, ao, indexing="ij")
    env = symbol_env(
        cluster, b=2, s=2048, tp=1, dp=2, l=32, ckpt=ckpt_grid, zero=0,
        wo=0.0, go=0.0, oo=0.0, ao=ao_grid, gacc=8, inflight=2,
        has_pre=1, has_post=0,
    )
    from repro.symbolic import evaluate

    peaks = evaluate(peak, env) / 2**30
    print("peak memory (GiB) by #checkpointed layers (rows: ckpt 0/16/32)")
    print("          AO=0   0.25   0.5   0.75   1.0")
    for row in (0, 16, 32):
        cells = "  ".join(f"{peaks[row, j]:5.1f}" for j in range(5))
        print(f"ckpt={row:2d}  {cells}")
    print()
    print(f"evaluated {peaks.size} configurations in one batched call — "
          "this is what makes brute-force intra-stage tuning viable.")


if __name__ == "__main__":
    main()
