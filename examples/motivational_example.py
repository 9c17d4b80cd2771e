#!/usr/bin/env python3
"""The paper's motivational example (Figure 2), end to end.

GPT-3 2.7B on 4 NVIDIA L4 GPUs, sequence length 4096, global batch 8:

  (a) parallelism only            -> every plan OOMs
  (b) full activation checkpoint  -> trains, but recomputes everything
  (c) tuned checkpointing         -> faster
  (d) tuned ZeRO                  -> faster
  (e) tuned offloading            -> faster
  (f) everything co-optimized     -> fastest

Run:  python examples/motivational_example.py
"""

from repro import get_model, make_cluster
from repro.core import MistTuner, SPACE_3D, SPACE_3D_ZERO, SearchSpace
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, OOMError

MODEL = get_model("gpt3-2.7b")
CLUSTER = make_cluster("L4", 1, 4)
SEQ_LEN = 4096
GLOBAL_BATCH = 8

#: the per-panel search spaces of Figure 2; the plain panels use
#: parallelism without any ZeRO (the paper's Megatron/Alpa baseline)
_PLAIN = SPACE_3D.with_(name="plain", zero_levels=(0,))
PANELS: dict[str, SearchSpace] = {
    "(b) full CKPT": _PLAIN.with_(name="full-ckpt", ckpt_policy="full"),
    "(c) tuned CKPT": _PLAIN.with_(name="tuned-ckpt", tune_ckpt=True),
    "(d) tuned ZeRO": SPACE_3D_ZERO.with_(name="tuned-zero"),
    "(e) tuned offloading": _PLAIN.with_(
        name="tuned-offload",
        oo_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        ao_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    ),
    "(f) all co-optimized": SPACE_3D_ZERO.with_(
        name="all", tune_ckpt=True,
        oo_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        ao_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    ),
}


def panel_a_all_plans_oom() -> None:
    """(a): without memory optimizations, every parallelism plan OOMs."""
    from repro.baselines.common import pipeline_grids
    from repro.core.plan import PlanValidationError, uniform_plan

    engine = ExecutionEngine(CLUSTER, system="mist")
    survivors = []
    for num_stages, dp, tp, gacc, _ in pipeline_grids(MODEL, CLUSTER,
                                                      GLOBAL_BATCH):
        try:
            plan = uniform_plan(MODEL, CLUSTER, global_batch=GLOBAL_BATCH,
                                gacc=gacc, num_stages=num_stages, dp=dp,
                                tp=tp, ckpt_all=False)
            engine.run(plan, MODEL, seq_len=SEQ_LEN)
            survivors.append(plan)
        except (OOMError, PlanValidationError):
            continue
    if not survivors:
        status = "all plans OOM (as in the paper)"
    else:
        # Our memory model is slightly leaner than the authors' testbed:
        # a few deep-pipeline plans squeeze in, but all are slow.
        status = (f"{len(survivors)} deep-PP plans fit (paper: all OOM); "
                  "the space is still severely memory-constrained")
    print(f"(a) parallelism only          : {status}")


def main() -> None:
    print(f"{MODEL} on {CLUSTER.name}, seq={SEQ_LEN}, B={GLOBAL_BATCH}\n")
    panel_a_all_plans_oom()

    interference = calibrated_interference(pcie_only=True)
    engine = ExecutionEngine(CLUSTER, system="mist")
    baseline = None
    for label, space in PANELS.items():
        tuner = MistTuner(MODEL, CLUSTER, seq_len=SEQ_LEN, space=space,
                          interference=interference)
        tuned = tuner.search(GLOBAL_BATCH)
        if tuned.best_plan is None:
            print(f"{label:30s}: no feasible plan")
            continue
        result = engine.run(tuned.best_plan, MODEL, seq_len=SEQ_LEN)
        if baseline is None:
            baseline = result.throughput
        stage0 = tuned.best_plan.stages[0].describe()
        print(f"{label:30s}: {result.throughput:5.2f} samples/s "
              f"({result.throughput / baseline:4.2f}x)  S="
              f"{tuned.best_plan.num_stages} G={tuned.best_plan.gacc}  "
              f"[{stage0}]")


if __name__ == "__main__":
    main()
