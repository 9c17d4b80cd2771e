"""Figure 2: tuning each memory optimization with parallelism.

GPT-3 2.7B on 4 NVIDIA L4 GPUs, seq 4096, global batch 8. Panels:
(b) full recomputation; (c) tuned recomputation; (d) tuned ZeRO;
(e) tuned offloading; (f) everything co-optimized.

Expected shape (paper: 1.22x / 1.25x / 1.16x / 1.30x over full CKPT):
every tuned panel >= full CKPT, and co-optimization beats each single
optimization.
"""

from repro.core import MistTuner, SPACE_3D, SPACE_3D_ZERO
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine, OOMError
from repro.hardware import make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-2.7b")
CLUSTER = make_cluster("L4", 1, 4)
SEQ_LEN = 4096
GLOBAL_BATCH = 8

OFFLOAD = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Fig. 2's panels isolate one optimization each; the plain panels use
#: parallelism without any ZeRO (the paper's Megatron/Alpa baseline).
_PLAIN = SPACE_3D.with_(name="plain", zero_levels=(0,))
PANELS = {
    "full_ckpt": _PLAIN.with_(name="full-ckpt", ckpt_policy="full"),
    "tuned_ckpt": _PLAIN.with_(name="tuned-ckpt", tune_ckpt=True),
    "tuned_zero": SPACE_3D_ZERO.with_(name="tuned-zero",
                                      ckpt_policy="full"),
    "tuned_offload": _PLAIN.with_(name="tuned-offload",
                                  ckpt_policy="full",
                                  oo_grid=OFFLOAD, ao_grid=OFFLOAD),
    "all_tuned": SPACE_3D_ZERO.with_(name="all", tune_ckpt=True,
                                     oo_grid=OFFLOAD, ao_grid=OFFLOAD),
}


def _run_panel(space):
    interference = calibrated_interference(pcie_only=True)
    tuner = MistTuner(MODEL, CLUSTER, seq_len=SEQ_LEN, space=space,
                      interference=interference)
    tuned = tuner.search(GLOBAL_BATCH)
    if tuned.best_plan is None:
        return None
    engine = ExecutionEngine(CLUSTER, system="mist")
    try:
        return engine.run(tuned.best_plan, MODEL, seq_len=SEQ_LEN)
    except OOMError:
        return None


def test_fig2_speedups(report, benchmark):
    panel_results = benchmark.pedantic(
        lambda: {name: _run_panel(space) for name, space in PANELS.items()},
        rounds=1, iterations=1,
    )
    base = panel_results["full_ckpt"]
    assert base is not None, "full-CKPT baseline must train (Fig. 2b)"
    lines = ["Figure 2 — motivational example (GPT-3 2.7B, 4x L4, "
             f"seq {SEQ_LEN}, B={GLOBAL_BATCH})"]
    for name, result in panel_results.items():
        if result is None:
            lines.append(f"  {name:14s}: infeasible")
            continue
        speed = result.throughput / base.throughput
        lines.append(f"  {name:14s}: {result.throughput:5.2f} samples/s "
                     f"({speed:4.2f}x)")
    report("\n".join(lines))

    for name in ("tuned_ckpt", "tuned_zero", "tuned_offload"):
        assert panel_results[name] is not None
        assert panel_results[name].throughput >= base.throughput * 0.999, \
            f"{name} should not lose to full CKPT"

    co = panel_results["all_tuned"]
    assert co is not None
    singles = max(panel_results[n].throughput
                  for n in ("tuned_ckpt", "tuned_zero", "tuned_offload"))
    assert co.throughput >= singles * 0.999, \
        "co-optimization must match or beat every single optimization"
    # paper: 1.30x; accept the same ballpark
    assert co.throughput / base.throughput > 1.15


def test_fig2_parallelism_only_is_memory_bound():
    """Panel (a): the no-memory-optimization space is almost all OOM."""
    from repro.baselines.common import pipeline_grids
    from repro.core.plan import PlanValidationError, uniform_plan

    engine = ExecutionEngine(CLUSTER, system="mist")
    total, fit = 0, 0
    for num_stages, dp, tp, gacc, _ in pipeline_grids(MODEL, CLUSTER,
                                                      GLOBAL_BATCH):
        try:
            plan = uniform_plan(MODEL, CLUSTER, global_batch=GLOBAL_BATCH,
                                gacc=gacc, num_stages=num_stages, dp=dp,
                                tp=tp, ckpt_all=False)
        except PlanValidationError:
            continue
        total += 1
        try:
            engine.run(plan, MODEL, seq_len=SEQ_LEN)
            fit += 1
        except OOMError:
            continue
    assert total > 10
    # paper: all OOM; our leaner memory model lets a few deep-PP plans
    # squeeze in, but the space must remain dominated by OOMs
    assert fit <= total * 0.25
