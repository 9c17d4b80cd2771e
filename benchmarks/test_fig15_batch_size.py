"""Figure 15: robustness over global batch sizes.

GPT-3 22B-class model on L4, global batch 256-2048 in the paper
(scaled-down model/cluster under the quick preset). Three tuners:
3D parallelism, Mist without imbalance-aware pipelining, full Mist.

Expected shape: Mist best at every batch size (paper: 1.28-1.35x over
3D parallelism), and imbalance-awareness contributes an extra ~1.13x on
average — crucially NOT diminishing at large batch sizes, because
mispredicted bottlenecks are multiplied by more microbatches.
"""

from repro.api import TuningJob, solve
from repro.core import SPACE_3D, SPACE_MIST
from repro.core.spaces import space_ref
from repro.evaluation import (
    WorkloadSpec,
    current_scale,
    format_series,
    scale_ref,
)

SPACES = {
    "3D Parallelism": SPACE_3D.with_(name="3d", ckpt_policy="full"),
    # not SPACE_MIST_NO_IMBALANCE: a space's name is part of the job
    # fingerprint, and this ablation keeps SPACE_MIST's
    "Mist w/o Imbalance-Aware PP": SPACE_MIST.with_(imbalance_aware=False),
    "Mist": SPACE_MIST,
}


def _config():
    scale = current_scale().name
    if scale == "full":
        return "gpt3-22b", 32, (256, 512, 1024, 2048)
    if scale == "smoke":
        return "gpt3-2.7b", 4, (32, 64)
    return "gpt3-6.7b", 8, (128, 256, 512)


def _sweep():
    model_spec, num_gpus, batches = _config()
    series = {name: [] for name in SPACES}
    for batch in batches:
        spec = WorkloadSpec(model_spec, "L4", num_gpus, batch, 2048)
        for name, space in SPACES.items():
            job = TuningJob.from_workload(spec, space=space_ref(space),
                                          scale=scale_ref(current_scale()))
            series[name].append(solve(job, "mist").throughput)
    return batches, series


def test_fig15_batch_sweep(report, benchmark):
    batches, series = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    base = series["3D Parallelism"]
    report(format_series(
        "Figure 15 — throughput vs global batch size "
        "(normalized to 3D parallelism)",
        "tuner",
        {name: [f"{v / b:.2f}x" if b else "OOM"
                for v, b in zip(vals, base)]
         for name, vals in series.items()},
        batches,
    ))

    for i, batch in enumerate(batches):
        mist = series["Mist"][i]
        no_imb = series["Mist w/o Imbalance-Aware PP"][i]
        assert mist > 0, f"Mist infeasible at B={batch}"
        # full Mist never loses to its own imbalance-unaware ablation
        assert mist >= no_imb * 0.97, batch
        if base[i] > 0:
            assert mist >= base[i] * 1.0, batch
    # the imbalance-aware advantage persists at the largest batch
    last = len(batches) - 1
    if series["Mist w/o Imbalance-Aware PP"][last] > 0:
        ratio = series["Mist"][last] / series["Mist w/o Imbalance-Aware PP"][last]
        assert ratio >= 0.97
