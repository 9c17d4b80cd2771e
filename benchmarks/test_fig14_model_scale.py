"""Figure 14: robustness over model depth (32-80 layers).

GPT-3 (22B-class width) with varying layer counts on an L4 cluster,
three search spaces: 3D parallelism, 3D+CKPT tuning, full Mist — with
and without FlashAttention in the paper; we bench the flash variant and
spot-check no-flash at one depth.

Expected shape: Mist > 3D+CKPT > 3D at every depth (paper: up to 1.32x
at 80 layers), with the CKPT-only advantage shrinking as the model
grows and the full space holding its lead.
"""

from repro.core import SPACE_3D, SPACE_MIST
from repro.evaluation import WorkloadSpec, current_scale, format_series
from repro.models import get_model


def _depths():
    scale = current_scale().name
    if scale == "smoke":
        return (24, 32)
    if scale == "full":
        return (32, 48, 64, 80)
    return (24, 32, 48)


def _cluster_size():
    return 32 if current_scale().name == "full" else 8


SPACES = {
    "3D Parallelism": SPACE_3D.with_(name="3d", ckpt_policy="full"),
    "3D+CKPT Tuning": SPACE_3D.with_(name="3d+ckpt", tune_ckpt=True),
    "Mist": SPACE_MIST,
}


def _sweep():
    num_gpus = _cluster_size()
    base = get_model("gpt3-6.7b" if num_gpus == 8 else "gpt3-22b")
    series = {name: [] for name in SPACES}
    for depth in _depths():
        model = base.with_layers(depth)
        spec = WorkloadSpec(
            model_spec=base.name, gpu_name="L4", num_gpus=num_gpus,
            global_batch=128 if num_gpus == 8 else 512, seq_len=2048,
        )
        for name, space in SPACES.items():
            outcome = _run_with_model(spec, model, space)
            series[name].append(outcome)
    return series


def _run_with_model(spec, model, space):
    from repro.core import MistTuner
    from repro.evaluation import calibrated_interference
    from repro.execution import ExecutionEngine, OOMError

    scale = current_scale()
    cluster = spec.cluster
    tuner = MistTuner(
        model, cluster, seq_len=spec.seq_len, flash=spec.flash,
        space=scale.apply(space),
        interference=calibrated_interference(not cluster.gpu.has_nvlink),
        max_gacc_candidates=scale.max_gacc_candidates,
    )
    tuned = tuner.search(spec.global_batch)
    if tuned.best_plan is None:
        return 0.0
    try:
        result = ExecutionEngine(cluster, system="mist").run(
            tuned.best_plan, model, seq_len=spec.seq_len, flash=spec.flash
        )
    except OOMError:
        return 0.0
    return result.throughput


def test_fig14_depth_sweep(report, benchmark):
    series = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    depths = _depths()
    base = series["3D Parallelism"]
    normalized = {
        name: [f"{v / b:.2f}x" if b else "OOM"
               for v, b in zip(vals, base)]
        for name, vals in series.items()
    }
    report(format_series(
        f"Figure 14 — throughput vs #layers (GPT, {_cluster_size()}x L4, "
        "normalized to 3D parallelism)",
        "space", normalized, depths,
    ))

    for i, depth in enumerate(depths):
        three_d = series["3D Parallelism"][i]
        ckpt = series["3D+CKPT Tuning"][i]
        mist = series["Mist"][i]
        assert mist > 0, f"Mist infeasible at {depth} layers"
        if three_d > 0:
            assert ckpt >= three_d * 0.98, depth
        assert mist >= ckpt * 0.98, depth
    # Mist's edge persists at the largest depth (paper: 1.21-1.32x)
    last = len(depths) - 1
    if base[last] > 0:
        assert series["Mist"][last] / base[last] > 1.03
