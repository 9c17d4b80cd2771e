"""Figure 16: tuning time as the search space grows, vs Alpa/Aceso.

The paper tunes GPT-3 22B on 32 GPUs: Mist's time grows from ~92s (3D
parallelism) to ~1083s (all offloading enabled) while Alpa needs ~10^4+
seconds (simulation-per-configuration) — and Mist at Aceso's search
space is faster than Aceso (~201s).

This bench measures Mist's actual tuning times over the incremental
spaces on the scaled workload — through the prune-and-memoize engine,
the same measurement ``repro bench`` snapshots into ``BENCH_4.json``
(:func:`repro.benchmarking.measure_fig16`) — measures Aceso's tuner,
and *estimates* the simulation-based cost the way the paper cites it
(≈6s per configuration simulation, Proteus [21]), since running Alpa
is neither possible nor meaningful here.

Expected shape: tuning time grows with the space but stays within the
same order of magnitude; the simulation-per-config estimate is many
orders of magnitude larger; the engine records nonzero pruned and
memo-hit counters while the parallel fan-out returns the serial plan.
"""

from repro.baselines import AcesoTuner
from repro.benchmarking import fig16_job, measure_fig16
from repro.benchmarking.suite import current_scale, format_series
from repro.core import INCREMENTAL_SPACES, log10_configurations

#: per-configuration simulation cost cited by the paper (Proteus, §3.2)
SIMULATION_SECONDS_PER_CONFIG = 6.0


def _measure():
    scale = current_scale()
    job = fig16_job(scale)
    mist = measure_fig16(scale, prune=True, parallel_rerun=True)

    times = {name: entry["seconds"]
             for name, entry in mist["per_space"].items()}
    configs = {name: entry["configurations_evaluated"]
               for name, entry in mist["per_space"].items()}
    times["Mist (parallel S,G)"] = mist["parallel"]["seconds"]

    model = job.resolved_model()
    aceso = AcesoTuner(model, job.resolved_cluster(), seq_len=job.seq_len)
    aceso_result = aceso.tune(job.global_batch)
    times["Aceso"] = aceso_result.tuning_time_seconds

    # simulation-per-configuration estimate for the parallelism-only
    # space (the Alpa-style approach the paper contrasts against)
    log10_parallel = log10_configurations(
        model.num_layers, job.num_gpus
    )
    times["simulation-based (est.)"] = (
        10 ** min(log10_parallel, 12) * SIMULATION_SECONDS_PER_CONFIG
    )
    return times, configs, mist


def test_fig16_tuning_time(report, benchmark):
    times, configs, mist = benchmark.pedantic(_measure, rounds=1,
                                              iterations=1)
    scale = current_scale()
    job = fig16_job(scale)
    rows = {
        name: [f"{seconds:,.1f}",
               f"{configs.get(name, '-')}"]
        for name, seconds in times.items()
    }
    report(format_series(
        f"Figure 16 — tuning time ({job.name})",
        "tuner", rows, ["seconds", "#configs evaluated"],
    ))

    mist_names = [space.name for space in INCREMENTAL_SPACES]

    # every Mist tuning run finishes in interactive time on this scale
    for name in mist_names:
        assert times[name] < 600, (name, times[name])

    # the prune-and-memoize engine accounts for every (S, G) cell ...
    for name in mist_names:
        stats = mist["per_space"][name]["stats"]
        assert stats["cells_explored"] + stats["cells_pruned"] \
            + stats["cells_infeasible"] == stats["cells_total"], stats
    # ... and actually prunes / prefilters on the widest space
    widest = mist["per_space"][mist_names[-1]]["stats"]
    if scale.name != "smoke":  # smoke grids are tiny; counters may hit 0
        assert widest["cells_pruned"] > 0, widest
        assert widest["configs_prefiltered"] > 0, widest

    # §5.3: the (S, G) grid is embarrassingly parallel across cores —
    # the fan-out re-run returns the identical plan, served by the
    # shared menu memo
    assert mist["parallel"]["matches_serial"]
    assert mist["parallel"]["memo_hits"] > 0

    # simulation-per-configuration search is astronomically slower
    assert times["simulation-based (est.)"] > 1000 * times[mist_names[-1]]
