"""Figure 11: end-to-end throughput with FlashAttention.

GPT-3 / Llama / Falcon at paper scales (1.3B on 2 GPUs ... 22B on 32
GPUs), Mist vs Megatron-LM vs DeepSpeed, on PCIe (L4, seq 2048) and
NVLink (A100, seq 4096) clusters.

Expected shape (paper): Mist wins everywhere — avg 1.32x (L4) / 1.34x
(A100) over Megatron-LM, larger factors for Llama/Falcon than GPT, and
larger wins on the memory-tight PCIe machines; DeepSpeed generally
trails Megatron-LM.

Scale note: the ``quick`` preset sweeps sizes 1.3B-6.7B (up to 8 GPUs);
``REPRO_BENCH_SCALE=full`` adds 13B/22B on 16/32 GPUs.
"""

import pytest

from repro.benchmarking.suite import current_scale
from repro.campaigns import CampaignSpec, run_campaign
from repro.campaigns.report import format_throughput_rows
from repro.core.spaces import scale_ref

SYSTEMS = ("megatron", "deepspeed", "mist")


def _sizes():
    if current_scale().name == "full":
        return ("1.3b", "2.7b", "6.7b", "13b", "22b")
    if current_scale().name == "smoke":
        return ("1.3b",)
    return ("1.3b", "2.7b", "6.7b")


def _sweep(gpu_name: str, families):
    results = {}
    speedups = {}
    for family in families:
        campaign = run_campaign(CampaignSpec.paper_grid(
            gpu=gpu_name, family=family, sizes=_sizes(), solvers=SYSTEMS,
            scale=scale_ref(current_scale()), flash=True))
        assert campaign.complete, campaign.describe()
        results.update(campaign.results())
        speedups.update(campaign.speedups("megatron"))
    return results, speedups


@pytest.mark.parametrize("gpu_name,families", [
    ("L4", ("gpt3", "llama", "falcon")),
    ("A100-40GB", ("gpt3",)),
])
def test_fig11_end_to_end(gpu_name, families, report, benchmark):
    results, speedups = benchmark.pedantic(
        lambda: _sweep(gpu_name, families), rounds=1, iterations=1
    )
    report(format_throughput_rows(
        f"Figure 11 — end-to-end throughput w/ FlashAttention ({gpu_name})",
        results, reference="megatron",
    ))

    mist_vs_megatron = []
    for name, row in results.items():
        assert row["mist"] > 0, f"{name}: Mist found no feasible plan"
        assert row["megatron"] > 0, f"{name}: Megatron found no feasible plan"
        # Mist never meaningfully loses to the baselines: at nil-headroom
        # scales it lands within its small runtime overhead of parity
        best_baseline = max(row[s] for s in SYSTEMS if s != "mist")
        assert row["mist"] >= 0.93 * best_baseline, name
        mist_vs_megatron.append(speedups[name]["mist"])

    avg = sum(mist_vs_megatron) / len(mist_vs_megatron)
    # paper: 1.32x average on L4, 1.34x on A100 (their averages include
    # the memory-tight 13B/22B points); shape target here: clear wins on
    # the PCIe machines, at-least-parity on NVLink
    if gpu_name == "L4":
        assert avg > 1.03, f"average L4 speedup {avg:.2f}x too low"
    else:
        assert avg > 0.97, f"average A100 speedup {avg:.2f}x too low"
    assert max(mist_vs_megatron) < 2.5, "implausibly large speedup"
    if gpu_name == "L4":
        # the PCIe sweep includes memory-tight points with real wins
        assert max(mist_vs_megatron) > 1.08

