"""Figure 12: end-to-end throughput without FlashAttention, + Aceso.

GPT-3 at paper scales on L4 and A100 clusters, now including the
automatic baseline Aceso (which does not support FlashAttention — the
reason the paper benches this configuration separately).

Expected shape (paper): Mist >= everyone (avg 1.14x vs Megatron-LM,
1.27x vs Aceso, up to 2.04x); Aceso loses to Megatron-LM in a majority
of cases despite its larger search space (overlap-unawareness, no
sharded DP).
"""

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.evaluation import current_scale, format_throughput_rows, scale_ref

SYSTEMS = ("megatron", "deepspeed", "aceso", "mist")


def _sizes(gpu_name: str):
    if current_scale().name == "full":
        return ("1.3b", "2.7b", "6.7b", "13b", "22b")
    if current_scale().name == "smoke":
        return ("1.3b",)
    # quick: keep the PCIe sweep complete; trim the NVLink one
    return ("1.3b", "2.7b", "6.7b") if gpu_name == "L4" else ("1.3b", "2.7b")


def _sweep(gpu_name: str):
    campaign = run_campaign(CampaignSpec.paper_grid(
        gpu=gpu_name, family="gpt3", sizes=_sizes(gpu_name), solvers=SYSTEMS,
        scale=scale_ref(current_scale()), flash=False))
    assert campaign.complete, campaign.describe()
    return campaign.results(), campaign.speedups("megatron")


@pytest.mark.parametrize("gpu_name", ["L4", "A100-40GB"])
def test_fig12_end_to_end_noflash(gpu_name, report, benchmark):
    results, speedups = benchmark.pedantic(
        lambda: _sweep(gpu_name), rounds=1, iterations=1
    )
    report(format_throughput_rows(
        f"Figure 12 — end-to-end throughput w/o FlashAttention ({gpu_name})",
        results, reference="megatron",
    ))

    mist_vs_megatron = []
    mist_vs_aceso = []
    for name, row in results.items():
        mist = row["mist"]
        assert mist > 0, f"{name}: Mist infeasible"
        assert mist >= 0.93 * max(row[s] for s in SYSTEMS if s != "mist"), \
            name
        if row["megatron"] > 0:
            mist_vs_megatron.append(speedups[name]["mist"])
        if row["aceso"] > 0:
            mist_vs_aceso.append(mist / row["aceso"])

    assert mist_vs_megatron and mist_vs_aceso
    avg_m = sum(mist_vs_megatron) / len(mist_vs_megatron)
    avg_a = sum(mist_vs_aceso) / len(mist_vs_aceso)
    # paper: 1.14x vs Megatron-LM and 1.27x vs Aceso on average, with
    # Aceso below Megatron-LM in most cases
    assert avg_m > 0.97
    assert avg_a > avg_m * 0.95, \
        "Aceso should not beat Megatron-LM on average (paper Section 6.2)"
    assert max(mist_vs_megatron) > 1.05, \
        "memory-tight points should show real wins"
