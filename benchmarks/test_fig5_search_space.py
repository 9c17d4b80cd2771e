"""Figure 5: configuration-count growth as optimizations are added.

The unpruned joint space grows from ~10^10 configurations (DP+TP+PP on
16 layers) to beyond 10^100 with every memory optimization enabled at
80 layers — the scale that motivates symbolic batched evaluation and
hierarchical tuning.
"""

from repro.core import log10_configurations
from repro.benchmarking.suite import format_series

LAYERS = (16, 32, 48, 64, 80)
NUM_GPUS = 32

#: cumulative optimization flags, in the paper's legend order
INCREMENTS = [
    ("DP+TP+PP", {}),
    ("+ZeRO", {"zero": True}),
    ("+CKPT", {"zero": True, "ckpt": True}),
    ("+OO", {"zero": True, "ckpt": True, "oo": True}),
    ("+GO", {"zero": True, "ckpt": True, "oo": True, "go": True}),
    ("+PO", {"zero": True, "ckpt": True, "oo": True, "go": True,
             "po": True}),
    ("+AO", {"zero": True, "ckpt": True, "oo": True, "go": True,
             "po": True, "ao": True}),
]


def _series():
    return {
        label: [log10_configurations(layers, NUM_GPUS, **flags)
                for layers in LAYERS]
        for label, flags in INCREMENTS
    }


def test_fig5_search_space_growth(report, benchmark):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    report(format_series(
        "Figure 5 — log10(#configurations) vs #layers (32 GPUs)",
        "space", {k: [f"{v:.0f}" for v in vals]
                  for k, vals in series.items()},
        LAYERS,
    ))

    # growth in layers is monotone for every space
    for label, values in series.items():
        assert all(a < b for a, b in zip(values, values[1:])), label

    # each added optimization strictly enlarges the space
    labels = [label for label, _ in INCREMENTS]
    for i in range(len(labels) - 1):
        for j, _ in enumerate(LAYERS):
            assert series[labels[i]][j] < series[labels[i + 1]][j]

    # the full space at 80 layers is astronomically large (paper: >10^100)
    assert series["+AO"][-1] > 100
    # parallelism-only is already beyond exhaustive search
    assert series["DP+TP+PP"][-1] > 8
