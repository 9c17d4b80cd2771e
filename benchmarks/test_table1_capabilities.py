"""Table 1: capability matrix of distributed training systems.

Static reproduction: the capability rows of the implemented systems
must match the paper's Table 1 — Mist is the only system with full
fine-grained offloading, ZeRO-2/3 *and* full auto-tuning of everything
it supports.
"""

from repro.baselines import CAPABILITY_TABLE
from repro.campaigns.report import format_table


def _rows():
    return [cap.as_row() for cap in CAPABILITY_TABLE]


def test_table1_matrix(report, benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    headers = list(rows[0].keys())
    report("Table 1 — system capabilities\n" + format_table(
        headers, [[row[h] for h in headers] for row in rows]
    ))

    by_name = {row["System"]: row for row in rows}
    # Paper Table 1 invariants
    assert not by_name["Megatron-LM"]["ZeRO-2/3"]
    assert by_name["Megatron-LM"]["Auto-Tuning"] == "none"
    assert by_name["DeepSpeed"]["ZeRO-2/3"]
    assert by_name["DeepSpeed"]["Offload O"] == "coarse"
    assert not by_name["Aceso"]["ZeRO-2/3"]
    assert by_name["Aceso"]["Offload O"] == "none"
    assert by_name["Aceso"]["Auto-Tuning"] == "partial"
    mist = by_name["Mist"]
    assert mist["ZeRO-2/3"]
    assert all(mist[f"Offload {x}"] == "fine" for x in "PGOA")
    assert mist["Auto-Tuning"] == "full"


def test_mist_is_strictly_most_capable():
    mist = CAPABILITY_TABLE[-1]
    assert mist.name == "Mist"
    order = {"none": 0, "coarse": 1, "fine": 2}
    for cap in CAPABILITY_TABLE[:-1]:
        for attr in ("offload_p", "offload_g", "offload_o", "offload_a"):
            assert order[getattr(cap, attr)] <= order[getattr(mist, attr)]
        assert cap.zero23 <= mist.zero23
