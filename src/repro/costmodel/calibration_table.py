"""Algorithm 1's fitted pairwise slowdown factors, one vector per fabric.

The paper fits the slowdown factors once, offline, from co-run
measurements (§5.2.2). Here ``scripts/refresh_calibration.py`` runs
that fit against the execution engine's contention oracle, and its
result is checked in, so no process fits at run time. Each vector follows
:data:`repro.costmodel.interference.PAIR_KEYS`; a comment names the
slowed channel and the channel it co-runs with.

Generated by ``scripts/refresh_calibration.py``; do not edit by hand.
A new table moves plans, so it must bump
``repro.api.cache.SOLVER_SEMANTICS``
(``tests/costmodel/test_calibration_table.py`` pins its digest).
"""

PAIR_VECTORS: dict[str, tuple[float, ...]] = {
    "pcie": (
        1.0932623004896942,  # comp with g2g
        1.1620861844588903,  # g2g with comp
        1.0668257234944125,  # comp with c2g
        1.1299049848313114,  # c2g with comp
        1.0,  # comp with g2c
        1.1350041438854315,  # g2c with comp
        1.5633071380034953,  # g2g with c2g
        1.7765462235300844,  # c2g with g2g
        1.56326212539636,  # g2g with g2c
        1.6813120513435291,  # g2c with g2g
        1.1823259602245901,  # c2g with g2c
        1.2300327617301665,  # g2c with c2g
    ),
    "nvlink": (
        1.0999967705581741,  # comp with g2g
        1.1200280933359692,  # g2g with comp
        1.0300409118517537,  # comp with c2g
        1.0800103757491417,  # c2g with comp
        1.0299646482232157,  # comp with g2c
        1.0700261862450984,  # g2c with comp
        1.0499352143284637,  # g2g with c2g
        1.09994946036247,  # c2g with g2g
        1.0499909191933583,  # g2g with g2c
        1.0900018403372793,  # g2c with g2g
        1.120022123521165,  # c2g with g2c
        1.1400001492642033,  # g2c with c2g
    ),
}
