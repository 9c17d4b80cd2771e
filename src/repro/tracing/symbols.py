"""Canonical optimization and hardware symbols (paper Table 2).

Every expression produced by the tracing passes is written over this
fixed vocabulary, so a single symbolic build per (model, GPU) serves
every candidate configuration — values are substituted in batches at
tuning time (Section 5.2's "batched value substitutions").

Stage-configuration symbols (Table 2):

==========  =============================================================
``b``       microbatch size (from :mod:`repro.models.ops`)
``s``       sequence length (from :mod:`repro.models.ops`)
``tp``      tensor-parallel size (from :mod:`repro.models.ops`)
``dp``      data-parallel size
``l``       number of transformer layers in the stage
``ckpt``    number of recomputed (checkpointed) layers, 0..l
``z1..z3``  ZeRO flags: optimizer / gradients / parameters sharded (0/1)
``wo``      weight offloading ratio in [0, 1]
``go``      gradient offloading ratio
``oo``      optimizer-state offloading ratio
``ao``      activation offloading ratio
``gacc``    gradient accumulation steps (G)
``inflight``in-flight microbatches of this stage under 1F1B
``has_pre`` 1 if the stage hosts the embedding (stage 0)
``has_post``1 if the stage hosts the LM head (last stage)
==========  =============================================================

Hardware symbols (substituted from the cluster topology per candidate
placement): ``tp_bw/tp_lat``, ``dp_bw/dp_lat``, ``p2p_bw/p2p_lat``,
``h2d_bw``, ``d2h_bw``.

:func:`symbol_env` turns a (batched) stage configuration into values
for all of them; every pricing path — the analyzer, the tuners, the
baselines and the execution engine — builds its environment there.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import ClusterSpec
from repro.models.ops import B, S, TP
from repro.symbolic import Sym

__all__ = [
    "B", "S", "TP", "DP", "L", "CKPT",
    "Z1", "Z2", "Z3", "WO", "GO", "OO", "AO",
    "GACC", "INFLIGHT", "HAS_PRE", "HAS_POST",
    "TP_BW", "TP_LAT", "DP_BW", "DP_LAT", "P2P_BW", "P2P_LAT",
    "H2D_BW", "D2H_BW",
    "CONFIG_SYMBOLS", "HARDWARE_SYMBOLS", "ALL_SYMBOLS",
    "hardware_env", "symbol_env",
]

DP = Sym("dp", integer=True)
L = Sym("l", integer=True)
CKPT = Sym("ckpt", integer=True)

Z1 = Sym("z1", integer=True)
Z2 = Sym("z2", integer=True)
Z3 = Sym("z3", integer=True)

WO = Sym("wo")
GO = Sym("go")
OO = Sym("oo")
AO = Sym("ao")

GACC = Sym("gacc", integer=True)
INFLIGHT = Sym("inflight", integer=True)
HAS_PRE = Sym("has_pre", integer=True)
HAS_POST = Sym("has_post", integer=True)

TP_BW = Sym("tp_bw")
TP_LAT = Sym("tp_lat")
DP_BW = Sym("dp_bw")
DP_LAT = Sym("dp_lat")
P2P_BW = Sym("p2p_bw")
P2P_LAT = Sym("p2p_lat")
H2D_BW = Sym("h2d_bw")
D2H_BW = Sym("d2h_bw")

CONFIG_SYMBOLS = (B, S, TP, DP, L, CKPT, Z1, Z2, Z3, WO, GO, OO, AO,
                  GACC, INFLIGHT, HAS_PRE, HAS_POST)
HARDWARE_SYMBOLS = (TP_BW, TP_LAT, DP_BW, DP_LAT, P2P_BW, P2P_LAT,
                    H2D_BW, D2H_BW)
ALL_SYMBOLS = CONFIG_SYMBOLS + HARDWARE_SYMBOLS


def _hardware_row(cluster: ClusterSpec, dp: int,
                  tp: int) -> tuple[float, ...]:
    """:data:`HARDWARE_SYMBOLS` values of one ``(dp, tp)`` stage grid."""
    tg, dg = cluster.tp_group(tp), cluster.dp_group(dp, tp)
    pcie = cluster.gpu.pcie_bandwidth
    return (tg.bus_bandwidth, tg.latency, dg.bus_bandwidth, dg.latency,
            cluster.p2p_bandwidth(dp * tp), cluster.p2p_latency(dp * tp),
            pcie, pcie)


def hardware_env(cluster: ClusterSpec, dp, tp) -> dict[str, np.ndarray]:
    """Hardware symbol values for (possibly batched) ``dp``/``tp``.

    Each distinct (dp, tp) pair is looked up in the cluster topology
    once; the values have the broadcast shape of ``dp`` and ``tp``
    (``np.float64`` scalars when both are scalars).
    """
    dp, tp = np.broadcast_arrays(np.asarray(dp, dtype=int),
                                 np.asarray(tp, dtype=int))
    pairs = list(zip(dp.ravel().tolist(), tp.ravel().tolist()))
    table = {pair: _hardware_row(cluster, *pair) for pair in set(pairs)}
    rows = np.array([table[pair] for pair in pairs], dtype=float)
    return {sym.name: rows[:, j].reshape(dp.shape)[()]
            for j, sym in enumerate(HARDWARE_SYMBOLS)}


def symbol_env(cluster: ClusterSpec, *, b, s, dp, tp, l, ckpt, zero,
               wo, go, oo, ao, gacc, inflight, has_pre, has_post,
               p2p_link: tuple[float, float] | None = None,
               ) -> dict[str, np.ndarray]:
    """Every symbol's value for a (batched) stage configuration.

    A scalar input stays an ``np.float64`` scalar and an array input
    becomes a float array of its own shape; array inputs must broadcast
    together (``ValueError`` naming them otherwise), but none is spread
    to their common shape. So a grid can put each symbol on its own
    axis, extent 1 elsewhere, and the compiled kernels compute every
    subexpression at the size of the axes it reads. ``zero`` (the ZeRO
    level) expands to the ``z1..z3`` flags, and the hardware symbols
    follow ``dp``/``tp``: scalars for a scalar ``dp`` and ``tp``, one
    lookup per distinct pair however large the other inputs are. Every
    kernel operation is a correctly rounded IEEE-754 one, so a value
    has the same bits whatever shapes it was broadcast from.
    ``p2p_link``, an inter-group ``(bandwidth, latency)`` from
    :meth:`~repro.hardware.HeterogeneousCluster.p2p_links`, caps
    ``p2p_bw`` and floors ``p2p_lat``.
    """
    values = {"b": b, "s": s, "dp": dp, "tp": tp, "l": l, "ckpt": ckpt,
              "zero": zero, "wo": wo, "go": go, "oo": oo, "ao": ao,
              "gacc": gacc, "inflight": inflight, "has_pre": has_pre,
              "has_post": has_post}
    try:
        np.broadcast(*values.values())
    except ValueError:
        arrays = ", ".join(f"{name} {np.shape(v)}"
                           for name, v in values.items() if np.ndim(v))
        raise ValueError(
            f"symbol_env: array inputs do not broadcast together: {arrays}"
        ) from None
    zero = np.asarray(values.pop("zero"))
    values.update(z1=zero >= 1, z2=zero >= 2, z3=zero >= 3,
                  **hardware_env(cluster, dp, tp))
    if p2p_link is not None:
        bandwidth, latency = p2p_link
        values["p2p_bw"] = np.minimum(values["p2p_bw"], bandwidth)
        values["p2p_lat"] = np.maximum(values["p2p_lat"], latency)
    arrays = {name: np.asarray(v, dtype=float) for name, v in values.items()}
    return {name: a[()] if a.ndim == 0 else a for name, a in arrays.items()}
