"""Overlap-centric schedule template (paper Section 5.1, Figure 7).

Defines how a stage's per-phase component times combine into wall-clock
phase durations, depending on the *executing system's* overlap
capability:

* **Mist** runs the fine-grained overlapped schedule: data-parallel
  collectives, activation/weight/optimizer offload traffic and pipeline
  p2p all co-run with compute (subject to contention); tensor-parallel
  all-reduces stay on the critical path (the consuming kernel waits on
  them), as they do on real systems.
* **Megatron-style** systems overlap data-parallel collectives and
  pipeline p2p with compute (Megatron-LM's overlapped gradient sync and
  asynchronous p2p) but serialize offload traffic.

Mist's extra machinery costs a small compute overhead
(``MIST_IMPL_OVERHEAD``): with identical search spaces Mist is slightly
*slower* than Megatron-LM, exactly as the paper's Figure 13 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.interference import InterferenceModel

from .events import corun_total_time

__all__ = ["OverlapCapability", "SCHEDULES", "PHASE_RESOURCES",
           "phase_wall_times", "MIST_IMPL_OVERHEAD"]

#: relative compute overhead of Mist's orchestrated execution engine
MIST_IMPL_OVERHEAD = 0.015


#: resource order of a phase row (:func:`phase_wall_times` columns)
PHASE_RESOURCES = ("comp", "tp", "dp", "p2p", "d2h", "h2d")


@dataclass(frozen=True)
class OverlapCapability:
    """What the executing system can hide behind compute."""

    name: str
    #: host-link offloading traffic overlaps with compute
    overlap_offload: bool = False
    #: constant relative compute overhead of the runtime
    impl_overhead: float = 0.0
    #: device memory the runtime itself pins beyond the common framework
    #: overhead (the paper observes Megatron-LM plans OOM under
    #: DeepSpeed, forcing it into sub-optimal configurations)
    extra_memory_bytes: float = 0.0


SCHEDULES: dict[str, OverlapCapability] = {
    # Mist: fully overlapped schedule, small orchestration overhead.
    "mist": OverlapCapability("mist", overlap_offload=True,
                              impl_overhead=MIST_IMPL_OVERHEAD),
    # Megatron-LM: the hand-optimized reference runtime.
    "megatron": OverlapCapability("megatron"),
    # DeepSpeed: serial offload traffic, a less tuned pipeline/kernel
    # path, and a memory-hungrier runtime (the paper measures it
    # consistently below Megatron-LM and observes its OOMs).
    "deepspeed": OverlapCapability("deepspeed", impl_overhead=0.03,
                                   extra_memory_bytes=1.6 * 1024**3),
    # Aceso: research prototype runtime on Megatron-like foundations.
    "aceso": OverlapCapability("aceso", impl_overhead=0.012,
                               extra_memory_bytes=0.4 * 1024**3),
}


def phase_wall_times(rows, capability: OverlapCapability,
                     contention: InterferenceModel) -> np.ndarray:
    """Wall-clock durations of phases under ``capability``.

    ``rows`` is ``(n, 6)`` of busy seconds per resource, columns in
    :data:`PHASE_RESOURCES` order; all ``n`` phases are integrated in
    one :func:`corun_total_time` call. TP all-reduces always serialize
    with compute (dependent kernels); DP collectives and p2p share the
    ``g2g`` channel; offload traffic co-runs on the host links when the
    system overlaps it and is added serially otherwise.
    """
    comp, tp, dp, p2p, d2h, h2d = np.asarray(rows, dtype=float).T
    compute = comp * (1.0 + capability.impl_overhead) + tp
    if capability.overlap_offload:
        c2g, g2c, serial = h2d, d2h, 0.0
    else:
        c2g = g2c = np.zeros_like(comp)
        serial = h2d + d2h
    overlapped = corun_total_time(
        np.stack([compute, dp + p2p, c2g, g2c], axis=-1), contention)
    return overlapped + serial
