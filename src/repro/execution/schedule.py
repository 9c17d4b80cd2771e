"""Overlap-centric schedule template (paper Section 5.1, Figure 7).

Defines how a stage's per-phase component times combine into wall-clock
phase durations, depending on the *executing system's* overlap
capability:

* **Mist** runs the fine-grained overlapped schedule: data-parallel
  collectives, activation/weight/optimizer offload traffic and pipeline
  p2p all co-run with compute (subject to contention); tensor-parallel
  all-reduces stay on the critical path (the consuming kernel waits on
  them), as they do on real systems.
* **Megatron-style** systems overlap only the gradient-synchronization
  collectives with backward compute; everything else serializes.
* **Serial** overlaps nothing (the no-overlap ablation).

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
    #: DP collectives (grad sync, ZeRO gathers) overlap with compute
    overlap_dp: bool
    #: pipeline p2p transfers are asynchronous
    overlap_p2p: bool
    #: host-link offloading traffic overlaps with compute
    overlap_offload: bool
    #: constant relative compute overhead of the runtime
    impl_overhead: float = 0.0
    #: device memory the runtime itself pins beyond the common framework
    #: overhead (the paper observes Megatron-LM plans OOM under
    #: DeepSpeed, forcing it into sub-optimal configurations)
    extra_memory_bytes: float = 0.0


SCHEDULES: dict[str, OverlapCapability] = {
    # Mist: fully overlapped schedule, small orchestration overhead.
    "mist": OverlapCapability("mist", True, True, True,
                              impl_overhead=MIST_IMPL_OVERHEAD),
    # Megatron-LM: the hand-optimized reference runtime.
    "megatron": OverlapCapability("megatron", True, True, False),
    # DeepSpeed: serial offload traffic, a less tuned pipeline/kernel
    # path, and a memory-hungrier runtime (the paper measures it
    # consistently below Megatron-LM and observes its OOMs).
    "deepspeed": OverlapCapability("deepspeed", True, True, False,
                                   impl_overhead=0.03,
                                   extra_memory_bytes=1.6 * 1024**3),
    # Aceso: research prototype runtime on Megatron-like foundations.
    "aceso": OverlapCapability("aceso", True, True, False,
                               impl_overhead=0.012,
                               extra_memory_bytes=0.4 * 1024**3),
    # No-overlap ablation.
    "serial": OverlapCapability("serial", False, False, False),
}


def phase_wall_times(rows, capability: OverlapCapability,
                     contention: InterferenceModel) -> np.ndarray:
    """Wall-clock durations of phases under ``capability``.

    ``rows`` is ``(n, 6)`` of busy seconds per resource, columns in
    :data:`PHASE_RESOURCES` order; all ``n`` phases are integrated in
    one :func:`corun_total_time` call. TP all-reduces always serialize
    with compute (dependent kernels); overlappable components co-run
    through the contention integrator; non-overlappable ones are added
    serially.
    """
    comp, tp, dp, p2p, d2h, h2d = np.asarray(rows, dtype=float).T
    compute = comp * (1.0 + capability.impl_overhead) + tp
    g2g = np.zeros_like(comp)
    serial = np.zeros_like(comp)
    if capability.overlap_dp:
        g2g += dp
    else:
        serial += dp
    if capability.overlap_p2p:
        g2g += p2p
    else:
        serial += p2p
    if capability.overlap_offload:
        c2g, g2c = h2d, d2h
    else:
        serial += h2d + d2h
        c2g = g2c = np.zeros_like(comp)
    overlapped = corun_total_time(np.stack([compute, g2g, c2g, g2c], axis=-1),
                                  contention)
    return overlapped + serial
