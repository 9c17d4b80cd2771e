"""1F1B pipeline-parallel schedule simulation.

Simulates one training iteration of the one-forward-one-backward
(PipeDream-flush / Megatron) schedule at (stage, microbatch, phase)
granularity. Phase durations are supplied by the engine (they already
include overlap resolution within the stage); this module enforces the
*cross-stage* dependencies exactly, which is where pipeline bubbles and
the first/last-microbatch imbalance emerge.

Dependencies:
* ``F(i, k)`` needs ``F(i-1, k)`` plus the boundary p2p transfer;
* ``B(i, k)`` needs ``B(i+1, k)`` plus the boundary p2p transfer;
* within a stage, phases execute in the canonical 1F1B order.

Which phase executes when depends only on ``(S, G)``, so that order is
derived once per pair and cached; each simulation is then one flat
recurrence over it, and the per-phase records are built only when a
caller reads :attr:`PipelineResult.timeline`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["PhaseRecord", "PipelineResult", "one_f_one_b_order",
           "simulate_pipeline"]


@dataclass(frozen=True)
class PhaseRecord:
    """One executed phase in the simulated timeline."""

    stage: int
    kind: str  # "F" or "B"
    microbatch: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class _Sweep:
    """The fixed execution order of one ``(S, G)`` 1F1B iteration.

    Phase ``p`` (in the order the simulation executes them) runs on
    ``stage[p]``, is ``kind[p]`` for microbatch ``microbatch[p]``, takes
    its duration from ``source[p]`` of the forward rows followed by the
    backward rows, flattened, and waits for phase ``dep[p]`` (``-1``:
    no cross-stage dependency).
    """

    stage: tuple[int, ...]
    kind: tuple[str, ...]
    microbatch: tuple[int, ...]
    source: tuple[int, ...]
    dep: tuple[int, ...]


@lru_cache(maxsize=128)
def _sweep(num_stages: int, num_microbatches: int) -> _Sweep:
    """Execution order of every phase: repeated sweeps over the stages,
    each stage running its :func:`one_f_one_b_order` until a phase's
    cross-stage dependency has not run yet. Which phases have run never
    depends on durations, so the order is a function of ``(S, G)``."""
    orders = [one_f_one_b_order(num_stages, num_microbatches, i)
              for i in range(num_stages)]
    index: dict[tuple[str, int, int], int] = {}
    position = [0] * num_stages  # next op index per stage
    phases: list[tuple[int, str, int, int, int]] = []
    bwd_base = num_stages * num_microbatches

    remaining = sum(len(order) for order in orders)
    while remaining:
        progressed = False
        for i in range(num_stages):
            while position[i] < len(orders[i]):
                kind, k = orders[i][position[i]]
                if kind == "F":
                    dep = ("F", i - 1, k) if i > 0 else None
                    source = i * num_microbatches + k
                else:
                    dep = ("B", i + 1, k) if i < num_stages - 1 else None
                    source = bwd_base + i * num_microbatches + k
                if dep is not None and dep not in index:
                    break  # dependency not ready; revisit next sweep
                index[(kind, i, k)] = len(phases)
                phases.append((i, kind, k, source,
                               -1 if dep is None else index[dep]))
                position[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("pipeline schedule deadlocked (bug)")
    columns = tuple(zip(*phases)) if phases else ((),) * 5
    return _Sweep(*columns)


@dataclass(eq=False)
class PipelineResult:
    """Outcome of simulating one iteration.

    Holds each phase's start and end time in execution order, as
    packed doubles (a retained result stays small); the
    :attr:`timeline` records are built from them on access.
    """

    total_time: float
    #: per-stage busy time (for bubble/idle analysis)
    stage_busy: list[float]
    num_microbatches: int
    starts: array = field(repr=False)
    ends: array = field(repr=False)

    @property
    def num_stages(self) -> int:
        return len(self.stage_busy)

    @property
    def num_phases(self) -> int:
        return len(self.starts)

    @property
    def timeline(self) -> list[PhaseRecord]:
        """Every executed phase, ordered by ``(start, stage)`` (phases
        that tie keep their execution order). Built on each access."""
        sweep = _sweep(self.num_stages, self.num_microbatches)
        starts, ends = self.starts, self.ends
        order = sorted(range(len(starts)),
                       key=lambda p: (starts[p], sweep.stage[p]))
        return [PhaseRecord(stage=sweep.stage[p], kind=sweep.kind[p],
                            microbatch=sweep.microbatch[p],
                            start=starts[p], end=ends[p])
                for p in order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PipelineResult):
            return NotImplemented
        # field by field, as if the timeline were a stored field
        return ((self.total_time, self.timeline, self.stage_busy)
                == (other.total_time, other.timeline, other.stage_busy))

    def bubble_fraction(self, stage: int) -> float:
        """Idle fraction of ``stage`` during the iteration."""
        if self.total_time <= 0:
            return 0.0
        return 1.0 - self.stage_busy[stage] / self.total_time


def one_f_one_b_order(num_stages: int, num_microbatches: int,
                      stage: int) -> list[tuple[str, int]]:
    """Phase order of ``stage`` under 1F1B.

    ``stage`` runs ``min(S - stage, G)`` warm-up forwards, then
    alternates 1F1B, then drains the remaining backwards.
    """
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} outside [0, {num_stages})")
    warmup = min(num_stages - stage, num_microbatches)
    order: list[tuple[str, int]] = [("F", k) for k in range(warmup)]
    next_fwd = warmup
    next_bwd = 0
    while next_bwd < num_microbatches:
        order.append(("B", next_bwd))
        next_bwd += 1
        if next_fwd < num_microbatches:
            order.append(("F", next_fwd))
            next_fwd += 1
    return order


def simulate_pipeline(fwd_times, bwd_times, p2p_delay: float = 0.0,
                      ) -> PipelineResult:
    """Simulate one 1F1B iteration.

    ``fwd_times[i][k]`` / ``bwd_times[i][k]`` are phase durations for
    stage ``i``, microbatch ``k``; ``p2p_delay`` is the exposed latency
    of a boundary transfer (the bandwidth term is already inside the
    phase components).
    """
    num_stages = len(fwd_times)
    if num_stages == 0:
        raise ValueError("no stages")
    num_microbatches = len(fwd_times[0])
    if len(bwd_times) != num_stages or any(
            len(row) != num_microbatches
            for row in list(fwd_times) + list(bwd_times)):
        raise ValueError("ragged phase-duration arrays")

    sweep = _sweep(num_stages, num_microbatches)
    flat = [t for row in fwd_times for t in row]
    flat += [t for row in bwd_times for t in row]
    starts = array("d")
    ends = array("d")
    stage_clock = [0.0] * num_stages
    stage_busy = [0.0] * num_stages
    for i, duration, dep in zip(sweep.stage,
                                [flat[j] for j in sweep.source], sweep.dep):
        ready = stage_clock[i]
        if dep >= 0:
            arrival = ends[dep] + p2p_delay
            if arrival > ready:  # max(ready, arrival), ties keep ready
                ready = arrival
        starts.append(ready)
        end = ready + duration
        ends.append(end)
        stage_clock[i] = end
        stage_busy[i] += duration

    return PipelineResult(total_time=max(stage_clock), stage_busy=stage_busy,
                          num_microbatches=num_microbatches,
                          starts=starts, ends=ends)
