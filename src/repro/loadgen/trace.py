"""Synthetic campaign-cell traces: seeded, declarative, replayable.

A :class:`TraceSpec` names a workload family and how to stream it: how
many requests, over how many *unique* jobs (cells), at what Poisson
arrival rate. :func:`synthesize_trace` expands it deterministically —
same spec, same seed, same trace — so a load run is reproducible and a
committed baseline stays comparable.

Cells are distinguished through ``TuningJob.options["trace_cell"]``,
which feeds the job fingerprint: distinct cells are distinct plan-cache
keys, while repeats of a cell are bit-identical jobs that exercise the
daemon's coalescing and cache paths exactly like a real re-submitted
campaign cell.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.api import TuningJob

__all__ = ["TRACE_SCALES", "TraceRequest", "TraceSpec", "synthesize_trace"]


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one load trace."""

    name: str
    #: total requests in the trace
    requests: int
    #: distinct jobs (cells) the requests are drawn from
    unique_jobs: int
    solver: str = "mist"
    model: str = "gpt3-1.3b"
    gpu: str = "L4"
    num_gpus: int = 2
    global_batch: int = 16
    seq_len: int = 2048
    scale: str = "smoke"
    #: mean open-loop arrival rate (requests/second, Poisson process)
    arrival_rate: float = 8.0
    seed: int = 1337
    #: when set, cells use the ``synthetic`` solver's busy-spin of this
    #: many seconds (CPU-bound: contrasts thread vs process tiers)
    synthetic_seconds: "float | None" = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 1 <= self.unique_jobs <= self.requests:
            raise ValueError("need 1 <= unique_jobs <= requests")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")

    def job_for_cell(self, cell: int) -> TuningJob:
        """The (deterministic) job behind trace cell ``cell``."""
        options: dict = {"trace_cell": int(cell)}
        if self.synthetic_seconds is not None:
            options["synthetic"] = {"seconds": float(self.synthetic_seconds)}
        return TuningJob(
            model=self.model, gpu=self.gpu, num_gpus=self.num_gpus,
            global_batch=self.global_batch, seq_len=self.seq_len,
            scale=self.scale, interference="none", options=options,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TraceRequest:
    """One scheduled request of a synthesized trace."""

    index: int
    cell: int
    #: open-loop arrival offset from trace start, in seconds
    offset: float
    solver: str
    job: TuningJob = field(compare=False)


#: named presets for ``repro load --scale <name>``
TRACE_SCALES: dict = {
    # mist smoke cells: real searches, cheap enough for CI; repeats
    # exercise the coalescing + plan-cache fast paths
    "smoke": TraceSpec(name="smoke", requests=24, unique_jobs=8),
    "quick": TraceSpec(name="quick", requests=96, unique_jobs=24,
                       model="gpt3-2.7b", num_gpus=4, global_batch=32,
                       arrival_rate=12.0),
    # every request a distinct CPU-bound busy-spin: isolates worker-tier
    # scaling from search/cache effects (the ≥2x process-vs-thread
    # throughput demonstration runs on this trace)
    "synthetic": TraceSpec(name="synthetic", requests=24, unique_jobs=24,
                           solver="synthetic", synthetic_seconds=0.25,
                           arrival_rate=16.0),
    "soak": TraceSpec(name="soak", requests=400, unique_jobs=40,
                      arrival_rate=40.0),
}


def synthesize_trace(spec: TraceSpec) -> list:
    """Expand a spec into its deterministic request stream.

    The first ``unique_jobs`` requests visit every cell once in order
    (the cold sweep); the remainder revisit cells uniformly at random.
    Arrival offsets are exponential interarrivals at ``arrival_rate``
    — both draws come from one ``random.Random(spec.seed)``, so the
    trace is a pure function of the spec.
    """
    rng = random.Random(spec.seed)
    cells = list(range(spec.unique_jobs))
    cells += [rng.randrange(spec.unique_jobs)
              for _ in range(spec.requests - spec.unique_jobs)]
    offsets = []
    now = 0.0
    for _ in cells:
        now += rng.expovariate(spec.arrival_rate)
        offsets.append(now)
    return [
        TraceRequest(index=index, cell=cell, offset=offsets[index],
                     solver=spec.solver, job=spec.job_for_cell(cell))
        for index, cell in enumerate(cells)
    ]
