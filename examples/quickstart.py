#!/usr/bin/env python3
"""Quickstart: auto-tune distributed training through the solver API.

Declares one tuning job — GPT-3 2.7B on a simulated node of 4 NVIDIA
L4 GPUs — solves it with Mist (the (S, G) search fanned across cores),
and compares against the best grid-searched Megatron-LM configuration
through the same registry.

Run:  python examples/quickstart.py
"""

from repro.api import TuningJob, solve
from repro.execution import render_timeline

JOB = TuningJob(
    model="gpt3-2.7b",
    gpu="L4",
    num_gpus=4,
    global_batch=64,
    seq_len=2048,
    scale="quick",
)


def main() -> None:
    print(f"job: {JOB.to_json()}\n")

    # 1. Auto-tune with Mist (memory + parallelism co-optimization).
    report = solve(JOB, solver="mist")
    print(f"Mist tuned {report.configurations_evaluated} configurations "
          f"in {report.tuning_time_seconds:.1f}s")
    print(report.plan.describe(), "\n")

    # 2. The report carries both prediction and simulated measurement —
    #    and serializes: SolveReport.from_json(report.to_json()) is the
    #    same report, so plans can be cached or shipped between runs.
    print(f"predicted: {report.predicted['throughput']:.2f} samples/s, "
          f"measured: {report.throughput:.2f} samples/s")
    print(render_timeline(report.result.pipeline, width=80))
    print()

    # 3. Compare with the best grid-searched Megatron-LM configuration
    #    via the same solver registry.
    baseline = solve(JOB, solver="megatron")
    print(f"Megatron-LM best: {baseline.throughput:.2f} samples/s")
    print(f"Mist:             {report.throughput:.2f} samples/s "
          f"({report.throughput / baseline.throughput:.2f}x)")


if __name__ == "__main__":
    main()
