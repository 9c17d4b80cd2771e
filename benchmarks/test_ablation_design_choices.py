"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these benches probe the load-bearing pieces of
Mist's design on this reproduction:

1. **interference-model calibration** — prediction error with seed
   factors vs factors fitted to the engine's contention ground truth;
2. **inter-stage solvers** — the tuner's label-setting DP, the paper's
   MILP (HiGHS) and exhaustive enumeration reach the same objective;
   the table reports the time of each.
"""

import time

import numpy as np

from repro.core import SymbolicPerformanceAnalyzer
from repro.core.inter_stage import solve, solve_exact, solve_milp
from repro.core.intra_stage import ParetoPoint
from repro.core.plan import StageConfig, uniform_plan
from repro.costmodel import InterferenceModel
from repro.evaluation import calibrated_interference, format_table
from repro.execution import ExecutionEngine
from repro.hardware import make_cluster
from repro.models import get_model
from repro.tracing import trace

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 2)
SEQ_LEN = 2048


def _prediction_error(interference) -> float:
    analyzer = SymbolicPerformanceAnalyzer(
        trace(MODEL, CLUSTER.gpu, flash=True), CLUSTER,
        interference=interference,
    )
    engine = ExecutionEngine(CLUSTER, system="mist")
    errors = []
    for gacc, zero, ckpt_all, oo in [
        (8, 1, True, 0.0), (8, 2, False, 0.5), (4, 3, False, 0.0),
        (16, 0, True, 0.0), (8, 1, False, 0.5),
    ]:
        plan = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=gacc,
                            num_stages=2, dp=1, tp=1, zero=zero,
                            ckpt_all=ckpt_all, oo=oo)
        try:
            measured = engine.run(plan, MODEL, seq_len=SEQ_LEN)
        except Exception:
            continue
        predicted = analyzer.predict_plan(plan, seq_len=SEQ_LEN)
        errors.append(abs(predicted.iteration_time - measured.iteration_time)
                      / measured.iteration_time)
    return float(np.mean(errors))


def test_ablation_calibration(report, benchmark):
    def measure():
        seed = InterferenceModel.default(pcie_only=True)
        fitted = calibrated_interference(True)
        return _prediction_error(seed), _prediction_error(fitted)

    seed_err, fitted_err = benchmark.pedantic(measure, rounds=1,
                                              iterations=1)
    report("Ablation — interference calibration\n" + format_table(
        ["factors", "mean runtime prediction error"],
        [["seed (uncalibrated)", f"{seed_err * 100:.2f}%"],
         ["fitted to engine", f"{fitted_err * 100:.2f}%"]],
    ))
    assert fitted_err <= seed_err + 0.01
    assert fitted_err < 0.08


def _random_menus(rng, num_stages, layer_options, points_per):
    menus = []
    for _ in range(num_stages):
        stage = {}
        for l in layer_options:
            stage[l] = [
                ParetoPoint(
                    t=float(rng.uniform(0.5, 2.0) * l),
                    d=float(rng.uniform(0.0, 2.0)),
                    peak_mem=1.0,
                    config=StageConfig(layers=l, microbatch=1, dp=1, tp=1),
                )
                for _ in range(points_per)
            ]
        menus.append(stage)
    return menus


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def test_ablation_milp_vs_exact(report, benchmark):
    solvers = {
        "DP": lambda menus, total: solve(menus, total, 8),
        "HiGHS": lambda menus, total: solve_milp(menus, total, 8),
        "enum": lambda menus, total: solve_exact(menus, total, 8),
    }

    def measure():
        rng = np.random.default_rng(11)
        rows = []
        for num_stages, options, points in [(2, 3, 2), (3, 3, 2), (4, 3, 2)]:
            layer_options = list(range(4, 4 + options))
            menus = _random_menus(rng, num_stages, layer_options, points)
            total = num_stages * 5
            rows.append((num_stages, {
                name: _timed(fn, menus, total)
                for name, fn in solvers.items()
            }))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = []
    for num_stages, results in rows:
        exact = results["enum"][0]
        for name, (solution, _) in results.items():
            assert (solution is None) == (exact is None), name
            if exact is not None:
                assert abs(solution.objective - exact.objective) < 1e-6 * max(
                    1.0, exact.objective
                ), name
        table.append([num_stages,
                      f"{exact.objective:.3f}" if exact else "-"]
                     + [f"{seconds * 1e3:.1f} ms"
                        for _, seconds in results.values()])
    report("Ablation — inter-stage solvers: label-setting DP vs HiGHS "
           "MILP vs exhaustive enumeration\n"
           + format_table(
               ["stages", "objective"]
               + [f"{name} time" for name in solvers], table,
           ))

