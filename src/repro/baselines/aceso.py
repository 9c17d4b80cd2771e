"""Aceso baseline (automatic system; Liu et al., EuroSys 2024).

Per the paper's characterization (Table 1 and Sections 3.2/6.2):

* search space: DP/TP/PP, microbatch, and *per-stage flexible*
  activation-checkpoint counts — larger than Megatron-LM's;
* **no sharded data parallelism** (ZeRO-2/3) and no offloading;
* search strategy: iterative bottleneck alleviation — find the slowest
  (or OOM-ing) stage and apply a local mitigation (move a layer away,
  adjust recomputation);
* predictions are **overlap-unaware** (communication is assumed to
  serialize with compute) and **imbalance-unaware** (all microbatches
  cost the stable time), which is why it sometimes selects plans that
  underperform Megatron-LM despite the larger space.

Being an automatic system, Aceso commits to its *predicted* best plan —
it does not grid-measure. We execute its choice (falling back through
its ranking on OOM, as its iterative loop would).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.analyzer import SymbolicPerformanceAnalyzer
from repro.core.objectives import pipeline_time_uniform
from repro.core.plan import PlanValidationError, StageConfig, TrainingPlan
from repro.core.tuner import traced_model
from repro.costmodel.interference import InterferenceModel
from repro.execution import ExecutionEngine
from repro.hardware import ClusterSpec
from repro.models.config import ModelConfig

from .common import BaselineResult, Capabilities, pipeline_grids

__all__ = ["AcesoTuner"]


class AcesoTuner:
    """Iterative bottleneck alleviation with a degraded predictor."""

    system = "aceso"
    capabilities = Capabilities(
        name="Aceso",
        zero23=False,
        auto_tuning="partial",
    )

    #: maximum alleviation iterations per pipeline configuration
    MAX_ITERATIONS = 32
    #: how many predicted-best plans to try executing (OOM fallback)
    EXECUTE_TOP_K = 5

    def __init__(self, model: ModelConfig, cluster: ClusterSpec, *,
                 seq_len: int, flash: bool = True):
        self.model = model
        self.cluster = cluster
        self.seq_len = seq_len
        self.flash = flash
        traced = traced_model(model, cluster.gpu, flash=flash)
        # overlap-unaware: with no slowdown factors, Algorithm 1's sweep
        # sums the four channels, so they serialize
        self.analyzer = SymbolicPerformanceAnalyzer(
            traced, cluster, interference=InterferenceModel()
        )
        self.engine = ExecutionEngine(cluster, system=self.system)

    # -- prediction tables -----------------------------------------------------

    def _stage_table(self, *, dp: int, tp: int, b: int, gacc: int,
                     inflight: int, has_pre: bool, has_post: bool,
                     max_layers: int):
        """t[l][c] and mem[l][c] for l in 1..max_layers, c in 0..l."""
        l_vals, c_vals = np.meshgrid(
            np.arange(1, max_layers + 1), np.arange(0, max_layers + 1),
            indexing="ij",
        )
        flat_l, flat_c = l_vals.reshape(-1), c_vals.reshape(-1)
        valid = flat_c <= flat_l
        flat_l, flat_c = flat_l[valid], flat_c[valid]
        pred = self.analyzer.predict(self.analyzer.build_env(
            b=b, s=self.seq_len, dp=dp, tp=tp, l=flat_l, ckpt=flat_c,
            zero=0, wo=0, go=0, oo=0, ao=0, gacc=gacc,
            inflight=inflight, has_pre=int(has_pre), has_post=int(has_post),
        ))
        t = np.full((max_layers + 1, max_layers + 1), np.inf)
        mem = np.full((max_layers + 1, max_layers + 1), np.inf)
        t[flat_l, flat_c] = pred.t_stable
        mem[flat_l, flat_c] = pred.peak_mem
        return t, mem

    def _min_feasible_ckpt(self, mem_table, layers: int) -> int | None:
        feasible = np.nonzero(
            mem_table[layers, :layers + 1] <= self.analyzer.memory_budget
        )[0]
        return int(feasible[0]) if feasible.size else None

    # -- bottleneck alleviation ---------------------------------------------------

    def _alleviate(self, tables, num_stages: int, gacc: int):
        """Hill-climb (layers, ckpt) per stage from the uniform split."""
        total = self.model.num_layers
        base = total // num_stages
        layers = [base + (1 if i < total % num_stages else 0)
                  for i in range(num_stages)]
        ckpt = []
        for i in range(num_stages):
            _, mem = tables[i]
            c = self._min_feasible_ckpt(mem, layers[i])
            if c is None:
                return None
            ckpt.append(c)

        def predicted(ls, cs):
            t = np.array([tables[i][0][ls[i], cs[i]]
                          for i in range(num_stages)])
            if not np.isfinite(t).all():
                return np.inf, t
            return pipeline_time_uniform(t, gacc), t

        best_obj, t = predicted(layers, ckpt)
        if not np.isfinite(best_obj):
            return None

        for _ in range(self.MAX_ITERATIONS):
            bottleneck = int(np.argmax(t))
            moves = []
            # (a) reduce recomputation on the bottleneck stage
            if ckpt[bottleneck] > 0:
                trial = list(ckpt)
                trial[bottleneck] -= 1
                _, mem = tables[bottleneck]
                if mem[layers[bottleneck], trial[bottleneck]] <= \
                        self.analyzer.memory_budget:
                    moves.append((layers, trial))
            # (b) move one layer from the bottleneck to a neighbour
            for nb in (bottleneck - 1, bottleneck + 1):
                if not 0 <= nb < num_stages or layers[bottleneck] <= 1:
                    continue
                trial_l = list(layers)
                trial_l[bottleneck] -= 1
                trial_l[nb] += 1
                trial_c = list(ckpt)
                trial_c[bottleneck] = min(trial_c[bottleneck],
                                          trial_l[bottleneck])
                _, mem_nb = tables[nb]
                c_nb = self._min_feasible_ckpt(mem_nb, trial_l[nb])
                if c_nb is None:
                    continue
                trial_c[nb] = max(trial_c[nb], c_nb)
                if trial_c[nb] > trial_l[nb]:
                    continue
                moves.append((trial_l, trial_c))

            improved = False
            for trial_l, trial_c in moves:
                obj, trial_t = predicted(trial_l, trial_c)
                if obj < best_obj - 1e-9:
                    layers, ckpt = list(trial_l), list(trial_c)
                    best_obj, t = obj, trial_t
                    improved = True
                    break
            if not improved:
                break
        return best_obj, layers, ckpt

    # -- main search ---------------------------------------------------------------

    def tune(self, global_batch: int) -> BaselineResult:
        start = time.perf_counter()
        ranked: list[tuple[float, TrainingPlan]] = []
        tried = 0

        for num_stages, dp, tp, gacc, microbatch in pipeline_grids(
                self.model, self.cluster, global_batch):
            tried += 1
            max_layers = self.model.num_layers - num_stages + 1
            tables = []
            feasible = True
            cache: dict[tuple, tuple] = {}
            for i in range(num_stages):
                inflight = min(gacc, num_stages - i)
                key = (inflight, i == 0, i == num_stages - 1)
                if key not in cache:
                    cache[key] = self._stage_table(
                        dp=dp, tp=tp, b=microbatch, gacc=gacc,
                        inflight=inflight, has_pre=key[1], has_post=key[2],
                        max_layers=max_layers,
                    )
                tables.append(cache[key])
            outcome = self._alleviate(tables, num_stages, gacc)
            if outcome is None:
                feasible = False
            if not feasible:
                continue
            objective, layers, ckpt = outcome
            try:
                plan = TrainingPlan(
                    global_batch=global_batch, gacc=gacc,
                    stages=tuple(
                        StageConfig(layers=layers[i], microbatch=microbatch,
                                    dp=dp, tp=tp, ckpt=ckpt[i])
                        for i in range(num_stages)
                    ),
                    source="aceso",
                )
                plan.validate(self.model, self.cluster)
            except PlanValidationError:
                continue
            ranked.append((objective, plan))

        # Commit to the predicted best; fall back through the ranking on
        # OOM (Aceso's iterative loop would retry with more recompute).
        ranked.sort(key=lambda item: item[0])
        best_plan: TrainingPlan | None = None
        best_result = None
        oom = 0
        for plan, result in self.engine.execute(
                (plan for _, plan in ranked[:self.EXECUTE_TOP_K]),
                self.model, seq_len=self.seq_len, flash=self.flash):
            if result is not None:
                best_plan, best_result = plan, result
                break
            oom += 1
        return BaselineResult(
            system=self.system,
            best_plan=best_plan,
            best_result=best_result,
            tuning_time_seconds=time.perf_counter() - start,
            candidates_tried=tried,
            candidates_oom=oom,
        )
