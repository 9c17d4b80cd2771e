"""Intra-stage tuning: batched enumeration and Pareto-frontier sampling.

For a stage shape — device count, position (has_pre/has_post), in-flight
microbatch count and gradient-accumulation steps — the tuner enumerates
every combination of

* ``(dp, tp, b)`` grids (with ``b = B / (G * dp)`` forced integral),
* ZeRO level, checkpoint count, and offloading ratios from the
  :class:`~repro.core.spaces.SearchSpace` grids,
* candidate per-stage layer counts,

materializes the whole menu as **columnar arrays** (one array per
symbol) and evaluates memory feasibility, the dominance pre-reduction
and the runtime objective in a handful of vectorized analyzer calls
(Section 5.2's "batched value substitutions"), filters by the memory
budget (Eq. 4's constraint), and extracts the Pareto frontier over
``(t_stable, d_delta)`` per layer count. Because querying single points
is nearly free, the enumeration is brute force — "which would not miss
any optimization possibilities" (Section 5.3).

Python loops here run over option blocks, layer-count segments and
already-reduced frontiers, never over menu rows. The row-at-a-time
reference the differential tests compare against is
:meth:`repro.symbolic.CompiledExpr.interpret`, swapped in by the tests.

The frontier — rather than a single winner — is the hand-off to the
inter-stage solve: different ``(t, d)`` trade-offs win depending on how
many microbatches amortize the deltas and where the stage sits in the
pipeline (the paper's Pareto-frontier sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyzer import SymbolicPerformanceAnalyzer
from .plan import StageConfig
from .spaces import SearchSpace

__all__ = ["ParetoPoint", "StageShape", "IntraStageTuner",
           "stage_parallelism_options"]


def stage_parallelism_options(analyzer: SymbolicPerformanceAnalyzer,
                              stage_gpus: int, gacc: int,
                              global_batch: int) -> list[tuple[int, int, int]]:
    """Feasible (dp, tp, b) triples for one stage slot.

    Single source of truth for option enumeration: the intra-stage
    tuner enumerates from it, and the pruned search's feasibility flags
    and lower-bound floors must see the *same* options or the
    bit-identity contract silently breaks.
    """
    per_wave = global_batch // gacc
    if per_wave * gacc != global_batch:
        return []
    options = []
    for dp, tp in analyzer.cluster.stage_parallelism_options(stage_gpus):
        if analyzer.traced.config.hidden_size % tp != 0:
            continue
        if per_wave % dp != 0:
            continue
        b = per_wave // dp
        if b >= 1:
            options.append((dp, tp, b))
    return options


def _frontier_candidates(l_g: np.ndarray, t_v: np.ndarray,
                         d_v: np.ndarray) -> np.ndarray:
    """Mask of rows that can still reach the Pareto frontier.

    Vectorized dominance pre-reduction for the prefiltered path: within
    each layer-count group, a row ordered by ``(t, d)`` survives only if
    its ``d`` is *strictly* below every earlier row's ``d``. Any row
    :meth:`IntraStageTuner._pareto` would keep satisfies that (a kept
    row's ``d`` undercuts all earlier entries by more than the
    frontier epsilon), and rows `_pareto` skips never update its
    running state — so dropping them here provably cannot change the
    extracted frontier, while skipping the per-row
    :class:`~repro.core.plan.StageConfig` construction for the
    overwhelmingly dominated bulk.
    """
    keep = np.zeros(l_g.size, dtype=bool)
    order = np.lexsort((d_v, t_v, l_g))  # stable: by l, then t, then d
    l_s = l_g[order]
    d_s = d_v[order]
    starts = np.flatnonzero(np.r_[True, l_s[1:] != l_s[:-1]])
    ends = np.r_[starts[1:], l_s.size]
    for s, e in zip(starts, ends):
        seg = d_s[s:e]
        prev_min = np.r_[np.inf, np.minimum.accumulate(seg)[:-1]]
        keep[order[s:e][seg < prev_min]] = True
    return keep


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated intra-stage configuration."""

    t: float
    d: float
    peak_mem: float
    config: StageConfig

    def objective(self, alpha: float, gacc: int) -> float:
        """Dual objective of Eq. (4)."""
        return alpha * gacc * self.t + (1.0 - alpha) * self.d


@dataclass(frozen=True)
class StageShape:
    """Everything that identifies a stage for intra-stage tuning."""

    stage_gpus: int
    gacc: int
    inflight: int
    has_pre: bool
    has_post: bool
    #: device group hosting the stage ("" on homogeneous clusters);
    #: configurations produced for this shape carry the tag, and the
    #: tuner evaluating the shape must use that group's analyzer
    group: str = ""
    #: pipeline p2p clamps for stages adjacent to a device-group
    #: boundary: bandwidth capped at (latency floored to) the
    #: inter-group link, matching what the execution engine charges
    p2p_bandwidth_cap: float | None = None
    p2p_latency_floor: float | None = None


class IntraStageTuner:
    """Batched columnar enumeration over one stage's search space."""

    def __init__(self, analyzer: SymbolicPerformanceAnalyzer,
                 space: SearchSpace, *, global_batch: int, seq_len: int,
                 max_pareto_points: int = 8):
        self.analyzer = analyzer
        self.space = space
        self.global_batch = global_batch
        self.seq_len = seq_len
        self.max_pareto_points = max_pareto_points
        #: configurations enumerated so far (tuning-time accounting);
        #: includes rows the memory pre-filter later rejected, so the
        #: count is identical with and without pre-filtering
        self.evaluated = 0
        #: configurations the symbolic memory pre-filter rejected before
        #: any runtime evaluation (always 0 when tuning without it)
        self.prefiltered = 0

    # -- grids ---------------------------------------------------------------

    def _ckpt_grid(self, layer_counts: list[int]) -> np.ndarray:
        max_layers = max(layer_counts)
        if self.space.ckpt_policy == "full":
            # ckpt must equal the stage's layer count; candidates are the
            # layer counts themselves (filtered to ckpt == l later).
            return np.unique(np.asarray(layer_counts, dtype=int))
        if not self.space.tune_ckpt:
            return np.unique(np.asarray([0] + list(layer_counts), dtype=int))
        points = min(self.space.ckpt_grid_points, max_layers + 1)
        return np.unique(np.round(np.linspace(0, max_layers, points))
                         .astype(int))

    def _zero_grid(self) -> np.ndarray:
        return np.asarray(self.space.zero_levels, dtype=int)

    def _parallelism_options(self, shape: StageShape) -> list[tuple[int, int, int]]:
        """Feasible (dp, tp, b) triples for this stage."""
        return stage_parallelism_options(
            self.analyzer, shape.stage_gpus, shape.gacc, self.global_batch)

    # -- menu materialization -----------------------------------------------

    def _menu_columns(self, shape: StageShape,
                      layer_counts: list[int]) -> dict[str, np.ndarray] | None:
        """The stage's full config menu as columnar arrays.

        One array per symbol, rows ordered by (dp, tp, b) option first
        and meshgrid enumeration within each option second — the same
        order the per-option batches used to accumulate in, which the
        stable frontier extraction's tie-breaking depends on.

        Hardware symbol values are constant within an option block, so
        they are resolved once per option (the topology lookup is a
        per-pair table walk, not an elementwise kernel) and broadcast
        into full columns.
        """
        zero_levels = self._zero_grid()
        ckpt_vals = self._ckpt_grid(layer_counts)
        l_vals = np.asarray(sorted(layer_counts), dtype=int)
        hw_keys: list[str] | None = None
        blocks: list[dict[str, np.ndarray]] = []

        for dp, tp, b in self._parallelism_options(shape):
            grid = np.meshgrid(
                l_vals, ckpt_vals, zero_levels,
                np.asarray(self.space.wo_grid), np.asarray(self.space.go_grid),
                np.asarray(self.space.oo_grid), np.asarray(self.space.ao_grid),
                indexing="ij",
            )
            l_g, ckpt_g, zero_g, wo_g, go_g, oo_g, ao_g = [
                g.reshape(-1) for g in grid
            ]
            if self.space.ckpt_policy == "full":
                valid = ckpt_g == l_g
            elif not self.space.tune_ckpt:
                valid = (ckpt_g == 0) | (ckpt_g == l_g)
            else:
                valid = ckpt_g <= l_g
            l_g, ckpt_g, zero_g = l_g[valid], ckpt_g[valid], zero_g[valid]
            wo_g, go_g, oo_g, ao_g = (wo_g[valid], go_g[valid], oo_g[valid],
                                      ao_g[valid])
            n = l_g.size
            if n == 0:
                continue

            # hardware values are constant for this (dp, tp) choice
            hw = {k: float(v.reshape(-1)[0])
                  for k, v in self.analyzer.hardware_env(dp, tp).items()}
            if shape.p2p_bandwidth_cap is not None:
                hw["p2p_bw"] = min(hw["p2p_bw"], shape.p2p_bandwidth_cap)
            if shape.p2p_latency_floor is not None:
                hw["p2p_lat"] = max(hw["p2p_lat"], shape.p2p_latency_floor)
            if hw_keys is None:
                hw_keys = sorted(hw)

            block = {
                "b": np.full(n, b), "tp": np.full(n, tp), "dp": np.full(n, dp),
                "l": l_g, "ckpt": ckpt_g, "zero": zero_g,
                "wo": wo_g, "go": go_g, "oo": oo_g, "ao": ao_g,
            }
            block.update({k: np.full(n, hw[k]) for k in hw_keys})
            blocks.append(block)

        if not blocks:
            return None
        return {name: np.concatenate([blk[name] for blk in blocks])
                for name in blocks[0]}

    # -- tuning -----------------------------------------------------------------

    def tune(self, shape: StageShape, layer_counts: list[int], *,
             prefilter: bool = False) -> dict[int, list[ParetoPoint]]:
        """Pareto frontiers per layer count: ``{l: [ParetoPoint, ...]}``.

        Returns an empty list for layer counts with no feasible (within
        memory budget) configuration.

        ``prefilter=True`` enables the symbolic memory-feasibility
        pre-filter: peak memory is evaluated first through the
        analyzer's memory-only projection and candidates over budget
        are dropped *before* the (more expensive) runtime evaluation.
        The surviving menus are bit-identical either way — the filter
        applies the exact constraint the post-evaluation check applies,
        just earlier.
        """
        self._gacc = shape.gacc
        menus: dict[int, list[tuple[float, float, float, StageConfig]]] = {
            l: [] for l in layer_counts
        }
        cols = self._menu_columns(shape, layer_counts)
        if cols is None:
            return {l: [] for l in layer_counts}
        n = cols["l"].size
        self.evaluated += n

        analyzer = self.analyzer
        env = analyzer.build_env(
            b=cols["b"], s=np.full(n, self.seq_len),
            tp=cols["tp"], dp=cols["dp"],
            l=cols["l"], ckpt=cols["ckpt"],
            z1=(cols["zero"] >= 1).astype(float),
            z2=(cols["zero"] >= 2).astype(float),
            z3=(cols["zero"] >= 3).astype(float),
            wo=cols["wo"], go=cols["go"], oo=cols["oo"], ao=cols["ao"],
            gacc=np.full(n, shape.gacc),
            inflight=np.full(n, shape.inflight),
            has_pre=np.full(n, int(shape.has_pre)),
            has_post=np.full(n, int(shape.has_post)),
            **{k: cols[k] for k in cols
               if k not in ("b", "tp", "dp", "l", "ckpt", "zero",
                            "wo", "go", "oo", "ao")},
        )
        if prefilter:
            fits_mem = (analyzer.predict_memory(env)
                        <= analyzer.memory_budget)
            self.prefiltered += int(n - fits_mem.sum())
            if not fits_mem.any():
                return {l: [] for l in layer_counts}
            if not fits_mem.all():
                env = {name: (value[fits_mem]
                              if getattr(value, "ndim", 0) >= 1
                              else value)
                       for name, value in env.items()}
                cols = {name: value[fits_mem]
                        for name, value in cols.items()}
        pred = analyzer.predict(env)

        fits = pred.peak_mem <= analyzer.memory_budget
        if fits.any():
            if prefilter:
                # every row already fits; cheaply discard dominated rows
                # before the per-row StageConfig construction
                fits &= _frontier_candidates(
                    cols["l"], np.asarray(pred.t_stable, dtype=float),
                    np.asarray(pred.delta, dtype=float))
            for i in np.nonzero(fits)[0]:
                cfg = StageConfig(
                    layers=int(cols["l"][i]), microbatch=int(cols["b"][i]),
                    dp=int(cols["dp"][i]), tp=int(cols["tp"][i]),
                    zero=int(cols["zero"][i]), ckpt=int(cols["ckpt"][i]),
                    wo=float(cols["wo"][i]), go=float(cols["go"][i]),
                    oo=float(cols["oo"][i]), ao=float(cols["ao"][i]),
                    device_group=shape.group,
                )
                menus[int(cols["l"][i])].append(
                    (float(pred.t_stable[i]), float(pred.delta[i]),
                     float(pred.peak_mem[i]), cfg)
                )

        return {
            l: self._pareto(entries)
            for l, entries in menus.items()
        }

    # -- frontier extraction -------------------------------------------------------

    def _pareto(self, entries: list[tuple[float, float, float, StageConfig]],
                ) -> list[ParetoPoint]:
        """Non-dominated (t, d) points, downsampled by the alpha-sweep.

        Extraction keeps every non-dominated point; when the frontier
        exceeds the budget, points are selected by uniformly sampling
        the dual objective of Eq. (4) — ``alpha*G*t + (1-alpha)*d`` for
        ``alpha`` in [0, 1] — which guarantees the minimizers of the
        scalarizations the inter-stage objective is built from survive
        (this is the paper's Pareto frontier *sampling*).
        """
        if not entries:
            return []
        entries.sort(key=lambda e: (e[0], e[1]))
        frontier = []
        best_d = np.inf
        for t, d, mem, cfg in entries:
            if d < best_d - 1e-12:
                frontier.append(ParetoPoint(t=t, d=d, peak_mem=mem, config=cfg))
                best_d = d
        if len(frontier) > self.max_pareto_points:
            gacc = getattr(self, "_gacc", 1)
            t_arr = np.array([p.t for p in frontier])
            d_arr = np.array([p.d for p in frontier])
            keep: set[int] = {0, len(frontier) - 1}  # min-t and min-d ends
            for alpha in np.linspace(0.0, 1.0, self.max_pareto_points):
                scores = alpha * gacc * t_arr + (1.0 - alpha) * d_arr
                keep.add(int(np.argmin(scores)))
            frontier = [frontier[i] for i in sorted(keep)]
        return frontier
