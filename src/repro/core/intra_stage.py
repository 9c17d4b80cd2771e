"""Intra-stage tuning: batched enumeration and Pareto-frontier extraction.

For a stage shape — device count, position (has_pre/has_post), in-flight
microbatch count and gradient-accumulation steps — the tuner enumerates
every combination of

* ``(dp, tp, b)`` grids (with ``b = B / (G * dp)`` forced integral),
* ZeRO level, checkpoint count, and offloading ratios from the
  :class:`~repro.core.spaces.SearchSpace` grids,
* candidate per-stage layer counts,

materializes each ``(dp, tp, b)`` option block of the menu as one
symbol environment (from :func:`~repro.tracing.symbols.symbol_env`):
the block's constants as scalars, the nine symbols that vary by row as
**columnar arrays**. It evaluates memory feasibility and the runtime
kernel in a few vectorized analyzer calls per block (Section 5.2's
"batched value substitutions"), so every block-constant subexpression
is computed once per block, runs Algorithm 1 once over all blocks'
rows, filters by the memory budget (Eq. 4's constraint), and extracts
the Pareto frontier over ``(t_stable, d_delta)`` per layer count.
Because querying single points is nearly free, the enumeration is
brute force — "which would not miss any optimization
possibilities" (Section 5.3).

Python loops here run over option blocks, layer-count segments and
already-reduced frontiers, never over menu rows. The row-at-a-time
reference the differential tests compare against is
:meth:`repro.symbolic.CompiledExpr.interpret`, swapped in by the tests.

The frontier — rather than a single winner — is the hand-off to the
inter-stage solve: different ``(t, d)`` trade-offs win depending on how
many microbatches amortize the deltas and where the stage sits in the
pipeline. The paper *samples* each frontier with an alpha sweep over
Eq. (4)'s dual objective to keep its MILP small; the inter-stage solve
here is an exact DP that drops dominated labels itself, so the whole
frontier is handed over and no sampling can lose a plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyzer import StagePrediction, SymbolicPerformanceAnalyzer
from .plan import StageConfig
from .spaces import SearchSpace

__all__ = ["ParetoPoint", "StageShape", "IntraStageTuner",
           "stage_parallelism_options"]

#: one ``(dp, tp, b)`` option and its symbol environment
_Block = tuple[tuple[int, int, int], dict[str, np.ndarray]]


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


def _pareto_rows(l_g: np.ndarray, t_v: np.ndarray,
                 d_v: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices of the ``(t, d)`` Pareto frontier per layer count.

    Within each layer-count group, rows are ordered by ``(t, d)`` with
    exact ties kept in row order (a stable sort), and each group's
    frontier lists its rows in that order — ascending ``t``, descending
    ``d``. A row joins the frontier only if its ``d`` undercuts the
    previous frontier point's by more than ``1e-12``, so of several
    rows with equal ``(t, d)`` the first in row order is kept.

    A vectorized mask first drops every row whose ``d`` is not
    *strictly* below all earlier rows' ``d``; such a row can never
    undercut the running frontier value, so the epsilon scan that
    follows only visits the few survivors. Callers pass only
    memory-feasible rows: an over-budget row must not dominate, and so
    remove, a feasible one.
    """
    if l_g.size == 0:
        return {}
    order = np.lexsort((d_v, t_v, l_g))  # stable: by l, then t, then d
    l_s = l_g[order]
    starts = np.flatnonzero(np.r_[True, l_s[1:] != l_s[:-1]])
    ends = np.r_[starts[1:], l_s.size]
    frontiers: dict[int, np.ndarray] = {}
    for s, e in zip(starts, ends):
        rows = order[s:e]
        seg = d_v[rows]
        prev_min = np.r_[np.inf, np.minimum.accumulate(seg)[:-1]]
        kept: list[int] = []
        best_d = np.inf
        for i in rows[seg < prev_min]:
            if d_v[i] < best_d - 1e-12:
                kept.append(int(i))
                best_d = d_v[i]
        frontiers[int(l_s[s])] = np.asarray(kept, dtype=np.intp)
    return frontiers


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated intra-stage configuration."""

    t: float
    d: float
    peak_mem: float
    config: StageConfig


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
    #: ``(bandwidth, latency)`` of the inter-group link the stage's
    #: pipeline p2p crosses, or None (see
    #: :meth:`~repro.hardware.HeterogeneousCluster.p2p_links`, which
    #: the execution engine applies too)
    p2p_link: tuple[float, float] | None = None


class IntraStageTuner:
    """Batched columnar enumeration over one stage's search space."""

    def __init__(self, analyzer: SymbolicPerformanceAnalyzer,
                 space: SearchSpace, *, global_batch: int, seq_len: int):
        self.analyzer = analyzer
        self.space = space
        self.global_batch = global_batch
        self.seq_len = seq_len
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

    # -- menu materialization -----------------------------------------------

    def _menu_blocks(self, shape: StageShape,
                     layer_counts: list[int]) -> list[_Block]:
        """The stage's config menu as one symbol environment per option.

        Each ``(dp, tp, b)`` option block goes through
        :func:`~repro.tracing.symbols.symbol_env` with its constants as
        scalars, so the topology is looked up once per option and the
        compiled kernels compute everything that depends only on them
        once per block. Only ``l``, ``ckpt``, ``z1..z3`` and the four
        offload ratios are columns, in meshgrid enumeration order.
        Blocks come in option order: block order, then row order, is
        the order the stable frontier extraction's tie-breaking depends
        on.
        """
        zero_levels = np.asarray(self.space.zero_levels, dtype=int)
        ckpt_vals = self._ckpt_grid(layer_counts)
        l_vals = np.asarray(sorted(layer_counts), dtype=int)
        blocks: list[_Block] = []

        for dp, tp, b in stage_parallelism_options(
                self.analyzer, shape.stage_gpus, shape.gacc,
                self.global_batch):
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
            if not valid.any():
                continue
            blocks.append(((dp, tp, b), self.analyzer.build_env(
                b=b, s=self.seq_len, dp=dp, tp=tp,
                l=l_g[valid], ckpt=ckpt_g[valid], zero=zero_g[valid],
                wo=wo_g[valid], go=go_g[valid], oo=oo_g[valid],
                ao=ao_g[valid], gacc=shape.gacc, inflight=shape.inflight,
                has_pre=int(shape.has_pre), has_post=int(shape.has_post),
                p2p_link=shape.p2p_link,
            )))
        return blocks

    # -- tuning -----------------------------------------------------------------

    def tune(self, shape: StageShape, layer_counts: list[int], *,
             prefilter: bool = False) -> dict[int, list[ParetoPoint]]:
        """Pareto frontiers per layer count: ``{l: [ParetoPoint, ...]}``.

        Each list is the whole frontier of the memory-feasible rows, in
        ascending ``t`` order (see :func:`_pareto_rows`); it is empty
        for layer counts with no feasible configuration.

        ``prefilter=True`` enables the symbolic memory-feasibility
        pre-filter: peak memory is evaluated first through the
        analyzer's memory-only projection and candidates over budget
        are dropped *before* the (more expensive) runtime evaluation.
        The surviving menus are bit-identical either way — the filter
        applies the exact constraint the post-evaluation check applies,
        just earlier.

        The runtime kernel runs once per option block and Algorithm 1
        once over all blocks' rows
        (:meth:`SymbolicPerformanceAnalyzer.predict_blocks`).
        """
        menus: dict[int, list[ParetoPoint]] = {l: [] for l in layer_counts}
        analyzer = self.analyzer
        blocks: list[_Block] = []
        for option, env in self._menu_blocks(shape, layer_counts):
            n = env["l"].size
            self.evaluated += n
            if prefilter:
                fits_mem = (analyzer.predict_memory(env)
                            <= analyzer.memory_budget)
                self.prefiltered += int(n - fits_mem.sum())
                if not fits_mem.any():
                    continue
                if not fits_mem.all():
                    env = {name: value[fits_mem] if np.ndim(value) else value
                           for name, value in env.items()}
            blocks.append((option, env))
        if not blocks:
            return menus

        pred = analyzer.predict_blocks([env for _, env in blocks])
        offsets = np.cumsum([0] + [env["l"].size for _, env in blocks])

        fits = np.flatnonzero(pred.peak_mem <= analyzer.memory_budget)
        layers_col = np.concatenate([env["l"] for _, env in blocks])
        frontiers = _pareto_rows(layers_col[fits], pred.t_stable[fits],
                                 pred.delta[fits])
        for layers, rows in frontiers.items():
            points = []
            for i in fits[rows]:
                k = int(np.searchsorted(offsets, i, side="right")) - 1
                points.append(self._point(blocks[k], int(i - offsets[k]),
                                          pred, int(i), shape.group))
            menus[layers] = points
        return menus

    @staticmethod
    def _point(block: _Block, j: int, pred: StagePrediction, i: int,
               group: str) -> ParetoPoint:
        """The frontier point for row ``j`` of ``block``, which is row
        ``i`` of ``pred``."""
        (dp, tp, b), env = block
        cfg = StageConfig(
            layers=int(env["l"][j]), microbatch=b, dp=dp, tp=tp,
            zero=int(env["z1"][j] + env["z2"][j] + env["z3"][j]),
            ckpt=int(env["ckpt"][j]),
            wo=float(env["wo"][j]), go=float(env["go"][j]),
            oo=float(env["oo"][j]), ao=float(env["ao"][j]),
            device_group=group,
        )
        return ParetoPoint(t=float(pred.t_stable[i]), d=float(pred.delta[i]),
                           peak_mem=float(pred.peak_mem[i]), config=cfg)
