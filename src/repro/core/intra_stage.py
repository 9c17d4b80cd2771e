"""Intra-stage tuning: batched enumeration and Pareto-frontier extraction.

For a stage shape — device count, position (has_pre/has_post), in-flight
microbatch count and gradient-accumulation steps — the tuner enumerates
every combination of

* ``(dp, tp, b)`` grids (with ``b = B / (G * dp)`` forced integral),
* ZeRO level, checkpoint count, and offloading ratios from the
  :class:`~repro.core.spaces.SearchSpace` grids,
* candidate per-stage layer counts,

materializes the whole menu as one **axis-factored** symbol environment
(from :func:`~repro.tracing.symbols.symbol_env`): every symbol that
varies over the menu is an array along its own grid axis, extent 1 on
the others, and the stage's constants are scalars. One memory kernel
call prices the whole grid, and the ``(dp, tp, b)`` option blocks with
no row within budget (Eq. 4's constraint) are dropped. One runtime
kernel call then computes each subexpression of the rest at the size of
the axes it reads (Section 5.2's "batched value substitutions"), and
Algorithm 1 runs as one stacked sweep per menu, each segment at the
size of the axes it reads, or over the gathered memory-feasible rows
when those are fewer. The stable time does not read every axis; along
those it does not read, one row per fiber is all the frontier
extraction needs, which then finds the Pareto frontier over
``(t_stable, d_delta)`` per layer count. Because querying single
points is nearly free, the enumeration is brute force — "which would
not miss any optimization possibilities" (Section 5.3).

Python loops here run over layer-count segments and already-reduced
frontiers, never over menu rows. The row-at-a-time reference the
differential tests compare against is
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

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import SymbolicPerformanceAnalyzer, gather_rows
from .memo import MemoEntry
from .plan import StageConfig
from .spaces import SearchSpace

__all__ = ["ParetoPoint", "StageShape", "IntraStageTuner",
           "stage_parallelism_options"]

#: the configuration values along each axis of a menu grid, in axis
#: order (see :meth:`IntraStageTuner._menu_axes`)
_GRID_AXES = (("dp", "tp", "b"), ("l", "ckpt"), ("zero",), ("wo",), ("go",),
              ("oo",), ("ao",))
#: the grid axis of the ``(l, ckpt)`` pairs
_LAYER_AXIS = 1


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
    rows with equal ``(t, d)`` the first in row order is kept. A row
    whose ``d`` is NaN neither joins the frontier nor removes another
    row.

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
    cuts = (np.flatnonzero(l_s[1:] != l_s[:-1]) + 1).tolist()
    frontiers: dict[int, np.ndarray] = {}
    for s, e in zip([0] + cuts, cuts + [l_s.size]):
        rows = order[s:e]
        seg = d_v[rows]
        # the least d before each row; fmin skips NaN, so a NaN row does
        # not hide the rows after it
        prev_min = np.empty_like(seg)
        prev_min[0] = np.inf
        np.fmin.accumulate(seg[:-1], out=prev_min[1:])
        kept: list[int] = []
        best_d = np.inf
        for i in rows[seg < prev_min]:
            if d_v[i] < best_d - 1e-12:
                kept.append(int(i))
                best_d = d_v[i]
        frontiers[int(l_s[s])] = np.asarray(kept, dtype=np.intp)
    return frontiers


def _fiber_winners(rows: np.ndarray, d_v: np.ndarray,
                   grid: tuple[int, ...], axes: list[int]) -> np.ndarray:
    """Positions in ``rows`` of the rows :func:`_pareto_rows` could keep.

    ``rows`` are ascending flat indices into ``grid`` and ``d_v`` their
    deltas; ``t`` and the layer count must be constant along every grid
    axis in ``axes``. A *fiber* is a set of rows that differ only in
    their indices along ``axes``. Of each fiber, only the first row of
    least ``d`` can join a frontier: every other row has an earlier
    row with equal ``(l, t)`` and a ``d`` no larger, so
    :func:`_pareto_rows` would neither keep it nor let it remove
    another row. A NaN or infinite ``d`` can never join a frontier, so
    such rows count as ``+inf`` and a fiber whose least ``d`` is
    ``+inf`` keeps no row. The positions are ascending, so the kept
    rows stay in row order.
    """
    if not axes:
        return np.arange(rows.size)
    key = np.full(math.prod(grid), np.inf)
    key[rows] = np.fmin(d_v, np.inf)  # NaN -> inf
    order = [k for k in range(len(grid)) if k not in axes] + axes
    fiber = math.prod(grid[k] for k in axes)
    key = key.reshape(grid).transpose(order).reshape(-1, fiber)
    flat = np.arange(key.size).reshape(grid).transpose(order).reshape(
        -1, fiber)
    fibers = np.arange(key.shape[0])
    first = key.argmin(axis=1)
    winners = flat[fibers, first][key[fibers, first] < np.inf]
    winners.sort()
    return np.searchsorted(rows, winners)


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

    def _menu_axes(self, options: list[tuple[int, int, int]],
                   layer_counts: list[int]) -> dict[str, np.ndarray]:
        """The values along each axis of the stage's menu grid.

        The axes (:data:`_GRID_AXES`) are the ``(dp, tp, b)`` option,
        the valid ``(l, ckpt)`` pairs, the ZeRO level, ``wo``, ``go``,
        ``oo`` and ``ao``. The grid's C-order flat index is the meshgrid
        enumeration order, option blocks in option order: the order the
        stable frontier extraction's tie-breaking depends on.
        """
        l_g, ckpt_g = np.meshgrid(np.asarray(sorted(layer_counts), dtype=int),
                                  self._ckpt_grid(layer_counts),
                                  indexing="ij")
        if self.space.ckpt_policy == "full":
            valid = ckpt_g == l_g
        elif not self.space.tune_ckpt:
            valid = (ckpt_g == 0) | (ckpt_g == l_g)
        else:
            valid = ckpt_g <= l_g
        dp, tp, b = np.asarray(options, dtype=int).reshape(-1, 3).T
        space = self.space
        return {"dp": dp, "tp": tp, "b": b, "l": l_g[valid],
                "ckpt": ckpt_g[valid],
                "zero": np.asarray(space.zero_levels, dtype=int),
                "wo": np.asarray(space.wo_grid, dtype=float),
                "go": np.asarray(space.go_grid, dtype=float),
                "oo": np.asarray(space.oo_grid, dtype=float),
                "ao": np.asarray(space.ao_grid, dtype=float)}

    def _menu_env(self, shape: StageShape,
                  axes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The menu grid of ``axes`` as one symbol environment.

        Each configuration value lies along its own grid axis, extent 1
        on the others, and one that takes a single value is a scalar,
        like the stage's constants, so the compiled kernels compute
        each subexpression at the size of the axes it reads.
        """
        values = {}
        for k, names in enumerate(_GRID_AXES):
            for name in names:
                column = axes[name]
                values[name] = column[0] if column.size == 1 else (
                    column.reshape([-1 if j == k else 1
                                    for j in range(len(_GRID_AXES))]))
        return self.analyzer.build_env(
            **values, s=self.seq_len, gacc=shape.gacc,
            inflight=shape.inflight, has_pre=int(shape.has_pre),
            has_post=int(shape.has_post), p2p_link=shape.p2p_link,
        )

    # -- tuning -----------------------------------------------------------------

    def tune(self, shape: StageShape, layer_counts: list[int]) -> MemoEntry:
        """Pareto frontiers per layer count, with the work that built them.

        Returns a :class:`~repro.core.memo.MemoEntry`: ``menus`` is
        ``{l: [ParetoPoint, ...]}``, each list the whole frontier of the
        memory-feasible rows in ascending ``t`` order (see
        :func:`_pareto_rows`), empty for layer counts with no feasible
        configuration; ``evaluated`` counts the menu's configurations
        and ``prefiltered`` those over the memory budget.

        The whole menu is one grid environment (:meth:`_menu_env`),
        priced in one pass: peak memory first
        (:meth:`~SymbolicPerformanceAnalyzer.predict_memory`), then the
        option blocks with no row within budget are dropped, then one
        :meth:`~SymbolicPerformanceAnalyzer.predict_feasible` call runs
        the runtime kernel and Algorithm 1 on the blocks that are left.
        Along the grid axes the stable time does not read, only the
        first row of least delta per fiber can join a frontier
        (:func:`_fiber_winners`), so only those reach
        :func:`_pareto_rows`.
        """
        menus: dict[int, list[ParetoPoint]] = {l: [] for l in layer_counts}
        analyzer = self.analyzer
        options = stage_parallelism_options(
            analyzer, shape.stage_gpus, shape.gacc, self.global_batch)
        axes = self._menu_axes(options, layer_counts)
        grid = tuple(axes[names[0]].size for names in _GRID_AXES)
        n = math.prod(grid)  # 0 without a (dp, tp, b) option
        if not n:
            return MemoEntry(menus, evaluated=0, prefiltered=0)
        env = self._menu_env(shape, axes)
        peak = analyzer.predict_memory(env)
        fits = peak <= analyzer.memory_budget
        entry = MemoEntry(menus, evaluated=n,
                          prefiltered=n - int(np.count_nonzero(fits)))
        blocks = np.flatnonzero(fits.reshape(grid[0], -1).any(axis=1))
        if not blocks.size:
            return entry
        if blocks.size < grid[0]:
            for name in _GRID_AXES[0]:
                axes[name] = axes[name][blocks]
            grid = (blocks.size,) + grid[1:]
            env = self._menu_env(shape, axes)
            peak = peak[blocks]

        rows, pred = analyzer.predict_feasible(env, peak)
        if not rows.size:
            return entry
        t_shape = (1,) * (len(grid) - pred.t_stable.ndim) + pred.t_stable.shape
        # axes t_stable does not read, but never the (l, ckpt) axis: a
        # fiber keeps to one layer count
        reduced = [k for k, extent in enumerate(grid)
                   if extent > 1 and t_shape[k] == 1 and k != _LAYER_AXIS]
        keep = _fiber_winners(rows, pred.delta, grid, reduced)
        rows, delta = rows[keep], pred.delta[keep]
        # each row's index along the (l, ckpt) axis picks its layer count
        l_col = axes["l"][rows // math.prod(grid[_LAYER_AXIS + 1:])
                          % grid[_LAYER_AXIS]]
        frontiers = _pareto_rows(l_col, gather_rows(pred.t_stable, rows, grid),
                                 delta)
        if not frontiers:
            return entry

        # frontier rows back to their configurations
        picked = np.concatenate(list(frontiers.values()))
        flat = rows[picked]
        index = np.unravel_index(flat, grid)
        config = {name: axes[name][index[k]].tolist()
                  for k, names in enumerate(_GRID_AXES) for name in names}
        points = [
            ParetoPoint(t=t, d=d, peak_mem=peak, config=StageConfig(
                layers=l, microbatch=b, dp=dp, tp=tp, zero=zero, ckpt=ckpt,
                wo=wo, go=go, oo=oo, ao=ao, device_group=shape.group))
            for t, d, peak, dp, tp, b, l, ckpt, zero, wo, go, oo, ao in zip(
                gather_rows(pred.t_stable, flat, grid).tolist(),
                delta[picked].tolist(),
                gather_rows(pred.peak_mem, flat, grid).tolist(),
                *config.values())
        ]
        start = 0
        for layers, kept in frontiers.items():
            menus[layers] = points[start:start + kept.size]
            start += kept.size
        return entry
