"""Search-space definitions and size accounting (paper Figure 5/13/16).

A :class:`SearchSpace` declares which optimizations a tuner may vary.
The predefined spaces mirror the paper's incremental ablation:

* ``SPACE_3D``           — DP/TP/PP/microbatch with full-or-none
  recomputation (the Megatron-LM space);
* ``SPACE_3D_ZERO``      — + ZeRO-1/2/3;
* ``SPACE_3D_CKPT``      — + per-stage flexible checkpoint counts;
* ``SPACE_OO`` .. ``SPACE_WO`` — + optimizer / activation / gradient /
  weight offloading ratios, cumulatively;
* ``SPACE_MIST``         — everything (+ imbalance-aware pipelining).

:func:`log10_configurations` reproduces the configuration-count growth
of Figure 5: the unpruned cross-product of all options over all layer
partitions, computed in log-space (the counts reach ~10^150).

A :class:`TuningScale` preset ("smoke" / "quick" / "full") coarsens a
space's grids; presets only change search-grid resolution, never the
model or the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.core.schema import (BOOL, Field, Int, List, Num, Str, Table,
                               UnknownNameError, decode)

__all__ = [
    "SearchSpace",
    "SPACE_3D",
    "SPACE_3D_ZERO",
    "SPACE_3D_CKPT",
    "SPACE_OO",
    "SPACE_AO",
    "SPACE_GO",
    "SPACE_WO",
    "SPACE_MIST",
    "INCREMENTAL_SPACES",
    "NAMED_SPACES",
    "get_space",
    "log10_configurations",
    "space_from_dict",
    "space_to_dict",
    "TuningScale",
    "SCALES",
    "get_scale",
    "scale_from_dict",
    "scale_ref",
    "scale_to_dict",
]

#: default quantization grid for offloading ratios during tuning
DEFAULT_OFFLOAD_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SearchSpace:
    """What the tuner is allowed to vary."""

    name: str
    #: ZeRO levels available per stage
    zero_levels: tuple[int, ...] = (0,)
    #: flexible per-stage checkpoint counts (False: full or none only)
    tune_ckpt: bool = False
    #: "auto": 0/full (or flexible per ``tune_ckpt``); "full": always
    #: recompute every layer (the paper's Fig. 2(b) baseline policy)
    ckpt_policy: str = "auto"
    #: number of checkpoint grid points when flexible (incl. endpoints)
    ckpt_grid_points: int = 9
    #: offloading ratio grids in [0, 1] — ``(0.0,)`` disables that ratio
    oo_grid: tuple[float, ...] = (0.0,)
    ao_grid: tuple[float, ...] = (0.0,)
    go_grid: tuple[float, ...] = (0.0,)
    wo_grid: tuple[float, ...] = (0.0,)
    #: account for inter-microbatch imbalance in the objective (Eq. 1)
    imbalance_aware: bool = True
    #: per-stage layer counts explored around the balanced split
    layer_slack: int = 2

    def with_(self, **changes: Any) -> "SearchSpace":
        return replace(self, **changes)


# Megatron-LM-equivalent space: uniform layer splits, full-or-none
# recomputation, distributed optimizer (ZeRO-1) available.
SPACE_3D = SearchSpace(name="3D Parallelism", zero_levels=(0, 1),
                       layer_slack=0)
SPACE_3D_ZERO = SPACE_3D.with_(name="+ZeRO-2/3", zero_levels=(0, 1, 2, 3),
                               layer_slack=2)
SPACE_3D_CKPT = SPACE_3D_ZERO.with_(name="+Flexible CKPT", tune_ckpt=True)
SPACE_OO = SPACE_3D_CKPT.with_(name="+OO", oo_grid=DEFAULT_OFFLOAD_GRID)
SPACE_AO = SPACE_OO.with_(name="+AO", ao_grid=DEFAULT_OFFLOAD_GRID)
SPACE_GO = SPACE_AO.with_(name="+GO", go_grid=(0.0, 0.5, 1.0))
SPACE_WO = SPACE_GO.with_(name="+WO", wo_grid=(0.0, 0.5, 1.0))
SPACE_MIST = SPACE_WO.with_(name="Mist")

#: the cumulative spaces of the Fig. 13 speedup breakdown
INCREMENTAL_SPACES: tuple[SearchSpace, ...] = (
    SPACE_3D,
    SPACE_3D_ZERO,
    SPACE_3D_CKPT,
    SPACE_AO.with_(name="+Offloading"),
    SPACE_MIST.with_(name="+Imbalance-Aware Pipelining"),
)
# Imbalance-unaware variants for ablations:
SPACE_MIST_NO_IMBALANCE = SPACE_MIST.with_(
    name="Mist w/o Imbalance-Aware PP", imbalance_aware=False
)
__all__.append("SPACE_MIST_NO_IMBALANCE")

#: slug -> predefined space; the stable identifiers :mod:`repro.api` jobs
#: use to reference a search space in serialized form
NAMED_SPACES: dict[str, SearchSpace] = {
    "3d": SPACE_3D,
    "3d-zero": SPACE_3D_ZERO,
    "3d-ckpt": SPACE_3D_CKPT,
    "oo": SPACE_OO,
    "ao": SPACE_AO,
    "go": SPACE_GO,
    "wo": SPACE_WO,
    "mist": SPACE_MIST,
    "mist-no-imbalance": SPACE_MIST_NO_IMBALANCE,
}

#: dataclass fields that are float grids (tuples in Python, lists in JSON)
_GRID_FIELDS = ("oo_grid", "ao_grid", "go_grid", "wo_grid")


def get_space(name: str) -> SearchSpace:
    """Look up a predefined space by slug (or its display name)."""
    key = name.lower()
    if key in NAMED_SPACES:
        return NAMED_SPACES[key]
    for space in NAMED_SPACES.values():
        if space.name.lower() == key:
            return space
    raise UnknownNameError(
        f"unknown search space {name!r}; options: {sorted(NAMED_SPACES)}"
    )


def space_to_dict(space: SearchSpace) -> dict:
    """JSON-ready dict for an arbitrary (possibly customized) space."""
    out = {f.name: getattr(space, f.name) for f in SPACE.fields}
    return dict(out, zero_levels=[int(z) for z in space.zero_levels],
                **{f: [float(v) for v in out[f]] for f in _GRID_FIELDS})


#: an offloading-ratio grid: a non-empty list of reals in [0, 1]
_RATIOS = List(Num(ge=0, le=1), nonempty=True)

#: an inlined search space (the inverse of :func:`space_to_dict`)
SPACE = Table("search space", (
    Field("name", Str()),
    Field("zero_levels", List(Int(ge=0, le=3), nonempty=True),
          SearchSpace.zero_levels),
    Field("tune_ckpt", BOOL, SearchSpace.tune_ckpt),
    Field("ckpt_policy", Str(choices=("auto", "full")),
          SearchSpace.ckpt_policy),
    Field("ckpt_grid_points", Int(ge=1), SearchSpace.ckpt_grid_points),
    *(Field(name, _RATIOS, getattr(SearchSpace, name))
      for name in _GRID_FIELDS),
    Field("imbalance_aware", BOOL, SearchSpace.imbalance_aware),
    Field("layer_slack", Int(ge=0), SearchSpace.layer_slack),
))


def space_from_dict(data: dict, what: str = "space") -> SearchSpace:
    """Inverse of :func:`space_to_dict` (lists become tuples again);
    a malformed document raises :class:`~repro.core.schema.DecodeError`
    naming the field path under ``what`` (table :data:`SPACE`)."""
    fields = decode(SPACE, data, what)
    return SearchSpace(**dict(
        fields, zero_levels=tuple(fields["zero_levels"]),
        **{f: tuple(float(v) for v in fields[f]) for f in _GRID_FIELDS}))


def space_ref(space: SearchSpace) -> "str | dict":
    """Serializable reference: a slug when predefined, else a full dict."""
    for slug, named in NAMED_SPACES.items():
        if named == space:
            return slug
    return space_to_dict(space)


__all__.append("space_ref")


@dataclass(frozen=True)
class TuningScale:
    """Search-grid resolution preset."""

    name: str
    offload_grid: tuple[float, ...]
    binary_grid: tuple[float, ...]
    ckpt_grid_points: int
    layer_slack: int
    #: cap on gradient-accumulation candidates per pipeline depth
    max_gacc_candidates: int

    def apply(self, space: SearchSpace) -> SearchSpace:
        """Coarsen ``space``'s grids to this preset (never widen)."""
        changes = {
            "ckpt_grid_points": min(space.ckpt_grid_points,
                                    self.ckpt_grid_points),
            "layer_slack": min(space.layer_slack, self.layer_slack),
        }
        for grid_name, preset in (
            ("oo_grid", self.offload_grid), ("ao_grid", self.offload_grid),
            ("go_grid", self.binary_grid), ("wo_grid", self.binary_grid),
        ):
            grid = getattr(space, grid_name)
            if len(grid) > 1:
                changes[grid_name] = preset
        return space.with_(**changes)


#: name -> preset; the identifiers jobs use to reference a scale
SCALES: dict[str, TuningScale] = {
    "smoke": TuningScale(
        name="smoke", offload_grid=(0.0, 0.5), binary_grid=(0.0,),
        ckpt_grid_points=3, layer_slack=1, max_gacc_candidates=2,
    ),
    "quick": TuningScale(
        name="quick", offload_grid=(0.0, 0.5, 1.0), binary_grid=(0.0, 1.0),
        ckpt_grid_points=5, layer_slack=1, max_gacc_candidates=4,
    ),
    "full": TuningScale(
        name="full", offload_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        binary_grid=(0.0, 0.5, 1.0),
        ckpt_grid_points=9, layer_slack=2, max_gacc_candidates=8,
    ),
}


def get_scale(name: str) -> TuningScale:
    """Look up a preset by name (case-insensitive)."""
    key = name.lower()
    if key not in SCALES:
        raise UnknownNameError(
            f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[key]


def scale_to_dict(scale: TuningScale) -> dict:
    """JSON-ready dict for an arbitrary (possibly customized) preset."""
    out = {f.name: getattr(scale, f.name) for f in SCALE.fields}
    return dict(out, **{f: [float(v) for v in out[f]]
                        for f in ("offload_grid", "binary_grid")})


#: an inlined tuning scale (the inverse of :func:`scale_to_dict`); a
#: 2.x dict may still carry ``max_pareto_points``, the removed
#: frontier-sampling cap, which is ignored: the whole Pareto frontier
#: now reaches the inter-stage solve
SCALE = Table("tuning scale", (
    Field("name", Str()),
    Field("offload_grid", _RATIOS),
    Field("binary_grid", _RATIOS),
    Field("ckpt_grid_points", Int(ge=1)),
    Field("layer_slack", Int(ge=0)),
    Field("max_gacc_candidates", Int(ge=1)),
), ignore=frozenset({"max_pareto_points"}))


def scale_from_dict(data: dict, what: str = "scale") -> TuningScale:
    """Inverse of :func:`scale_to_dict`, checked as :data:`SPACE` is."""
    fields = decode(SCALE, data, what)
    return TuningScale(**dict(
        fields, **{f: tuple(float(v) for v in fields[f])
                   for f in ("offload_grid", "binary_grid")}))


def scale_ref(scale: TuningScale) -> "str | dict":
    """Serializable reference: a preset name when known, else a dict."""
    for name, preset in SCALES.items():
        if preset == scale:
            return name
    return scale_to_dict(scale)


#: "continuous" ratio resolution assumed when counting configurations
_CONTINUOUS_POINTS = 100


def _log10_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) \
        / math.log(10)


def _log10_add(a: float, b: float) -> float:
    """log10(10^a + 10^b) without overflow."""
    if not math.isfinite(a):
        return b
    if not math.isfinite(b):
        return a
    high, low = max(a, b), min(a, b)
    return high + math.log10(1.0 + 10.0 ** (low - high))


def log10_configurations(num_layers: int, num_gpus: int, *,
                         zero: bool = False, ckpt: bool = False,
                         oo: bool = False, go: bool = False,
                         po: bool = False, ao: bool = False,
                         max_stages: int | None = None) -> float:
    """log10 of the unpruned configuration count (Figure 5).

    Counts, for every pipeline depth ``S``: the layer compositions
    ``C(L-1, S-1)``, and per stage the (dp, tp, b) grids and every
    enabled memory optimization (ZeRO levels x checkpoint counts x
    offloading ratios at ~:data:`_CONTINUOUS_POINTS` resolution each).
    """
    if num_layers < 1 or num_gpus < 1:
        raise ValueError("need at least one layer and one GPU")
    max_stages = min(max_stages or num_gpus, num_layers, num_gpus)

    # per-stage multiplicative factor (log10)
    parallel_options = max(1, int(math.log2(num_gpus)) + 1)  # dp*tp splits
    micro_options = 4  # candidate microbatch sizes
    per_stage = math.log10(parallel_options * micro_options)
    if zero:
        per_stage += math.log10(4)
    if ckpt:
        per_stage += math.log10(max(2, num_layers // 2))
    for enabled in (oo, go, po, ao):
        if enabled:
            per_stage += math.log10(_CONTINUOUS_POINTS)

    total = -math.inf
    s = 1
    while s <= max_stages:
        if num_gpus % s == 0:
            log_count = _log10_comb(num_layers - 1, s - 1) + s * per_stage
            total = _log10_add(total, log_count)
        s *= 2
    return total
