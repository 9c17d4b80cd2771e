"""Workload definitions (paper Tables 3/4) and tuning-scale presets.

The paper scales GPUs and global batch with model size: 1.3B on 2 GPUs
with batch 32 up to 22B on 32 GPUs with batch 512; sequence length 2048
on L4 machines and 4096 on A100 machines.

Because full-scale sweeps are expensive, benchmarks accept a
:class:`TuningScale` preset ("smoke" / "quick" / "full"), selected via
the ``REPRO_BENCH_SCALE`` environment variable; presets only change
search-grid resolution, never the model or the objective.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.spaces import SearchSpace
from repro.hardware import (
    ClusterSpec,
    HeterogeneousCluster,
    cluster_from_dict,
    make_cluster,
)
from repro.models.config import ModelConfig
from repro.models.registry import get_model

__all__ = [
    "WorkloadSpec",
    "TuningScale",
    "SCALES",
    "current_scale",
    "get_scale",
    "mixed_workload",
    "paper_workloads",
    "batch_for_size",
    "default_seq_len",
    "gpu_count_for_size",
    "scale_from_dict",
    "scale_ref",
    "scale_to_dict",
]

#: model size tag -> number of GPUs (Table 4 scaling rule)
_SIZE_TO_GPUS = {"1.3b": 2, "2.7b": 4, "6.7b": 8, "7b": 8, "13b": 16,
                 "22b": 32}
#: model size tag -> global batch size
_SIZE_TO_BATCH = {"1.3b": 32, "2.7b": 64, "6.7b": 128, "7b": 128,
                  "13b": 256, "22b": 512}

GPUS_PER_NODE = 8


def gpu_count_for_size(size: str) -> int:
    return _SIZE_TO_GPUS[size.lower()]


def batch_for_size(size: str) -> int:
    """Global batch the Table 4 scaling rule pairs with a model size."""
    return _SIZE_TO_BATCH[size.lower()]


def default_seq_len(gpu_name: str) -> int:
    """Paper default: 2048 on L4 machines, 4096 otherwise."""
    return 2048 if gpu_name == "L4" else 4096


@dataclass(frozen=True)
class WorkloadSpec:
    """One evaluation point: model + cluster + batch + sequence length.

    ``cluster_dict`` optionally pins an explicit cluster topology (the
    :func:`repro.hardware.cluster_from_dict` schema) — required for
    heterogeneous fleets, also usable to override the default
    8-GPUs-per-node homogeneous shape. When unset the cluster is
    derived from ``gpu_name``/``num_gpus`` exactly as before.
    """

    model_spec: str
    gpu_name: str
    num_gpus: int
    global_batch: int
    seq_len: int
    flash: bool = True
    cluster_dict: dict | None = field(default=None)

    @property
    def model(self) -> ModelConfig:
        return get_model(self.model_spec)

    @property
    def cluster(self) -> "ClusterSpec | HeterogeneousCluster":
        if self.cluster_dict is not None:
            return cluster_from_dict(self.cluster_dict)
        nodes = max(1, self.num_gpus // GPUS_PER_NODE)
        per_node = min(self.num_gpus, GPUS_PER_NODE)
        return make_cluster(self.gpu_name, nodes, per_node)

    @property
    def name(self) -> str:
        if self.cluster_dict is not None:
            cluster = self.cluster
            if isinstance(cluster, HeterogeneousCluster):
                return (f"{self.model_spec}-{cluster.name}"
                        f"-B{self.global_batch}-s{self.seq_len}"
                        f"{'-flash' if self.flash else ''}")
        return (f"{self.model_spec}-{self.gpu_name}x{self.num_gpus}"
                f"-B{self.global_batch}-s{self.seq_len}"
                f"{'-flash' if self.flash else ''}")


def mixed_workload(cluster: "dict | ClusterSpec | HeterogeneousCluster",
                   model_spec: str, global_batch: int, *,
                   seq_len: int = 2048, flash: bool = True) -> WorkloadSpec:
    """Workload on an explicit (possibly heterogeneous) cluster.

    ``gpu_name``/``num_gpus`` are derived from the cluster so the spec
    stays consistent; the Fig. 11-style sweep over mixed fleets builds
    its grid from these.
    """
    from repro.hardware import cluster_to_dict

    if isinstance(cluster, (ClusterSpec, HeterogeneousCluster)):
        data = cluster_to_dict(cluster)
    else:
        data = dict(cluster)
    parsed = cluster_from_dict(data)
    gpu_name = (parsed.groups[0].gpu.name
                if isinstance(parsed, HeterogeneousCluster)
                else parsed.gpu.name)
    return WorkloadSpec(
        model_spec=model_spec, gpu_name=gpu_name,
        num_gpus=parsed.total_gpus, global_batch=global_batch,
        seq_len=seq_len, flash=flash, cluster_dict=data,
    )


def paper_workloads(gpu_name: str, *, family: str = "gpt3",
                    sizes: tuple[str, ...] = ("1.3b", "2.7b", "6.7b",
                                              "13b", "22b"),
                    flash: bool = True) -> list[WorkloadSpec]:
    """The Table 4 grid for one GPU type and model family."""
    seq_len = default_seq_len(gpu_name)
    return [
        WorkloadSpec(
            model_spec=f"{family}-{size}",
            gpu_name=gpu_name,
            num_gpus=_SIZE_TO_GPUS[size],
            global_batch=_SIZE_TO_BATCH[size],
            seq_len=seq_len,
            flash=flash,
        )
        for size in sizes
    ]


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


def current_scale() -> TuningScale:
    """Preset selected by ``REPRO_BENCH_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    try:
        return get_scale(name)
    except KeyError:
        raise KeyError(
            f"REPRO_BENCH_SCALE={name.lower()!r}; options: {sorted(SCALES)}"
        ) from None


def get_scale(name: str) -> TuningScale:
    """Look up a preset by name (case-insensitive)."""
    key = name.lower()
    if key not in SCALES:
        raise KeyError(f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[key]


def scale_to_dict(scale: TuningScale) -> dict:
    """JSON-ready dict for an arbitrary (possibly customized) preset."""
    return {
        "name": scale.name,
        "offload_grid": [float(v) for v in scale.offload_grid],
        "binary_grid": [float(v) for v in scale.binary_grid],
        "ckpt_grid_points": scale.ckpt_grid_points,
        "layer_slack": scale.layer_slack,
        "max_gacc_candidates": scale.max_gacc_candidates,
    }


def scale_from_dict(data: dict) -> TuningScale:
    """Inverse of :func:`scale_to_dict`.

    A 2.x dict may still carry ``max_pareto_points``, the removed
    frontier-sampling cap; it is ignored, because the whole Pareto
    frontier now reaches the inter-stage solve.
    """
    return TuningScale(
        name=data["name"],
        offload_grid=tuple(float(v) for v in data["offload_grid"]),
        binary_grid=tuple(float(v) for v in data["binary_grid"]),
        ckpt_grid_points=int(data["ckpt_grid_points"]),
        layer_slack=int(data["layer_slack"]),
        max_gacc_candidates=int(data["max_gacc_candidates"]),
    )


def scale_ref(scale: TuningScale) -> "str | dict":
    """Serializable reference: a preset name when known, else a dict."""
    for name, preset in SCALES.items():
        if preset == scale:
            return name
    return scale_to_dict(scale)
