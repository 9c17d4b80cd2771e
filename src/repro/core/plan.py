"""Training-plan data model (the tuner's output; paper Table 2).

A :class:`TrainingPlan` fixes gradient-accumulation steps ``G`` and, for
each pipeline stage ``i``, the tuple
``(L_i, b_i, DP_i, TP_i, ZeRO_i, CKPT_i, WO_i, GO_i, OO_i, AO_i)``.

On heterogeneous clusters each stage additionally carries a
``device_group`` tag naming the
:class:`~repro.hardware.topology.DeviceGroup` that hosts it; on
homogeneous clusters the tag stays empty and plans are byte-identical
to their pre-heterogeneity serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.schema import (OBJECT, DecodeError, Field, Int, List, Num, Str,
                               Table, decode, loads)
from repro.hardware import ClusterSpec, HeterogeneousCluster, reduce_fleet
from repro.models.config import ModelConfig

__all__ = ["StageConfig", "TrainingPlan", "PlanValidationError", "zero_flags",
           "uniform_plan"]


class PlanValidationError(DecodeError):
    """A plan is structurally inconsistent with its model/cluster."""


def zero_flags(level: int) -> tuple[int, int, int]:
    """ZeRO level -> cumulative (z1, z2, z3) sharding flags.

    Level 1 shards optimizer states, level 2 adds gradients, level 3
    adds fp16 parameters (Section 2.2).
    """
    if level not in (0, 1, 2, 3):
        raise ValueError(f"ZeRO level must be 0..3, got {level}")
    return (int(level >= 1), int(level >= 2), int(level >= 3))


@dataclass(frozen=True)
class StageConfig:
    """Configuration of one pipeline stage."""

    layers: int
    microbatch: int
    dp: int
    tp: int
    zero: int = 0
    ckpt: int = 0
    wo: float = 0.0
    go: float = 0.0
    oo: float = 0.0
    ao: float = 0.0
    #: device group hosting this stage ("" = the cluster's only kind)
    device_group: str = ""

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise PlanValidationError("layers must be >= 0")
        if self.microbatch < 1 or self.dp < 1 or self.tp < 1:
            raise PlanValidationError("b, dp, tp must be >= 1")
        if self.zero not in (0, 1, 2, 3):
            raise PlanValidationError(f"invalid ZeRO level {self.zero}")
        if not 0 <= self.ckpt <= self.layers:
            raise PlanValidationError(
                f"ckpt={self.ckpt} outside [0, layers={self.layers}]"
            )
        for name in ("wo", "go", "oo", "ao"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PlanValidationError(f"{name}={value} outside [0, 1]")

    @property
    def gpus(self) -> int:
        return self.dp * self.tp

    @property
    def zero_flags(self) -> tuple[int, int, int]:
        return zero_flags(self.zero)

    @property
    def samples_per_microbatch(self) -> int:
        return self.dp * self.microbatch

    def to_dict(self) -> dict:
        # device_group is serialized only when set, so homogeneous plans
        # keep their pre-heterogeneity byte-identical JSON form
        return {f.name: getattr(self, f.name) for f in STAGE.fields
                if f.name != "device_group" or self.device_group}

    @classmethod
    def from_dict(cls, data: dict, what: str = "stage") -> "StageConfig":
        fields = decode(STAGE, data, what, PlanValidationError)
        # real-valued fields are floats, as the tuner writes them, so
        # plan hashes hold
        return cls(**dict(fields, **{name: float(fields[name])
                                     for name in _RATIO_FIELDS}))

    def describe(self) -> str:
        parts = [
            f"L={self.layers}", f"b={self.microbatch}", f"DP={self.dp}",
            f"TP={self.tp}", f"ZeRO-{self.zero}", f"CKPT={self.ckpt}",
        ]
        for name in ("wo", "go", "oo", "ao"):
            value = getattr(self, name)
            if value > 0:
                parts.append(f"{name.upper()}={value:.2f}")
        if self.device_group:
            parts.append(f"@{self.device_group}")
        return " ".join(parts)


@dataclass(frozen=True)
class TrainingPlan:
    """A complete distributed-training configuration."""

    global_batch: int
    gacc: int
    stages: tuple[StageConfig, ...]
    #: free-form provenance (which tuner / search space produced it)
    source: str = "manual"
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.gacc < 1:
            raise PlanValidationError("gradient accumulation steps must be >= 1")
        if not self.stages:
            raise PlanValidationError("plan needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_gpus(self) -> int:
        return sum(stage.gpus for stage in self.stages)

    @property
    def total_layers(self) -> int:
        return sum(stage.layers for stage in self.stages)

    def inflight(self, stage_idx: int) -> int:
        """In-flight microbatches of stage ``stage_idx`` under 1F1B."""
        return min(self.gacc, self.num_stages - stage_idx)

    def validate(self, model: ModelConfig,
                 cluster: "ClusterSpec | HeterogeneousCluster") -> None:
        """Raise :class:`PlanValidationError` on any inconsistency."""
        if self.total_layers != model.num_layers:
            raise PlanValidationError(
                f"stages cover {self.total_layers} layers, model has "
                f"{model.num_layers}"
            )
        if self.total_gpus != cluster.total_gpus:
            raise PlanValidationError(
                f"plan uses {self.total_gpus} GPUs, cluster has "
                f"{cluster.total_gpus}"
            )
        samples = self.global_batch / self.gacc
        for idx, stage in enumerate(self.stages):
            if stage.samples_per_microbatch != samples:
                raise PlanValidationError(
                    f"stage {idx}: dp*b = {stage.samples_per_microbatch} but "
                    f"global_batch/gacc = {samples}"
                )
            if model.hidden_size % stage.tp != 0:
                raise PlanValidationError(
                    f"stage {idx}: TP={stage.tp} does not divide hidden size"
                )
        self._validate_groups(reduce_fleet(cluster))
        if self.global_batch % self.gacc != 0:
            raise PlanValidationError(
                f"global batch {self.global_batch} not divisible by "
                f"G={self.gacc}"
            )

    def _validate_groups(
            self, cluster: "ClusterSpec | HeterogeneousCluster") -> None:
        """Group checks: tags resolve, TP fits the hosting group's
        nodes, each group's stages are contiguous and use its GPUs. A
        plain cluster is the one group ``""`` that every tag resolves
        to, so only the TP check can fail there."""
        used: dict[str, int] = {}
        order: list[str] = []
        for idx, stage in enumerate(self.stages):
            try:
                name, group = cluster.stage_group(stage.device_group)
            except KeyError as exc:
                raise PlanValidationError(
                    f"stage {idx}: {exc.args[0]}"
                ) from None
            if stage.tp > group.gpus_per_node:
                where = f" of group {name!r}" if name else ""
                raise PlanValidationError(
                    f"stage {idx}: TP={stage.tp} exceeds node size "
                    f"{group.gpus_per_node}{where}"
                )
            used[name] = used.get(name, 0) + stage.gpus
            if not order or order[-1] != name:
                order.append(name)
        if len(order) != len(set(order)):
            raise PlanValidationError(
                f"stages of one device group must be contiguous, got "
                f"group order {order}"
            )
        for name, group in cluster.sub_clusters:
            if used.get(name, 0) != group.total_gpus:
                raise PlanValidationError(
                    f"group {name!r}: stages use "
                    f"{used.get(name, 0)} GPUs, group has "
                    f"{group.total_gpus}"
                )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in PLAN.fields}
        return dict(out, stages=[stage.to_dict() for stage in self.stages])

    @classmethod
    def from_dict(cls, data: dict, what: str = "plan") -> "TrainingPlan":
        fields = decode(PLAN, data, what, PlanValidationError)
        return cls(**dict(
            fields, metadata=dict(fields["metadata"]), stages=tuple(
                StageConfig.from_dict(stage, f"{what}.stages[{index}]")
                for index, stage in enumerate(fields["stages"]))))

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TrainingPlan":
        return cls.from_dict(loads(text, "plan"))

    def describe(self) -> str:
        lines = [
            f"plan[{self.source}]: B={self.global_batch} G={self.gacc} "
            f"S={self.num_stages} gpus={self.total_gpus}"
        ]
        for idx, stage in enumerate(self.stages):
            lines.append(f"  stage {idx}: {stage.describe()}")
        return "\n".join(lines)


#: the offloading ratios of a stage
_RATIO_FIELDS = ("wo", "go", "oo", "ao")

#: one pipeline stage (``StageConfig.to_dict``); ``ckpt <= layers`` is
#: checked when the stage is built
STAGE = Table("stage", (
    Field("layers", Int(ge=0)),
    Field("microbatch", Int(ge=1)),
    Field("dp", Int(ge=1)),
    Field("tp", Int(ge=1)),
    Field("zero", Int(ge=0, le=3), StageConfig.zero),
    Field("ckpt", Int(ge=0), StageConfig.ckpt),
    *(Field(name, Num(ge=0, le=1), 0.0) for name in _RATIO_FIELDS),
    Field("device_group", Str(), StageConfig.device_group),
))
#: a training plan (``TrainingPlan.to_dict``); each stage is a
#: :data:`STAGE`
PLAN = Table("plan", (
    Field("global_batch", Int(ge=1)),
    Field("gacc", Int(ge=1)),
    Field("stages", List(OBJECT, nonempty=True)),
    Field("source", Str(), TrainingPlan.source),
    Field("metadata", OBJECT, {}),
))


def uniform_plan(model: ModelConfig, cluster: ClusterSpec, *, global_batch: int,
                 gacc: int, num_stages: int, dp: int, tp: int, zero: int = 0,
                 ckpt_all: bool = False, **offloads: float) -> TrainingPlan:
    """Helper: identical configuration for every stage (baseline style)."""
    if model.num_layers % num_stages != 0:
        raise PlanValidationError(
            f"{model.num_layers} layers not divisible into {num_stages} stages"
        )
    layers = model.num_layers // num_stages
    microbatch = global_batch // (gacc * dp)
    if microbatch * gacc * dp != global_batch:
        raise PlanValidationError("global batch not divisible by G*dp")
    stage = StageConfig(
        layers=layers, microbatch=microbatch, dp=dp, tp=tp, zero=zero,
        ckpt=layers if ckpt_all else 0, **offloads,
    )
    return TrainingPlan(
        global_batch=global_batch, gacc=gacc,
        stages=tuple(stage for _ in range(num_stages)),
        source="uniform",
    )
