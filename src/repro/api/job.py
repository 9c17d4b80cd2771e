"""Declarative tuning jobs — the input half of the solver API.

A :class:`TuningJob` pins down everything a solver needs to produce a
:class:`~repro.api.report.SolveReport`: the workload (model, cluster
shape, batch, sequence length), the search space and tuning-scale
preset, the interference-model policy, and the search budget
(``keep_top`` candidate plans to execute).

Jobs are plain data: JSON round-trippable via :meth:`TuningJob.to_json`
/ :meth:`TuningJob.from_json`, and content-addressed via
:meth:`TuningJob.fingerprint` (the plan cache key). Spaces and scales
are stored either as registry slugs (``"mist"``, ``"quick"``) or as
fully inlined dicts for customized instances — both serialize.

Clusters default to the homogeneous shape implied by ``gpu`` /
``num_gpus`` (one node of up to 8 GPUs, or whole 8-GPU nodes); an
explicit ``cluster`` dict (the
:func:`repro.hardware.cluster_from_dict` schema, see ``docs/API.md``)
pins the exact topology and is how heterogeneous fleets — named device
groups with different GPU types — enter the API. Build such jobs with
:meth:`TuningJob.for_cluster`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any

from repro.core.schema import (BOOL, NULL, OBJECT, DecodeError, Field, Int,
                               OneOf, Str, Table, content_hash, decode,
                               loads)
from repro.core.spaces import (
    SearchSpace,
    TuningScale,
    get_scale,
    get_space,
    scale_from_dict,
    space_from_dict,
)
from repro.hardware import (
    ClusterSpec,
    HeterogeneousCluster,
    cluster_from_dict,
    cluster_to_dict,
    get_gpu,
    make_cluster,
)
from repro.models.config import ModelConfig
from repro.models.registry import get_model

__all__ = ["TuningJob", "JobValidationError"]

#: node size of the homogeneous cluster implied by ``gpu`` / ``num_gpus``
GPUS_PER_NODE = 8


class JobValidationError(DecodeError):
    """A job's fields are inconsistent or out of range."""


@dataclass(frozen=True)
class TuningJob:
    """One declarative auto-tuning request.

    ``space`` / ``scale`` accept either a registry slug (see
    ``repro.core.spaces.NAMED_SPACES`` and ``repro.core.spaces.SCALES``)
    or an inlined dict produced by ``space_to_dict`` / ``scale_to_dict``.
    """

    model: str
    num_gpus: int
    global_batch: int
    gpu: str = "L4"
    seq_len: int = 2048
    flash: bool = True
    space: str | dict = "mist"
    scale: str | dict = "quick"
    #: "auto" uses the cluster fabric's checked-in calibrated
    #: interference model; "none" uses the built-in uncalibrated
    #: pairwise factors (InterferenceModel.default for the fabric)
    interference: str = "auto"
    #: number of top predicted plans the solver may execute/verify
    keep_top: int = 3
    #: explicit cluster topology (repro.hardware.cluster_from_dict
    #: schema); None = homogeneous cluster implied by gpu/num_gpus
    cluster: dict | None = None
    #: free-form per-solver knobs (must stay JSON-serializable)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        decode(JOB, self.to_dict(), "job", JobValidationError)
        for name in ("num_gpus", "global_batch", "seq_len", "keep_top"):
            if getattr(self, name) < 1:
                raise JobValidationError(
                    f"job: {name} must be >= 1, got {getattr(self, name)}")
        # json.loads takes NaN/Infinity; they must not echo back as JSON
        try:
            json.dumps(self.options, allow_nan=False, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"job: 'options' must be plain JSON: {exc}") from None
        resolvers = {"model": self.resolved_model,
                     "gpu": lambda: get_gpu(self.gpu),
                     "space": self.resolved_space,
                     "scale": self.resolved_scale}
        if self.cluster is not None:
            resolvers["cluster"] = self.resolved_cluster
        resolved = {}
        for name, resolve in resolvers.items():
            try:
                resolved[name] = resolve()
            except DecodeError as exc:
                raise JobValidationError(f"invalid {name}: {exc}") from None
        if self.cluster is not None:
            total = resolved["cluster"].total_gpus
            if total != self.num_gpus:
                raise JobValidationError(
                    f"cluster has {total} GPUs but num_gpus={self.num_gpus}")
        elif (self.num_gpus > GPUS_PER_NODE
              and self.num_gpus % GPUS_PER_NODE):
            raise JobValidationError(
                f"num_gpus={self.num_gpus} does not fill whole "
                f"{GPUS_PER_NODE}-GPU nodes; describe an irregular shape "
                f"with cluster={{...}}"
            )

    # -- resolution --------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable workload label, e.g.
        ``gpt3-1.3b-L4x2-B16-s2048-flash``; campaign manifests and
        reports group rows by it."""
        where = f"{self.gpu}x{self.num_gpus}"
        if self.cluster is not None:
            cluster = self.resolved_cluster()
            if len(cluster.sub_clusters) > 1:
                where = cluster.name
        return (f"{self.model}-{where}-B{self.global_batch}"
                f"-s{self.seq_len}{'-flash' if self.flash else ''}")

    def resolved_model(self) -> ModelConfig:
        return get_model(self.model)

    def resolved_cluster(self) -> "ClusterSpec | HeterogeneousCluster":
        """The cluster this job tunes for (explicit dict or implied)."""
        if self.cluster is not None:
            return cluster_from_dict(self.cluster, "job.cluster")
        if self.num_gpus <= GPUS_PER_NODE:
            return make_cluster(self.gpu, 1, self.num_gpus)
        return make_cluster(self.gpu, self.num_gpus // GPUS_PER_NODE,
                            GPUS_PER_NODE)

    @property
    def workload(self) -> SimpleNamespace:
        """``model`` and ``cluster``, resolved. Kept only because
        ``bench/run.py`` reads ``job.workload.model`` and
        ``job.workload.cluster``; new code calls :meth:`resolved_model`
        and :meth:`resolved_cluster`."""
        return SimpleNamespace(model=self.resolved_model(),
                               cluster=self.resolved_cluster())

    @classmethod
    def for_cluster(cls,
                    cluster: "dict | ClusterSpec | HeterogeneousCluster",
                    *, model: str, global_batch: int, seq_len: int = 2048,
                    flash: bool = True, **kwargs: Any) -> "TuningJob":
        """Build a job for an explicit (possibly heterogeneous) cluster.

        ``num_gpus`` and ``gpu`` (the first device group's GPU on a
        mixed fleet) are derived from the cluster; all other
        :class:`TuningJob` fields pass through ``kwargs``.
        """
        if isinstance(cluster, Mapping):
            data = dict(cluster)
        elif hasattr(cluster, "sub_clusters"):
            data = cluster_to_dict(cluster)
        else:
            data = cluster  # not a cluster: the parser names it
        try:
            parsed = cluster_from_dict(data, "job.cluster")
        except DecodeError as exc:
            raise JobValidationError(f"invalid cluster: {exc}") from None
        gpu = parsed.sub_clusters[0][1].gpu
        return cls(model=model, gpu=gpu.name, num_gpus=parsed.total_gpus,
                   global_batch=global_batch, seq_len=seq_len, flash=flash,
                   cluster=data, **kwargs)

    def resolved_space(self) -> SearchSpace:
        if isinstance(self.space, str):
            return get_space(self.space)
        return space_from_dict(self.space, "job.space")

    def resolved_scale(self) -> TuningScale:
        if isinstance(self.scale, str):
            return get_scale(self.scale)
        return scale_from_dict(self.scale, "job.scale")

    def with_(self, **changes: Any) -> "TuningJob":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        # the cluster is serialized only when explicit, so pre-existing
        # jobs keep their dict shape — and their cache fingerprints
        return {f.name: getattr(self, f.name) for f in JOB.fields
                if f.name != "cluster" or self.cluster is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "TuningJob":
        # older documents still carry the removed "engine" (1.x) or
        # "parallelism" (2.x) fields; JOB drops them, so they load (and
        # fingerprint) as if they were absent
        fields = decode(JOB, data, "job", JobValidationError)
        return cls(**{key: fields[key] for key in data if key in fields})

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TuningJob":
        return cls.from_dict(loads(text, "job"))

    def fingerprint(self) -> str:
        """Stable content hash — the on-disk plan-cache key."""
        return content_hash(self.to_dict())


#: a job document (``TuningJob.to_dict``); ``model``, ``gpu``, named
#: spaces and scales, and the cluster are resolved after it, and the
#: four counts are checked to be >= 1. The removed ``engine`` (1.x)
#: and ``parallelism`` (2.x) fields are dropped; any other unknown key
#: is rejected
JOB = Table("job", (
    Field("model", Str()),
    Field("gpu", Str(), TuningJob.gpu),
    Field("num_gpus", Int()),
    Field("global_batch", Int()),
    Field("seq_len", Int(), TuningJob.seq_len),
    Field("flash", BOOL, TuningJob.flash),
    Field("space", OneOf(Str(), OBJECT), TuningJob.space),
    Field("scale", OneOf(Str(), OBJECT), TuningJob.scale),
    Field("interference", Str(choices=("auto", "none")),
          TuningJob.interference),
    Field("keep_top", Int(), TuningJob.keep_top),
    Field("options", OBJECT, {}),
    Field("cluster", OneOf(NULL, OBJECT), None),
), ignore=frozenset({"engine", "parallelism"}))
