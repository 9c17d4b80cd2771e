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

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any

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

#: interference-model policies a job may request
_INTERFERENCE_POLICIES = ("auto", "none")
#: fields that must be plain ``int`` (not ``bool``, not ``float``)
_INT_FIELDS = ("num_gpus", "global_batch", "seq_len", "keep_top")

#: node size of the homogeneous cluster implied by ``gpu`` / ``num_gpus``
GPUS_PER_NODE = 8


class JobValidationError(ValueError):
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
    #: interference model; "none" disables interference-aware prediction
    interference: str = "auto"
    #: number of top predicted plans the solver may execute/verify
    keep_top: int = 3
    #: explicit cluster topology (repro.hardware.cluster_from_dict
    #: schema); None = homogeneous cluster implied by gpu/num_gpus
    cluster: dict | None = None
    #: free-form per-solver knobs (must stay JSON-serializable)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            # bool is an int subclass, and 32.0 would fingerprint apart
            # from 32
            if isinstance(value, bool) or not isinstance(value, int):
                raise JobValidationError(
                    f"{name} must be an integer, got {value!r}")
        if not isinstance(self.flash, bool):
            raise JobValidationError(
                f"flash must be true or false, got {self.flash!r}")
        if not isinstance(self.options, dict):
            raise JobValidationError(
                f"options must be an object, got {self.options!r}")
        # json.loads takes NaN/Infinity; they must not echo back as JSON
        try:
            json.dumps(self.options, allow_nan=False, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"options must be plain JSON: {exc}") from None
        for name, kinds, resolve in (
                ("model", str, self.resolved_model),
                ("gpu", str, lambda: get_gpu(self.gpu)),
                ("space", (str, dict), self.resolved_space),
                ("scale", (str, dict), self.resolved_scale)):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise JobValidationError(
                    f"{name} must be a name"
                    f"{'' if kinds is str else ' or an object'}, "
                    f"got {value!r}")
            try:
                resolve()
            except (KeyError, TypeError, ValueError) as exc:
                detail = exc.args[0] if exc.args else exc
                if isinstance(exc, KeyError) and isinstance(value, dict):
                    detail = f"missing field {detail!r}"
                raise JobValidationError(
                    f"invalid {name}: {detail}") from exc
        if self.num_gpus < 1:
            raise JobValidationError("num_gpus must be >= 1")
        if self.cluster is not None:
            try:
                parsed = cluster_from_dict(self.cluster)
            except (KeyError, TypeError, ValueError) as exc:
                raise JobValidationError(
                    f"invalid cluster description: {exc}"
                ) from exc
            if parsed.total_gpus != self.num_gpus:
                raise JobValidationError(
                    f"cluster has {parsed.total_gpus} GPUs but "
                    f"num_gpus={self.num_gpus}"
                )
        elif (self.num_gpus > GPUS_PER_NODE
              and self.num_gpus % GPUS_PER_NODE):
            raise JobValidationError(
                f"num_gpus={self.num_gpus} does not fill whole "
                f"{GPUS_PER_NODE}-GPU nodes; describe an irregular shape "
                f"with cluster={{...}}"
            )
        if self.global_batch < 1:
            raise JobValidationError("global_batch must be >= 1")
        if self.seq_len < 1:
            raise JobValidationError("seq_len must be >= 1")
        if self.keep_top < 1:
            raise JobValidationError("keep_top must be >= 1")
        if self.interference not in _INTERFERENCE_POLICIES:
            raise JobValidationError(
                f"interference must be one of {_INTERFERENCE_POLICIES}, "
                f"got {self.interference!r}"
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
            return cluster_from_dict(self.cluster)
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
        try:
            data = (dict(cluster) if isinstance(cluster, Mapping)
                    else cluster_to_dict(cluster))
            parsed = cluster_from_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise JobValidationError(
                f"invalid cluster description: {exc}"
            ) from exc
        gpu = parsed.sub_clusters[0][1].gpu
        return cls(model=model, gpu=gpu.name, num_gpus=parsed.total_gpus,
                   global_batch=global_batch, seq_len=seq_len, flash=flash,
                   cluster=data, **kwargs)

    def resolved_space(self) -> SearchSpace:
        if isinstance(self.space, str):
            return get_space(self.space)
        return space_from_dict(self.space)

    def resolved_scale(self) -> TuningScale:
        if isinstance(self.scale, str):
            return get_scale(self.scale)
        return scale_from_dict(self.scale)

    def with_(self, **changes: Any) -> "TuningJob":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "gpu": self.gpu,
            "num_gpus": self.num_gpus,
            "global_batch": self.global_batch,
            "seq_len": self.seq_len,
            "flash": self.flash,
            "space": self.space,
            "scale": self.scale,
            "interference": self.interference,
            "keep_top": self.keep_top,
            "options": self.options,
        }
        # serialized only when explicit, so pre-existing jobs keep their
        # dict shape — and, below, their cache fingerprints
        if self.cluster is not None:
            out["cluster"] = self.cluster
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TuningJob":
        # unknown keys are ignored: older documents may still carry the
        # removed "engine" (1.x) or "parallelism" (2.x) fields, and must
        # load (and fingerprint) as if they were absent
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TuningJob":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable content hash — the on-disk plan-cache key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]
