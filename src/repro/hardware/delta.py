"""Cluster deltas: declarative changes to a running fleet.

Elastic training reacts to the fleet changing under it — spot nodes
preempted, stragglers drained, a rack of different GPUs joining, a
degraded inter-group link. :class:`ClusterDelta` expresses those
events as an ordered list of operations against the cluster JSON
schema of :func:`repro.hardware.topology.cluster_from_dict`, so the
same delta document can be shipped to the tuning service
(``POST /replan``), the CLI (``repro replan --delta``), and campaign
scenarios.

Operations (each a plain dict with an ``"op"`` key):

``add_nodes`` / ``remove_nodes``
    Grow or shrink a device group (or a homogeneous cluster) by whole
    nodes. ``{"op": "add_nodes", "count": 2, "group": "l4"}``.
``resize_group``
    Set a group's shape outright:
    ``{"op": "resize_group", "group": "l4", "num_nodes": 1,
    "gpus_per_node": 4}`` (either key may be omitted to keep it).
``retype_group``
    Swap the GPU type of a group:
    ``{"op": "retype_group", "group": "l4", "gpu": "A100-40GB"}``.
``remove_group``
    Drop a device group entirely (spot preemption of a whole slice).
``degrade_link``
    Scale a bandwidth by ``factor`` in (0, 1]: ``link`` is
    ``"inter_node"`` (per group) or ``"inter_group"`` (the link
    joining groups). Factors > 1 are allowed and model a repaired /
    upgraded link.

Each op is checked when the delta is built, before it touches a
cluster, and a malformed one raises :class:`DeltaError`: ``count``,
``num_nodes`` and ``gpus_per_node`` must be plain integers (not a bool,
float or string), ``count`` at least 1 on ``add_nodes`` and
``remove_nodes``; ``gpu`` a known GPU name; ``factor`` a finite real
number > 0 (not a bool or string); ``link`` ``"inter_node"`` or
``"inter_group"``; ``group`` a string.

Deltas are pure: :meth:`ClusterDelta.apply` returns a new cluster and
never mutates its input. Applying a delta to a homogeneous cluster
treats it as its own single group addressed by ``group=""``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .gpu import get_gpu
from .topology import (
    ClusterSpec,
    HeterogeneousCluster,
    cluster_from_dict,
    cluster_to_dict,
)

__all__ = ["ClusterDelta", "DeltaError"]

_OPS = ("add_nodes", "remove_nodes", "resize_group", "retype_group",
        "remove_group", "degrade_link")

#: op fields that count nodes or GPUs
_INT_FIELDS = ("count", "num_nodes", "gpus_per_node")

#: the bandwidths ``degrade_link`` can scale
_LINKS = ("inter_node", "inter_group")


class DeltaError(ValueError):
    """A delta is malformed or cannot apply to the given cluster."""


def _as_op(data: Any) -> dict[str, Any]:
    """``data`` as an op dict, checked but never converted (so valid
    ops keep their fingerprints), or :class:`DeltaError`."""
    if not isinstance(data, Mapping):
        raise DeltaError(f"a delta op must be an object, got {data!r}")
    op = dict(data)
    kind = op.get("op")
    if kind not in _OPS:
        raise DeltaError(f"unknown delta op {kind!r}; known: {list(_OPS)}")
    for key in _INT_FIELDS:
        value = op.get(key, 0)
        # a plain int: int() would turn 1.5, "1" and True into counts
        if isinstance(value, bool) or not isinstance(value, int):
            raise DeltaError(
                f"{kind} {key!r} must be an integer, got {value!r}")
    if kind in ("add_nodes", "remove_nodes") and op.get("count", 0) < 1:
        raise DeltaError(f"{kind} needs a positive 'count'")
    if not isinstance(op.get("group", ""), str):
        raise DeltaError(
            f"{kind} 'group' must be a string, got {op['group']!r}")
    if kind == "retype_group":
        gpu = op.get("gpu")
        try:
            get_gpu(gpu)
        except (AttributeError, KeyError):
            raise DeltaError(
                f"retype_group needs a known 'gpu', got {gpu!r}") from None
    elif kind == "degrade_link":
        factor = op.get("factor")
        # compared, not converted: float() of a huge int overflows
        if (isinstance(factor, bool) or not isinstance(factor, (int, float))
                or not 0.0 < factor <= sys.float_info.max):
            raise DeltaError(
                f"degrade_link 'factor' must be a finite number > 0, got "
                f"{factor!r}")
        if op.get("link", "inter_node") not in _LINKS:
            raise DeltaError(
                f"degrade_link 'link' must be one of {list(_LINKS)}, got "
                f"{op['link']!r}")
    return op


@dataclass(frozen=True)
class ClusterDelta:
    """An ordered sequence of cluster-change operations.

    Build one from the constructor helpers and combine with ``+``::

        delta = (ClusterDelta.remove_nodes(1, group="l4")
                 + ClusterDelta.degrade_link(0.5, link="inter_group"))
        new_cluster = delta.apply(old_cluster)
    """

    ops: tuple[dict, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(_as_op(op) for op in self.ops))
        if not self.ops:
            raise DeltaError("a ClusterDelta needs at least one operation")

    # -- constructors ------------------------------------------------------

    @classmethod
    def add_nodes(cls, count: int, *, group: str = "") -> "ClusterDelta":
        return cls(ops=({"op": "add_nodes", "count": count,
                         "group": group},))

    @classmethod
    def remove_nodes(cls, count: int, *, group: str = "") -> "ClusterDelta":
        return cls(ops=({"op": "remove_nodes", "count": count,
                         "group": group},))

    @classmethod
    def resize_group(cls, group: str, *, num_nodes: int | None = None,
                     gpus_per_node: int | None = None) -> "ClusterDelta":
        op: dict[str, Any] = {"op": "resize_group", "group": group}
        if num_nodes is not None:
            op["num_nodes"] = num_nodes
        if gpus_per_node is not None:
            op["gpus_per_node"] = gpus_per_node
        return cls(ops=(op,))

    @classmethod
    def retype_group(cls, group: str, gpu: str) -> "ClusterDelta":
        return cls(ops=({"op": "retype_group", "group": group, "gpu": gpu},))

    @classmethod
    def remove_group(cls, group: str) -> "ClusterDelta":
        return cls(ops=({"op": "remove_group", "group": group},))

    @classmethod
    def degrade_link(cls, factor: float, *, link: str = "inter_node",
                     group: str = "") -> "ClusterDelta":
        op: dict[str, Any] = {"op": "degrade_link", "factor": float(factor),
                              "link": link}
        if group:
            op["group"] = group
        return cls(ops=(op,))

    def __add__(self, other: "ClusterDelta") -> "ClusterDelta":
        if not isinstance(other, ClusterDelta):
            return NotImplemented
        return ClusterDelta(ops=self.ops + other.ops)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"ops": [dict(op) for op in self.ops]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterDelta":
        if not isinstance(data, Mapping) or "ops" not in data:
            raise DeltaError('a delta document is {"ops": [...]}')
        ops = data["ops"]
        if not isinstance(ops, list):
            raise DeltaError("'ops' must be a list of operation objects")
        return cls(ops=tuple(ops))

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ClusterDelta":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable short hash of the canonical JSON form."""
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        parts = []
        for op in self.ops:
            kind = op["op"]
            group = op.get("group", "")
            tag = f"@{group}" if group else ""
            if kind in ("add_nodes", "remove_nodes"):
                sign = "+" if kind == "add_nodes" else "-"
                parts.append(f"{sign}{op['count']}node{tag}")
            elif kind == "resize_group":
                shape = "x".join(str(op[k]) for k in
                                 ("num_nodes", "gpus_per_node") if k in op)
                parts.append(f"resize{tag}={shape}")
            elif kind == "retype_group":
                parts.append(f"retype{tag}={op['gpu']}")
            elif kind == "remove_group":
                parts.append(f"drop{tag}")
            else:
                parts.append(f"{op.get('link', 'inter_node')}"
                             f"{tag}x{op['factor']}")
        return ",".join(parts)

    # -- application -------------------------------------------------------

    def apply(self, cluster: "ClusterSpec | HeterogeneousCluster | dict"
              ) -> "ClusterSpec | HeterogeneousCluster | dict":
        """Apply every operation in order; returns the changed cluster.

        Accepts a cluster object or its dict form and returns the same
        kind. A dict is parsed first, so both forms apply to the same
        canonical dict (every default filled in, bandwidths in bytes/s).
        The result is validated by a
        :func:`~repro.hardware.topology.cluster_from_dict` round-trip,
        so an impossible outcome (zero nodes, no groups left) raises
        :class:`DeltaError` rather than producing a broken cluster.
        """
        as_dict = isinstance(cluster, dict)
        data = cluster_to_dict(
            _parse(cluster, "is applied to") if as_dict else cluster)
        grouped = "groups" in data
        # a fresh dict, so the ops may edit it in place
        groups: list[dict] = data["groups"] if grouped else [data]
        for op in self.ops:
            self._apply_op(op, data, groups, grouped)
        if grouped and not groups:
            raise DeltaError("delta removed every device group")
        result = _parse(data, "leaves")
        return cluster_to_dict(result) if as_dict else result

    def _apply_op(self, op: dict, data: dict, groups: list[dict],
                  grouped: bool) -> None:
        kind = op["op"]
        if kind == "degrade_link" and op.get("link", "inter_node") == "inter_group":
            if not grouped:
                raise DeltaError(
                    "inter_group link delta on a homogeneous cluster")
            data["inter_group_bandwidth"] *= op["factor"]
            return
        group = self._group(op, groups, grouped)
        if kind == "add_nodes":
            group["num_nodes"] += op["count"]
        elif kind == "remove_nodes":
            remaining = group["num_nodes"] - op["count"]
            if remaining < 1:
                raise DeltaError(
                    f"removing {op['count']} node(s) leaves group "
                    f"{op.get('group') or group.get('name', '')!r} empty; "
                    "use remove_group instead")
            group["num_nodes"] = remaining
        elif kind == "resize_group":
            if "num_nodes" in op:
                group["num_nodes"] = op["num_nodes"]
            if "gpus_per_node" in op:
                group["gpus_per_node"] = op["gpus_per_node"]
        elif kind == "retype_group":
            group["gpu"] = get_gpu(op["gpu"]).name
        elif kind == "remove_group":
            if not grouped:
                raise DeltaError(
                    "remove_group on a homogeneous cluster would leave "
                    "nothing; shrink it with remove_nodes instead")
            groups.remove(group)
        else:  # degrade_link, inter_node scope
            group["inter_node_bandwidth"] *= op["factor"]

    @staticmethod
    def _group(op: dict, groups: list[dict], grouped: bool) -> dict:
        name = op.get("group", "")
        if not grouped:
            if name:
                raise DeltaError(
                    f"homogeneous cluster has no group {name!r}")
            return groups[0]
        if not name:
            if len(groups) == 1:
                return groups[0]
            raise DeltaError(
                f"op {op['op']!r} needs a 'group' on a cluster with "
                f"{len(groups)} groups")
        for group in groups:
            if group["name"] == name:
                return group
        known = [g["name"] for g in groups]
        raise DeltaError(f"unknown device group {name!r}; known: {known}")


def _parse(data: dict, verb: str) -> "ClusterSpec | HeterogeneousCluster":
    """``cluster_from_dict``, failing as a :class:`DeltaError`."""
    try:
        return cluster_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if exc.args else exc
        raise DeltaError(
            f"delta {verb} an invalid cluster: {detail}") from exc
