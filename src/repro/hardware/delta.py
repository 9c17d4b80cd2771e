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

``count``, ``num_nodes`` and ``gpus_per_node`` must be plain integers
(not a bool, float or string); anything else raises :class:`DeltaError`
when the delta is built, before it touches a cluster.

Deltas are pure: :meth:`ClusterDelta.apply` returns a new cluster and
never mutates its input. Applying a delta to a homogeneous cluster
treats it as its own single group addressed by ``group=""``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
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


class DeltaError(ValueError):
    """A delta is malformed or cannot apply to the given cluster."""


def _as_op(data: Mapping[str, Any]) -> dict[str, Any]:
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
        kind. The result is validated by a
        :func:`~repro.hardware.topology.cluster_from_dict` round-trip,
        so an impossible outcome (zero nodes, no groups left) raises
        :class:`DeltaError` rather than producing a broken cluster.
        """
        as_dict = isinstance(cluster, dict)
        data = copy.deepcopy(cluster) if as_dict else cluster_to_dict(cluster)
        grouped = "groups" in data
        groups: list[dict]
        if grouped:
            groups = [dict(g) for g in data["groups"]]
        else:
            groups = [dict(data)]
        for op in self.ops:
            self._apply_op(op, data, groups, grouped)
        if grouped:
            if not groups:
                raise DeltaError("delta removed every device group")
            data["groups"] = groups
        else:
            data = dict(groups[0])
        try:
            result = cluster_from_dict(data)  # validates the outcome
        except (KeyError, TypeError, ValueError) as exc:
            detail = exc.args[0] if exc.args else exc
            raise DeltaError(
                f"delta leaves an invalid cluster: {detail}") from exc
        return cluster_to_dict(result) if as_dict else result

    def _apply_op(self, op: dict, data: dict, groups: list[dict],
                  grouped: bool) -> None:
        kind = op["op"]
        if kind == "degrade_link" and op.get("link", "inter_node") == "inter_group":
            if not grouped:
                raise DeltaError(
                    "inter_group link delta on a homogeneous cluster")
            factor = self._factor(op)
            data["inter_group_bandwidth"] = (
                self._bandwidth(data, "inter_group_bandwidth",
                                HeterogeneousCluster.inter_group_bandwidth)
                * factor)
            data.pop("inter_group_bandwidth_gbps", None)
            return
        group = self._group(op, groups, grouped)
        if kind == "add_nodes":
            group["num_nodes"] = self._nodes(group) + self._count(op)
        elif kind == "remove_nodes":
            remaining = self._nodes(group) - self._count(op)
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
            group["gpu"] = get_gpu(str(op["gpu"])).name
        elif kind == "remove_group":
            if not grouped:
                raise DeltaError(
                    "remove_group on a homogeneous cluster would leave "
                    "nothing; shrink it with remove_nodes instead")
            groups.remove(group)
        else:  # degrade_link, inter_node scope
            factor = self._factor(op)
            default = group.get("inter_node_bandwidth")
            if default is None and "inter_node_bandwidth_gbps" not in group:
                raise DeltaError(
                    "degrade_link needs an explicit inter_node_bandwidth "
                    "on the target group")
            group["inter_node_bandwidth"] = (
                self._bandwidth(group, "inter_node_bandwidth", 0.0) * factor)
            group.pop("inter_node_bandwidth_gbps", None)

    @staticmethod
    def _group(op: dict, groups: list[dict], grouped: bool) -> dict:
        name = str(op.get("group", "") or "")
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
            if str(group.get("name", "") or group.get("gpu", "").lower()) == name:
                return group
        known = [str(g.get("name", "") or g.get("gpu", "").lower())
                 for g in groups]
        raise DeltaError(f"unknown device group {name!r}; known: {known}")

    @staticmethod
    def _count(op: dict) -> int:
        count = op.get("count", 0)
        if count < 1:
            raise DeltaError(f"{op['op']} needs a positive 'count'")
        return count

    @staticmethod
    def _factor(op: dict) -> float:
        factor = float(op.get("factor", 0.0))
        if not (math.isfinite(factor) and factor > 0.0):
            raise DeltaError(
                f"degrade_link 'factor' must be finite and > 0, got "
                f"{factor!r}")
        return factor

    @staticmethod
    def _nodes(group: dict) -> int:
        return int(group.get("num_nodes", 1))

    @staticmethod
    def _bandwidth(data: dict, key: str, default: float) -> float:
        if f"{key}_gbps" in data:
            return float(data[f"{key}_gbps"]) * 1e9 / 8
        return float(data.get(key, default))
