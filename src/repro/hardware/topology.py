"""Cluster topology: nodes, device meshes, and communication groups.

The paper's tuning problem is posed over a device mesh ``(N, M)`` —
``N`` nodes with ``M`` GPUs each. Pipeline stages receive contiguous
GPU ranges; within a stage the GPUs form a ``DP x TP`` grid with TP
groups packed into nodes whenever they fit (the standard Megatron-LM
placement, which both the paper and all baselines assume).

:class:`CommGroup` captures what the communication cost model needs to
price a collective: group size, how many nodes it spans, and the
per-rank bottleneck bandwidth.

Mixed fleets are modelled by :class:`HeterogeneousCluster`: an ordered
sequence of named :class:`DeviceGroup`\\ s, each a homogeneous
sub-cluster with its own :class:`~repro.hardware.gpu.GPUSpec` and
network, linked by an inter-group bandwidth the pipeline crosses when
adjacent stages live on different groups.

Both cluster kinds answer one group interface, so callers never ask
which kind they hold: ``sub_clusters`` lists the ``(name,
sub-cluster)`` device groups (a :class:`ClusterSpec` is the single
group ``("", self)``), ``stage_group(tag)`` resolves a stage's group
tag (a :class:`ClusterSpec` answers itself for any tag), and
``p2p_links(stage_groups)`` says which stages cross the inter-group
link. A one-group fleet is equivalent to its plain :class:`ClusterSpec`;
:func:`reduce_fleet` is the one place that reduces it.

Both cluster kinds serialize to plain dicts (:func:`cluster_to_dict` /
:func:`cluster_from_dict`) — the schema behind ``TuningJob.cluster``
and the CLI's ``--cluster file.json`` (see ``docs/API.md``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.schema import (DecodeError, Field, Int, List, Name, Num, Str,
                               Table, decode, loads)

from .gpu import GPUSpec, get_gpu

__all__ = [
    "ClusterSpec",
    "CommGroup",
    "DeviceGroup",
    "HeterogeneousCluster",
    "cluster_from_dict",
    "cluster_to_dict",
    "load_cluster",
    "make_cluster",
    "reduce_fleet",
]


def _check_links(spec, bandwidths: tuple[str, ...],
                 latencies: tuple[str, ...]) -> None:
    """Reject non-finite or non-positive bandwidths and non-finite or
    negative latencies among ``spec``'s named fields."""
    for names, kind in ((bandwidths, _BANDWIDTH), (latencies, _LATENCY)):
        for name in names:
            kind.check(getattr(spec, name), name)


@dataclass(frozen=True)
class CommGroup:
    """A set of ranks participating in one collective."""

    size: int
    #: number of distinct nodes the group spans
    nodes_spanned: int
    #: effective per-rank bus bandwidth (bytes/s) for ring collectives
    bus_bandwidth: float
    #: per-hop latency (seconds)
    latency: float


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``num_nodes`` nodes x ``gpus_per_node`` GPUs."""

    gpu: GPUSpec
    num_nodes: int
    gpus_per_node: int
    #: per-node network bandwidth (bytes/s); Table 3: 100 Gbps (L4 nodes),
    #: 400 Gbps (A100 nodes)
    inter_node_bandwidth: float
    #: one-way network latency, seconds
    inter_node_latency: float = 12.0e-6
    #: intra-node hop latency, seconds
    intra_node_latency: float = 3.0e-6

    def __post_init__(self):
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise DecodeError(
                "cluster must have at least one node and one GPU")
        _check_links(self, ("inter_node_bandwidth",),
                     ("inter_node_latency", "intra_node_latency"))

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def name(self) -> str:
        return f"{self.num_nodes}x{self.gpus_per_node}x{self.gpu.name}"

    # -- group construction ----------------------------------------------

    def group(self, size: int) -> CommGroup:
        """Build a :class:`CommGroup` for ``size`` ranks placed contiguously."""
        if size < 1:
            raise ValueError("group size must be >= 1")
        if size > self.total_gpus:
            raise ValueError(
                f"group of {size} exceeds cluster of {self.total_gpus} GPUs"
            )
        if size <= self.gpus_per_node:
            nodes = 1
        else:
            nodes = -(-size // self.gpus_per_node)  # ceil
        if nodes == 1:
            bw = self.gpu.gpu_gpu_bandwidth
            lat = self.intra_node_latency
        else:
            ranks_per_node = size / nodes
            # Ring crossing nodes: each inter-node edge carries the ring
            # traffic of all ranks on the node through one NIC.
            inter_bw_per_rank = self.inter_node_bandwidth / ranks_per_node
            bw = min(self.gpu.gpu_gpu_bandwidth, inter_bw_per_rank)
            lat = self.inter_node_latency
        return CommGroup(size=size, nodes_spanned=nodes, bus_bandwidth=bw, latency=lat)

    def tp_group(self, tp: int) -> CommGroup:
        """Tensor-parallel group (packed within a node when possible)."""
        return self.group(tp)

    def dp_group(self, dp: int, tp: int) -> CommGroup:
        """Data-parallel group of ``dp`` ranks, strided by ``tp``.

        When ``tp * dp`` fits in one node, the DP group is intra-node.
        Otherwise DP ranks with the same TP index live on different
        nodes, so DP collectives cross the network.
        """
        if dp == 1:
            return CommGroup(1, 1, self.gpu.gpu_gpu_bandwidth, self.intra_node_latency)
        if tp * dp <= self.gpus_per_node:
            return self.group(dp)
        # DP ranks are spread across ceil(dp*tp/M) nodes; each node hosts
        # M/tp of them and they all share the NIC.
        ranks_per_node = max(1, self.gpus_per_node // max(tp, 1))
        ranks_per_node = min(ranks_per_node, dp)
        nodes = -(-dp // ranks_per_node)
        inter_bw_per_rank = self.inter_node_bandwidth / ranks_per_node
        bw = min(self.gpu.gpu_gpu_bandwidth, inter_bw_per_rank)
        return CommGroup(size=dp, nodes_spanned=nodes, bus_bandwidth=bw,
                         latency=self.inter_node_latency)

    def p2p_bandwidth(self, stage_gpus: int) -> float:
        """Pipeline p2p bandwidth between adjacent stages.

        If consecutive stages live on the same node the transfer uses the
        intra-node fabric; once a stage occupies one or more full nodes,
        activations cross the network.
        """
        if stage_gpus < self.gpus_per_node or self.num_nodes == 1:
            return self.gpu.gpu_gpu_bandwidth
        return self.inter_node_bandwidth

    def p2p_latency(self, stage_gpus: int) -> float:
        if stage_gpus < self.gpus_per_node or self.num_nodes == 1:
            return self.intra_node_latency
        return self.inter_node_latency

    # -- the group interface (see HeterogeneousCluster) ---------------------

    @property
    def sub_clusters(self) -> tuple[tuple[str, ClusterSpec], ...]:
        """A plain cluster is the one device group ``("", self)``."""
        return (("", self),)

    def stage_group(self, device_group: str) -> tuple[str, ClusterSpec]:
        """Every stage runs on the one group, whatever its tag."""
        return ("", self)

    def p2p_links(self, stage_groups: Sequence[str],
                  ) -> list[tuple[float, float] | None]:
        """No inter-group links."""
        return [None] * len(stage_groups)

    # -- mesh enumeration ---------------------------------------------------

    def stage_parallelism_options(self, stage_gpus: int) -> list[tuple[int, int]]:
        """All ``(dp, tp)`` grids for a stage owning ``stage_gpus`` GPUs.

        TP is restricted to powers of two that fit within a node — TP
        across PCIe/network is never competitive and the paper's
        baselines make the same restriction.
        """
        options = []
        tp = 1
        while tp <= stage_gpus and tp <= self.gpus_per_node:
            if stage_gpus % tp == 0:
                options.append((stage_gpus // tp, tp))
            tp *= 2
        return options

    def pipeline_stage_counts(self, max_stages: int | None = None) -> list[int]:
        """Candidate pipeline sizes: powers of two dividing the cluster."""
        limit = self.total_gpus if max_stages is None else min(max_stages, self.total_gpus)
        sizes = []
        s = 1
        while s <= limit:
            if self.total_gpus % s == 0:
                sizes.append(s)
            s *= 2
        return sizes


def make_cluster(gpu_name: str, num_nodes: int, gpus_per_node: int) -> ClusterSpec:
    """Convenience constructor with Table 3 network defaults per GPU type."""
    gpu = get_gpu(gpu_name)
    return ClusterSpec(
        gpu=gpu,
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        inter_node_bandwidth=_default_network_bandwidth(gpu),
    )


def _default_network_bandwidth(gpu: GPUSpec) -> float:
    """Table 3 per-node network defaults by GPU type (bytes/s)."""
    if gpu.name.startswith("A100"):
        return 400e9 / 8  # 400 Gbps
    if gpu.name.startswith("H100"):
        return 3200e9 / 8
    return 100e9 / 8  # L4 nodes and anything unlisted: 100 Gbps


# -- heterogeneous clusters ------------------------------------------------


@dataclass(frozen=True)
class DeviceGroup:
    """A named homogeneous slice of a mixed fleet.

    The group behaves as its own :class:`ClusterSpec`: pipeline stages
    placed on the group form ``DP x TP`` grids inside it, collectives
    are priced with its fabric, and its GPU's memory bounds the stages
    it hosts.
    """

    name: str
    cluster: ClusterSpec

    def __post_init__(self):
        if not self.name:
            raise DecodeError("device group needs a non-empty name")

    @property
    def gpu(self) -> GPUSpec:
        return self.cluster.gpu

    @property
    def total_gpus(self) -> int:
        return self.cluster.total_gpus

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def gpus_per_node(self) -> int:
        return self.cluster.gpus_per_node

    def describe(self) -> str:
        gpu = self.gpu
        fabric = (f"NVLink {gpu.nvlink_bandwidth / 1e9:.0f} GB/s"
                  if gpu.has_nvlink else "PCIe only")
        net = self.cluster.inter_node_bandwidth * 8 / 1e9
        return (f"{self.name}: {self.num_nodes} node(s) x "
                f"{self.gpus_per_node} x {gpu.name}  "
                f"mem {gpu.memory_gb:.0f} GB  {fabric}  net {net:.0f} Gbps")


@dataclass(frozen=True)
class HeterogeneousCluster:
    """An ordered mixed fleet: pipeline flows through groups in order.

    Stage placement is per *group* (the paper's contiguous-range rule
    applied within each homogeneous slice): every pipeline stage is
    assigned to exactly one group, stages on the same group are
    contiguous, and activations crossing a group boundary travel over
    ``inter_group_bandwidth``.
    """

    groups: tuple[DeviceGroup, ...]
    #: bandwidth of the link between device groups (bytes/s); mixed
    #: fleets are typically joined by the slower datacenter network
    inter_group_bandwidth: float = 100e9 / 8
    #: one-way latency across the inter-group link, seconds
    inter_group_latency: float = 25.0e-6

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise DecodeError("heterogeneous cluster needs at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise DecodeError(f"duplicate device-group names: {names}")
        _check_links(self, ("inter_group_bandwidth",),
                     ("inter_group_latency",))

    @property
    def total_gpus(self) -> int:
        return sum(g.total_gpus for g in self.groups)

    @property
    def is_homogeneous(self) -> bool:
        """True when a single group makes this a plain cluster."""
        return len(self.groups) == 1

    @property
    def name(self) -> str:
        return "+".join(f"{g.total_gpus}x{g.gpu.name}" for g in self.groups)

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.groups)

    def group_named(self, name: str) -> DeviceGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(
            f"unknown device group {name!r}; known: {list(self.group_names)}"
        )

    # -- the group interface (shared with ClusterSpec) ---------------------

    @property
    def sub_clusters(self) -> tuple[tuple[str, ClusterSpec], ...]:
        """The ``(name, sub-cluster)`` device groups, in pipeline order."""
        return tuple((g.name, g.cluster) for g in self.groups)

    def stage_group(self, device_group: str) -> tuple[str, ClusterSpec]:
        """``(name, sub-cluster)`` of the group hosting a stage tagged
        ``device_group``; '' is allowed only when unambiguous."""
        if not device_group:
            if self.is_homogeneous:
                return self.sub_clusters[0]
            raise KeyError(
                "stage has no device_group tag but the cluster has "
                f"{len(self.groups)} groups {list(self.group_names)}"
            )
        group = self.group_named(device_group)
        return group.name, group.cluster

    def p2p_links(self, stage_groups: Sequence[str],
                  ) -> list[tuple[float, float] | None]:
        """Per stage (``stage_groups`` in pipeline order), the
        ``(bandwidth, latency)`` of the inter-group link its p2p
        crosses: set when a neighbour stage is on another group, else
        None. The tuner and the execution engine both read it."""
        link = (self.inter_group_bandwidth, self.inter_group_latency)
        last = len(stage_groups) - 1
        return [link if (idx > 0 and stage_groups[idx - 1] != group)
                or (idx < last and stage_groups[idx + 1] != group) else None
                for idx, group in enumerate(stage_groups)]

    # -- worst-case homogeneous view (baseline fallback) -----------------

    def worst_gpu(self) -> GPUSpec:
        """The most constrained device (min memory, then min FLOPs)."""
        return min((g.gpu for g in self.groups),
                   key=lambda gpu: (gpu.memory_bytes, gpu.peak_fp16_flops))

    def fallback_homogeneous(self) -> ClusterSpec:
        """Conservative homogeneous view for solvers without heterogeneity.

        Every GPU is treated as the worst one and every link as the
        slowest one, so a plan feasible here is feasible on the real
        fleet — at the cost of under-using the larger devices.
        """
        gpu = self.worst_gpu()
        per_node = min(g.gpus_per_node for g in self.groups)
        total = self.total_gpus
        if total % per_node != 0:
            per_node = 1
        return ClusterSpec(
            gpu=gpu,
            num_nodes=total // per_node,
            gpus_per_node=per_node,
            inter_node_bandwidth=min(
                min(g.cluster.inter_node_bandwidth for g in self.groups),
                self.inter_group_bandwidth,
            ),
            inter_node_latency=max(
                max(g.cluster.inter_node_latency for g in self.groups),
                self.inter_group_latency,
            ),
            intra_node_latency=max(
                g.cluster.intra_node_latency for g in self.groups
            ),
        )

    def describe(self) -> str:
        lines = [
            f"heterogeneous cluster: {self.total_gpus} GPUs in "
            f"{len(self.groups)} group(s)"
        ]
        for group in self.groups:
            lines.append(f"  {group.describe()}")
        if not self.is_homogeneous:
            lines.append(
                f"  inter-group link: "
                f"{self.inter_group_bandwidth * 8 / 1e9:.0f} Gbps, "
                f"{self.inter_group_latency * 1e6:.1f} us"
            )
        return "\n".join(lines)


def reduce_fleet(cluster: ClusterSpec | HeterogeneousCluster,
                 ) -> ClusterSpec | HeterogeneousCluster:
    """A one-group fleet's plain sub-cluster; any other cluster as is.

    The one place that reduces a single-group fleet: the parser, the
    tuner, the execution engine and plan validation all go through it,
    so such a fleet plans, runs and validates bit for bit like its
    :class:`ClusterSpec`.
    """
    groups = cluster.sub_clusters
    return groups[0][1] if len(groups) == 1 else cluster


# -- cluster (de)serialization ---------------------------------------------

#: a link bandwidth (bytes/s, or Gbit/s under ``*_gbps``) and latency
#: (seconds, or microseconds under ``*_us``): plain real numbers
_BANDWIDTH = Num(gt=0)
_LATENCY = Num(ge=0)

#: a link key's friendly unit, and its factor to the base unit
_GBPS = ("_gbps", 1e9 / 8)  # Gbit/s -> bytes/s
_US = ("_us", 1e-6)  # microseconds -> seconds


def _unit(key: str) -> tuple[str, float]:
    return _GBPS if key.endswith("bandwidth") else _US


def _link_fields(*keys: str) -> tuple[Field, ...]:
    """Each link key, in its base unit and in its friendly unit."""
    return tuple(Field(key + unit, _BANDWIDTH if key.endswith("bandwidth")
                       else _LATENCY, None)
                 for key in keys for unit in ("", _unit(key)[0]))


#: a homogeneous cluster: ``{"gpu", "num_nodes", "gpus_per_node", ...}``
NODES = Table("cluster description", (
    Field("gpu", Name(get_gpu)),
    Field("num_nodes", Int(), 1),
    Field("gpus_per_node", Int()),
    *_link_fields("inter_node_bandwidth", "inter_node_latency",
                  "intra_node_latency"),
))
#: one device group of a mixed fleet: a named homogeneous cluster
GROUP = Table("group", (Field("name", Str(nonempty=True), None),
                        *NODES.fields))
#: a mixed fleet: ``{"groups": [...], "inter_group_bandwidth", ...}``
FLEET = Table("cluster description", (
    Field("groups", List(GROUP, nonempty=True)),
    *_link_fields("inter_group_bandwidth", "inter_group_latency"),
))


def _read_link(data: dict, path: str, key: str, default: float) -> float:
    """``<key>`` in the base unit, or in its friendly unit, scaled."""
    unit, scale = _unit(key)
    if data[key] is not None and data[key + unit] is not None:
        raise DecodeError(
            f"{path}: give either {key!r} or '{key}{unit}', not both")
    if data[key + unit] is not None:
        return float(data[key + unit]) * scale
    return float(default if data[key] is None else data[key])


def _homogeneous(data: dict, path: str) -> ClusterSpec:
    """A cluster from a decoded :data:`NODES` (or :data:`GROUP`) dict."""
    gpu = get_gpu(data["gpu"])
    return ClusterSpec(
        gpu=gpu, num_nodes=data["num_nodes"],
        gpus_per_node=data["gpus_per_node"],
        inter_node_bandwidth=_read_link(
            data, path, "inter_node_bandwidth",
            _default_network_bandwidth(gpu)),
        inter_node_latency=_read_link(
            data, path, "inter_node_latency",
            ClusterSpec.inter_node_latency),
        intra_node_latency=_read_link(
            data, path, "intra_node_latency",
            ClusterSpec.intra_node_latency),
    )


def cluster_from_dict(data: dict, what: str = "cluster",
                      ) -> "ClusterSpec | HeterogeneousCluster":
    """Parse the cluster schema (see ``docs/API.md``).

    A dict with a ``groups`` list parses to a
    :class:`HeterogeneousCluster` (table :data:`FLEET`); a flat
    ``{"gpu", "num_nodes", "gpus_per_node"}`` dict parses to a plain
    :class:`ClusterSpec` (table :data:`NODES`). GPUs are referenced by
    registry name (:data:`repro.hardware.gpu.GPU_REGISTRY`; an unknown
    one raises :class:`~repro.core.schema.UnknownNameError`, also a
    ``KeyError``); bandwidths accept either bytes/s or human-friendly
    ``*_gbps`` keys. A malformed document raises
    :class:`~repro.core.schema.DecodeError` naming the field path under
    ``what``.
    """
    grouped = isinstance(data, dict) and "groups" in data
    if isinstance(data, dict) and not grouped and "gpu" not in data:
        raise DecodeError(f"{what}: a cluster needs a 'gpu' (one kind of "
                          f"node) or 'groups' (a mixed fleet)")
    fields = decode(FLEET if grouped else NODES, data, what)
    if not grouped:
        return _homogeneous(fields, what)
    groups = []
    for index, entry in enumerate(fields["groups"]):
        path = f"{what}.groups[{index}]"
        entry = GROUP.walk(entry, path)
        groups.append(DeviceGroup(
            name=entry["name"] or entry["gpu"].lower(),
            cluster=_homogeneous(entry, path)))
    return reduce_fleet(HeterogeneousCluster(
        groups=tuple(groups),
        inter_group_bandwidth=_read_link(
            fields, what, "inter_group_bandwidth",
            HeterogeneousCluster.inter_group_bandwidth),
        inter_group_latency=_read_link(
            fields, what, "inter_group_latency",
            HeterogeneousCluster.inter_group_latency),
    ))


def _homogeneous_to_dict(spec: ClusterSpec) -> dict:
    return {
        "gpu": spec.gpu.name,
        "num_nodes": spec.num_nodes,
        "gpus_per_node": spec.gpus_per_node,
        "inter_node_bandwidth": spec.inter_node_bandwidth,
        "inter_node_latency": spec.inter_node_latency,
        "intra_node_latency": spec.intra_node_latency,
    }


def cluster_to_dict(cluster: "ClusterSpec | HeterogeneousCluster") -> dict:
    """Inverse of :func:`cluster_from_dict` (GPU referenced by name)."""
    if isinstance(cluster, ClusterSpec):
        return _homogeneous_to_dict(cluster)
    return {
        "groups": [
            dict(_homogeneous_to_dict(g.cluster), name=g.name)
            for g in cluster.groups
        ],
        "inter_group_bandwidth": cluster.inter_group_bandwidth,
        "inter_group_latency": cluster.inter_group_latency,
    }


def load_cluster(path) -> "ClusterSpec | HeterogeneousCluster":
    """Read a cluster description from a JSON file."""
    with open(path) as fh:
        return cluster_from_dict(loads(fh.read(), "cluster"))
