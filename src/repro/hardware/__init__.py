"""Hardware model: GPU specs and cluster topology (paper Table 3).

Homogeneous clusters are :class:`ClusterSpec`; mixed fleets (e.g.
A100 + L4) are :class:`HeterogeneousCluster` — ordered, named
:class:`DeviceGroup`\\ s joined by an inter-group link. Both answer
one group interface (``sub_clusters``, ``stage_group``, ``p2p_links``),
:func:`reduce_fleet` turns a one-group fleet into its plain cluster,
and both serialize through :func:`cluster_to_dict` /
:func:`cluster_from_dict`.
"""

from .delta import ClusterDelta, DeltaError
from .gpu import GPU_REGISTRY, GiB, GPUSpec, get_gpu
from .topology import (
    ClusterSpec,
    CommGroup,
    DeviceGroup,
    HeterogeneousCluster,
    cluster_from_dict,
    cluster_to_dict,
    load_cluster,
    make_cluster,
    reduce_fleet,
)

__all__ = [
    "GPU_REGISTRY",
    "GPUSpec",
    "GiB",
    "ClusterDelta",
    "ClusterSpec",
    "CommGroup",
    "DeltaError",
    "DeviceGroup",
    "HeterogeneousCluster",
    "cluster_from_dict",
    "cluster_to_dict",
    "get_gpu",
    "load_cluster",
    "make_cluster",
    "reduce_fleet",
]
