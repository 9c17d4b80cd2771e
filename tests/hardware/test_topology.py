"""Tests for GPU specs and cluster topology."""

import dataclasses

import pytest

from repro.hardware import (
    GPU_REGISTRY,
    GiB,
    cluster_from_dict,
    get_gpu,
    make_cluster,
)


class TestGPUSpecs:
    def test_l4_matches_table3(self):
        l4 = get_gpu("L4")
        assert l4.memory_bytes == 24 * GiB
        assert not l4.has_nvlink

    def test_a100_matches_table3(self):
        a100 = get_gpu("A100-40GB")
        assert a100.memory_bytes == 40 * GiB
        assert a100.has_nvlink

    def test_lookup_case_insensitive(self):
        assert get_gpu("l4") is GPU_REGISTRY["L4"]

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError):
            get_gpu("V100")

    def test_usable_memory_below_physical(self):
        for spec in GPU_REGISTRY.values():
            assert spec.usable_memory_bytes < spec.memory_bytes

    def test_nvlink_beats_pcie_for_gpu_gpu(self):
        assert (
            get_gpu("A100-40GB").gpu_gpu_bandwidth
            > get_gpu("L4").gpu_gpu_bandwidth
        )


class TestClusterSpec:
    def test_total_gpus(self):
        cluster = make_cluster("L4", 4, 8)
        assert cluster.total_gpus == 32

    def test_intra_node_group(self):
        cluster = make_cluster("A100-40GB", 2, 8)
        group = cluster.group(8)
        assert group.bus_bandwidth == cluster.gpu.gpu_gpu_bandwidth

    def test_cross_node_group_bottlenecked_by_network(self):
        cluster = make_cluster("L4", 4, 8)
        group = cluster.group(32)
        assert group.nodes_spanned == 4
        assert group.bus_bandwidth < cluster.gpu.gpu_gpu_bandwidth
        # 8 ranks share one 100 Gbps NIC
        assert group.bus_bandwidth == pytest.approx(100e9 / 8 / 8)

    def test_group_too_large_raises(self):
        cluster = make_cluster("L4", 1, 8)
        with pytest.raises(ValueError):
            cluster.group(16)

    def test_dp_group_with_tp_crossing_nodes(self):
        cluster = make_cluster("L4", 4, 8)
        # tp=8 fills a node; dp=4 ranks are one per node. Even with a
        # whole NIC per rank, traffic still squeezes through the GPU's
        # PCIe link, so the slower of the two governs.
        group = cluster.dp_group(4, 8)
        assert group.nodes_spanned == 4
        expected = min(cluster.gpu.gpu_gpu_bandwidth, 100e9 / 8)
        assert group.bus_bandwidth == pytest.approx(expected)

    def test_dp_group_trivial(self):
        cluster = make_cluster("L4", 1, 8)
        assert cluster.dp_group(1, 8).size == 1

    def test_stage_parallelism_options(self):
        cluster = make_cluster("L4", 1, 8)
        options = cluster.stage_parallelism_options(8)
        assert (8, 1) in options and (1, 8) in options and (2, 4) in options
        # tp never exceeds node size
        cluster2 = make_cluster("L4", 2, 4)
        options2 = cluster2.stage_parallelism_options(8)
        assert all(tp <= 4 for _, tp in options2)

    def test_pipeline_stage_counts(self):
        cluster = make_cluster("L4", 2, 8)
        assert cluster.pipeline_stage_counts() == [1, 2, 4, 8, 16]

    def test_p2p_bandwidth_intra_vs_inter(self):
        cluster = make_cluster("A100-40GB", 4, 8)
        assert cluster.p2p_bandwidth(4) == cluster.gpu.gpu_gpu_bandwidth
        assert cluster.p2p_bandwidth(8) == cluster.inter_node_bandwidth

    def test_invalid_cluster_raises(self):
        with pytest.raises(ValueError):
            make_cluster("L4", 0, 8)


class TestClusterFieldChecks:
    """Malformed link values and counts are rejected, not planned."""

    @pytest.mark.parametrize("field, value", [
        ("inter_node_bandwidth", -5e9),
        ("inter_node_bandwidth", 0.0),
        ("inter_node_bandwidth", float("nan")),
        ("inter_node_bandwidth", float("inf")),
        ("inter_node_latency", -1.0),
        ("inter_node_latency", float("nan")),
        ("intra_node_latency", float("inf")),
    ])
    def test_bad_link_rejected(self, field, value):
        base = make_cluster("L4", 2, 1)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(base, **{field: value})

    def test_zero_latency_allowed(self):
        base = make_cluster("L4", 2, 1)
        cluster = dataclasses.replace(base, inter_node_latency=0.0,
                                      intra_node_latency=0.0)
        assert cluster.inter_node_latency == 0.0

    @pytest.mark.parametrize("field, value", [
        ("gpus_per_node", 1.5), ("gpus_per_node", 2.0),
        ("gpus_per_node", True), ("gpus_per_node", "1"),
        ("num_nodes", True), ("num_nodes", "1"), ("num_nodes", None),
    ])
    def test_non_integer_count_rejected(self, field, value):
        data = {"gpu": "L4", "num_nodes": 2, "gpus_per_node": 1}
        data[field] = value
        with pytest.raises(ValueError, match=field):
            cluster_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("inter_node_bandwidth", -5e9), ("inter_node_bandwidth", 0),
        ("inter_node_latency", -1.0), ("inter_node_bandwidth_gbps", "nan"),
    ])
    def test_bad_link_in_dict_rejected(self, field, value):
        data = {"gpu": "L4", "num_nodes": 2, "gpus_per_node": 1,
                field: value}
        with pytest.raises(ValueError, match="must be finite"):
            cluster_from_dict(data)
