"""Heterogeneous-cluster model: construction, serialization, fallbacks."""

import pytest

from repro.hardware import (
    DeviceGroup,
    HeterogeneousCluster,
    cluster_from_dict,
    cluster_to_dict,
    load_cluster,
    make_cluster,
    reduce_fleet,
)


#: a mixed fleet in the schema's human units (``*_gbps``, ``*_us``)
GBPS_CLUSTER = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 2, "inter_node_bandwidth_gbps": 400},
        {"name": "l4", "gpu": "L4", "num_nodes": 2, "gpus_per_node": 2},
    ],
    "inter_group_bandwidth_gbps": 100,
    "inter_group_latency_us": 25.0,
}


def mixed(a100=2, l4=2) -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, a100)),
        DeviceGroup("l4", make_cluster("L4", 1, l4)),
    ))


class TestConstruction:
    def test_totals_and_names(self):
        h = mixed(4, 2)
        assert h.total_gpus == 6
        assert h.group_names == ("a100", "l4")
        assert h.name == "4xA100-40GB+2xL4"
        assert not h.is_homogeneous

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HeterogeneousCluster(groups=(
                DeviceGroup("g", make_cluster("L4", 1, 2)),
                DeviceGroup("g", make_cluster("T4", 1, 2)),
            ))

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousCluster(groups=())

    def test_group_needs_name(self):
        with pytest.raises(ValueError):
            DeviceGroup("", make_cluster("L4", 1, 2))

    def test_group_lookup(self):
        h = mixed()
        assert h.group_named("l4").gpu.name == "L4"
        with pytest.raises(KeyError, match="unknown device group"):
            h.group_named("h100")

    def test_group_for_stage_empty_tag(self):
        h = mixed()
        with pytest.raises(KeyError, match="no device_group"):
            h.stage_group("")
        single = HeterogeneousCluster(
            groups=(DeviceGroup("only", make_cluster("L4", 1, 4)),))
        assert single.stage_group("")[0] == "only"

    @pytest.mark.parametrize("field, value", [
        ("inter_group_bandwidth", 0.0), ("inter_group_bandwidth", -1.0),
        ("inter_group_bandwidth", float("nan")),
        ("inter_group_bandwidth", float("inf")),
        ("inter_group_latency", -1e-6),
        ("inter_group_latency", float("nan")),
        ("inter_group_latency", float("inf")),
    ])
    def test_bad_inter_group_link_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HeterogeneousCluster(groups=mixed().groups, **{field: value})


class TestP2PLinks:
    def test_stages_beside_a_boundary_cross(self):
        h = HeterogeneousCluster(groups=mixed().groups,
                                 inter_group_bandwidth=5e9,
                                 inter_group_latency=40e-6)
        link = (5e9, 40e-6)
        # first and last stages each have one neighbour
        assert h.p2p_links(["a100", "a100", "l4", "l4", "l4"]) == [
            None, link, link, None, None]
        assert h.p2p_links(["a100", "l4", "l4"]) == [link, link, None]
        assert h.p2p_links(["a100", "a100", "l4"]) == [None, link, link]
        assert h.p2p_links(["a100", "l4"]) == [link, link]

    def test_one_group_sequence_never_crosses(self):
        assert mixed().p2p_links(["l4", "l4", "l4"]) == [None] * 3
        assert mixed().p2p_links(["a100"]) == [None]
        assert make_cluster("L4", 1, 4).p2p_links(["", ""]) == [None] * 2


class TestGroupInterface:
    def test_sub_clusters(self):
        plain = make_cluster("L4", 1, 4)
        assert plain.sub_clusters == (("", plain),)
        h = mixed()
        assert h.sub_clusters == tuple((g.name, g.cluster) for g in h.groups)

    def test_stage_group(self):
        plain = make_cluster("L4", 1, 4)
        for tag in ("", "l4", "a100"):
            assert plain.stage_group(tag) == ("", plain)
        h = mixed()
        assert h.stage_group("l4") == ("l4", h.group_named("l4").cluster)
        with pytest.raises(KeyError, match="unknown device group"):
            h.stage_group("h100")

    def test_reduce_fleet(self):
        plain = make_cluster("L4", 1, 4)
        assert reduce_fleet(plain) is plain
        assert reduce_fleet(HeterogeneousCluster(
            groups=(DeviceGroup("l4", plain),))) is plain
        h = mixed()
        assert reduce_fleet(h) is h


class TestWorstCaseFallback:
    def test_worst_gpu_is_min_memory(self):
        assert mixed().worst_gpu().name == "L4"

    def test_fallback_shape_and_network(self):
        h = mixed(4, 2)
        fb = h.fallback_homogeneous()
        assert fb.total_gpus == h.total_gpus
        assert fb.gpu.name == "L4"
        # slowest link wins: L4 net (100 Gbps) == inter-group link
        assert fb.inter_node_bandwidth == min(
            g.cluster.inter_node_bandwidth for g in h.groups)

    def test_fallback_indivisible_total_degrades_to_one_per_node(self):
        h = HeterogeneousCluster(groups=(
            DeviceGroup("a", make_cluster("A100-40GB", 1, 3)),
            DeviceGroup("b", make_cluster("L4", 1, 2)),
        ))
        fb = h.fallback_homogeneous()
        assert fb.total_gpus == 5
        assert fb.gpus_per_node == 1


class TestSerialization:
    def test_round_trip(self):
        for h in (mixed(), cluster_from_dict(GBPS_CLUSTER)):
            assert cluster_from_dict(cluster_to_dict(h)) == h

    def test_homogeneous_round_trip(self):
        spec = make_cluster("A100-80GB", 2, 8)
        assert cluster_from_dict(cluster_to_dict(spec)) == spec

    def test_flat_dict_parses_to_cluster_spec(self):
        spec = cluster_from_dict(
            {"gpu": "L4", "num_nodes": 1, "gpus_per_node": 4})
        assert spec == make_cluster("L4", 1, 4)

    def test_single_group_reduces_to_homogeneous(self):
        parsed = cluster_from_dict({"groups": [
            {"name": "only", "gpu": "L4", "num_nodes": 1,
             "gpus_per_node": 4},
        ]})
        assert parsed == make_cluster("L4", 1, 4)

    def test_gbps_and_us_convenience_keys(self):
        parsed = cluster_from_dict({"groups": [
            {"name": "a", "gpu": "A100-40GB", "gpus_per_node": 2,
             "inter_node_bandwidth_gbps": 200},
            {"name": "b", "gpu": "L4", "gpus_per_node": 2},
        ], "inter_group_bandwidth_gbps": 80, "inter_group_latency_us": 30})
        assert parsed.groups[0].cluster.inter_node_bandwidth == 200e9 / 8
        assert parsed.inter_group_bandwidth == 80e9 / 8
        assert parsed.inter_group_latency == pytest.approx(30e-6)

    def test_conflicting_bandwidth_keys_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            cluster_from_dict({"gpu": "L4", "gpus_per_node": 2,
                               "inter_node_bandwidth": 1e9,
                               "inter_node_bandwidth_gbps": 8})

    def test_conflicting_latency_keys_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            cluster_from_dict({"gpu": "L4", "gpus_per_node": 2,
                               "inter_node_latency": 1e-3,
                               "inter_node_latency_us": 25})

    def test_unknown_gpu_rejected(self):
        with pytest.raises(KeyError):
            cluster_from_dict({"gpu": "TPU-v9", "gpus_per_node": 4})

    def test_non_dict_description_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            cluster_from_dict([1, 2])
        with pytest.raises(ValueError, match="list of group"):
            cluster_from_dict({"groups": "l4"})
        with pytest.raises(ValueError, match="group must be"):
            cluster_from_dict({"groups": ["l4"]})

    def test_load_cluster_reads_example_file(self):
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2]
                / "examples" / "mixed_a100_l4.json")
        h = load_cluster(path)
        assert isinstance(h, HeterogeneousCluster)
        assert h.total_gpus == 8
        assert {g.gpu.name for g in h.groups} == {"A100-40GB", "L4"}
