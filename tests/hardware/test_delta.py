"""ClusterDelta: construction, serialization, application, errors."""

import pytest

from repro.hardware import (
    ClusterDelta,
    DeltaError,
    DeviceGroup,
    HeterogeneousCluster,
    cluster_to_dict,
    make_cluster,
)


def mixed(a100=2, l4=4) -> HeterogeneousCluster:
    return HeterogeneousCluster(groups=(
        DeviceGroup("a100", make_cluster("A100-40GB", 1, a100)),
        DeviceGroup("l4", make_cluster("L4", 2, l4)),
    ))


class TestConstruction:
    def test_empty_delta_rejected(self):
        with pytest.raises(DeltaError, match="at least one"):
            ClusterDelta(ops=())

    def test_unknown_op_rejected(self):
        with pytest.raises(DeltaError, match="unknown delta op"):
            ClusterDelta(ops=({"op": "teleport"},))

    def test_add_combines_in_order(self):
        delta = (ClusterDelta.remove_nodes(1, group="l4")
                 + ClusterDelta.degrade_link(0.5, link="inter_group"))
        assert [op["op"] for op in delta.ops] \
            == ["remove_nodes", "degrade_link"]

    def test_add_rejects_non_delta(self):
        with pytest.raises(TypeError):
            ClusterDelta.remove_nodes(1) + {"op": "add_nodes"}


class TestSerialization:
    def test_round_trip(self):
        delta = (ClusterDelta.resize_group("l4", gpus_per_node=2)
                 + ClusterDelta.retype_group("a100", "L4"))
        again = ClusterDelta.from_json(delta.to_json())
        assert again == delta
        assert again.fingerprint() == delta.fingerprint()

    def test_fingerprint_distinguishes(self):
        a = ClusterDelta.degrade_link(0.5)
        b = ClusterDelta.degrade_link(0.25)
        assert a.fingerprint() != b.fingerprint()

    def test_from_dict_validates_shape(self):
        with pytest.raises(DeltaError, match="ops"):
            ClusterDelta.from_dict({"operations": []})
        with pytest.raises(DeltaError, match="list"):
            ClusterDelta.from_dict({"ops": {"op": "add_nodes"}})

    def test_describe(self):
        delta = (ClusterDelta.remove_nodes(1, group="l4")
                 + ClusterDelta.resize_group("l4", gpus_per_node=2)
                 + ClusterDelta.degrade_link(0.5))
        assert delta.describe() == "-1node@l4,resize@l4=2,inter_nodex0.5"


class TestApply:
    def test_add_and_remove_nodes_hetero(self):
        cluster = mixed()
        grown = ClusterDelta.add_nodes(2, group="l4").apply(cluster)
        assert grown.group_named("l4").num_nodes == 4
        shrunk = ClusterDelta.remove_nodes(1, group="l4").apply(cluster)
        assert shrunk.group_named("l4").num_nodes == 1
        # the untouched group is unchanged either way
        assert grown.group_named("a100") == cluster.group_named("a100")

    def test_homogeneous_round_trips_kind(self):
        cluster = make_cluster("L4", 2, 4)
        out = ClusterDelta.remove_nodes(1).apply(cluster)
        assert not isinstance(out, HeterogeneousCluster)
        assert out.num_nodes == 1 and out.gpus_per_node == 4

    def test_dict_in_dict_out(self):
        data = cluster_to_dict(mixed())
        out = ClusterDelta.resize_group("l4", gpus_per_node=2).apply(data)
        assert isinstance(out, dict)
        # the input dict is never mutated
        assert data != out

    def test_retype_group(self):
        out = ClusterDelta.retype_group("a100", "L4").apply(mixed())
        assert out.group_named("a100").gpu.name == "L4"

    def test_remove_group_collapses_to_plain_cluster(self):
        # one surviving group == a homogeneous cluster (the same
        # reduction MistTuner applies to single-group fleets)
        out = ClusterDelta.remove_group("a100").apply(mixed())
        assert not isinstance(out, HeterogeneousCluster)
        assert out.gpu.name == "L4" and out.total_gpus == 8

    def test_degrade_inter_group_link(self):
        cluster = mixed()
        out = ClusterDelta.degrade_link(
            0.5, link="inter_group").apply(cluster)
        assert out.inter_group_bandwidth \
            == pytest.approx(cluster.inter_group_bandwidth * 0.5)

    def test_degrade_inter_node_link(self):
        cluster = make_cluster("L4", 2, 4)
        out = ClusterDelta.degrade_link(0.5).apply(cluster)
        assert out.inter_node_bandwidth \
            == pytest.approx(cluster.inter_node_bandwidth * 0.5)


class TestApplyErrors:
    def test_remove_all_nodes(self):
        with pytest.raises(DeltaError, match="leaves group"):
            ClusterDelta.remove_nodes(2, group="a100").apply(mixed())

    def test_remove_last_group(self):
        single = HeterogeneousCluster(
            groups=(DeviceGroup("only", make_cluster("L4", 1, 4)),))
        with pytest.raises(DeltaError):
            ClusterDelta.remove_group("only").apply(single)

    def test_unknown_group(self):
        with pytest.raises(DeltaError, match="unknown device group"):
            ClusterDelta.add_nodes(1, group="h100").apply(mixed())

    def test_group_required_when_ambiguous(self):
        with pytest.raises(DeltaError, match="needs a 'group'"):
            ClusterDelta.add_nodes(1).apply(mixed())

    def test_group_on_homogeneous_rejected(self):
        with pytest.raises(DeltaError, match="no group"):
            ClusterDelta.add_nodes(1, group="l4").apply(
                make_cluster("L4", 1, 4))

    def test_inter_group_on_homogeneous_rejected(self):
        with pytest.raises(DeltaError, match="homogeneous"):
            ClusterDelta.degrade_link(0.5, link="inter_group").apply(
                make_cluster("L4", 1, 4))

    def test_nonpositive_factor_and_count(self):
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(DeltaError, match="factor"):
                ClusterDelta.degrade_link(factor).apply(
                    make_cluster("L4", 2, 4))
        with pytest.raises(DeltaError, match="positive 'count'"):
            ClusterDelta(ops=({"op": "add_nodes", "count": 0},)).apply(
                make_cluster("L4", 1, 4))
        # counts are plain ints: int() would apply 1.5, "1" and True as 1
        for op in ({"op": "remove_nodes", "count": 1.5},
                   {"op": "remove_nodes", "count": "1"},
                   {"op": "remove_nodes", "count": True},
                   {"op": "remove_nodes", "count": "abc"},
                   {"op": "resize_group", "num_nodes": 2.7},
                   {"op": "resize_group", "gpus_per_node": "4"}):
            with pytest.raises(DeltaError, match="must be an integer"):
                ClusterDelta.from_dict({"ops": [op]}).apply(
                    make_cluster("L4", 2, 4))
        for build in (lambda: ClusterDelta.remove_nodes(1.5),
                      lambda: ClusterDelta.add_nodes(True),
                      lambda: ClusterDelta.resize_group("", num_nodes=2.7)):
            with pytest.raises(DeltaError, match="must be an integer"):
                build()

    @pytest.mark.parametrize("cluster", [make_cluster("L4", 1, 2), mixed()])
    def test_invalid_outcome_raises_delta_error(self, cluster):
        group = "l4" if isinstance(cluster, HeterogeneousCluster) else ""
        delta = ClusterDelta(ops=({"op": "resize_group", "group": group,
                                   "gpus_per_node": 0},))
        with pytest.raises(DeltaError, match="invalid cluster"):
            delta.apply(cluster)
