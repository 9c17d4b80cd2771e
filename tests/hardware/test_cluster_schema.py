"""Cluster documents are decoded by the NODES / GROUP / FLEET field
tables: typos, empty names and non-numeric links fail, naming the
field path, instead of planning a different cluster."""

from __future__ import annotations

import pytest

from repro.core.schema import DecodeError, UnknownNameError
from repro.hardware import HeterogeneousCluster, cluster_from_dict

FLAT = {"gpu": "L4", "num_nodes": 2, "gpus_per_node": 2}


def _fleet(**second):
    return {"groups": [{"name": "a", "gpu": "A100-40GB", "gpus_per_node": 2},
                       dict({"gpu": "L4", "gpus_per_node": 2}, **second)]}


class TestUnknownKeys:
    def test_misspelled_count_rejected(self):
        # "num_node" once parsed as a 1-node cluster
        with pytest.raises(DecodeError, match=r"unknown field.*'num_node'"):
            cluster_from_dict({"gpu": "L4", "num_node": 4,
                               "gpus_per_node": 2})

    def test_misspelled_group_key_rejected(self):
        with pytest.raises(DecodeError,
                           match=r"cluster\.groups\[1\]: unknown field"):
            cluster_from_dict(_fleet(gpu_per_node=2))

    def test_misspelled_fleet_key_rejected(self):
        with pytest.raises(DecodeError, match="inter_group_bw"):
            cluster_from_dict(dict(_fleet(), inter_group_bw=1e9))


class TestGroupNames:
    @pytest.mark.parametrize("name", ["", 5, None, ["l4"]])
    def test_name_must_be_a_non_empty_string(self, name):
        # "" once became the lowercased GPU name, and 5 became "5"
        with pytest.raises(DecodeError,
                           match=r"groups\[1\]: 'name' must be a non-empty"):
            cluster_from_dict(_fleet(name=name))

    def test_absent_name_is_the_gpu_name(self):
        fleet = cluster_from_dict(_fleet())
        assert isinstance(fleet, HeterogeneousCluster)
        assert fleet.group_names == ("a", "l4")


class TestLinks:
    @pytest.mark.parametrize("key", [
        "inter_node_bandwidth", "inter_node_bandwidth_gbps",
        "inter_node_latency", "inter_node_latency_us",
        "intra_node_latency", "intra_node_latency_us"])
    @pytest.mark.parametrize("value", ["5", True, False, [1], None],
                             ids=repr)
    def test_link_must_be_a_plain_number(self, key, value):
        # "5" once became 5 B/s, and *_gbps: true 1 Gbit/s
        with pytest.raises(DecodeError, match=f"'{key}' must be finite"):
            cluster_from_dict(dict(FLAT, **{key: value}))

    @pytest.mark.parametrize("key", ["inter_group_bandwidth",
                                     "inter_group_latency_us"])
    def test_inter_group_link_must_be_a_plain_number(self, key):
        with pytest.raises(DecodeError, match=f"cluster: '{key}'"):
            cluster_from_dict(dict(_fleet(), **{key: "1"}))

    @pytest.mark.parametrize("key, value", [
        ("inter_node_bandwidth", 0), ("inter_node_bandwidth_gbps", -1),
        ("intra_node_latency_us", -1)])
    def test_out_of_range_link_named_by_the_table(self, key, value):
        with pytest.raises(DecodeError) as err:
            cluster_from_dict(dict(FLAT, **{key: value}))
        assert str(err.value).startswith(f"cluster: '{key}' must be finite")

    def test_integer_links_are_accepted(self):
        spec = cluster_from_dict(dict(FLAT, inter_node_bandwidth_gbps=100,
                                      inter_node_latency_us=0))
        assert spec.inter_node_bandwidth == 100e9 / 8
        assert spec.inter_node_latency == 0.0


class TestGpu:
    def test_non_string_gpu_names_the_path(self):
        with pytest.raises(DecodeError) as err:
            cluster_from_dict(_fleet(gpu=5))
        assert str(err.value) == \
            "cluster.groups[1]: 'gpu' must be a string, got 5"

    def test_unknown_gpu_is_both_errors(self):
        with pytest.raises(UnknownNameError) as err:
            cluster_from_dict(dict(FLAT, gpu="TPU-v9"))
        assert isinstance(err.value, KeyError)
        assert isinstance(err.value, DecodeError)
        # a KeyError's str() would quote the whole message
        assert str(err.value).startswith("cluster: 'gpu': unknown GPU")
