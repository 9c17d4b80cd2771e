"""Tests for declarative TuningJob serialization and resolution."""

import json
from pathlib import Path

import pytest

from repro.api import JobValidationError, TuningJob
from repro.core import SPACE_MIST, SPACE_3D, space_ref, space_to_dict
from repro.core.spaces import (SCALES, scale_from_dict, scale_ref,
                               scale_to_dict)
from repro.hardware import HeterogeneousCluster

MIXED_A100_L4 = json.loads(
    (Path(__file__).parents[2] / "examples" / "mixed_a100_l4.json")
    .read_text())

JOB = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                scale="smoke")


class TestRoundTrip:
    def test_json_round_trip(self):
        assert TuningJob.from_json(JOB.to_json()) == JOB

    def test_json_round_trip_byte_identical(self):
        text = JOB.to_json()
        assert TuningJob.from_json(text).to_json() == text

    def test_inlined_space_round_trip(self):
        custom = SPACE_MIST.with_(name="custom", layer_slack=3)
        job = JOB.with_(space=space_to_dict(custom))
        again = TuningJob.from_json(job.to_json())
        assert again.resolved_space() == custom

    def test_inlined_scale_round_trip(self):
        custom = scale_to_dict(SCALES["quick"])
        custom["name"] = "custom"
        job = JOB.with_(scale=custom)
        assert TuningJob.from_json(job.to_json()).resolved_scale().name \
            == "custom"

    def test_from_dict_rejects_unknown_fields(self):
        # a misspelled key must not be solved silently at its default;
        # only the removed "engine" and "parallelism" are dropped
        data = dict(JOB.to_dict(), engine="compiled", parallelism=4)
        assert TuningJob.from_dict(data) == JOB
        with pytest.raises(JobValidationError, match="'seq_lne'"):
            TuningJob.from_dict(dict(data, seq_lne=4096))


class TestFingerprint:
    def test_stable_across_round_trip(self):
        assert TuningJob.from_json(JOB.to_json()).fingerprint() \
            == JOB.fingerprint()

    def test_sensitive_to_workload(self):
        assert JOB.with_(global_batch=64).fingerprint() != JOB.fingerprint()
        assert JOB.with_(space="3d").fingerprint() != JOB.fingerprint()


class TestParallelismCompatibility:
    """Documents written before the search lost its thread fan-out may
    carry the removed ``parallelism`` field; it never entered the
    fingerprint, so plan caches and manifests keep their keys."""

    #: a 2.x job document and its fingerprint as 2.x computed it
    V2_JOB = {"model": "gpt3-1.3b", "num_gpus": 2, "global_batch": 16,
              "scale": "smoke", "parallelism": 4, "keep_top": 2}
    V2_FINGERPRINT = "53661e2aa69d235a43d4"

    def test_job_with_parallelism_field_loads(self):
        job = TuningJob.from_dict(self.V2_JOB)
        assert "parallelism" not in job.to_dict()
        assert job.fingerprint() == self.V2_FINGERPRINT
        for workers in (0, 1, 8):
            again = TuningJob.from_dict(dict(self.V2_JOB,
                                             parallelism=workers))
            assert again == job
            assert again.fingerprint() == self.V2_FINGERPRINT

    def test_constructor_rejects_parallelism(self):
        with pytest.raises(TypeError):
            TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                      parallelism=2)


class TestV1Compatibility:
    """Documents written by 1.x may still carry the removed ``engine``."""

    #: a 1.x ``repro tune --engine interpreted --json`` job, verbatim
    V1_JOB = ('{"engine": "interpreted", "flash": true, "global_batch": 32, '
              '"gpu": "L4", "interference": "auto", "keep_top": 3, '
              '"model": "gpt3-1.3b", "num_gpus": 2, "options": {}, '
              '"parallelism": 2, "scale": "smoke", "seq_len": 2048, '
              '"space": "mist"}')
    #: JOB.fingerprint() as 1.x computed it: plan caches and campaign
    #: manifests written then are keyed by this value
    V1_FINGERPRINT = "adc9bfa0230af9128f5c"

    def test_job_with_engine_field_loads(self):
        job = TuningJob.from_json(self.V1_JOB)
        assert job == JOB
        assert "engine" not in job.to_dict()

    def test_fingerprint_matches_1x(self):
        assert TuningJob.from_json(self.V1_JOB).fingerprint() \
            == JOB.fingerprint() == self.V1_FINGERPRINT


class TestV2ScaleCompatibility:
    """2.x scale dicts carry ``max_pareto_points``, since removed."""

    #: ``scale_to_dict(SCALES["quick"])`` as 2.x wrote it, verbatim
    V2_QUICK = {"binary_grid": [0.0, 1.0], "ckpt_grid_points": 5,
                "layer_slack": 1, "max_gacc_candidates": 4,
                "max_pareto_points": 5, "name": "quick",
                "offload_grid": [0.0, 0.5, 1.0]}
    #: 2.x fingerprints of a named-preset job and of the same job with
    #: the inlined 2.x dict: plan caches and campaign manifests written
    #: then are keyed by these values
    V2_NAMED_FINGERPRINT = "cb34828fdb987e022dc5"
    V2_INLINED_FINGERPRINT = "2dbef3e671c25c011ccc"

    def test_legacy_key_ignored(self):
        scale = scale_from_dict(self.V2_QUICK)
        assert scale == SCALES["quick"]
        assert scale_ref(scale) == "quick"
        legacy_free = {k: v for k, v in self.V2_QUICK.items()
                       if k != "max_pareto_points"}
        assert scale_to_dict(scale) == legacy_free
        assert scale_from_dict(scale_to_dict(scale)) == scale

    def test_v2_job_file_round_trip(self):
        job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                        scale=dict(self.V2_QUICK))
        again = TuningJob.from_json(job.to_json())
        assert again == job
        assert again.resolved_scale() == SCALES["quick"]
        assert again.fingerprint() == self.V2_INLINED_FINGERPRINT

    def test_named_preset_fingerprint_unchanged(self):
        job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                        scale="quick")
        assert job.fingerprint() == self.V2_NAMED_FINGERPRINT


class TestPinnedNames:
    """``name`` and ``fingerprint()`` as 2.x computed them: campaign
    manifests store the names under ``"workload"`` and plan caches are
    keyed by the fingerprints."""

    #: (job, name, fingerprint): implied homogeneous, explicit
    #: homogeneous cluster dict, heterogeneous fleet
    PINNED = [
        (TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16,
                   scale="smoke"),
         "gpt3-1.3b-L4x2-B16-s2048-flash", "c4a9ebae034a54fa3c7e"),
        (TuningJob(model="gpt3-2.7b", num_gpus=16, global_batch=64,
                   scale="smoke",
                   cluster={"gpu": "L4", "num_nodes": 2,
                            "gpus_per_node": 8}),
         "gpt3-2.7b-L4x16-B64-s2048-flash", "ab6bcb891501da00b8fb"),
        (TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-1.3b",
                               global_batch=16, scale="smoke"),
         "gpt3-1.3b-4xA100-40GB+4xL4-B16-s2048-flash",
         "dc7fdf909ef0e76e954e"),
    ]

    @pytest.mark.parametrize("job,name,fingerprint", PINNED)
    def test_name_and_fingerprint(self, job, name, fingerprint):
        assert job.name == name
        assert job.fingerprint() == fingerprint

    def test_name_marks_flash_off(self):
        assert JOB.with_(flash=False).name \
            == "gpt3-1.3b-L4x2-B32-s2048"


class TestResolution:
    def test_model_and_implied_cluster(self):
        assert JOB.resolved_model().name == "gpt3-1.3b"
        cluster = JOB.resolved_cluster()
        assert (cluster.num_nodes, cluster.gpus_per_node) == (1, 2)

    @pytest.mark.parametrize("num_gpus,shape", [
        (1, (1, 1)), (8, (1, 8)), (16, (2, 8)), (24, (3, 8)),
        (32, (4, 8)),
    ])
    def test_implied_cluster_is_whole_nodes(self, num_gpus, shape):
        cluster = JOB.with_(num_gpus=num_gpus).resolved_cluster()
        assert (cluster.num_nodes, cluster.gpus_per_node) == shape
        assert cluster.total_gpus == num_gpus

    def test_explicit_cluster_wins(self):
        job = JOB.with_(num_gpus=12, cluster={
            "gpu": "L4", "num_nodes": 3, "gpus_per_node": 4})
        cluster = job.resolved_cluster()
        assert (cluster.num_nodes, cluster.gpus_per_node) == (3, 4)
        assert job.name == "gpt3-1.3b-L4x12-B32-s2048-flash"

    def test_for_cluster_derives_gpu_and_count(self):
        job = TuningJob.for_cluster(MIXED_A100_L4, model="gpt3-1.3b",
                                    global_batch=16)
        assert (job.gpu, job.num_gpus) == ("A100-40GB", 8)
        assert job.cluster == MIXED_A100_L4
        assert isinstance(job.resolved_cluster(), HeterogeneousCluster)

    def test_named_space_and_scale(self):
        assert JOB.resolved_space() == SPACE_MIST
        assert JOB.with_(space="3d").resolved_space() == SPACE_3D
        assert JOB.resolved_scale() == SCALES["smoke"]

    def test_space_ref_prefers_slug(self):
        assert space_ref(SPACE_MIST) == "mist"
        assert isinstance(space_ref(SPACE_MIST.with_(name="x")), dict)
        assert scale_ref(SCALES["full"]) == "full"

    def test_unknown_space_rejected(self):
        # rejected when the job is built, not later when it is resolved
        with pytest.raises(JobValidationError, match="galaxy"):
            JOB.with_(space="galaxy")


class TestValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(JobValidationError):
            JOB.with_(num_gpus=0)
        with pytest.raises(JobValidationError):
            JOB.with_(global_batch=0)
        with pytest.raises(JobValidationError):
            JOB.with_(interference="sometimes")
        # wrong types and names that do not resolve fail at construction,
        # from the constructor and from a JSON document alike
        for field, value in (
                ("num_gpus", True), ("num_gpus", 2.0),
                ("global_batch", 32.0), ("global_batch", "32"),
                ("seq_len", 2048.0), ("keep_top", False),
                ("keep_top", None), ("flash", "no"), ("flash", 1),
                ("model", "gpt3-99b"), ("model", None), ("gpu", "H900"),
                ("space", "galaxy"), ("space", {"zero_levels": [1]}),
                ("space", 3), ("scale", "huge"), ("scale", {"name": "x"}),
                ("options", []),
                # json.loads takes NaN/Infinity; the job must not echo
                # them back as invalid JSON
                ("options", {"a": float("nan")}),
                ("options", {"a": {"b": [float("-inf")]}})):
            with pytest.raises(JobValidationError, match=field):
                JOB.with_(**{field: value})
            with pytest.raises(JobValidationError, match=field):
                TuningJob.from_dict(dict(JOB.to_dict(), **{field: value}))
        # malformed cluster dicts: bad links, non-integer counts
        hetero = dict(MIXED_A100_L4)
        for field, value in (
                ("inter_node_bandwidth", -5e9), ("inter_node_bandwidth", 0),
                ("inter_node_latency", -1.0), ("gpus_per_node", 1.5),
                ("num_nodes", True), ("num_nodes", "1"),
                ("inter_group_bandwidth", float("nan")),
                ("inter_group_latency", float("inf"))):
            if field.startswith("inter_group"):
                cluster = dict(hetero, **{field: value})
                num_gpus = 8
            else:
                cluster = {"gpu": "L4", "num_nodes": 2, "gpus_per_node": 1,
                           field: value}
                num_gpus = 2
            with pytest.raises(JobValidationError, match=field):
                JOB.with_(num_gpus=num_gpus, cluster=cluster)
            with pytest.raises(JobValidationError, match=field):
                TuningJob.from_dict(dict(JOB.to_dict(), num_gpus=num_gpus,
                                         cluster=cluster))
            with pytest.raises(JobValidationError, match=field):
                TuningJob.for_cluster(cluster, model="gpt3-1.3b",
                                      global_batch=32)

    @pytest.mark.parametrize("num_gpus", [9, 12, 20])
    def test_partial_nodes_need_a_cluster_dict(self, num_gpus):
        # the implied cluster is whole 8-GPU nodes: 12 GPUs must not be
        # tuned on 8 while the job still says 12
        with pytest.raises(JobValidationError, match="cluster="):
            JOB.with_(num_gpus=num_gpus)
