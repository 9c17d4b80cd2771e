"""Tests for declarative TuningJob serialization and resolution."""

import pytest

from repro.api import JobValidationError, TuningJob
from repro.core import SPACE_MIST, SPACE_3D, space_ref, space_to_dict
from repro.evaluation import SCALES, WorkloadSpec, scale_ref, scale_to_dict

JOB = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=32,
                scale="smoke", parallelism=2)


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

    def test_from_dict_ignores_unknown_fields(self):
        data = JOB.to_dict()
        data["someday_a_new_field"] = 1
        assert TuningJob.from_dict(data) == JOB


class TestFingerprint:
    def test_stable_across_round_trip(self):
        assert TuningJob.from_json(JOB.to_json()).fingerprint() \
            == JOB.fingerprint()

    def test_sensitive_to_workload(self):
        assert JOB.with_(global_batch=64).fingerprint() != JOB.fingerprint()
        assert JOB.with_(space="3d").fingerprint() != JOB.fingerprint()

    def test_parallelism_excluded(self):
        # worker count changes speed, never the answer -> same cache key
        assert JOB.with_(parallelism=8).fingerprint() == JOB.fingerprint()


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

    def test_search_stats_with_engine_field_load(self):
        from repro.core import SearchStats

        data = SearchStats(cells_total=4, cells_explored=3,
                           cells_pruned=1).to_dict()
        stats = SearchStats.from_dict({**data, "engine": "interpreted"})
        assert stats.to_dict() == data
        assert "engine" not in data


class TestResolution:
    def test_workload(self):
        spec = JOB.workload
        assert isinstance(spec, WorkloadSpec)
        assert spec.model_spec == "gpt3-1.3b"
        assert spec.cluster.total_gpus == 2

    def test_from_workload_inverse(self):
        spec = JOB.workload
        assert TuningJob.from_workload(spec, scale="smoke",
                                       parallelism=2) == JOB

    def test_named_space_and_scale(self):
        assert JOB.resolved_space() == SPACE_MIST
        assert JOB.with_(space="3d").resolved_space() == SPACE_3D
        assert JOB.resolved_scale() == SCALES["smoke"]

    def test_space_ref_prefers_slug(self):
        assert space_ref(SPACE_MIST) == "mist"
        assert isinstance(space_ref(SPACE_MIST.with_(name="x")), dict)
        assert scale_ref(SCALES["full"]) == "full"

    def test_unknown_space_rejected(self):
        with pytest.raises(KeyError):
            JOB.with_(space="galaxy").resolved_space()


class TestValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(JobValidationError):
            JOB.with_(num_gpus=0)
        with pytest.raises(JobValidationError):
            JOB.with_(global_batch=0)
        with pytest.raises(JobValidationError):
            JOB.with_(parallelism=-1)
        with pytest.raises(JobValidationError):
            JOB.with_(interference="sometimes")
