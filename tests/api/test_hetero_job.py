"""Heterogeneous clusters through the declarative API."""

import warnings

import pytest

from repro.api import JobValidationError, SolveReport, TuningJob, solve
from repro.hardware import HeterogeneousCluster

MIXED = {
    "groups": [
        {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
         "gpus_per_node": 2},
        {"name": "l4", "gpu": "L4", "num_nodes": 1, "gpus_per_node": 2},
    ],
    "inter_group_bandwidth_gbps": 100,
}


def hetero_job(**overrides) -> TuningJob:
    defaults = dict(model="gpt3-1.3b", global_batch=16, scale="smoke",
                    interference="none")
    defaults.update(overrides)
    return TuningJob.for_cluster(MIXED, **defaults)


class TestJobSerialization:
    def test_for_cluster_derives_shape(self):
        job = hetero_job()
        assert job.num_gpus == 4
        assert job.gpu == "A100-40GB"  # first group, for display
        assert job.cluster is not None

    def test_round_trip(self):
        job = hetero_job()
        again = TuningJob.from_json(job.to_json())
        assert again == job
        assert again.fingerprint() == job.fingerprint()

    def test_resolved_cluster_is_heterogeneous(self):
        cluster = hetero_job().resolved_cluster()
        assert isinstance(cluster, HeterogeneousCluster)
        assert cluster.group_names == ("a100", "l4")

    def test_plain_jobs_keep_dict_shape_and_fingerprint(self):
        plain = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=16)
        assert "cluster" not in plain.to_dict()
        # cluster-less fingerprints must not shift with the new field
        assert plain.fingerprint() == TuningJob.from_dict(
            plain.to_dict()).fingerprint()

    def test_cluster_gpu_count_mismatch_rejected(self):
        with pytest.raises(JobValidationError, match="num_gpus"):
            TuningJob(model="gpt3-1.3b", num_gpus=8, global_batch=16,
                      cluster=MIXED)

    def test_invalid_cluster_dict_rejected(self):
        with pytest.raises(JobValidationError, match="invalid cluster"):
            TuningJob(model="gpt3-1.3b", num_gpus=4, global_batch=16,
                      cluster={"groups": [{"gpu": "no-such-gpu",
                                           "gpus_per_node": 4}]})

    def test_for_cluster_accepts_cluster_objects(self):
        # a parsed cluster is stored as its dict form, same as the dict
        job = hetero_job()
        rebuilt = TuningJob.for_cluster(
            job.resolved_cluster(), model="gpt3-1.3b", global_batch=16,
            scale="smoke", interference="none")
        assert rebuilt.resolved_cluster() == job.resolved_cluster()
        assert (rebuilt.gpu, rebuilt.num_gpus) == (job.gpu, job.num_gpus)

    def test_for_cluster_rejects_bad_cluster(self):
        with pytest.raises(JobValidationError, match="invalid cluster"):
            TuningJob.for_cluster({"groups": "nope"}, model="gpt3-1.3b",
                                  global_batch=16)
        with pytest.raises(JobValidationError, match="invalid cluster"):
            TuningJob.for_cluster(["not", "a", "dict"], model="gpt3-1.3b",
                                  global_batch=16)

    def test_name_uses_the_fleet(self):
        assert hetero_job().name \
            == "gpt3-1.3b-2xA100-40GB+2xL4-B16-s2048-flash"


class TestSolvers:
    @pytest.fixture(scope="class")
    def mist_report(self):
        return solve(hetero_job(), solver="mist")

    def test_mist_solves_natively(self, mist_report):
        assert mist_report.plan is not None
        tags = {s.device_group for s in mist_report.plan.stages}
        assert tags == {"a100", "l4"}
        assert mist_report.measured  # executed on the mixed fleet

    def test_plan_fits_every_groups_device(self, mist_report):
        cluster = hetero_job().resolved_cluster()
        mist_report.plan.validate(
            hetero_job().resolved_model(), cluster)
        assert mist_report.measured["peak_memory"] > 0

    def test_report_round_trips(self, mist_report):
        again = SolveReport.from_json(mist_report.to_json())
        assert again.to_json() == mist_report.to_json()
        assert again.plan == mist_report.plan

    def test_baseline_falls_back_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = solve(hetero_job(), solver="megatron")
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert any("worst-GPU homogeneous" in m for m in messages)
        assert report.extra.get("heterogeneous_fallback") == "2x2xL4"
        assert report.plan is not None

    def test_uniform_baseline_falls_back_too(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = solve(hetero_job(), solver="uniform")
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert report.extra.get("heterogeneous_fallback") == "2x2xL4"

    def test_homogeneous_jobs_warn_nothing(self):
        job = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                        scale="smoke", interference="none")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(job, solver="megatron")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
