"""Campaign resume semantics with real solvers across process boundaries.

The satellite scenario: a process-pool campaign is killed mid-grid
(``should_stop`` fires after two cells — equivalent to a kill, since
the manifest is rewritten atomically per cell), then re-run with
resume. Solved cells must be served from the manifest + PlanCache with
no re-search; only missing cells may execute, and the counters prove
which path each cell took. Plans must stay bit-identical to individual
``repro.api.solve()`` calls. The last class resumes a directory written
by 2.0 with the conftest stub solvers.
"""

import shutil
from pathlib import Path

import pytest

from repro.api import PlanCache, solve
from repro.campaigns import CampaignManifest, CampaignSpec, run_campaign

#: 2 solvers x 2 batches on the tiniest workload = 4 real cells
SPEC = CampaignSpec(
    name="resume-grid",
    solvers=("mist", "uniform"),
    models=("gpt3-1.3b",),
    clusters=({"gpu": "L4", "num_gpus": 2},),
    scales=("smoke",),
    global_batches=(8, 16),
    interference="none",
)


@pytest.fixture(scope="module")
def killed_run(tmp_path_factory):
    """One process-pool campaign aborted after two recorded cells."""
    directory = tmp_path_factory.mktemp("campaign")
    recorded = []

    def should_stop() -> bool:
        return len(recorded) >= 2

    report = run_campaign(
        SPEC, executor="process-pool", executor_options={"workers": 2},
        directory=directory,
        on_event=lambda rec, _r: recorded.append(rec),
        should_stop=should_stop,
    )
    return directory, report


class TestKilledMidGrid:
    def test_partial_manifest_survives(self, killed_run):
        directory, report = killed_run
        assert report.counters["done"] == 2
        assert report.counters["pending"] == 2
        manifest = CampaignManifest(directory)
        assert manifest.load()
        assert len(manifest.cells()) == 2
        assert all(rec["status"] == "done" for rec in manifest.cells())

    def test_resume_serves_done_cells_without_research(self, killed_run):
        directory, _ = killed_run
        manifest = CampaignManifest(directory)
        assert manifest.load()
        done_before = {rec["cell_id"] for rec in manifest.cells()}

        report = run_campaign(SPEC, executor="process-pool",
                              executor_options={"workers": 2},
                              directory=directory, resume=True)
        # the two recorded cells came straight from the manifest; the
        # two the kill dropped were finished by in-flight workers and
        # landed in the plan cache, so *zero* new searches ran — the
        # memo/cache counters prove it
        assert report.counters["done"] == 4
        assert report.counters["manifest_hits"] == 2
        assert report.counters["solved"] == 0
        assert (report.counters["cache_hits"]
                + report.counters["manifest_hits"]) == 4
        by_id = {rec["cell_id"]: rec for rec in report.cells}
        for cell_id in done_before:
            assert by_id[cell_id]["source"] == "manifest"

        # an immediate second resume is pure manifest
        report2 = run_campaign(SPEC, executor="process-pool",
                               executor_options={"workers": 2},
                               directory=directory, resume=True)
        assert report2.counters["manifest_hits"] == 4
        assert report2.counters["solved"] == 0

    def test_evicted_cache_entry_forces_real_resolve(self, killed_run):
        directory, _ = killed_run
        manifest = CampaignManifest(directory)
        assert manifest.load()
        victim = manifest.cells()[0]
        cache = PlanCache(directory / "plans")
        path = cache.path_for_fingerprint(victim["fingerprint"],
                                          victim["solver"])
        assert path.exists()
        path.unlink()
        # manifest says done, but the backing plan is gone -> the cell
        # must actually re-execute (a real search, not a silent reuse)
        report = run_campaign(SPEC, executor="process-pool",
                              executor_options={"workers": 2},
                              directory=directory, resume=True)
        assert report.counters["solved"] == 1
        assert report.counters["manifest_hits"] == 3

    def test_plans_bit_identical_to_individual_solves(self, killed_run):
        directory, _ = killed_run
        report = run_campaign(SPEC, executor="process-pool",
                              executor_options={"workers": 2},
                              directory=directory, resume=True)
        for rec in report.cells:
            from repro.api import TuningJob

            job = TuningJob.from_dict(rec["job"])
            direct = solve(job, rec["solver"])
            assert rec["plan"] == direct.plan.to_dict(), (
                f"{rec['solver']} plan drifted from repro.api.solve()")
            assert rec["throughput"] == pytest.approx(direct.throughput)


class TestResumeGuards:
    def test_resume_without_directory_rejected(self):
        from repro.campaigns import CampaignError

        with pytest.raises(CampaignError, match="directory"):
            run_campaign(SPEC, resume=True)

    def test_resume_without_manifest_rejected(self, tmp_path):
        from repro.campaigns import CampaignError

        with pytest.raises(CampaignError, match="nothing to resume"):
            run_campaign(SPEC, directory=tmp_path / "empty", resume=True)

    def test_resume_spec_mismatch_rejected(self, stub_spec, stub_a,
                                           stub_b, tmp_path):
        from repro.campaigns import CampaignError

        run_campaign(stub_spec, directory=tmp_path / "run")
        changed = stub_spec.with_(global_batches=(8,))
        with pytest.raises(CampaignError, match="spec changed"):
            run_campaign(changed, directory=tmp_path / "run", resume=True)


class TestManifestWrittenByV2:
    """A campaign directory 2.0 wrote (stub solvers ``camp-a``/``camp-b``
    from conftest; implied, explicit-homogeneous and mixed clusters):
    its cells keep their ids and ``workload`` names, so a resume serves
    every one of them and reports the same rows."""

    FIXTURE = Path(__file__).parent / "fixtures" / "v2_campaign"
    #: ``report.results()`` of the 2.0 run that wrote the fixture
    RESULTS = {
        "gpt3-1.3b-L4x2-B8-s2048-flash": {"camp-a": 8.0, "camp-b": 12.0},
        "gpt3-1.3b-L4x16-B8-s2048-flash": {"camp-a": 8.0, "camp-b": 12.0},
        "gpt3-1.3b-2xA100-40GB+2xL4-B8-s4096-flash":
            {"camp-a": 8.0, "camp-b": 12.0},
    }

    def test_resume_reports_same_rows_without_solving(self, tmp_path,
                                                      stub_a, stub_b):
        directory = tmp_path / "campaign"
        shutil.copytree(self.FIXTURE, directory)
        manifest = CampaignManifest(directory)
        assert manifest.load()
        # 2.x specs carry the removed "parallelism" field
        assert "parallelism" in manifest.spec_dict
        spec = CampaignSpec.from_dict(manifest.spec_dict)
        assert spec.fingerprint() == manifest.fingerprint
        stored = {rec["cell_id"]: rec["workload"]
                  for rec in manifest.cells()}
        assert {cell.cell_id: cell.workload
                for cell in spec.expand()} == stored

        report = run_campaign(spec, directory=directory, resume=True)
        assert report.counters["solved"] == 0
        assert report.counters["manifest_hits"] == 6
        assert stub_a.invocations == stub_b.invocations == 0
        assert report.results() == self.RESULTS
