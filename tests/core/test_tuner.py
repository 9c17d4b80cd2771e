"""Integration tests for the hierarchical MistTuner."""

import pytest

from repro.core import (
    MistTuner,
    SPACE_3D,
    SPACE_3D_ZERO,
    SPACE_MIST,
)
from repro.core.tuner import gacc_candidates
from repro.costmodel import calibrated_interference
from repro.execution import ExecutionEngine
from repro.hardware import make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 2)
SEQ_LEN = 2048
BATCH = 16


def make_tuner(space=SPACE_MIST, **kwargs):
    defaults = dict(seq_len=SEQ_LEN, flash=True, space=space,
                    interference=calibrated_interference(True),
                    max_gacc_candidates=3)
    defaults.update(kwargs)
    return MistTuner(MODEL, CLUSTER, **defaults)


@pytest.fixture(scope="module")
def mist_result():
    return make_tuner().search(BATCH)


class TestTuner:
    def test_finds_valid_plan(self, mist_result):
        assert mist_result.found
        mist_result.best_plan.validate(MODEL, CLUSTER)

    def test_plan_executes_without_oom(self, mist_result):
        engine = ExecutionEngine(CLUSTER, system="mist")
        result = engine.run(mist_result.best_plan, MODEL, seq_len=SEQ_LEN)
        assert result.throughput > 0

    def test_prediction_close_to_execution(self, mist_result):
        engine = ExecutionEngine(CLUSTER, system="mist")
        result = engine.run(mist_result.best_plan, MODEL, seq_len=SEQ_LEN)
        err = abs(result.iteration_time
                  - mist_result.predicted_iteration_time)
        assert err / result.iteration_time < 0.10

    def test_search_log_populated(self, mist_result):
        assert mist_result.search_log
        assert all("num_stages" in entry for entry in mist_result.search_log)

    def test_wider_space_never_predicts_worse(self):
        narrow = make_tuner(space=SPACE_3D).search(BATCH)
        wide = make_tuner(space=SPACE_MIST).search(BATCH)
        assert wide.found and narrow.found
        assert wide.predicted_throughput >= narrow.predicted_throughput * 0.99

    def test_zero_space_includes_zero_configs(self):
        result = make_tuner(space=SPACE_3D_ZERO).search(BATCH)
        assert result.found

    def test_gacc_candidates_capped(self):
        assert gacc_candidates(256, 1) == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert gacc_candidates(256, 1, 2) == [1, 256]
        # deep pipelines skip G < S / 2
        assert gacc_candidates(16, 8) == [4, 8, 16]
        tuner = make_tuner(max_gacc_candidates=2)
        for gacc, _, slots in tuner._sg_grid(256):
            assert gacc in gacc_candidates(256, len(slots), 2)

    def test_layer_counts_around_balance(self):
        tuner = make_tuner()
        counts = tuner._layer_counts(2)
        assert 12 in counts
        assert min(counts) >= 1

    def test_imbalance_unaware_variant_runs(self):
        space = SPACE_MIST.with_(name="no-imb", imbalance_aware=False)
        result = make_tuner(space=space).search(BATCH)
        assert result.found


class TestOneSearchPath:
    """``search`` and ``replan`` share one driver and one cell routine."""

    def test_single_per_cell_routine(self):
        assert callable(MistTuner._solve_cell)
        for removed in ("tune", "_tune_pipeline", "_tune_pipeline_hetero",
                        "_tune_pipeline_memo", "_search_pruned"):
            assert not hasattr(MistTuner, removed), removed

    @pytest.mark.parametrize("method", ["search", "replan"])
    def test_engine_keyword_rejected(self, method, mist_result):
        # there is one evaluation path, so there is nothing to select
        kwargs = ({"incumbent": mist_result.best_plan}
                  if method == "replan" else {})
        with pytest.raises(TypeError, match="engine"):
            getattr(make_tuner(), method)(BATCH, engine="interpreted",
                                          **kwargs)


class TestSearchHooks:
    """The service-facing hooks: progress relay + cooperative cancel."""

    def test_progress_called_once_per_cell(self):
        tuner = make_tuner()
        calls = []
        result = tuner.search(BATCH,
                              progress=lambda done, total: calls.append(
                                  (done, total)))
        assert result.found
        total = calls[0][1]
        assert total == len(tuner._sg_grid(BATCH))
        assert calls == [(i + 1, total) for i in range(total)]

    def test_progress_called_from_parallel_search(self):
        tuner = make_tuner()
        calls = []
        parallel = tuner.search(BATCH, parallelism=4,
                                progress=lambda done, total: calls.append(
                                    (done, total)))
        serial = make_tuner().search(BATCH)
        # every cell reported exactly once, monotonically
        assert sorted(done for done, _ in calls) == list(
            range(1, len(calls) + 1))
        # hooks must not perturb the search outcome
        assert parallel.best_plan == serial.best_plan

    def test_should_stop_raises_search_cancelled(self):
        from repro.core import SearchCancelled

        tuner = make_tuner()
        with pytest.raises(SearchCancelled):
            tuner.search(BATCH, should_stop=lambda: True)

    def test_cancel_mid_search(self):
        from repro.core import SearchCancelled

        tuner = make_tuner()
        seen = []

        def progress(done, total):
            seen.append(done)

        # trip the flag once the first cell lands; the next cell must
        # not start
        with pytest.raises(SearchCancelled):
            tuner.search(BATCH, progress=progress,
                         should_stop=lambda: bool(seen))
        assert len(seen) < len(tuner._sg_grid(BATCH))

    def test_no_hooks_unchanged(self):
        # hook-free search stays identical to the pre-hook behavior
        hookless = make_tuner().search(BATCH)
        hooked = make_tuner().search(BATCH, progress=lambda d, t: None,
                                     should_stop=lambda: False)
        assert hookless.best_plan == hooked.best_plan
