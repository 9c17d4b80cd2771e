"""The (S, G) cell bounds the pruned search cuts with.

``MistTuner._cell_bounds`` floors every stage position's time by its
least compute-channel time at each layer count, and
:func:`~repro.core.inter_stage.objective_floor` composes the floors
through Eq. (1) with every delta at zero. The tests check the bound
against the objectives of exhaustive searches, the kernel premises it
rests on, the DP against brute-force enumeration, and ratchet how few
cells two reference searches explore.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TuningJob
from repro.api.solvers import MistSolver
from repro.core import NAMED_SPACES
from repro.core.inter_stage import objective_floor

ROOT = Path(__file__).resolve().parents[2]


def _corpus_script():
    path = ROOT / "scripts" / "refresh_plan_corpus.py"
    spec = importlib.util.spec_from_file_location("refresh_plan_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = _corpus_script()
#: the plan corpus's cold mist jobs, then every named space on its two
#: smallest Table-4 quick jobs
MIST_JOBS = [job for solver, job, _ in CORPUS.solves() if solver == "mist"]
JOBS = MIST_JOBS + [job.with_(space=name) for job in MIST_JOBS[:2]
                    for name in NAMED_SPACES if name != "mist"]
MIXED_BASE = TuningJob.for_cluster(CORPUS.MIXED_A100_L4, model="gpt3-2.7b",
                                   global_batch=64, scale="smoke")


@pytest.mark.parametrize("job", JOBS, ids=[
    f"{job.name}-{job.scale}-{job.space}" for job in JOBS])
def test_bound_never_exceeds_the_solved_objective(job):
    tuner = MistSolver().make_tuner(job)
    # the premise the search checks before it cuts
    assert all(analyzer.interference.min_factor() >= 1.0
               for analyzer in tuner.analyzers.values())
    grid = tuner._sg_grid(job.global_batch)
    bounds, feasible = tuner._cell_bounds(job.global_batch, grid)
    result = tuner.search(job.global_batch, prune=False)
    solved = 0
    for bound, ok, entry in zip(bounds, feasible, result.search_log,
                                strict=True):
        if entry["objective"] is None:
            continue
        assert ok and bound <= entry["objective"], entry
        solved += 1
    assert solved


def test_floor_reads_no_pinned_symbol():
    # the floor evaluates at ZeRO 0, no offload, gacc 1, one in flight:
    # the compute channel must not read any of them
    job = TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64)
    analyzer = MistSolver().make_tuner(job).analyzers[""]
    pinned = {"z1", "z2", "z3", "wo", "go", "oo", "ao", "gacc", "inflight"}
    assert not pinned & set(analyzer._comp_fn.used_symbols)


def test_recomputation_never_lowers_the_compute_channel():
    job = TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64)
    analyzer = MistSolver().make_tuner(job).analyzers[""]
    b, tp, layers, ckpt, pre, post = (a.ravel() for a in np.meshgrid(
        [1, 2, 4, 8], [1, 2, 4], range(1, 9), range(9), [0, 1], [0, 1],
        indexing="ij"))
    valid = ckpt <= layers
    b, tp, layers, ckpt, pre, post = (
        a[valid] for a in (b, tp, layers, ckpt, pre, post))

    def comp(ckpt_values):
        return analyzer.compute_channel(analyzer.build_env(
            b=b, s=job.seq_len, dp=1, tp=tp, l=layers, ckpt=ckpt_values,
            zero=0, wo=0, go=0, oo=0, ao=0, gacc=1, inflight=1,
            has_pre=pre, has_post=post))

    pinned, recomputed = comp(0), comp(ckpt)
    assert (recomputed >= pinned).all()
    assert (recomputed[ckpt > 0] > pinned[ckpt > 0]).all()


def _enumerated_floor(floors, total_layers, gacc):
    best = math.inf
    for combo in itertools.product(*(stage.items() for stage in floors)):
        if sum(layers for layers, _ in combo) != total_layers:
            continue
        times = [f for _, f in combo]
        best = min(best, (gacc - 1) * max(times) + sum(times))
    return best


class TestObjectiveFloor:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(floors=st.lists(
               st.dictionaries(st.integers(1, 6),
                               st.floats(0.0, 10.0, allow_nan=False),
                               min_size=1, max_size=4),
               min_size=1, max_size=4),
           total_layers=st.integers(1, 16), gacc=st.integers(1, 8))
    def test_equals_enumeration(self, floors, total_layers, gacc):
        assert objective_floor(floors, total_layers, gacc) \
            == _enumerated_floor(floors, total_layers, gacc)

    def test_bottleneck_trades_against_the_sum(self):
        # a balanced 2 + 2 split costs (G-1)*3 + 6; the skewed 3 + 1
        # split's bottleneck is 4, which only wins when G is small
        floors = [{1: 1.0, 2: 3.0, 3: 4.0}, {1: 1.0, 2: 3.0, 3: 4.0}]
        assert objective_floor(floors, 4, 1) == 5.0
        assert objective_floor(floors, 4, 8) == 7 * 3.0 + 6.0

    def test_unreachable_depth_is_infinite(self):
        assert objective_floor([{2: 1.0}, {2: 1.0}], 5, 4) == math.inf


@pytest.mark.parametrize("job, limit", [
    (TuningJob(model="gpt3-2.7b", num_gpus=4, global_batch=64,
               scale="full"), 5),
    (MIXED_BASE, 3),
], ids=["gpt3-2.7b-full", "mixed-fleet-smoke"])
def test_explored_cells_ratchet(job, limit):
    result = MistSolver().make_tuner(job).search(
        job.global_batch, keep_top=job.keep_top)
    assert result.stats.cells_explored <= limit
