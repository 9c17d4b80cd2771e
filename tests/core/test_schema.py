"""The field-table decoder (``repro.core.schema``) and every document's
table, as properties: a valid document round-trips to itself with the
same fingerprint or plan hash, and a document with one field of the
wrong JSON type, or one required field missing, raises the decoder's
error naming that field — never a bare KeyError, TypeError or
AttributeError.

Runs under a derandomized profile with a fixed example budget, so
tier-1 stays deterministic."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import SolveReport, TuningJob
from repro.api.job import JOB
from repro.api.report import REPORT
from repro.benchmarking import plan_hash
from repro.benchmarking.bench import BASELINE as BENCH_BASELINE
from repro.campaigns import CampaignReport, CampaignSpec, aggregate
from repro.campaigns.manifest import (CELL_RECORD, MANIFEST,
                                      pending_cell_record)
from repro.campaigns.report import CAMPAIGN_REPORT
from repro.campaigns.spec import CAMPAIGN
from repro.core.plan import PLAN, STAGE, StageConfig, TrainingPlan
from repro.core.schema import (
    REQUIRED,
    DecodeError,
    Field,
    Int,
    List,
    Num,
    Str,
    Table,
    UnknownNameError,
    decode,
)
from repro.core.spaces import (
    NAMED_SPACES,
    SCALE,
    SCALES,
    SPACE,
    SearchSpace,
    TuningScale,
    scale_from_dict,
    scale_to_dict,
    space_from_dict,
    space_to_dict,
)
from repro.hardware import (
    GPU_REGISTRY,
    ClusterDelta,
    cluster_from_dict,
    cluster_to_dict,
)
from repro.hardware.delta import DELTA, OP_TABLES
from repro.hardware.topology import FLEET, GROUP, NODES
from repro.loadgen.report import BASELINE as LOAD_BASELINE
from repro.service.server import (
    CAMPAIGN_BODY,
    JOB_BODY,
    REPLAN_BODY,
    _parse_job_body,
)

PROFILE = settings(derandomize=True, max_examples=20, deadline=None)


class TestDecode:
    TABLE = Table("thing", (
        Field("count", Int(ge=1)),
        Field("ratio", Num(ge=0, le=1), 0.5),
        Field("tags", List(Str()), []),
    ), ignore=frozenset({"old"}))

    def test_values_are_kept_and_defaults_filled(self):
        data = {"count": 2, "old": 1}
        assert decode(self.TABLE, data, "t") == {
            "count": 2, "ratio": 0.5, "tags": []}
        # defaults are copies: a caller may edit what it gets back
        decode(self.TABLE, data, "t")["tags"].append("x")
        assert decode(self.TABLE, data, "t")["tags"] == []

    @pytest.mark.parametrize("data, message", [
        ([1], "thing must be a JSON object, got [1]"),
        ({}, "t: required field 'count' is missing"),
        ({"count": True}, "t: 'count' must be an integer >= 1, got True"),
        ({"count": 0}, "t: 'count' must be an integer >= 1, got 0"),
        ({"count": 1, "ratio": 10**400},
         "t: 'ratio' must be finite and in [0, 1], got 1000"),
        ({"count": 1, "ratio": float("nan")}, "t: 'ratio' must be finite"),
        ({"count": 1, "tags": ["a", 3]},
         "t.tags[1]: must be a string, got 3"),
        ({"count": 1, "cuont": 1},
         "t: unknown field(s) ['cuont']; valid: ['count', 'ratio', "
         "'tags']"),
    ])
    def test_messages_name_the_field_path(self, data, message):
        with pytest.raises(DecodeError) as err:
            decode(self.TABLE, data, "t")
        assert str(err.value).startswith(message), str(err.value)

    def test_error_class_is_chosen_by_the_caller(self):
        class Mine(DecodeError):
            pass

        with pytest.raises(Mine):
            decode(self.TABLE, {}, "t", Mine)


class TestProbeInputs:
    """The inputs that once loaded as something else or escaped as a
    bare exception."""

    PLAN_DOC = {"global_batch": 8, "gacc": 2, "stages": [
        {"layers": 24, "microbatch": 2, "dp": 2, "tp": 1}]}

    @pytest.mark.parametrize("change, where", [
        ({"gacc": 1.7}, "plan: 'gacc'"),
        ({"global_batch": "8"}, "plan: 'global_batch'"),
        ({"stages": "x"}, "plan: 'stages'"),
        ({"metadata": [1]}, "plan: 'metadata'"),
        ({"stages": [{"layers": 24, "microbatch": 2, "dp": 2, "tp": 1.9}]},
         "plan.stages[0]: 'tp'"),
        ({"stages": [{"microbatch": 2, "dp": 2, "tp": 1}]},
         "plan.stages[0]: required field 'layers'"),
    ])
    def test_plans(self, change, where):
        with pytest.raises(DecodeError, match=where.replace("[", r"\[")):
            TrainingPlan.from_dict(dict(self.PLAN_DOC, **change))

    def test_plan_reals_become_floats(self):
        stage = dict(self.PLAN_DOC["stages"][0], wo=1, oo=0)
        plan = TrainingPlan.from_dict(dict(self.PLAN_DOC, stages=[stage]))
        assert plan.stages[0].wo == 1.0 and isinstance(plan.stages[0].wo,
                                                       float)

    @pytest.mark.parametrize("doc, where", [
        ({"gpu": 5, "gpus_per_node": 2}, "cluster: 'gpu'"),
        ({"gpu": "L4", "gpus_per_node": 2, "inter_node_bandwidth": [1]},
         "cluster: 'inter_node_bandwidth'"),
    ])
    def test_clusters(self, doc, where):
        with pytest.raises(DecodeError, match=where):
            cluster_from_dict(doc)

    @pytest.mark.parametrize("doc", [{}, {"inter_group_latency": 1}])
    def test_cluster_without_gpu_or_groups(self, doc):
        # shrunk from the missing-field property: a fleet without
        # "groups" once read as a flat cluster missing its "gpu"
        with pytest.raises(DecodeError, match="'gpu'.*'groups'"):
            cluster_from_dict(doc)

    def test_space_without_name(self):
        doc = space_to_dict(NAMED_SPACES["mist"])
        del doc["name"]
        with pytest.raises(DecodeError, match="required field 'name'"):
            space_from_dict(doc)

    def test_scale_without_offload_grid(self):
        doc = scale_to_dict(SCALES["quick"])
        del doc["offload_grid"]
        with pytest.raises(DecodeError,
                           match="required field 'offload_grid'"):
            scale_from_dict(doc)

    def test_report_without_job(self):
        with pytest.raises(DecodeError, match="required field 'job'"):
            SolveReport.from_dict({"solver": "mist"})

    def test_unknown_names_stay_key_errors(self):
        from repro.hardware import get_gpu
        from repro.models import get_model

        for lookup, name in ((get_gpu, "H900"), (get_model, "gpt3-99b")):
            with pytest.raises(UnknownNameError) as err:
                lookup(name)
            assert isinstance(err.value, KeyError)


# -- strategies: valid documents ---------------------------------------------

_names = st.text("abcdefgh", min_size=1, max_size=6)
_ratios = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
                   max_size=3)
_gpus = st.sampled_from(sorted(GPU_REGISTRY))


def _links(bandwidths, latencies):
    """Optional link keys, each in one of its two units."""
    keys = ([st.sampled_from([k, k + "_gbps"]) for k in bandwidths]
            + [st.sampled_from([k, k + "_us"]) for k in latencies])
    return st.tuples(*(st.one_of(st.none(), key) for key in keys)).flatmap(
        lambda chosen: st.fixed_dictionaries(
            {key: st.sampled_from([1, 2.5, 400]) for key in chosen
             if key is not None}))


_NODE_LINKS = (("inter_node_bandwidth",),
               ("inter_node_latency", "intra_node_latency"))

nodes = st.builds(
    lambda gpu, counts, links: {"gpu": gpu, **counts, **links},
    _gpus,
    st.fixed_dictionaries({"gpus_per_node": st.integers(1, 8)},
                          optional={"num_nodes": st.integers(1, 3)}),
    _links(*_NODE_LINKS))
groups = st.builds(lambda node, name: dict(node, name=name), nodes, _names)
fleets = st.builds(
    lambda groups, links: {"groups": groups, **links},
    st.lists(groups, min_size=1, max_size=3,
             unique_by=lambda g: g["name"]),
    _links(("inter_group_bandwidth",), ("inter_group_latency",)))

spaces = st.builds(
    SearchSpace, name=_names,
    zero_levels=st.lists(st.integers(0, 3), min_size=1, max_size=4)
    .map(tuple),
    tune_ckpt=st.booleans(), ckpt_policy=st.sampled_from(["auto", "full"]),
    ckpt_grid_points=st.integers(1, 9),
    **{f: _ratios.map(tuple) for f in ("oo_grid", "ao_grid", "go_grid",
                                       "wo_grid")},
    imbalance_aware=st.booleans(), layer_slack=st.integers(0, 3))
scales = st.builds(
    TuningScale, name=_names, offload_grid=_ratios.map(tuple),
    binary_grid=_ratios.map(tuple), ckpt_grid_points=st.integers(1, 9),
    layer_slack=st.integers(0, 3), max_gacc_candidates=st.integers(1, 8))


@st.composite
def jobs(draw):
    kwargs = dict(
        model=draw(st.sampled_from(["gpt3-1.3b", "gpt3-2.7b", "llama-7b"])),
        global_batch=draw(st.integers(1, 256)),
        seq_len=draw(st.sampled_from([1024, 2048])),
        flash=draw(st.booleans()),
        space=draw(st.one_of(st.sampled_from(sorted(NAMED_SPACES)),
                             spaces.map(space_to_dict))),
        scale=draw(st.one_of(st.sampled_from(sorted(SCALES)),
                             scales.map(scale_to_dict))),
        interference=draw(st.sampled_from(["auto", "none"])),
        keep_top=draw(st.integers(1, 4)),
        options=draw(st.dictionaries(_names, st.integers(0, 9),
                                     max_size=2)))
    if draw(st.booleans()):
        return TuningJob.for_cluster(draw(st.one_of(nodes, fleets)),
                                     **kwargs)
    return TuningJob(gpu=draw(_gpus),
                     num_gpus=draw(st.sampled_from([1, 2, 8, 16])),
                     **kwargs)


@st.composite
def stage_configs(draw):
    layers = draw(st.integers(0, 8))
    ratios = st.sampled_from([0.0, 0.5, 1.0])
    return StageConfig(
        layers=layers, microbatch=draw(st.integers(1, 8)),
        dp=draw(st.integers(1, 8)), tp=draw(st.sampled_from([1, 2, 4])),
        zero=draw(st.integers(0, 3)), ckpt=draw(st.integers(0, layers)),
        wo=draw(ratios), go=draw(ratios), oo=draw(ratios), ao=draw(ratios),
        device_group=draw(st.sampled_from(["", "a100", "l4"])))


plans = st.builds(
    TrainingPlan, global_batch=st.integers(1, 64), gacc=st.integers(1, 8),
    stages=st.lists(stage_configs(), min_size=1, max_size=4).map(tuple),
    source=_names,
    metadata=st.dictionaries(_names, st.integers(0, 9), max_size=2))
reports = st.builds(
    SolveReport, solver=_names, job=jobs(),
    plan=st.one_of(st.none(), plans),
    predicted=st.fixed_dictionaries({"iteration_time": st.floats(0, 9)}),
    tuning_time_seconds=st.floats(0, 9),
    configurations_evaluated=st.integers(0, 99),
    search_log=st.lists(st.fixed_dictionaries({"cell": st.integers(0, 9)}),
                        max_size=2),
    top_plans=st.lists(plans, max_size=2))

#: one op per kind, from the constructor helpers
delta_ops = st.one_of(
    st.builds(ClusterDelta.add_nodes, st.integers(1, 4), group=_names),
    st.builds(ClusterDelta.remove_nodes, st.integers(1, 4), group=_names),
    st.builds(ClusterDelta.resize_group, _names,
              num_nodes=st.integers(1, 4), gpus_per_node=st.integers(1, 8)),
    st.builds(ClusterDelta.retype_group, _names, _gpus),
    st.builds(ClusterDelta.remove_group, _names),
    st.builds(ClusterDelta.degrade_link, st.sampled_from([0.25, 0.5, 2]),
              link=st.sampled_from(["inter_node", "inter_group"]),
              group=_names),
).map(lambda delta: delta.ops[0])

campaigns = st.builds(
    CampaignSpec, name=_names,
    solvers=st.lists(st.sampled_from(["mist", "megatron", "uniform"]),
                     min_size=1, max_size=2, unique=True).map(tuple),
    family=st.just("gpt3"), sizes=st.just(("1.3b",)),
    clusters=st.lists(st.one_of(st.just({"gpu": "L4"}), nodes),
                      min_size=1, max_size=2).map(tuple),
    scales=st.lists(st.one_of(st.sampled_from(["smoke", "quick"]),
                              scales.map(scale_to_dict)),
                    min_size=1, max_size=2).map(tuple),
    seq_lens=st.lists(st.sampled_from([1024, 2048]), max_size=2)
    .map(tuple),
    flash=st.booleans(), keep_top=st.integers(1, 4),
    interference=st.sampled_from(["auto", "none"]))


# -- the documents: table, valid-document strategy, decoder ------------------

def _fleet_of(group):
    return cluster_from_dict({"groups": [group]})


def _delta_of(op):
    return ClusterDelta.from_dict({"ops": [op]})


def _job_body(body):
    return _parse_job_body(body)


def _replan_body(body):
    return _parse_job_body(body, REPLAN_BODY)


def _records(spec):
    return [pending_cell_record(cell) for cell in spec.expand()]


def _manifest(spec):
    return {"version": 1, "name": spec.name,
            "fingerprint": spec.fingerprint(), "spec": spec.to_dict(),
            "cells": _records(spec)}


def _decoder(table):
    return lambda doc: decode(table, doc, "doc")


def _committed(name):
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    return st.just(json.loads((path / name).read_text()))


_CELL = st.builds(lambda job, solver: {"job": job.to_dict(),
                                       "solver": solver},
                  jobs(), _names)
DOCUMENTS = {
    "job": (JOB, jobs().map(TuningJob.to_dict), TuningJob.from_dict),
    "plan": (PLAN, plans.map(TrainingPlan.to_dict), TrainingPlan.from_dict),
    "stage": (STAGE, stage_configs().map(StageConfig.to_dict),
              StageConfig.from_dict),
    "report": (REPORT, reports.map(SolveReport.to_dict),
               SolveReport.from_dict),
    "cluster": (NODES, nodes, cluster_from_dict),
    "group": (GROUP, groups, _fleet_of),
    "fleet": (FLEET, fleets, cluster_from_dict),
    "space": (SPACE, spaces.map(space_to_dict), space_from_dict),
    "scale": (SCALE, scales.map(scale_to_dict), scale_from_dict),
    "delta": (DELTA, st.lists(delta_ops, min_size=1, max_size=3)
              .map(lambda ops: {"ops": ops}), ClusterDelta.from_dict),
    **{f"delta op {kind}": (table, delta_ops.filter(
        lambda op, kind=kind: op["op"] == kind), _delta_of)
       for kind, table in OP_TABLES.items()},
    "campaign": (CAMPAIGN, campaigns.map(CampaignSpec.to_dict),
                 CampaignSpec.from_dict),
    "cell record": (CELL_RECORD, campaigns.map(lambda s: _records(s)[0]),
                    _decoder(CELL_RECORD)),
    "campaign manifest": (MANIFEST, campaigns.map(_manifest),
                          _decoder(MANIFEST)),
    "campaign report": (CAMPAIGN_REPORT, campaigns.map(
        lambda s: aggregate(s, _records(s)).to_dict()),
        CampaignReport.from_dict),
    "bench baseline": (BENCH_BASELINE, _committed("BENCH_smoke.json"),
                       _decoder(BENCH_BASELINE)),
    "load baseline": (LOAD_BASELINE, _committed("LOAD_smoke.json"),
                      _decoder(LOAD_BASELINE)),
    "jobs body": (JOB_BODY, _CELL, _job_body),
    "replan body": (REPLAN_BODY, st.builds(
        lambda cell, delta, budget: dict(cell, delta={"ops": [delta]},
                                         budget_seconds=budget),
        _CELL, delta_ops, st.sampled_from([0, 0.5, 3])), _replan_body),
    "campaigns body": (CAMPAIGN_BODY, st.builds(
        lambda name, cells: {"name": name, "cells": cells},
        _names, st.lists(_CELL, min_size=1, max_size=2)),
        lambda body: decode(CAMPAIGN_BODY, body, "body")),
}

#: one value of each JSON type
_WRONG = (None, True, 5, 1.5, "x", [1], {"k": 1})


def _kind(value) -> str:
    return {type(None): "null", bool: "boolean", int: "integer",
            float: "number", str: "string", list: "array",
            dict: "object"}[type(value)]


# -- the properties ----------------------------------------------------------

class TestRoundTrip:
    @PROFILE
    @given(jobs())
    def test_job(self, job):
        again = TuningJob.from_json(job.to_json())
        assert again == job and again.fingerprint() == job.fingerprint()
        # stored as given: the cluster dict is the one written
        assert again.cluster == job.cluster

    @PROFILE
    @given(plans)
    def test_plan(self, plan):
        again = TrainingPlan.from_json(plan.to_json())
        assert again == plan and plan_hash(again) == plan_hash(plan)

    @PROFILE
    @given(reports)
    def test_report(self, report):
        text = report.to_json()
        assert SolveReport.from_json(text).to_json() == text

    @PROFILE
    @given(st.one_of(nodes, fleets))
    def test_cluster(self, doc):
        parsed = cluster_from_dict(doc)
        assert cluster_from_dict(cluster_to_dict(parsed)) == parsed

    @PROFILE
    @given(spaces, scales)
    def test_space_and_scale(self, space, scale):
        assert space_from_dict(space_to_dict(space)) == space
        assert scale_from_dict(scale_to_dict(scale)) == scale

    @PROFILE
    @given(st.lists(delta_ops, min_size=1, max_size=3))
    def test_delta(self, ops):
        delta = ClusterDelta(ops=tuple(ops))
        again = ClusterDelta.from_json(delta.to_json())
        assert again == delta and again.fingerprint() == delta.fingerprint()

    @PROFILE
    @given(campaigns)
    def test_campaign(self, spec):
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec and again.fingerprint() == spec.fingerprint()


def _assert_names(decoder, doc, name):
    try:
        decoder(doc)
    except DecodeError as exc:
        assert name in str(exc), (name, str(exc))
    else:
        pytest.fail(f"{name}: {json.dumps(doc)} decoded")


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
class TestOneBadField:
    @PROFILE
    @given(data=st.data())
    def test_wrong_json_type(self, document, data):
        table, valid, decoder = DOCUMENTS[document]
        doc = data.draw(valid)
        field = data.draw(st.sampled_from(
            [f for f in table.fields if f.name in doc]))
        value = data.draw(st.sampled_from(
            [v for v in _WRONG if _kind(v) not in field.type.json]))
        _assert_names(decoder, dict(doc, **{field.name: value}), field.name)

    @PROFILE
    @given(data=st.data())
    def test_required_field_missing(self, document, data):
        table, valid, decoder = DOCUMENTS[document]
        required = [f.name for f in table.fields if f.default is REQUIRED]
        if not required:
            return
        doc = data.draw(valid)
        name = data.draw(st.sampled_from(required))
        _assert_names(decoder, {k: v for k, v in doc.items() if k != name},
                      name)


@example(op={"op": ["add_nodes"], "count": 1})
@example(op={"op": None})
@PROFILE
@given(op=st.fixed_dictionaries({"op": st.sampled_from(_WRONG)}))
def test_op_kind_of_any_json_type(op):
    # an unhashable kind once escaped as a TypeError from the table lookup
    with pytest.raises(DecodeError, match="unknown delta op"):
        ClusterDelta.from_dict({"ops": [op]})
