"""CampaignSpec.from_dict checks every field when parsed, naming its
path, instead of failing (or expanding something else) in expand()."""

from __future__ import annotations

import pytest

from repro.campaigns import CampaignSpec, CampaignValidationError
from repro.core.schema import DecodeError

BASE = {"name": "grid", "solvers": ["mist"], "models": ["gpt3-1.3b"],
        "clusters": [{"gpu": "L4", "num_gpus": 2}], "global_batches": [8]}


@pytest.mark.parametrize("field, value, message", [
    # a string once expanded to the four solvers m, i, s, t
    ("solvers", "mist", "campaign: 'solvers' must be a list, got 'mist'"),
    # an int once raised a bare TypeError
    ("solvers", 5, "campaign: 'solvers' must be a list, got 5"),
    ("solvers", [5], "campaign.solvers[0]: must be a string, got 5"),
    ("keep_top", 1.5, "campaign: 'keep_top' must be an integer >= 1"),
    ("flash", "no", "campaign: 'flash' must be true or false, got 'no'"),
    ("seq_lens", ["x"], "campaign.seq_lens[0]: must be an integer >= 1"),
    ("global_batches", [0], "campaign.global_batches[0]: must be"),
    ("interference", "sometimes", "campaign: 'interference' must be one"),
    ("family", 3, "campaign: 'family' must be null or a string, got 3"),
    ("clusters", [5], "campaign.clusters[0]: must be a string or an"),
    ("exclude", ["solver"], "campaign.exclude[0]: must be an object"),
])
def test_bad_field_fails_in_from_dict(field, value, message):
    with pytest.raises(CampaignValidationError) as err:
        CampaignSpec.from_dict(dict(BASE, **{field: value}))
    assert str(err.value).startswith(message), str(err.value)
    assert isinstance(err.value, DecodeError)


def test_valid_spec_round_trips_and_expands():
    spec = CampaignSpec.from_dict(BASE)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
    [cell] = spec.expand()
    assert cell.job.global_batch == 8


def test_bad_cluster_entry_names_its_index():
    data = dict(BASE, clusters=[{"gpu": "L4", "num_gpus": 2},
                                {"gpu": 5, "gpus_per_node": 2}])
    with pytest.raises(CampaignValidationError,
                       match=r"campaign\.clusters\[1\]: 'gpu' must be a"):
        CampaignSpec.from_dict(data).expand()
