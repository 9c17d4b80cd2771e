"""Tests for CampaignSpec: matrix expansion, excludes, serialization."""

import json

import pytest

from repro.api import TuningJob
from repro.campaigns import CampaignCell, CampaignSpec, CampaignValidationError
from repro.campaigns.spec import (
    batch_for_size,
    default_seq_len,
    gpu_count_for_size,
)


class TestTable4ScalingRule:
    def test_paper_grid_scaling_rule(self):
        sizes = ("1.3b", "2.7b", "6.7b", "13b", "22b")
        assert [gpu_count_for_size(s) for s in sizes] == [2, 4, 8, 16, 32]
        assert [batch_for_size(s) for s in sizes] \
            == [32, 64, 128, 256, 512]
        assert gpu_count_for_size("22B") == 32   # case-insensitive

    def test_seq_len_per_gpu_type(self):
        assert default_seq_len("L4") == 2048
        assert default_seq_len("A100-40GB") == 4096

    def test_gpu_count_lookup(self):
        assert gpu_count_for_size("6.7b") == 8
        with pytest.raises(KeyError):
            gpu_count_for_size("100b")
        with pytest.raises(KeyError):
            batch_for_size("100b")


class TestValidation:
    def test_needs_solvers_and_models(self):
        with pytest.raises(CampaignValidationError):
            CampaignSpec(name="x", solvers=(), models=("gpt3-1.3b",))
        with pytest.raises(CampaignValidationError):
            CampaignSpec(name="x", solvers=("mist",))

    def test_sizes_require_family(self):
        with pytest.raises(CampaignValidationError):
            CampaignSpec(name="x", solvers=("mist",), sizes=("1.3b",))

    def test_reference_must_be_a_solver(self):
        with pytest.raises(CampaignValidationError):
            CampaignSpec(name="x", solvers=("mist",),
                         models=("gpt3-1.3b",), global_batches=(8,),
                         reference="megatron")

    def test_exclude_rules_validated(self):
        with pytest.raises(CampaignValidationError):
            CampaignSpec(name="x", solvers=("mist",), models=("gpt3-1.3b",),
                         global_batches=(8,), exclude=({"planet": "mars"},))

    def test_unknown_solver_rejected_at_expansion(self):
        spec = CampaignSpec(name="x", solvers=("no-such-solver",),
                            models=("gpt3-1.3b",),
                            clusters=({"gpu": "L4", "num_gpus": 2},),
                            global_batches=(8,))
        with pytest.raises(CampaignValidationError, match="unknown solver"):
            spec.expand()
        # ...but can be skipped for manifest inspection
        assert len(spec.expand(check_solvers=False)) == 1

    def test_unknown_size_rejected(self):
        spec = CampaignSpec(name="x", solvers=("mist",), family="gpt3",
                            sizes=("9000b",))
        with pytest.raises(CampaignValidationError, match="unknown size"):
            spec.expand()

    def test_explicit_model_needs_batches(self):
        spec = CampaignSpec(name="x", solvers=("mist",),
                            models=("gpt3-1.3b",),
                            clusters=({"gpu": "L4", "num_gpus": 2},))
        with pytest.raises(CampaignValidationError, match="global_batches"):
            spec.expand()

    def test_shorthand_cluster_without_count_needs_family(self):
        spec = CampaignSpec(name="x", solvers=("mist",),
                            models=("gpt3-1.3b",),
                            clusters=({"gpu": "L4"},), global_batches=(8,))
        with pytest.raises(CampaignValidationError, match="num_gpus"):
            spec.expand()

    def test_shorthand_cluster_must_fill_whole_nodes(self):
        # the implied cluster is whole 8-GPU nodes; 12 GPUs needs an
        # explicit cluster dict instead of being priced on 8
        spec = CampaignSpec(name="x", solvers=("mist",),
                            models=("gpt3-1.3b",),
                            clusters=({"gpu": "L4", "num_gpus": 12},),
                            global_batches=(8,))
        with pytest.raises(CampaignValidationError, match="cluster="):
            spec.expand()


class TestExpansion:
    def test_family_grid_follows_table4_rule(self):
        spec = CampaignSpec(name="grid", solvers=("megatron", "mist"),
                            family="gpt3", sizes=("1.3b", "2.7b"),
                            clusters=({"gpu": "L4"},), scales=("smoke",))
        cells = spec.expand()
        assert len(cells) == 4
        by_model = {(c.solver, c.model): c for c in cells}
        cell = by_model[("mist", "gpt3-2.7b")]
        assert cell.job.num_gpus == 4
        assert cell.job.global_batch == 64
        assert cell.job.seq_len == 2048       # L4 default

    def test_family_grid_is_the_table4_grid(self):
        # 1.3B on 2 GPUs with batch 32 up to 22B on 32 with batch 512;
        # sequence length 2048 on L4 and 4096 on A100
        sizes = ("1.3b", "2.7b", "6.7b", "13b", "22b")
        for gpu, seq_len in (("L4", 2048), ("A100-40GB", 4096)):
            spec = CampaignSpec.paper_grid(gpu=gpu, sizes=sizes,
                                           solvers=("mist",))
            shapes = [(c.job.model, c.job.num_gpus, c.job.global_batch,
                       c.job.seq_len, c.job.cluster)
                      for c in spec.expand()]
            assert shapes == [
                ("gpt3-1.3b", 2, 32, seq_len, None),
                ("gpt3-2.7b", 4, 64, seq_len, None),
                ("gpt3-6.7b", 8, 128, seq_len, None),
                ("gpt3-13b", 16, 256, seq_len, None),
                ("gpt3-22b", 32, 512, seq_len, None),
            ]

    def test_cells_match_single_job_path(self):
        # the acceptance-critical identity: campaign cells must carry
        # the exact jobs (and so fingerprints) the sweep/runner builds
        spec = CampaignSpec(name="grid", solvers=("mist",), family="gpt3",
                            sizes=("1.3b",), clusters=({"gpu": "L4"},),
                            scales=("smoke",), global_batches=(8,))
        [cell] = spec.expand()
        direct = TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                           space="mist", scale="smoke")
        assert cell.job == direct
        assert cell.job.fingerprint() == direct.fingerprint()
        assert cell.workload == direct.name

    def test_exclude_rules_drop_cells(self):
        spec = CampaignSpec(
            name="grid", solvers=("megatron", "mist"), family="gpt3",
            sizes=("1.3b", "2.7b"), clusters=({"gpu": "L4"},),
            scales=("smoke",),
            exclude=({"solver": "megatron", "model": "gpt3-2.7b"},),
        )
        cells = spec.expand()
        assert len(cells) == 3
        assert ("megatron", "gpt3-2.7b") not in {
            (c.solver, c.model) for c in cells}

    def test_exclude_list_values(self):
        spec = CampaignSpec(
            name="grid", solvers=("megatron", "mist"), family="gpt3",
            sizes=("1.3b", "2.7b"), clusters=({"gpu": "L4"},),
            exclude=({"model": ["gpt3-1.3b", "gpt3-2.7b"]},),
        )
        assert spec.expand() == []

    def test_duplicate_cells_merged(self):
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b", "gpt3-1.3b"),
                            clusters=({"gpu": "L4", "num_gpus": 2},),
                            global_batches=(8,))
        assert len(spec.expand()) == 1

    def test_explicit_cluster_dict_kept_raw_on_job(self):
        cluster = {"gpu": "L4", "num_nodes": 1, "gpus_per_node": 2}
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b",), clusters=(cluster,),
                            global_batches=(8,))
        [cell] = spec.expand()
        assert cell.job.cluster == cluster
        assert cell.job.num_gpus == 2

    def test_heterogeneous_cluster_axis(self):
        mixed = {"groups": [
            {"name": "a100", "gpu": "A100-40GB", "num_nodes": 1,
             "gpus_per_node": 2},
            {"name": "l4", "gpu": "L4", "num_nodes": 1,
             "gpus_per_node": 2},
        ]}
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b",), clusters=(mixed,),
                            global_batches=(16,))
        [cell] = spec.expand()
        assert cell.job.num_gpus == 4
        assert cell.cluster == "2xA100-40GB+2xL4"
        assert cell.job.seq_len == 4096      # first group is A100

    def test_cluster_file_path_entry(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(
            {"gpu": "L4", "num_nodes": 1, "gpus_per_node": 2}))
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b",), clusters=(str(path),),
                            global_batches=(8,))
        [cell] = spec.expand()
        assert cell.job.num_gpus == 2

    def test_missing_cluster_file_clean_error(self):
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b",),
                            clusters=("/no/such/file.json",),
                            global_batches=(8,))
        with pytest.raises(CampaignValidationError, match="cannot read"):
            spec.expand()

    def test_paper_grid_convenience(self):
        spec = CampaignSpec.paper_grid(gpu="L4", sizes=("1.3b",),
                                       solvers=("megatron", "mist"),
                                       scale="smoke")
        assert spec.name == "gpt3-l4-smoke"
        assert len(spec.expand()) == 2


class TestSerialization:
    SPEC = CampaignSpec(
        name="grid", solvers=("megatron", "mist"), family="gpt3",
        sizes=("1.3b",), clusters=({"gpu": "L4"}, {"gpu": "A100-40GB"}),
        scales=("smoke", "quick"), exclude=({"solver": "megatron"},),
        reference="mist",
    )

    def test_json_round_trip(self):
        assert CampaignSpec.from_json(self.SPEC.to_json()) == self.SPEC

    def test_fingerprint_stable_and_parallelism_free(self):
        assert self.SPEC.fingerprint() == self.SPEC.fingerprint()
        assert (self.SPEC.with_(parallelism=8).fingerprint()
                == self.SPEC.fingerprint())
        assert (self.SPEC.with_(scales=("smoke",)).fingerprint()
                != self.SPEC.fingerprint())

    def test_from_json_rejects_non_object(self):
        with pytest.raises(CampaignValidationError):
            CampaignSpec.from_json("[1, 2]")

    def test_from_dict_rejects_typoed_axis(self):
        # "seq_len" (singular) must not silently vanish into defaults
        data = self.SPEC.to_dict()
        data["seq_len"] = [4096]
        with pytest.raises(CampaignValidationError, match="seq_len"):
            CampaignSpec.from_dict(data)

    def test_cell_ids_are_solver_fingerprint(self):
        spec = CampaignSpec(name="grid", solvers=("mist",),
                            models=("gpt3-1.3b",),
                            clusters=({"gpu": "L4", "num_gpus": 2},),
                            global_batches=(8,))
        [cell] = spec.expand()
        assert isinstance(cell, CampaignCell)
        assert cell.cell_id == f"mist-{cell.job.fingerprint()}"
