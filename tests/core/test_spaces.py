"""Tests for search-space definitions and configuration counting."""

import math

import pytest

from repro.core import (
    INCREMENTAL_SPACES,
    SPACE_3D,
    SPACE_3D_CKPT,
    SPACE_3D_ZERO,
    SPACE_MIST,
    log10_configurations,
)
from repro.api import JobValidationError, TuningJob
from repro.core.spaces import (
    NAMED_SPACES,
    SCALES,
    scale_from_dict,
    scale_to_dict,
    space_from_dict,
    space_to_dict,
)


class TestSpaceDefinitions:
    def test_incremental_spaces_grow(self):
        """Each Fig. 13 increment enables strictly more options."""
        def richness(space):
            score = len(space.zero_levels)
            score += 10 if space.tune_ckpt else 0
            for grid in (space.oo_grid, space.ao_grid, space.go_grid,
                         space.wo_grid):
                score += len(grid)
            return score

        scores = [richness(s) for s in INCREMENTAL_SPACES]
        assert scores == sorted(scores)
        assert scores[0] < scores[-1]

    def test_3d_space_is_megatron_like(self):
        assert SPACE_3D.zero_levels == (0, 1)
        assert not SPACE_3D.tune_ckpt
        assert SPACE_3D.layer_slack == 0

    def test_mist_space_has_everything(self):
        assert 3 in SPACE_MIST.zero_levels
        assert SPACE_MIST.tune_ckpt
        assert SPACE_MIST.imbalance_aware

    def test_with_returns_new_instance(self):
        derived = SPACE_3D.with_(name="x", tune_ckpt=True)
        assert derived.tune_ckpt and not SPACE_3D.tune_ckpt

    def test_zero_space_between(self):
        assert SPACE_3D_ZERO.zero_levels == (0, 1, 2, 3)
        assert not SPACE_3D_ZERO.tune_ckpt
        assert SPACE_3D_CKPT.tune_ckpt


class TestScalePresets:
    def test_apply_never_widens(self):
        for scale in SCALES.values():
            applied = scale.apply(SPACE_MIST)
            assert len(applied.oo_grid) <= len(SPACE_MIST.oo_grid)
            assert applied.ckpt_grid_points <= SPACE_MIST.ckpt_grid_points
            assert applied.layer_slack <= SPACE_MIST.layer_slack

    def test_apply_preserves_disabled_grids(self):
        scale = SCALES["quick"]
        applied = scale.apply(SPACE_3D)
        assert applied.oo_grid == (0.0,)  # stays disabled

    def test_smoke_coarser_than_full(self):
        smoke = SCALES["smoke"].apply(SPACE_MIST)
        full = SCALES["full"].apply(SPACE_MIST)
        assert len(smoke.oo_grid) < len(full.oo_grid)


class TestConfigurationCounting:
    def test_monotone_in_layers(self):
        counts = [log10_configurations(n, 32) for n in (16, 32, 64, 80)]
        assert counts == sorted(counts)

    def test_each_optimization_increases_count(self):
        base = log10_configurations(48, 32)
        zero = log10_configurations(48, 32, zero=True)
        ckpt = log10_configurations(48, 32, zero=True, ckpt=True)
        everything = log10_configurations(
            48, 32, zero=True, ckpt=True, oo=True, go=True, po=True,
            ao=True,
        )
        assert base < zero < ckpt < everything

    def test_full_space_is_astronomical(self):
        full = log10_configurations(80, 32, zero=True, ckpt=True, oo=True,
                                    go=True, po=True, ao=True)
        assert full > 100  # paper Figure 5 reaches ~10^150

    def test_finite_values(self):
        value = log10_configurations(16, 2)
        assert math.isfinite(value) and value > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log10_configurations(0, 8)
        with pytest.raises(ValueError):
            log10_configurations(8, 0)


class TestDocumentValidation:
    """Custom space and scale documents are checked when they load."""

    SPACE = space_to_dict(SPACE_MIST)
    SCALE = scale_to_dict(SCALES["quick"])

    def test_named_spaces_and_presets_round_trip(self):
        for space in NAMED_SPACES.values():
            assert space_from_dict(space_to_dict(space)) == space
        for scale in SCALES.values():
            assert scale_from_dict(scale_to_dict(scale)) == scale

    @pytest.mark.parametrize("field, value", [
        ("zero_levels", [0, 4]),
        ("zero_levels", [-1]),
        ("zero_levels", []),
        ("wo_grid", [2.0]),
        ("ao_grid", [0.0, float("nan")]),
        ("oo_grid", []),
        ("ckpt_policy", "sometimes"),
        ("layer_slack", -5),
        ("ckpt_grid_points", 0),
        ("tune_ckpt", "false"),
        ("imbalance_aware", 1),
        ("name", 5),
    ])
    def test_bad_space_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            space_from_dict(dict(self.SPACE, **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("offload_grid", [1.5]),
        ("binary_grid", []),
        ("layer_slack", -1),
        ("ckpt_grid_points", 0),
        ("max_gacc_candidates", 0),
        ("name", None),
    ])
    def test_bad_scale_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            scale_from_dict(dict(self.SCALE, **{field: value}))

    def test_job_reports_the_bad_field(self):
        # "false" used to parse as True and solve a different space
        with pytest.raises(JobValidationError, match="tune_ckpt"):
            TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                      space=dict(self.SPACE, tune_ckpt="false"))
        with pytest.raises(JobValidationError, match="layer_slack"):
            TuningJob(model="gpt3-1.3b", num_gpus=2, global_batch=8,
                      scale=dict(self.SCALE, layer_slack=-5))
