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
from repro.core.spaces import SCALES


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
