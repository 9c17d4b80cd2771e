"""Tests for the analytic operator database."""

import pytest

from repro.costmodel import OperatorDatabase
from repro.hardware import get_gpu
from repro.models import build_transformer_layer, get_model
from repro.symbolic import evaluate


@pytest.fixture(scope="module")
def l4_db():
    return OperatorDatabase(get_gpu("L4"))


@pytest.fixture(scope="module")
def a100_db():
    return OperatorDatabase(get_gpu("A100-40GB"))


def _layer(spec="gpt3-6.7b", flash=True):
    return build_transformer_layer(get_model(spec), flash=flash)


def _layer_fwd_time(db, layer, env):
    return sum(evaluate(db.fwd_time(op), env) for op in layer.ops)


class TestOperatorDatabase:
    def test_positive_times(self, l4_db):
        layer = _layer()
        env = {"b": 2, "s": 2048, "tp": 1}
        for op in layer.ops:
            assert evaluate(l4_db.fwd_time(op), env) > 0
            assert evaluate(l4_db.bwd_time(op), env) > 0

    def test_bigger_batch_is_more_efficient(self, l4_db):
        """Per-sample time falls as microbatch grows (kernel efficiency)."""
        layer = _layer()
        t1 = _layer_fwd_time(l4_db, layer, {"b": 1, "s": 2048, "tp": 1})
        t8 = _layer_fwd_time(l4_db, layer, {"b": 8, "s": 2048, "tp": 1})
        assert t8 / 8 < t1

    def test_tp_reduces_time_sublinearly(self, l4_db):
        """TP=4 cuts compute but hurts per-rank kernel efficiency."""
        layer = _layer()
        t1 = _layer_fwd_time(l4_db, layer, {"b": 4, "s": 2048, "tp": 1})
        t4 = _layer_fwd_time(l4_db, layer, {"b": 4, "s": 2048, "tp": 4})
        assert t1 / 4 < t4 < t1

    def test_a100_faster_than_l4(self, l4_db, a100_db):
        layer = _layer()
        env = {"b": 4, "s": 2048, "tp": 1}
        assert _layer_fwd_time(a100_db, layer, env) < _layer_fwd_time(
            l4_db, layer, env
        )

    def test_flash_faster_than_standard_attention_large_seq(self, l4_db):
        """Non-flash attention is memory-bound at long sequence lengths."""
        env = {"b": 4, "s": 4096, "tp": 1}
        t_flash = _layer_fwd_time(l4_db, _layer(flash=True), env)
        t_std = _layer_fwd_time(l4_db, _layer(flash=False), env)
        assert t_flash < t_std

    def test_bwd_slower_than_fwd(self, l4_db):
        layer = _layer()
        env = {"b": 4, "s": 2048, "tp": 1}
        fwd = _layer_fwd_time(l4_db, layer, env)
        bwd = sum(evaluate(l4_db.bwd_time(op), env) for op in layer.ops)
        assert 1.5 * fwd < bwd < 3.0 * fwd

    def test_memoization(self):
        db = OperatorDatabase(get_gpu("L4"))
        for op in _layer().ops:
            assert db.timings(op) is db.timings(op)

    def test_realistic_magnitude(self, a100_db):
        """A 6.7B layer fwd at b=1,s=2048 should be ~1-10 ms on A100."""
        layer = _layer()
        t = _layer_fwd_time(a100_db, layer, {"b": 1, "s": 2048, "tp": 1})
        assert 0.5e-3 < t < 20e-3
