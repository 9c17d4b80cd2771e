"""Tests for liveness analysis and the stage memory/runtime models."""

import numpy as np
import pytest

from repro.core.plan import zero_flags
from repro.hardware import get_gpu, make_cluster
from repro.models import build_transformer_layer, get_model
from repro.symbolic import evaluate, free_symbols
from repro.tracing import (
    ALL_SYMBOLS,
    HARDWARE_SYMBOLS,
    backward_transient,
    forward_transient,
    trace,
)
from repro.tracing.symbols import hardware_env, symbol_env

BASE_ENV = {"b": 2, "s": 2048, "tp": 1}


def full_env(cluster, **overrides):
    env = dict(
        b=2, s=2048, tp=1, dp=2, l=8, ckpt=0,
        z1=0, z2=0, z3=0, wo=0.0, go=0.0, oo=0.0, ao=0.0,
        gacc=4, inflight=2, has_pre=0, has_post=0,
    )
    env.update({k: float(v.reshape(-1)[0])
                for k, v in hardware_env(cluster, env["dp"], env["tp"]).items()})
    env.update(overrides)
    return env


@pytest.fixture(scope="module")
def traced():
    return trace(get_model("gpt3-1.3b"), get_gpu("L4"), flash=True)


@pytest.fixture(scope="module")
def cluster():
    return make_cluster("L4", 1, 8)


class TestLiveness:
    def test_forward_transient_positive_and_bounded(self):
        layer = build_transformer_layer(get_model("gpt3-1.3b"), flash=True)
        transient = evaluate(forward_transient(layer), BASE_ENV)
        saved = evaluate(layer.saved_activation_bytes(), BASE_ENV)
        assert 0 < transient < 2 * saved

    def test_backward_transient_exceeds_forward(self):
        layer = build_transformer_layer(get_model("gpt3-1.3b"), flash=False)
        fwd = evaluate(forward_transient(layer), BASE_ENV)
        bwd = evaluate(backward_transient(layer), BASE_ENV)
        assert bwd > 0.5 * fwd  # gradients + stashes in flight

    def test_transient_scales_with_batch(self):
        layer = build_transformer_layer(get_model("gpt3-1.3b"), flash=True)
        t1 = evaluate(forward_transient(layer), {"b": 1, "s": 2048, "tp": 1})
        t4 = evaluate(forward_transient(layer), {"b": 4, "s": 2048, "tp": 1})
        assert t4 == pytest.approx(4 * t1, rel=0.01)


class TestStageMemory:
    def test_symbols_are_canonical(self, traced):
        syms = free_symbols(traced.memory.peak_bwd)
        assert "l" in syms and "ckpt" in syms and "ao" in syms

    def test_ckpt_reduces_memory(self, traced, cluster):
        env = full_env(cluster)
        base = evaluate(traced.memory.peak_bwd, env)
        ck = evaluate(traced.memory.peak_bwd, full_env(cluster, ckpt=8))
        assert ck < base

    def test_zero3_reduces_param_memory(self, traced, cluster):
        base = evaluate(traced.memory.params_resident, full_env(cluster))
        sharded = evaluate(traced.memory.params_resident,
                           full_env(cluster, z3=1, dp=4))
        # 1/4 sharded plus the two-layer gather buffer
        assert sharded < 0.6 * base

    def test_offloading_reduces_memory_monotonically(self, traced, cluster):
        peaks = [
            evaluate(traced.memory.peak_bwd, full_env(cluster, oo=r))
            for r in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))

    def test_activation_offload_scales_with_inflight(self, traced, cluster):
        tall = evaluate(traced.memory.activations_resident,
                        full_env(cluster, inflight=4))
        short = evaluate(traced.memory.activations_resident,
                         full_env(cluster, inflight=1))
        assert tall > 2 * short

    def test_first_stage_heavier_than_middle(self, traced, cluster):
        middle = evaluate(traced.memory.peak_bwd, full_env(cluster))
        first = evaluate(traced.memory.peak_bwd, full_env(cluster, has_pre=1))
        assert first > middle


class TestStageRuntime:
    def test_ckpt_adds_recompute_time(self, traced, cluster):
        base = evaluate(traced.runtime.comp_bwd, full_env(cluster))
        ck = evaluate(traced.runtime.comp_bwd, full_env(cluster, ckpt=8))
        assert ck > base

    def test_tp_comm_zero_when_tp1(self, traced, cluster):
        assert evaluate(traced.runtime.tp_fwd, full_env(cluster)) == 0

    def test_tp_comm_positive_when_sharded(self, traced, cluster):
        env = full_env(cluster, tp=2)
        env.update({k: float(v.reshape(-1)[0]) for k, v in
                    hardware_env(cluster, 2, 2).items()})
        assert evaluate(traced.runtime.tp_fwd, env) > 0

    def test_zero3_adds_dp_comm(self, traced, cluster):
        base = evaluate(traced.runtime.dp_fwd, full_env(cluster))
        z3 = evaluate(traced.runtime.dp_fwd, full_env(cluster, z3=1))
        assert base == 0 and z3 > 0

    def test_grad_sync_moves_between_phases(self, traced, cluster):
        """ZeRO<2: grad sync in dp_last; ZeRO-2: per-microbatch dp_bwd."""
        env0 = full_env(cluster)
        env2 = full_env(cluster, z1=1, z2=1)
        assert evaluate(traced.runtime.dp_last, env0) > 0
        assert evaluate(traced.runtime.dp_bwd, env0) == 0
        assert evaluate(traced.runtime.dp_last, env2) == 0
        assert evaluate(traced.runtime.dp_bwd, env2) > 0

    def test_offload_traffic_on_host_channels(self, traced, cluster):
        env = full_env(cluster, ao=0.5)
        assert evaluate(traced.runtime.d2h_fwd, env) > 0
        assert evaluate(traced.runtime.h2d_bwd, env) > 0
        assert evaluate(traced.runtime.d2h_fwd, full_env(cluster)) == 0

    def test_optimizer_offload_first_microbatch_only(self, traced, cluster):
        env = full_env(cluster, oo=0.5)
        assert evaluate(traced.runtime.h2d_first, env) > 0
        assert evaluate(traced.runtime.d2h_first, env) > 0

    def test_edge_stage_p2p_cheaper(self, traced, cluster):
        interior = evaluate(traced.runtime.p2p_fwd, full_env(cluster))
        first = evaluate(traced.runtime.p2p_fwd, full_env(cluster, has_pre=1))
        single = evaluate(traced.runtime.p2p_fwd,
                          full_env(cluster, has_pre=1, has_post=1))
        assert interior > first > single == 0

    def test_batched_evaluation_matches_scalar(self, traced, cluster):
        """Vectorized envs agree with per-point evaluation."""
        ckpts = np.array([0, 4, 8])
        env = full_env(cluster)
        env["ckpt"] = ckpts
        batched = evaluate(traced.runtime.comp_bwd, env)
        for i, c in enumerate(ckpts):
            scalar = evaluate(traced.runtime.comp_bwd,
                              full_env(cluster, ckpt=int(c)))
            assert batched[i] == pytest.approx(scalar)


class TestSymbolEnv:
    @pytest.fixture(scope="class")
    def multinode(self):
        return make_cluster("L4", 2, 4)

    def test_hardware_env_repeated_pairs_match_scalar_lookups(self,
                                                              multinode):
        dp = np.array([[1, 2, 8], [2, 1, 8], [1, 2, 2]])
        tp = np.array([[4, 2, 1], [2, 4, 1], [4, 2, 4]])
        env = hardware_env(multinode, dp, tp)
        assert set(env) == {sym.name for sym in HARDWARE_SYMBOLS}
        for name, values in env.items():
            assert values.shape == dp.shape
            for i in np.ndindex(dp.shape):
                scalar = hardware_env(multinode, int(dp[i]), int(tp[i]))
                assert isinstance(scalar[name], np.float64)
                assert values[i] == scalar[name]

    def config(self, **overrides):
        values = dict(b=2, s=2048, dp=2, tp=1, l=8, ckpt=0, zero=0,
                      wo=0.0, go=0.0, oo=0.0, ao=0.0, gacc=4, inflight=2,
                      has_pre=0, has_post=0)
        values.update(overrides)
        return values

    def test_broadcasts_scalars_against_columns(self, multinode):
        """Scalars stay ``np.float64`` scalars and arrays keep their own
        shapes (the compiled kernels broadcast them); arrays that do not
        broadcast together are an error naming them, and the hardware
        values follow ``dp``/``tp``."""
        ckpt = np.array([0, 2, 4, 8])
        wo = np.array([[0.0], [0.5]])
        env = symbol_env(multinode, **self.config(ckpt=ckpt, wo=wo))
        assert set(env) == {sym.name for sym in ALL_SYMBOLS}
        for name, values in env.items():
            if name == "ckpt":
                assert values.shape == (4,) and values.dtype == float
            elif name == "wo":
                assert values.shape == (2, 1) and values.dtype == float
            else:
                assert isinstance(values, np.float64), name
        assert env["ckpt"].tolist() == [0.0, 2.0, 4.0, 8.0]
        assert env["wo"].tolist() == [[0.0], [0.5]]
        assert env["b"] == 2.0 and env["b"].size == 1
        with pytest.raises(ValueError) as exc:
            symbol_env(multinode, **self.config(ckpt=ckpt,
                                                wo=np.array([0.0, 0.5])))
        assert "ckpt (4,)" in str(exc.value) and "wo (2,)" in str(exc.value)
        assert "dp" not in str(exc.value)
        # hardware values follow dp/tp: scalars for scalars ...
        hw = hardware_env(multinode, 2, 1)
        assert env["dp_bw"] == hw["dp_bw"]
        # ... and arrays of dp's shape for an array dp
        dp = np.array([1, 2, 8])
        env = symbol_env(multinode, **self.config(dp=dp, l=np.array([8])))
        assert env["b"].shape == ()
        for name in hw:
            assert env[name].shape == (3,), name
            assert env[name].tolist() == [
                hardware_env(multinode, int(d), 1)[name] for d in dp]
        assert env["l"].tolist() == [8.0]
        # and along the axis dp lies on, for a grid
        env = symbol_env(multinode, **self.config(
            dp=dp.reshape(3, 1), ckpt=ckpt.reshape(1, 4)))
        assert env["dp_bw"].shape == (3, 1) and env["ckpt"].shape == (1, 4)

    def test_zero_level_expands_to_flags(self, multinode):
        env = symbol_env(multinode, **self.config(zero=np.array([0, 1, 2, 3])))
        assert env["z1"].tolist() == [0, 1, 1, 1]
        assert env["z2"].tolist() == [0, 0, 1, 1]
        assert env["z3"].tolist() == [0, 0, 0, 1]
        for level in range(4):
            flags = symbol_env(multinode, **self.config(zero=level))
            assert tuple(flags[z] for z in ("z1", "z2", "z3")) \
                == zero_flags(level)

    def test_p2p_link_applies_only_when_given(self, multinode):
        # dp * tp = 4 fills a node, so p2p rides the network
        plain = symbol_env(multinode, **self.config(dp=4))
        hw = hardware_env(multinode, 4, 1)
        assert plain["p2p_bw"] == hw["p2p_bw"]
        assert plain["p2p_lat"] == hw["p2p_lat"]
        slow = symbol_env(multinode, **self.config(dp=4),
                          p2p_link=(1e9, 1e-3))
        assert slow["p2p_bw"] == 1e9 < hw["p2p_bw"]
        assert slow["p2p_lat"] == 1e-3 > hw["p2p_lat"]
        fast = symbol_env(multinode, **self.config(dp=4),
                          p2p_link=(1e15, 0.0))
        assert fast["p2p_bw"] == hw["p2p_bw"]
        assert fast["p2p_lat"] == hw["p2p_lat"]
        for name in plain:
            if name not in ("p2p_bw", "p2p_lat"):
                assert slow[name] == plain[name]
