"""Tests for model configs, registry, and symbolic layer graphs."""

import pytest

from repro.models import (
    LayerGraph,
    ModelConfig,
    build_post_layer,
    build_pre_layer,
    build_transformer_layer,
    get_model,
    list_models,
    trace_model,
)
from repro.symbolic import evaluate


class TestRegistry:
    @pytest.mark.parametrize(
        "spec,expected_billions",
        [
            ("gpt3-1.3b", 1.3), ("gpt3-2.7b", 2.7), ("gpt3-6.7b", 6.7),
            ("gpt3-13b", 13.0), ("gpt3-22b", 22.0),
            ("llama-6.7b", 6.7), ("falcon-6.7b", 6.7),
        ],
    )
    def test_param_counts_match_names(self, spec, expected_billions):
        model = get_model(spec)
        billions = model.total_params / 1e9
        assert billions == pytest.approx(expected_billions, rel=0.12)

    def test_list_models_all_resolvable(self):
        for spec in list_models():
            assert get_model(spec).total_params > 0

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            get_model("bert-1.3b")
        with pytest.raises(KeyError):
            get_model("gpt3-123b")

    def test_gpt_alias_7b(self):
        assert get_model("gpt3-7b").hidden_size == get_model("gpt3-6.7b").hidden_size

    def test_family_features(self):
        assert get_model("llama-6.7b").gated_mlp
        assert get_model("llama-6.7b").rmsnorm
        assert get_model("falcon-6.7b").parallel_attn
        assert not get_model("gpt3-6.7b").rotary

    def test_with_layers_clone(self):
        base = get_model("gpt3-22b")
        deeper = base.with_layers(80)
        assert deeper.num_layers == 80
        assert deeper.hidden_size == base.hidden_size


class TestModelConfigValidation:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig(name="x", family="gpt3", hidden_size=100,
                        num_layers=2, num_heads=3, vocab_size=1000,
                        ffn_hidden_size=400)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModelConfig(name="x", family="rnn", hidden_size=64,
                        num_layers=2, num_heads=2, vocab_size=100,
                        ffn_hidden_size=256)


ENV = {"b": 4, "s": 2048, "tp": 1}


def fwd_flops(layer: LayerGraph, env: dict) -> float:
    return sum(evaluate(op.flops, env) for op in layer.ops)


def bwd_flops(layer: LayerGraph, env: dict) -> float:
    return sum(evaluate(op.flops * op.bwd_flops_factor, env)
               for op in layer.ops)


class TestLayerGraphs:
    @pytest.mark.parametrize("spec", ["gpt3-2.7b", "llama-2.7b", "falcon-2.7b"])
    @pytest.mark.parametrize("flash", [True, False])
    def test_build_all_families(self, spec, flash):
        layer = build_transformer_layer(get_model(spec), flash=flash)
        assert isinstance(layer, LayerGraph)
        assert fwd_flops(layer, ENV) > 0

    def test_saved_activations_match_literature(self):
        """GPT block (no flash) saves bsh(8 + 24/tp) + 2·b·a·s²/tp bytes,
        within ~10% of the published 34·bsh + 2·b·a·s² (dropout disabled)."""
        model = get_model("gpt3-2.7b")
        layer = build_transformer_layer(model, flash=False)
        b, s, h, a = 4, 2048, model.hidden_size, model.num_heads
        for tp in (1, 2, 4):
            measured = evaluate(layer.saved_activation_bytes(),
                                {"b": b, "s": s, "tp": tp})
            expected = b * s * h * (8 + 24 / tp) + 2 * b * a * s * s / tp
            assert measured == pytest.approx(expected, rel=0.02)
        at_tp1 = evaluate(layer.saved_activation_bytes(),
                          {"b": b, "s": s, "tp": 1})
        literature = 34 * b * s * h + 2 * b * a * s * s
        assert at_tp1 == pytest.approx(literature, rel=0.10)

    def test_flash_removes_quadratic_term(self):
        model = get_model("gpt3-2.7b")
        noflash = build_transformer_layer(model, flash=False)
        flash = build_transformer_layer(model, flash=True)
        saved_noflash = evaluate(noflash.saved_activation_bytes(), ENV)
        saved_flash = evaluate(flash.saved_activation_bytes(), ENV)
        assert saved_flash < 0.6 * saved_noflash

    def test_flops_scale_inverse_with_tp(self):
        layer = build_transformer_layer(get_model("gpt3-6.7b"), flash=True)
        f1 = fwd_flops(layer, {"b": 4, "s": 2048, "tp": 1})
        f4 = fwd_flops(layer, {"b": 4, "s": 2048, "tp": 4})
        # the sharded GEMMs dominate; norm/residual work is replicated
        assert f4 == pytest.approx(f1 / 4, rel=0.05)

    def test_bwd_flops_roughly_twice_fwd(self):
        layer = build_transformer_layer(get_model("gpt3-6.7b"), flash=False)
        fwd = fwd_flops(layer, ENV)
        bwd = bwd_flops(layer, ENV)
        assert 1.8 <= bwd / fwd <= 2.2

    def test_gpt_layer_flops_formula(self):
        """fwd flops per layer ≈ 24·b·s·h² + 4·b·s²·h (GEMM terms)."""
        model = get_model("gpt3-6.7b")
        layer = build_transformer_layer(model, flash=False)
        b, s, h = 4, 2048, model.hidden_size
        measured = fwd_flops(layer, ENV)
        expected = 24 * b * s * h * h + 4 * b * s * s * h
        assert measured == pytest.approx(expected, rel=0.05)

    def test_tp_comm_volume(self):
        model = get_model("gpt3-2.7b")
        layer = build_transformer_layer(model, flash=True)
        bytes_fwd = evaluate(layer.tp_allreduce_fwd_bytes(), ENV)
        # two all-reduces of b·s·h fp16 elements
        assert bytes_fwd == 2 * (2 * 4 * 2048 * model.hidden_size)

    def test_falcon_tp_comm_half_of_gpt(self):
        gpt = build_transformer_layer(get_model("gpt3-2.7b"), flash=True)
        falcon = build_transformer_layer(get_model("falcon-2.7b"), flash=True)
        assert (
            evaluate(falcon.tp_allreduce_fwd_bytes(), ENV)
            == evaluate(gpt.tp_allreduce_fwd_bytes(), ENV) / 2
        )

    def test_ckpt_saved_is_layer_input(self):
        model = get_model("gpt3-2.7b")
        layer = build_transformer_layer(model, flash=True)
        assert (
            evaluate(layer.ckpt_saved_bytes(), ENV)
            == 2 * 4 * 2048 * model.hidden_size
        )

    def test_undefined_tensor_rejected(self):
        from repro.models.ops import Op, OpKind
        from repro.symbolic import Const

        with pytest.raises(ValueError, match="undefined"):
            LayerGraph(
                name="bad",
                ops=[Op(name="op", kind=OpKind.ELEMENTWISE,
                        inputs=("ghost",), output="y",
                        output_bytes=Const(4))],
                input_tensor="x", input_bytes=Const(4),
            )


class TestPrePostLayers:
    def test_pre_layer_params(self):
        model = get_model("gpt3-2.7b")
        pre = build_pre_layer(model)
        count = evaluate(pre.param_count, {"tp": 1})
        assert count == model.embedding_params

    def test_post_layer_logits_dominate_memory(self):
        model = get_model("gpt3-2.7b")
        post = build_post_layer(model)
        saved = evaluate(post.saved_activation_bytes(), ENV)
        logits = 2 * 4 * 2048 * model.vocab_size
        assert saved > logits  # logits plus norm/head stashes

    def test_trace_model_bundles_all_parts(self):
        graph = trace_model(get_model("gpt3-1.3b"), flash=True)
        assert graph.pre.name == "pre_layer"
        assert graph.post.name == "post_layer"
        assert evaluate(graph.boundary_activation_bytes, ENV) == 2 * 4 * 2048 * 2048
