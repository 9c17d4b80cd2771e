"""Named model configurations matching the paper's workloads (Table 4).

Sizes follow the published architecture tables: GPT-3 (Brown et al.),
Llama-2 (Touvron et al.), Falcon (Almazrouei et al.); the 22B and 40B
points extrapolate with the same width/depth ratios the paper uses.
"""

from __future__ import annotations

from repro.core.schema import UnknownNameError

from .config import ModelConfig

__all__ = ["get_model", "list_models", "MODEL_SIZES"]

#: size tag -> (num_layers, hidden_size, num_heads)
MODEL_SIZES: dict[str, tuple[int, int, int]] = {
    "1.3b": (24, 2048, 16),
    "2.7b": (32, 2560, 20),
    "6.7b": (32, 4096, 32),
    "7b": (32, 4096, 32),  # alias used in the paper's figures
    "13b": (40, 5120, 40),
    "22b": (48, 6144, 48),
    "40b": (48, 8192, 64),
}


def _round_to(value: float, multiple: int) -> int:
    return int(-(-value // multiple) * multiple)


def gpt3(size: str, **overrides) -> ModelConfig:
    layers, hidden, heads = MODEL_SIZES[size.lower()]
    cfg = dict(
        name=f"gpt3-{size.lower()}",
        family="gpt3",
        hidden_size=hidden,
        num_layers=layers,
        num_heads=heads,
        vocab_size=50304,
        ffn_hidden_size=4 * hidden,
        gated_mlp=False,
        parallel_attn=False,
        rmsnorm=False,
        rotary=False,
        tied_embeddings=True,
    )
    cfg.update(overrides)
    return ModelConfig(**cfg)


def llama(size: str, **overrides) -> ModelConfig:
    layers, hidden, heads = MODEL_SIZES[size.lower()]
    ffn = _round_to(8 * hidden / 3, 256)
    cfg = dict(
        name=f"llama-{size.lower()}",
        family="llama",
        hidden_size=hidden,
        num_layers=layers,
        num_heads=heads,
        vocab_size=32000,
        ffn_hidden_size=ffn,
        gated_mlp=True,
        parallel_attn=False,
        rmsnorm=True,
        rotary=True,
        tied_embeddings=False,
    )
    cfg.update(overrides)
    return ModelConfig(**cfg)


def falcon(size: str, **overrides) -> ModelConfig:
    layers, hidden, heads = MODEL_SIZES[size.lower()]
    cfg = dict(
        name=f"falcon-{size.lower()}",
        family="falcon",
        hidden_size=hidden,
        num_layers=layers,
        num_heads=heads,
        vocab_size=65024,
        ffn_hidden_size=4 * hidden,
        gated_mlp=False,
        parallel_attn=True,
        rmsnorm=False,
        rotary=True,
        tied_embeddings=True,
    )
    cfg.update(overrides)
    return ModelConfig(**cfg)


_FAMILIES = {"gpt3": gpt3, "gpt": gpt3, "llama": llama, "llama2": llama,
             "falcon": falcon}


def get_model(spec: str, **overrides) -> ModelConfig:
    """Look up a model by ``"<family>-<size>"``, e.g. ``"gpt3-2.7b"``."""
    try:
        family, size = spec.lower().rsplit("-", 1)
    except ValueError:
        raise UnknownNameError(
            f"model spec {spec!r} is not of the form 'family-size'"
        ) from None
    if family not in _FAMILIES:
        raise UnknownNameError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    if size not in MODEL_SIZES:
        raise UnknownNameError(
            f"unknown size {size!r}; known: {sorted(MODEL_SIZES)}")
    return _FAMILIES[family](size, **overrides)


def list_models() -> list[str]:
    """All canonical ``family-size`` spec strings."""
    return [
        f"{family}-{size}"
        for family in ("gpt3", "llama", "falcon")
        for size in ("1.3b", "2.7b", "6.7b", "13b", "22b", "40b")
    ]
