"""Model architecture configurations.

The paper evaluates three transformer families (Table 4): GPT-3
(standard decoder blocks), Llama-2 style (RMSNorm, SwiGLU gated MLP,
rotary embeddings) and Falcon style (parallel attention + MLP, a single
all-reduce per layer under tensor parallelism).

Following the paper's methodology, dropout is zero and linear layers
have no biases, so parameter/activation formulas omit both.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """Static description of a decoder-only transformer."""

    name: str
    family: str  # "gpt3" | "llama" | "falcon"
    hidden_size: int
    num_layers: int
    num_heads: int
    vocab_size: int
    ffn_hidden_size: int
    #: SwiGLU-style gated MLP (three projection matrices)
    gated_mlp: bool = False
    #: Falcon-style parallel attention+MLP sharing one input norm
    parallel_attn: bool = False
    #: RMSNorm instead of LayerNorm
    rmsnorm: bool = False
    #: rotary position embeddings (otherwise learned absolute)
    rotary: bool = False
    #: LM head shares the embedding matrix
    tied_embeddings: bool = True
    #: learned absolute position table size (ignored with rotary)
    max_position_embeddings: int = 4096

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.family not in ("gpt3", "llama", "falcon"):
            raise ValueError(f"unknown family {self.family!r}")

    # -- parameter counts ---------------------------------------------------

    @property
    def attn_params_per_layer(self) -> int:
        h = self.hidden_size
        return 3 * h * h + h * h  # QKV + output projection

    @property
    def mlp_params_per_layer(self) -> int:
        h, e = self.hidden_size, self.ffn_hidden_size
        if self.gated_mlp:
            return 3 * h * e  # gate, up, down
        return 2 * h * e

    @property
    def norm_params_per_layer(self) -> int:
        n_norms = 1 if self.parallel_attn else 2
        return n_norms * self.hidden_size

    @property
    def params_per_layer(self) -> int:
        return (
            self.attn_params_per_layer
            + self.mlp_params_per_layer
            + self.norm_params_per_layer
        )

    @property
    def embedding_params(self) -> int:
        params = self.vocab_size * self.hidden_size
        if not self.rotary:
            params += self.max_position_embeddings * self.hidden_size
        return params

    @property
    def head_params(self) -> int:
        params = self.hidden_size  # final norm
        if not self.tied_embeddings:
            params += self.vocab_size * self.hidden_size
        return params

    @property
    def total_params(self) -> int:
        return (
            self.num_layers * self.params_per_layer
            + self.embedding_params
            + self.head_params
        )

    #: TP all-reduces per transformer layer in the forward pass. Falcon's
    #: parallel attention+MLP needs only one (Section 6.1).
    @property
    def tp_allreduces_per_layer(self) -> int:
        return 1 if self.parallel_attn else 2

    def with_layers(self, num_layers: int) -> "ModelConfig":
        """Clone with a different depth (used by the Fig. 14 layer sweep)."""
        from dataclasses import replace

        return replace(self, num_layers=num_layers,
                       name=f"{self.name}-L{num_layers}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.total_params / 1e9:.1f}B params)"
