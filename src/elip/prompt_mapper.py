"""Trainable MLP turning a text embedding into n visual prompt vectors.

Forward: linear(d_t -> hidden) -> GELU -> linear(hidden -> hidden) -> GELU
-> linear(hidden -> n*d_v), reshaped row-major into n tokens of width d_v
(token i = flat slice [i*d_v, (i+1)*d_v)). The final layer starts at zero
so a fresh model injects exactly-zero prompt tokens.
"""

from __future__ import annotations

from . import numkit
from .config import MapperConfig
from .encoders import ModelBundle, TextEncoding
from .errors import ConfigError
from .numkit import Array, LayerParams


def pool_text_dense(text_enc: TextEncoding) -> Array:
    """Mean over the m dense token states, CLS excluded."""
    return text_enc.dense.mean(axis=0)


def _mapper_input(text_enc: TextEncoding, cfg: MapperConfig) -> Array:
    if cfg.input_mode == "cls":
        return text_enc.t_cls
    if cfg.input_mode == "dense_mean":
        return pool_text_dense(text_enc)
    raise ConfigError(f"unknown mapper input_mode {cfg.input_mode!r}")


def _sub(mapper: LayerParams, layer: str) -> LayerParams:
    return LayerParams(name=f"{mapper.name}.{layer}", tensors={
        "weight": mapper.tensors[f"{layer}.weight"],
        "bias": mapper.tensors[f"{layer}.bias"],
    })


def map_prompts_with_cache(
    mapper: LayerParams, text_enc: TextEncoding, cfg: MapperConfig, d_v: int
) -> tuple[Array, tuple]:
    x = _mapper_input(text_enc, cfg).reshape(1, -1)
    if mapper.tensors["l1.weight"].shape[1] != x.shape[1]:
        raise ConfigError(
            f"mapper input width {x.shape[1]} != l1 width "
            f"{mapper.tensors['l1.weight'].shape[1]}"
        )
    h1, c1 = numkit.linear(_sub(mapper, "l1"), x)
    a1, g1 = numkit.gelu(h1)
    h2, c2 = numkit.linear(_sub(mapper, "l2"), a1)
    a2, g2 = numkit.gelu(h2)
    flat, c3 = numkit.linear(_sub(mapper, "l3"), a2)
    n = flat.shape[1] // d_v if d_v else 0
    prompts = flat.reshape(n, d_v)
    return prompts, (c1, g1, c2, g2, c3)


def prompts_for_text(model: ModelBundle, text_enc: TextEncoding) -> Array:
    prompts, _ = map_prompts_with_cache(model.mapper, text_enc, model.mapper_cfg, model.dims.d_v)
    return prompts


def map_prompts_backward(
    mapper: LayerParams, cache: tuple, grad_prompts: Array
) -> dict[str, Array]:
    """Gradients on all six mapper tensors from a (n, d_v) prompt gradient."""
    c1, g1, c2, g2, c3 = cache
    grad_flat = grad_prompts.reshape(1, -1)
    grad_a2, gr3 = numkit.linear_backward(c3, grad_flat)
    grad_h2 = numkit.gelu_backward(g2, grad_a2)
    grad_a1, gr2 = numkit.linear_backward(c2, grad_h2)
    grad_h1 = numkit.gelu_backward(g1, grad_a1)
    _, gr1 = numkit.linear_backward(c1, grad_h1)
    return {
        "l1.weight": gr1["weight"], "l1.bias": gr1["bias"],
        "l2.weight": gr2["weight"], "l2.bias": gr2["bias"],
        "l3.weight": gr3["weight"], "l3.bias": gr3["bias"],
    }
