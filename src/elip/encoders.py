"""Frozen toy text and ViT image encoders with a prompt-injection point.

Weights are seeded-random stand-ins for pretrained backbones: the artifact
verifies the re-ranking mechanism, not pretrained quality. Only the mapper
(and the ITM head for the B variant) are trainable; everything else stays
byte-identical through training.

Image token order is [patch tokens (+pos), CLS (+pos), prompt tokens
(no positional embedding)]; prompts enter at dims.insert_layer and
participate in every later block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import numkit
from .config import DimsConfig, MapperConfig, VARIANTS
from .errors import ConfigError, DataError, DimensionError, NumericError
from .numkit import Array, LayerParams
from .rng import Rng

ITM_QUERY_COUNT = 4


@dataclass
class TextEncoding:
    dense: Array  # (m, d_t) final token states
    t_cls: Array  # (d_t,) final CLS state
    t_joint: Array  # (d_e,) unit-norm projected embedding


@dataclass
class ImageEncoding:
    patch_states: Array  # (P, d_v)
    cls_state: Array  # (d_v,)
    v_joint: Array  # (d_e,) unit-norm projected embedding
    attn: list  # per layer (H, T, T) attention weights
    prompt_count: int


@dataclass
class ModelBundle:
    dims: DimsConfig
    variant: str
    seed: int
    dtype: np.dtype
    mapper_cfg: MapperConfig
    token_embed: LayerParams
    text_pos: LayerParams
    text_cls: LayerParams
    text_blocks: list
    text_ln: LayerParams
    proj_text: LayerParams
    patch_embed: LayerParams
    image_pos: LayerParams
    image_cls: LayerParams
    image_blocks: list
    image_ln: LayerParams
    proj_image: LayerParams
    mapper: LayerParams
    itm_head: LayerParams | None = None

    def layers(self) -> list[LayerParams]:
        out = [self.token_embed, self.text_pos, self.text_cls, *self.text_blocks,
               self.text_ln, self.proj_text, self.patch_embed, self.image_pos,
               self.image_cls, *self.image_blocks, self.image_ln, self.proj_image,
               self.mapper]
        if self.itm_head is not None:
            out.append(self.itm_head)
        return out

    def iter_tensors(self):
        """Yield (name, array, trainable) in canonical checkpoint order."""
        for layer in self.layers():
            for key in sorted(layer.tensors):
                yield f"{layer.name}.{key}", layer.tensors[key], layer.trainable

    def trainable_layers(self) -> list[LayerParams]:
        return [p for p in self.layers() if p.trainable]


def _block_params(name: str, rng: Rng, d: int, dtype) -> LayerParams:
    def w(rows, cols, fan_in):
        return rng.gaussian_matrix(rows, cols, 1.0 / np.sqrt(fan_in)).astype(dtype)

    tensors = {
        "ln1.gamma": np.ones(d, dtype=dtype),
        "ln1.beta": np.zeros(d, dtype=dtype),
        "wq": w(d, d, d), "bq": np.zeros(d, dtype=dtype),
        "wk": w(d, d, d), "bk": np.zeros(d, dtype=dtype),
        "wv": w(d, d, d), "bv": np.zeros(d, dtype=dtype),
        "wo": w(d, d, d), "bo": np.zeros(d, dtype=dtype),
        "ln2.gamma": np.ones(d, dtype=dtype),
        "ln2.beta": np.zeros(d, dtype=dtype),
        "w1": w(4 * d, d, d), "b1": np.zeros(4 * d, dtype=dtype),
        "w2": w(d, 4 * d, 4 * d), "b2": np.zeros(d, dtype=dtype),
    }
    return LayerParams(name=name, tensors=tensors)


def _ln_params(name: str, d: int, dtype) -> LayerParams:
    return LayerParams(name=name, tensors={
        "gamma": np.ones(d, dtype=dtype), "beta": np.zeros(d, dtype=dtype),
    })


def init_frozen_model(
    seed: int,
    dims: DimsConfig,
    variant: str = "C",
    mapper_cfg: MapperConfig | None = None,
    dtype=np.float32,
) -> ModelBundle:
    """Build a full bundle from one seed; the draw order below is pinned.

    Weight matrices and embedding/CLS/positional tables come from the
    SplitMix64 stream at scale 1/sqrt(fan_in); biases start at zero,
    layer-norm at identity. The mapper's final layer is zero-initialized so
    training starts from a no-op prompt; the ITM scorer stays random like
    the pretrained head it stands in for (a zero scorer would cut gradient
    flow to the mapper whenever the head is frozen).
    """
    dims = dims.validate()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if mapper_cfg is None:
        mapper_cfg = MapperConfig(n=dims.n)
    mapper_cfg = mapper_cfg.validate()
    if mapper_cfg.n != dims.n:
        raise ConfigError(f"mapper n={mapper_cfg.n} != dims n={dims.n}")
    hidden = mapper_cfg.hidden or 4 * dims.d_v
    mapper_cfg = replace(mapper_cfg, hidden=hidden)

    rng = Rng(seed)
    dtype = np.dtype(dtype)

    def w(name_rows, cols, fan_in):
        return rng.gaussian_matrix(name_rows, cols, 1.0 / np.sqrt(fan_in)).astype(dtype)

    token_embed = LayerParams("token_embed", {"weight": w(dims.vocab, dims.d_t, dims.d_t)})
    text_pos = LayerParams("text_pos", {"weight": w(dims.m + 1, dims.d_t, dims.d_t)})
    text_cls = LayerParams("text_cls", {"weight": w(1, dims.d_t, dims.d_t)})
    text_blocks = [
        _block_params(f"text.block{i}", rng, dims.d_t, dtype) for i in range(dims.L_t)
    ]
    text_ln = _ln_params("text.final_ln", dims.d_t, dtype)
    proj_text = LayerParams("proj_text", {"weight": w(dims.d_e, dims.d_t, dims.d_t)})

    patch_embed = LayerParams("patch_embed", {
        "weight": w(dims.d_v, dims.d_in, dims.d_in),
        "bias": np.zeros(dims.d_v, dtype=dtype),
    })
    image_pos = LayerParams("image_pos", {"weight": w(dims.P + 1, dims.d_v, dims.d_v)})
    image_cls = LayerParams("image_cls", {"weight": w(1, dims.d_v, dims.d_v)})
    image_blocks = [
        _block_params(f"image.block{i}", rng, dims.d_v, dtype) for i in range(dims.L_v)
    ]
    image_ln = _ln_params("image.final_ln", dims.d_v, dtype)
    proj_image = LayerParams("proj_image", {"weight": w(dims.d_e, dims.d_v, dims.d_v)})

    mapper = LayerParams("mapper", {
        "l1.weight": w(hidden, dims.d_t, dims.d_t),
        "l1.bias": np.zeros(hidden, dtype=dtype),
        "l2.weight": w(hidden, hidden, hidden),
        "l2.bias": np.zeros(hidden, dtype=dtype),
        "l3.weight": np.zeros((dims.n * dims.d_v, hidden), dtype=dtype),
        "l3.bias": np.zeros(dims.n * dims.d_v, dtype=dtype),
    }, trainable=True)

    itm_head = None
    if variant == "B":
        q = ITM_QUERY_COUNT
        itm_head = LayerParams("itm", {
            "queries": w(q, dims.d_v, dims.d_v),
            "wq": w(dims.d_v, dims.d_v, dims.d_v), "bq": np.zeros(dims.d_v, dtype=dtype),
            "wk": w(dims.d_v, dims.d_v, dims.d_v), "bk": np.zeros(dims.d_v, dtype=dtype),
            "wv": w(dims.d_v, dims.d_v, dims.d_v), "bv": np.zeros(dims.d_v, dtype=dtype),
            "wo": w(dims.d_v, dims.d_v, dims.d_v), "bo": np.zeros(dims.d_v, dtype=dtype),
            "tproj.weight": w(dims.d_v, dims.d_t, dims.d_t),
            "tproj.bias": np.zeros(dims.d_v, dtype=dtype),
            "mlp.l1.weight": w(dims.d_v, 2 * dims.d_v, 2 * dims.d_v),
            "mlp.l1.bias": np.zeros(dims.d_v, dtype=dtype),
            "mlp.l2.weight": w(1, dims.d_v, dims.d_v),
            "mlp.l2.bias": np.zeros(1, dtype=dtype),
        }, trainable=True)

    return ModelBundle(
        dims=dims, variant=variant, seed=seed, dtype=dtype, mapper_cfg=mapper_cfg,
        token_embed=token_embed, text_pos=text_pos, text_cls=text_cls,
        text_blocks=text_blocks, text_ln=text_ln, proj_text=proj_text,
        patch_embed=patch_embed, image_pos=image_pos, image_cls=image_cls,
        image_blocks=image_blocks, image_ln=image_ln, proj_image=proj_image,
        mapper=mapper, itm_head=itm_head,
    )


# ---------------------------------------------------------------------------
# projection + L2 normalization
# ---------------------------------------------------------------------------


def project_normalize(proj: LayerParams, vec: Array) -> tuple[Array, tuple]:
    u = proj.tensors["weight"] @ vec
    norm = float(np.sqrt(np.dot(u, u)))
    if not np.isfinite(norm) or norm == 0.0:
        raise NumericError(f"degenerate embedding norm {norm!r} in {proj.name}")
    out = u / np.asarray(norm, dtype=u.dtype)
    return out, (proj.tensors["weight"], out, norm)


def project_normalize_backward(cache: tuple, grad_out: Array) -> Array:
    weight, out, norm = cache
    grad_u = (grad_out - np.dot(grad_out, out) * out) / norm
    return weight.T @ grad_u


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


def _pad_tokens(tokens, m: int, vocab: int) -> list[int]:
    ids = list(tokens)
    if len(ids) > m:
        raise DataError(f"token list of length {len(ids)} exceeds m={m}")
    for t in ids:
        if not 0 <= int(t) < vocab:
            raise DataError(f"token id {t} outside vocabulary of size {vocab}")
    return [int(t) for t in ids] + [0] * (m - len(ids))


def encode_text(model: ModelBundle, tokens) -> TextEncoding:
    """CLS-prepended token pipeline through the frozen text stack."""
    dims = model.dims
    ids = _pad_tokens(tokens, dims.m, dims.vocab)
    embed = model.token_embed.tensors["weight"][ids]
    seq = np.concatenate([model.text_cls.tensors["weight"], embed], axis=0)
    seq = seq + model.text_pos.tensors["weight"]
    for block in model.text_blocks:
        seq, _, _ = numkit.attention_block(block, seq, dims.H)
    states, _ = numkit.layer_norm(model.text_ln, seq)
    t_cls = states[0]
    t_joint, _ = project_normalize(model.proj_text, t_cls)
    return TextEncoding(dense=states[1:], t_cls=t_cls, t_joint=t_joint)


# ---------------------------------------------------------------------------
# image encoder (forward with cache, backward to the prompt rows)
# ---------------------------------------------------------------------------


def image_forward(model: ModelBundle, patches: Array, prompts: Array | None) -> tuple:
    """Returns (states (T,d_v), attn list, proj cache, v_joint, cache)."""
    dims = model.dims
    patches = np.asarray(patches)
    if patches.shape != (dims.P, dims.d_in):
        raise DimensionError(
            f"patches shape {patches.shape} != expected {(dims.P, dims.d_in)}"
        )
    x = patches.astype(model.dtype, copy=False)
    if prompts is not None:
        prompts = np.asarray(prompts, dtype=model.dtype)
        if prompts.size == 0:
            prompts = None
        elif prompts.shape != (dims.n, dims.d_v):
            raise DimensionError(
                f"prompts shape {prompts.shape} != expected {(dims.n, dims.d_v)}"
            )
    n = 0 if prompts is None else prompts.shape[0]

    embedded, _ = numkit.linear(model.patch_embed, x)
    seq = np.concatenate([embedded, model.image_cls.tensors["weight"]], axis=0)
    seq = seq + model.image_pos.tensors["weight"]

    block_caches = []
    attn_all = []
    for layer_idx, block in enumerate(model.image_blocks):
        if layer_idx == dims.insert_layer and n > 0:
            seq = np.concatenate([seq, prompts], axis=0)
        seq, attn, bcache = numkit.attention_block(block, seq, dims.H)
        block_caches.append(bcache)
        attn_all.append(attn)
    states, ln_cache = numkit.layer_norm(model.image_ln, seq)
    v_joint, proj_cache = project_normalize(model.proj_image, states[dims.P])
    cache = (block_caches, ln_cache, n)
    return states, attn_all, proj_cache, v_joint, cache


def image_backward(model: ModelBundle, cache: tuple, grad_states: Array) -> Array:
    """Backprop a gradient on the final token states down to the prompts.

    Frozen-parameter gradients are computed for flow-through and discarded;
    returns the (n, d_v) prompt gradient (empty when no prompts were fed).
    """
    block_caches, ln_cache, n = cache
    dims = model.dims
    grad, _ = numkit.layer_norm_backward(ln_cache, grad_states)
    grad_prompts = np.zeros((0, dims.d_v), dtype=model.dtype)
    for layer_idx in range(dims.L_v - 1, -1, -1):
        grad, _ = numkit.attention_block_backward(
            model.image_blocks[layer_idx], block_caches[layer_idx], grad
        )
        if layer_idx == dims.insert_layer and n > 0:
            grad_prompts = grad[dims.P + 1:]
            grad = grad[: dims.P + 1]
    return grad_prompts


def encode_image(model: ModelBundle, patches: Array, prompts: Array | None = None) -> ImageEncoding:
    states, attn_all, _, v_joint, cache = image_forward(model, patches, prompts)
    dims = model.dims
    return ImageEncoding(
        patch_states=states[: dims.P],
        cls_state=states[dims.P],
        v_joint=v_joint,
        attn=attn_all,
        prompt_count=cache[2],
    )


def gradient_through_frozen(
    model: ModelBundle, patches: Array, prompts: Array | None, upstream: Array
) -> Array:
    """Exact d(v_joint)/d(prompts) contracted with an upstream d_e gradient."""
    states, _, proj_cache, _, cache = image_forward(model, patches, prompts)
    grad_cls = project_normalize_backward(proj_cache, np.asarray(upstream, dtype=model.dtype))
    grad_states = np.zeros_like(states)
    grad_states[model.dims.P] = grad_cls
    return image_backward(model, cache, grad_states)


# ---------------------------------------------------------------------------
# bundle utilities
# ---------------------------------------------------------------------------


def copy_without_prompts(model: ModelBundle) -> ModelBundle:
    """A prompt-free view of the same frozen backbone (n = 0 everywhere)."""
    bare = copy.deepcopy(model)
    hidden = bare.mapper_cfg.hidden
    bare.dims = replace(bare.dims, n=0)
    bare.mapper_cfg = replace(bare.mapper_cfg, n=0)
    bare.mapper.tensors["l3.weight"] = np.zeros((0, hidden), dtype=bare.dtype)
    bare.mapper.tensors["l3.bias"] = np.zeros(0, dtype=bare.dtype)
    bare.mapper.grad["l3.weight"] = np.zeros((0, hidden), dtype=bare.dtype)
    bare.mapper.grad["l3.bias"] = np.zeros(0, dtype=bare.dtype)
    return bare


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    ta = list(a.iter_tensors())
    tb = list(b.iter_tensors())
    if len(ta) != len(tb):
        return False
    for (name_a, arr_a, tr_a), (name_b, arr_b, tr_b) in zip(ta, tb):
        if name_a != name_b or tr_a != tr_b:
            return False
        if arr_a.dtype != arr_b.dtype or arr_a.shape != arr_b.shape:
            return False
        if not np.array_equal(arr_a, arr_b):
            return False
    return a.dims == b.dims and a.variant == b.variant


def frozen_bytes(model: ModelBundle) -> bytes:
    """Concatenated bytes of every frozen tensor, for before/after checks."""
    chunks = []
    for name, arr, trainable in model.iter_tensors():
        if not trainable:
            chunks.append(name.encode())
            chunks.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(chunks)
