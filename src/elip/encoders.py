"""Frozen toy text and ViT image encoders with a prompt-injection point.

Weights are seeded-random stand-ins for pretrained backbones: the artifact
verifies the re-ranking mechanism, not pretrained quality. Only the mapper
(and the ITM head for the B variant) are trainable; everything else stays
byte-identical through training.

Image token order is [patch tokens (+pos), CLS (+pos), prompt tokens
(no positional embedding)]; prompts enter at dims.insert_layer and
participate in every later block.

An image encode is two calls. image_forward runs the blocks and stops at
the last block's attention residual on its kept_rows; joint_embed runs the
joint head (that block's MLP half, the final layer norm, the joint
projection and the L2 norm) once over a stack of them, a text's encodes
in objectives.stream_pairs, and image_backward takes that call's cache
back through the head, then the blocks.

frozen_text, frozen_image and frozen_prefix keep a record's frozen work on
the record, one entry per ModelBundle.backbone_key (and per kept_rows, or
insert_layer, where they differ), so a model's frozen tensors must never
change after it has encoded anything; numkit.LayerParams.qkv marks a
block's Q/K/V tensors read-only once the block has run. A record's
frozen_prefix holds pre-attention work its prompts cannot change: block
0's group and the insert block's group of the image rows, which the
record's first prompted encode fills. The blocks below insert_layer still
run on every prompted encode."""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

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
    """One image through the image blocks under optional prompts, with its
    backward cache; joint_embed runs the joint head over a stack of them."""

    kept: Array  # (R, d_v) the last block's kept_rows, before its MLP half
    prompt_count: int
    block_caches: list  # per layer attention_block cache

    @property
    def attn(self) -> list:
        """Per layer (H, T, T) attention weights, read from the block caches;
        the last layer's are (H, R, T), for its R kept_rows."""
        return [cache[4] for cache in self.block_caches]


@dataclass
class FrozenImage:
    """A record's prompt-free joint head output, as frozen_image keeps it."""

    patch_states: Array | None  # (P, d_v) for variant B; None for C/S
    v_joint: Array  # (d_e,) unit-norm projected embedding


@dataclass
class ImagePrefix:
    """An image's work before its prompts join, which depends on the image
    alone: its embedded sequence, block 0's pre_attention group of it, and
    the insert block's group of its image rows. image_forward fills
    insert_group when a prompted encode first reaches the insert block; at
    insert_layer 0 it is block 0's group from the start."""

    seq: Array  # (P+1, d_v) patch rows then CLS, with positional embeddings
    group: tuple  # block 0's pre_attention group of seq
    insert_group: tuple | None  # the insert block's group of the image rows


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

    @cached_property
    def backbone_key(self) -> str:
        """sha256 of frozen_bytes, the dtype and dims.H (the one encoder
        setting no tensor shape records). Computed once per model object, as
        it costs about one image encode, and kept through deepcopy."""
        digest = hashlib.sha256(frozen_bytes(self))
        digest.update(f"{self.dtype.str} H={self.dims.H}".encode())
        return digest.hexdigest()

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


def _block_params(name: str, w, d: int, dtype) -> LayerParams:
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
    """Build a full bundle from one seed; the draw order is pinned.

    Weight matrices and embedding/CLS/positional tables come from the
    SplitMix64 stream at scale 1/sqrt(fan_in), in the order _assemble_model
    asks for them; biases start at zero, layer-norm at identity. The
    mapper's final layer is zero-initialized so training starts from a
    no-op prompt; the ITM scorer stays random like the pretrained head it
    stands in for (a zero scorer would cut gradient flow to the mapper
    whenever the head is frozen).
    """
    rng = Rng(seed)
    dtype = np.dtype(dtype)

    def w(rows, cols, fan_in):
        return rng.gaussian_matrix(rows, cols, 1.0 / np.sqrt(fan_in)).astype(dtype)

    return _assemble_model(seed, dims, variant, mapper_cfg, dtype, w)


def _assemble_model(seed, dims, variant, mapper_cfg, dtype, w) -> ModelBundle:
    """Every tensor of the bundle; w(rows, cols, fan_in) supplies each weight
    matrix, and is called in the pinned draw order below."""
    dims = dims.validate()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    mapper_cfg = (mapper_cfg or MapperConfig()).validate()
    hidden = mapper_cfg.hidden_width(dims.d_v)
    mapper_cfg = replace(mapper_cfg, hidden=hidden)

    token_embed = LayerParams("token_embed", {"weight": w(dims.vocab, dims.d_t, dims.d_t)})
    text_pos = LayerParams("text_pos", {"weight": w(dims.m + 1, dims.d_t, dims.d_t)})
    text_cls = LayerParams("text_cls", {"weight": w(1, dims.d_t, dims.d_t)})
    text_blocks = [
        _block_params(f"text.block{i}", w, dims.d_t, dtype) for i in range(dims.L_t)
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
        _block_params(f"image.block{i}", w, dims.d_v, dtype) for i in range(dims.L_v)
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


def project_normalize(proj: LayerParams, x: Array) -> tuple[Array, tuple]:
    """The unit-norm projection of each row of x (..., d), with its cache;
    leading axes are a stack, and a 1-D x is one row. Every row has the bits
    of its own call: the projection is one GEMV per row, np.matmul(W,
    x[..., None]) (x @ W.T would run one GEMM and move bits), and each norm
    the np.dot of its row with itself (numkit.row_dots)."""
    weight = proj.tensors["weight"]
    u = np.matmul(weight, x[..., None])[..., 0]
    norm = np.sqrt(numkit.row_dots(u, u))
    if not (np.isfinite(norm) & (norm != 0)).all():
        raise NumericError(f"degenerate embedding norm in {proj.name}")
    out = u / norm[..., None]
    return out, (weight, out, norm)


def project_normalize_backward(cache: tuple, grad_out: Array) -> Array:
    """The gradient on x of a project_normalize call, row by row."""
    weight, out, norm = cache
    grad_u = grad_out - numkit.row_dots(grad_out, out)[..., None] * out
    grad_u /= norm[..., None]
    return np.matmul(weight.T, grad_u[..., None])[..., 0]


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


def image_forward(
    model: ModelBundle, patches: Array, prompts: Array | None = None, *,
    prefix: ImagePrefix | None = None, prompt_group: tuple | None = None,
) -> ImageEncoding:
    """Encode one image; prompts (n, d_v) join the sequence at insert_layer.

    Block 0's input rows, and the insert block's image rows and prompt rows,
    each run their pre-attention as a group of their own: prefix is the
    image's ImagePrefix (a record's frozen_prefix), prompt_group the
    prompts' prompt_pre_attention; either one not given is computed here,
    through the same kernel. The insert block's image-row group is taken
    from the prefix, and computed from this encode's state at insert_layer
    and put there, read-only, when the prefix has none yet; the blocks
    below insert_layer run on every call. The last block computes only the
    rows the variant reads (kept_rows), and the encoding stops at their
    attention residual; joint_embed runs the rest of the block and the
    joint head, once over the stack of a text's encodings."""
    dims = model.dims
    if prompts is not None:
        prompts = np.asarray(prompts, dtype=model.dtype)
        if prompts.size == 0:
            prompts = None
        elif prompts.shape != (dims.n, dims.d_v):
            raise DimensionError(
                f"prompts shape {prompts.shape} != expected {(dims.n, dims.d_v)}"
            )
    n = 0 if prompts is None else prompts.shape[0]
    prefix = image_prefix(model, patches) if prefix is None else prefix
    seq = prefix.seq
    if n and prompt_group is None:
        prompt_group = prompt_pre_attention(model, prompts)

    block_caches = []
    last = dims.L_v - 1
    for layer_idx, block in enumerate(model.image_blocks):
        pre = [prefix.group] if layer_idx == 0 else None
        if layer_idx == dims.insert_layer and n > 0:
            if prefix.insert_group is None:
                prefix.insert_group = _read_only(_pre_attention(model, layer_idx, seq))
            pre = [prefix.insert_group, prompt_group]
            seq = np.concatenate([seq, prompts], axis=0)
        rows = kept_rows(model) if layer_idx == last else slice(None)
        seq, _, bcache = numkit.attention_block(block, seq, dims.H, rows=rows, pre=pre,
                                                mlp=layer_idx != last)
        block_caches.append(bcache)
    return ImageEncoding(kept=seq, prompt_count=n, block_caches=block_caches)


def joint_embed(model: ModelBundle, kept: Array) -> tuple:
    """(patch_states, v_joint, cache) of kept rows (..., R, d_v), the last
    block's attention residual on its kept_rows, of one image or a stack:
    that block's block_mlp, the final layer norm, then the joint projection
    and L2 norm of each CLS row, each run once over the stack. patch_states
    are B's (..., P, d_v) final patch states (None for C/S), v_joint the
    (..., d_e) unit-norm embeddings, and cache what joint_embed_backward
    reads. Every image has the bits of its own call: block_mlp runs one
    gemm per image, and project_normalize keeps each row's."""
    out, mlp_cache = numkit.block_mlp(model.image_blocks[-1], kept)
    states, ln_cache = numkit.layer_norm(model.image_ln, out)
    v_joint, proj_cache = project_normalize(model.proj_image, states[..., -1, :])
    patch_states = states[..., : model.dims.P, :] if model.variant == "B" else None
    return patch_states, v_joint, (ln_cache, proj_cache, mlp_cache)


def joint_embed_backward(model: ModelBundle, cache: tuple, grad_v_joint=None,
                         grad_patch_states=None) -> Array:
    """The gradient on the kept rows of a joint_embed call, given gradients
    on its v_joint and/or, for variant B, its final patch states."""
    ln_cache, proj_cache, mlp_cache = cache
    grad = np.zeros_like(ln_cache[0])
    if grad_patch_states is not None:
        if model.variant != "B":
            raise DimensionError("only a variant-B encoding keeps its final patch states")
        grad[..., : model.dims.P, :] = grad_patch_states
    if grad_v_joint is not None:
        grad[..., -1, :] = project_normalize_backward(
            proj_cache, np.asarray(grad_v_joint, dtype=model.dtype))
    grad = numkit.layer_norm_backward(ln_cache, grad)
    return numkit.block_mlp_backward(model.image_blocks[-1], mlp_cache, grad)


def kept_rows(model: ModelBundle) -> slice:
    """The rows of the final block an encoding reads, CLS last: the P patch
    rows and CLS for the ITM head of variant B, CLS alone for C/S. Prompt
    rows are never read after the last block."""
    return slice(0 if model.variant == "B" else model.dims.P, model.dims.P + 1)


def _pre_attention(model: ModelBundle, layer_idx: int, x: Array, prompt_rows=False) -> tuple:
    """Image block layer_idx's pre_attention group of its image rows x, or
    of its prompt rows; the last block runs Q for its kept rows alone, and
    those are never prompt rows."""
    rows = slice(None)
    if layer_idx == model.dims.L_v - 1:
        rows = slice(0, 0) if prompt_rows else kept_rows(model)
    return numkit.pre_attention(model.image_blocks[layer_idx], x, rows)


def image_prefix(model: ModelBundle, patches: Array) -> ImagePrefix:
    """The image's ImagePrefix: its embedded (P+1, d_v) sequence, patch rows
    then CLS, each with its positional embedding, and block 0's
    pre_attention group of it, which is the insert group too at
    insert_layer 0; a later insert block's group is left to image_forward."""
    dims = model.dims
    patches = np.asarray(patches)
    if patches.shape != (dims.P, dims.d_in):
        raise DimensionError(
            f"patches shape {patches.shape} != expected {(dims.P, dims.d_in)}"
        )
    embedded, _ = numkit.linear(model.patch_embed, patches.astype(model.dtype, copy=False))
    seq = np.concatenate([embedded, model.image_cls.tensors["weight"]], axis=0)
    seq = seq + model.image_pos.tensors["weight"]
    group = _pre_attention(model, 0, seq)
    return ImagePrefix(seq=seq, group=group, insert_group=group if dims.insert_layer == 0 else None)


def prompt_pre_attention(model: ModelBundle, prompts: Array) -> tuple:
    """The insert block's pre_attention group of the (n, d_v) prompt rows,
    which depends on the text alone."""
    prompts = np.asarray(prompts, dtype=model.dtype)
    return _pre_attention(model, model.dims.insert_layer, prompts, prompt_rows=True)


encode_image = image_forward  # perfbench/selftest.py calls this name


def frozen_text(model: ModelBundle, rec) -> TextEncoding:
    """rec's TextEncoding under model's frozen text stack, computed once per
    record and backbone and kept on the record (PairRecord.frozen)."""
    key = (model.backbone_key, "text")
    enc = rec.frozen.get(key)
    if enc is None:
        enc = rec.frozen[key] = encode_text(model, rec.tokens)
    return enc


def _read_only(group: tuple) -> tuple:
    for arr in group:
        arr.flags.writeable = False
    return group


def _prefix_key(model: ModelBundle) -> tuple:
    """rec.frozen key of an ImagePrefix, whose insert group is that of
    dims.insert_layer. Where the insert block is the last block (always so
    when L_v = 1) that group holds Q for the kept rows alone, so B and C/S
    entries are kept apart there."""
    dims = model.dims
    return (model.backbone_key, "prefix", dims.insert_layer,
            dims.insert_layer == dims.L_v - 1 and model.variant == "B")


def frozen_prefix(model: ModelBundle, rec) -> ImagePrefix:
    """rec's ImagePrefix, computed once per record and backbone and kept on
    the record, read-only, for every prompted encode of its image. The
    record's first prompted encode fills its insert group when insert_layer
    is above 0, so later encodes skip the insert block's LN1 and Q/K/V of
    the image rows; the blocks below insert_layer run on every encode."""
    key = _prefix_key(model)
    prefix = rec.frozen.get(key)
    if prefix is None:
        prefix = rec.frozen[key] = image_prefix(model, rec.patches)
        _read_only((prefix.seq, *prefix.group))
    return prefix


def frozen_image(model: ModelBundle, rec) -> FrozenImage:
    """rec's prompt-free joint head output, computed once per record,
    backbone and kept rows and kept on the record: v_joint, and the final
    patch states of a variant-B model. No backward cache is kept, as
    nothing flows back into it. B and C/S entries are kept apart, as their
    kept rows may give their CLS rows different bits. It reads the record's
    frozen_prefix when a prompted encode left one, and leaves none itself,
    so a gallery record keeps its joint embedding alone."""
    key = (model.backbone_key, "image", model.variant == "B")
    enc = rec.frozen.get(key)
    if enc is None:
        kept = image_forward(model, rec.patches, prefix=rec.frozen.get(_prefix_key(model))).kept
        patch_states, v_joint, _ = joint_embed(model, kept)
        enc = rec.frozen[key] = FrozenImage(patch_states=patch_states, v_joint=v_joint)
    return enc


def image_backward(
    model: ModelBundle, encs: list, head_cache: tuple, grad_v_joint=None, grad_patch_states=None
) -> Array:
    """The (g, n, d_v) prompt gradients of a group of g encodings that share
    a prompt count n, given head_cache, the cache of the joint_embed call
    over the stack of their kept rows, and gradients on its v_joint (g, d_e)
    and/or, for variant B, its final patch states (g, P, d_v); (g, 0, d_v)
    when n is 0.

    The joint head and the last block's MLP half go back once over the
    (g, R, d_v) stack, the last block's attention takes the kept rows back
    to all T, and blocks L_v-2 ...
    insert_layer each run once over the (g, T, d_v) stack; each image's
    gradient has the bits of a backward of its own. Every block's caches
    are stacked before the first block runs: stacking between blocks let
    glibc trim and re-fault the heap, about twice the page faults per step.
    No block below insert_layer sees a prompt row, so the backward stops
    there."""
    dims = model.dims
    n = encs[0].prompt_count
    if any(enc.prompt_count != n for enc in encs):
        raise DimensionError("image_backward group mixes prompt counts")
    if n == 0:
        return np.zeros((len(encs), 0, dims.d_v), dtype=model.dtype)
    layers = range(dims.L_v - 1, dims.insert_layer - 1, -1)
    caches = [numkit.stack_block_caches([enc.block_caches[i] for enc in encs]) for i in layers]
    grad = joint_embed_backward(model, head_cache, grad_v_joint, grad_patch_states)
    for layer_idx, cache in zip(layers, caches):
        grad = numkit.attention_block_backward(model.image_blocks[layer_idx], cache, grad)
    return grad[:, dims.P + 1:]


# ---------------------------------------------------------------------------
# bundle utilities
# ---------------------------------------------------------------------------


def copy_without_prompts(model: ModelBundle) -> ModelBundle:
    """A prompt-free view of the same frozen backbone (n = 0 everywhere)."""
    bare = copy.deepcopy(model)
    hidden = bare.mapper_cfg.hidden
    bare.dims = replace(bare.dims, n=0)
    bare.mapper.tensors["l3.weight"] = np.zeros((0, hidden), dtype=bare.dtype)
    bare.mapper.tensors["l3.bias"] = np.zeros(0, dtype=bare.dtype)
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
