import numpy as np
import pytest
from dataclasses import replace
from unittest import mock
from hypothesis import given, settings
from hypothesis import strategies as st

from elip import encoders, numkit
from elip.config import DimsConfig, MapperConfig
from elip.curation import PairRecord
from elip.encoders import (
    bundles_equal,
    copy_without_prompts,
    encode_text,
    frozen_image,
    frozen_prefix,
    image_backward,
    image_forward,
    init_frozen_model,
    joint_embed,
    joint_embed_backward,
    kept_rows,
    project_normalize,
    prompt_pre_attention,
)
from elip.errors import ConfigError, DataError, DimensionError
from elip.rng import Rng

from conftest import TINY, encode_one


def test_init_is_deterministic(tiny_dims):
    a = init_frozen_model(7, tiny_dims, "C", MapperConfig(hidden=8))
    b = init_frozen_model(7, tiny_dims, "C", MapperConfig(hidden=8))
    assert bundles_equal(a, b)


def test_different_seeds_differ(tiny_dims):
    a = init_frozen_model(7, tiny_dims, "C", MapperConfig(hidden=8))
    b = init_frozen_model(8, tiny_dims, "C", MapperConfig(hidden=8))
    assert not bundles_equal(a, b)


def test_only_mapper_and_itm_trainable(tiny_dims):
    model = init_frozen_model(7, tiny_dims, "B", MapperConfig(hidden=8))
    trainable = {p.name for p in model.trainable_layers()}
    assert trainable == {"mapper", "itm"}
    model_c = init_frozen_model(7, tiny_dims, "C", MapperConfig(hidden=8))
    assert {p.name for p in model_c.trainable_layers()} == {"mapper"}


def test_invalid_dims_rejected():
    with pytest.raises(ConfigError):
        init_frozen_model(7, replace(TINY, d_v=9), "C", MapperConfig(hidden=8))
    with pytest.raises(ConfigError):
        init_frozen_model(7, replace(TINY, insert_layer=5), "C", MapperConfig(hidden=8))


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


def test_encode_text_shapes(tiny_model, tiny_dims):
    enc = encode_text(tiny_model, [1, 2, 3])
    assert enc.dense.shape == (tiny_dims.m, tiny_dims.d_t)
    assert enc.t_cls.shape == (tiny_dims.d_t,)
    assert enc.t_joint.shape == (tiny_dims.d_e,)
    assert abs(np.linalg.norm(enc.t_joint) - 1.0) < 1e-6


def test_encode_text_distinguishes_token_lists(tiny_model):
    a = encode_text(tiny_model, [1, 2, 3])
    b = encode_text(tiny_model, [4, 5, 6])
    assert np.abs(a.t_joint - b.t_joint).max() > 1e-9


def test_encode_text_distinguishes_at_default_scale():
    model = init_frozen_model(7, DimsConfig(), "C")
    a = encode_text(model, [1, 2, 3])
    b = encode_text(model, [4, 5, 6])
    assert np.abs(a.t_joint - b.t_joint).max() > 1e-9


def test_encode_text_pads_short_lists(tiny_model):
    padded = encode_text(tiny_model, [1, 2, 0])
    short = encode_text(tiny_model, [1, 2])
    assert np.array_equal(padded.t_joint, short.t_joint)


def test_encode_text_rejects_bad_ids(tiny_model, tiny_dims):
    with pytest.raises(DataError):
        encode_text(tiny_model, [tiny_dims.vocab])
    with pytest.raises(DataError):
        encode_text(tiny_model, [1] * (tiny_dims.m + 1))


# ---------------------------------------------------------------------------
# image encoder + prompts
# ---------------------------------------------------------------------------


def patches_for(dims, seed=21):
    return Rng(seed).gaussian_matrix(dims.P, dims.d_in)


def test_encode_image_shapes_and_norm(tiny_model, tiny_dims):
    """The last block keeps CLS alone for C, the patch rows and CLS for B."""
    model_b = init_frozen_model(7, tiny_dims, "B", MapperConfig(hidden=8))
    for model, kept in ((tiny_model, 1), (model_b, tiny_dims.P + 1)):
        one = encode_one(model, patches_for(tiny_dims))
        enc = one.enc
        if model.variant == "B":
            assert one.patch_states.shape == (tiny_dims.P, tiny_dims.d_v)
        else:
            assert one.patch_states is None
        assert enc.kept.shape == (kept, tiny_dims.d_v)
        assert one.head_cache[0][0].shape == (1, kept, tiny_dims.d_v)
        assert enc.attn[-1].shape == (tiny_dims.H, kept, tiny_dims.P + 1)
        assert abs(np.linalg.norm(one.v_joint) - 1.0) < 1e-6
        assert enc.prompt_count == 0
        for attn in enc.attn:
            assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)


def test_token_count_before_and_after_insertion(tiny_model, tiny_dims):
    prompts = Rng(22).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)
    enc = image_forward(tiny_model, patches_for(tiny_dims), prompts)
    t_plain = tiny_dims.P + 1
    t_prompted = t_plain + tiny_dims.n
    assert enc.attn[0].shape == (tiny_dims.H, t_prompted, t_prompted)
    assert enc.attn[1].shape == (tiny_dims.H, 1, t_prompted)  # the CLS row attends to all
    assert enc.prompt_count == tiny_dims.n


def test_no_prompts_equals_empty_prompts_bitwise(tiny_dims):
    dims0 = replace(tiny_dims, n=0)
    model = init_frozen_model(7, dims0, "C", MapperConfig(hidden=8))
    patches = patches_for(tiny_dims)
    a = encode_one(model, patches, None)
    b = encode_one(model, patches, np.zeros((0, dims0.d_v), dtype=np.float32))
    assert np.array_equal(a.v_joint, b.v_joint)
    assert np.array_equal(a.patch_states, b.patch_states)
    assert a.enc.prompt_count == b.enc.prompt_count == 0


def test_zero_prompts_still_attend(tiny_model, tiny_dims):
    patches = patches_for(tiny_dims)
    bare = encode_one(tiny_model, patches)
    zeroed = encode_one(
        tiny_model, patches, np.zeros((tiny_dims.n, tiny_dims.d_v), dtype=np.float32)
    )
    assert np.abs(bare.v_joint - zeroed.v_joint).max() > 1e-9


def test_late_fusion_prompts_touch_only_final_block(tiny_dims):
    dims = replace(tiny_dims, insert_layer=tiny_dims.L_v - 1)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    patches = patches_for(dims)
    prompts = Rng(23).gaussian_matrix(dims.n, dims.d_v)
    bare = encode_one(model, patches)
    prompted = encode_one(model, patches, prompts)
    t_plain = dims.P + 1
    assert prompted.enc.attn[0].shape == (dims.H, t_plain, t_plain)
    assert np.array_equal(prompted.enc.attn[0], bare.enc.attn[0])
    assert prompted.enc.attn[-1].shape == (dims.H, 1, t_plain + dims.n)
    assert np.abs(prompted.v_joint - bare.v_joint).max() > 1e-9


def test_encode_image_shape_errors(tiny_model, tiny_dims):
    with pytest.raises(DimensionError):
        image_forward(tiny_model, np.zeros((tiny_dims.P + 1, tiny_dims.d_in)))
    with pytest.raises(DimensionError):
        image_forward(
            tiny_model,
            patches_for(tiny_dims),
            np.zeros((tiny_dims.n + 1, tiny_dims.d_v)),
        )


def test_encode_is_pure(tiny_model, tiny_dims):
    patches = patches_for(tiny_dims)
    prompts = Rng(24).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)
    a = encode_one(tiny_model, patches, prompts)
    b = encode_one(tiny_model, patches, prompts)
    assert np.array_equal(a.v_joint, b.v_joint)
    t1 = encode_text(tiny_model, [1, 2, 3])
    t2 = encode_text(tiny_model, [1, 2, 3])
    assert np.array_equal(t1.t_joint, t2.t_joint)


# ---------------------------------------------------------------------------
# gradients through the frozen stack
# ---------------------------------------------------------------------------


def prompt_gradient(model, patches, prompts, upstream):
    """d(v_joint)/d(prompts) contracted with an upstream d_e gradient."""
    one = encode_one(model, patches, prompts)
    return image_backward(model, [one.enc], one.head_cache, grad_v_joint=[upstream])[0]


@pytest.mark.parametrize("insert_layer", [0, TINY.L_v - 1])
def test_prompt_gradient_finite_difference(tiny_dims, insert_layer):
    dims = replace(tiny_dims, insert_layer=insert_layer)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8), dtype=np.float64)
    patches = patches_for(tiny_dims)
    prompts = Rng(25).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)
    upstream = Rng(26).gaussian_matrix(1, tiny_dims.d_e)[0]
    grad = prompt_gradient(model, patches, prompts, upstream)
    assert grad.shape == prompts.shape
    h = 1e-6
    worst = 0.0
    for i in range(prompts.shape[0]):
        for j in range(prompts.shape[1]):
            bumped = prompts.copy()
            bumped[i, j] += h
            lp = float(np.dot(encode_one(model, patches, bumped).v_joint, upstream))
            bumped[i, j] -= 2 * h
            lm = float(np.dot(encode_one(model, patches, bumped).v_joint, upstream))
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad[i, j] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-4


def test_zero_upstream_gives_zero_gradient(tiny_model, tiny_dims):
    prompts = Rng(27).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)
    grad = prompt_gradient(
        tiny_model, patches_for(tiny_dims), prompts, np.zeros(tiny_dims.d_e)
    )
    assert np.allclose(grad, 0.0)


def test_no_prompts_gives_empty_gradient(tiny_model, tiny_dims):
    grad = prompt_gradient(
        tiny_model, patches_for(tiny_dims), None, np.ones(tiny_dims.d_e)
    )
    assert grad.shape == (0, tiny_dims.d_v)


@pytest.mark.parametrize("insert_layer", [0, TINY.L_v - 1])
def test_backward_stops_at_insert_layer(tiny_dims, insert_layer, monkeypatch):
    dims = replace(tiny_dims, insert_layer=insert_layer)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    calls = []
    real = numkit.attention_block_backward

    def spy(params, cache, grad_out):
        calls.append(params.name)
        return real(params, cache, grad_out)

    monkeypatch.setattr(numkit, "attention_block_backward", spy)
    prompts = Rng(28).gaussian_matrix(dims.n, dims.d_v)
    enc = encode_one(model, patches_for(dims), prompts)
    image_backward(model, [enc.enc], enc.head_cache, grad_v_joint=[np.ones(dims.d_e)])
    assert calls == [f"image.block{i}" for i in range(dims.L_v - 1, insert_layer - 1, -1)]
    calls.clear()
    bare = encode_one(model, patches_for(dims))
    grad = image_backward(model, [bare.enc], bare.head_cache, [np.ones(dims.d_e)],
                          [np.ones((dims.P, dims.d_v))])
    assert grad.shape == (1, 0, dims.d_v) and calls == []
    pair = joint_embed(model, np.stack([enc.enc.kept, bare.enc.kept]))[2]
    with pytest.raises(DimensionError, match="mixes prompt counts"):
        image_backward(model, [enc.enc, bare.enc], pair, [np.ones(dims.d_e)] * 2)


def test_last_block_mlp_half_runs_once_per_stack(monkeypatch):
    """The last image block's MLP half runs in the joint head, once over a
    run's stack: once per query for a k = 7 re-rank, once per text for a
    per-row step, and never inside image_forward."""
    from elip.curation import PairDataset
    from elip.objectives import variant_batch_loss
    from elip.retrieval import embed_gallery, rerank, stage1_rank

    from conftest import make_records, randomize_mapper

    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    randomize_mapper(model)
    ds = PairDataset(records=make_records(8))
    text = encode_text(model, [1, 2, 3])
    ranking = stage1_rank(embed_gallery(model, ds), text)
    calls = []
    real = numkit.block_mlp

    def spy(params, y):
        if params is model.image_blocks[-1]:
            calls.append(y.shape)
        return real(params, y)

    monkeypatch.setattr(numkit, "block_mlp", spy)
    image_forward(model, patches_for(TINY), Rng(30).gaussian_matrix(TINY.n, TINY.d_v))
    assert calls == []
    rerank(model, ds, ranking, k=7, text_enc=text)
    assert calls == [(7, 1, TINY.d_v)]
    calls.clear()
    variant_batch_loss(model, ds.records[:4], "per_row", grads={})
    assert calls == [(4, 1, TINY.d_v)] * 4


def test_cs_backward_refuses_patch_state_gradients(tiny_model, tiny_dims):
    """A C/S encoding keeps no final patch states, so no gradient can reach
    them; with P = 1 that gradient would otherwise land on the CLS row."""
    prompts = Rng(29).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)
    enc = encode_one(tiny_model, patches_for(tiny_dims), prompts)
    with pytest.raises(DimensionError, match="variant-B"):
        image_backward(tiny_model, [enc.enc], enc.head_cache, [np.ones(tiny_dims.d_e)],
                       [np.ones((tiny_dims.P, tiny_dims.d_v))])


# ---------------------------------------------------------------------------
# prompt-free copies
# ---------------------------------------------------------------------------


def test_copy_without_prompts_matches_bare_encoder(tiny_model, tiny_dims):
    bare = copy_without_prompts(tiny_model)
    patches = patches_for(tiny_dims)
    assert bare.dims.n == 0
    assert np.array_equal(
        encode_one(bare, patches).v_joint,
        encode_one(tiny_model, patches).v_joint,
    )


# ---------------------------------------------------------------------------
# cached pre-attention groups: a record's prefix and a text's prompt group
# ---------------------------------------------------------------------------


@st.composite
def grouped_dims(draw):
    heads = draw(st.sampled_from([1, 2]))
    layers = draw(st.integers(1, 3))
    return DimsConfig(
        d_t=8, d_v=heads * draw(st.integers(2, 8)), d_e=8, P=draw(st.integers(1, 6)),
        m=3, L_t=1, L_v=layers, H=heads, n=draw(st.integers(0, 3)),
        insert_layer=draw(st.integers(0, layers - 1)), d_in=5, vocab=16,
    )


def _flat(cache):
    """The leaves of a (nested) cache tuple, in order."""
    if isinstance(cache, (tuple, list)):
        return [leaf for item in cache for leaf in _flat(item)]
    return [cache]


def _assert_same_bytes(got, want):
    got, want = _flat(got), _flat(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


@settings(max_examples=40, deadline=None)
@given(grouped_dims(), st.sampled_from([np.float32, np.float64]), st.sampled_from("BCS"),
       st.integers(0, 2**31))
def test_cached_groups_give_the_bytes_of_computing_them(dims, dtype, variant, seed):
    """image_forward given a record's frozen_prefix and the prompts'
    prompt_pre_attention gives the bytes of computing both itself: outputs,
    every block cache and the prompt gradients. The prefix is one read-only
    entry, which the record's frozen encode reads too. Its insert group is
    read, not recomputed: with insert_layer above 0 the record's first
    prompted encode computes the insert block's image-row group once, and
    the second runs no pre-attention at all. A B and a C/S model of one
    backbone share the entry, except where the insert block is the last; a
    model of another insert_layer keeps its own."""
    model = init_frozen_model(seed % 1000, dims, variant, MapperConfig(hidden=8),
                              dtype=dtype)
    rng = np.random.default_rng(seed)
    rec = PairRecord(id="r", patches=rng.standard_normal((dims.P, dims.d_in)).astype(np.float32),
                     tokens=[1], caption="r")
    prompts = (0.5 * rng.standard_normal((dims.n, dims.d_v))).astype(dtype)
    fresh = encode_one(model, rec.patches, prompts)
    prefix = frozen_prefix(model, rec)
    group = prompt_pre_attention(model, prompts) if dims.n else None
    real = encoders._pre_attention
    cached, calls = [], []  # calls: per encode, (layer_idx, prompt_rows) of each call

    def spy(model, layer_idx, x, prompt_rows=False):
        calls[-1].append((layer_idx, prompt_rows))
        return real(model, layer_idx, x, prompt_rows)

    for _ in range(2):
        calls.append([])
        with mock.patch.object(encoders, "_pre_attention", spy):
            cached.append(encode_one(model, rec.patches, prompts, prefix=prefix,
                                     prompt_group=group))
    fills = dims.n > 0 and dims.insert_layer > 0
    assert calls == [[(dims.insert_layer, False)] if fills else [], []]
    grad_v = rng.standard_normal((1, dims.d_e))
    grad_patches = (rng.standard_normal((1, dims.P, dims.d_v)).astype(dtype)
                    if variant == "B" else None)
    want = image_backward(model, [fresh.enc], fresh.head_cache, grad_v, grad_patches)
    for one in cached:
        enc = one.enc
        assert enc.prompt_count == fresh.enc.prompt_count == dims.n
        _assert_same_bytes((one.v_joint, one.patch_states, enc.kept, one.head_cache),
                           (fresh.v_joint, fresh.patch_states, fresh.enc.kept, fresh.head_cache))
        assert len(enc.block_caches) == dims.L_v
        _assert_same_bytes(enc.block_caches, fresh.enc.block_caches)
        _assert_same_bytes(image_backward(model, [enc], one.head_cache, grad_v, grad_patches),
                           want)

    assert frozen_prefix(model, rec) is prefix
    assert [key[1] for key in rec.frozen] == ["prefix"]
    # an n = 0 model never reaches the insert block with prompts, so never fills it
    assert (prefix.insert_group is None) == (dims.n == 0 and dims.insert_layer > 0)
    if dims.insert_layer == 0:
        assert prefix.insert_group is prefix.group
    for arr in _flat((prefix.seq, prefix.group, prefix.insert_group or ())):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    frozen = frozen_image(model, rec)
    assert frozen.v_joint.tobytes() == encode_one(model, rec.patches).v_joint.tobytes()
    assert sorted(key[1] for key in rec.frozen) == ["image", "prefix"]

    # a B or C/S model of the same backbone reads a prefix of its own kept
    # rows: its own entry where the insert block is the last, else the same
    sibling = init_frozen_model(seed % 1000, dims, "C" if variant == "B" else "B",
                                MapperConfig(hidden=8), dtype=dtype)
    assert sibling.backbone_key == model.backbone_key
    sibling_prefix = frozen_prefix(sibling, rec)
    assert (sibling_prefix is prefix) == (dims.insert_layer != dims.L_v - 1)
    want = encode_one(sibling, rec.patches, prompts).v_joint.tobytes()
    for _ in range(2):
        got = encode_one(sibling, rec.patches, prompts, prefix=sibling_prefix,
                         prompt_group=prompt_pre_attention(sibling, prompts) if dims.n else None)
        assert got.v_joint.tobytes() == want

    # the backbone key leaves insert_layer out, so the prefix key holds it
    other = replace(model, dims=replace(dims, insert_layer=(dims.insert_layer + 1) % dims.L_v))
    if dims.L_v > 1:
        assert other.backbone_key == model.backbone_key
        assert frozen_prefix(other, rec) is not prefix
    want = encode_one(other, rec.patches, prompts).v_joint.tobytes()
    for _ in range(2):
        got = encode_one(other, rec.patches, prompts, prefix=frozen_prefix(other, rec),
                         prompt_group=prompt_pre_attention(other, prompts) if dims.n else None)
        assert got.v_joint.tobytes() == want


# ---------------------------------------------------------------------------
# the joint head over a stack
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(grouped_dims(), st.sampled_from([np.float32, np.float64]), st.sampled_from("BCS"),
       st.integers(0, 2**31))
def test_stacked_joint_head_gives_each_image_the_bytes_of_its_own_call(dims, dtype, variant,
                                                                      seed):
    """joint_embed over a stack of 1, 7 or 200 images' kept rows gives each
    image the bytes of its own 1-stack call, and of its unstacked call (as
    frozen_image makes it): v_joint, B's final patch states, and the
    gradient joint_embed_backward puts on the kept rows. A text's 1-D
    project_normalize is the same function: each row of a stacked call has
    the bytes of its own."""
    model = init_frozen_model(seed % 1000, dims, variant, MapperConfig(hidden=8),
                              dtype=dtype)
    rng = np.random.default_rng(seed)
    stacks = (1, 7, 200)
    rows = len(range(dims.P + 1)[kept_rows(model)])
    kept = rng.standard_normal((max(stacks), rows, dims.d_v)).astype(dtype)
    grad_v = rng.standard_normal((max(stacks), dims.d_e))
    grad_p = (rng.standard_normal((max(stacks), dims.P, dims.d_v)).astype(dtype)
              if variant == "B" else None)

    def head(lo, hi):
        patch_states, v_joint, cache = joint_embed(model, kept[lo:hi])
        grad = joint_embed_backward(model, cache, grad_v[lo:hi],
                                    None if grad_p is None else grad_p[lo:hi])
        assert grad.shape == kept[lo:hi].shape and grad.dtype == v_joint.dtype == dtype
        return patch_states, v_joint, grad

    singles = [head(r, r + 1) for r in range(max(stacks))]
    for r in range(0, max(stacks), 37):
        patch_states, v_joint, _ = joint_embed(model, kept[r])
        assert v_joint.tobytes() == singles[r][1][0].tobytes()
        assert (patch_states is None) == (variant != "B")
        if patch_states is not None:
            assert patch_states.tobytes() == singles[r][0][0].tobytes()
    for g in stacks:
        patch_states, v_joint, grad = head(0, g)
        assert v_joint.shape == (g, dims.d_e)
        for r in range(g):
            assert v_joint[r].tobytes() == singles[r][1][0].tobytes(), (g, r)
            assert grad[r].tobytes() == singles[r][2][0].tobytes(), (g, r)
            if patch_states is not None:
                assert patch_states[r].tobytes() == singles[r][0][0].tobytes(), (g, r)

    texts = rng.standard_normal((7, dims.d_t)).astype(dtype)
    stacked, _ = project_normalize(model.proj_text, texts)
    for row, text in zip(stacked, texts):
        assert row.tobytes() == project_normalize(model.proj_text, text)[0].tobytes()
