import ast
import math
import pathlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elip import objectives
from elip.encoders import (
    copy_without_prompts,
    encode_text,
    image_backward,
    init_frozen_model,
    joint_embed,
)
from elip.config import DimsConfig, MapperConfig, TrainConfig
from elip.curation import CurationPlan, PairDataset, SynthSpec, gen_synthetic_dataset
from elip.errors import ConfigError, DataError
from elip.objectives import (
    ScoreMatrix,
    TAU,
    bce,
    bce_grad,
    build_score_matrix_with_caches,
    info_nce,
    info_nce_grad,
    itm_backward,
    itm_forward,
    pick_itm_negatives,
    sigmoid_pairwise,
    sigmoid_pairwise_grad,
    variant_batch_loss,
)
from elip.prompt_mapper import map_prompts_backward, map_prompts_with_cache
from elip.retrieval import embed_gallery, rerank, stage1_rank
from elip.rng import Rng
from elip.trainer import train

from conftest import TINY, encode_one, make_records, randomize_mapper

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "elip"


def sm_from(cos):
    cos = np.asarray(cos, dtype=np.float64)
    return ScoreMatrix(scores=cos / TAU, cosines=cos)


# ---------------------------------------------------------------------------
# score matrix
# ---------------------------------------------------------------------------


def test_score_matrix_no_prompts_equals_frozen_cosines(tiny_dims):
    from dataclasses import replace

    dims = replace(tiny_dims, n=0)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    records = make_records(3, dims)
    sm = build_score_matrix_with_caches(model, records, "per_row")
    texts = [encode_text(model, r.tokens).t_joint for r in records]
    images = [encode_one(model, r.patches).v_joint for r in records]
    expected = np.array([[float(np.dot(t, v)) for v in images] for t in texts])
    assert np.allclose(sm.cosines, expected, atol=0)
    assert np.allclose(sm.scores, expected / TAU, atol=0)


def test_per_row_and_diagonal_agree_on_diagonal(tiny_model, tiny_dims):
    model = randomize_mapper(tiny_model)
    records = make_records(3, tiny_dims)
    per_row = build_score_matrix_with_caches(model, records, "per_row")
    diagonal = build_score_matrix_with_caches(model, records, "diagonal")
    assert np.allclose(np.diagonal(per_row.scores), np.diagonal(diagonal.scores))


def test_score_matrix_bounds(tiny_model, tiny_dims):
    model = randomize_mapper(tiny_model)
    records = make_records(3, tiny_dims)
    sm = build_score_matrix_with_caches(model, records, "per_row")
    assert np.all(np.isfinite(sm.scores))
    assert np.abs(sm.scores).max() <= 1.0 / TAU + 1e-6


def test_score_matrix_needs_two_records(tiny_model, tiny_dims):
    with pytest.raises(ConfigError):
        build_score_matrix_with_caches(tiny_model, make_records(1, tiny_dims))


def test_loss_with_and_without_grads_agree(tiny_dims):
    records = make_records(3, tiny_dims)
    for variant in ("C", "S", "B"):
        model = init_frozen_model(7, tiny_dims, variant, MapperConfig(hidden=8))
        randomize_mapper(model)
        for conditioning in ("per_row", "diagonal"):
            grads = {}
            with_grads = variant_batch_loss(model, records, conditioning, grads)
            plain = variant_batch_loss(model, records, conditioning)
            assert grads and with_grads == plain, (variant, conditioning)


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------


def test_info_nce_uniform_is_log_b():
    sm = sm_from(np.zeros((4, 4)))
    assert abs(info_nce(sm) - math.log(4)) < 1e-9


def test_info_nce_strong_diagonal_near_zero():
    cos = np.full((2, 2), -10.0)
    np.fill_diagonal(cos, 10.0)
    sm = ScoreMatrix(scores=cos, cosines=cos)
    value = info_nce(sm)
    assert abs(value - math.log1p(math.exp(-20.0))) < 1e-12
    assert value < 3e-9


def test_info_nce_gradient_finite_difference():
    rng = Rng(41)
    s = rng.gaussian_matrix(4, 4)
    sm = ScoreMatrix(scores=s, cosines=s * TAU)
    grad = info_nce_grad(sm)
    h = 1e-7
    worst = 0.0
    for i in range(4):
        for j in range(4):
            bumped = s.copy()
            bumped[i, j] += h
            lp = info_nce(ScoreMatrix(bumped, bumped * TAU))
            bumped[i, j] -= 2 * h
            lm = info_nce(ScoreMatrix(bumped, bumped * TAU))
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad[i, j] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-6


def test_info_nce_nonnegative_and_monotone():
    rng = Rng(42)
    s = rng.gaussian_matrix(5, 5)
    sm = ScoreMatrix(s, s * TAU)
    base = info_nce(sm)
    assert base >= 0.0
    boosted = s.copy()
    boosted[2, 2] += 0.5
    assert info_nce(ScoreMatrix(boosted, boosted * TAU)) < base


# ---------------------------------------------------------------------------
# pairwise sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_all_zero_logits_is_log_two():
    sm = sm_from(np.zeros((3, 3)))
    assert abs(sigmoid_pairwise(sm, t_scale=0.0, bias=0.0) - math.log(2)) < 1e-9


def test_sigmoid_single_pair_at_default_constants():
    sm = sm_from([[1.0]])
    assert abs(sigmoid_pairwise(sm, t_scale=10.0, bias=-10.0) - math.log(2)) < 1e-9


def test_sigmoid_gradient_finite_difference():
    rng = Rng(43)
    cos = rng.gaussian_matrix(3, 3) * 0.3
    grad = sigmoid_pairwise_grad(sm_from(cos))
    h = 1e-7
    worst = 0.0
    for i in range(3):
        for j in range(3):
            bumped = cos.copy()
            bumped[i, j] += h
            lp = sigmoid_pairwise(sm_from(bumped))
            bumped[i, j] -= 2 * h
            lm = sigmoid_pairwise(sm_from(bumped))
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad[i, j] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sigmoid_permutation_equivariance(seed):
    rng = Rng(seed)
    b = 4
    cos = rng.gaussian_matrix(b, b) * 0.5
    perm = rng.sample_without_replacement(b, b)
    permuted = cos[np.ix_(perm, perm)]
    assert abs(sigmoid_pairwise(sm_from(cos)) - sigmoid_pairwise(sm_from(permuted))) < 1e-12


# ---------------------------------------------------------------------------
# the streamed C/S loss
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", [2, 3, 12])
def test_row_gradients_equal_the_full_matrix_rows(b):
    """A row's gradient has the bits of the same row of the full-matrix call,
    for any set of rows, in any order."""
    rng = Rng(45 + b)
    sm = sm_from(rng.gaussian_matrix(b, b) * 0.5)
    full_nce, full_sig = info_nce_grad(sm), sigmoid_pairwise_grad(sm)
    for rows in [[r] for r in range(b)] + [list(range(b)), [b - 1, 0], list(range(0, b, 2))]:
        assert np.array_equal(info_nce_grad(sm, rows), full_nce[rows]), rows
        assert np.array_equal(sigmoid_pairwise_grad(sm, rows=rows), full_sig[rows]), rows


def reference_contrastive_loss(model, records, conditioning, grads=None):
    """The eager C/S loop the streamed loss replaced: encode every pair and
    keep it, build the whole score matrix, differentiate all of it, then run
    one stacked image_backward per text, sum its prompt gradient in pair
    order and map it back once per text."""
    if grads is not None:
        for layer in model.trainable_layers():
            for k, v in layer.tensors.items():
                grads.setdefault(f"{layer.name}.{k}", np.zeros_like(v))
    b = len(records)
    texts = [encode_text(model, rec.tokens) for rec in records]
    if conditioning == "per_row":
        pairs = [(i, j, (i,)) for i in range(b) for j in range(b)]
    else:
        pairs = [(j, j, range(b)) for j in range(b)]
    mapped, encs = {}, []
    cos = np.zeros((b, b), dtype=np.float64)
    for i, j, rows in pairs:
        if i not in mapped:
            mapped[i] = map_prompts_with_cache(
                model.mapper, texts[i], model.mapper_cfg, model.dims.d_v
            )
        encs.append(encode_one(model, records[j].patches, mapped[i][0]))
        for r in rows:
            cos[r, j] = float(np.dot(texts[r].t_joint, encs[-1].v_joint))
    sm = ScoreMatrix(scores=cos / TAU, cosines=cos)
    loss = info_nce(sm) if model.variant == "C" else sigmoid_pairwise(sm)
    if grads is None:
        return loss
    g_cos = info_nce_grad(sm) / TAU if model.variant == "C" else sigmoid_pairwise_grad(sm)
    grad_prompts = {}
    for i in mapped:
        group = [(enc, sum(g_cos[r, j] * texts[r].t_joint for r in rows))
                 for (k, j, rows), enc in zip(pairs, encs) if k == i]
        kept = np.stack([enc.enc.kept for enc, _ in group])
        for gp in image_backward(model, [enc.enc for enc, _ in group],
                                 joint_embed(model, kept)[2], grad_v_joint=[g for _, g in group]):
            grad_prompts[i] = grad_prompts[i] + gp if i in grad_prompts else gp
    for i, gp in grad_prompts.items():
        for k, v in map_prompts_backward(model.mapper, mapped[i][1], gp).items():
            grads[f"mapper.{k}"] += v
    return loss


@pytest.mark.parametrize("b", [2, 3, 12])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conditioning", ["per_row", "diagonal"])
@pytest.mark.parametrize("variant", ["C", "S"])
def test_streamed_loss_equals_eager_reference_bit_for_bit(variant, conditioning, dtype, b):
    """Also for an n = 0 model, whose images the streamer reads from
    frozen_image and whose runs it still passes to the row backward."""
    for n in (TINY.n, 0):
        dims = replace(TINY, n=n)
        model = init_frozen_model(7, dims, variant, MapperConfig(hidden=8), dtype=dtype)
        randomize_mapper(model)
        records = make_records(b)
        assert variant_batch_loss(model, records, conditioning) == reference_contrastive_loss(
            model, records, conditioning
        )
        grads, expected = {}, {}
        assert variant_batch_loss(model, records, conditioning, grads) == (
            reference_contrastive_loss(model, records, conditioning, expected))
        assert list(grads) == list(expected)
        for key, value in expected.items():
            assert value.dtype == dtype and np.array_equal(grads[key], value), key
        if n:
            assert all(np.any(v) for v in grads.values())


@pytest.mark.parametrize("variant, conditioning, encodes, bound", [
    ("C", "per_row", 25, 5), ("C", "diagonal", 5, 5), ("S", "per_row", 25, 5), ("B", "per_row", 10, 2),
])
def test_training_holds_one_run_of_prompted_encodings(
    monkeypatch, variant, conditioning, encodes, bound
):
    """When a prompt backward starts, at most one run's prompted encodings
    are alive: b = 5 for C/S under either conditioning, an anchor's two for
    B. A loss-only call holds one at a time."""
    b = 5
    model = randomize_mapper(init_frozen_model(7, TINY, variant, MapperConfig(hidden=8)))
    records = make_records(b)
    refs, at_forward, at_backward = [], [], []
    forward, backward = objectives.image_forward, objectives.image_backward

    def alive():
        return sum(ref() is not None for ref in refs)

    def spy_forward(model, patches, prompts=None, **kwargs):
        at_forward.append(alive())
        enc = forward(model, patches, prompts, **kwargs)
        if np.size(prompts):
            refs.append(weakref.ref(enc))
        return enc

    def spy_backward(model, encs, **kwargs):
        at_backward.append(alive())
        assert alive() >= len(encs)
        return backward(model, encs, **kwargs)

    monkeypatch.setattr(objectives, "image_forward", spy_forward)
    monkeypatch.setattr(objectives, "image_backward", spy_backward)
    variant_batch_loss(model, records, conditioning, {})
    assert len(refs) == encodes
    assert len(at_backward) == b and max(at_backward) <= bound, at_backward
    refs.clear()
    at_forward.clear()
    variant_batch_loss(model, records, conditioning)
    assert len(refs) and max(at_forward) <= 1, at_forward


def test_per_row_steps_keep_only_what_the_prompt_backward_reads():
    """Three B = 12 per-row C steps at the A3 shape peak under 4.4 MB of
    traced memory: a prompted encoding's block caches hold only what the
    input gradient reads, and a frozen C entry holds v_joint alone (4.9 MB
    when caches kept the weight-gradient inputs and entries the final
    states)."""
    ds, _ = gen_synthetic_dataset(7, SynthSpec())
    model = init_frozen_model(7, DimsConfig(), "C")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in range(3):
            variant_batch_loss(model, ds.records[12 * step: 12 * step + 12], "per_row", {})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4.4 * 2**20, peak


@pytest.mark.parametrize("variant", ["C", "B"])
def test_rerank_holds_one_prompted_encoding_at_a_time(monkeypatch, variant):
    """A k re-rank streams its candidates through the training streamer
    without gradients: k prompted forwards, with at most the previous
    candidate's encoding alive when the next one starts."""
    k = 6
    model = randomize_mapper(init_frozen_model(7, TINY, variant, MapperConfig(hidden=8)))
    ds = PairDataset(records=make_records(8))
    text = encode_text(model, [1, 2, 3])
    ranking = stage1_rank(embed_gallery(model, ds), text)
    refs, at_forward = [], []
    forward = objectives.image_forward

    def spy_forward(model, patches, prompts=None, **kwargs):
        at_forward.append(sum(ref() is not None for ref in refs))
        enc = forward(model, patches, prompts, **kwargs)
        if np.size(prompts):
            refs.append(weakref.ref(enc))
        return enc

    monkeypatch.setattr(objectives, "image_forward", spy_forward)
    rerank(model, ds, ranking, k, text)
    assert len(refs) == len(at_forward) == k
    assert max(at_forward) <= 1, at_forward


# ---------------------------------------------------------------------------
# ITM head
# ---------------------------------------------------------------------------


def test_itm_zero_final_layer_gives_zero_logit(tiny_dims):
    model = init_frozen_model(7, tiny_dims, "B", MapperConfig(hidden=8))
    head = model.itm_head
    head.tensors["mlp.l2.weight"] = np.zeros_like(head.tensors["mlp.l2.weight"])
    head.tensors["mlp.l2.bias"] = np.zeros_like(head.tensors["mlp.l2.bias"])
    records = make_records(2, tiny_dims)
    text = encode_text(model, records[0].tokens)
    image = encode_one(model, records[0].patches)
    assert itm_forward(head, text.t_cls, image.patch_states)[0] == 0.0
    other = encode_one(model, records[1].patches)
    assert itm_forward(head, text.t_cls, other.patch_states)[0] == 0.0


def test_itm_gradients_finite_difference(tiny_model_b_f64, tiny_dims):
    model = tiny_model_b_f64
    rng = Rng(44)
    model.itm_head.tensors["mlp.l2.weight"] = rng.gaussian_matrix(1, tiny_dims.d_v, 0.5)
    t_cls = rng.gaussian_matrix(1, tiny_dims.d_t)[0]
    patch_states = rng.gaussian_matrix(tiny_dims.P, tiny_dims.d_v)

    head = model.itm_head

    def forward():
        return itm_forward(head, t_cls, patch_states)

    logit0, cache = forward()
    grads, grad_patches = itm_backward(head, cache, 1.0)
    h = 1e-6
    worst = 0.0
    for key in head.tensors:
        flat = head.tensors[key].reshape(-1)
        gflat = np.asarray(grads[key]).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = forward()[0]
            flat[idx] = orig - h
            lm = forward()[0]
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(gflat[idx] - numeric) / max(1.0, abs(numeric)))
    # gradient on the patch states feeds the prompt path
    for i in range(tiny_dims.P):
        for j in range(tiny_dims.d_v):
            orig = patch_states[i, j]
            patch_states[i, j] = orig + h
            lp = forward()[0]
            patch_states[i, j] = orig - h
            lm = forward()[0]
            patch_states[i, j] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad_patches[i, j] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-4


@settings(max_examples=40, deadline=None)
@given(
    d_t=st.integers(1, 40), d_v=st.integers(1, 40), P=st.integers(1, 30),
    dtype=st.sampled_from([np.float32, np.float64]), g=st.sampled_from([1, 2, 7, 20]),
    seed=st.integers(0, 2**16),
)
def test_stacked_itm_forward_has_the_bits_of_single_calls(d_t, d_v, P, dtype, g, seed):
    """One call over a (g, P, d_v) stack gives each image the logit of its
    own (P, d_v) call, bit for bit, in the head's dtype."""
    dims = DimsConfig(d_t=d_t, d_v=d_v, P=P, H=1)
    head = init_frozen_model(seed, dims, "B", dtype=dtype).itm_head
    rng = Rng(seed + 1)
    t_cls = rng.gaussian_matrix(1, d_t)[0].astype(dtype)
    stack = rng.gaussian_matrix(g * P, d_v).astype(dtype).reshape(g, P, d_v)
    logits, _ = itm_forward(head, t_cls, stack)
    assert logits.shape == (g,) and logits.dtype == dtype
    singles = [itm_forward(head, t_cls, states)[0] for states in stack]
    assert all(type(logit) is float for logit in singles)
    assert logits.astype(np.float64).tobytes() == np.array(singles).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    d_t=st.integers(1, 40), d_v=st.integers(1, 40), P=st.integers(1, 30),
    dtype=st.sampled_from([np.float32, np.float64]), g=st.sampled_from([1, 2, 7, 12]),
    seed=st.integers(0, 2**16),
)
def test_stacked_itm_backward_has_the_bits_of_single_calls(d_t, d_v, P, dtype, g, seed):
    """One backward over a (g, P, d_v) forward, given float64 grad logits,
    gives each image the head gradients and patch gradients of its own
    (P, d_v) forward and backward, bit for bit, in the head's dtype."""
    dims = DimsConfig(d_t=d_t, d_v=d_v, P=P, H=1)
    head = init_frozen_model(seed, dims, "B", dtype=dtype).itm_head
    rng = Rng(seed + 1)
    w2 = head.tensors["mlp.l2.weight"]  # zero at init, which would zero every other gradient
    head.tensors["mlp.l2.weight"] = rng.gaussian_matrix(*w2.shape).astype(dtype)
    t_cls = rng.gaussian_matrix(1, d_t)[0].astype(dtype)
    stack = rng.gaussian_matrix(g * P, d_v).astype(dtype).reshape(g, P, d_v)
    grad_logits = rng.gaussian_matrix(1, g)[0]
    grads, grad_patches = itm_backward(head, itm_forward(head, t_cls, stack)[1], grad_logits)
    assert grad_patches.shape == (g, P, d_v) and grad_patches.dtype == dtype
    for s, states in enumerate(stack):
        single, single_patches = itm_backward(
            head, itm_forward(head, t_cls, states)[1], float(grad_logits[s]))
        assert grad_patches[s].tobytes() == single_patches.tobytes()
        assert list(grads) == list(single)
        for key, value in single.items():
            assert value.shape == head.tensors[key].shape, key
            assert grads[key].shape == (g, *value.shape) and grads[key].dtype == dtype, key
            assert grads[key][s].tobytes() == value.tobytes(), key


def test_pick_itm_negatives_excludes_self(tiny_model_b_f64, tiny_dims):
    records = make_records(4, tiny_dims)
    texts = [encode_text(tiny_model_b_f64, r.tokens) for r in records]
    negatives = pick_itm_negatives(tiny_model_b_f64, records, texts)
    assert len(negatives) == 4
    for i, j in enumerate(negatives):
        assert j != i and 0 <= j < 4


def loop_itm_negatives(model, records, texts):
    """The scalar negative pick the ranking kernel replaced."""
    frozen = [encode_one(model, rec.patches).v_joint for rec in records]
    out = []
    for i in range(len(records)):
        best, best_sim = -1, -np.inf
        for j in range(len(records)):
            if j == i:
                continue
            sim = float(np.dot(texts[i].t_joint, frozen[j]))
            if sim > best_sim:
                best, best_sim = j, sim
        out.append(best)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pick_itm_negatives_equals_scalar_loop_reference(tiny_dims, dtype):
    """Repeated images (ties, the lowest index wins) and repeated texts."""
    model = init_frozen_model(7, tiny_dims, "B", MapperConfig(hidden=8), dtype=dtype)
    base = make_records(4, tiny_dims)
    for seed, picks in enumerate((
        [0, 1, 2, 3], [2, 0, 2, 1, 0, 3], [1, 1, 1], [3, 0, 0, 2, 3, 1], [2] * 9, [1] * 7, [3] * 6,
    )):
        records = [replace(base[k], id=f"r{seed}_{j}") for j, k in enumerate(picks)]
        texts = [encode_text(model, r.tokens) for r in records]
        got = pick_itm_negatives(model, records, texts)
        assert got == loop_itm_negatives(model, records, texts)
        assert all(type(j) is int for j in got)


def test_variant_batch_loss_dispatch(tiny_dims):
    records = make_records(3, tiny_dims)
    for variant in ("C", "S", "B"):
        model = init_frozen_model(7, tiny_dims, variant, MapperConfig(hidden=8))
        loss = variant_batch_loss(model, records)
        assert np.isfinite(loss)
    model_b = init_frozen_model(7, tiny_dims, "B", MapperConfig(hidden=8))
    head = model_b.itm_head
    head.tensors["mlp.l2.weight"] = np.zeros_like(head.tensors["mlp.l2.weight"])
    assert abs(variant_batch_loss(model_b, records) - math.log(2)) < 1e-9  # zero logits


def reference_itm_loss(model, records, grads=None):
    """The per-anchor B loop the shared pair generator and backward consumer
    replaced: map the anchor's prompts, then encode, score and backprop its
    positive and its negative, starting the prompt gradient from zeros."""
    if grads is not None:
        for layer in model.trainable_layers():
            for k, v in layer.tensors.items():
                grads.setdefault(f"{layer.name}.{k}", np.zeros_like(v))
    texts = [encode_text(model, rec.tokens) for rec in records]
    negatives = pick_itm_negatives(model, records, texts)
    total, denom = 0.0, 2 * len(records)
    for i, rec in enumerate(records):
        prompts, mcache = map_prompts_with_cache(
            model.mapper, texts[i], model.mapper_cfg, model.dims.d_v
        )
        grad_prompts = np.zeros_like(prompts)
        for image, label in ((rec, 1), (records[negatives[i]], 0)):
            enc = encode_one(model, image.patches, prompts)
            logit, itm_cache = itm_forward(model.itm_head, texts[i].t_cls, enc.patch_states)
            total += bce(logit, label)
            if grads is None:
                continue
            head_grads, grad_patch_states = itm_backward(
                model.itm_head, itm_cache, bce_grad(logit, label) / denom
            )
            for k, v in head_grads.items():
                grads[f"itm.{k}"] += v
            grad_prompts += image_backward(model, [enc.enc], enc.head_cache,
                                           grad_patch_states=[grad_patch_states])[0]
        if grads is not None:
            for k, v in map_prompts_backward(model.mapper, mcache, grad_prompts).items():
                grads[f"mapper.{k}"] += v
    return total / denom


@pytest.mark.parametrize("insert_layer", [0, TINY.L_v - 1])
@pytest.mark.parametrize("finetune_itm", [True, False])
def test_itm_loss_equals_per_anchor_reference_bit_for_bit(finetune_itm, insert_layer):
    """After two training steps with a fine-tuned or a frozen head, the loss
    and every gradient of variant B match the reference loop exactly, in
    float64 and float32 and for an n = 0 model: the stacked head calls (one
    per loss-only batch, one forward and one backward per training anchor)
    keep every bit, and an n = 0 run still reaches the head backward."""
    for n, dtype in ((TINY.n, np.float64), (TINY.n, np.float32), (0, np.float64)):
        dims = replace(TINY, insert_layer=insert_layer, n=n)
        model = init_frozen_model(7, dims, "B", MapperConfig(hidden=8), dtype=dtype)
        randomize_mapper(model)
        ds = PairDataset(records=make_records(6, dims))
        plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5]])
        train(model, ds, plan,
              TrainConfig(variant="B", steps=2, lr=1e-2, finetune_itm=finetune_itm))
        records = make_records(5, dims, seed=17)
        assert variant_batch_loss(model, records) == reference_itm_loss(model, records)
        grads, expected = {}, {}
        assert variant_batch_loss(model, records, grads=grads) == reference_itm_loss(
            model, records, expected
        )
        assert list(grads) == list(expected)
        for key, value in expected.items():
            assert value.dtype == dtype and grads[key].tobytes() == value.tobytes(), key
        if n:
            assert any(np.any(v) for k, v in grads.items() if k.startswith("mapper."))


@pytest.mark.parametrize("variant", ["B", "C"])
def test_prompt_free_model_maps_no_prompts(monkeypatch, variant):
    """A copy_without_prompts model's loss, loss-only and with gradients,
    calls the prompt mapper 0 times and keeps the bytes of the reference
    loop, which still maps its empty prompt sets."""
    model = randomize_mapper(init_frozen_model(7, TINY, variant, MapperConfig(hidden=8)))
    bare = copy_without_prompts(model)
    records = make_records(5)

    def reference(grads=None):
        if variant == "B":
            return reference_itm_loss(bare, records, grads)
        return reference_contrastive_loss(bare, records, "per_row", grads)

    expected_grads = {}
    expected = [reference(), reference(expected_grads)]
    calls = []
    real = objectives.map_prompts_with_cache
    monkeypatch.setattr(objectives, "map_prompts_with_cache",
                        lambda *args: calls.append(args) or real(*args))
    grads = {}
    got = [variant_batch_loss(bare, records), variant_batch_loss(bare, records, grads=grads)]
    assert calls == []
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert list(grads) == list(expected_grads)
    for key, value in expected_grads.items():
        assert grads[key].tobytes() == value.tobytes(), key


def _calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_one_call_site_per_image_backward_and_mapper_backward():
    """Every batch loss and the stage-2 re-rank run through one streamer,
    objectives.stream_pairs: it alone maps a scored text's prompts, makes
    the prompted encode, and calls the prompt backward and the mapper
    backward. Elsewhere in src/ only attention_map's single image is
    encoded under prompts, through prompts_for_text, and every prompt-free
    image encode runs in encoders.frozen_image. The joint head runs in
    encoders.joint_embed alone, called by the streamer once per text run
    and by frozen_image and attention_map for one image. A ranking is read
    through its order and score arrays: no src/ code reads the (id, score)
    list of RankingResult.entries, which is kept for the benchmark and
    tests."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}

    def sites(name, keep=lambda call: True):
        return sorted(
            (module, getattr(top, "name", "<module>"))
            for module, tree in trees.items() for top in tree.body
            for call in _calls(top, name) if keep(call)
        )

    def prompted(call):
        return len(call.args) > 2 or any(kw.arg == "prompts" for kw in call.keywords)

    streamer = [("objectives", "stream_pairs")]
    assert sites("image_backward") == streamer
    assert sites("map_prompts_backward") == streamer
    assert sites("image_forward", prompted) == streamer + [("retrieval", "attention_map")]
    assert sites("map_prompts_with_cache") == streamer + [("prompt_mapper", "prompts_for_text")]
    assert sites("encode_image") == []
    rerank = next(top for top in trees["retrieval"].body if getattr(top, "name", "") == "rerank")
    own_encode = ("image_forward", "prompts_for_text", "map_prompts_with_cache")
    assert [name for name in own_encode if _calls(rerank, name)] == []
    assert _calls(rerank, "stream_pairs")
    # the ITM head: the B loss makes one stacked forward per loss-only batch
    # and one forward and one backward per training anchor, and the re-rank
    # one stacked call per query
    assert sites("itm_forward") == [
        ("objectives", "_itm_loss"), ("objectives", "_itm_loss"), ("retrieval", "rerank")]
    assert sites("itm_backward") == [("objectives", "_itm_loss")]

    # a prompt-free encode runs only in encoders.frozen_image, which keeps it
    # on the record for every later reader of the same backbone
    def prompt_free(call):
        prompts = call.args[2:] + [kw.value for kw in call.keywords if kw.arg == "prompts"]
        return all(isinstance(p, ast.Constant) and p.value is None for p in prompts)

    assert sites("image_forward", prompt_free) == [("encoders", "frozen_image")]
    assert sites("joint_embed") == [("encoders", "frozen_image"), ("objectives", "stream_pairs"),
                                    ("retrieval", "attention_map")]
    # only joint_embed applies the final image layer norm and the joint image
    # projection; ModelBundle lists them among its layers
    head_readers = sorted({
        (module, top.name) for module, tree in trees.items() for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("image_ln", "proj_image")})
    assert head_readers == [("encoders", "ModelBundle"), ("encoders", "joint_embed")]
    for module, tree in trees.items():
        assert "FrozenTable" not in ast.dump(tree), module
        passed = [kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for kw in node.keywords]
        assert "table" not in passed, module
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "entries"], module
        assert "_ordered_entries" not in ast.dump(tree), module


# ---------------------------------------------------------------------------
# BCE
# ---------------------------------------------------------------------------


def test_bce_values():
    assert abs(bce(0.0, 1) - math.log(2)) < 1e-9
    assert bce(100.0, 1) < 1e-6
    assert abs(bce(-3.0, 0) - math.log1p(math.exp(-3.0))) < 1e-12
    assert abs(bce(-3.0, 0) - 0.048587) < 1e-6


def test_bce_label_validation():
    with pytest.raises(DataError):
        bce(0.0, 2)
    with pytest.raises(DataError):
        bce_grad(0.0, -1)


@settings(max_examples=50, deadline=None)
@given(st.floats(-30, 30))
def test_bce_symmetry(z):
    assert abs(bce(z, 0) - bce(-z, 1)) < 1e-9
