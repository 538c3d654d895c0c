"""Training objectives: InfoNCE, pairwise sigmoid, and ITM binary CE.

Score matrices are text-anchored: row i holds text i scored against every
image in the batch, each image re-encoded under conditioning prompts.
per_row conditioning re-encodes image j with prompts from text i for entry
(i, j) (b^2 encodings, matching inference); diagonal conditions every image
on its own paired text (b encodings). Training streams them: a row's loss
gradient reads that row alone, so per_row backprops and drops text i's b
encodings as soon as row i is scored and holds b at a time, not b^2;
diagonal fills every row with each encoding and holds its b until the end.
Batch texts, and images under an empty prompt set (the prompt-free JEST
reference), come from encoders.frozen_text and frozen_image, so a record's
frozen work runs once per backbone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import numkit
from .encoders import (
    ImageEncoding,
    ModelBundle,
    TextEncoding,
    frozen_image,
    frozen_text,
    image_backward,
    image_forward,
)
from .errors import ConfigError, DataError
from .numkit import Array, LayerParams
from .prompt_mapper import map_prompts_backward, map_prompts_with_cache

TAU = 0.07
SIGMOID_T_SCALE = 10.0
SIGMOID_BIAS = -10.0


@dataclass
class ScoreMatrix:
    scores: Array  # (b, b) cosines / tau
    cosines: Array  # (b, b) raw cosines
    conditioning: str  # per_row | diagonal
    tau: float = TAU


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pairs(b: int, conditioning: str) -> list:
    """(prompt index i, image index j, score rows it fills) of each encode,
    in the pinned (i, j) lexicographic order: per_row fills entry (i, j),
    diagonal the whole column j."""
    if conditioning == "per_row":
        return [(i, j, (i,)) for i in range(b) for j in range(b)]
    return [(j, j, range(b)) for j in range(b)]


def _pair_encodings(model: ModelBundle, records, texts, pairs, caches: dict):
    """For each (i, j, ...) pair, grouped by i, record j's image encoded under
    text i's prompts, mapped (cache into caches[i]) as its group starts; an
    empty prompt set reads the record's frozen image. One encoding at a time."""
    for i, group in groupby(pairs, key=itemgetter(0)):
        prompts, caches[i] = map_prompts_with_cache(
            model.mapper, texts[i], model.mapper_cfg, model.dims.d_v
        )
        for _, j, _ in group:
            if prompts.size:
                yield image_forward(model, records[j].patches, prompts)
            else:
                yield frozen_image(model, records[j])


def _backprop_prompts(model: ModelBundle, grads: dict | None, caches, runs) -> None:
    """Add into grads (None only if every run is empty) the mapper gradients
    of runs (i, [(encoding, image_backward kwargs), ...]) of text i's
    encodings, pulled one run at a time (b encodings per text for per_row,
    1 for diagonal, 2 for ITM): each run is one stacked image_backward,
    text i's prompt gradient is summed in item order, then mapped back once
    per text, in run order."""
    grad_prompts: dict = {}
    for i, run in runs:
        if not run or not run[0][0].prompt_count:
            continue
        stacked = {key: [kwargs[key] for _, kwargs in run] for key in run[0][1]}
        for gp in image_backward(model, [enc for enc, _ in run], **stacked):
            grad_prompts[i] = grad_prompts[i] + gp if i in grad_prompts else gp
        del run  # before the next run is encoded
    for i, gp in grad_prompts.items():
        for k, v in map_prompts_backward(model.mapper, caches[i], gp).items():
            grads[f"mapper.{k}"] += v


def _score_stream(model: ModelBundle, records, conditioning: str):
    """(score matrix, text encodings, prompt caches, pairs, stream) of one
    batch. The stream encodes the _pairs one at a time, writes each pair's
    cosines and scores into the matrix and yields its encoding; the matrix
    is complete once the stream is drained. Texts, and images under an empty
    prompt set, are the records' frozen encodings."""
    b = len(records)
    if b < 2:
        raise ConfigError(f"contrastive batch needs >= 2 records, got {b}")
    if conditioning not in ("per_row", "diagonal"):
        raise ConfigError(f"unknown conditioning {conditioning!r}")
    texts = [frozen_text(model, rec) for rec in records]
    sm = ScoreMatrix(scores=np.zeros((b, b)), cosines=np.zeros((b, b)), conditioning=conditioning)
    caches: dict = {}
    pairs = _pairs(b, conditioning)

    def stream():
        for (_, j, rows), enc in zip(pairs, _pair_encodings(model, records, texts, pairs, caches)):
            for r in rows:
                sm.cosines[r, j] = float(np.dot(texts[r].t_joint, enc.v_joint))
                sm.scores[r, j] = sm.cosines[r, j] / sm.tau
            yield enc

    return sm, texts, caches, pairs, stream()


def build_score_matrix_with_caches(
    model: ModelBundle, records, conditioning: str = "per_row",
) -> tuple[ScoreMatrix, list, list]:
    """Text-vs-conditioned-image cosine matrix over one batch of records, for
    a loss-only call: returns (score matrix, text encodings, prompt caches).
    Each image encoding is dropped once it is scored, so one is held at a
    time."""
    sm, texts, caches, _, stream = _score_stream(model, records, conditioning)
    for _ in stream:
        pass
    return sm, texts, [caches[i] for i in range(len(records))]


# ---------------------------------------------------------------------------
# InfoNCE (text -> image, diagonal targets)
# ---------------------------------------------------------------------------


def info_nce(sm: ScoreMatrix) -> float:
    s = sm.scores
    b = s.shape[0]
    shifted = s - s.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + s.max(axis=1)
    return float((lse - np.diagonal(s)).sum() / b)


def info_nce_grad(sm: ScoreMatrix, rows=None) -> Array:
    """d loss / d scores of the given complete rows (default: all), one
    output row each; a row's gradient reads that row alone."""
    rows = np.arange(sm.scores.shape[0]) if rows is None else np.asarray(rows)
    p, _ = numkit.softmax_rows(sm.scores[rows])
    p[np.arange(len(rows)), rows] -= 1.0
    return p / sm.scores.shape[0]


# ---------------------------------------------------------------------------
# pairwise sigmoid over raw cosines (labels +1 diagonal / -1 elsewhere)
# ---------------------------------------------------------------------------


def _pair_labels(b: int) -> Array:
    z = -np.ones((b, b), dtype=np.float64)
    np.fill_diagonal(z, 1.0)
    return z


def sigmoid_pairwise(
    sm: ScoreMatrix, t_scale: float = SIGMOID_T_SCALE, bias: float = SIGMOID_BIAS
) -> float:
    b = sm.cosines.shape[0]
    z = _pair_labels(b)
    a = z * (t_scale * sm.cosines + bias)
    # -log sigmoid(a), elementwise-stable
    loss = np.logaddexp(0.0, -a)
    return float(loss.sum() / (b * b))


def sigmoid_pairwise_grad(
    sm: ScoreMatrix, t_scale: float = SIGMOID_T_SCALE, bias: float = SIGMOID_BIAS, rows=None,
) -> Array:
    """d loss / d cosines of the given complete rows (default: all), one
    output row each; every entry's gradient reads that entry alone."""
    b = sm.cosines.shape[0]
    rows = np.arange(b) if rows is None else np.asarray(rows)
    z = _pair_labels(b)[rows]
    a = z * (t_scale * sm.cosines[rows] + bias)
    return -sigmoid(-a) * z * t_scale / (b * b)


# ---------------------------------------------------------------------------
# ITM head: learnable queries cross-attend patch states, MLP scores the pair
# ---------------------------------------------------------------------------


def itm_forward(head: LayerParams, t_cls: Array, patch_states: Array) -> tuple[float, tuple]:
    p = head.tensors
    d_v = p["wq"].shape[0]
    if p["tproj.weight"].shape[1] != t_cls.shape[0]:
        raise ConfigError(
            f"ITM text width {t_cls.shape[0]} != tproj width {p['tproj.weight'].shape[1]}"
        )
    if patch_states.shape[1] != d_v:
        raise ConfigError(
            f"ITM patch width {patch_states.shape[1]} != head width {d_v}"
        )
    scale = 1.0 / math.sqrt(d_v)
    queries = p["queries"]
    qm = queries @ p["wq"].T + p["bq"]
    k = patch_states @ p["wk"].T + p["bk"]
    v = patch_states @ p["wv"].T + p["bv"]
    scores = (qm @ k.T) * scale
    attn, _ = numkit.softmax_rows(scores)
    attended = attn @ v
    out = attended @ p["wo"].T + p["bo"]
    pooled = out.mean(axis=0)
    tfeat = p["tproj.weight"] @ t_cls + p["tproj.bias"]
    zcat = np.concatenate([pooled, tfeat]).reshape(1, -1)
    h = zcat @ p["mlp.l1.weight"].T + p["mlp.l1.bias"]
    act, gcache = numkit.gelu(h)
    logit = float((act @ p["mlp.l2.weight"].T + p["mlp.l2.bias"])[0, 0])
    cache = (qm, k, v, attn, attended, out, pooled, t_cls, zcat, gcache, act,
             patch_states, scale)
    return logit, cache


def itm_backward(
    head: LayerParams, cache: tuple, grad_logit: float
) -> tuple[dict[str, Array], Array]:
    """Returns (head tensor grads, grad on patch_states)."""
    p = head.tensors
    (qm, k, v, attn, attended, out, pooled, t_cls, zcat, gcache, act,
     patch_states, scale) = cache
    d_v = p["wq"].shape[0]
    q_count = qm.shape[0]

    grads: dict[str, Array] = {}
    g = grad_logit
    grads["mlp.l2.weight"] = g * act
    grads["mlp.l2.bias"] = np.array([g], dtype=act.dtype)
    grad_act = g * p["mlp.l2.weight"]
    grad_h = numkit.gelu_backward(gcache, grad_act)
    grads["mlp.l1.weight"] = grad_h.T @ zcat
    grads["mlp.l1.bias"] = grad_h[0]
    grad_z = (grad_h @ p["mlp.l1.weight"])[0]
    grad_pooled = grad_z[:d_v]
    grad_tfeat = grad_z[d_v:]
    grads["tproj.weight"] = np.outer(grad_tfeat, t_cls)
    grads["tproj.bias"] = grad_tfeat

    grad_out = np.tile(grad_pooled / q_count, (q_count, 1))
    grads["wo"] = grad_out.T @ attended
    grads["bo"] = grad_out.sum(axis=0)
    grad_attended = grad_out @ p["wo"]
    grad_attn = grad_attended @ v.T
    grad_v = attn.T @ grad_attended
    grad_scores = numkit.softmax_rows_backward(attn, grad_attn)
    grad_qm = (grad_scores @ k) * scale
    grad_k = (grad_scores.T @ qm) * scale

    grads["queries"] = grad_qm @ p["wq"]
    grads["wq"] = grad_qm.T @ p["queries"]
    grads["bq"] = grad_qm.sum(axis=0)
    grads["wk"] = grad_k.T @ patch_states
    grads["bk"] = grad_k.sum(axis=0)
    grads["wv"] = grad_v.T @ patch_states
    grads["bv"] = grad_v.sum(axis=0)
    grad_patches = grad_k @ p["wk"] + grad_v @ p["wv"]
    return grads, grad_patches


def itm_logit(head: LayerParams, text_enc: TextEncoding, image_enc: ImageEncoding) -> float:
    logit, _ = itm_forward(head, text_enc.t_cls, image_enc.patch_states)
    return logit


def itm_attention(head: LayerParams, patch_states: Array) -> Array:
    """Query->patch cross-attention weights (q, P) for the attention map."""
    p = head.tensors
    scale = 1.0 / math.sqrt(p["wq"].shape[0])
    qm = p["queries"] @ p["wq"].T + p["bq"]
    k = patch_states @ p["wk"].T + p["bk"]
    attn, _ = numkit.softmax_rows((qm @ k.T) * scale)
    return attn


# ---------------------------------------------------------------------------
# binary cross-entropy with logit
# ---------------------------------------------------------------------------


def bce(logit: float, label: int) -> float:
    if label not in (0, 1):
        raise DataError(f"bce label must be 0 or 1, got {label!r}")
    z = float(logit)
    return max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))


def bce_grad(logit: float, label: int) -> float:
    if label not in (0, 1):
        raise DataError(f"bce label must be 0 or 1, got {label!r}")
    return float(sigmoid(np.array(logit))) - label


# ---------------------------------------------------------------------------
# the batch loss: training (with gradients) and learnability selection
# ---------------------------------------------------------------------------


def pick_itm_negatives(model: ModelBundle, records, texts: list) -> list[int]:
    """Per anchor i: the other batch image most stage-1-similar to text i,
    the lowest index among ties.

    texts holds the batch's TextEncodings, in record order; the image
    embeddings are the records' frozen ones."""
    frozen = np.stack([frozen_image(model, rec).v_joint for rec in records])
    out = []
    for i in range(len(records)):
        sims = numkit.row_dots(frozen, texts[i].t_joint)
        sims[i] = -np.inf
        out.append(int(np.argmax(sims)))
    return out


def variant_batch_loss(
    model: ModelBundle, records, conditioning: str = "per_row", grads: dict | None = None,
) -> float:
    """The active variant's loss on one batch of records.

    C is InfoNCE and S the pairwise sigmoid over the text-anchored score
    matrix; B is the BCE of the ITM head over each anchor's positive and
    its mined negative (conditioning does not apply). When grads is a
    dict, the loss gradient on every mapper tensor ("mapper.<key>") and,
    for B, every ITM-head tensor ("itm.<key>") is added into it, in that
    key order; without one no backward cache is kept.
    """
    if grads is not None:
        for layer in model.trainable_layers():
            for k, v in layer.tensors.items():
                grads.setdefault(f"{layer.name}.{k}", np.zeros_like(v))
    if model.variant == "B":
        return _itm_loss(model, records, grads)
    return _contrastive_loss(model, records, conditioning, grads)


def _contrastive_loss(model: ModelBundle, records, conditioning: str, grads) -> float:
    if grads is None:
        sm = build_score_matrix_with_caches(model, records, conditioning)[0]
    else:
        sm = _stream_contrastive_grads(model, records, conditioning, grads)
    return info_nce(sm) if model.variant == "C" else sigmoid_pairwise(sm)


def _stream_contrastive_grads(model: ModelBundle, records, conditioning: str, grads) -> ScoreMatrix:
    """Score one batch as build_score_matrix_with_caches does and add the
    C/S loss gradient into grads. The runs of equal prompt index i wait
    until every score row they fill is complete (per_row: each text's b
    encodings fill its own row; diagonal: all b fill every row), then go to
    _backprop_prompts and are dropped. Returns the complete score matrix."""
    sm, texts, caches, pairs, stream = _score_stream(model, records, conditioning)

    def runs():
        b = len(records)
        unscored = [b] * b  # entries of each row not yet scored
        g_cos = np.empty((b, b))
        pending, rows = [], set()  # (i, pairs, encodings) not yet handed on, rows they fill
        for i, group in groupby(pairs, key=itemgetter(0)):
            group = list(group)
            pending.append((i, group, [next(stream) for _ in group]))
            for _, _, filled in group:
                rows.update(filled)
                for r in filled:
                    unscored[r] -= 1
            if any(unscored[r] for r in rows):
                continue
            rows = sorted(rows)
            if model.variant == "C":
                g_cos[rows] = info_nce_grad(sm, rows) / sm.tau
            else:
                g_cos[rows] = sigmoid_pairwise_grad(sm, rows=rows)
            # a generator expression, so no name outlives the runs it hands on
            yield from ((i, [
                (enc, {"grad_v_joint": sum(g_cos[r, j] * texts[r].t_joint for r in filled)})
                for (_, j, filled), enc in zip(group, encs)
            ]) for i, group, encs in pending)
            pending, rows = [], set()

    _backprop_prompts(model, grads, caches, runs())
    return sm


def _itm_loss(model: ModelBundle, records, grads) -> float:
    """BCE over each anchor's positive, then its mined negative, scored one
    anchor at a time as the backward consumer pulls it; each anchor's two
    encodings go to it as one run (an empty run without grads)."""
    b = len(records)
    if b < 2:
        raise ConfigError("ITM batch needs >= 2 records for a negative")
    if model.itm_head is None:
        raise ConfigError("variant B requires an ITM head")
    texts = [frozen_text(model, rec) for rec in records]
    negatives = pick_itm_negatives(model, records, texts)
    pairs = [(i, j, label) for i in range(b) for j, label in ((i, 1), (negatives[i], 0))]
    prompt_caches: dict = {}
    denom = 2 * b
    total = 0.0

    def scored():
        nonlocal total
        encs = _pair_encodings(model, records, texts, pairs, prompt_caches)
        for i, group in groupby(pairs, key=itemgetter(0)):
            run = []
            for (_, _, label), enc in zip(group, encs):
                logit, itm_cache = itm_forward(model.itm_head, texts[i].t_cls, enc.patch_states)
                total += bce(logit, label)
                if grads is None:
                    continue
                head_grads, grad_patch_states = itm_backward(
                    model.itm_head, itm_cache, bce_grad(logit, label) / denom
                )
                for k, v in head_grads.items():
                    grads[f"itm.{k}"] += v
                run.append((enc, {"grad_patch_states": grad_patch_states}))
            yield i, run

    _backprop_prompts(model, grads, prompt_caches, scored())
    return total / denom
