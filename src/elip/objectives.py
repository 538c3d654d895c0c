"""Training objectives: InfoNCE, pairwise sigmoid, and ITM binary CE.

Every batch loss and the stage-2 re-rank run through one streamer,
stream_pairs, from the prompt mapper and the image encoder to the prompt
backward. A caller names its (text i, image j, score rows) pairs and gets
back, in pair order, the one stack each variant scores: B's final patch
states, C/S's v_joint. To train, it also supplies a row backward.
Score matrices are text-anchored: row i holds text i scored against every
image in the batch, each image re-encoded under conditioning prompts.
per_row conditioning re-encodes image j with prompts from text i for entry
(i, j) (b^2 encodings, matching inference); diagonal conditions every image
on its own paired text (b encodings) and fills every row with each. C/S
scores a row with numkit.row_dots, each entry with its own np.dot bits. B
scores each anchor's positive and its mined negative with the ITM head.

The streamer maps text i's prompts once and encodes one pair at a time,
then runs the joint head (final layer norm, joint projection, L2 norm)
once over the stack of the run's kept rows, encoders.joint_embed, and
keeps only the scored part of each encoding in the returned stack: a
query's k candidates, a per_row text's b images, a B anchor's two, a
diagonal pair alone. A call without gradients (a loss-only call, or
retrieval.rerank) keeps no encoding, only each one's kept rows until its
run's joint head, and scores the stack once the stream ends. With
gradients, text i's run, with its prompt cache and head cache, waits
until every score row it fills is complete, goes back through one stacked
image_backward and one map_prompts_backward, and is dropped: per_row
holds b encodings at a time, not b^2; diagonal holds its b until the
end; B an anchor's two. Batch
texts, and images under an empty prompt set (the prompt-free JEST
reference, or any n = 0 model), come from encoders.frozen_text and
frozen_image, so a record's frozen work runs once per backbone.

A learnability selection scores one batch per reference record of a mined
plan, so each record sits in about B batches. Its learner's loss-only
calls share one PairTable, which the streamer reads before it maps or
encodes: each distinct (text, image) pair is encoded once and each
distinct text mapped once per selection (a traced itm-late selection: 277
encodes and 100 mapper calls, not 1,200 and 600). The table holds each C/S
pair's v_joint or each B pair's ITM logit, and each text's prompts with
their insert-block group, and goes when the selection returns. B's
loss-only calls stream only the pairs whose logit the table lacks, and
the prompt-free reference's calls share a table of their own, so each
side ITM-scores each distinct pair once. Every batch reads the same
values in the same order, so no bit moves.

The ITM head runs over stacks: itm_forward takes one image's (P, d_v)
patch states or a (..., P, d_v) stack of them, against one text or a stack
of texts, and gives one logit per image; itm_backward takes the cache of
any such call. A loss-only B call (a JEST score) scores every pair it
streams with one forward, a training call each anchor's positive and
negative with one forward and one backward. The re-rank scores all k
candidates of a query in one call. Every logit and gradient keeps the
bits of its image's own single-image call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from operator import add

import numpy as np

from . import numkit
from .config import CONDITIONINGS
from .encoders import (
    ModelBundle,
    frozen_image,
    frozen_prefix,
    frozen_text,
    image_backward,
    image_forward,
    joint_embed,
    prompt_pre_attention,
)
from .errors import ConfigError, DataError
from .numkit import Array, LayerParams
from .prompt_mapper import map_prompts_backward, map_prompts_with_cache

TAU = 0.07
SIGMOID_T_SCALE = 10.0
SIGMOID_BIAS = -10.0


@dataclass
class ScoreMatrix:
    scores: Array  # (b, b) cosines / TAU
    cosines: Array  # (b, b) raw cosines


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


@dataclass
class PairTable:
    """The loss-only scores of one model shared by the batches of one
    learnability selection, keyed by record id: what each (text record,
    image record) pair's score reads, already computed (a prompted C/S
    encode's v_joint, which stream_pairs keeps; B's ITM logit, which
    _itm_loss keeps), and each text's mapped prompts with their
    prompt_pre_attention group. It reads the mapper (and ITM head) as they
    stood when an entry was made, so it must not outlive an update;
    select_by_learnability makes one per model and call."""

    scored: dict = field(default_factory=dict)  # (text id, image id) -> v_joint or logit
    prompts: dict = field(default_factory=dict)  # text id -> (prompts, prompt group)


def stream_pairs(model: ModelBundle, records, texts, pairs, backward=None, grads=None,
                 pair_table: PairTable | None = None) -> Array:
    """Encode the pairs (i, j, rows) of one batch and return, in pair order,
    the part of each encoding its variant scores: B's final patch states as
    a (len(pairs), P, d_v) stack, C/S's v_joint as a (len(pairs), d_e) one.

    Text i's prompts are mapped once, before its group's first encode, and
    so is their pre-attention at insert_layer; each pair encodes record j's
    image under them from the record's frozen_prefix, and the group's kept
    rows go through one joint_embed. An n = 0 model maps nothing and reads
    each record's frozen image. A loss-only C/S call given a pair_table
    reads each pair's v_joint, and any call each text's prompts, from it
    when they are there and adds them when not, so a pair the table holds
    is not encoded again and a text it holds is not mapped again. Without
    grads no encoding is kept, only its kept rows until the group's
    joint_embed. With grads (a dict), text i's run waits, with its prompt
    cache and head cache, until every score row its pairs fill is
    complete; then backward(rows, out) of those rows returns grad_of,
    grad_of(p) the gradient on out[p]. The run goes through one stacked
    image_backward, and its prompt gradient, summed in pair order, through
    one map_prompts_backward into grads["mapper.<key>"]."""
    dims = model.dims
    itm = model.variant == "B"
    out = np.empty((len(pairs), dims.P, dims.d_v) if itm else (len(pairs), dims.d_e), model.dtype)
    grad_key = "grad_patch_states" if itm else "grad_v_joint"
    if grads is not None:
        if pair_table is not None:
            raise ConfigError("a pair table serves loss-only calls, not gradients")
        for layer in model.trainable_layers():
            for k, v in layer.tensors.items():
                grads.setdefault(f"{layer.name}.{k}", np.zeros_like(v))
    unscored = Counter(r for _, _, rows in pairs for r in rows)  # entries per row not yet scored
    pending = []  # (prompt cache, encodings, head cache, pair indices) of runs not backpropagated
    # prompt-free pairs read their records' frozen entries, and B's table holds logits
    held = None if pair_table is None or itm or not dims.n else pair_table.scored
    for i, group in groupby(enumerate(pairs), key=lambda item: item[1][0]):
        prompts = cache = head = None
        run, kept, encs = [], [], []  # pair indices, the encodes' kept rows, with grads encodings
        for p, (_, j, rows) in group:
            if held is not None and (key := (records[i].id, records[j].id)) in held:
                out[p] = held[key]
                continue
            run.append(p)
            if grads is not None:
                unscored.subtract(rows)
            if not dims.n:
                frozen = frozen_image(model, records[j])
                out[p] = frozen.patch_states if itm else frozen.v_joint
                continue
            if prompts is None:
                entry = None if pair_table is None else pair_table.prompts.get(records[i].id)
                if entry is None:
                    prompts, cache = map_prompts_with_cache(model.mapper, texts[i],
                                                            model.mapper_cfg, dims.d_v)
                    entry = prompts, prompt_pre_attention(model, prompts)
                    if pair_table is not None:
                        pair_table.prompts[records[i].id] = entry
                prompts, prompt_group = entry
            enc = image_forward(model, records[j].patches, prompts,
                                prefix=frozen_prefix(model, records[j]), prompt_group=prompt_group)
            kept.append(enc.kept)
            if grads is not None:
                encs.append(enc)
        if kept:
            patch_states, v_joint, head = joint_embed(model, np.stack(kept))
            out[run] = patch_states if itm else v_joint
            if held is not None:
                for p in run:
                    held[records[i].id, records[pairs[p][1]].id] = out[p].copy()
        if grads is None:
            continue
        pending.append((cache, encs, head, run))
        rows = sorted({r for *_, run in pending for p in run for r in pairs[p][2]})
        if any(unscored[r] for r in rows):
            continue
        grad_of = backward(rows, out)
        for cache, encs, head, run in pending:
            if not encs:
                continue
            # bound until the next run: freeing the stack at once let glibc trim
            # and re-fault the heap top every run (~4x a per_row step's faults)
            grad_stack = image_backward(model, encs, head_cache=head,
                                        **{grad_key: [grad_of(p) for p in run]})
            grad_prompts = reduce(add, grad_stack)
            for k, v in map_prompts_backward(model.mapper, cache, grad_prompts).items():
                grads[f"mapper.{k}"] += v
        pending = []
    return out


def build_score_matrix_with_caches(
    model: ModelBundle, records, conditioning: str = "per_row", grads: dict | None = None,
    pair_table: PairTable | None = None,
) -> ScoreMatrix:
    """Text-vs-conditioned-image cosine matrix over one batch of records.
    With grads, the C (InfoNCE) or S (pairwise sigmoid) loss gradient of
    every mapper tensor is added into it, each complete score row
    differentiated once; without, a pair_table serves stream_pairs."""
    b = len(records)
    if b < 2:
        raise ConfigError(f"contrastive batch needs >= 2 records, got {b}")
    if conditioning not in CONDITIONINGS:
        raise ConfigError(f"unknown conditioning {conditioning!r}")
    texts = [frozen_text(model, rec) for rec in records]
    t_joint = np.stack([t.t_joint for t in texts])
    sm = ScoreMatrix(scores=np.zeros((b, b)), cosines=np.zeros((b, b)))
    g_cos = np.empty((b, b))
    pairs = _pairs(b, conditioning)

    def fill(rows, out):
        """Score rows, each entry with the bits of np.dot(t_joint, v_joint)."""
        v_joint = (out.reshape(b, b, -1) if conditioning == "per_row"
                   else np.broadcast_to(out, (b, *out.shape)))
        sm.cosines[rows] = numkit.row_dots(v_joint[rows], t_joint[rows, None])
        sm.scores[rows] = sm.cosines[rows] / TAU

    def backward(rows, out):
        fill(rows, out)
        if model.variant == "C":
            g_cos[rows] = info_nce_grad(sm, rows) / TAU
        else:
            g_cos[rows] = sigmoid_pairwise_grad(sm, rows=rows)

        def grad_of(p):
            _, j, pair_rows = pairs[p]
            return sum(g_cos[r, j] * texts[r].t_joint for r in pair_rows)
        return grad_of

    out = stream_pairs(model, records, texts, pairs, backward, grads, pair_table)
    if grads is None:
        fill(range(b), out)
    return sm


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


def sigmoid_pairwise_grad(sm: ScoreMatrix, rows=None) -> Array:
    """d loss / d cosines, at the default t_scale and bias, of the given
    complete rows (default: all), one output row each; every entry's
    gradient reads that entry alone."""
    b = sm.cosines.shape[0]
    rows = np.arange(b) if rows is None else np.asarray(rows)
    z = _pair_labels(b)[rows]
    a = z * (SIGMOID_T_SCALE * sm.cosines[rows] + SIGMOID_BIAS)
    return -sigmoid(-a) * z * SIGMOID_T_SCALE / (b * b)


# ---------------------------------------------------------------------------
# ITM head: learnable queries cross-attend patch states, MLP scores the pair
# ---------------------------------------------------------------------------


def _itm_attend(p: dict, patch_states: Array) -> tuple:
    """(projected queries, keys, query->patch attention weights, scale) of
    the ITM head tensors p over (..., P, d_v) patch states."""
    # math.sqrt, not np.sqrt: an np.float64 scale would lift float32 scores to float64
    scale = 1.0 / math.sqrt(p["wq"].shape[0])
    qm = p["queries"] @ p["wq"].T + p["bq"]
    k = patch_states @ p["wk"].T + p["bk"]
    attn, _ = numkit.softmax_rows((qm @ k.swapaxes(-1, -2)) * scale)
    return qm, k, attn, scale


def itm_forward(head: LayerParams, t_cls: Array, patch_states: Array) -> tuple:
    """(logit, cache) of text CLS states against patch states: one text's
    (d_t,) against one image's (P, d_v) gives a float; a (..., P, d_v) stack
    gives one logit per image, against one text or a (..., d_t) stack of
    texts whose leading axes broadcast to the images'.

    Each logit has the bits of that image's own call: the query projection
    qm runs once per call, the text projection tfeat once per text as a
    matrix-vector product, np.matmul(W, t[..., None]) (t @ W.T moves bits),
    and every other product stays a per-image matmul, down to the MLP
    input's (..., 1, 2 d_v) stack (flattening it to one GEMM moves bits).
    itm_backward takes the cache of any such call."""
    p = head.tensors
    d_v = p["wq"].shape[0]
    if p["tproj.weight"].shape[1] != t_cls.shape[-1]:
        raise ConfigError(
            f"ITM text width {t_cls.shape[-1]} != tproj width {p['tproj.weight'].shape[1]}"
        )
    if patch_states.shape[-1] != d_v:
        raise ConfigError(
            f"ITM patch width {patch_states.shape[-1]} != head width {d_v}"
        )
    qm, k, attn, scale = _itm_attend(p, patch_states)
    v = patch_states @ p["wv"].T + p["bv"]
    attended = attn @ v
    out = attended @ p["wo"].T + p["bo"]
    pooled = out.mean(axis=-2, keepdims=True)
    tfeat = np.matmul(p["tproj.weight"], t_cls[..., None])[..., None, :, 0] + p["tproj.bias"]
    zcat = np.concatenate([pooled, np.broadcast_to(tfeat, (*pooled.shape[:-1], tfeat.shape[-1]))],
                          axis=-1)
    h = zcat @ p["mlp.l1.weight"].T + p["mlp.l1.bias"]
    act, gcache = numkit.gelu(h)
    logits = (act @ p["mlp.l2.weight"].T + p["mlp.l2.bias"])[..., 0, 0]
    cache = (qm, k, v, attn, attended, out, t_cls, zcat, gcache, act, patch_states, scale)
    return (float(logits) if logits.ndim == 0 else logits), cache


def itm_backward(head: LayerParams, cache: tuple, grad_logits) -> tuple[dict[str, Array], Array]:
    """(head tensor grads, grad on patch_states) of an itm_forward call,
    given d loss / d logit of each of its images: a float for one image, a
    (g,) array for a (g, P, d_v) stack, which gives (g, ...) gradient
    stacks and (g, P, d_v) patch gradients, each slice with the bits of
    that image's own call."""
    p = head.tensors
    qm, k, v, attn, attended, out, t_cls, zcat, gcache, act, patch_states, scale = cache
    d_v = p["wq"].shape[0]
    q_count = qm.shape[0]
    # in the head's dtype first: a float64 array would lift an f32 head's grads
    g = np.asarray(grad_logits).astype(act.dtype)[..., None, None]

    grads: dict[str, Array] = {}
    grads["mlp.l2.weight"] = g * act
    grads["mlp.l2.bias"] = g[..., 0]
    grad_act = g * p["mlp.l2.weight"]
    grad_h = numkit.gelu_backward(gcache, grad_act)
    grads["mlp.l1.weight"] = grad_h.swapaxes(-1, -2) @ zcat
    grads["mlp.l1.bias"] = grad_h[..., 0, :]
    grad_z = (grad_h @ p["mlp.l1.weight"])[..., 0, :]
    grad_pooled = grad_z[..., :d_v]
    grad_tfeat = grad_z[..., d_v:]
    grads["tproj.weight"] = grad_tfeat[..., :, None] * t_cls[..., None, :]
    grads["tproj.bias"] = grad_tfeat

    grad_out = np.repeat((grad_pooled / q_count)[..., None, :], q_count, axis=-2)
    grads["wo"] = grad_out.swapaxes(-1, -2) @ attended
    grads["bo"] = grad_out.sum(axis=-2)
    grad_attended = grad_out @ p["wo"]
    grad_attn = grad_attended @ v.swapaxes(-1, -2)
    grad_v = attn.swapaxes(-1, -2) @ grad_attended
    grad_scores = numkit.softmax_rows_backward(attn, grad_attn)
    grad_qm = (grad_scores @ k) * scale
    grad_k = (grad_scores.swapaxes(-1, -2) @ qm) * scale

    grads["queries"] = grad_qm @ p["wq"]
    grads["wq"] = grad_qm.swapaxes(-1, -2) @ p["queries"]
    grads["bq"] = grad_qm.sum(axis=-2)
    grads["wk"] = grad_k.swapaxes(-1, -2) @ patch_states
    grads["bk"] = grad_k.sum(axis=-2)
    grads["wv"] = grad_v.swapaxes(-1, -2) @ patch_states
    grads["bv"] = grad_v.sum(axis=-2)
    grad_patches = grad_k @ p["wk"] + grad_v @ p["wv"]
    return grads, grad_patches


def itm_attention(head: LayerParams, patch_states: Array) -> Array:
    """Query->patch cross-attention weights (q, P) for the attention map."""
    return _itm_attend(head.tensors, patch_states)[2]


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
    embeddings are the records' frozen ones. One row_dots pass broadcasts
    every text against every image, entry (i, j) with the bits of
    np.dot(image j, text i)."""
    frozen = np.stack([frozen_image(model, rec).v_joint for rec in records])
    sims = numkit.row_dots(frozen, np.stack([t.t_joint for t in texts])[:, None])
    np.fill_diagonal(sims, -np.inf)
    return [int(j) for j in np.argmax(sims, axis=1)]


def variant_batch_loss(
    model: ModelBundle, records, conditioning: str = "per_row", grads: dict | None = None,
    pair_table: PairTable | None = None,
) -> float:
    """The active variant's loss on one batch of records.

    C is InfoNCE and S the pairwise sigmoid over the text-anchored score
    matrix; B is the BCE of the ITM head over each anchor's positive and
    its mined negative (conditioning does not apply). When grads is a
    dict, the loss gradient on every mapper tensor ("mapper.<key>") and,
    for B, every ITM-head tensor ("itm.<key>") is added into it, in that
    key order; without one no backward cache is kept, and a pair_table
    lets the batches of one selection share their encodes.
    """
    if model.variant == "B":
        return _itm_loss(model, records, grads, pair_table)
    sm = build_score_matrix_with_caches(model, records, conditioning, grads, pair_table)
    return info_nce(sm) if model.variant == "C" else sigmoid_pairwise(sm)


def _itm_loss(model: ModelBundle, records, grads, pair_table) -> float:
    """BCE over each anchor's positive, then its mined negative: pairs
    (i, j, (i,)) that fill score row i, so an anchor's two encodings are one
    run, and rows 2i and 2i + 1 of the streamed (2b, P, d_v) patch states.
    A loss-only call streams each distinct pair whose logit the pair_table
    (or, without one, the call) does not hold yet and scores them with one
    itm_forward once the stream ends, keeping each logit in the table; a
    training call scores anchor i's two images with one itm_forward and one
    itm_backward as its run completes, and adds the head gradients image by
    image, in pair order."""
    b = len(records)
    if b < 2:
        raise ConfigError("ITM batch needs >= 2 records for a negative")
    if model.itm_head is None:
        raise ConfigError("variant B requires an ITM head")
    head = model.itm_head
    texts = [frozen_text(model, rec) for rec in records]
    negatives = pick_itm_negatives(model, records, texts)
    pairs = [(i, j, (i,)) for i in range(b) for j in (i, negatives[i])]
    labels = (1, 0)
    denom = 2 * b
    total = 0.0

    if grads is None:
        logits = {} if pair_table is None else pair_table.scored
        keys = [(records[i].id, records[j].id) for i, j, _ in pairs]
        todo = {}  # key -> first pair index, of each pair not scored yet
        for p, key in enumerate(keys):
            if key not in logits:
                todo.setdefault(key, p)
        if todo:
            run = [pairs[p] for p in todo.values()]
            states = stream_pairs(model, records, texts, run, pair_table=pair_table)
            scored, _ = itm_forward(head, np.stack([texts[i].t_cls for i, _, _ in run]), states)
            logits.update(zip(todo, scored.tolist()))
        for p, key in enumerate(keys):
            total += bce(logits[key], labels[p % 2])
        return total / denom

    def backward(rows, out):
        nonlocal total
        (i,) = rows
        logits, cache = itm_forward(head, texts[i].t_cls, out[2 * i: 2 * i + 2])
        grad_logits = []
        for logit, label in zip(logits.tolist(), labels):
            total += bce(logit, label)
            grad_logits.append(bce_grad(logit, label) / denom)
        head_grads, grad_states = itm_backward(head, cache, np.array(grad_logits))
        for slot in range(2):
            for k, v in head_grads.items():
                grads[f"itm.{k}"] += v[slot]
        return lambda p: grad_states[p - 2 * i]

    stream_pairs(model, records, texts, pairs, backward, grads, pair_table)
    return total / denom
