"""Two-stage retrieval: exact stage-1 ranking, prompt-conditioned re-ranking,
metrics, curves, attention maps and the FLOPs estimator.

Stage 1 scores by numkit.row_dots, whose rows carry the bits of per-row
np.dot (not of one batched GEMV). Stage 2 encodes a query's top-k through
objectives.stream_pairs, the training pair streamer, which runs the joint
head (the last image block's MLP half, the final layer norm, the
projection) once over the k candidates and returns their (k, d_e)
v_joint (C/S) or (k, P, d_v) patch states (B). C/S
scores that stack by the same row_dots, so stage-1 and re-ranked scores of
identical encodings are bitwise equal, and B by one stacked ITM-head call,
each logit with the bits of its own single-image call.
numkit.order_desc orders every list, ties by ascending image id.

A RankingResult is columnar: int indices into a shared gallery id list and
float64 scores, best first; the metrics read a per-query hit mask, and the
(id, score) `entries` list is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DimsConfig, MapperConfig
from .curation import Benchmark, PairDataset, query_id
from .encoders import (
    ModelBundle,
    TextEncoding,
    encode_text,
    frozen_image,
    image_forward,
    joint_embed,
)
from .errors import ConfigError, DataError
from .numkit import Array, order_desc, row_dots
from .objectives import itm_attention, itm_forward, sigmoid, stream_pairs
from .prompt_mapper import prompts_for_text

PR_RECALL_GRID = [round(0.05 * i, 2) for i in range(21)]
DEFAULT_RECALL_KS = (1, 2, 5, 10, 20, 50, 100)
CURVE_KINDS = ("recall_topk", "precision_recall")
ATTENTION_MODES = ("cls", "itm_query")


@dataclass
class EmbeddingStore:
    ids: list
    matrix: Array  # (G, d_e) unit-norm rows
    provenance_seed: int = 0
    # id_rank[row]: position of ids[row] in ascending string order
    id_rank: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ids) != self.matrix.shape[0]:
            raise DataError(
                f"store has {len(self.ids)} ids but {self.matrix.shape[0]} rows"
            )
        if len(set(self.ids)) != len(self.ids):
            raise DataError("store ids are not unique")
        if len(self.ids):
            norms = np.linalg.norm(self.matrix.astype(np.float64), axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if not worst <= 1e-6:  # NaN fails too
                raise DataError(f"store rows not finite and unit-norm (off by {worst:.2e})")
        self.id_rank = _id_ranks(self.ids)


def _id_ranks(ids: list) -> Array:
    """ranks[i]: position of ids[i] when ids are sorted as Python strings."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


@dataclass(eq=False)
class RankingResult:
    query_id: str
    gallery: list  # image ids, shared by the rankings of one store or file
    order: Array  # int indices into gallery, best first
    scores: Array  # float64, in ranked order
    stage: str  # stage1 | reranked
    k_reranked: int = 0

    @property
    def entries(self) -> list:
        """(image_id, score) pairs, best first."""
        return list(zip(self.ranked_ids(), self.scores.tolist()))

    def ranked_ids(self) -> list:
        return list(map(self.gallery.__getitem__, self.order.tolist()))

    def __eq__(self, other):
        """Same query, stage and k, same ranked ids, same score bits."""
        def key(r):
            return r.query_id, r.stage, r.k_reranked, r.ranked_ids(), r.scores.tobytes()
        return isinstance(other, RankingResult) and key(self) == key(other)


@dataclass
class MetricReport:
    per_query: dict
    aggregate: dict
    query_count: int


@dataclass
class CurveData:
    kind: str  # one of CURVE_KINDS
    points: list  # ordered (x, y)


@dataclass
class AttentionMap:
    weights: Array  # (P,) raw CLS->patch (or query->patch) mass
    grid: Array  # normalized, sqrt(P) x sqrt(P) when P is square
    patch_mass: float


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------


def embed_gallery(model: ModelBundle, ds: PairDataset) -> EmbeddingStore:
    """Frozen (prompt-free) unit-norm image embedding per record."""
    rows = [frozen_image(model, rec).v_joint for rec in ds.records]
    return EmbeddingStore(
        ids=[rec.id for rec in ds.records],
        matrix=np.stack(rows),
        provenance_seed=model.seed,
    )


def stage1_rank(store: EmbeddingStore, text_enc: TextEncoding, qid: str = "q0000") -> RankingResult:
    if not store.ids:
        raise DataError("empty embedding store")
    scores = row_dots(store.matrix, text_enc.t_joint)
    order = order_desc(scores, store.id_rank)
    return RankingResult(query_id=qid, gallery=store.ids, order=order,
                         scores=scores[order].astype(np.float64), stage="stage1")


def encode_queries(model: ModelBundle, bench: Benchmark) -> list:
    """One TextEncoding per benchmark query, in benchmark order: stage 1
    ranks by its t_joint and stage 2 maps it to the query's prompts."""
    return [encode_text(model, q.text_tokens) for q in bench.queries]


def rank_queries(store: EmbeddingStore, queries: list) -> list:
    """Stage-1 rankings of encode_queries' list, query i as query_id(i)."""
    return [stage1_rank(store, text_enc, query_id(i)) for i, text_enc in enumerate(queries)]


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------


def rerank(
    model: ModelBundle,
    ds: PairDataset,
    ranking: RankingResult,
    k: int,
    text_enc: TextEncoding,
    itm_sigmoid: bool = False,
) -> RankingResult:
    """Re-score the top-k under query prompts; the tail keeps stage-1 order
    and always ranks below the re-scored block.

    C/S: new score = cosine(t_joint, conditioned v_joint). B: new score =
    stage-1 cosine + raw ITM logit (sigmoid-squashed when itm_sigmoid).
    """
    if k == 0:
        return ranking
    if k < 0 or k > len(ranking.order):
        raise ConfigError(f"k={k} outside [0, {len(ranking.order)}]")
    head = ranking.order[:k]
    ids = list(map(ranking.gallery.__getitem__, head.tolist()))
    stack = stream_pairs(model, [ds.by_id(image_id) for image_id in ids], [text_enc],
                         [(0, j, (0,)) for j in range(k)])
    if model.variant == "B":
        logits, _ = itm_forward(model.itm_head, text_enc.t_cls, stack)
        scores = ranking.scores[:k] + (sigmoid(logits) if itm_sigmoid else logits)
    else:
        scores = row_dots(stack, text_enc.t_joint)
    local = order_desc(scores, _id_ranks(ids))
    return RankingResult(
        query_id=ranking.query_id,
        gallery=ranking.gallery,
        order=np.concatenate([head[local], ranking.order[k:]]),
        scores=np.concatenate([scores[local].astype(np.float64), ranking.scores[k:]]),
        stage="reranked",
        k_reranked=k,
    )


def rerank_queries(
    model: ModelBundle,
    ds: PairDataset,
    rankings: list,
    queries: list,
    k: int,
    itm_sigmoid: bool = False,
) -> list:
    """rerank of query i's ranking under encode_queries' i-th encoding."""
    return [
        rerank(model, ds, ranking, k, text_enc, itm_sigmoid)
        for ranking, text_enc in _rankings_by_query(rankings, queries)
    ]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _rankings_by_query(rankings, queries: list) -> list:
    """(ranking of query_id(i), queries[i]) for each i."""
    by_qid = {r.query_id: r for r in rankings}
    paired = []
    for i, q in enumerate(queries):
        qid = query_id(i)
        if qid not in by_qid:
            raise DataError(f"query {qid} missing from rankings")
        paired.append((by_qid[qid], q))
    return paired


def recall_at_k(rankings, bench: Benchmark, k: int) -> float:
    """Mean over queries of |positives in top-k| / |positives|."""
    return evaluate(rankings, bench, (k,)).aggregate[f"recall@{k}"]


def _hits_by_query(rankings, bench: Benchmark) -> list:
    """(ranking, query, hits) per benchmark query; hits[i]: whether the
    ranking's i-th image is one of the query's positives. The mask is set
    from the positives through one id -> index map per shared gallery list."""
    gallery, index_of = None, None
    out = []
    for ranking, q in _rankings_by_query(rankings, bench.queries):
        if ranking.gallery is not gallery:
            gallery = ranking.gallery
            index_of = {image_id: i for i, image_id in enumerate(gallery)}
        is_positive = np.zeros(len(gallery), dtype=bool)
        is_positive[[index_of[p] for p in q.positives if p in index_of]] = True
        out.append((ranking, q, is_positive[ranking.order]))
    return out


def average_precision(hits: Array, positive_count: int) -> float:
    """AP of a ranked hit mask, summed in rank order (np.add.reduce sums
    pairwise and would round otherwise)."""
    ap_sum = 0.0
    for hit, rank in enumerate(np.flatnonzero(hits).tolist(), start=1):
        ap_sum += hit / (rank + 1)
    return ap_sum / positive_count


def mean_average_precision(rankings, bench: Benchmark) -> float:
    return evaluate(rankings, bench, ()).aggregate["ap"]


def evaluate(rankings, bench: Benchmark, ks=(1, 5, 10)) -> MetricReport:
    per_query = {}
    for ranking, q, hits in _hits_by_query(rankings, bench):
        row = {f"recall@{k}": int(np.count_nonzero(hits[:k])) / len(q.positives) for k in ks}
        row["ap"] = average_precision(hits, len(q.positives))
        per_query[ranking.query_id] = row
    metrics = [f"recall@{k}" for k in ks] + ["ap"]
    aggregate = {
        name: float(np.mean([row[name] for row in per_query.values()]))
        for name in metrics
    }
    return MetricReport(per_query=per_query, aggregate=aggregate, query_count=len(per_query))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _pr_staircase(scores: Array, hits: Array, positive_count: int) -> tuple[Array, Array]:
    """(recalls, precisions) after each distinct-score cutoff, ties grouped.
    Integer true division rounds as Python's int / int does."""
    count = len(scores)
    hits = np.cumsum(hits, dtype=np.int64)
    last_of_group = np.ones(count, dtype=bool)
    last_of_group[:-1] = scores[1:] != scores[:-1]
    hits = hits[last_of_group]
    seen = np.arange(1, count + 1)[last_of_group]
    return hits / positive_count, hits / seen


def curve(rankings, bench: Benchmark, kind: str, ks=None) -> CurveData:
    if kind == "recall_topk":
        sweep = list(ks) if ks is not None else list(DEFAULT_RECALL_KS)
        if not sweep:
            raise ConfigError("empty k sweep list")
        if min(sweep) < 1:
            raise ConfigError(f"recall_topk needs every k >= 1, got {sweep}")
        recall = evaluate(rankings, bench, sweep).aggregate
        points = [(float(k), recall[f"recall@{k}"]) for k in sweep]
        return CurveData(kind=kind, points=points)
    if kind == "precision_recall":
        # Interpolated precision at recall r is the max precision over the
        # staircase points with recall >= r. Recall never decreases along a
        # staircase, so those points are a suffix: a left search finds it,
        # and a suffix maximum of precision answers it.
        grid = np.array(PR_RECALL_GRID) - 1e-12
        per_query = []
        for ranking, q, hits in _hits_by_query(rankings, bench):
            recalls, precisions = _pr_staircase(ranking.scores, hits, len(q.positives))
            best = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
            per_query.append(best[np.searchsorted(recalls, grid)])
        # one contiguous row per grid point, so each mean sums as over a list
        by_point = np.array(per_query).reshape(len(per_query), len(grid)).T.copy()
        points = [(r, float(np.mean(row))) for r, row in zip(PR_RECALL_GRID, by_point)]
        return CurveData(kind=kind, points=points)
    raise ConfigError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# attention maps
# ---------------------------------------------------------------------------


def attention_map(
    model: ModelBundle,
    record,
    text_enc: TextEncoding | None,
    mode: str = "cls",
) -> AttentionMap:
    """CLS->patch attention (cls mode, last layer, head-averaged) or ITM
    query->patch cross-attention (itm_query mode, query-averaged)."""
    if mode not in ATTENTION_MODES:
        raise ConfigError(f"unknown attention map mode {mode!r}")
    if mode == "itm_query" and model.variant != "B":
        raise ConfigError(f"itm_query map needs variant B, model is {model.variant!r}")
    prompts = prompts_for_text(model, text_enc) if text_enc is not None else None
    enc = image_forward(model, record.patches, prompts)
    p_count = model.dims.P
    if mode == "cls":
        last = enc.attn[-1]  # (H, R, T), CLS the last kept row
        weights = last.mean(axis=0)[-1, :p_count]
    else:
        patch_states, _, _ = joint_embed(model, enc.kept)
        attn = itm_attention(model.itm_head, patch_states)  # (q, P)
        weights = attn.mean(axis=0)
    mass = float(weights.sum())
    grid_flat = weights / mass
    side = math.isqrt(p_count)
    shape = (side, side) if side * side == p_count else (1, p_count)
    return AttentionMap(
        weights=weights, grid=grid_flat.reshape(shape), patch_mass=mass
    )


# ---------------------------------------------------------------------------
# FLOPs estimator
# ---------------------------------------------------------------------------


def estimate_flops(dims: DimsConfig, with_prompts: bool, mapper_hidden: int = 0) -> int:
    """Forward FLOPs of one image encoding under a pinned counting model.

    Convention: 1 multiply-add = 2 FLOPs; a linear over T tokens costs
    2*T*d_in*d_out (bias free); layer-norm/softmax/GELU cost 5 per element.
    Prompt tokens are counted as key/value providers only (no query path, no
    MLP), which keeps the prompt overhead exactly affine in n: per prompted
    layer the QK^T and AV terms cost 2*T_q*T_kv*d with T_q = P+1 fixed and
    T_kv = P+1+n. The mapper is included when prompts are generated (n > 0).
    """
    hidden = MapperConfig(hidden=mapper_hidden).hidden_width(dims.d_v)
    n = dims.n if with_prompts else 0
    d = dims.d_v
    tq = dims.P + 1
    total = 2 * dims.P * dims.d_in * d  # patch embedding
    for layer in range(dims.L_v):
        tkv = tq + (n if layer >= dims.insert_layer else 0)
        total += 5 * tkv * d  # LN feeding attention (prompts need K/V states)
        total += 2 * tq * d * d  # Q projection
        total += 2 * 2 * tkv * d * d  # K and V projections
        total += 2 * tq * tkv * d  # QK^T
        total += 5 * dims.H * tq * tkv  # softmax rows
        total += 2 * tq * tkv * d  # AV
        total += 2 * tq * d * d  # output projection
        total += 5 * tq * d  # LN feeding the MLP
        total += 2 * tq * d * 4 * d  # MLP expand
        total += 5 * tq * 4 * d  # GELU
        total += 2 * tq * 4 * d * d  # MLP contract
    total += 5 * tq * d  # final layer norm
    total += 2 * d * dims.d_e  # joint projection of the CLS state
    if with_prompts and n > 0:
        total += 2 * dims.d_t * hidden + 5 * hidden
        total += 2 * hidden * hidden + 5 * hidden
        total += 2 * hidden * n * d
    return total
