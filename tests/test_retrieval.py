import base64
import json
import os
import tempfile

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from elip.config import DimsConfig, FULL_SCALE_K, MapperConfig
from elip.curation import Benchmark, BenchmarkQuery, PairDataset, query_id
from elip.encoders import encode_text, image_forward, init_frozen_model
from elip.errors import ConfigError, DataError
from elip.objectives import itm_forward, sigmoid
from elip.prompt_mapper import prompts_for_text
from elip import encoders, storage
from elip.retrieval import (
    PR_RECALL_GRID,
    EmbeddingStore,
    RankingResult,
    _hits_by_query,
    _pr_staircase,
    attention_map,
    curve,
    embed_gallery,
    estimate_flops,
    evaluate,
    mean_average_precision,
    recall_at_k,
    rerank,
    stage1_rank,
)
from elip.rng import Rng

from conftest import TINY, encode_one, make_records, randomize_mapper, ranking_from_entries
from oracles import prompt_flops_slope


def unit(v):
    v = np.asarray(v, dtype=np.float32)
    return v / np.linalg.norm(v)


def store_from(rows, ids=None):
    mat = np.stack([unit(r) for r in rows])
    ids = ids or [f"img{i:03d}" for i in range(len(rows))]
    return EmbeddingStore(ids=ids, matrix=mat)


def text_enc_stub(v):
    from elip.encoders import TextEncoding

    u = unit(v)
    return TextEncoding(dense=np.zeros((1, 2)), t_cls=u, t_joint=u)


def bench_for(positives_by_query, gallery):
    queries = [BenchmarkQuery(text_tokens=[1], positives=set(p)) for p in positives_by_query]
    return Benchmark(queries=queries, gallery_ids=list(gallery))


def ranking_from_ids(ids, qid="q0000", stage="stage1"):
    entries = [(image_id, float(len(ids) - i)) for i, image_id in enumerate(ids)]
    return ranking_from_entries(query_id=qid, entries=entries, stage=stage)


# ---------------------------------------------------------------------------
# gallery + stage 1
# ---------------------------------------------------------------------------


def test_embed_gallery_matches_encode_image(tiny_model):
    ds = PairDataset(records=make_records(4))
    store = embed_gallery(tiny_model, ds)
    assert len(store.ids) == ds.N
    for i, rec in enumerate(ds.records):
        expected = encode_one(tiny_model, rec.patches).v_joint
        assert np.array_equal(store.matrix[i], expected)
    assert np.abs(np.linalg.norm(store.matrix, axis=1) - 1.0).max() < 1e-6


def test_stage1_orthogonal_gallery():
    store = store_from([[1.0, 0.0], [0.0, 1.0]], ids=["img1", "img2"])
    ranking = stage1_rank(store, text_enc_stub([1.0, 0.0]))
    assert [e[0] for e in ranking.entries] == ["img1", "img2"]
    assert abs(ranking.entries[0][1] - 1.0) < 1e-6
    assert abs(ranking.entries[1][1]) < 1e-6


def test_stage1_matches_bruteforce_sort_oracle():
    rng = Rng(61)
    rows = [rng.gaussian_matrix(1, 8)[0] for _ in range(50)]
    store = store_from(rows)
    q = text_enc_stub(rng.gaussian_matrix(1, 8)[0])
    ranking = stage1_rank(store, q)
    sims = {store.ids[i]: float(np.dot(store.matrix[i], q.t_joint)) for i in range(50)}
    expected = sorted(store.ids, key=lambda image_id: (-sims[image_id], image_id))
    assert [e[0] for e in ranking.entries] == expected
    scores = [e[1] for e in ranking.entries]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_stage1_tie_break_by_id():
    store = store_from([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], ids=["c", "a", "b"])
    ranking = stage1_rank(store, text_enc_stub([1.0, 0.0]))
    assert [e[0] for e in ranking.entries] == ["a", "b", "c"]


def test_stage1_empty_store_is_error():
    with pytest.raises(DataError):
        stage1_rank(EmbeddingStore(ids=[], matrix=np.zeros((0, 2))), text_enc_stub([1, 0]))


def loop_stage1_entries(store, text_enc):
    """The scalar stage 1 the ranking kernel replaced: one np.dot per row,
    then a (-score, id) sort."""
    scored = [
        (store.ids[row], float(np.dot(store.matrix[row], text_enc.t_joint)))
        for row in range(len(store.ids))
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored


def entry_bits(entries):
    """(id, score bytes): unlike ==, tells -0.0 from +0.0."""
    return [(image_id, np.float64(score).tobytes()) for image_id, score in entries]


def tied_gallery(seed, dtype, d=8):
    """Unit rows under shuffled ids of several lengths: random rows, exact
    repeats of some of them, and rows whose products with e0 are all +0.0
    or all -0.0."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((10, d))
    zeros = np.abs(rng.standard_normal((4, d)))
    zeros[:, 0] = 0.0
    zeros[2:] *= -1.0  # first component -0.0, the rest negative
    rows = np.concatenate([base, base[:3], base[5:6], zeros]).astype(dtype)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True).astype(dtype)
    names = ["x", "x1", "x10", "x2", "X", "a", "ab", "b9", "b10", "img"]
    ids = [names[k % len(names)] + "_" * (k // len(names)) for k in rng.permutation(len(rows))]
    return EmbeddingStore(ids=ids, matrix=rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(5))
def test_stage1_equals_scalar_loop_reference(seed, dtype):
    store = tied_gallery(800 + seed, dtype)
    e0 = np.zeros(8, dtype=np.float32)
    e0[0] = 1.0
    rng = np.random.default_rng(900 + seed)
    for t in (e0, unit(rng.standard_normal(8)), unit(store.matrix[seed])):
        text = text_enc_stub(t)
        got = stage1_rank(store, text).entries
        assert all(type(score) is float for _, score in got)
        assert entry_bits(got) == entry_bits(loop_stage1_entries(store, text))


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


def rerank_setup(variant="C", n_override=None):
    dims = TINY if n_override is None else replace(TINY, n=n_override)
    model = init_frozen_model(7, dims, variant, MapperConfig(hidden=8))
    ds = PairDataset(records=make_records(8))
    store = embed_gallery(model, ds)
    text = encode_text(model, [1, 2, 3])
    ranking = stage1_rank(store, text)
    return model, ds, store, text, ranking


def test_rerank_with_zero_prompts_preserves_stage1_order():
    model, ds, store, text, ranking = rerank_setup("C", n_override=0)
    out = rerank(model, ds, ranking, k=5, text_enc=text)
    assert [e[0] for e in out.entries] == [e[0] for e in ranking.entries]
    for (i1, s1), (i2, s2) in zip(out.entries[:5], ranking.entries[:5]):
        assert abs(s1 - s2) < 1e-6
    assert out.stage == "reranked"
    assert out.k_reranked == 5


def test_rerank_k_one_keeps_order():
    model, ds, store, text, ranking = rerank_setup()
    out = rerank(model, ds, ranking, k=1, text_enc=text)
    assert [e[0] for e in out.entries] == [e[0] for e in ranking.entries]


def test_rerank_k_zero_is_noop():
    model, ds, store, text, ranking = rerank_setup()
    assert rerank(model, ds, ranking, k=0, text_enc=text) is ranking


def test_rerank_k_bounds():
    model, ds, store, text, ranking = rerank_setup()
    with pytest.raises(ConfigError):
        rerank(model, ds, ranking, k=9, text_enc=text)


def test_rerank_tail_preserved_after_block():
    model, ds, store, text, ranking = rerank_setup()
    randomize_mapper(model)
    out = rerank(model, ds, ranking, k=3, text_enc=text)
    assert [e for e in out.entries[3:]] == list(ranking.entries[3:])
    assert {e[0] for e in out.entries[:3]} == {e[0] for e in ranking.entries[:3]}
    block_scores = [e[1] for e in out.entries[:3]]
    assert all(a >= b for a, b in zip(block_scores, block_scores[1:]))


def test_rerank_fresh_mapper_equals_explicit_zero_prompts():
    # zero-initialized mapper injects exactly-zero tokens, so re-ranking is
    # determined purely by zero-token-augmented encodings
    model, ds, store, text, ranking = rerank_setup()
    via_mapper = rerank(model, ds, ranking, k=5, text_enc=text)
    zero_prompts = np.zeros((TINY.n, TINY.d_v), dtype=np.float32)
    rescored = []
    for image_id, _ in ranking.entries[:5]:
        enc = encode_one(model, ds.by_id(image_id).patches, zero_prompts)
        rescored.append((image_id, float(np.dot(text.t_joint, enc.v_joint))))
    rescored.sort(key=lambda e: (-e[1], e[0]))
    assert via_mapper.entries[:5] == rescored


def test_rerank_variant_b_adds_itm_logit():
    model, ds, store, text, ranking = rerank_setup("B")
    out = rerank(model, ds, ranking, k=2, text_enc=text)
    from elip.prompt_mapper import prompts_for_text

    prompts = prompts_for_text(model, text)
    by_id = dict(ranking.entries)
    for image_id, score in out.entries[:2]:
        enc = encode_one(model, ds.by_id(image_id).patches, prompts)
        expected = by_id[image_id] + itm_forward(model.itm_head, text.t_cls, enc.patch_states)[0]
        assert abs(score - expected) < 1e-6


def test_rerank_variant_b_sigmoid_flag_bounds_bonus():
    model, ds, store, text, ranking = rerank_setup("B")
    out = rerank(model, ds, ranking, k=3, text_enc=text, itm_sigmoid=True)
    by_id = dict(ranking.entries)
    for image_id, score in out.entries[:3]:
        bonus = score - by_id[image_id]
        assert 0.0 < bonus < 1.0


def loop_rerank_entries(model, ds, ranking, k, text_enc, itm_sigmoid=False):
    """The scalar re-rank the ranking kernel replaced: one np.dot (or ITM
    bonus) per candidate, then a (-score, id) sort of the block."""
    prompts = prompts_for_text(model, text_enc)
    rescored = []
    for image_id, old_score in ranking.entries[:k]:
        enc = encode_one(model, ds.by_id(image_id).patches, prompts)
        if model.variant == "B":
            logit = itm_forward(model.itm_head, text_enc.t_cls, enc.patch_states)[0]
            bonus = float(sigmoid(np.array(logit))) if itm_sigmoid else logit
            new_score = old_score + bonus
        else:
            new_score = float(np.dot(text_enc.t_joint, enc.v_joint))
        rescored.append((image_id, new_score))
    rescored.sort(key=lambda e: (-e[1], e[0]))
    return rescored + list(ranking.entries[k:])


@pytest.mark.parametrize("variant,itm_sigmoid", [("C", False), ("S", False), ("B", False), ("B", True)])
def test_rerank_equals_scalar_loop_reference(variant, itm_sigmoid):
    """Repeated images under shuffled ids tie in every re-score, up to B's
    full-scale depth (one stacked ITM-head call over 20 candidates)."""
    model = randomize_mapper(init_frozen_model(7, TINY, variant, MapperConfig(hidden=8)))
    base = make_records(9)
    picks = [3, 0, 3, 1, 0, 2, 4, 3, 1, 0, 5, 8, 6, 2, 7, 5, 8, 0, 6, 4, 7, 1, 2]
    records = [replace(base[k], id=f"r{j}") for j, k in enumerate(picks)]
    ds = PairDataset(records=records)
    store = embed_gallery(model, ds)
    for tokens in ([1, 2, 3], [4, 0, 0], [7, 7, 1]):
        text = encode_text(model, tokens)
        ranking = stage1_rank(store, text)
        for k in (1, 4, FULL_SCALE_K["B"]["standard"], len(records)):
            got = rerank(model, ds, ranking, k, text, itm_sigmoid).entries
            assert entry_bits(got) == entry_bits(
                loop_rerank_entries(model, ds, ranking, k, text, itm_sigmoid)
            )


def test_full_scale_k_table_echoes_configuration():
    assert FULL_SCALE_K["C"]["standard"] == 100
    assert FULL_SCALE_K["C"]["occluded"] == 500
    assert FULL_SCALE_K["C"]["imagenet_r"] == 1000
    assert FULL_SCALE_K["S"]["imagenet_r"] == 200
    assert FULL_SCALE_K["B"]["standard"] == 20
    assert FULL_SCALE_K["B"]["occluded"] == 100


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_recall_examples():
    gallery = [f"g{i}" for i in range(15)]
    ranking = ranking_from_ids(gallery)
    bench = bench_for([{"g6"}], gallery)  # positive at rank 7
    assert recall_at_k([ranking], bench, 5) == 0.0
    assert recall_at_k([ranking], bench, 10) == 1.0
    bench2 = bench_for([{"g1", "g11"}], gallery)  # ranks 2 and 12
    assert recall_at_k([ranking], bench2, 10) == 0.5


def test_map_hand_example():
    gallery = [f"g{i}" for i in range(5)]
    ranking = ranking_from_ids(gallery)
    bench = bench_for([{"g0", "g2"}], gallery)  # positives at ranks 1 and 3
    assert abs(mean_average_precision([ranking], bench) - (1.0 + 2.0 / 3.0) / 2.0) < 1e-9
    assert abs(mean_average_precision([ranking], bench) - 0.833333) < 1e-6


def test_map_all_positives_first():
    gallery = [f"g{i}" for i in range(6)]
    ranking = ranking_from_ids(gallery)
    bench = bench_for([{"g0", "g1", "g2"}], gallery)
    assert mean_average_precision([ranking], bench) == 1.0


def oracle_recall(entries, positives, k):
    top = [image_id for image_id, _ in entries[:k]]
    found = sum(1 for p in positives if p in top)
    return found / len(positives)


def oracle_ap(entries, positives):
    precisions = []
    for rank in range(1, len(entries) + 1):
        if entries[rank - 1][0] in positives:
            hits = sum(1 for e in entries[:rank] if e[0] in positives)
            precisions.append(hits / rank)
    return sum(precisions) / len(positives)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 6))
def test_metrics_match_bruteforce_oracles(seed, g, n_pos):
    rng = Rng(seed)
    n_pos = min(n_pos, g)
    gallery = [f"g{i:02d}" for i in range(g)]
    order = rng.sample_without_replacement(g, g)
    entries = [(gallery[j], float(g - idx)) for idx, j in enumerate(order)]
    ranking = ranking_from_entries(query_id=query_id(0), entries=entries, stage="stage1")
    positives = {gallery[j] for j in rng.sample_without_replacement(g, n_pos)}
    bench = bench_for([positives], gallery)
    k = 1 + rng.next_u64() % g
    assert recall_at_k([ranking], bench, k) == oracle_recall(entries, positives, k)
    assert abs(mean_average_precision([ranking], bench) - oracle_ap(entries, positives)) < 1e-12


def test_metric_identities():
    gallery = [f"g{i}" for i in range(12)]
    rng = Rng(62)
    order = rng.sample_without_replacement(12, 12)
    ranking = ranking_from_entries(
        query_id=query_id(0),
        entries=[(gallery[j], float(12 - i)) for i, j in enumerate(order)],
        stage="stage1",
    )
    bench = bench_for([{"g3", "g7", "g11"}], gallery)
    assert recall_at_k([ranking], bench, 12) == 1.0
    value = mean_average_precision([ranking], bench)
    assert 0.0 <= value <= 1.0


def test_evaluate_aggregate_is_mean():
    gallery = [f"g{i}" for i in range(8)]
    rng = Rng(63)
    rankings, positives = [], []
    for q in range(3):
        order = rng.sample_without_replacement(8, 8)
        rankings.append(ranking_from_entries(
            query_id=query_id(q),
            entries=[(gallery[j], float(8 - i)) for i, j in enumerate(order)],
            stage="stage1",
        ))
        positives.append({gallery[order[q]], gallery[order[(q + 3) % 8]]})
    bench = bench_for(positives, gallery)
    report = evaluate(rankings, bench)
    assert report.query_count == 3
    for name, agg in report.aggregate.items():
        per = [row[name] for row in report.per_query.values()]
        assert abs(agg - float(np.mean(per))) < 1e-9


def test_missing_query_is_data_error():
    gallery = ["g0", "g1"]
    bench = bench_for([{"g0"}, {"g1"}], gallery)
    ranking = ranking_from_ids(gallery, qid=query_id(0))
    with pytest.raises(DataError):
        recall_at_k([ranking], bench, 1)


def test_gallery_permutation_invariance(tiny_model):
    ds = PairDataset(records=make_records(6))
    store = embed_gallery(tiny_model, ds)
    text = encode_text(tiny_model, [1, 2, 3])
    bench = bench_for([{ds.records[2].id}], store.ids)
    base = evaluate([stage1_rank(store, text, query_id(0))], bench)
    perm = [3, 1, 4, 0, 5, 2]
    permuted = EmbeddingStore(
        ids=[store.ids[j] for j in perm], matrix=store.matrix[perm]
    )
    swapped = evaluate([stage1_rank(permuted, text, query_id(0))], bench)
    assert base.aggregate == swapped.aggregate


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_recall_topk_curve_monotone_and_exhaustive():
    gallery = [f"g{i}" for i in range(10)]
    ranking = ranking_from_ids(gallery)
    bench = bench_for([{"g4", "g8"}], gallery)
    data = curve([ranking], bench, "recall_topk", ks=[1, 2, 5, 10])
    ys = [y for _, y in data.points]
    assert all(a <= b for a, b in zip(ys, ys[1:]))
    assert ys[-1] == 1.0


def test_recall_topk_empty_sweep_is_error():
    gallery = ["g0", "g1"]
    bench = bench_for([{"g0"}], gallery)
    with pytest.raises(ConfigError):
        curve([ranking_from_ids(gallery)], bench, "recall_topk", ks=[])


def test_pr_curve_three_item_hand_enumeration():
    gallery = ["a", "b", "c"]
    # ranking: a (pos), b (neg), c (pos)
    ranking = ranking_from_ids(gallery)
    bench = bench_for([{"a", "c"}], gallery)
    data = curve([ranking], bench, "precision_recall")
    by_r = dict(data.points)
    # staircase: cutoff1 -> (recall 1/2, prec 1); cutoff2 -> (1/2, 1/2); cutoff3 -> (1, 2/3)
    assert by_r[0.0] == 1.0
    assert by_r[0.5] == 1.0
    assert abs(by_r[0.55] - 2.0 / 3.0) < 1e-12
    assert abs(by_r[1.0] - 2.0 / 3.0) < 1e-12
    rs = [r for r, _ in data.points]
    assert rs == sorted(rs)


def test_pr_curve_ties_grouped_by_score():
    gallery = ["a", "b", "c", "d"]
    entries = [("a", 2.0), ("b", 1.0), ("c", 1.0), ("d", 0.5)]
    ranking = ranking_from_entries(query_id=query_id(0), entries=entries, stage="stage1")
    bench = bench_for([{"b"}], gallery)
    data = curve([ranking], bench, "precision_recall")
    by_r = dict(data.points)
    # "b" only becomes visible at the threshold that admits both b and c
    assert abs(by_r[1.0] - 1.0 / 3.0) < 1e-12


def reference_pr_points(rankings, bench):
    """The original quadratic precision-recall loop: for every grid point,
    rescan each query's whole staircase."""
    grid = [round(0.05 * i, 2) for i in range(21)]
    by_qid = {r.query_id: r for r in rankings}
    stairs = []
    for i, q in enumerate(bench.queries):
        entries = by_qid[query_id(i)].entries
        stair, hits = [], 0
        for idx, (image_id, score) in enumerate(entries):
            hits += image_id in q.positives
            if idx + 1 == len(entries) or entries[idx + 1][1] != score:
                stair.append((hits / len(q.positives), hits / (idx + 1)))
        stairs.append(stair)
    points = []
    for r in grid:
        per_query = []
        for stair in stairs:
            feasible = [p for rec, p in stair if rec >= r - 1e-12]
            per_query.append(max(feasible) if feasible else 0.0)
        points.append((r, float(np.mean(per_query))))
    return points


def loop_pr_staircase(ranking, positives):
    """The scalar staircase the numpy one replaced."""
    points = []
    hits = 0
    seen = 0
    entries = ranking.entries
    for idx, (image_id, score) in enumerate(entries):
        hits += image_id in positives
        seen += 1
        last_of_group = idx + 1 == len(entries) or entries[idx + 1][1] != score
        if last_of_group:
            points.append((hits / len(positives), hits / seen))
    return points


@pytest.mark.parametrize("seed", range(6))
def test_pr_staircase_equals_scalar_loop_reference(seed):
    """Tied scores (±0.0 among them), empty lists and every positive count."""
    rng = np.random.default_rng(700 + seed)
    for size in (0, 1, 2, 7, 40, 333):
        ids = [f"g{i}" for i in range(size)]
        scores = sorted(rng.choice([1.5, 0.25, 0.0, -0.0, -2.0], size=size).tolist(), reverse=True)
        ranking = ranking_from_entries(query_id="q0000", entries=list(zip(ids, scores)), stage="stage1")
        for n_pos in sorted({1, max(1, size // 3), max(1, size)}):
            positives = set(rng.choice(ids, size=n_pos, replace=False).tolist()) if size else {"x"}
            hits = np.array([image_id in positives for image_id in ranking.ranked_ids()], bool)
            recalls, precisions = _pr_staircase(ranking.scores, hits, len(positives))
            got = list(zip(recalls.tolist(), precisions.tolist()))
            assert got == loop_pr_staircase(ranking, positives)


@pytest.mark.parametrize("seed", range(6))
def test_pr_curve_equals_quadratic_reference(seed):
    """Seeded rankings with tied scores, a single positive, positives at the
    end of the list and lists cut off before their positives; the curve must
    equal the reference exactly."""
    rng = Rng(seed)
    g = 7 + seed * 5
    gallery = [f"g{i:03d}" for i in range(g)]
    rankings, positives_by_query = [], []
    for qi in range(12):
        order = rng.sample_without_replacement(g, g)
        # few distinct scores, so many cutoffs group ties
        scores = sorted((float(rng.next_u64() % 4) for _ in range(g)), reverse=True)
        entries = [(gallery[j], s) for j, s in zip(order, scores)]
        if qi % 3 == 0:
            positives = {entries[int(rng.next_u64() % g)][0]}
        elif qi % 3 == 1:
            positives = {image_id for image_id, _ in entries[-1 - qi % 4:]}
        else:
            n_pos = 1 + int(rng.next_u64() % g)
            positives = {gallery[j] for j in rng.sample_without_replacement(g, n_pos)}
        if qi in (4, 7):
            # cut-off lists: query 4 never retrieves its one positive,
            # query 7 retrieves half of its four
            entries = entries[: -(qi // 3)]
        rankings.append(ranking_from_entries(query_id=query_id(qi), entries=entries, stage="stage1"))
        positives_by_query.append(positives)
    bench = bench_for(positives_by_query, gallery)
    assert curve(rankings, bench, "precision_recall").points == \
        reference_pr_points(rankings, bench)


# ---------------------------------------------------------------------------
# columnar rankings against the per-entry code they replaced
# ---------------------------------------------------------------------------


def oracle_per_query(rankings, bench, ks):
    """Set-based recall@k and the per-entry AP loop, per query."""
    by_qid = {r.query_id: r for r in rankings}
    per_query = {}
    for i, q in enumerate(bench.queries):
        entries = by_qid[query_id(i)].entries
        row = {}
        for k in ks:
            top = {image_id for image_id, _ in entries[:k]}
            row[f"recall@{k}"] = len(top & q.positives) / len(q.positives)
        hits, ap_sum = 0, 0.0
        for rank, (image_id, _) in enumerate(entries, start=1):
            if image_id in q.positives:
                hits += 1
                ap_sum += hits / rank
        row["ap"] = ap_sum / len(q.positives)
        per_query[query_id(i)] = row
    return per_query


def oracle_pr_points(rankings, bench):
    """The precision-recall curve over the fromiter staircase of (id, score)
    entries."""
    by_qid = {r.query_id: r for r in rankings}
    grid = np.array(PR_RECALL_GRID) - 1e-12
    per_query = []
    for i, q in enumerate(bench.queries):
        entries = by_qid[query_id(i)].entries
        count = len(entries)
        is_hit = (image_id in q.positives for image_id, _ in entries)
        hits = np.cumsum(np.fromiter(is_hit, dtype=np.int64, count=count))
        scores = np.fromiter((score for _, score in entries), dtype=np.float64, count=count)
        last_of_group = np.ones(count, dtype=bool)
        last_of_group[:-1] = scores[1:] != scores[:-1]
        hits = hits[last_of_group]
        seen = np.arange(1, count + 1)[last_of_group]
        recalls, precisions = hits / len(q.positives), hits / seen
        best = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
        per_query.append(best[np.searchsorted(recalls, grid)])
    by_point = np.array(per_query).reshape(len(per_query), len(grid)).T.copy()
    return [(r, float(np.mean(row))) for r, row in zip(PR_RECALL_GRID, by_point)]


def oracle_rankings_bytes(rankings):
    """The first-seen-slot writer over (id, score) entries."""
    def pack(values, dtype):
        return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")

    slots, docs = {}, []
    for r in rankings:
        docs.append({
            "query_id": r.query_id,
            "stage": r.stage,
            "k_reranked": r.k_reranked,
            "order": pack([slots.setdefault(image_id, len(slots)) for image_id, _ in r.entries],
                          "<i4"),
            "scores": pack([score for _, score in r.entries], "<f8"),
        })
    doc = {"version": 2, "ids": list(slots), "rankings": docs}
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def float_bits(value):
    """Every float of a nested dict or list as its hex text, so equality is
    bit equality (-0.0 included)."""
    if isinstance(value, dict):
        return {key: float_bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


@st.composite
def tied_rankings(draw):
    """1-6 queries over 1-3 galleries of 2-40 ids drawn from one pool (so
    galleries share ids at different indices), with scores from five values
    (+0.0 and -0.0 among them). A stage-1 list is sorted; a re-ranked one is
    a sorted top-k block over a sorted tail, which may outscore it. Some
    lists stop before the end of their gallery."""
    pool = [f"img{i:02d}" for i in range(48)]
    galleries = [draw(st.permutations(pool))[:draw(st.integers(2, 40))]
                 for _ in range(draw(st.integers(1, 3)))]
    rankings, positives = [], []
    for qi in range(draw(st.integers(1, 6))):
        gallery = draw(st.sampled_from(galleries))
        order = draw(st.permutations(range(len(gallery))))[:draw(st.integers(1, len(gallery)))]
        scores = draw(st.lists(st.sampled_from([1.5, 0.25, 0.0, -0.0, -2.0]),
                               min_size=len(order), max_size=len(order)))
        k = draw(st.integers(0, len(order)))
        stage = "reranked" if k else "stage1"
        scores = sorted(scores[:k], reverse=True) + sorted(scores[k:], reverse=True)
        rankings.append(RankingResult(
            query_id=query_id(qi), gallery=gallery, order=np.array(order),
            scores=np.array(scores, dtype=np.float64), stage=stage, k_reranked=k))
        positives.append(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6)))
    ks = draw(st.lists(st.integers(1, 45), min_size=1, max_size=4))
    return rankings, bench_for(positives, pool), ks


@settings(max_examples=150, deadline=None)
@given(tied_rankings())
def test_columnar_rankings_match_per_entry_oracle(case):
    """evaluate, both curves and write_rankings give the floats and bytes of
    the per-entry code, bit for bit, before and after a file round trip."""
    rankings, bench, ks = case
    expected = oracle_per_query(rankings, bench, ks)
    pr_points = float_bits(oracle_pr_points(rankings, bench))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rankings.json")
        storage.write_rankings(path, rankings)
        with open(path, "rb") as fh:
            assert fh.read() == oracle_rankings_bytes(rankings)
        back = storage.read_rankings(path)
    assert back == rankings
    for ranked in (rankings, back):
        report = evaluate(ranked, bench, ks)
        assert float_bits(report.per_query) == float_bits(expected)
        assert float_bits(curve(ranked, bench, "precision_recall").points) == pr_points
        recall = curve(ranked, bench, "recall_topk", ks).points
        assert float_bits(recall) == float_bits(
            [(float(k), float(np.mean([row[f"recall@{k}"] for row in expected.values()])))
             for k in ks])


@settings(max_examples=150, deadline=None)
@given(tied_rankings())
def test_hit_masks_equal_a_scan_of_the_gallery(case):
    """The masks _hits_by_query sets through one id -> index map per shared
    gallery list equal a membership test of every gallery id, for rankings
    over several galleries, cut short, and positives outside the gallery."""
    rankings, bench, _ = case
    masks = _hits_by_query(rankings, bench)
    assert [(r, q) for r, q, _ in masks] == list(zip(rankings, bench.queries))
    for ranking, q, hits in masks:
        gallery = ranking.gallery
        scan = np.fromiter(map(q.positives.__contains__, gallery), bool, len(gallery))
        assert hits.dtype == bool and hits.tobytes() == scan[ranking.order].tobytes()


# ---------------------------------------------------------------------------
# attention maps
# ---------------------------------------------------------------------------


def test_attention_map_grid_normalized(tiny_model):
    ds = PairDataset(records=make_records(2))
    amap = attention_map(tiny_model, ds.records[0], None, "cls")
    assert amap.weights.shape == (TINY.P,)
    assert np.all(amap.weights >= 0.0)
    assert amap.grid.shape == (2, 2)  # P=4
    assert abs(amap.grid.sum() - 1.0) < 1e-6
    assert 0.0 < amap.patch_mass <= 1.0


def test_attention_map_prompts_change_map(tiny_model):
    model = randomize_mapper(tiny_model)
    ds = PairDataset(records=make_records(2))
    text = encode_text(model, [1, 2, 3])
    bare = attention_map(model, ds.records[0], None, "cls")
    prompted = attention_map(model, ds.records[0], text, "cls")
    assert np.abs(bare.grid - prompted.grid).max() > 1e-9


def test_attention_map_single_patch_grid():
    dims = replace(TINY, P=1)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    rec = make_records(1, dims)[0]
    amap = attention_map(model, rec, None, "cls")
    assert amap.grid.shape == (1, 1)
    assert abs(amap.grid[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("variant", ["C", "B"])
def test_attention_map_cls_row_matches_full_block(monkeypatch, variant):
    """cls mode reads CLS as the last kept row of the final block's (H, R, T)
    attention: with and without prompts, its weights are within float
    tolerance of the CLS row of a final block that keeps every row, and
    that row's patch weights sum to patch_mass."""
    model = randomize_mapper(init_frozen_model(7, TINY, variant, MapperConfig(hidden=8)))
    rec = make_records(1)[0]
    text = encode_text(model, [1, 2, 3])
    maps = [attention_map(model, rec, t, "cls") for t in (None, text)]
    monkeypatch.setattr(encoders, "kept_rows", lambda model: slice(None))
    for text_enc, amap in zip((None, text), maps):
        prompts = None if text_enc is None else prompts_for_text(model, text_enc)
        full = image_forward(model, rec.patches, prompts).attn[-1]
        assert full.shape[1] == full.shape[2] == TINY.P + 1 + (0 if text_enc is None else TINY.n)
        expected = full.mean(axis=0)[TINY.P, : TINY.P]
        assert np.allclose(amap.weights, expected, rtol=1e-5, atol=1e-7)
        assert abs(float(expected.sum()) - amap.patch_mass) < 1e-6


def test_attention_map_itm_query_mode():
    model = init_frozen_model(7, TINY, "B", MapperConfig(hidden=8))
    ds = PairDataset(records=make_records(2))
    amap = attention_map(model, ds.records[0], None, "itm_query")
    assert abs(amap.grid.sum() - 1.0) < 1e-6


def test_attention_map_itm_query_needs_variant_b(tiny_model):
    ds = PairDataset(records=make_records(1))
    with pytest.raises(ConfigError):
        attention_map(tiny_model, ds.records[0], None, "itm_query")


# ---------------------------------------------------------------------------
# FLOPs estimator
# ---------------------------------------------------------------------------

HAND_DIMS = DimsConfig(
    d_t=6, d_v=8, d_e=8, P=4, m=3, L_t=1, L_v=1, H=1, n=3,
    insert_layer=0, d_in=6, vocab=16,
)


def hand_count(n):
    """Independent term-by-term count for HAND_DIMS under the convention."""
    d, tq, hidden = 8, 5, 32
    tkv = tq + n
    total = 2 * 4 * 6 * d  # patch embed
    total += 5 * tkv * d  # LN before attention
    total += 2 * tq * d * d  # Q
    total += 2 * 2 * tkv * d * d  # K, V
    total += 2 * tq * tkv * d  # QK^T
    total += 5 * 1 * tq * tkv  # softmax (H=1)
    total += 2 * tq * tkv * d  # AV
    total += 2 * tq * d * d  # O
    total += 5 * tq * d  # LN before MLP
    total += 2 * tq * d * 4 * d  # MLP expand
    total += 5 * tq * 4 * d  # GELU
    total += 2 * tq * 4 * d * d  # MLP contract
    total += 5 * tq * d  # final LN
    total += 2 * d * 8  # projection (d_e=8)
    if n > 0:
        total += 2 * 6 * hidden + 5 * hidden  # mapper l1 + GELU
        total += 2 * hidden * hidden + 5 * hidden  # mapper l2 + GELU
        total += 2 * hidden * n * d  # mapper l3
    return total


def test_flops_zero_prompts_equals_baseline():
    dims = replace(HAND_DIMS, n=0)
    assert estimate_flops(dims, True, 32) == estimate_flops(dims, False, 32)
    with_n = estimate_flops(HAND_DIMS, False, 32)
    assert with_n == estimate_flops(replace(HAND_DIMS, n=0), True, 32)


def test_flops_matches_hand_count():
    assert estimate_flops(HAND_DIMS, True, 32) == hand_count(3)
    assert estimate_flops(HAND_DIMS, False, 32) == hand_count(0)


def test_flops_delta_affine_with_predicted_slope():
    base = estimate_flops(replace(HAND_DIMS, n=0), False, 32)
    slope = prompt_flops_slope(HAND_DIMS, 32)
    deltas = {}
    for n in (1, 2, 5, 10):
        deltas[n] = estimate_flops(replace(HAND_DIMS, n=n), True, 32) - base
    # strictly increasing
    values = [deltas[n] for n in (1, 2, 5, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # exactly affine for n >= 1 with the analytic slope
    intercept = deltas[1] - slope
    for n in (1, 2, 5, 10):
        assert deltas[n] == intercept + slope * n


def test_flops_insert_layer_scales_prompted_layers():
    dims2 = replace(HAND_DIMS, L_v=2, insert_layer=1)
    dims2_all = replace(HAND_DIMS, L_v=2, insert_layer=0)
    base = estimate_flops(replace(dims2, n=0), False, 32)
    late = estimate_flops(dims2, True, 32) - base
    early = estimate_flops(dims2_all, True, 32) - base
    assert early > late > 0
