"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. A3 re-runs the frozen pilot (500 training steps on the planted
dataset) and takes the bulk of the runtime.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from elip.cli import run_command
from elip.config import DimsConfig, MapperConfig, TrainConfig
from elip.curation import (
    Benchmark,
    BenchmarkQuery,
    CurationPlan,
    PairDataset,
    SynthSpec,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from elip.encoders import (
    bundles_equal,
    encode_text,
    frozen_bytes,
    image_forward,
    init_frozen_model,
)
from elip.objectives import (
    ScoreMatrix,
    bce,
    info_nce,
    sigmoid_pairwise,
    variant_batch_loss,
)
from elip.retrieval import (
    embed_gallery,
    encode_queries,
    estimate_flops,
    mean_average_precision,
    rank_queries,
    recall_at_k,
    rerank,
    rerank_queries,
    stage1_rank,
)
from elip.rng import Rng
from elip.trainer import train

from conftest import TINY, make_records, randomize_mapper, ranking_from_entries
from oracles import grad_check, layer_norm_param_grads, prompt_flops_slope

# Frozen by the pilot run (seed 7, defaults): stage-1 R@1 was 0.010 and the
# re-ranked R@1 was 0.150; the margin keeps headroom for BLAS variation.
A3_MIN_R1_MARGIN = 0.08
A3_BATCH = 12
A3_LR = 5e-3
A3_STEPS = 500
A3_RERANK_K = 200


class criterion:
    def __init__(self, name, detail=""):
        self.name = name
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "FAIL" if exc_type else "PASS"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"{self.name} {verdict}{suffix}")
        return False


# ---------------------------------------------------------------------------
# A1  gradient fidelity
# ---------------------------------------------------------------------------


def _chain_error(seed):
    """FD error of d(InfoNCE)/d(mapper params) through the whole pipeline."""
    dims = TINY
    model = init_frozen_model(seed, dims, "C", MapperConfig(hidden=8),
                              dtype=np.float64)
    randomize_mapper(model, seed=seed + 100)
    records = make_records(2, dims, seed=seed + 200)

    mapper = model.mapper

    def f(point):
        saved = dict(mapper.tensors)
        mapper.tensors.update(point)
        grads = {}
        loss = variant_batch_loss(model, records, "per_row", grads)
        mapper.tensors.update(saved)
        return loss, {k.removeprefix("mapper."): v for k, v in grads.items()}

    point = {k: v.copy() for k, v in mapper.tensors.items()}
    return grad_check(f, point, h=1e-6)


def _primitive_errors(seed):
    from elip import numkit

    rng = Rng(seed)
    errs = []

    w_out = rng.gaussian_matrix(3, 4)
    lin = numkit.LayerParams("lin", {
        "weight": rng.gaussian_matrix(4, 5), "bias": rng.gaussian_matrix(1, 4)[0],
    })
    x = rng.gaussian_matrix(3, 5)

    def f_lin(point):
        p = numkit.LayerParams("lin", {"weight": point["weight"], "bias": point["bias"]})
        out, cache = numkit.linear(p, x)
        _, grads = numkit.linear_backward(cache, w_out)
        return float((out * w_out).sum()), grads

    errs.append(grad_check(f_lin, {k: v.copy() for k, v in lin.tensors.items()}, h=1e-5))

    xg = rng.gaussian_matrix(3, 4)

    def f_gelu(point):
        out, cache = numkit.gelu(point["x"])
        return float((out * w_out).sum()), {"x": numkit.gelu_backward(cache, w_out)}

    errs.append(grad_check(f_gelu, {"x": xg.copy()}, h=1e-5))

    ln = numkit.LayerParams("ln", {
        "gamma": 1.0 + 0.1 * rng.gaussian_matrix(1, 4)[0],
        "beta": 0.1 * rng.gaussian_matrix(1, 4)[0],
    })
    xl = rng.gaussian_matrix(3, 4)

    def f_ln(point):
        p = numkit.LayerParams("ln", {"gamma": point["gamma"], "beta": point["beta"]})
        out, cache = numkit.layer_norm(p, xl)
        grads = layer_norm_param_grads(cache, w_out)
        return float((out * w_out).sum()), grads

    errs.append(grad_check(f_ln, {k: v.copy() for k, v in ln.tensors.items()}, h=1e-5))

    xs = rng.gaussian_matrix(3, 4)

    def f_sm(point):
        out, cache = numkit.softmax_rows(point["x"])
        return float((out * w_out).sum()), {"x": numkit.softmax_rows_backward(cache, w_out)}

    errs.append(grad_check(f_sm, {"x": xs.copy()}, h=1e-5))
    return max(errs)


def test_a1_gradient_fidelity():
    start = time.time()
    worst_prim, worst_chain = 0.0, 0.0
    for seed in range(5):
        worst_prim = max(worst_prim, _primitive_errors(300 + seed))
        worst_chain = max(worst_chain, _chain_error(400 + seed))
    elapsed = time.time() - start
    with criterion("A1", f"primitives {worst_prim:.2e}, chain {worst_chain:.2e}, {elapsed:.1f}s"):
        assert worst_prim < 1e-4
        assert worst_chain < 1e-4
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# A2  no-op equivalence at n = 0
# ---------------------------------------------------------------------------


def test_a2_noop_equivalence():
    dims = replace(TINY, n=0)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    ds = PairDataset(records=make_records(30, dims, seed=500))
    store = embed_gallery(model, ds)
    # fresh records hold no frozen encode, so the re-rank runs the encoder
    # instead of reading back the one embed_gallery just kept
    fresh = PairDataset(records=[replace(rec) for rec in ds.records])
    rng = Rng(77)
    mismatches = 0
    for q in range(100):
        tokens = [1 + rng.next_u64() % (dims.vocab - 1) for _ in range(dims.m)]
        text = encode_text(model, tokens)
        ranking = stage1_rank(store, text, f"q{q:04d}")
        reranked = rerank(model, fresh, ranking, k=10, text_enc=text)
        if [e[0] for e in reranked.entries] != [e[0] for e in ranking.entries]:
            mismatches += 1
    with criterion("A2", f"{100 - mismatches}/100 query orderings identical"):
        assert mismatches == 0


# ---------------------------------------------------------------------------
# A3  planted-data learning (frozen pilot)
# ---------------------------------------------------------------------------


def test_a3_planted_data_learning():
    start = time.time()
    ds, bench = gen_synthetic_dataset(7, SynthSpec())
    model = init_frozen_model(7, DimsConfig(), "C")
    plan = mine_hard_batches(ds, model, A3_BATCH)
    store = embed_gallery(model, ds)
    queries = encode_queries(model, bench)  # training leaves the text encoder frozen
    stage1 = rank_queries(store, queries)
    r1_stage1 = recall_at_k(stage1, bench, 1)

    cfg = TrainConfig(variant="C", steps=A3_STEPS, conditioning="per_row",
                      lr=A3_LR, seed=7)
    model, trace = train(model, ds, plan, cfg)
    first = float(np.mean(trace[:50]))
    last = float(np.mean(trace[-50:]))

    reranked = rerank_queries(model, ds, stage1, queries, A3_RERANK_K)
    r1_reranked = recall_at_k(reranked, bench, 1)
    elapsed = time.time() - start
    with criterion(
        "A3",
        f"loss {first:.3f}->{last:.3f} (ratio {last / first:.3f}), "
        f"R@1 {r1_stage1:.3f}->{r1_reranked:.3f}, {elapsed:.0f}s",
    ):
        assert last <= 0.5 * first
        assert r1_stage1 < 1.0
        assert r1_reranked >= r1_stage1 + A3_MIN_R1_MARGIN
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# A4  oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_mine(text_mat, image_mat, B):
    n = text_mat.shape[0]
    batches = []
    for i in range(n):
        sims = [float(np.dot(image_mat[j], text_mat[i])) for j in range(n)]
        chosen = [i]
        remaining = [j for j in range(n) if j != i]
        while len(chosen) < B:
            best = remaining[0]
            for j in remaining[1:]:
                if sims[j] > sims[best] or (sims[j] == sims[best] and j < best):
                    best = j
            chosen.append(best)
            remaining.remove(best)
        batches.append(chosen)
    return batches


def _oracle_recall(entries, positives, k):
    top = [image_id for image_id, _ in entries[:k]]
    return sum(1 for p in positives if p in top) / len(positives)


def _oracle_ap(entries, positives):
    precisions = []
    hits = 0
    for rank, (image_id, _) in enumerate(entries, start=1):
        if image_id in positives:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(positives)


def test_a4_oracle_equivalence():
    mining_ok = 0
    for seed in range(20):
        rng = Rng(1000 + seed)
        n = 2 + rng.next_u64() % 63  # N <= 64
        b = 2 + rng.next_u64() % min(n - 1, 8)
        text = rng.gaussian_matrix(n, 4)
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        images = rng.gaussian_matrix(n, 4)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        ds = PairDataset(records=make_records(n, seed=seed))
        plan = mine_hard_batches(ds, (text, images), B=b)
        assert plan.batches == _oracle_mine(text, images, b)
        mining_ok += 1

    # learnability selection vs an independent sort oracle, ties included
    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    learner = randomize_mapper(
        init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    )
    ds = PairDataset(records=make_records(12))
    plan = CurationPlan(batches=[[i, (i + 1) % 12] for i in range(12)])
    selected = select_by_learnability(plan, ds, learner, model, fraction=0.25)
    diffs = [
        variant_batch_loss(learner, [ds.records[i] for i in batch])
        - variant_batch_loss(model, [ds.records[i] for i in batch])
        for batch in plan.batches
    ]
    count = math.ceil(0.25 * len(plan.batches))
    expected = sorted(sorted(range(len(diffs)), key=lambda k: (-diffs[k], k))[:count])
    assert selected.batches == [plan.batches[k] for k in expected]
    # exact-tie case: identical models -> first ceil(f*n) batches by index
    tied = select_by_learnability(plan, ds, model, model, fraction=0.25)
    assert tied.batches == plan.batches[:count]
    assert all(v == 0.0 for v in tied.learnability)

    metrics_ok = 0
    for seed in range(50):
        rng = Rng(2000 + seed)
        g = 2 + rng.next_u64() % 29  # G <= 30
        gallery = [f"g{i:02d}" for i in range(g)]
        order = rng.sample_without_replacement(g, g)
        entries = [(gallery[j], float(g - i)) for i, j in enumerate(order)]
        ranking = ranking_from_entries(query_id="q0000", entries=entries, stage="stage1")
        n_pos = 1 + rng.next_u64() % g
        positives = {gallery[j] for j in rng.sample_without_replacement(g, n_pos)}
        bench = Benchmark(
            queries=[BenchmarkQuery(text_tokens=[1], positives=positives)],
            gallery_ids=gallery,
        )
        k = 1 + rng.next_u64() % g
        assert recall_at_k([ranking], bench, k) == _oracle_recall(entries, positives, k)
        assert abs(
            mean_average_precision([ranking], bench) - _oracle_ap(entries, positives)
        ) < 1e-12
        metrics_ok += 1

    with criterion("A4", f"mining 20/20, selection+ties ok, metrics {metrics_ok}/50"):
        assert mining_ok == 20 and metrics_ok == 50


# ---------------------------------------------------------------------------
# A5  metric identities
# ---------------------------------------------------------------------------


def test_a5_metric_identities():
    from elip.retrieval import curve

    gallery = [f"g{i}" for i in range(12)]
    rng = Rng(3000)
    order = rng.sample_without_replacement(12, 12)
    ranking = ranking_from_entries(
        query_id="q0000",
        entries=[(gallery[j], float(12 - i)) for i, j in enumerate(order)],
        stage="stage1",
    )
    positives = {"g2", "g5", "g9"}
    bench = Benchmark(
        queries=[BenchmarkQuery(text_tokens=[1], positives=positives)],
        gallery_ids=gallery,
    )
    full_recall = recall_at_k([ranking], bench, 12)
    data = curve([ranking], bench, "recall_topk", ks=[1, 2, 4, 8, 12])
    ys = [y for _, y in data.points]
    map_value = mean_average_precision([ranking], bench)

    hand = ranking_from_entries(
        query_id="q0000",
        entries=[(g, float(5 - i)) for i, g in enumerate(gallery[:5])],
        stage="stage1",
    )
    hand_bench = Benchmark(
        queries=[BenchmarkQuery(text_tokens=[1], positives={"g0", "g2"})],
        gallery_ids=gallery[:5],
    )
    ap_13 = mean_average_precision([hand], hand_bench)

    with criterion("A5", f"R@G={full_recall}, monotone={ys == sorted(ys)}, AP13={ap_13:.6f}"):
        assert full_recall == 1.0
        assert ys == sorted(ys)
        assert 0.0 <= map_value <= 1.0
        assert abs(ap_13 - 0.833333) < 1e-6


# ---------------------------------------------------------------------------
# A6  loss identities
# ---------------------------------------------------------------------------


def test_a6_loss_identities():
    uniform = ScoreMatrix(scores=np.zeros((4, 4)), cosines=np.zeros((4, 4)))
    nce = info_nce(uniform)
    zeros = ScoreMatrix(scores=np.zeros((3, 3)), cosines=np.zeros((3, 3)))
    sig = sigmoid_pairwise(zeros, t_scale=0.0, bias=0.0)
    b = bce(0.0, 1)
    with criterion("A6", f"InfoNCE={nce:.9f}, sigmoid={sig:.9f}, bce={b:.9f}"):
        assert abs(nce - math.log(4)) < 1e-9
        assert abs(sig - math.log(2)) < 1e-9
        assert abs(b - math.log(2)) < 1e-9


# ---------------------------------------------------------------------------
# A7  pipeline determinism
# ---------------------------------------------------------------------------

A7_CONFIG = {
    "seed": 7,
    "dims": {"d_t": 6, "d_v": 8, "d_e": 8, "P": 4, "m": 3, "L_t": 2, "L_v": 2,
             "H": 2, "n": 2, "insert_layer": 0, "d_in": 5, "vocab": 32},
    "mapper": {"input_mode": "cls", "hidden": 8},
}


def _run_pipeline(root, tag, env_seed=None):
    if env_seed is None:
        os.environ.pop("ELIP_SEED", None)
    else:
        os.environ["ELIP_SEED"] = str(env_seed)
    try:
        cfg = os.path.join(root, "config.json")
        if not os.path.exists(cfg):
            with open(cfg, "w") as fh:
                json.dump(A7_CONFIG, fh)
        d = os.path.join(root, tag)

        def p(*parts):
            return os.path.join(d, *parts)

        assert run_command(["gen-synth", "--config", cfg, "--out", p("data"),
                            "--n", "12", "--clusters", "3"]) == 0
        assert run_command(["init-model", "--config", cfg, "--out", p("model")]) == 0
        assert run_command(["embed-gallery", "--config", cfg, "--out", p("gal"),
                            "--model", p("model", "checkpoint"),
                            "--data", p("data", "data.jsonl")]) == 0
        assert run_command(["curate-mine", "--config", cfg, "--out", p("plan"),
                            "--model", p("model", "checkpoint"),
                            "--data", p("data", "data.jsonl"),
                            "--batch-size", "3"]) == 0
        assert run_command(["train", "--config", cfg, "--out", p("trained"),
                            "--model", p("model", "checkpoint"),
                            "--data", p("data", "data.jsonl"),
                            "--plan", p("plan", "plan.json"), "--steps", "3"]) == 0
        assert run_command(["rank", "--config", cfg, "--out", p("ranked"),
                            "--model", p("trained", "checkpoint"),
                            "--gallery", p("gal", "gallery"),
                            "--bench", p("data", "benchmark.json")]) == 0
        assert run_command(["rerank", "--config", cfg, "--out", p("reranked"),
                            "--model", p("trained", "checkpoint"),
                            "--data", p("data", "data.jsonl"),
                            "--bench", p("data", "benchmark.json"),
                            "--rankings", p("ranked", "rankings.json"),
                            "--k", "4"]) == 0
        assert run_command(["eval", "--config", cfg, "--out", p("metrics"),
                            "--rankings", p("reranked", "rankings.json"),
                            "--bench", p("data", "benchmark.json")]) == 0
        return d
    finally:
        os.environ.pop("ELIP_SEED", None)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_a7_determinism(tmp_path, capsys):
    root = str(tmp_path)
    a = _run_pipeline(root, "runA")
    b = _run_pipeline(root, "runB")
    c = _run_pipeline(root, "runC", env_seed=9)
    capsys.readouterr()

    same_metrics = _read(os.path.join(a, "metrics", "metrics.csv")) == _read(
        os.path.join(b, "metrics", "metrics.csv"))
    same_trace = _read(os.path.join(a, "trained", "trace.csv")) == _read(
        os.path.join(b, "trained", "trace.csv"))
    ckpt_a = os.path.join(a, "trained", "checkpoint")
    ckpt_b = os.path.join(b, "trained", "checkpoint")
    same_ckpt = all(
        _read(os.path.join(ckpt_a, name)) == _read(os.path.join(ckpt_b, name))
        for name in sorted(os.listdir(ckpt_a))
    )
    changed = _read(os.path.join(a, "metrics", "metrics.csv")) != _read(
        os.path.join(c, "metrics", "metrics.csv"))
    with criterion("A7", f"identical={same_metrics and same_trace and same_ckpt}, "
                         f"seed-override-changes={changed}"):
        assert same_metrics and same_trace and same_ckpt
        assert changed


# ---------------------------------------------------------------------------
# A8  FLOPs estimator
# ---------------------------------------------------------------------------


def test_a8_flops_estimator():
    dims = replace(TINY, n=0)
    baseline_equal = estimate_flops(dims, True, 8) == estimate_flops(dims, False, 8)
    slope = prompt_flops_slope(TINY, 8)
    base = estimate_flops(replace(TINY, n=0), False, 8)
    deltas = {
        n: estimate_flops(replace(TINY, n=n), True, 8) - base for n in (1, 2, 5, 10)
    }
    intercept = deltas[1] - slope
    affine = all(deltas[n] == intercept + slope * n for n in (1, 2, 5, 10))
    increasing = all(
        deltas[a] < deltas[b] for a, b in ((1, 2), (2, 5), (5, 10))
    )
    with criterion("A8", f"baseline-equal={baseline_equal}, slope={slope}, affine={affine}"):
        assert baseline_equal
        assert affine
        assert increasing
        assert slope > 0


# ---------------------------------------------------------------------------
# A9  ablation toggles
# ---------------------------------------------------------------------------


def test_a9_ablation_toggles():
    ds = PairDataset(records=make_records(6))
    plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5]])

    model_b = init_frozen_model(7, TINY, "B", MapperConfig(hidden=8))
    itm_before = {k: v.copy() for k, v in model_b.itm_head.tensors.items()}
    frozen_before = frozen_bytes(model_b)
    train(model_b, ds, plan, TrainConfig(variant="B", steps=2, seed=7, finetune_itm=False))
    itm_unchanged = all(
        np.array_equal(itm_before[k], model_b.itm_head.tensors[k]) for k in itm_before
    )
    frozen_unchanged = frozen_bytes(model_b) == frozen_before

    cfg_plain = TrainConfig(variant="C", steps=2, seed=7)
    cfg_jest = TrainConfig(variant="C", steps=2, seed=7, jest_fraction=1.0)
    m1, t1 = train(
        init_frozen_model(7, TINY, "C", MapperConfig(hidden=8)), ds, plan, cfg_plain
    )
    m2, t2 = train(
        init_frozen_model(7, TINY, "C", MapperConfig(hidden=8)), ds, plan, cfg_jest
    )
    jest_identity = t1 == t2 and bundles_equal(m1, m2)

    dims_late = replace(TINY, insert_layer=TINY.L_v - 1)
    model_late = init_frozen_model(7, dims_late, "C", MapperConfig(hidden=8))
    rec = make_records(1, dims_late)[0]
    prompts = Rng(88).gaussian_matrix(dims_late.n, dims_late.d_v)
    enc = image_forward(model_late, rec.patches, prompts)
    t_plain = dims_late.P + 1
    late_ok = (
        enc.attn[0].shape[1] == t_plain
        and enc.attn[-1].shape[-1] == t_plain + dims_late.n  # the final block's keys
    )
    bare = image_forward(model_late, rec.patches)
    late_ok = late_ok and np.array_equal(enc.attn[0], bare.attn[0])

    with criterion("A9", f"itm-frozen={itm_unchanged}, jest1.0-identity={jest_identity}, "
                         f"late-fusion={late_ok}"):
        assert itm_unchanged and frozen_unchanged
        assert jest_identity
        assert late_ok
