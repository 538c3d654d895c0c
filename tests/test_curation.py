import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elip.curation as curation
from elip.curation import (
    Benchmark,
    CurationPlan,
    PairDataset,
    PairRecord,
    SynthSpec,
    build_occluded_benchmark,
    build_vocab,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
    tokenize,
)
from elip.errors import ConfigError, DataError
from elip.rng import Rng

from conftest import make_records


def unit_rows(mat):
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def toy_dataset(n, with_categories=False, seed=50):
    return PairDataset(records=make_records(n, seed=seed, with_categories=with_categories))


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------


def test_mine_hand_example():
    text = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    images = unit_rows(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]))
    ds = toy_dataset(3)
    plan = mine_hard_batches(ds, (text, images), B=2)
    assert plan.batches[0] == [0, 1]


def test_mine_full_batch_order_is_reference_then_descending():
    rng = Rng(51)
    n = 5
    text = unit_rows(rng.gaussian_matrix(n, 4))
    images = unit_rows(rng.gaussian_matrix(n, 4))
    ds = toy_dataset(n)
    plan = mine_hard_batches(ds, (text, images), B=n)
    for i, batch in enumerate(plan.batches):
        assert batch[0] == i
        assert sorted(batch) == list(range(n))
        sims = images @ text[i]
        rest = batch[1:]
        keyed = [(-float(sims[j]), j) for j in rest]
        assert keyed == sorted(keyed)


def test_mine_rejects_bad_batch_size():
    ds = toy_dataset(3)
    emb = (np.eye(3), np.eye(3))
    with pytest.raises(ConfigError):
        mine_hard_batches(ds, emb, B=4)
    with pytest.raises(ConfigError):
        mine_hard_batches(ds, emb, B=0)
    with pytest.raises(ConfigError, match=r"B=1 must lie in \[2, N=3\]"):
        mine_hard_batches(ds, emb, B=1)  # no plan reader accepts a batch of one


def test_mine_unique_category_skips_and_errors():
    ds = toy_dataset(6, with_categories=True)  # categories cat0..cat2 cycling
    rng = Rng(52)
    text = unit_rows(rng.gaussian_matrix(6, 4))
    images = unit_rows(rng.gaussian_matrix(6, 4))
    plan = mine_hard_batches(ds, (text, images), B=3, unique_category=True)
    for batch in plan.batches:
        cats = [next(iter(ds.records[j].categories)) for j in batch]
        assert len(set(cats)) == len(cats)
    # only 3 distinct categories exist, so B=4 cannot be filled
    with pytest.raises(DataError, match="category-unique"):
        mine_hard_batches(ds, (text, images), B=4, unique_category=True)


def oracle_mine(text_mat, image_mat, B):
    """Independent O(N^2) selection-by-scan implementation."""
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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(2, 8))
def test_mine_matches_bruteforce_oracle(seed, n, b):
    b = min(b, n)
    rng = Rng(seed)
    text = unit_rows(rng.gaussian_matrix(n, 3))
    images = unit_rows(rng.gaussian_matrix(n, 3))
    ds = toy_dataset(n)
    plan = mine_hard_batches(ds, (text, images), B=b)
    assert plan.batches == oracle_mine(text, images, b)


def loop_mine(ds, text_mat, image_mat, B, unique_category=False):
    """The scalar mining loop the ranking kernel replaced: one np.dot per
    (reference, image) and a (-score, index) sort per reference."""
    n = ds.N
    batches = []
    for i in range(n):
        sims = [float(np.dot(image_mat[j], text_mat[i])) for j in range(n)]
        order = sorted(range(n), key=lambda j: (-sims[j], j))
        selected = [i]
        used = set(ds.records[i].categories) if unique_category else None
        for j in order:
            if len(selected) == B:
                break
            if j == i:
                continue
            if unique_category:
                cats = ds.records[j].categories
                if cats & used:
                    continue
                used |= cats
            selected.append(j)
        batches.append(selected)
    return batches


@pytest.mark.parametrize("text_dtype,image_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32),
])
@pytest.mark.parametrize("seed", range(4))
def test_mine_equals_scalar_loop_reference(seed, text_dtype, image_dtype):
    """Repeated image rows tie; rows orthogonal to a text score +0.0 or
    -0.0 products against it."""
    rng = np.random.default_rng(600 + seed)
    n, d = 24, 8
    images = rng.standard_normal((n, d))
    images[10:14] = images[2]
    images[14:16, 0] = 0.0
    images[16:18, 0] = -0.0
    images[16:18, 1:] = -np.abs(images[16:18, 1:])
    text = rng.standard_normal((n, d))
    text[:6, 1:] = 0.0  # these texts see only column 0
    text, images = unit_rows(text).astype(text_dtype), unit_rows(images).astype(image_dtype)
    ds = toy_dataset(n, with_categories=True)
    for b in (2, 3, 7, n):
        plan = mine_hard_batches(ds, (text, images), B=b)
        assert plan.batches == loop_mine(ds, text, images, b)
    plan = mine_hard_batches(ds, (text, images), B=3, unique_category=True)
    assert plan.batches == loop_mine(ds, text, images, 3, unique_category=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,d", [(27, 32), (13, 24), (9, 8)])
def test_mine_repeated_rows_tie_exactly(n, d, dtype):
    """Three image rows, each repeated: every repeat must score the same
    bits, so ties fall to the lowest index. (A GEMV scores some repeats of
    one row differently, depending on where they sit in the matrix.)"""
    rng = np.random.default_rng(n + d)
    images = unit_rows(rng.standard_normal((3, d)))[np.arange(n) % 3].astype(dtype)
    text = unit_rows(rng.standard_normal((n, d))).astype(dtype)
    ds = toy_dataset(n)
    plan = mine_hard_batches(ds, (text, images), B=n)
    assert plan.batches == loop_mine(ds, text, images, n)


def test_mine_with_duplicate_embeddings_breaks_ties_by_index():
    text = unit_rows(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    images = unit_rows(np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]))
    ds = toy_dataset(3)
    plan = mine_hard_batches(ds, (text, images), B=3)
    assert plan.batches[0] == [0, 1, 2]
    assert plan.batches[1] == [1, 0, 2]
    assert plan.batches[2] == [2, 0, 1]


# ---------------------------------------------------------------------------
# learnability selection
# ---------------------------------------------------------------------------


def fake_losses(monkeypatch, learner_losses, reference_losses, learner, reference):
    calls = {"i": 0}
    order = []

    def fake(model, records, conditioning="per_row", pair_table=None):
        batch_idx = calls["i"] // 2
        is_learner = calls["i"] % 2 == 0
        calls["i"] += 1
        order.append(batch_idx)
        return learner_losses[batch_idx] if is_learner else reference_losses[batch_idx]

    monkeypatch.setattr(curation, "variant_batch_loss", fake)


def test_select_hand_example(monkeypatch, tiny_model):
    ds = toy_dataset(6)
    plan = CurationPlan(batches=[[0, 1], [2, 3], [4, 5]])
    fake_losses(monkeypatch, [2.0, 1.0, 3.0], [1.0, 1.0, 1.0], tiny_model, tiny_model)
    selected = select_by_learnability(plan, ds, tiny_model, tiny_model, fraction=1 / 3)
    assert selected.batches == [[4, 5]]
    assert selected.learnability == [2.0]


def test_select_fraction_one_is_identity(monkeypatch, tiny_model):
    ds = toy_dataset(6)
    plan = CurationPlan(batches=[[0, 1], [2, 3], [4, 5]])
    fake_losses(monkeypatch, [1.0, 5.0, 3.0], [0.0, 0.0, 0.0], tiny_model, tiny_model)
    selected = select_by_learnability(plan, ds, tiny_model, tiny_model, fraction=1.0)
    assert selected.batches == plan.batches


def test_select_equal_models_ties_by_index(tiny_model):
    ds = toy_dataset(6)
    plan = CurationPlan(batches=[[0, 1], [2, 3], [4, 5]])
    selected = select_by_learnability(plan, ds, tiny_model, tiny_model, fraction=2 / 3)
    assert selected.batches == [[0, 1], [2, 3]]
    assert selected.learnability == [0.0, 0.0]


def test_select_preserves_relative_order(monkeypatch, tiny_model):
    ds = toy_dataset(8)
    plan = CurationPlan(batches=[[0, 1], [2, 3], [4, 5], [6, 7]])
    fake_losses(monkeypatch, [1.0, 9.0, 2.0, 8.0], [0.0] * 4, tiny_model, tiny_model)
    selected = select_by_learnability(plan, ds, tiny_model, tiny_model, fraction=0.5)
    assert selected.batches == [[2, 3], [6, 7]]  # original order among the top-2


def oracle_select(losses, fraction):
    import math

    count = math.ceil(fraction * len(losses))
    ranked = sorted(range(len(losses)), key=lambda k: (-losses[k], k))[:count]
    return sorted(ranked)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_select_matches_sort_oracle(seed, nb):
    rng = Rng(seed)
    learner_losses = [round(rng.uniform() * 4, 2) for _ in range(nb)]
    reference_losses = [round(rng.uniform() * 4, 2) for _ in range(nb)]
    diffs = [l - r for l, r in zip(learner_losses, reference_losses)]
    fraction = max(rng.uniform(), 0.05)

    class _Fake:
        pass

    ds = toy_dataset(2 * nb)
    plan = CurationPlan(batches=[[2 * i, 2 * i + 1] for i in range(nb)])
    state = {"i": 0}

    def fake(model, records, conditioning="per_row", pair_table=None):
        idx = state["i"] // 2
        is_learner = state["i"] % 2 == 0
        state["i"] += 1
        return learner_losses[idx] if is_learner else reference_losses[idx]

    orig = curation.variant_batch_loss
    curation.variant_batch_loss = fake
    try:
        selected = select_by_learnability(plan, ds, _Fake(), _Fake(), fraction)
    finally:
        curation.variant_batch_loss = orig
    expected = oracle_select(diffs, fraction)
    assert selected.batches == [plan.batches[k] for k in expected]


def test_select_empty_plan_is_error(tiny_model):
    with pytest.raises(DataError):
        select_by_learnability(
            CurationPlan(batches=[]), toy_dataset(2), tiny_model, tiny_model, 0.5
        )


# ---------------------------------------------------------------------------
# occluded benchmark
# ---------------------------------------------------------------------------


def rec(rec_id, cats, occ):
    return PairRecord(
        id=rec_id, patches=np.zeros((2, 2), dtype=np.float32), tokens=[1],
        caption=rec_id, categories=set(cats), occluded_categories=set(occ),
    )


def test_occluded_three_way_partition():
    ds = PairDataset(records=[
        rec("A", {"bicycle"}, {"bicycle"}),
        rec("B", {"bicycle"}, set()),
        rec("C", {"dog"}, set()),
    ])
    bench, dropped = build_occluded_benchmark(ds, {"bicycle": [5], "dog": [6]})
    assert len(bench.queries) == 1
    q = bench.queries[0]
    assert q.text_tokens == [5]
    assert q.positives == {"A"}
    # B stays in the gallery without being a positive
    assert set(bench.gallery_ids) == {"A", "B", "C"}
    assert dropped == ["dog"]


def test_occluded_no_annotations_empty_benchmark():
    ds = PairDataset(records=[rec("A", set(), set()), rec("B", set(), set())])
    bench, dropped = build_occluded_benchmark(ds, {"bicycle": [5]})
    assert bench.queries == []
    assert dropped == ["bicycle"]


def test_occluded_positive_sets_subset_of_category():
    ds = PairDataset(records=[
        rec("A", {"cat", "dog"}, {"cat"}),
        rec("B", {"cat"}, {"cat"}),
        rec("C", {"dog"}, {"dog"}),
        rec("D", set(), set()),
    ])
    bench, dropped = build_occluded_benchmark(ds, {"cat": [1], "dog": [2]})
    by_tokens = {tuple(q.text_tokens): q.positives for q in bench.queries}
    assert by_tokens[(1,)] == {"A", "B"}
    assert by_tokens[(2,)] == {"C"}
    assert dropped == []
    for q in bench.queries:
        negatives = set(bench.gallery_ids) - q.positives
        assert not (q.positives & negatives)


def test_category_tokens_round_trip_through_vocab():
    vocab = build_vocab(clusters=3, signals=2)
    word = "thing01"
    ids = tokenize(vocab, word)
    assert ids == [vocab[word]]
    back = {v: k for k, v in vocab.items()}
    assert back[ids[0]] == word


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_same_seed_bitwise_identical():
    a_ds, a_bench = gen_synthetic_dataset(7, SynthSpec(N=24, clusters=4))
    b_ds, b_bench = gen_synthetic_dataset(7, SynthSpec(N=24, clusters=4))
    for ra, rb in zip(a_ds.records, b_ds.records):
        assert ra.id == rb.id
        assert np.array_equal(ra.patches, rb.patches)
        assert ra.tokens == rb.tokens
        assert ra.categories == rb.categories
        assert ra.occluded_categories == rb.occluded_categories
    assert [q.positives for q in a_bench.queries] == [q.positives for q in b_bench.queries]
    c_ds, _ = gen_synthetic_dataset(8, SynthSpec(N=24, clusters=4))
    assert not np.array_equal(a_ds.records[0].patches, c_ds.records[0].patches)


def test_synth_default_scale_counts():
    ds, bench = gen_synthetic_dataset(7, SynthSpec(N=200, clusters=20))
    assert ds.N == 200
    assert len({r.id for r in ds.records}) == 200
    assert len(bench.queries) == 200
    assert all(len(q.positives) == 1 for q in bench.queries)


def test_synth_cluster_structure_visible_to_designated_region():
    spec = SynthSpec(N=24, clusters=4)
    ds, _ = gen_synthetic_dataset(7, spec)
    sig_rows, sig_cols = spec.P // 4, spec.d_in // 3
    # within a cluster, the non-signal patch block is near-identical
    same = [r for r in ds.records if "thing00" in r.categories]
    base_block = same[0].patches[: spec.P - sig_rows]
    for r in same[1:]:
        assert np.abs(r.patches[: spec.P - sig_rows] - base_block).max() < 0.5
    # records sharing a signal share the designated block up to noise
    s0 = [r for r in ds.records if r.tokens[1] == ds.records[0].tokens[1]]
    blk0 = s0[0].patches[spec.P - sig_rows :, spec.d_in - sig_cols :]
    blk1 = s0[1].patches[spec.P - sig_rows :, spec.d_in - sig_cols :]
    assert np.abs(blk0 - blk1).max() < 0.5


def test_synth_rejects_degenerate_spec():
    with pytest.raises(ConfigError):
        gen_synthetic_dataset(7, SynthSpec(N=3, clusters=4))
    with pytest.raises(ConfigError):
        gen_synthetic_dataset(7, SynthSpec(N=10, clusters=1))


def test_tokenize_unknown_word_and_padding():
    vocab = build_vocab(2, 2)
    with pytest.raises(DataError):
        tokenize(vocab, "missing")
    assert tokenize(vocab, "thing00", m=4) == [vocab["thing00"], 0, 0, 0]
