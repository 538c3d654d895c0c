import hashlib
from dataclasses import replace

import numpy as np
import pytest

from elip.config import MapperConfig, TrainConfig
from elip.curation import CurationPlan, PairDataset, mine_hard_batches
from elip.encoders import bundles_equal, frozen_bytes, init_frozen_model
from elip.errors import ConfigError, NumericError
from elip.trainer import ADAM_BLOCK, OptimizerState, adam_step, clip_global_norm, train

from conftest import TINY, make_records

LATE = TINY.L_v - 1


def fresh_model(variant="C", seed=7, dims=TINY):
    return init_frozen_model(seed, dims, variant, MapperConfig(n=dims.n, hidden=8))


def small_plan(n=6, b=3):
    return CurationPlan(batches=[[i % n, (i + 1) % n, (i + 2) % n] for i in range(n)][: n // b * b])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    tensors = {"w": np.array([1.0, 2.0])}
    state = OptimizerState()
    adam_step(tensors, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(tensors["w"], [1.0, 2.0])
    assert state.step == 1


def test_adam_scalar_first_step():
    tensors = {"w": np.array([0.0])}
    state = OptimizerState()
    adam_step(tensors, {"w": np.array([1.0])}, state, lr=0.1)
    assert abs(tensors["w"][0] + 0.1) < 1e-7  # bias-corrected m_hat = v_hat = 1


def test_adam_identical_runs_identical_trajectories():
    grads_seq = [np.array([0.3, -0.2]), np.array([-0.1, 0.05]), np.array([0.2, 0.2])]

    def run():
        tensors = {"w": np.array([0.5, -0.5])}
        state = OptimizerState()
        for g in grads_seq:
            adam_step(tensors, {"w": g.copy()}, state, lr=0.01)
        return tensors["w"]

    assert np.array_equal(run(), run())


def reference_adam_step(tensors, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place Adam formula that the in-place update replaced."""
    state.step += 1
    t = state.step
    for key, g in grads.items():
        if key not in state.m:
            state.m[key] = np.zeros_like(tensors[key], dtype=np.float64)
            state.v[key] = np.zeros_like(tensors[key], dtype=np.float64)
        g64 = np.asarray(g, dtype=np.float64)
        state.m[key] = beta1 * state.m[key] + (1.0 - beta1) * g64
        state.v[key] = beta2 * state.v[key] + (1.0 - beta2) * g64 * g64
        m_hat = state.m[key] / (1.0 - beta1**t)
        v_hat = state.v[key] / (1.0 - beta2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        tensors[key] -= update.astype(tensors[key].dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_equals_reference_formula(dtype):
    """Over several steps, the moments and the tensors updated in place
    carry the bits of the out-of-place formula, and the moment arrays are
    the same objects from step to step."""
    rng = np.random.default_rng(3)
    # "tall" and "wide" span several ADAM_BLOCK row blocks, the last partial
    shapes = {"w": (4, 3), "b": (3,), "tall": (2 * ADAM_BLOCK + 5,), "wide": (200, 100),
              "empty": (0, 5)}
    start = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
    got, want = ({k: v.copy() for k, v in start.items()} for _ in range(2))
    state, ref_state = OptimizerState(), OptimizerState()
    for step in range(6):
        grads = {k: (rng.standard_normal(shape) * 10.0 ** (step - 3)).astype(dtype)
                 for k, shape in shapes.items()}
        moments = dict(state.m)
        adam_step(got, {k: g.copy() for k, g in grads.items()}, state, lr=1e-2)
        reference_adam_step(want, grads, ref_state, lr=1e-2)
        assert all(state.m[k] is m for k, m in moments.items())
        for k in shapes:
            assert got[k].dtype == dtype and got[k].tobytes() == want[k].tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k
    assert state.step == ref_state.step == 6


def test_adam_rejects_nonfinite_and_aborts():
    tensors = {"w": np.array([1.0])}
    state = OptimizerState()
    with pytest.raises(NumericError):
        adam_step(tensors, {"w": np.array([np.nan])}, state, lr=0.1)
    assert state.step == 0
    assert np.array_equal(tensors["w"], [1.0])


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_global_norm(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(sum(float((g**2).sum()) for g in clipped.values()))
    assert abs(total - 1.0) < 1e-9
    small = {"a": np.array([0.3])}
    same, norm = clip_global_norm(small, 1.0)
    assert same["a"] is small["a"]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_rejects_zero_steps():
    with pytest.raises(ConfigError):
        TrainConfig(variant="C", steps=0).validate()


def test_train_one_step_changes_mapper():
    model = fresh_model()
    ds = PairDataset(records=make_records(6))
    plan = small_plan()
    before = {k: v.copy() for k, v in model.mapper.tensors.items()}
    _, trace = train(model, ds, plan, TrainConfig(variant="C", steps=1, seed=7))
    assert len(trace) == 1
    changed = any(
        not np.array_equal(before[k], model.mapper.tensors[k]) for k in before
    )
    assert changed


def test_train_keeps_frozen_bytes():
    model = fresh_model()
    ds = PairDataset(records=make_records(6))
    before = frozen_bytes(model)
    train(model, ds, small_plan(), TrainConfig(variant="C", steps=3, seed=7))
    assert frozen_bytes(model) == before


def test_train_is_deterministic():
    ds = PairDataset(records=make_records(6))
    plan = small_plan()
    cfg = TrainConfig(variant="C", steps=4, seed=7)
    m1, t1 = train(fresh_model(), ds, plan, cfg)
    m2, t2 = train(fresh_model(), ds, plan, cfg)
    assert t1 == t2
    assert bundles_equal(m1, m2)


def test_train_zero_lr_zero_init_mapper_constant_trace():
    model = fresh_model()
    ds = PairDataset(records=make_records(6))
    plan = CurationPlan(batches=[[0, 1, 2]])
    _, trace = train(model, ds, plan, TrainConfig(variant="C", steps=4, lr=0.0, seed=7))
    assert len(set(trace)) == 1
    m2 = fresh_model()
    _, trace2 = train(m2, ds, plan, TrainConfig(variant="C", steps=4, lr=0.0, seed=7))
    assert trace == trace2
    # with lr=0 nothing moves at all
    assert bundles_equal(model, m2)


def test_train_batch_cycling_matches_plan_order():
    model = fresh_model()
    ds = PairDataset(records=make_records(6))
    plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5]])
    _, trace = train(model, ds, plan, TrainConfig(variant="C", steps=4, lr=0.0, seed=7))
    assert trace[0] == trace[2]
    assert trace[1] == trace[3]


def test_train_requires_batches_of_two():
    model = fresh_model()
    ds = PairDataset(records=make_records(4))
    with pytest.raises(ConfigError):
        train(model, ds, CurationPlan(batches=[[0]]), TrainConfig(variant="C", steps=1))


def test_train_variant_mismatch_rejected():
    model = fresh_model("C")
    ds = PairDataset(records=make_records(4))
    with pytest.raises(ConfigError):
        train(model, ds, small_plan(4), TrainConfig(variant="S", steps=1))


def test_jest_fraction_one_is_identity_selection():
    ds = PairDataset(records=make_records(6))
    plan = small_plan()
    cfg_plain = TrainConfig(variant="C", steps=2, seed=7)
    cfg_jest = TrainConfig(variant="C", steps=2, seed=7, jest_fraction=1.0)
    m1, t1 = train(fresh_model(), ds, plan, cfg_plain)
    m2, t2 = train(fresh_model(), ds, plan, cfg_jest)
    assert t1 == t2
    assert bundles_equal(m1, m2)


def test_subset_fraction_restricts_batches_deterministically():
    ds = PairDataset(records=make_records(6))
    plan = small_plan()
    cfg = TrainConfig(variant="C", steps=3, seed=11, subset_fraction=0.5)
    _, t1 = train(fresh_model(), ds, plan, cfg)
    _, t2 = train(fresh_model(), ds, plan, cfg)
    assert t1 == t2


def test_variant_b_frozen_itm_head_bytes():
    model = fresh_model("B")
    ds = PairDataset(records=make_records(6))
    before = {k: v.copy() for k, v in model.itm_head.tensors.items()}
    mapper_before = {k: v.copy() for k, v in model.mapper.tensors.items()}
    train(model, ds, small_plan(), TrainConfig(variant="B", steps=2, seed=7, finetune_itm=False))
    for k in before:
        assert np.array_equal(before[k], model.itm_head.tensors[k])
    assert any(
        not np.array_equal(mapper_before[k], model.mapper.tensors[k])
        for k in mapper_before
    )


def test_variant_b_finetune_updates_itm_head():
    model = fresh_model("B")
    ds = PairDataset(records=make_records(6))
    before = {k: v.copy() for k, v in model.itm_head.tensors.items()}
    train(model, ds, small_plan(), TrainConfig(variant="B", steps=2, seed=7, finetune_itm=True))
    assert any(
        not np.array_equal(before[k], model.itm_head.tensors[k]) for k in before
    )


def test_variant_s_trains():
    model = fresh_model("S")
    ds = PairDataset(records=make_records(6))
    _, trace = train(model, ds, small_plan(), TrainConfig(variant="S", steps=2, seed=7))
    assert all(np.isfinite(v) for v in trace)


def test_mined_plan_trains_end_to_end():
    model = fresh_model()
    ds = PairDataset(records=make_records(8))
    plan = mine_hard_batches(ds, model, B=3)
    _, trace = train(model, ds, plan, TrainConfig(variant="C", steps=3, seed=7))
    assert len(trace) == 3


def _fd_check_trainable(model, records, conditioning, layers, h=1e-6):
    """Finite-difference check of the batch loss's analytic grads over `layers`."""
    from elip.objectives import variant_batch_loss

    def loss_fn():
        return variant_batch_loss(model, records, conditioning)

    grads = {}
    variant_batch_loss(model, records, conditioning, grads)
    worst = 0.0
    for prefix, layer in layers:
        for key in layer.tensors:
            flat = layer.tensors[key].reshape(-1)
            gflat = np.asarray(grads[f"{prefix}.{key}"]).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss_fn()
                flat[idx] = orig - h
                lm = loss_fn()
                flat[idx] = orig
                numeric = (lp - lm) / (2 * h)
                worst = max(worst, abs(gflat[idx] - numeric) / max(1.0, abs(numeric)))
    return worst


def _small_f64_model(variant):
    from conftest import randomize_mapper

    dims = replace(TINY, L_t=1, L_v=1, P=3, m=2, n=1)
    model = init_frozen_model(
        7, dims, variant, MapperConfig(n=dims.n, hidden=6), dtype=np.float64
    )
    return randomize_mapper(model), dims


def test_variant_s_gradients_finite_difference():
    model, dims = _small_f64_model("S")
    records = make_records(2, dims, seed=91)
    err = _fd_check_trainable(model, records, "per_row", [("mapper", model.mapper)])
    assert err < 1e-4


def test_variant_c_diagonal_gradients_finite_difference():
    model, dims = _small_f64_model("C")
    records = make_records(2, dims, seed=92)
    err = _fd_check_trainable(model, records, "diagonal", [("mapper", model.mapper)])
    assert err < 1e-4


def test_variant_b_gradients_finite_difference():
    model, dims = _small_f64_model("B")
    records = make_records(2, dims, seed=93)
    err = _fd_check_trainable(
        model, records, "per_row", [("mapper", model.mapper), ("itm", model.itm_head)]
    )
    assert err < 1e-4


def test_variant_b_training_separates_pos_from_neg_logits():
    # pinned pilot: 60 steps at lr 3e-3 push the mean pos-neg logit gap
    # from ~0.014 to ~0.59 on the planted tiny dataset
    from elip.curation import SynthSpec, gen_synthetic_dataset
    from elip.encoders import encode_text, image_forward
    from elip.objectives import itm_forward, pick_itm_negatives
    from elip.prompt_mapper import prompts_for_text

    spec = SynthSpec(N=12, clusters=3, P=TINY.P, d_in=TINY.d_in, m=TINY.m)
    ds, _ = gen_synthetic_dataset(7, spec)
    model = fresh_model("B")
    plan = mine_hard_batches(ds, model, 3)

    def separation(m):
        gaps = []
        for batch in plan.batches[:6]:
            records = [ds.records[i] for i in batch]
            texts = [encode_text(m, rec.tokens) for rec in records]
            negatives = pick_itm_negatives(m, records, texts)
            for rec, text, neg in zip(records, texts, negatives):
                prompts = prompts_for_text(m, text)
                pos_logit, neg_logit = (
                    itm_forward(m.itm_head, text.t_cls,
                                image_forward(m, r.patches, prompts).patch_states)[0]
                    for r in (rec, records[neg])
                )
                gaps.append(pos_logit - neg_logit)
        return float(np.mean(gaps))

    before = separation(model)
    model, trace = train(
        model, ds, plan,
        TrainConfig(variant="B", steps=60, seed=7, finetune_itm=True, lr=3e-3),
    )
    after = separation(model)
    assert trace[-1] < trace[0]
    assert after > before
    assert after > 0.2


# ---------------------------------------------------------------------------
# golden digests: the trained bytes of a fixed 2-step run per setting
# ---------------------------------------------------------------------------

# A refactor of the loss path must not move a bit: each setting trains 2
# float32 steps on TINY (the late cases with insert_layer = L_v - 1) and pins
# sha256 of the trainable tensors and of the loss trace. The digests depend
# on the numpy/BLAS build; they were taken with numpy 2.4 and its bundled
# OpenBLAS on x86-64.
GOLDEN = [
    pytest.param(
        dict(variant="C"),
        "119c1729669d869bf216c5fb06b930b2cff3fd8a9317793dfdde45b489f7ab94",
        "dc159a7856b594bf9ce7d0beaf3a8c77e3ebe8a9182d09fc6f984251fb40ba7c",
        id="C-per_row",
    ),
    pytest.param(
        dict(variant="C", conditioning="diagonal"),
        "df9049bc6f0592f1fd8ecf3f282c1f0b4373706af83306b77b87b8fdf1cf3712",
        "c8146517031819921b214c7fffacbce911a84d27c7b8eb82dcd0e1996d117d78",
        id="C-diagonal",
    ),
    pytest.param(
        dict(variant="S"),
        "9fd16d7cff5f57673ea17ad1701830877dccce75847c2d4fc9be7bae3cb81da8",
        "c4f07034ee410bd3c44d148cd4635102703101222c040fe0b3f389e113c36d19",
        id="S-per_row",
    ),
    pytest.param(
        dict(variant="B", finetune_itm=True),
        "5ef64232da8ef4d6d929161f106ece17451d03381732ef6a061f2a09ab37f0cf",
        "de0a7aaef35041e8fcaa24cb437656f7ff74ff67b83cc673218161523377ebc9",
        id="B-finetune",
    ),
    pytest.param(
        dict(variant="B", finetune_itm=False),
        "0ceb348fafe63ff7a443ec06951ec696b6ad83bbb5defb3498cec5e02e5cd1b1",
        "3593021516bbcde14076fb069474fdd3541c9b9be7cd08c0d3dca7e413df12f3",
        id="B-frozen-head",
    ),
    pytest.param(
        dict(variant="C", jest_fraction=0.5),
        "c5b40b7a38dcb57464fda51f530b3bf7e9bf5f46069ee3e8cb06ecd55d8a5647",
        "a9498dd6bfb61856c7ce04d1ac3acf25dd0a997164cd765278f487d55b7d3b29",
        id="C-jest",
    ),
    # late fusion: prompts enter at the last image block, so the image
    # backward stops there
    pytest.param(
        dict(variant="C", insert_layer=LATE),
        "80f1bdd9678b654569ff92182b63bde8588b91bd86641b24e9f4c63a5456f408",
        "24b405b15d8bcfa284d17136de98a65e8441eda2ec447db99569a658f9658f5a",
        id="C-per_row-late",
    ),
    pytest.param(
        dict(variant="C", conditioning="diagonal", insert_layer=LATE),
        "23d1e5a3ecc3bae29a783c1e90e03dd0d6142abb2b9c79f9ace4097cdea587cf",
        "3b9e59cd525f4f9001f58565c21fcda0bcf799a0347913a2cc73997ed9d5d9b0",
        id="C-diagonal-late",
    ),
    pytest.param(
        dict(variant="B", finetune_itm=True, insert_layer=LATE),
        "cec4b1c48e925ee3072aa0409b05794a4bf9c8369c9f360145270acd833ada56",
        "f0493da63e4891c883499ff957f06bbb09f17138850860e13d398f2311a62be9",
        id="B-finetune-late",
    ),
    pytest.param(
        dict(variant="B", jest_fraction=0.5, insert_layer=LATE),
        "f14d5b7242bd1f61ce309f3e064d8faf8adaa807e9da45aef26be587fcb2a993",
        "7953da98e1c9737d07d0bb70e7f5e0744fc856914b219177abd9d70a996f595e",
        id="B-jest-late",
    ),
]


def _training_digests(model, trace):
    tensors = hashlib.sha256()
    for name, arr, trainable in model.iter_tensors():
        if trainable:
            tensors.update(name.encode())
            tensors.update(np.ascontiguousarray(arr).tobytes())
    losses = hashlib.sha256(np.asarray(trace, dtype=np.float64).tobytes())
    return tensors.hexdigest(), losses.hexdigest()


@pytest.mark.parametrize("fields, tensors_digest, trace_digest", GOLDEN)
def test_training_matches_golden_digests(fields, tensors_digest, trace_digest):
    fields = dict(fields)
    dims = replace(TINY, insert_layer=fields.pop("insert_layer", 0))
    ds = PairDataset(records=make_records(8))
    plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5], [6, 7, 0], [1, 3, 5]])
    cfg = TrainConfig(steps=2, lr=1e-2, seed=7, **fields)
    model, trace = train(fresh_model(fields["variant"], dims=dims), ds, plan, cfg)
    assert _training_digests(model, trace) == (tensors_digest, trace_digest)
