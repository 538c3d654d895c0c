import hashlib
from dataclasses import replace

import numpy as np
import pytest

from elip.config import MapperConfig, TrainConfig
from elip.curation import CurationPlan, PairDataset, mine_hard_batches
from elip.encoders import bundles_equal, frozen_bytes, init_frozen_model
from elip.errors import ConfigError, NumericError
from elip.trainer import ADAM_BLOCK, OptimizerState, adam_step, clip_global_norm, train

from conftest import TINY, core_table, make_records

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
# sha256 of the trainable tensors and of the loss trace, per OpenBLAS core
# (conftest.core_table).
GOLDEN_CASES = {
    "C-per_row": dict(variant="C"),
    "C-diagonal": dict(variant="C", conditioning="diagonal"),
    "S-per_row": dict(variant="S"),
    "B-finetune": dict(variant="B", finetune_itm=True),
    "B-frozen-head": dict(variant="B", finetune_itm=False),
    "C-jest": dict(variant="C", jest_fraction=0.5),
    # late fusion: prompts enter at the last image block, so the image
    # backward stops there
    "C-per_row-late": dict(variant="C", insert_layer=LATE),
    "C-diagonal-late": dict(variant="C", conditioning="diagonal", insert_layer=LATE),
    "B-finetune-late": dict(variant="B", finetune_itm=True, insert_layer=LATE),
    "B-jest-late": dict(variant="B", jest_fraction=0.5, insert_layer=LATE),
}
GOLDEN = {
    ("SkylakeX",): {
        "C-per_row": ("119c1729669d869bf216c5fb06b930b2cff3fd8a9317793dfdde45b489f7ab94",
                     "dc159a7856b594bf9ce7d0beaf3a8c77e3ebe8a9182d09fc6f984251fb40ba7c"),
        "C-diagonal": ("df9049bc6f0592f1fd8ecf3f282c1f0b4373706af83306b77b87b8fdf1cf3712",
                      "c8146517031819921b214c7fffacbce911a84d27c7b8eb82dcd0e1996d117d78"),
        "S-per_row": ("9fd16d7cff5f57673ea17ad1701830877dccce75847c2d4fc9be7bae3cb81da8",
                     "c4f07034ee410bd3c44d148cd4635102703101222c040fe0b3f389e113c36d19"),
        "B-finetune": ("5ef64232da8ef4d6d929161f106ece17451d03381732ef6a061f2a09ab37f0cf",
                      "de0a7aaef35041e8fcaa24cb437656f7ff74ff67b83cc673218161523377ebc9"),
        "B-frozen-head": ("0ceb348fafe63ff7a443ec06951ec696b6ad83bbb5defb3498cec5e02e5cd1b1",
                         "3593021516bbcde14076fb069474fdd3541c9b9be7cd08c0d3dca7e413df12f3"),
        "C-jest": ("c5b40b7a38dcb57464fda51f530b3bf7e9bf5f46069ee3e8cb06ecd55d8a5647",
                  "a9498dd6bfb61856c7ce04d1ac3acf25dd0a997164cd765278f487d55b7d3b29"),
        "C-per_row-late": ("80f1bdd9678b654569ff92182b63bde8588b91bd86641b24e9f4c63a5456f408",
                          "24b405b15d8bcfa284d17136de98a65e8441eda2ec447db99569a658f9658f5a"),
        "C-diagonal-late": ("23d1e5a3ecc3bae29a783c1e90e03dd0d6142abb2b9c79f9ace4097cdea587cf",
                           "3b9e59cd525f4f9001f58565c21fcda0bcf799a0347913a2cc73997ed9d5d9b0"),
        "B-finetune-late": ("cec4b1c48e925ee3072aa0409b05794a4bf9c8369c9f360145270acd833ada56",
                           "f0493da63e4891c883499ff957f06bbb09f17138850860e13d398f2311a62be9"),
        "B-jest-late": ("f14d5b7242bd1f61ce309f3e064d8faf8adaa807e9da45aef26be587fcb2a993",
                       "7953da98e1c9737d07d0bb70e7f5e0744fc856914b219177abd9d70a996f595e"),
    },
    ("Haswell",): {
        "C-per_row": ("4c5569dea2a7a05aa696bfe14719795356fa9684aa9535dfde06eca4c6163d01",
                     "15b9c4bba3017f3e2304e0929320bbbacf00f4b5990985df07c925029c2d72d7"),
        "C-diagonal": ("a413d2d3be6432d60fdf389c496621a7d824b2e8fcb2a8783ecde9b81752005a",
                      "3f74ff3334775ae11ed99f0a30d452d56fe36c1f6f89ff865162e7938eb0b86c"),
        "S-per_row": ("9ffd8d21eed6f70d0dcef5903248d46c26c295d8d38334da99296c36e0909508",
                     "14c2799a83cc928a03cb1e5fa50e50faeca888bef9753302512af14ec0b1ce5d"),
        "B-finetune": ("5723e4b7f59b5d6a0c912026ec6df74840e9cbcbe1b1c36b4980645c10ff86c0",
                      "26ab2eb806473398dbca37e3313aa25a6f02444e9e4e88ef7b7b3bc0aee33d0e"),
        "B-frozen-head": ("b379e552d2818b2076df428d86514b90dd1d2f6cf0875d17420bea96a9a5dd30",
                         "4644914985bb39c280e26c1064398554c84693f37ce989469401a9ab6c5d2f3d"),
        "C-jest": ("f62292bab1f7f6fb6fa8400a8f4db7fb8a8c2920db5c45e144765f271096ed4f",
                  "feaa04437b37b467cbe441505ad798bc738c99eafbce9c514164b4f544344804"),
        "C-per_row-late": ("798e9da38ecb72163e7b2604e4a0ce60da79fe956b9ef9361e3e653ddbac5960",
                          "278ff5b14ad2f8383d26ff56d0504436c0e713e081034f189aed9cf0f4ea204f"),
        "C-diagonal-late": ("0928a27a4325a315d8c9d5f5cdb4e77455d1867ec63f5d85600b350591c69c43",
                           "3cf83e46a283c4ba82614580c8e8b130a2a0563812da6b886e0e3d8dd0a8d36e"),
        "B-finetune-late": ("1f2902ebc6c47a190db4d29a7a8cbcef35a86cee2fba18e4b42feb2ac8b57e85",
                           "226d0f50e072950d5eb2a91fc2020147e95ab19171ce45b7424d016df0c2f9f7"),
        "B-jest-late": ("7c4359e50dc1d696643203072145828e7652b8026ad546a2f50067bbd2c8ade5",
                       "3688d8363cb65741f7101e3adf721cc6e4923c42a03a6c323919f202e6fdce71"),
    },
    ("Sandybridge",): {
        "C-per_row": ("89a7eef5e1daec3fc337d8cda694e1b4fbb01a1de3cd69ee2c686cbf399987d4",
                     "d58965a00db9f795c0220c9048b5d6c1b4b1a2e54b3033ef183323afb02bb426"),
        "C-diagonal": ("eea978ead7ce6077e6ac8af61287d409a0a0855f634fb4103c892714247c46ed",
                      "cc4cc3b7ad0779011bae6d646aef66babcb825ab4b6113b26c6b8ce1a52663be"),
        "S-per_row": ("af1fb453316ac23c5757d136f915f3e4a5c2f77c906eda5b568340a6a816aa78",
                     "4c238ba96a4179947f5830eee69f1606e927a32050935d7fcff2b5b9398d2a30"),
        "B-finetune": ("9716cf8767e0ab2f46756ff00c648194ad0f82bdb4eb7bfb3957e7b71c65bf5d",
                      "78fb758ec5769a6514c0c9d519266adb6659f373b61a473564d6559c07d7aba0"),
        "B-frozen-head": ("5307c1129892f89c2d8c6e1071f884dd74e2f826dcbb7f62a22fe9bed8cfe25d",
                         "4d00b246f5817e84f275b9f9965b28ee8aa5f9349ff39b84ebdada4795f2f9f9"),
        "C-jest": ("20a1e41cb6277885761f623f203d5b77765c2e3c7deca9bfce18092e79592ca8",
                  "5ac1dea142c22e71df01f33677c9b6ccf9a6a02c3d84f2d9b4f30f4a2d258030"),
        "C-per_row-late": ("e2c28ade72d944ed4d728d193ac119e68de8c95915520938a23a6cb634db2f9e",
                          "c677bb52140157783d122d38760380007895a755e1ab540770c033beb1584650"),
        "C-diagonal-late": ("9d6a4162f01d6bca2f945ebf62200f0ab0b4374c4842ff54b61dd8ec8dd4ff25",
                           "7144d307a1ed2c9b3e49721c491014709b03f2122a00b9e7a3c6f69899e3f614"),
        "B-finetune-late": ("ebc69ebf971872a6e31bd345b3527fbf1959b85e1f9ce926b89364f8f9af6a04",
                           "5258ff392904754936c6af83983c4c94e38e3244a8de7368683450c44aef89f6"),
        "B-jest-late": ("6883305ab47abfe3e8c703391120b82d4fe574bd2b65cc76e61bd793a9601599",
                       "d6c8201780b232297c45f2b3bedaed7d834443b84e91cad9efea406a2f58e278"),
    },
    ("Katmai",): {
        "C-per_row": ("61550ef1218ece08f580c8151b0d55cb29b6f0aef1e7c121503689faa197db36",
                     "73c1b1dfa1536232c543e8f6d88d85b700d4a31bd96eb5ea934eb7b39a372c97"),
        "C-diagonal": ("1a8b213a4441707b74142f9d96bc5dcc91682a8cbd75dccf5337b1368f2595f3",
                      "95bfaa9ebf48bdf61cdddcc29a51a047b7d73a2d81ec37574ee5fa13fd6ef996"),
        "S-per_row": ("9687ae46bb86e18add238f3d287a0dc346fe3e3a7d6b4b92f7667d6e583d3716",
                     "8520489309b45db409e557f83d6b517b411ec7bf929871b262dc39a70ab1d5b7"),
        "B-finetune": ("1a27bf941b48d63462f3f37d0f86d144eb9964d94e3b1e31ac5875ca711e9682",
                      "d97453178fb02a847ae7693fdfc3f7a520b73663fc636d8eb7f335cf7aec99ba"),
        "B-frozen-head": ("fed89f6225e4584b1e959bdad8aea3d70b87761cbdd4f2d2968440c6a10de3d8",
                         "f88c3622f0819772ed5b6f461bcad6a27c5311d269d543784ecb2ff20e1f6b7b"),
        "C-jest": ("df981bff4881239135d8be4628a614b3d7b178408166d90bc12184604767551b",
                  "6889d7a9968c95a88b02006c421e9ae640f01f36385dc3102ca1faef93c44f4a"),
        "C-per_row-late": ("c979db5c33f19f1447ba21caf817b8d1e90435aa324e6ec1bd3cc6d954ad44c9",
                          "b706bd3f1391d29fafc558c24d358d6f353c849eb39af7901d90f66f6d7fc42f"),
        "C-diagonal-late": ("1bd53bdc1e8f8e9d6e5e626f84c1ffc20249a632f7fce830996988da5e063c96",
                           "f314b69aa278be4da4b6a3e87d3b150f1e42e813bfb7a52a5bc39c123cd25681"),
        "B-finetune-late": ("09a9bdc1d268cf70f68498f27cf58d502c288e5f012a454e88247b866beeb2cb",
                           "baafee0592bf37b0be38d814139c03e043a87b97cb350cc06c5aec72d52b15fc"),
        "B-jest-late": ("69075d5eda760946bede256ad47c1bf7d10f0579d15f6280f7ac5800728d9e7b",
                       "21249bc4212cd518149af68808ed702379cedf7f30def485b6a8a30a872ebc6c"),
    },
}


def training_digests(case: str) -> tuple[str, str]:
    """(sha256 of the trainable tensors, sha256 of the loss trace) of case."""
    fields = dict(GOLDEN_CASES[case])
    dims = replace(TINY, insert_layer=fields.pop("insert_layer", 0))
    ds = PairDataset(records=make_records(8))
    plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5], [6, 7, 0], [1, 3, 5]])
    cfg = TrainConfig(steps=2, lr=1e-2, seed=7, **fields)
    model, trace = train(fresh_model(fields["variant"], dims=dims), ds, plan, cfg)
    tensors = hashlib.sha256()
    for name, arr, trainable in model.iter_tensors():
        if trainable:
            tensors.update(name.encode())
            tensors.update(np.ascontiguousarray(arr).tobytes())
    losses = hashlib.sha256(np.asarray(trace, dtype=np.float64).tobytes())
    return tensors.hexdigest(), losses.hexdigest()


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_training_matches_golden_digests(case):
    assert training_digests(case) == core_table(GOLDEN)[case]
