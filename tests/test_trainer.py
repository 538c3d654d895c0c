import hashlib
from dataclasses import replace

import numpy as np
import pytest

from elip.config import MapperConfig, TrainConfig
from elip.curation import CurationPlan, PairDataset, mine_hard_batches
from elip.encoders import bundles_equal, frozen_bytes, init_frozen_model
from elip.errors import ConfigError, NumericError
from elip.trainer import ADAM_BLOCK, OptimizerState, adam_step, clip_global_norm, train

from conftest import TINY, core_table, encode_one, make_records

LATE = TINY.L_v - 1


def fresh_model(variant="C", seed=7, dims=TINY):
    return init_frozen_model(seed, dims, variant, MapperConfig(hidden=8))


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
        7, dims, variant, MapperConfig(hidden=6), dtype=np.float64
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
    from elip.encoders import encode_text
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
                                encode_one(m, r.patches, prompts).patch_states)[0]
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
# (conftest.core_table). Katmai's table was re-recorded when the insert
# block's image and prompt rows came to run their pre-attention as groups of
# their own, which moves its bits (README, "Determinism contract").
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
        "C-per_row": ("7a0eb49943808187d78df46afa3d2deb133b1607cbfdbaf492052a6faa6164a1",
                     "08ee9699a6317416bf5b8570d97054c6a0888e33321d279021b621f000caf342"),
        "C-diagonal": ("c59dbdedf225b15427a1f4f9e3f6a90097a3f26cf9175947c88d7596551a3b38",
                      "7e23e5a561e6b3ea4863ed3fff281f3586524b2c33ce1e7b398aeda73d5fcbdb"),
        "S-per_row": ("0e1e2f6a8d10e36abb86728e6a534755d37b3b81c6f9928a662c674bbd732e18",
                     "8e270c8f4eff5a70b5d7855ec0049c0f1b7e3be37198bea61f2a97875329b900"),
        "B-finetune": ("5ef64232da8ef4d6d929161f106ece17451d03381732ef6a061f2a09ab37f0cf",
                      "de0a7aaef35041e8fcaa24cb437656f7ff74ff67b83cc673218161523377ebc9"),
        "B-frozen-head": ("0ceb348fafe63ff7a443ec06951ec696b6ad83bbb5defb3498cec5e02e5cd1b1",
                         "3593021516bbcde14076fb069474fdd3541c9b9be7cd08c0d3dca7e413df12f3"),
        "C-jest": ("4092b59cbb14f0d0c5a1fdb6af7fe5490f6d4d140afce56f831f772839144038",
                  "57b421545c5ce6488caf19d958b427cf2d1cfb96341e5a3c7791ae5e45a71ad3"),
        "C-per_row-late": ("b068a74d83a6a2d69383bce50d57f4a4ab73e494f3382ed2ceebf2fda02daa69",
                          "34a5b9440c6c637b10e875aa659727dc36111661bf22b1202b73500a371c94e9"),
        "C-diagonal-late": ("e4f8ea2b3e9eac98a929ab752365a1c07cf0ce6466cc26549252ad9bb8cca395",
                           "d8a056961e69a5af414971dfa8908374e44d82dc9608d6cdabbbcc961999a6e6"),
        "B-finetune-late": ("cec4b1c48e925ee3072aa0409b05794a4bf9c8369c9f360145270acd833ada56",
                           "f0493da63e4891c883499ff957f06bbb09f17138850860e13d398f2311a62be9"),
        "B-jest-late": ("f14d5b7242bd1f61ce309f3e064d8faf8adaa807e9da45aef26be587fcb2a993",
                       "7953da98e1c9737d07d0bb70e7f5e0744fc856914b219177abd9d70a996f595e"),
    },
    ("Haswell",): {
        "C-per_row": ("0e5b10cf36a22d501a7001f826a06f6ffb9293b57ffe029c345f3632f36ccdd8",
                     "58875c76a03fcd9cd72e3bfba3da6292d0151ac1405594c56b459e6d470a6b3d"),
        "C-diagonal": ("3128fd32ff346b68c051ce057803e45e4b6e864b7a3a81d3014722f5c1fa3226",
                      "c393bcb147a24860941d6ee6b02915447f60758f122859174401e0b9d9ad595e"),
        "S-per_row": ("98791708ababdf5e909ab6fdaec8a2aa3afbbfb193f0c7b57e5f2343c3e3f74b",
                     "e237c2005ae7194151680966ae23a88f34f5b852af28fc5ea1c2f6418f74cfe0"),
        "B-finetune": ("5723e4b7f59b5d6a0c912026ec6df74840e9cbcbe1b1c36b4980645c10ff86c0",
                      "26ab2eb806473398dbca37e3313aa25a6f02444e9e4e88ef7b7b3bc0aee33d0e"),
        "B-frozen-head": ("b379e552d2818b2076df428d86514b90dd1d2f6cf0875d17420bea96a9a5dd30",
                         "4644914985bb39c280e26c1064398554c84693f37ce989469401a9ab6c5d2f3d"),
        "C-jest": ("eeccd3945c287e49a199dcbf22c100faea64ab14d7157090e1aa64b7adb69d8d",
                  "be3f55c2bba4ff95255b99121efee3cd730a176abd1781a101c7333d7c9736f4"),
        "C-per_row-late": ("de4ebf6c5ee49ac624c7983e04eb5b5151d07f04865e5bc37a10209a61fd75c5",
                          "a17e013e7468144b8e06e1fdb1c1c515b2866a54fb26c24408b55b6b76ccd4dd"),
        "C-diagonal-late": ("b683407b171a35fe29b0f4ff3d033415c52c5026adbb362d3381da3c9d56a4ef",
                           "1c67f2c88aa81fd58696a690d8e57cce21eea571b0fa0680356606d352d9126e"),
        "B-finetune-late": ("1f2902ebc6c47a190db4d29a7a8cbcef35a86cee2fba18e4b42feb2ac8b57e85",
                           "226d0f50e072950d5eb2a91fc2020147e95ab19171ce45b7424d016df0c2f9f7"),
        "B-jest-late": ("7c4359e50dc1d696643203072145828e7652b8026ad546a2f50067bbd2c8ade5",
                       "3688d8363cb65741f7101e3adf721cc6e4923c42a03a6c323919f202e6fdce71"),
    },
    ("Sandybridge",): {
        "C-per_row": ("0394181f8d4f693808e4e09620c167990eb4c4a00e1918cecd2f8838a5a1e38c",
                     "af65dec9443bedf8200f47354868c2997f9033bab027c464159fcdd2b7f65129"),
        "C-diagonal": ("f571b99d42b16b9694c542f9f650d81a684718c4b02f6101d1f619f34c088180",
                      "df5de0a2e272a06c98d161ede9cbaa026adebc156d989d3b48846e52fc57c000"),
        "S-per_row": ("37560693eae91f947a771cc1e8645311c2ff529b236f6c098085cc9c6ae8977b",
                     "9d7b7606be3f9eb2ed0da8be9794e85c216c30761178475a725319baa82ace4f"),
        "B-finetune": ("9716cf8767e0ab2f46756ff00c648194ad0f82bdb4eb7bfb3957e7b71c65bf5d",
                      "78fb758ec5769a6514c0c9d519266adb6659f373b61a473564d6559c07d7aba0"),
        "B-frozen-head": ("5307c1129892f89c2d8c6e1071f884dd74e2f826dcbb7f62a22fe9bed8cfe25d",
                         "4d00b246f5817e84f275b9f9965b28ee8aa5f9349ff39b84ebdada4795f2f9f9"),
        "C-jest": ("00404492d584a4c1c5b3ad8ca2c437756069872a48e18dfcbfad89977222daa2",
                  "a4b1d4a10d08beeee8d7166715856059902ee56138f82abc92b8a15a9ded12ae"),
        "C-per_row-late": ("baae7a8e9b2db9b655f265b9c2a8278ee19b9a37e4360bf57e1f241b8a478ca7",
                          "e85c59809766b45aea1ab44db1d674b3cad914aec120fc41a05dd42628c1a025"),
        "C-diagonal-late": ("899b5d09f902d08c941e3deb84aa27de9a614d08bafa73e854570e1cb3fdc886",
                           "261f67a52b7d85d88ab86de336ff95021a21ae8d29e13623ae124fbb12eac00c"),
        "B-finetune-late": ("ebc69ebf971872a6e31bd345b3527fbf1959b85e1f9ce926b89364f8f9af6a04",
                           "5258ff392904754936c6af83983c4c94e38e3244a8de7368683450c44aef89f6"),
        "B-jest-late": ("6883305ab47abfe3e8c703391120b82d4fe574bd2b65cc76e61bd793a9601599",
                       "d6c8201780b232297c45f2b3bedaed7d834443b84e91cad9efea406a2f58e278"),
    },
    ("Katmai",): {
        "C-per_row": ("ab3167f6adc09ee651a2091d6f05c1291055f7d13df6f690171c2c1d0d556cbb",
                     "c9a26dc52103d16527d963f5a96144e1fc9d57aecb7c622bb449371461d74d59"),
        "C-diagonal": ("54779cb980ce82aca3c56b8c52ed3da995eec03fdb3f8414663aa21bdb313f5e",
                      "262b4fe28d26a3b17da5c028a58ee90d97caff75d3f75a639256c48aad1cd6d7"),
        "S-per_row": ("23fdde4e66cbe3df7cb41fb1951a8b4fd3c06e05dbafdd4656b0a17107a2660c",
                     "957fe8bc764ce75fa7ac4931bdf1da3688481457a7094273ec6ce3944d3f744f"),
        "B-finetune": ("680ae591a48843db9be85643f409934b3d2ef7d7c18365484dea9eddf9848be2",
                      "403db5e71a3ad3fedf21ef96eeee7ff56a77093859a6c939384396f1eded81e5"),
        "B-frozen-head": ("b5192189af00906acf6ee5d80011dc0f784655f98d8c633bda302dfd501b3716",
                         "ae890198e34ab671b0466c633bb50833abb24be2bb6a7423158c36350a22455a"),
        "C-jest": ("668d64fffda88fdad4a5e541962801869ebaa2a14afb6aa23b5edbd0a0755142",
                  "bc47cc9f8b489fe06327bded811a1f6bfd290c0070fc60bc9ed6f846ccd4eb3c"),
        "C-per_row-late": ("9229030470ecdc42bdbbca10a5a3c6392f2ce1d3f08c51f0891f954513035025",
                          "d6ffd9e2b0327ee264d312591354f9214629abe4a07667c8115a0712aec6d2be"),
        "C-diagonal-late": ("f6e74949787cad3955c5bfa7790c8db264c4790721aefe05f5c7f2521e3c7609",
                           "c38cd007f0611e8bbb005eb7fc83c7d28b1a066ea1957c79fc3ea1921848c7cb"),
        "B-finetune-late": ("b7cef524779e6a5328d09640d22d02e43955dde571feabd82ba96e0924d350a5",
                           "151d1321d40a61ae7b453934a67290907ec08839bcddb56311ba71cb2ce9cbf5"),
        "B-jest-late": ("1c397f2e7bab132ca69a02c192664d1963c3601909048c636601d3a627f3fa06",
                       "783a17d7ba64aadb16e4fbb8405ea6fe846df985564d00592dc6090bc25d4d6b"),
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
