"""Per-record frozen encodings: each record's text and prompt-free image
are encoded once per backbone, and selection and training give the same
bytes as re-encoding."""

import copy
import hashlib
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from elip import encoders
from elip.config import DimsConfig, MapperConfig, TrainConfig
from elip.curation import (
    CurationPlan,
    PairDataset,
    SynthSpec,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from elip.encoders import copy_without_prompts, frozen_image, frozen_text, init_frozen_model
from elip.retrieval import embed_gallery
from elip.storage import load_checkpoint, save_checkpoint
from elip.trainer import train

from conftest import TINY, core_table, make_records, randomize_mapper

LATE = TINY.L_v - 1
PLAN = [[0, 1, 2], [3, 4, 5], [6, 7, 0], [1, 3, 5]]


def model_for(variant, insert_layer=0):
    dims = replace(TINY, insert_layer=insert_layer)
    return randomize_mapper(init_frozen_model(7, dims, variant, MapperConfig(n=dims.n, hidden=8)))


def uncached_key(model):
    """model's backbone key computed afresh (replace drops the cached one)."""
    return replace(model).backbone_key


def patch_everywhere(monkeypatch, orig, replacement):
    """Replace orig in every elip module that holds it by any name."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "elip" or name.startswith("elip.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, replacement)


class EncodeSpy:
    """Counts prompt-free image encodes and text encodes per (backbone,
    record), and prompt-free encodings inside the groups passed to
    image_backward."""

    def __init__(self, monkeypatch):
        self.images = Counter()
        self.texts = Counter()
        self.prompt_free_backwards = 0
        forward, backward, text = encoders.image_forward, encoders.image_backward, encoders.encode_text

        def spy_forward(model, patches, prompts=None):
            if prompts is None or np.size(prompts) == 0:
                self.images[model.backbone_key, id(patches)] += 1
            return forward(model, patches, prompts)

        def spy_backward(model, encs, *args, **kwargs):
            self.prompt_free_backwards += sum(enc.prompt_count == 0 for enc in encs)
            return backward(model, encs, *args, **kwargs)

        def spy_text(model, tokens):
            self.texts[model.backbone_key, id(tokens)] += 1
            return text(model, tokens)

        patch_everywhere(monkeypatch, forward, spy_forward)
        patch_everywhere(monkeypatch, backward, spy_backward)
        patch_everywhere(monkeypatch, text, spy_text)

    def check(self, n_records):
        """Every one of n_records was encoded, once, under one backbone."""
        for counts in (self.images, self.texts):
            assert len(counts) == n_records
            assert set(counts.values()) == {1}, "a record was re-encoded under one backbone"
        assert self.prompt_free_backwards == 0


# the learner and its prompt-free reference share one backbone, so they
# share one table of frozen encodings
@pytest.mark.parametrize("variant, conditioning", [
    ("C", "per_row"), ("S", "diagonal"), ("B", "per_row"),
])
def test_selection_encodes_each_record_once_per_table(monkeypatch, variant, conditioning):
    model = model_for(variant)
    ds = PairDataset(records=make_records(8))
    spy = EncodeSpy(monkeypatch)
    select_by_learnability(CurationPlan(batches=PLAN), ds, model, copy_without_prompts(model),
                           0.5, conditioning)
    spy.check(ds.N)


# the step loop and, with JEST, the selection's learner and reference all
# read the one table of the model's backbone
@pytest.mark.parametrize("fields", [
    dict(variant="B", finetune_itm=True),
    dict(variant="C", conditioning="per_row", jest_fraction=0.5),
], ids=["B-finetune", "C-per_row-jest"])
def test_training_encodes_each_record_once_per_table(monkeypatch, fields):
    model = model_for(fields["variant"], LATE)
    ds = PairDataset(records=make_records(8))
    spy = EncodeSpy(monkeypatch)
    train(model, ds, CurationPlan(batches=PLAN), TrainConfig(steps=6, lr=1e-2, seed=7, **fields))
    spy.check(ds.N)


@pytest.mark.parametrize("variant, conditioning, insert_layer", [
    ("C", "per_row", 0), ("S", "diagonal", 0), ("B", "per_row", LATE),
], ids=["C-per_row", "S-diagonal", "B-late"])
def test_pipeline_encodes_each_record_once_per_backbone(monkeypatch, variant, conditioning,
                                                        insert_layer):
    """Mining, the gallery, selection against a prompt-free reference and a
    JEST training run share one frozen encode per record."""
    model = model_for(variant, insert_layer)
    ds = PairDataset(records=make_records(8))
    spy = EncodeSpy(monkeypatch)
    plan = mine_hard_batches(ds, model, 3)
    embed_gallery(model, ds)
    select_by_learnability(plan, ds, model, copy_without_prompts(model), 0.5, conditioning)
    cfg = TrainConfig(variant=variant, conditioning=conditioning, steps=4, lr=1e-2, seed=7,
                      jest_fraction=0.5, finetune_itm=variant == "B")
    train(model, ds, plan, cfg)
    spy.check(ds.N)


def test_another_backbone_gets_its_own_entries():
    """A reference with other frozen tensors, or the same tensors under
    another head count, never reads the learner's encodings."""
    learner = model_for("C")
    other_seed = init_frozen_model(8, TINY, "C", MapperConfig(n=TINY.n, hidden=8))
    other_heads = replace(copy_without_prompts(learner), dims=replace(TINY, n=0, H=1))
    records = make_records(3)
    for model in (learner, other_seed, other_heads):
        for rec in records:
            assert frozen_text(model, rec).t_joint.tobytes() == \
                encoders.encode_text(model, rec.tokens).t_joint.tobytes()
            assert frozen_image(model, rec).v_joint.tobytes() == \
                encoders.image_forward(model, rec.patches).v_joint.tobytes()
    assert all(len(rec.frozen) == 6 for rec in records)  # 3 backbones x (text, image)
    assert frozen_image(other_heads, records[0]).v_joint.tobytes() != \
        frozen_image(learner, records[0]).v_joint.tobytes()


def test_backbone_key_follows_the_frozen_encoder(tmp_path):
    model = model_for("B", LATE)
    key = model.backbone_key
    assert uncached_key(copy.deepcopy(model)) == key
    assert uncached_key(copy_without_prompts(model)) == key
    save_checkpoint(str(tmp_path / "ckpt"), model)
    assert load_checkpoint(str(tmp_path / "ckpt")).backbone_key == key
    trained = copy.deepcopy(model)
    ds = PairDataset(records=make_records(8))
    train(trained, ds, CurationPlan(batches=PLAN),
          TrainConfig(variant="B", steps=2, lr=1e-2, finetune_itm=True))
    assert not np.array_equal(trained.mapper.tensors["l3.weight"], model.mapper.tensors["l3.weight"])
    assert uncached_key(trained) == key

    bumped = copy.deepcopy(model)
    bumped.image_blocks[0].tensors["wq"][0, 0] += 1.0
    assert uncached_key(bumped) != key
    dims = model.dims
    wide = init_frozen_model(7, dims, "B", model.mapper_cfg, dtype=np.float64)
    assert wide.backbone_key != init_frozen_model(7, dims, "B", model.mapper_cfg).backbone_key
    assert replace(model, dims=replace(dims, H=1)).backbone_key != key


def test_frozen_image_keeps_no_backward_cache():
    model = model_for("B", LATE)
    rec = make_records(1)[0]
    enc = frozen_image(model, rec)
    full = encoders.image_forward(model, rec.patches)
    assert frozen_image(copy_without_prompts(model), rec) is enc
    assert enc.prompt_count == 0 and not enc.block_caches and not enc.attn
    assert enc.v_joint.tobytes() == full.v_joint.tobytes()
    assert enc.patch_states.tobytes() == full.patch_states.tobytes()
    # the entries stay out of a record's repr and equality, and out of a copy
    assert rec == replace(rec) and not replace(rec).frozen and "frozen" not in repr(rec)


@pytest.mark.parametrize("variant", ["C", "S"])
def test_cs_frozen_entry_keeps_no_final_states(variant):
    """A C/S entry keeps v_joint alone: none of its arrays is or views the
    (P+1, d_v) final states, which only the ITM head reads."""
    model = model_for(variant)
    rec = make_records(1)[0]
    enc = frozen_image(model, rec)
    assert enc.patch_states is None
    arrays = [v for v in vars(enc).values() if isinstance(v, np.ndarray)]
    assert [a.shape for a in arrays] == [(TINY.d_e,)] and enc.v_joint.base is None
    assert enc.v_joint.tobytes() == encoders.image_forward(model, rec.patches).v_joint.tobytes()


def test_b_model_replaces_a_cs_entry_once(monkeypatch):
    """A B model that finds the entry a C model of its backbone wrote
    re-encodes each record once and replaces the entry under the same key;
    after that neither model encodes again."""
    c_model, b_model = model_for("C"), model_for("B")
    assert c_model.backbone_key == b_model.backbone_key
    records = make_records(4)
    spy = EncodeSpy(monkeypatch)
    c_entries = [frozen_image(c_model, rec) for rec in records]
    b_entries = [frozen_image(b_model, rec) for rec in records]
    assert len(spy.images) == 4 and set(spy.images.values()) == {2}
    for _ in range(2):
        for rec, b_enc in zip(records, b_entries):
            assert frozen_image(b_model, rec) is b_enc and frozen_image(c_model, rec) is b_enc
    assert set(spy.images.values()) == {2}
    for rec, c_enc, b_enc in zip(records, c_entries, b_entries):
        assert list(rec.frozen) == [(b_model.backbone_key, "image")]
        assert c_enc.patch_states is None
        assert b_enc.v_joint.tobytes() == c_enc.v_joint.tobytes()
        full = encoders.image_forward(b_model, rec.patches)
        assert b_enc.patch_states.tobytes() == full.patch_states.tobytes()
        assert b_enc.v_joint.tobytes() == full.v_joint.tobytes()


def test_gallery_keeps_only_the_joint_embeddings():
    """The frozen entries embed_gallery leaves on 200 A3-shaped records take
    under 0.3 MB of traced memory; with the final states they took 0.6 MB."""
    ds, _ = gen_synthetic_dataset(8, SynthSpec())
    model = init_frozen_model(7, DimsConfig(), "C")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        embed_gallery(model, ds)  # the store itself is dropped at once
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(len(rec.frozen) == 1 for rec in ds.records)
    assert kept < 0.3 * 2**20, kept


# sha256 of the float64 learnability bits of a fraction-1 selection over
# PLAN, per OpenBLAS core (conftest.core_table), taken when every batch still
# re-encoded its frozen work; a randomized mapper makes the prompts non-zero.
# B ignores the conditioning, so its two conditionings agree.
LEARNABILITY_CASES = sorted((variant, conditioning, insert_layer) for variant in "BCS"
                            for conditioning in ("diagonal", "per_row")
                            for insert_layer in (0, LATE))
LEARNABILITY = {
    ("SkylakeX",): {
        ("C", "per_row", 0):
            "b8853d4dd4d790e6266a14e7e53cfa4c707c16e4329d68750f07abc1432c3cbd",
        ("C", "per_row", LATE):
            "3579cd99b937f357d7ffb058189305bb53db48907995565e9607bfe2860fb13c",
        ("C", "diagonal", 0):
            "ab674f6799de2f983885c83f4793e0d6fb3c26d093508067cbe63d8d83ee83d3",
        ("C", "diagonal", LATE):
            "05e653e705b6696e0cb9b349ef761ddeb08de8fcde3c19ff62845da453d40a96",
        ("S", "per_row", 0):
            "7da912d717c3872887fd14d950bc220c99e13e02cc60b19b1453b609176c6ef7",
        ("S", "per_row", LATE):
            "b5b64e8e573dc75c76f3ea42cfca858965848bc4d4e52e5afe980396aba171ca",
        ("S", "diagonal", 0):
            "0757eceaf0fa3d0e8210f668416c3e5aaa7242ca1273184e897bea209c015a3c",
        ("S", "diagonal", LATE):
            "5c1e03d427eee60efd1fffdbbad68863a6f0817c7a74623f477da487dbd56adb",
        ("B", "per_row", 0):
            "bb49466684b033ec388e416db5685f47943d553682860e1e0fc75de127401e36",
        ("B", "per_row", LATE):
            "e384fbad2bb031a7f340d9be582e89722054de5a37138ae914832c94ea81ecd9",
        ("B", "diagonal", 0):
            "bb49466684b033ec388e416db5685f47943d553682860e1e0fc75de127401e36",
        ("B", "diagonal", LATE):
            "e384fbad2bb031a7f340d9be582e89722054de5a37138ae914832c94ea81ecd9",
    },
    ("Haswell",): {
        ("C", "per_row", 0):
            "f2a330572cecb613e2cfd1929ed627b51ad69001310e72d309ff5bbee01aae63",
        ("C", "per_row", LATE):
            "e742aeaa85e5b2406d212e9acc409a41b5fc3950cbe529f866a33c7568ee556f",
        ("C", "diagonal", 0):
            "88652bd10ec8b87d1a586da414953f4e3a8d2baa6bb4fea18757ec1f38754c32",
        ("C", "diagonal", LATE):
            "8e8e42f7cdc7fc6aeec9808413476702e110f1ae9a69cac8a57f5d67d36017e1",
        ("S", "per_row", 0):
            "f789eaece73638670595d50614f592b2a2c47a58724b9564ce000d305756f6c3",
        ("S", "per_row", LATE):
            "f8e1e4f73ab280c9a17eaebf2d486eacef2e96e8b81c82cdc6c8c6b50e3a6531",
        ("S", "diagonal", 0):
            "6f61c107110538ef9ebfe94e8fc87f8f962ee819350d0c06dffaa0ef38d6e0f7",
        ("S", "diagonal", LATE):
            "2f7f2ff1a8b99c3ed6701f2b91a365ea9aef9bfc49da5a88bf47cee13d06dff4",
        ("B", "per_row", 0):
            "0163a9c48be860477475a113a3d893ff2124af5116a6cc72486aa42dadbd7126",
        ("B", "per_row", LATE):
            "9df4ac8bdd9af2804a3079ea86ff95c717d3a2f0aaf76ac82c9588595f0ac8b5",
        ("B", "diagonal", 0):
            "0163a9c48be860477475a113a3d893ff2124af5116a6cc72486aa42dadbd7126",
        ("B", "diagonal", LATE):
            "9df4ac8bdd9af2804a3079ea86ff95c717d3a2f0aaf76ac82c9588595f0ac8b5",
    },
    ("Sandybridge",): {
        ("C", "per_row", 0):
            "facdcf018fd87057d1b1e0f6a1a425bcb8b4b706dd1ce644ae40fe60d19e90a3",
        ("C", "per_row", LATE):
            "0452fc2f23b248f5da73f74b48fbdda126ec4ecd3b64bbbbeb6c37b6a0fe67f7",
        ("C", "diagonal", 0):
            "024ee728c1955e78f773333e61f4064d8c22873663d25b55791f67ad9b53e604",
        ("C", "diagonal", LATE):
            "08507c10ab131ee762d6d004ccc80d2a5f3ca8c375af087ad999fde7557f2201",
        ("S", "per_row", 0):
            "95a054150af57eb1711013c37f1a115747f735937c9e3417dd3145567930796b",
        ("S", "per_row", LATE):
            "ae466dfc8ba3df03d2e930bc08a8f229b397eeead33ca67ee5d49b53360004b8",
        ("S", "diagonal", 0):
            "88e78bb5fe751428be65a1b933670ee15ab49c7d808ac41437183008b442e999",
        ("S", "diagonal", LATE):
            "708b45c749d3a37f0120d3db7113d8d061b5c1346f6c43fbc7ff0bfc064badf8",
        ("B", "per_row", 0):
            "67cb3dd2e653f7f0f47983418d23294ebde6be708c5dde06fcef172f60d6c606",
        ("B", "per_row", LATE):
            "06427a26416f7ec8276f91b6bbedc84e07838707f76ff871a77a8452b1f38744",
        ("B", "diagonal", 0):
            "67cb3dd2e653f7f0f47983418d23294ebde6be708c5dde06fcef172f60d6c606",
        ("B", "diagonal", LATE):
            "06427a26416f7ec8276f91b6bbedc84e07838707f76ff871a77a8452b1f38744",
    },
    ("Katmai",): {
        ("C", "per_row", 0):
            "e4cba451686e1eac8d0229c93f64f4d2c72adf55157da4b1d1c033aab962250b",
        ("C", "per_row", LATE):
            "8a972a0e1252509a1a98fb75163be5fc1fe4c031de99743155b282522812bb80",
        ("C", "diagonal", 0):
            "4688d7571d691863575ba48154edcafe16722384a6b06a216266f925a4c23de1",
        ("C", "diagonal", LATE):
            "9f4041f55e83d1fae3cc6940158def24cc8ff7104968f89366047572d89416ad",
        ("S", "per_row", 0):
            "fcae9270f3e5549bdb5e16ea17f78247e2a4b3efb354c13a3bd65700e088c8ea",
        ("S", "per_row", LATE):
            "23c33a500e31b0bcc48338889426d065492072b11caed15c040b6c5985a40b2a",
        ("S", "diagonal", 0):
            "97513ca1e800caaea2b212a67c621943a0b09b9619708f5bc0623ea949c6773e",
        ("S", "diagonal", LATE):
            "80c07052d99bb9588c930bcb8d25f764d93285b0e1e7a70ec438a11e8f721187",
        ("B", "per_row", 0):
            "1f245a1932f72d76425c8a08fbb49c018b175d878d2c860a8e3b7c8208ab938b",
        ("B", "per_row", LATE):
            "e55624ba363d912df9ef1337a53dff725cae0b3f268fac00595a911d6030b033",
        ("B", "diagonal", 0):
            "1f245a1932f72d76425c8a08fbb49c018b175d878d2c860a8e3b7c8208ab938b",
        ("B", "diagonal", LATE):
            "e55624ba363d912df9ef1337a53dff725cae0b3f268fac00595a911d6030b033",
    },
}


def learnability_digest(variant, conditioning, insert_layer) -> str:
    model = model_for(variant, insert_layer)
    ds = PairDataset(records=make_records(8))
    selected = select_by_learnability(CurationPlan(batches=PLAN), ds, model,
                                      copy_without_prompts(model), 1.0, conditioning)
    return hashlib.sha256(np.asarray(selected.learnability, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("variant, conditioning, insert_layer", LEARNABILITY_CASES)
def test_learnability_matches_golden_digests(variant, conditioning, insert_layer):
    digest = learnability_digest(variant, conditioning, insert_layer)
    assert digest == core_table(LEARNABILITY)[variant, conditioning, insert_layer]
