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

from conftest import TINY, make_records, randomize_mapper

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
    assert enc.patch_states is None and enc.cls_state is None
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
        assert b_enc.cls_state.tobytes() == full.cls_state.tobytes()


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
# PLAN, taken when every batch still re-encoded its frozen work; a
# randomized mapper makes the prompts non-zero. B ignores the
# conditioning, so its two conditionings agree.
LEARNABILITY = {
    ("C", "per_row", 0): "b8853d4dd4d790e6266a14e7e53cfa4c707c16e4329d68750f07abc1432c3cbd",
    ("C", "per_row", LATE): "3579cd99b937f357d7ffb058189305bb53db48907995565e9607bfe2860fb13c",
    ("C", "diagonal", 0): "ab674f6799de2f983885c83f4793e0d6fb3c26d093508067cbe63d8d83ee83d3",
    ("C", "diagonal", LATE): "05e653e705b6696e0cb9b349ef761ddeb08de8fcde3c19ff62845da453d40a96",
    ("S", "per_row", 0): "7da912d717c3872887fd14d950bc220c99e13e02cc60b19b1453b609176c6ef7",
    ("S", "per_row", LATE): "b5b64e8e573dc75c76f3ea42cfca858965848bc4d4e52e5afe980396aba171ca",
    ("S", "diagonal", 0): "0757eceaf0fa3d0e8210f668416c3e5aaa7242ca1273184e897bea209c015a3c",
    ("S", "diagonal", LATE): "5c1e03d427eee60efd1fffdbbad68863a6f0817c7a74623f477da487dbd56adb",
    ("B", "per_row", 0): "bb49466684b033ec388e416db5685f47943d553682860e1e0fc75de127401e36",
    ("B", "per_row", LATE): "e384fbad2bb031a7f340d9be582e89722054de5a37138ae914832c94ea81ecd9",
    ("B", "diagonal", 0): "bb49466684b033ec388e416db5685f47943d553682860e1e0fc75de127401e36",
    ("B", "diagonal", LATE): "e384fbad2bb031a7f340d9be582e89722054de5a37138ae914832c94ea81ecd9",
}


@pytest.mark.parametrize("variant, conditioning, insert_layer", sorted(LEARNABILITY))
def test_learnability_matches_golden_digests(variant, conditioning, insert_layer):
    model = model_for(variant, insert_layer)
    ds = PairDataset(records=make_records(8))
    selected = select_by_learnability(CurationPlan(batches=PLAN), ds, model,
                                      copy_without_prompts(model), 1.0, conditioning)
    digest = hashlib.sha256(np.asarray(selected.learnability, dtype=np.float64).tobytes())
    assert digest.hexdigest() == LEARNABILITY[variant, conditioning, insert_layer]
