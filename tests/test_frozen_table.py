"""Per-record frozen encodings: each record's text and prompt-free image
are encoded once per backbone, and selection and training give the same
bytes as re-encoding."""

import copy
import gc
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
from elip.encoders import (
    copy_without_prompts,
    encode_text,
    frozen_image,
    frozen_text,
    init_frozen_model,
)
from elip.objectives import variant_batch_loss
from elip.retrieval import embed_gallery, rerank, stage1_rank
from elip.storage import load_checkpoint, save_checkpoint
from elip.trainer import train

from conftest import TINY, core_table, encode_one, make_records, randomize_mapper

LATE = TINY.L_v - 1
PLAN = [[0, 1, 2], [3, 4, 5], [6, 7, 0], [1, 3, 5]]


def model_for(variant, insert_layer=0):
    dims = replace(TINY, insert_layer=insert_layer)
    return randomize_mapper(init_frozen_model(7, dims, variant, MapperConfig(hidden=8)))


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

        def spy_forward(model, patches, prompts=None, **kwargs):
            if prompts is None or np.size(prompts) == 0:
                self.images[model.backbone_key, id(patches)] += 1
            return forward(model, patches, prompts, **kwargs)

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
    other_seed = init_frozen_model(8, TINY, "C", MapperConfig(hidden=8))
    other_heads = replace(copy_without_prompts(learner), dims=replace(TINY, n=0, H=1))
    records = make_records(3)
    for model in (learner, other_seed, other_heads):
        for rec in records:
            assert frozen_text(model, rec).t_joint.tobytes() == \
                encoders.encode_text(model, rec.tokens).t_joint.tobytes()
            assert frozen_image(model, rec).v_joint.tobytes() == \
                encode_one(model, rec.patches).v_joint.tobytes()
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
    full = encode_one(model, rec.patches)
    assert frozen_image(copy_without_prompts(model), rec) is enc
    assert sorted(vars(enc)) == ["patch_states", "v_joint"]
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
    assert enc.v_joint.tobytes() == encode_one(model, rec.patches).v_joint.tobytes()


def test_c_and_b_models_keep_their_own_entries(monkeypatch):
    """A C and a B model of one backbone keep one entry each per record, as
    their final blocks keep other rows and so may give the CLS row other
    bits. Run in either order over shared records, each model encodes each
    record once and reads the bytes of a fresh record's entry."""
    c_model, b_model = model_for("C"), model_for("B")
    key = c_model.backbone_key
    assert b_model.backbone_key == key
    orders = [(c_model, b_model), (b_model, c_model)]
    record_sets = [make_records(4) for _ in orders]
    spy = EncodeSpy(monkeypatch)
    for (first, second), records in zip(orders, record_sets):
        entries = {m.variant: [frozen_image(m, rec) for rec in records] for m in (first, second)}
        for m in (first, second, first):
            assert all(frozen_image(m, rec) is enc
                       for rec, enc in zip(records, entries[m.variant]))
        for rec in records:
            assert set(rec.frozen) == {(key, "image", False), (key, "image", True)}
    assert len(spy.images) == 8 and set(spy.images.values()) == {2}
    for records in record_sets:
        for rec in records:
            c_enc, b_enc = frozen_image(c_model, rec), frozen_image(b_model, rec)
            fresh_c = frozen_image(c_model, replace(rec))
            fresh_b = frozen_image(b_model, replace(rec))
            assert c_enc.patch_states is None
            assert c_enc.v_joint.tobytes() == fresh_c.v_joint.tobytes()
            assert b_enc.v_joint.tobytes() == fresh_b.v_joint.tobytes()
            assert b_enc.patch_states.tobytes() == fresh_b.patch_states.tobytes()


@pytest.mark.parametrize("variant, insert_layer", [("C", 0), ("S", LATE)])
def test_prompted_and_frozen_encodes_read_one_prefix_entry(monkeypatch, variant, insert_layer):
    """A training step computes each record's embedded sequence and block-0
    group once, as one read-only entry, and its later frozen encode reads
    that entry instead of computing its own."""
    model = model_for(variant, insert_layer)
    records = make_records(4)
    calls = Counter()
    real = encoders.image_prefix

    def spy(model, patches):
        calls[id(patches)] += 1
        return real(model, patches)

    monkeypatch.setattr(encoders, "image_prefix", spy)
    variant_batch_loss(model, records, "per_row", {})
    for rec in records:
        frozen_image(model, rec)
    assert calls == {id(rec.patches): 1 for rec in records}
    for rec in records:
        (prefix,) = [entry for key, entry in rec.frozen.items() if key[1] == "prefix"]
        assert prefix.seq.shape == (TINY.P + 1, TINY.d_v)
        assert (prefix.insert_group is prefix.group) == (insert_layer == 0)
        assert not any(arr.flags.writeable
                       for arr in (prefix.seq, *prefix.group, *prefix.insert_group))


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


@pytest.mark.parametrize("step, variant, late", [
    pytest.param("rerank", "C", False, id="rerank"),
    pytest.param("loss", "C", False, id="loss"),
    *(pytest.param(step, variant, True, id=f"{step}-{variant}-late")
      for step in ("rerank", "loss") for variant in "BC"),
])
def test_prompted_encodes_keep_one_prefix_per_record(step, variant, late):
    """A prompted encode leaves one entry on each record it touches and
    nothing else: its frozen_prefix, the embedded sequence, LN1's xhat and
    Q, K, V ((P+1, d_v) each) and LN1's (P+1) inv, about 10.7 KB per
    A3-shaped float32 record, kept as long as the record. With insert_layer
    L_v - 1 the entry holds the insert block's image-row group too: xhat,
    K, V and inv again, and Q for the kept rows alone, about 8.6 KiB more
    for B and 6.6 KiB for C/S. A re-rank of all 200 records or a per-row
    loss over 24 keeps under 1.2 times that per record in traced memory."""
    ds, bench = gen_synthetic_dataset(8, SynthSpec())
    dims = DimsConfig()
    if late:
        dims = replace(dims, insert_layer=dims.L_v - 1)
    model = init_frozen_model(7, dims, variant)
    store = embed_gallery(model, ds)
    text = encode_text(model, bench.queries[0].text_tokens)
    touched = ds.records if step == "rerank" else ds.records[:24]
    for rec in touched:
        frozen_text(model, rec)  # a loss's text entries predate the prefix
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if step == "rerank":
            rerank(model, ds, stage1_rank(store, text), len(touched), text)
        else:
            variant_batch_loss(model, touched, "per_row", {})
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    for i, rec in enumerate(ds.records):
        prefixed = i < len(touched)
        assert sorted(key[1] for key in rec.frozen) == (
            ["image", "prefix", "text"] if prefixed else ["image"])
    values = (5 * dims.d_v + 1) * (dims.P + 1)
    if late:
        kept_rows = encoders.kept_rows(model)
        values += (3 * dims.d_v + 1) * (dims.P + 1) + (kept_rows.stop - kept_rows.start) * dims.d_v
    prefix_bytes = values * np.dtype(model.dtype).itemsize
    assert kept < 1.2 * len(touched) * prefix_bytes, kept


# sha256 of the float64 learnability bits of a fraction-1 selection over
# PLAN, per OpenBLAS core (conftest.core_table), taken when every batch still
# re-encoded its frozen work, and for C and S again when the last image block
# came to compute only the CLS row, and for Katmai again when the insert
# block's image and prompt rows came to run their pre-attention as groups of
# their own; a randomized mapper makes the prompts non-zero.
# B ignores the conditioning, so its two conditionings agree.
LEARNABILITY_CASES = sorted((variant, conditioning, insert_layer) for variant in "BCS"
                            for conditioning in ("diagonal", "per_row")
                            for insert_layer in (0, LATE))
LEARNABILITY = {
    ("SkylakeX",): {
        ("C", "per_row", 0):
            "5a094126ad3ed340232bf88f748d64b26a51557fd2f7d80739541461cfd2b044",
        ("C", "per_row", LATE):
            "c89621b1899873697e49d820319577b034f97b6b00417e0a7a433c40385bd029",
        ("C", "diagonal", 0):
            "c1647653f1bebbe9771b2261c35ce5e2409d11b4009c170fb235e8d2dcc5a764",
        ("C", "diagonal", LATE):
            "405faac15c791c8b24b4f43d89bd755767262bb4e77b6e09b63bae69fff89d51",
        ("S", "per_row", 0):
            "b38456b1beb0e79484d1b016162822cbd50c67706cfb62bb55559be6b4f8b186",
        ("S", "per_row", LATE):
            "20d7e8fa62017bc37ea2eb2eafac3caddeb7444b18b369951933c2209d558f8c",
        ("S", "diagonal", 0):
            "af7dca56c8fb484f6c3d97ff00f0cfb1e2264b9abbfe762bfd7ef46c219aa7cc",
        ("S", "diagonal", LATE):
            "01be0330ff8672454a1df0444e8d44e0cc2d57f54eda4ede7e2e493e30229d98",
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
            "6a06310b9e64778fe1241371c7c2724cc6f14ba9c70c1431ac6407ed1dd79708",
        ("C", "per_row", LATE):
            "2e8994ccd437c86a4a74a258a179c03f1cfc3694d877cbab4c03d61d27ac5a9c",
        ("C", "diagonal", 0):
            "414e4e3923f0a00feead6231a57d9e3fc5cdfdf42919420414d983a48719fdf9",
        ("C", "diagonal", LATE):
            "ae158ed6f42c23f4310c1219873f9b504cda1001fc1631eb7d62ad103665f160",
        ("S", "per_row", 0):
            "e33b4b9831b1729089284068722e13437b7dc294d2bffc365bb0ac261e71510e",
        ("S", "per_row", LATE):
            "5254ad14f9788ebdd891c2ff2b872c8225254c39bab8cdfc4e11a8b3cd62518e",
        ("S", "diagonal", 0):
            "79e7efa1affb270f1e70a29b807bd5d28c48936da363bcc5da77dad5b541f203",
        ("S", "diagonal", LATE):
            "2f294ee705e83e3d7b1ab3e3a51a42a4679245fc0faef84d7ef431e24dcc0416",
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
            "d553fecc37777cc395c0b61d8ae9326842d99f3be0bfd0c3b8341679c1c78eff",
        ("C", "per_row", LATE):
            "4f5af244966be120b36b1826f785bfdde62e71f548cf89cf30a163591804b018",
        ("C", "diagonal", 0):
            "b2af793f23c88a64eb6a00b6b9461ef22d84fb1066d88e4a4576f8ffecc9821f",
        ("C", "diagonal", LATE):
            "394560ebd23163ccb1980cccf3a91be812065a3fc05ff45da010e1017a4565b5",
        ("S", "per_row", 0):
            "1557c6c35a6877ddb83d9ff397e01871f54d4802d576dbf34abb59d4145f4fcf",
        ("S", "per_row", LATE):
            "518103d0c5abe491c517e3c23541b07866502f6598706acee25b39e970b9b1fb",
        ("S", "diagonal", 0):
            "705c532c644bb4b0d7636b05e59cbd8bd59ddb44ccd83246b80be4010e817649",
        ("S", "diagonal", LATE):
            "9c1ba27783f0f8c8626d6f989f9c4d8fd635a5b0abfb0a878fcd302203c98ac1",
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
            "e8be8d7cf6f1bd35c421a332de35ba4918209eab460e24e0b8eb993686142488",
        ("C", "per_row", LATE):
            "b62064e49d94d2782541138166a98f080f5ff80d71e2c84d3c4cf1f1ea1cde4a",
        ("C", "diagonal", 0):
            "6e7d56a149c0b09f259927301f850e9131f1c557c1bac9b36628db90a3eb189b",
        ("C", "diagonal", LATE):
            "0ce69d9529090a241a16d6063e3ec91ad46c14c4dafc8df2921b424238041a69",
        ("S", "per_row", 0):
            "b32ae43da4361952c47c5dfae57865924ab23d0749f2005c37033496f695b488",
        ("S", "per_row", LATE):
            "34b869abdbc63288dd3b7bf4ec332c05ffe1fb1c912cc83cdf6e032925cadd10",
        ("S", "diagonal", 0):
            "3ac8552080641fd0a786c63bf62b2411abcc0986166f9b47bfcafbe30366a41e",
        ("S", "diagonal", LATE):
            "2ab144dc105cbacd2def6a5a3696c718d507df055cf353f6225b5751e3234c82",
        ("B", "per_row", 0):
            "2a30c1e63c10b949f933ddbe89803953a43e8b25191c79ce2ef45f117c85e1b6",
        ("B", "per_row", LATE):
            "566ae086154d45a68a33a719fc6112ee34a93d4525c3ffe45b0e815531f62c13",
        ("B", "diagonal", 0):
            "2a30c1e63c10b949f933ddbe89803953a43e8b25191c79ce2ef45f117c85e1b6",
        ("B", "diagonal", LATE):
            "566ae086154d45a68a33a719fc6112ee34a93d4525c3ffe45b0e815531f62c13",
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
