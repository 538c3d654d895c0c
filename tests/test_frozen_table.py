"""The per-record frozen table: each record's frozen work runs once per
table, and selection and training give the same bytes as re-encoding."""

import hashlib
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from elip import encoders
from elip.config import MapperConfig, TrainConfig
from elip.curation import CurationPlan, PairDataset, select_by_learnability
from elip.encoders import FrozenTable, copy_without_prompts, init_frozen_model
from elip.errors import ConfigError
from elip.objectives import variant_batch_loss
from elip.trainer import train

from conftest import TINY, make_records, randomize_mapper

LATE = TINY.L_v - 1
PLAN = [[0, 1, 2], [3, 4, 5], [6, 7, 0], [1, 3, 5]]


def model_for(variant, insert_layer=0):
    dims = replace(TINY, insert_layer=insert_layer)
    return randomize_mapper(init_frozen_model(7, dims, variant, MapperConfig(n=dims.n, hidden=8)))


def patch_everywhere(monkeypatch, orig, replacement):
    """Replace orig in every elip module that holds it by any name."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "elip" or name.startswith("elip.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, replacement)


class EncodeSpy:
    """Counts prompt-free image encodes and text encodes per (model, record),
    frozen tables built per model, and backward passes of prompt-free
    encodings."""

    def __init__(self, monkeypatch):
        self.images = Counter()
        self.texts = Counter()
        self.tables = Counter()
        self.prompt_free_backwards = 0
        forward, backward, text = encoders.image_forward, encoders.image_backward, encoders.encode_text
        init = FrozenTable.__init__

        def spy_forward(model, patches, prompts=None):
            if prompts is None or np.size(prompts) == 0:
                self.images[id(model), id(patches)] += 1
            return forward(model, patches, prompts)

        def spy_backward(model, enc, *args, **kwargs):
            self.prompt_free_backwards += enc.prompt_count == 0
            return backward(model, enc, *args, **kwargs)

        def spy_text(model, tokens):
            self.texts[id(model), id(tokens)] += 1
            return text(model, tokens)

        def spy_init(table, model):
            self.tables[id(model)] += 1
            init(table, model)

        patch_everywhere(monkeypatch, forward, spy_forward)
        patch_everywhere(monkeypatch, backward, spy_backward)
        patch_everywhere(monkeypatch, text, spy_text)
        monkeypatch.setattr(FrozenTable, "__init__", spy_init)

    def check(self):
        assert self.images and self.texts
        for counts in (self.images, self.texts):
            for (model_id, _), n in counts.items():
                assert n <= self.tables[model_id], "a record was re-encoded within one table"
        assert self.prompt_free_backwards == 0


@pytest.mark.parametrize("variant, conditioning", [
    ("C", "per_row"), ("S", "diagonal"), ("B", "per_row"),
])
def test_selection_encodes_each_record_once_per_table(monkeypatch, variant, conditioning):
    model = model_for(variant)
    ds = PairDataset(records=make_records(8))
    spy = EncodeSpy(monkeypatch)
    select_by_learnability(CurationPlan(batches=PLAN), ds, model, copy_without_prompts(model),
                           0.5, conditioning)
    spy.check()
    assert sorted(spy.tables.values()) == [1, 1]  # learner and reference


# tables per model: the step loop's, plus with JEST the selection's
# learner and reference tables
@pytest.mark.parametrize("fields, tables", [
    (dict(variant="B", finetune_itm=True), [1]),
    (dict(variant="C", conditioning="per_row", jest_fraction=0.5), [1, 2]),
], ids=["B-finetune", "C-per_row-jest"])
def test_training_encodes_each_record_once_per_table(monkeypatch, fields, tables):
    model = model_for(fields["variant"], LATE)
    ds = PairDataset(records=make_records(8))
    spy = EncodeSpy(monkeypatch)
    train(model, ds, CurationPlan(batches=PLAN), TrainConfig(steps=6, lr=1e-2, seed=7, **fields))
    spy.check()
    assert sorted(spy.tables.values()) == tables


def test_table_belongs_to_one_model():
    model = model_for("C")
    records = make_records(3)
    with pytest.raises(ConfigError):
        variant_batch_loss(model, records, table=FrozenTable(copy_without_prompts(model)))


def test_table_image_keeps_no_backward_cache():
    model = model_for("B", LATE)
    rec = make_records(1)[0]
    table = FrozenTable(model)
    enc = table.image(rec)
    full = encoders.image_forward(model, rec.patches)
    assert table.image(rec) is enc
    assert enc.prompt_count == 0 and not enc.block_caches and not enc.attn
    assert enc.v_joint.tobytes() == full.v_joint.tobytes()
    assert enc.patch_states.tobytes() == full.patch_states.tobytes()


# sha256 of the float64 learnability bits of a fraction-1 selection over
# PLAN, taken before the table existed (every batch re-encoded its frozen
# work); a randomized mapper makes the prompts non-zero. B ignores the
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
