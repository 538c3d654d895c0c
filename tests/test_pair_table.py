"""The pair tables of one learnability selection: each distinct (text, image)
pair of the plan is encoded once and each distinct text mapped once per
selection, a B pair ITM-scored once per model, every learnability value
keeps the bits of its batch's own losses, and nothing of the tables
outlives the call."""

import copy
import gc
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from elip import curation, objectives
from elip.config import DimsConfig, MapperConfig, TrainConfig
from elip.curation import (
    CurationPlan,
    PairDataset,
    SynthSpec,
    gen_synthetic_dataset,
    mine_hard_batches,
    select_by_learnability,
)
from elip.encoders import copy_without_prompts, frozen_text, init_frozen_model
from elip.errors import ConfigError
from elip.objectives import PairTable, pick_itm_negatives, variant_batch_loss
from elip.trainer import train

from conftest import TINY, make_records, randomize_mapper

LATE = TINY.L_v - 1
CASES = [("C", "per_row", 0), ("S", "diagonal", 0), ("B", "per_row", 0), ("B", "per_row", LATE)]
CASE_IDS = ["C-per_row", "S-diagonal", "B-per_row", "B-per_row-late"]


def tiny_setup(variant, insert_layer):
    """A randomized-mapper TINY model and 8 records mined into 8 overlapping
    batches of 3, one per reference record."""
    dims = replace(TINY, insert_layer=insert_layer)
    model = randomize_mapper(init_frozen_model(7, dims, variant, MapperConfig(hidden=8)))
    ds = PairDataset(records=make_records(8))
    return model, ds, mine_hard_batches(ds, model, 3)


def learner_pairs(model, ds, plan, conditioning) -> set:
    """The distinct (text record, image record) pairs the learner encodes
    over the plan's batches."""
    pairs = set()
    for batch in plan.batches:
        if model.variant == "B":
            records = [ds.records[k] for k in batch]
            negatives = pick_itm_negatives(model, records, [frozen_text(model, r) for r in records])
            pairs |= {(k, batch[j]) for k, j in zip(batch, negatives)}
            pairs |= {(k, k) for k in batch}
        elif conditioning == "per_row":
            pairs |= {(i, j) for i in batch for j in batch}
        else:
            pairs |= {(k, k) for k in batch}
    return pairs


def fresh_learnability(plan, ds, learner, reference, conditioning) -> list:
    """loss(learner) - loss(reference) of each batch, each loss its own
    table-free call."""
    return [variant_batch_loss(learner, records, conditioning)
            - variant_batch_loss(reference, records, conditioning)
            for records in ([ds.records[k] for k in batch] for batch in plan.batches)]


def hexes(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("variant, conditioning, insert_layer", CASES, ids=CASE_IDS)
def test_selection_encodes_each_distinct_pair_and_text_once(monkeypatch, variant, conditioning,
                                                            insert_layer):
    model, ds, plan = tiny_setup(variant, insert_layer)
    reference = copy_without_prompts(model)
    expected = fresh_learnability(plan, ds, model, reference, conditioning)
    pairs = learner_pairs(model, ds, plan, conditioning)
    assert len(pairs) < sum(len(b) ** 2 if conditioning == "per_row" else len(b)
                            for b in plan.batches), "the mined batches overlap"
    counts = {"encodes": 0, "maps": 0}
    real_forward, real_map = objectives.image_forward, objectives.map_prompts_with_cache

    def spy_forward(*args, **kwargs):
        counts["encodes"] += 1
        return real_forward(*args, **kwargs)

    def spy_map(*args, **kwargs):
        counts["maps"] += 1
        return real_map(*args, **kwargs)

    monkeypatch.setattr(objectives, "image_forward", spy_forward)
    monkeypatch.setattr(objectives, "map_prompts_with_cache", spy_map)
    selected = select_by_learnability(plan, ds, model, reference, 1.0, conditioning)
    assert counts == {"encodes": len(pairs), "maps": len({i for i, _ in pairs})}
    assert selected.batches == plan.batches
    assert hexes(selected.learnability) == hexes(expected)


@pytest.mark.parametrize("insert_layer", [0, LATE], ids=["B-per_row", "B-per_row-late"])
def test_selection_itm_scores_each_distinct_pair_once_per_model(monkeypatch, insert_layer):
    """The learner's table and the prompt-free reference's each hold every
    pair's ITM logit, so each model's head scores each distinct pair of the
    plan once, not each pair of every batch; every learnability value keeps
    the bits of its batch's table-free losses."""
    model, ds, plan = tiny_setup("B", insert_layer)
    reference = copy_without_prompts(model)
    expected = fresh_learnability(plan, ds, model, reference, "per_row")
    pairs = learner_pairs(model, ds, plan, "per_row")
    assert len(pairs) < 2 * sum(len(b) for b in plan.batches), "the mined batches overlap"
    side = {id(model.itm_head): "learner", id(reference.itm_head): "reference"}
    scored = Counter()
    real = objectives.itm_forward

    def spy(head, t_cls, patch_states):
        scored[side[id(head)]] += int(np.prod(patch_states.shape[:-2]))
        return real(head, t_cls, patch_states)

    monkeypatch.setattr(objectives, "itm_forward", spy)
    selected = select_by_learnability(plan, ds, model, reference, 1.0, "per_row")
    assert scored == {"learner": len(pairs), "reference": len(pairs)}
    assert hexes(selected.learnability) == hexes(expected)


def test_selections_around_a_mapper_update_each_read_their_own_mapper():
    model, ds, plan = tiny_setup("C", 0)
    reference = copy_without_prompts(model)
    results = []
    for seed in (5, 6):
        randomize_mapper(model, seed=seed)
        selected = select_by_learnability(plan, ds, model, reference, 1.0, "per_row")
        assert hexes(selected.learnability) == hexes(
            fresh_learnability(plan, ds, model, reference, "per_row"))
        results.append(hexes(selected.learnability))
    assert results[0] != results[1]


@pytest.mark.parametrize("variant, insert_layer", [("C", 0), ("B", LATE)])
def test_jest_training_keeps_the_loss_trace_of_table_free_selection(variant, insert_layer):
    """train with jest_fraction=0.5 trains on the batches a table-free
    selection keeps and gives the loss trace training on them alone gives."""
    model, ds, plan = tiny_setup(variant, insert_layer)
    fields = dict(variant=variant, steps=4, lr=1e-2, seed=7, finetune_itm=variant == "B")
    diffs = fresh_learnability(plan, ds, model, copy_without_prompts(model), "per_row")
    ranked = sorted(range(len(diffs)), key=lambda k: (-diffs[k], k))
    kept = CurationPlan(batches=[plan.batches[k] for k in sorted(ranked[:4])])
    _, expected = train(copy.deepcopy(model), ds, kept, TrainConfig(**fields))
    _, trace = train(copy.deepcopy(model), ds, plan, TrainConfig(jest_fraction=0.5, **fields))
    assert np.asarray(trace).tobytes() == np.asarray(expected).tobytes()


def test_a_pair_table_serves_loss_only_calls():
    model, ds, _ = tiny_setup("C", 0)
    with pytest.raises(ConfigError):
        variant_batch_loss(model, ds.records[:3], "per_row", {}, pair_table=PairTable())


def held_bytes(arrays) -> int:
    """What arrays hold: each view's numpy header, and each data buffer with
    its owner's header once."""
    owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
              for a in arrays}
    return (sum(sys.getsizeof(a) for a in arrays if a.base is not None)
            + sum(sys.getsizeof(owner) for owner in owners.values()))


@pytest.mark.parametrize("variant, conditioning, late", [
    ("C", "per_row", False), ("B", "per_row", True),
], ids=["C-per_row", "B-per_row-late"])
def test_selection_table_holds_its_entries_alone_and_only_during_the_call(
        monkeypatch, variant, conditioning, late):
    """At A3 shape (float32), the tables of a selection over a mined plan of
    24 records hold under 1.2 x (distinct pairs x scored-part bytes +
    distinct texts x prompt-entry bytes) of traced memory, numpy's array
    headers counted in each entry: 240 B for a C/S v_joint, 24 B for a B
    logit (a Python float), about 7.5 KB for a prompt entry (6.2 KB at
    insert_layer L_v - 1, where no prompt row has a query). The prompt-free
    reference's table holds B's logits too, and nothing for C/S, whose
    pairs read the records' frozen entries. Once the call returns they
    hold nothing."""
    dims = DimsConfig()
    if late:
        dims = replace(dims, insert_layer=dims.L_v - 1)
    ds, _ = gen_synthetic_dataset(8, SynthSpec(N=24, clusters=4))
    model = randomize_mapper(init_frozen_model(7, dims, variant), scale=0.05)
    reference = copy_without_prompts(model)
    plan = mine_hard_batches(ds, model, 3)
    select_by_learnability(plan, ds, model, reference, 1.0, conditioning)  # frozen entries
    tables = []

    def kept_table():
        tables.append(PairTable())
        return tables[-1]

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        select_by_learnability(plan, ds, model, reference, 1.0, conditioning)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
        monkeypatch.setattr(curation, "PairTable", kept_table)
        select_by_learnability(plan, ds, model, reference, 1.0, conditioning)
        gc.collect()
        with_table = tracemalloc.get_traced_memory()[0]
        table, reference_table = tables
        pairs, texts = len(table.scored), len(table.prompts)
        reference_pairs = len(reference_table.scored)
        assert not reference_table.prompts
        part = next(iter(table.scored.values()))
        prompts, group = next(iter(table.prompts.values()))
        part_bytes = sys.getsizeof(part) if variant == "B" else held_bytes([part])
        prompt_bytes = held_bytes([prompts, *group])
        del table, reference_table, part, prompts, group
        tables.clear()
        gc.collect()
        held = with_table - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pairs == len(learner_pairs(model, ds, plan, conditioning))
    assert texts == ds.N
    if variant == "B":
        assert reference_pairs == pairs and part_bytes == sys.getsizeof(0.0)
    else:
        assert reference_pairs == 0
        assert part_bytes == sys.getsizeof(np.empty(dims.d_e, model.dtype))
    bound = (pairs + reference_pairs) * part_bytes + texts * prompt_bytes
    assert bound <= held < 1.2 * bound, (held, bound)
    assert left < 0.05 * bound, left
