"""The benchmark under perfbench/ wraps package functions by name and calls
others directly. A refactor that deletes or renames one of them must fail
here, not only when the benchmark runs. The benchmark files are read, never
edited or imported as a package: tracer.py is loaded by path, and the
workload and self-test files are only parsed."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import elip.cli  # noqa: F401  (loads every elip module, as the benchmark does)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_references(path):
    """(module, name) of every elip name the file imports, and of every
    attribute it calls on an imported elip module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "elip":
            for alias in node.names:
                refs.add((node.module, alias.name))
                if node.module == "elip":
                    modules[alias.asname or alias.name] = f"elip.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            refs.add((modules[node.func.value.id], node.func.attr))
    return refs


def test_every_traced_function_resolves():
    tracer = _load_tracer()
    missing = [f"{m}.{a}" for m, a in tracer.TARGETS if tracer._resolve(m, a) is None]
    assert not missing, f"traced functions not found: {missing}"


def test_every_name_the_benchmark_uses_resolves():
    refs = set()
    for name in ("workloads.py", "selftest.py"):
        refs |= _package_references(PERFBENCH / name)
    missing = sorted(
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"names the benchmark uses are gone: {missing}"


def test_wrapped_references_are_one_function():
    """The tracer wraps image_forward once and finds it under every name
    that holds it; the self-test checks these identities while wrapped."""
    from elip import encoders, objectives

    assert encoders.encode_image is encoders.image_forward
    assert objectives.image_forward is encoders.image_forward


def test_traced_training_and_rerank_keep_the_work_count_identities():
    """Wrapped as the benchmark wraps them, a per-row step scores its batch
    through the traced C/S loss layer, encodes B^2 images and runs one
    prompt backward per text; a k re-rank, C or B, maps prompts once per
    query and encodes k images per query (B scores them with one ITM-head
    call); every image block sees the rows its layout predicts, and no
    wrapped call raises."""
    from conftest import TINY, make_records, randomize_mapper
    from elip.config import MapperConfig, TrainConfig
    from elip.curation import CurationPlan, PairDataset
    from elip.encoders import encode_text, init_frozen_model
    from elip.retrieval import embed_gallery, rerank, stage1_rank
    from elip.trainer import train

    tracer = _load_tracer()
    model = randomize_mapper(init_frozen_model(7, TINY, "C", MapperConfig(hidden=8)))
    ds = PairDataset(records=make_records(6))
    b, steps, k = 3, 2, 4
    store = embed_gallery(model, ds)

    tr = tracer.Tracer()
    with tr:
        train(model, ds, CurationPlan(batches=[[0, 1, 2], [3, 4, 5]]),
              TrainConfig(variant="C", steps=steps, lr=1e-2))
    stats = tr.layer_stats()
    assert stats["encoders.image_forward.calls"] == steps * b * b
    assert stats["encoders.image_backward.calls"] == steps * b
    assert stats["objectives.build_score_matrix_with_caches.calls"] == steps
    assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
    assert stats["trace.errors"] == 0

    queries = ds.records[:2]
    model_b = randomize_mapper(init_frozen_model(7, TINY, "B", MapperConfig(hidden=8)))
    for model, store in ((model, store), (model_b, embed_gallery(model_b, ds))):
        tr = tracer.Tracer()
        with tr:
            for rec in queries:
                text_enc = encode_text(model, rec.tokens)
                rerank(model, ds, stage1_rank(store, text_enc), k, text_enc)
        stats = tr.layer_stats()
        assert stats["encoders.image_forward.calls"] == len(queries) * k
        assert stats["encoders.image_forward.prompted_calls"] == len(queries) * k
        assert stats["prompt_mapper.map_prompts_with_cache.calls"] == len(queries)
        # B scores each query's k candidates with one stacked ITM-head call
        assert stats.get("objectives.itm_forward.calls", 0) == (
            len(queries) if model.variant == "B" else 0)
        assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
        assert stats["trace.errors"] == 0


def test_traced_itm_loss_makes_one_head_call_per_batch_and_per_anchor():
    """Wrapped as the benchmark wraps them, a loss-only B batch (one JEST
    score) makes one stacked ITM-head forward and no backward; a training B
    batch makes one forward and one backward per anchor over its positive
    and its negative; every image block still sees the rows its layout
    predicts."""
    from conftest import TINY, make_records, randomize_mapper
    from elip.config import MapperConfig
    from elip.encoders import init_frozen_model
    from elip.objectives import variant_batch_loss

    tracer = _load_tracer()
    model = randomize_mapper(init_frozen_model(7, TINY, "B", MapperConfig(hidden=8)))
    records = make_records(4)
    b = len(records)
    for grads, forwards, backwards in ((None, 1, 0), ({}, b, b)):
        tr = tracer.Tracer()
        with tr:
            variant_batch_loss(model, records, grads=grads)
        stats = tr.layer_stats()
        assert stats["objectives.itm_forward.calls"] == forwards
        assert stats.get("objectives.itm_backward.calls", 0) == backwards
        assert stats["encoders.image_forward.prompted_calls"] == 2 * b
        assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
        assert stats["trace.errors"] == 0


@pytest.mark.parametrize("variant", ["B", "C"])
def test_traced_late_fusion_keeps_the_work_count_identities(variant):
    """At insert_layer = L_v - 1, itm-late's layout, the benchmark's tracer
    counts a training run, a JEST selection and a k re-rank of variant B or
    C as it counts them at insert_layer 0: the image_forward calls each
    predicts, every one of them prompted, every image block seeing the rows
    its layout predicts, and no wrapped call raising."""
    from dataclasses import replace

    from conftest import TINY, make_records, randomize_mapper
    from elip.config import MapperConfig, TrainConfig
    from elip.curation import CurationPlan, PairDataset, select_by_learnability
    from elip.encoders import copy_without_prompts, encode_text, init_frozen_model
    from elip.retrieval import embed_gallery, rerank, stage1_rank
    from elip.trainer import train

    tracer = _load_tracer()
    dims = replace(TINY, insert_layer=TINY.L_v - 1)
    model = randomize_mapper(init_frozen_model(7, dims, variant, MapperConfig(hidden=8)))
    ds = PairDataset(records=make_records(6))
    store = embed_gallery(model, ds)  # the frozen entries, made before tracing
    plan = CurationPlan(batches=[[0, 1, 2], [3, 4, 5]])
    b, steps, k = 3, 2, 4
    per_step = 2 * b if variant == "B" else b * b

    def traced(run):
        tr = tracer.Tracer()
        with tr:
            run()
        stats = tr.layer_stats()
        assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
        assert stats["encoders.image_forward.prompted_calls"] == stats[
            "encoders.image_forward.calls"]
        assert stats["trace.errors"] == 0
        return stats["encoders.image_forward.calls"]

    cfg = TrainConfig(variant=variant, steps=steps, lr=1e-2, finetune_itm=variant == "B")
    assert traced(lambda: train(model, ds, plan, cfg)) == steps * per_step
    # the two batches share no record, so each of their pairs is distinct
    reference = copy_without_prompts(model)
    assert traced(lambda: select_by_learnability(plan, ds, model, reference, 1.0)) == (
        len(plan.batches) * per_step)
    queries = ds.records[:2]

    def rerank_queries():
        for rec in queries:
            text_enc = encode_text(model, rec.tokens)
            rerank(model, ds, stage1_rank(store, text_enc), k, text_enc)

    assert traced(rerank_queries) == len(queries) * k
