"""Self-test of the benchmark: tracer coverage, traced == untraced outputs,
and the work-count identities, on small inputs.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  The file name keeps it out of the
repository's pytest collection; it tests the benchmark, not the package.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_package()

import elip.cli  # noqa: E402,F401  (loads every elip module)
import tracer as tracing  # noqa: E402
from elip import encoders, retrieval, rng  # noqa: E402
from elip.config import DimsConfig  # noqa: E402
from elip.curation import SynthSpec, gen_synthetic_dataset  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

WORK = os.path.join(run.OUT, "selftest")

SMALL = {
    "train-perrow": {"N": 24, "clusters": 4, "B": 3, "steps": 4, "save_every": 2},
    "rerank-deep": {"N": 30, "clusters": 5, "k": 5, "queries": 4},
    "cli-wide": {"N": 30, "clusters": 5, "k": 2},
    "itm-late": {"N": 20, "clusters": 4, "B": 3, "fraction": 0.5, "steps": 3,
                 "k": 4, "queries": 4},
}


def small(name):
    return WORKLOADS[name](os.path.join(WORK, name), 11, **SMALL[name])


def traced_pass(workload, state):
    tr = tracing.Tracer()
    with tr:
        result = workload.run_pass(state, Recorder(tr))
    return result, tr


def drawn_elements(dims: DimsConfig, hidden: int) -> int:
    """Elements of every weight matrix init_frozen_model draws for variant C:
    embeddings, CLS and positions, 12*d^2 per block, projections and the
    first two mapper layers (the last mapper layer starts at zero)."""
    d_t, d_v = dims.d_t, dims.d_v
    return (dims.vocab * d_t + (dims.m + 1) * d_t + d_t + dims.L_t * 12 * d_t * d_t
            + dims.d_e * d_t + d_v * dims.d_in + (dims.P + 1) * d_v + d_v
            + dims.L_v * 12 * d_v * d_v + dims.d_e * d_v + hidden * d_t + hidden * hidden)


# ---------------------------------------------------------------------------


def test_every_reference_is_wrapped_and_restored():
    modules = tracing.elip_modules()
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    gaussian = vars(rng.Rng)["gaussian_matrix"]
    tr = tracing.Tracer()
    with tr:
        originals = tr.originals()
        missing = [f"{m}.{a}" for m, a in tracing.TARGETS if tracing._resolve(m, a) is None]
        # a layer that is gone would report zeros, which reads as a gain
        assert not missing, f"traced functions not found: {missing}"
        leftover = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
                    if id(v) in originals]
        assert not leftover, f"unwrapped references: {leftover}"
        assert vars(rng.Rng)["gaussian_matrix"] is not gaussian
        # a name imported into another module is wrapped there too
        assert hasattr(encoders.image_forward, "__wrapped__")
        from elip import objectives, trainer
        assert objectives.image_forward is encoders.image_forward
        assert trainer.image_forward is encoders.image_forward
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"not restored: {changed}"
    assert vars(rng.Rng)["gaussian_matrix"] is gaussian


def test_traced_outputs_equal_untraced():
    for name in WORKLOADS:
        workload = small(name)
        state = workload.setup()
        plain = workload.run_pass(state, Recorder())
        traced, tr = traced_pass(workload, state)
        assert not plain.failed and not traced.failed, (name, plain.notes, traced.notes)
        assert plain.digest == traced.digest, f"{name}: traced outputs differ"
        assert tr.spans and not tr.errors, name
        assert run.broken_identities(tr.layer_stats(), 1, workload.image_forward_calls(state)) == []


def test_probe_time_is_not_layer_time():
    """Probe runs inside a traced call (the per-step hook inside train) are
    reported to the tracer: the parent's self time leaves them out."""
    workload = small("train-perrow")
    state = workload.setup()
    _, tr = traced_pass(workload, state)
    spans = tr.spans
    train = [i for i, s in enumerate(spans) if s[0] == "trainer.train"]
    assert len(train) == 1
    parents = tr.harness_parents()
    inside = [(a, b) for (a, b), p in zip(tr.harness, parents) if p == train[0]]
    assert inside and all(p in (-1, train[0]) for p in parents)
    total = spans[train[0]][2] - spans[train[0]][1]
    direct = sum(s[2] - s[1] for s in spans if s[3] == train[0])
    probed = sum(b - a for a, b in inside)
    stats = tr.layer_stats()
    assert abs(stats["trainer.train.self_s"] - (total - direct - probed)) < 1e-9
    assert not any(k.startswith(tracing.HARNESS_SPAN) for k in stats)
    assert stats["trace.spans"] == len(spans)


def test_probe_at_any_bytecode_of_a_traced_call():
    """The interval timer's probe may land between any two bytecodes of a
    tracer wrapper.  Run one at every bytecode of every wrapper call of a
    small re-rank pass: the spans, the counts and the outputs must be those
    of a pass without probes, and each probe goes to the call it interrupted."""
    workload = small("rerank-deep")
    state = workload.setup()
    plain = workload.run_pass(state, Recorder())
    tr = tracing.Tracer()
    rec = Recorder(tr)
    real_probe, workloads.probe = workloads.probe, lambda: 1e-6
    injected = []

    def opcode(frame, event, arg):
        if event == "opcode":
            injected.append(frame.f_locals.get("name"))
            rec._sample(None, None)
        return opcode

    def on_call(frame, event, arg):
        if frame.f_code is not wrapper_code:
            return None
        frame.f_trace_opcodes = True
        return opcode

    try:
        with tr:
            wrapper_code = encoders.image_forward.__code__
            sys.settrace(on_call)
            try:
                result = workload.run_pass(state, rec)
            finally:
                sys.settrace(None)
    finally:
        workloads.probe = real_probe
    assert len(injected) > 100 * len(state["indices"])
    assert not result.failed and result.digest == plain.digest, result.notes
    assert all(s[0] != tracing.HARNESS_SPAN for s in tr.spans)
    assert run.broken_identities(tr.layer_stats(), 1, workload.image_forward_calls(state)) == []
    # a probe taken between a wrapper's start and end times is charged to it
    parents = tr.harness_parents()
    for (a, b), p in zip(tr.harness, parents):
        if p >= 0:
            assert tr.spans[p][1] <= a and b <= tr.spans[p][2]
    assert sum(p >= 0 for p in parents) > len(tr.spans)


def test_work_count_identities():
    # per-row training: steps * B^2 image encodes, and every block of an
    # insert_layer=0 encode sees P+1+n rows
    w = small("train-perrow")
    state = w.setup()
    res, tr = traced_pass(w, state)
    stats = tr.layer_stats()
    p, dims = w.p, state["model"].dims
    assert stats["encoders.image_forward.calls"] == p["steps"] * p["B"] ** 2
    assert stats["encoders.image_backward.calls"] == p["steps"] * p["B"] ** 2
    assert stats["trainer.adam_step.calls"] == p["steps"]
    full = dims.P + 1 + dims.n
    assert stats[f"encoders.image_block_rows.{full}"] == stats["encoders.image_forward.calls"] * dims.L_v
    assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
    assert stats["storage.save_checkpoint.calls"] == p["steps"] // p["save_every"]

    # re-ranking: queries * k image encodes
    w = small("rerank-deep")
    state = w.setup()
    res, tr = traced_pass(w, state)
    stats = tr.layer_stats()
    assert stats["encoders.image_forward.calls"] == w.p["queries"] * w.p["k"]
    assert stats["retrieval.rerank.candidates"] == w.p["queries"] * w.p["k"]
    assert stats["encoders.encode_text.calls"] == w.p["queries"]

    # late fusion: a prompted encode has P+1 rows before insert_layer and
    # P+1+n from it on; an unprompted one has P+1 everywhere
    w = small("itm-late")
    state = w.setup()
    res, tr = traced_pass(w, state)
    stats = tr.layer_stats()
    dims = state["model"].dims
    prompted = stats["encoders.image_forward.prompted_calls"]
    calls = stats["encoders.image_forward.calls"]
    late = dims.L_v - dims.insert_layer
    assert stats[f"encoders.image_block_rows.{dims.P + 1 + dims.n}"] == prompted * late
    assert stats[f"encoders.image_block_rows.{dims.P + 1}"] == calls * dims.L_v - prompted * late
    assert stats["encoders.image_block_rows"] == stats["encoders.image_block_rows_expected"]
    kept = math.ceil(w.p["fraction"] * len(state["plan"].batches))
    assert stats["curation.select_by_learnability.batches_kept"] == kept

    # load_checkpoint re-draws every weight matrix of init_frozen_model
    w = small("cli-wide")
    state = w.setup()
    res, tr = traced_pass(w, state)
    stats = tr.layer_stats()
    loads = stats["storage.load_checkpoint.calls"]
    assert loads == 2  # rank and rerank
    per_load = drawn_elements(DimsConfig(), 4 * DimsConfig().d_v)
    assert stats["storage.load_checkpoint.rng_draws"] == loads * per_load
    assert stats["cli.cmd_rank.calls"] == 1 and stats["cli.cmd_curve.calls"] == 1


def test_flops_match_estimator_without_prompts():
    """The estimator's convention is exact for a prompt-free encode; with
    prompts, executed work exceeds it (prompt rows get Q and MLP work)."""
    ds, _ = gen_synthetic_dataset(3, SynthSpec(N=6, clusters=3))
    model = encoders.init_frozen_model(3, DimsConfig(), "C")
    tr = tracing.Tracer()
    with tr:
        retrieval.embed_gallery(model, ds)
    stats = tr.layer_stats()
    assert stats["encoders.flops_executed"] == stats["encoders.flops_estimated"] > 0
    tr = tracing.Tracer()
    with tr:
        prompts = retrieval.prompts_for_text(model, encoders.encode_text(model, ds.records[0].tokens))
        encoders.encode_image(model, ds.records[0].patches, prompts)
    stats = tr.layer_stats()
    assert stats["encoders.flops_executed"] > stats["encoders.flops_estimated"]


def test_bare_directory_fails():
    """With only BENCHMARK.json and perfbench/, the runner exits non-zero
    and prints no result."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rerank-deep", "--seed", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
