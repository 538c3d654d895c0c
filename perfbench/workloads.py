"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next training step,
query or CLI command starts only after the previous one returns.  A
workload has a ``setup`` (timed as ``setup_s``) and a ``run_pass`` that
repeats identical work, so every pass must give byte-identical outputs;
the runner compares pass digests, which also proves that a traced pass
computes what an untraced pass computes.

Timing goes through a ``Recorder``: each timed segment (a request, a
checkpoint save, a JEST selection) runs between two short runs of a fixed
probe kernel, so the runner can express the segment in reference-speed
seconds (see ``run.py``).  Output checks run outside the timed segments.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import shutil
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

# Traced functions are called through their modules (curation.mine_hard_batches,
# not a name imported here), so the tracer's wrappers see every call.
from elip import cli, curation, encoders, retrieval, storage, trainer
from elip.config import FULL_SCALE_K, DimsConfig, TrainConfig
from elip.curation import SynthSpec, gen_synthetic_dataset, query_id
from elip.encoders import bundles_equal, copy_without_prompts, frozen_bytes, init_frozen_model
from elip.retrieval import embed_gallery
from elip.rng import Rng

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 7
# Re-ranked scores are cosines of float32 encodings; a batched or reordered
# encoder may move them by ~3e-7, so the reference allows 1e-5 absolute.
REFERENCE_ATOL = 1e-5

# The probe mixes small float32 matmuls with Python scalar work, like the
# package's own hot loops, so neighbours on a shared core slow it by about
# the same factor as a request.  It uses no elip code, so no change to the
# package can move it.
_PROBE_X = np.linspace(-1.0, 1.0, 27 * 32, dtype=np.float32).reshape(27, 32)
_PROBE_W = np.linspace(1.0, -1.0, 32 * 32, dtype=np.float32).reshape(32, 32)
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Seconds taken by the fixed probe kernel right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float((_PROBE_X @ _PROBE_W)[0, 0])
    return time.perf_counter() - t0


@dataclass
class PassResult:
    ops: int = 0  # operations attempted: steps, queries, commands, selections
    failed: set = field(default_factory=set)  # indices of failed operations
    digest: str = ""
    figures: dict = field(default_factory=dict)  # workload-specific numbers
    notes: list = field(default_factory=list)  # why operations failed

    def fail(self, op_index: int, why: str) -> None:
        self.failed.add(op_index)
        if len(self.notes) < 20:
            self.notes.append(why)


class Recorder:
    """Times segments between probe runs; sets the tracer's request id and
    pauses the tracer around output checks when a tracer is installed.

    A segment longer than PROBE_EVERY_S also runs the probe inside it, from
    an interval timer; that probe time is taken out of the segment.  With a
    tracer installed, each probe run is reported to it, so the span it
    interrupts does not count the probe as its own time."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._segments: list = []  # (kind, seconds, probe seconds of each sample)
        self._before = 0.0  # probe seconds just before the open segment
        self._inner: list = []  # probe seconds sampled inside the open segment
        self._spent = 0.0  # seconds the inner samples took

    def request(self, rid: str) -> None:
        if self.tracer is not None:
            self.tracer.request_id = rid

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def _probe(self) -> float:
        t0 = time.perf_counter()
        seconds = probe()
        if self.tracer is not None:
            self.tracer.harness.append((t0, time.perf_counter()))
        return seconds

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inner.append(self._probe())
        self._spent += time.perf_counter() - t0

    def start(self) -> float:
        self._before = self._probe()
        self._inner, self._spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return time.perf_counter()

    def _disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stop(self, kind: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        self._disarm()
        samples = [self._before, *self._inner, self._probe()]
        self._segments.append((kind, elapsed - self._spent, samples))

    @contextlib.contextmanager
    def timed(self, kind: str):
        t0 = self.start()
        try:
            yield
        finally:
            self.stop(kind, t0)

    def segments(self) -> list:
        """(kind, seconds, probe seconds) per segment, the probe time being
        the mean of the probe runs before, inside and after it.  Also stops
        the probe timer of a segment left open by an exception."""
        self._disarm()
        return [(kind, sec, sum(samples) / len(samples)) for kind, sec, samples in self._segments]


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _set_prompt_weights(model, seed: int) -> None:
    """Non-zero final mapper layer drawn from the seed, so prompts matter."""
    w = model.mapper.tensors["l3.weight"]
    scale = 1.0 / math.sqrt(w.shape[1])
    model.mapper.tensors["l3.weight"] = (
        Rng(seed).gaussian_matrix(*w.shape, scale).astype(w.dtype)
    )


def check_rerank(stage1, reranked, k: int, gallery: set) -> str:
    """Empty string when the re-ranked list is a permutation of the stage-1
    top-k followed by the unchanged stage-1 tail, over the whole gallery."""
    if {image_id for image_id, _ in stage1.entries} != gallery or len(stage1.entries) != len(gallery):
        return f"{stage1.query_id}: stage-1 ranking does not cover the gallery"
    top = sorted(image_id for image_id, _ in stage1.entries[:k])
    if sorted(image_id for image_id, _ in reranked.entries[:k]) != top:
        return f"{stage1.query_id}: re-ranked head is not a permutation of the stage-1 top-{k}"
    if list(reranked.entries[k:]) != list(stage1.entries[k:]):
        return f"{stage1.query_id}: tail below k={k} changed"
    if not all(math.isfinite(score) for _, score in reranked.entries[:k]):
        return f"{stage1.query_id}: non-finite re-ranked score"
    return ""


class Workload:
    name = ""
    # The segment kind behind op_ms_p50 / op_ms_p90; "pass" makes the whole
    # pass one request.
    request_kind = ""
    defaults: dict = {}

    def __init__(self, work_dir: str, seed: int, **overrides):
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown {self.name} parameters: {sorted(unknown)}")
        self.p = {**self.defaults, **overrides}
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    @property
    def at_reference(self) -> bool:
        return self.seed == REFERENCE_SEED and self.p == self.defaults

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, rec: Recorder) -> PassResult:
        raise NotImplementedError

    def image_forward_calls(self, state):
        """Image encodes one pass must run, where that count is exact; None
        where no closed form is checked."""
        return None


# ---------------------------------------------------------------------------
# shared query loop and training loop
# ---------------------------------------------------------------------------


def _query_loop(model, ds, store, bench, indices, k, rec, res, first_op=0):
    """encode_text -> stage1_rank -> rerank per query; returns the rankings."""
    pairs = []
    for n, qi in enumerate(indices):
        rec.request(f"q{n}")
        with rec.timed("query"):
            text_enc = encoders.encode_text(model, bench.queries[qi].text_tokens)
            stage1 = retrieval.stage1_rank(store, text_enc, query_id(qi))
            reranked = retrieval.rerank(model, ds, stage1, k, text_enc)
        pairs.append((stage1, reranked))
    gallery = set(store.ids)
    for n, (stage1, reranked) in enumerate(pairs):
        why = check_rerank(stage1, reranked, k, gallery)
        if why:
            res.fail(first_op + n, why)
    return pairs


def _rankings_digest(pairs) -> str:
    return _sha([(r.query_id, r.entries) for _, r in pairs])


def _timed_train(model, ds, plan, cfg, rec, save_dir=None, save_every=0):
    """train() with a per-step hook: one "step" segment per step, and a
    "save" segment per checkpoint save every `save_every` steps."""
    marks = {"last": 0}
    saved = []

    def hook(step, m):
        if step == marks["last"]:  # train() repeats the final step's hook
            return
        rec.stop("step", marks["t0"])
        marks["last"] = step
        if save_every and step % save_every == 0:
            path = os.path.join(save_dir, f"checkpoint-step{step}")
            with rec.timed("save"):
                storage.save_checkpoint(path, m)
            saved.append(path)
        if step < cfg.steps:
            rec.request(f"step{step + 1}")
            marks["t0"] = rec.start()

    rec.request("step1")
    marks["t0"] = rec.start()
    model, trace = trainer.train(model, ds, plan, replace(cfg, ckpt_interval=1), checkpoint_hook=hook)
    return model, trace, saved


def _check_training(model, trace, frozen, res, first_op):
    for i, loss in enumerate(trace):
        if not math.isfinite(loss):
            res.fail(first_op + i, f"step {i + 1}: non-finite loss {loss!r}")
    if frozen_bytes(model) != frozen:
        for i in range(len(trace)):
            res.fail(first_op + i, "frozen tensors changed during training")


# ---------------------------------------------------------------------------
# train-perrow
# ---------------------------------------------------------------------------


class TrainPerRow(Workload):
    """Per-row C training at the A3 pilot shape; saves every few steps."""

    name = "train-perrow"
    request_kind = "step"
    defaults = {"N": 200, "clusters": 20, "B": 12, "lr": 5e-3, "steps": 20,
                "save_every": 5, "n": 10, "insert_layer": 0}

    def setup(self):
        p = self.p
        ds, _ = gen_synthetic_dataset(self.seed, SynthSpec(N=p["N"], clusters=p["clusters"]))
        dims = DimsConfig(n=p["n"], insert_layer=p["insert_layer"])
        model = init_frozen_model(self.seed, dims, "C")
        plan = curation.mine_hard_batches(ds, model, p["B"])
        return {"ds": ds, "model": model, "plan": plan, "frozen": frozen_bytes(model)}

    def run_pass(self, state, rec):
        p = self.p
        res = PassResult()
        save_dir = os.path.join(self.work_dir, "pass")
        shutil.rmtree(save_dir, ignore_errors=True)
        os.makedirs(save_dir)
        cfg = TrainConfig(variant="C", steps=p["steps"], conditioning="per_row",
                          lr=p["lr"], seed=self.seed)
        model = copy.deepcopy(state["model"])
        model, trace, saved = _timed_train(model, state["ds"], state["plan"], cfg, rec,
                                           save_dir, p["save_every"])
        res.ops = len(trace)
        _check_training(model, trace, state["frozen"], res, 0)
        with rec.untraced():
            if saved and not bundles_equal(storage.load_checkpoint(saved[-1]), model):
                res.fail(len(trace) - 1, "last checkpoint does not reload to the trained model")
        res.figures = {"final_loss": float(np.mean(trace[-5:]))}
        res.digest = _sha(trace, *(_dir_digest(path) for path in saved))
        return res

    def image_forward_calls(self, state):
        return self.p["steps"] * self.p["B"] ** 2  # per_row: every text x every image


# ---------------------------------------------------------------------------
# rerank-deep
# ---------------------------------------------------------------------------


class RerankDeep(Workload):
    """Stage 2 at the paper's depth, k=100, prompts from a seeded mapper."""

    name = "rerank-deep"
    request_kind = "query"
    defaults = {"N": 200, "clusters": 20, "k": FULL_SCALE_K["C"]["standard"],
                "queries": 100, "n": 10}

    def setup(self):
        p = self.p
        ds, bench = gen_synthetic_dataset(self.seed, SynthSpec(N=p["N"], clusters=p["clusters"]))
        model = init_frozen_model(self.seed, DimsConfig(n=p["n"]), "C")
        _set_prompt_weights(model, self.seed + 1)
        store = embed_gallery(model, ds)
        count = min(p["queries"], len(bench.queries))
        indices = Rng(self.seed + 2).sample_without_replacement(len(bench.queries), count)
        return {"ds": ds, "bench": bench, "model": model, "store": store, "indices": indices}

    def run_pass(self, state, rec):
        res = PassResult(ops=len(state["indices"]))
        pairs = _query_loop(state["model"], state["ds"], state["store"], state["bench"],
                            state["indices"], self.p["k"], rec, res)
        if self.at_reference:
            self._check_reference(pairs, res)
        res.digest = _rankings_digest(pairs)
        return res

    def image_forward_calls(self, state):
        return len(state["indices"]) * self.p["k"]

    def _check_reference(self, pairs, res):
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            ref = json.load(fh)[self.name]
        by_qid = {r.query_id: (n, dict(r.entries)) for n, (_, r) in enumerate(pairs)}
        for qid, expected in ref["scores"].items():
            n, got = by_qid[qid]
            for image_id, score in expected.items():
                if image_id not in got or abs(got[image_id] - score) > REFERENCE_ATOL:
                    res.fail(n, f"{qid}/{image_id}: score differs from the reference")
                    break

    def reference(self, state) -> dict:
        """Top-10 re-ranked scores of the first five queries, for reference.json."""
        pairs = _query_loop(state["model"], state["ds"], state["store"], state["bench"],
                            state["indices"][:5], self.p["k"], Recorder(), PassResult())
        return {"seed": self.seed, "atol": REFERENCE_ATOL, "scores": {
            r.query_id: {image_id: score for image_id, score in r.entries[:10]}
            for _, r in pairs}}


# ---------------------------------------------------------------------------
# cli-wide
# ---------------------------------------------------------------------------


def _cli(argv) -> tuple[int, list]:
    """run_command in-process; returns (exit code, parsed status lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    lines = []
    for line in buf.getvalue().splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            lines.append({"raw": line})
    return code, lines


class CliWide(Workload):
    """The user command chain over a wide gallery, in-process.  One request
    is the whole chain, the latency a user of the pipeline waits for; each
    command is its own timed segment."""

    name = "cli-wide"
    request_kind = "pass"
    defaults = {"N": 300, "clusters": 24, "k": 3}

    def _paths(self):
        w = self.work_dir
        return {
            "data": os.path.join(w, "data"),
            "manifest": os.path.join(w, "data", "data.jsonl"),
            "bench": os.path.join(w, "data", "benchmark.json"),
            "model": os.path.join(w, "model"),
            "ckpt": os.path.join(w, "model", "checkpoint"),
            "gal": os.path.join(w, "gal"),
            "store": os.path.join(w, "gal", "gallery"),
            "ranked": os.path.join(w, "ranked"),
            "reranked": os.path.join(w, "reranked"),
            "eval": os.path.join(w, "eval"),
            "curve": os.path.join(w, "curve"),
        }

    def setup(self):
        p, paths, seed = self.p, self._paths(), str(self.seed)
        for argv in (
            ["gen-synth", "--out", paths["data"], "--n", str(p["N"]),
             "--clusters", str(p["clusters"]), "--seed", seed],
            ["init-model", "--out", paths["model"], "--variant", "C", "--seed", seed],
            ["embed-gallery", "--out", paths["gal"], "--model", paths["ckpt"],
             "--data", paths["manifest"], "--seed", seed],
        ):
            code, lines = _cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}: {lines}")
        return {}

    def chain(self) -> list:
        paths, seed = self._paths(), str(self.seed)
        common = ["--seed", seed, "--bench", paths["bench"]]
        return [
            ["rank", "--out", paths["ranked"], "--model", paths["ckpt"],
             "--gallery", paths["store"], *common],
            ["rerank", "--out", paths["reranked"], "--model", paths["ckpt"],
             "--data", paths["manifest"], "--rankings",
             os.path.join(paths["ranked"], "rankings.json"), "--k", str(self.p["k"]), *common],
            ["eval", "--out", paths["eval"], "--rankings",
             os.path.join(paths["reranked"], "rankings.json"), *common],
            ["curve", "--out", paths["curve"], "--rankings",
             os.path.join(paths["reranked"], "rankings.json"),
             "--kind", "precision_recall", *common],
        ]

    def run_pass(self, state, rec):
        commands = self.chain()
        res = PassResult(ops=len(commands))
        results = []
        for argv in commands:
            rec.request(argv[0])
            with rec.timed("command"):
                results.append(_cli(argv))

        for i, (argv, (code, lines)) in enumerate(zip(commands, results)):
            if code != 0 or not lines or lines[-1].get("status") != "ok":
                res.fail(i, f"{argv[0]} exited {code}: {lines[-1:]}")
        paths = self._paths()
        # Reading back the rankings costs a third of a pass, so only the
        # first pass reads them; later passes must match its digest.
        if not res.failed and not state.get("outputs_checked"):
            with rec.untraced():
                self._check_outputs(paths, res)
            state["outputs_checked"] = True
        res.digest = _sha(*(
            _dir_digest(paths[key]) for key in ("ranked", "reranked", "eval", "curve")))
        return res

    def image_forward_calls(self, state):
        return self.p["N"] * self.p["k"]  # rerank: k encodes for each of the N queries

    def _check_outputs(self, paths, res):
        n, k = self.p["N"], self.p["k"]
        stage1 = storage.read_rankings(os.path.join(paths["ranked"], "rankings.json"))
        reranked = storage.read_rankings(os.path.join(paths["reranked"], "rankings.json"))
        gallery = {f"img{i:04d}" for i in range(n)}
        if len(stage1) != n or len(reranked) != n:
            res.fail(0, f"expected {n} rankings, got {len(stage1)} and {len(reranked)}")
            return
        for s, r in zip(stage1, reranked):
            why = check_rerank(s, r, k, gallery)
            if why:
                res.fail(1, why)
                break
        with open(os.path.join(paths["curve"], "curve.csv"), "r", encoding="utf-8") as fh:
            if len(fh.read().splitlines()) != 22:
                res.fail(3, "precision-recall curve does not have 21 points")


# ---------------------------------------------------------------------------
# itm-late
# ---------------------------------------------------------------------------


class ItmLate(Workload):
    """Variant B, late fusion: JEST selection, ITM training, ITM re-ranking."""

    name = "itm-late"
    request_kind = "query"
    defaults = {"N": 100, "clusters": 10, "B": 6, "fraction": 0.1, "steps": 40,
                "lr": 5e-3, "k": FULL_SCALE_K["B"]["standard"], "queries": 100, "n": 10}

    def setup(self):
        p = self.p
        ds, bench = gen_synthetic_dataset(self.seed, SynthSpec(N=p["N"], clusters=p["clusters"]))
        base = DimsConfig(n=p["n"])
        dims = replace(base, insert_layer=base.L_v - 1)
        model = init_frozen_model(self.seed, dims, "B")
        plan = curation.mine_hard_batches(ds, model, p["B"])
        store = embed_gallery(model, ds)
        count = min(p["queries"], len(bench.queries))
        indices = Rng(self.seed + 2).sample_without_replacement(len(bench.queries), count)
        return {"ds": ds, "bench": bench, "model": model, "plan": plan, "store": store,
                "indices": indices, "frozen": frozen_bytes(model)}

    def run_pass(self, state, rec):
        p = self.p
        ds, plan = state["ds"], state["plan"]
        res = PassResult()
        model = copy.deepcopy(state["model"])

        rec.request("select")
        with rec.timed("select"):
            selected = curation.select_by_learnability(
                plan, ds, model, copy_without_prompts(model), p["fraction"], "per_row")
        cfg = TrainConfig(variant="B", steps=p["steps"], lr=p["lr"], finetune_itm=True,
                          seed=self.seed)
        model, trace, _ = _timed_train(model, ds, selected, cfg, rec)
        pairs = _query_loop(model, ds, state["store"], state["bench"], state["indices"],
                            p["k"], rec, res, first_op=1 + len(trace))
        res.ops = 1 + len(trace) + len(pairs)

        expected = math.ceil(p["fraction"] * len(plan.batches))
        if len(selected.batches) != expected:
            res.fail(0, f"JEST kept {len(selected.batches)} batches, expected {expected}")
        _check_training(model, trace, state["frozen"], res, 1)
        res.figures = {"final_loss": float(np.mean(trace[-5:])),
                       "batches_scored": len(plan.batches)}
        res.digest = _sha(selected.batches, trace, _rankings_digest(pairs))
        return res


WORKLOADS = {cls.name: cls for cls in (TrainPerRow, RerankDeep, CliWide, ItmLate)}
