"""Outside-in layer tracer for the elip package.

The tracer swaps each traced function for a wrapper in every ``elip``
module that holds a reference to it (several modules import functions such
as ``image_forward`` by name, so patching only the defining module would
miss calls), records one span per call and puts every original back on
``uninstall``.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent_index, request_id]`` with times from
``time.perf_counter``.  Spans stay in memory until ``write_spans``.  Self
time of a span is its duration minus the durations of its direct children
and of the benchmark's probe runs inside it (see ``harness``).

Per-call hooks add work counts at the same boundary as the span (rows fed
to an attention block, bytes written, random draws, executed FLOPs).
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; "Rng.gaussian_matrix" is a
# method and is replaced on the class.  A name missing from the package
# (removed or renamed by a later refactor) fails the self-test, so this list
# has to change together with the package.
TARGETS = (
    ("numkit", "attention_block"),
    ("numkit", "attention_block_backward"),
    ("encoders", "image_forward"),
    ("encoders", "image_backward"),
    ("encoders", "encode_text"),
    ("prompt_mapper", "map_prompts_with_cache"),
    ("prompt_mapper", "map_prompts_backward"),
    ("objectives", "pick_itm_negatives"),
    ("objectives", "itm_forward"),
    ("objectives", "itm_backward"),
    ("objectives", "variant_batch_loss"),
    ("objectives", "build_score_matrix_with_caches"),
    ("curation", "select_by_learnability"),
    ("curation", "mine_hard_batches"),
    ("trainer", "train"),
    ("trainer", "adam_step"),
    ("trainer", "clip_global_norm"),
    ("retrieval", "stage1_rank"),
    ("retrieval", "rerank"),
    ("retrieval", "evaluate"),
    ("retrieval", "curve"),
    ("storage", "load_checkpoint"),
    ("storage", "save_checkpoint"),
    ("storage", "read_rankings"),
    ("storage", "write_rankings"),
    ("storage", "read_dataset"),
    ("rng", "Rng.gaussian_matrix"),
    ("cli", "cmd_rank"),
    ("cli", "cmd_rerank"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_curve"),
)

# Name under which write_spans records the benchmark's own probe runs; they
# count as child time of the span around them and as no layer.
HARNESS_SPAN = "perfbench.probe"


def elip_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "elip" or name.startswith("elip."))
    ]


def _resolve(module: str, attr: str):
    """(owner object, attribute name, original) or None when absent."""
    mod = sys.modules.get(f"elip.{module}")
    if mod is None:
        return None
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = vars(owner).get(leaf)
    if orig is None or not callable(orig):
        return None
    return owner, leaf, orig


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _dir_bytes(path) -> int:
    try:
        return sum(_file_bytes(os.path.join(path, f)) for f in os.listdir(path))
    except OSError:
        return 0


def block_flops(rows: int, d: int, heads: int) -> int:
    """Executed forward FLOPs of one attention block over `rows` tokens,
    using the per-element conventions of ``retrieval.estimate_flops``
    (2 per multiply-add; 5 per layer-norm, softmax or GELU element).
    Every row runs the full block: Q, attention and MLP included."""
    t = rows
    return (
        5 * t * d            # LN1
        + 3 * 2 * t * d * d  # Q, K, V
        + 2 * t * t * d      # QK^T
        + 5 * heads * t * t  # softmax
        + 2 * t * t * d      # AV
        + 2 * t * d * d      # output projection
        + 5 * t * d          # LN2
        + 2 * t * d * 4 * d  # MLP expand
        + 5 * t * 4 * d      # GELU
        + 2 * t * 4 * d * d  # MLP contract
    )


def mapper_flops(mapper) -> int:
    """Executed FLOPs of one mapper forward (three linears, two GELUs)."""
    hidden, d_t = mapper.tensors["l1.weight"].shape
    out = mapper.tensors["l3.weight"].shape[0]
    return 2 * d_t * hidden + 5 * hidden + 2 * hidden * hidden + 5 * hidden + 2 * hidden * out


# ---------------------------------------------------------------------------
# per-call hooks: (tracer, args, kwargs, result, parent_name) -> None
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _hook_attention_block(tr, args, kwargs, result, parent):
    seq = _arg(args, kwargs, 1, "seq")
    heads = _arg(args, kwargs, 2, "heads")
    rows, d = seq.shape
    tr.count("numkit.attention_block", "rows", rows)
    if parent == "encoders.image_forward":
        tr.count("encoders", "image_block_rows", rows)
        tr.count("encoders.image_block_rows", str(rows), 1)
        tr.count("encoders", "flops_executed", block_flops(rows, d, heads))


def _hook_attention_block_backward(tr, args, kwargs, result, parent):
    grad_out = _arg(args, kwargs, 2, "grad_out")
    tr.count("numkit.attention_block_backward", "rows", grad_out.shape[0])


def _image_forward_counts(model, n: int) -> tuple:
    """(expected block rows, executed FLOPs outside the blocks, estimated
    FLOPs) of one image encoding with n prompt tokens."""
    from elip.retrieval import estimate_flops

    dims = model.dims
    return (
        dims.L_v * (dims.P + 1) + (dims.L_v - dims.insert_layer) * n,
        2 * dims.P * dims.d_in * dims.d_v          # patch embedding
        + 5 * (dims.P + 1 + n) * dims.d_v          # final LN over every row
        + 2 * dims.d_v * dims.d_e,                 # joint projection
        estimate_flops(dims, n > 0, model.mapper_cfg.hidden),
    )


def _hook_image_forward(tr, args, kwargs, result, parent):
    model = _arg(args, kwargs, 0, "model")
    prompts = _arg(args, kwargs, 2, "prompts")
    n = 0 if prompts is None else int(np.asarray(prompts).size // model.dims.d_v)
    key = (id(model.dims), n, model.mapper_cfg.hidden)
    cached = tr.memo.get(key)
    if cached is None:
        # the dims object is kept alive so its id cannot be reused
        cached = tr.memo[key] = (model.dims, _image_forward_counts(model, n))
    rows, flops_outside_blocks, estimated = cached[1]
    tr.count("encoders.image_forward", "prompted_calls", int(n > 0))
    tr.count("encoders", "image_block_rows_expected", rows)
    tr.count("encoders", "flops_executed", flops_outside_blocks)
    tr.count("encoders", "flops_estimated", estimated)


def _hook_map_prompts(tr, args, kwargs, result, parent):
    mapper = _arg(args, kwargs, 0, "mapper")
    if mapper.tensors["l3.weight"].shape[0]:
        tr.count("encoders", "flops_executed", mapper_flops(mapper))


def _hook_rerank(tr, args, kwargs, result, parent):
    ranking = _arg(args, kwargs, 2, "ranking")
    k = _arg(args, kwargs, 3, "k")
    tr.count("retrieval.rerank", "candidates", k)
    changed = bool(k) and result.entries[0][0] != ranking.entries[0][0]
    tr.count("retrieval.rerank", "top1_changed", int(changed))


def _hook_select(tr, args, kwargs, result, parent):
    plan = _arg(args, kwargs, 0, "plan")
    tr.count("curation.select_by_learnability", "batches_scored", len(plan.batches))
    tr.count("curation.select_by_learnability", "batches_kept", len(result.batches))


def _hook_clip(tr, args, kwargs, result, parent):
    max_norm = _arg(args, kwargs, 1, "max_norm")
    _, norm = result
    tr.count("trainer.clip_global_norm", "clipped", int(norm > max_norm))


def _hook_gaussian_matrix(tr, args, kwargs, result, parent):
    draws = int(result.size)
    tr.count("rng.gaussian_matrix", "draws", draws)
    if tr.inside("storage.load_checkpoint"):
        tr.count("storage.load_checkpoint", "rng_draws", draws)


def _hook_save_checkpoint(tr, args, kwargs, result, parent):
    tr.count("storage.save_checkpoint", "bytes", _dir_bytes(_arg(args, kwargs, 0, "ckpt_dir")))


def _hook_path_bytes(name):
    def hook(tr, args, kwargs, result, parent):
        tr.count(name, "bytes", _file_bytes(_arg(args, kwargs, 0, "path")))
    return hook


HOOKS = {
    "numkit.attention_block": _hook_attention_block,
    "numkit.attention_block_backward": _hook_attention_block_backward,
    "encoders.image_forward": _hook_image_forward,
    "prompt_mapper.map_prompts_with_cache": _hook_map_prompts,
    "retrieval.rerank": _hook_rerank,
    "curation.select_by_learnability": _hook_select,
    "trainer.clip_global_norm": _hook_clip,
    "rng.gaussian_matrix": _hook_gaussian_matrix,
    "storage.save_checkpoint": _hook_save_checkpoint,
    "storage.read_rankings": _hook_path_bytes("storage.read_rankings"),
    "storage.write_rankings": _hook_path_bytes("storage.write_rankings"),
}


class Tracer:
    """Records spans and counters for calls into the elip package."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.errors = 0  # calls that raised
        self.request_id = ""
        self.enabled = True
        self.memo: dict = {}
        # (start, end) of each probe run.  A probe may run from a signal
        # handler at any bytecode of a wrapper, so it only appends here and
        # touches no span and no stack; harness_parents places it by time.
        self.harness: list = []
        self._stack: list = []
        self._patched: list = []  # (owner, attr, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, leaf, orig = found
            name = f"{module}.{attr.split('.')[-1]}"
            wrapper = self._wrap(name, orig, HOOKS.get(name))
            if isinstance(owner, type):
                self._patch(owner, leaf, orig, wrapper)
                continue
            for mod in elip_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def originals(self) -> set:
        return {id(orig) for _, _, orig in self._patched}

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def _wrap(self, name, orig, hook):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, tracer.request_id]
            spans.append(span)
            stack.append(index)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.errors += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, spans[parent][0] if parent >= 0 else "")
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def count(self, name: str, stat: str, value) -> None:
        self.counters[f"{name}.{stat}"] += value

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- results ----------------------------------------------------------

    def harness_parents(self) -> list:
        """Index of the innermost span around each probe run, or -1.

        Spans are stored in start order and nest properly, so a span that
        holds a probe run is the latest span started before it, or one of
        that span's ancestors."""
        starts = [span[1] for span in self.spans]
        parents = []
        for start, end in self.harness:
            i = bisect.bisect_right(starts, start) - 1
            while i >= 0 and self.spans[i][2] < end:
                i = self.spans[i][3]
            parents.append(i)
        return parents

    def layer_stats(self) -> dict:
        """calls and self_s per span name, plus every counter.  Probe runs
        are only subtracted from the span around them."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for (start, end), parent in zip(self.harness, self.harness_parents()):
            if parent >= 0:
                child[parent] += end - start
        stats: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (end - start) - child[i]
        stats.update(self.counters)
        stats["trace.errors"] = self.errors
        stats["trace.spans"] = len(self.spans)
        return dict(stats)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (start, end), parent in zip(self.harness, self.harness_parents()):
                fh.write(json.dumps([HARNESS_SPAN, start, end, parent, ""]) + "\n")
