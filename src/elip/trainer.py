"""Deterministic optimization loop over a curation plan.

Only the mapping network (and, for the B variant with finetune_itm on, the
ITM head) ever receives parameter updates; frozen tensors are byte-identical
before and after any run. Adam with bias correction, global-norm gradient
clipping, constant learning rate, no schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .curation import CurationPlan, PairDataset, select_by_learnability
from .encoders import ModelBundle, copy_without_prompts
from .errors import ConfigError, NumericError
from .objectives import variant_batch_loss
from .rng import Rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step updates each tensor in blocks of whole rows holding about this
# many elements, so its float64 temporaries (64 KB) stay under glibc's 128 KB
# mmap threshold and come from the heap instead of being mapped and faulted
# in every step.
ADAM_BLOCK = 8192


@dataclass
class OptimizerState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale the whole gradient set so its joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}, norm


def adam_step(tensors: dict, grads: dict, state: OptimizerState, lr: float) -> OptimizerState:
    """Bias-corrected Adam update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS), in place
    on `tensors` and on the moments `state.m`, `state.v`.

    Each tensor is updated in blocks of leading-axis rows (ADAM_BLOCK); the
    update is elementwise, so the blocks give the bits of one whole-tensor
    update. Non-finite gradients abort the step before any state is touched.
    """
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {key!r}; step aborted")
    state.step += 1
    t = state.step
    for key, g in grads.items():
        if key not in state.m:
            state.m[key] = np.zeros_like(tensors[key], dtype=np.float64)
            state.v[key] = np.zeros_like(tensors[key], dtype=np.float64)
        tensor = tensors[key]
        rows = max(1, ADAM_BLOCK // max(1, math.prod(tensor.shape[1:])))
        for lo in range(0, len(tensor), rows):
            block = slice(lo, lo + rows)
            g64 = np.asarray(g[block], dtype=np.float64)
            m, v = state.m[key][block], state.v[key][block]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g64
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g64 * g64
            update = m / (1.0 - ADAM_BETA1**t)
            update *= lr
            v_hat = v / (1.0 - ADAM_BETA2**t)
            np.sqrt(v_hat, out=v_hat)
            v_hat += ADAM_EPS
            update /= v_hat
            tensor[block] -= update.astype(tensor.dtype, copy=False)
    return state


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def train(
    model: ModelBundle,
    ds: PairDataset,
    plan: CurationPlan,
    cfg: TrainConfig,
    checkpoint_hook=None,
) -> tuple[ModelBundle, list]:
    """Run cfg.steps updates over plan batches (plan order, cycling).

    Returns (model, per-step loss trace). The model is updated in place;
    only mapper tensors (plus itm tensors iff finetune_itm) change.
    checkpoint_hook(step, model) runs every cfg.ckpt_interval steps and
    after the last step, once per step.
    """
    cfg = cfg.validate()
    if cfg.variant != model.variant:
        raise ConfigError(
            f"config variant {cfg.variant!r} != model variant {model.variant!r}"
        )
    for batch in plan.batches:
        if len(batch) < 2:
            raise ConfigError("every training batch needs >= 2 records")
    plan.check_indices(ds.N)

    if cfg.jest_fraction:
        reference = copy_without_prompts(model)
        plan = select_by_learnability(
            plan, ds, model, reference, cfg.jest_fraction, cfg.conditioning
        )
    batches = plan.batches
    if cfg.subset_fraction < 1.0:
        rng = Rng(cfg.seed)
        keep = math.ceil(cfg.subset_fraction * len(batches))
        picked = sorted(rng.sample_without_replacement(len(batches), keep))
        batches = [batches[k] for k in picked]
    if not batches:
        raise ConfigError("empty plan after selection")

    applied = {"mapper": model.mapper.tensors}
    if model.variant == "B" and cfg.finetune_itm:
        applied["itm"] = model.itm_head.tensors

    lr = cfg.resolved_lr()
    state = OptimizerState()
    trace = []
    saved_step = None
    for step in range(cfg.steps):
        records = [ds.records[k] for k in batches[step % len(batches)]]
        grads: dict = {}
        loss = variant_batch_loss(model, records, cfg.conditioning, grads)
        grads = {
            key: g
            for key, g in grads.items()
            if key.split(".", 1)[0] in applied
        }
        grads, _ = clip_global_norm(grads, cfg.grad_clip)
        flat_tensors = {
            f"{group}.{k}": t
            for group, tensors in applied.items()
            for k, t in tensors.items()
        }
        adam_step(flat_tensors, grads, state, lr)
        trace.append(float(loss))
        if checkpoint_hook and cfg.ckpt_interval and (step + 1) % cfg.ckpt_interval == 0:
            checkpoint_hook(step + 1, model)
            saved_step = step + 1
    if checkpoint_hook and saved_step != cfg.steps:
        checkpoint_hook(cfg.steps, model)
    return model, trace
