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
from .encoders import (
    ModelBundle,
    copy_without_prompts,
    encode_text,
    image_backward,
    image_forward,
    project_normalize_backward,
)
from .errors import ConfigError, NumericError
from .objectives import (
    bce,
    bce_grad,
    build_score_matrix_with_caches,
    info_nce,
    info_nce_grad,
    itm_backward,
    itm_forward,
    pick_itm_negatives,
    sigmoid_pairwise,
    sigmoid_pairwise_grad,
)
from .prompt_mapper import map_prompts_backward, map_prompts_with_cache
from .rng import Rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


def adam_step(
    tensors: dict,
    grads: dict,
    state: OptimizerState,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> OptimizerState:
    """Bias-corrected Adam update, in place on `tensors`.

    Non-finite gradients abort the step before any state is touched.
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
        g64 = np.asarray(g, dtype=np.float64)
        state.m[key] = beta1 * state.m[key] + (1.0 - beta1) * g64
        state.v[key] = beta2 * state.v[key] + (1.0 - beta2) * g64 * g64
        m_hat = state.m[key] / (1.0 - beta1**t)
        v_hat = state.v[key] / (1.0 - beta2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        tensors[key] -= update.astype(tensors[key].dtype)
    return state


# ---------------------------------------------------------------------------
# per-variant loss + gradient over one batch
# ---------------------------------------------------------------------------


def _contrastive_step(model: ModelBundle, records, cfg: TrainConfig):
    """InfoNCE (C) / pairwise sigmoid (S) loss and trainable grads."""
    sm, texts, prompt_caches, image_caches = build_score_matrix_with_caches(
        model, records, cfg.conditioning
    )
    b = len(records)
    if model.variant == "C":
        loss = info_nce(sm)
        g_cos = info_nce_grad(sm) / sm.tau
    else:
        loss = sigmoid_pairwise(sm)
        g_cos = sigmoid_pairwise_grad(sm)

    grads = {f"mapper.{k}": np.zeros_like(v) for k, v in model.mapper.tensors.items()}
    if cfg.conditioning == "per_row":
        for i in range(b):
            grad_prompts = None
            for j in range(b):
                proj_cache, cache, states_shape = image_caches[(i, j)]
                upstream = (g_cos[i, j] * texts[i].t_joint).astype(model.dtype)
                grad_cls = project_normalize_backward(proj_cache, upstream)
                grad_states = np.zeros(states_shape, dtype=model.dtype)
                grad_states[model.dims.P] = grad_cls
                gp = image_backward(model, cache, grad_states)
                grad_prompts = gp if grad_prompts is None else grad_prompts + gp
            if grad_prompts is not None and grad_prompts.size:
                for k, v in map_prompts_backward(
                    model.mapper, prompt_caches[i], grad_prompts
                ).items():
                    grads[f"mapper.{k}"] += v
    else:
        for j in range(b):
            proj_cache, cache, states_shape = image_caches[j]
            upstream = np.zeros(model.dims.d_e, dtype=np.float64)
            for i in range(b):
                upstream += g_cos[i, j] * texts[i].t_joint
            grad_cls = project_normalize_backward(proj_cache, upstream.astype(model.dtype))
            grad_states = np.zeros(states_shape, dtype=model.dtype)
            grad_states[model.dims.P] = grad_cls
            gp = image_backward(model, cache, grad_states)
            if gp.size:
                for k, v in map_prompts_backward(
                    model.mapper, prompt_caches[j], gp
                ).items():
                    grads[f"mapper.{k}"] += v
    return loss, grads


def _itm_step(model: ModelBundle, records, cfg: TrainConfig):
    """BCE over (text, positive/negative image) pairs; negatives are the
    most stage-1-similar other batch image per anchor."""
    if model.itm_head is None:
        raise ConfigError("variant B requires an ITM head")
    b = len(records)
    negatives = pick_itm_negatives(model, records)
    dims = model.dims
    grads = {f"mapper.{k}": np.zeros_like(v) for k, v in model.mapper.tensors.items()}
    grads.update(
        {f"itm.{k}": np.zeros_like(v) for k, v in model.itm_head.tensors.items()}
    )
    total = 0.0
    denom = 2 * b
    for i, rec in enumerate(records):
        text = encode_text(model, rec.tokens)
        prompts, mcache = map_prompts_with_cache(
            model.mapper, text, model.mapper_cfg, dims.d_v
        )
        grad_prompts = np.zeros_like(prompts)
        for patches, label in (
            (rec.patches, 1),
            (records[negatives[i]].patches, 0),
        ):
            states, _, _, _, icache = image_forward(model, patches, prompts)
            logit, itm_cache = itm_forward(
                model.itm_head, text.t_cls, states[: dims.P]
            )
            total += bce(logit, label)
            g_logit = bce_grad(logit, label) / denom
            head_grads, grad_patch_states = itm_backward(
                model.itm_head, itm_cache, g_logit
            )
            for k, v in head_grads.items():
                grads[f"itm.{k}"] += v
            grad_states = np.zeros_like(states)
            grad_states[: dims.P] = grad_patch_states
            gp = image_backward(model, icache, grad_states)
            if gp.size:
                grad_prompts += gp
        if grad_prompts.size:
            for k, v in map_prompts_backward(model.mapper, mcache, grad_prompts).items():
                grads[f"mapper.{k}"] += v
    return total / denom, grads


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
    for step in range(cfg.steps):
        records = [ds.records[k] for k in batches[step % len(batches)]]
        if model.variant in ("C", "S"):
            loss, grads = _contrastive_step(model, records, cfg)
        else:
            loss, grads = _itm_step(model, records, cfg)
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
    if checkpoint_hook:
        checkpoint_hook(cfg.steps, model)
    return model, trace
