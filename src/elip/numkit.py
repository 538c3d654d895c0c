"""Dense tensor math with hand-written backward passes.

Token sequences are (T, d) matrices; attention views them as an
(H, T, d/H) head stack and runs each product as one batched matmul.

Arrays are plain numpy ndarrays (float32 for training/inference, float64
for gradient-check runs); every op is pure and keeps the input dtype.
Each primitive comes as a forward returning (out, cache) plus a backward
taking (cache, grad_out) and returning exact analytic gradients, verified
against central finite differences by grad_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class LayerParams:
    """Named tensors of one layer plus same-shaped gradient accumulators."""

    name: str
    tensors: dict[str, Array]
    trainable: bool = False
    grad: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.tensors.items():
            if key not in self.grad:
                self.grad[key] = np.zeros_like(value)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def linear(params: LayerParams, x: Array) -> tuple[Array, tuple]:
    """out = x @ W.T + b with W (out_dim, in_dim), x (T, in_dim)."""
    w = params.tensors["weight"]
    b = params.tensors.get("bias")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"linear '{params.name}': input shape {x.shape} does not match "
            f"weight shape {w.shape}"
        )
    out = x @ w.T
    if b is not None:
        out = out + b
    return out, (x, w)


def linear_backward(cache: tuple, grad_out: Array) -> tuple[Array, dict[str, Array]]:
    x, w = cache
    grad_x = grad_out @ w
    grads = {"weight": grad_out.T @ x}
    grads["bias"] = grad_out.sum(axis=0)
    return grad_x, grads


# ---------------------------------------------------------------------------
# gelu (tanh approximation; the closed form keeps the derivative exact)
# ---------------------------------------------------------------------------


def gelu(x: Array) -> tuple[Array, tuple]:
    """0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))), elementwise."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    return out, (x, t)


def gelu_backward(cache: tuple, grad_out: Array) -> Array:
    x, t = cache
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return grad_out * local


# ---------------------------------------------------------------------------
# layer norm (per-row, epsilon inside the sqrt)
# ---------------------------------------------------------------------------


def _layer_norm_core(gamma: Array, beta: Array, x: Array) -> tuple[Array, tuple]:
    n = x.shape[1]
    mu = np.add.reduce(x, axis=1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = gamma * xhat + beta
    return out, (xhat, inv, gamma)


def layer_norm(params: LayerParams, x: Array) -> tuple[Array, tuple]:
    """Per-row normalization then affine; gamma/beta of length x.cols."""
    return _layer_norm_core(params.tensors["gamma"], params.tensors["beta"], x)


def layer_norm_backward(cache: tuple, grad_out: Array) -> tuple[Array, dict[str, Array]]:
    xhat, inv, gamma = cache
    n = xhat.shape[1]
    grads = {
        "gamma": np.add.reduce(grad_out * xhat, axis=0),
        "beta": np.add.reduce(grad_out, axis=0),
    }
    dxhat = grad_out * gamma
    grad_x = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n)
    )
    return grad_x, grads


# ---------------------------------------------------------------------------
# softmax over rows (max-subtracted)
# ---------------------------------------------------------------------------


def softmax_rows(x: Array) -> tuple[Array, Array]:
    """Softmax over the last axis, so (T, T) and (H, T, T) scores share it."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    return p, p


def softmax_rows_backward(cache: Array, grad_out: Array) -> Array:
    p = cache
    return p * (grad_out - np.add.reduce(grad_out * p, axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# pre-norm transformer block: y = x + MHA(LN(x)); z = y + MLP(LN(y))
# ---------------------------------------------------------------------------


def _split_heads(x: Array, heads: int) -> Array:
    """(T, H*dh) -> (H, T, dh) strided view. Head h has the strides of the
    column slice x[:, h*dh:(h+1)*dh], so a batched matmul runs the same
    per-head BLAS call as a loop over slices and gives the same bits."""
    t_count, d = x.shape
    return x.reshape(t_count, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: Array) -> Array:
    """(H, T, dh) -> contiguous (T, H*dh), inverse of _split_heads."""
    heads, t_count, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t_count, heads * dh)


def attention_block(params: LayerParams, seq: Array, heads: int) -> tuple[Array, Array, tuple]:
    """Multi-head self-attention block; returns (out, attn (H,T,T), cache).

    Pre-norm residual wiring, MLP hidden width 4*d. attn rows are the
    post-softmax weights per head. All heads run as one (H, T, dh) stack.
    """
    d = seq.shape[1]
    if d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    scale = 1.0 / math.sqrt(d // heads)
    p = params.tensors

    h1, ln1_cache = _layer_norm_core(p["ln1.gamma"], p["ln1.beta"], seq)
    q = _split_heads(h1 @ p["wq"].T + p["bq"], heads)
    k = _split_heads(h1 @ p["wk"].T + p["bk"], heads)
    v = _split_heads(h1 @ p["wv"].T + p["bv"], heads)

    attn, _ = softmax_rows((q @ k.transpose(0, 2, 1)) * scale)
    o = _merge_heads(attn @ v)

    attn_out = o @ p["wo"].T + p["bo"]
    y = seq + attn_out

    h2, ln2_cache = _layer_norm_core(p["ln2.gamma"], p["ln2.beta"], y)
    m1 = h2 @ p["w1"].T + p["b1"]
    a1, gelu_cache = gelu(m1)
    m2 = a1 @ p["w2"].T + p["b2"]
    out = y + m2

    cache = (h1, ln1_cache, q, k, v, attn, o, h2, ln2_cache, gelu_cache, a1, heads, scale)
    return out, attn, cache


def attention_block_backward(
    params: LayerParams, cache: tuple, grad_out: Array
) -> tuple[Array, dict[str, Array]]:
    h1, ln1_cache, q, k, v, attn, o, h2, ln2_cache, gelu_cache, a1, heads, scale = cache
    w1 = params.tensors["w1"]
    w2 = params.tensors["w2"]
    wo = params.tensors["wo"]

    grads: dict[str, Array] = {}

    # MLP branch: out = y + m2
    grad_m2 = grad_out
    grads["w2"] = grad_m2.T @ a1
    grads["b2"] = grad_m2.sum(axis=0)
    grad_a1 = grad_m2 @ w2
    grad_m1 = gelu_backward(gelu_cache, grad_a1)
    grads["w1"] = grad_m1.T @ h2
    grads["b1"] = grad_m1.sum(axis=0)
    grad_h2 = grad_m1 @ w1
    grad_ln2, ln2_grads = layer_norm_backward(ln2_cache, grad_h2)
    grads["ln2.gamma"] = ln2_grads["gamma"]
    grads["ln2.beta"] = ln2_grads["beta"]
    grad_y = grad_out + grad_ln2

    # attention branch: y = seq + O @ wo.T + bo
    grad_attn_out = grad_y
    grads["wo"] = grad_attn_out.T @ o
    grads["bo"] = grad_attn_out.sum(axis=0)
    grad_o = _split_heads(grad_attn_out @ wo, heads)

    grad_a = grad_o @ v.transpose(0, 2, 1)
    grad_v = _merge_heads(attn.transpose(0, 2, 1) @ grad_o)
    grad_s = softmax_rows_backward(attn, grad_a)
    grad_q = _merge_heads((grad_s @ k) * scale)
    grad_k = _merge_heads((grad_s.transpose(0, 2, 1) @ q) * scale)

    grads["wq"] = grad_q.T @ h1
    grads["bq"] = grad_q.sum(axis=0)
    grads["wk"] = grad_k.T @ h1
    grads["bk"] = grad_k.sum(axis=0)
    grads["wv"] = grad_v.T @ h1
    grads["bv"] = grad_v.sum(axis=0)

    grad_h1 = (
        grad_q @ params.tensors["wq"]
        + grad_k @ params.tensors["wk"]
        + grad_v @ params.tensors["wv"]
    )
    grad_ln1, ln1_grads = layer_norm_backward(ln1_cache, grad_h1)
    grads["ln1.gamma"] = ln1_grads["gamma"]
    grads["ln1.beta"] = ln1_grads["beta"]
    grad_seq = grad_y + grad_ln1
    return grad_seq, grads


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def grad_check(f, point: dict[str, Array], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f(point) must return (scalar loss, grads dict keyed like point); point
    arrays should be float64. Error metric per element:
    |analytic - numeric| / max(1, |numeric|).
    """
    loss, analytic = f(point)
    if not np.isfinite(loss):
        raise NumericError(f"grad_check: non-finite loss {loss!r}")
    worst = 0.0
    for name, base in point.items():
        a = np.asarray(analytic[name], dtype=np.float64)
        flat = base.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = f(point)[0]
            flat[idx] = orig - h
            lm = f(point)[0]
            flat[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"grad_check: non-finite loss near {name}[{idx}]")
            numeric = (lp - lm) / (2.0 * h)
            err = abs(a.reshape(-1)[idx] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
