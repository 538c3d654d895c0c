import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elip import numkit
from elip.encoders import init_frozen_model
from elip.config import DimsConfig, MapperConfig
from elip.errors import ConfigError, DimensionError
from elip.numkit import (
    LayerParams,
    attention_block,
    attention_block_backward,
    gelu,
    gelu_backward,
    grad_check,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    softmax_rows,
    softmax_rows_backward,
)
from elip.rng import Rng

from conftest import TINY


def lp(name="l", **tensors):
    return LayerParams(name=name, tensors={k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()})


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_linear_identity():
    params = lp(weight=np.eye(2), bias=np.zeros(2))
    out, _ = linear(params, np.array([[3.0, 4.0]]))
    assert np.array_equal(out, [[3.0, 4.0]])


def test_linear_hand_multiply():
    params = lp(weight=[[1.0, 1.0], [0.0, 1.0]], bias=[1.0, 0.0])
    out, _ = linear(params, np.array([[2.0, 3.0]]))
    assert np.allclose(out, [[6.0, 3.0]])


def test_linear_shape_mismatch_names_both_shapes():
    params = lp(weight=np.ones((2, 3)), bias=np.zeros(2))
    with pytest.raises(DimensionError, match=r"\(1, 2\).*\(2, 3\)"):
        linear(params, np.ones((1, 2)))


def test_linear_backward_finite_difference():
    rng = Rng(1)
    params = lp(weight=rng.gaussian_matrix(4, 4), bias=rng.gaussian_matrix(1, 4)[0])
    x = rng.gaussian_matrix(3, 4)
    w = rng.gaussian_matrix(3, 4)

    def f(point):
        p = lp(weight=point["weight"], bias=point["bias"])
        out, cache = linear(p, point["x"])
        loss = float((out * w).sum())
        grad_x, grads = linear_backward(cache, w)
        grads["x"] = grad_x
        return loss, grads

    point = {"weight": params.tensors["weight"].copy(),
             "bias": params.tensors["bias"].copy(), "x": x}
    assert grad_check(f, point, h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------


def test_gelu_fixed_points():
    out, _ = gelu(np.array([[0.0, 10.0]]))
    assert out[0, 0] == 0.0
    assert abs(out[0, 1] - 10.0) < 1e-6


def test_gelu_at_one_matches_direct_formula():
    inner = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
    expected = 0.5 * (1.0 + math.tanh(inner))
    out, _ = gelu(np.array([[1.0]]))
    assert abs(out[0, 0] - expected) < 1e-12
    assert abs(out[0, 0] - 0.841192) < 1e-5


def test_gelu_backward_finite_difference():
    rng = Rng(2)
    x = rng.gaussian_matrix(3, 5)
    w = rng.gaussian_matrix(3, 5)

    def f(point):
        out, cache = gelu(point["x"])
        return float((out * w).sum()), {"x": gelu_backward(cache, w)}

    assert grad_check(f, {"x": x}, h=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    params = lp(gamma=np.ones(3), beta=np.zeros(3))
    out, _ = layer_norm(params, np.array([[5.0, 5.0, 5.0]]))
    assert np.allclose(out, 0.0)


def test_layer_norm_two_values():
    params = lp(gamma=np.ones(2), beta=np.zeros(2))
    out, _ = layer_norm(params, np.array([[1.0, 3.0]]))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_backward_finite_difference():
    rng = Rng(3)
    params = lp(gamma=1.0 + 0.1 * rng.gaussian_matrix(1, 6)[0],
                beta=0.1 * rng.gaussian_matrix(1, 6)[0])
    x = rng.gaussian_matrix(4, 6)
    w = rng.gaussian_matrix(4, 6)

    def f(point):
        p = lp(gamma=point["gamma"], beta=point["beta"])
        out, cache = layer_norm(p, point["x"])
        loss = float((out * w).sum())
        grad_x, grads = layer_norm_backward(cache, w)
        grads["x"] = grad_x
        return loss, grads

    point = {"gamma": params.tensors["gamma"].copy(),
             "beta": params.tensors["beta"].copy(), "x": x}
    assert grad_check(f, point, h=1e-5) < 1e-4


def test_layer_norm_normalizes_before_affine():
    rng = Rng(4)
    params = lp(gamma=np.ones(8), beta=np.zeros(8))
    x = rng.gaussian_matrix(5, 8) * 3.0 + 1.0
    out, _ = layer_norm(params, x)
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform():
    out, _ = softmax_rows(np.zeros((1, 4)))
    assert np.allclose(out, 0.25)


def test_softmax_log_ratio():
    out, _ = softmax_rows(np.log(np.array([[1.0, 3.0]])))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
def test_softmax_shift_invariance(seed, shift):
    x = Rng(seed).gaussian_matrix(3, 5)
    base, _ = softmax_rows(x)
    shifted, _ = softmax_rows(x + shift)
    assert np.allclose(base, shifted, atol=1e-6)
    assert np.allclose(shifted.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_backward_finite_difference():
    rng = Rng(5)
    x = rng.gaussian_matrix(3, 4)
    w = rng.gaussian_matrix(3, 4)

    def f(point):
        out, cache = softmax_rows(point["x"])
        return float((out * w).sum()), {"x": softmax_rows_backward(cache, w)}

    assert grad_check(f, {"x": x}, h=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# attention block
# ---------------------------------------------------------------------------


def block_params(seed, d, dtype=np.float64):
    rng = Rng(seed)
    scale = 1.0 / math.sqrt(d)

    def w(rows, cols, s):
        return rng.gaussian_matrix(rows, cols, s).astype(dtype)

    return LayerParams(name="blk", tensors={
        "ln1.gamma": np.ones(d, dtype=dtype), "ln1.beta": np.zeros(d, dtype=dtype),
        "wq": w(d, d, scale), "bq": np.zeros(d, dtype=dtype),
        "wk": w(d, d, scale), "bk": np.zeros(d, dtype=dtype),
        "wv": w(d, d, scale), "bv": np.zeros(d, dtype=dtype),
        "wo": w(d, d, scale), "bo": np.zeros(d, dtype=dtype),
        "ln2.gamma": np.ones(d, dtype=dtype), "ln2.beta": np.zeros(d, dtype=dtype),
        "w1": w(4 * d, d, scale), "b1": np.zeros(4 * d, dtype=dtype),
        "w2": w(d, 4 * d, 1.0 / math.sqrt(4 * d)), "b2": np.zeros(d, dtype=dtype),
    })


def test_block_zero_write_branches_give_identity():
    params = block_params(6, 4)
    for key in ("wv", "wo", "w2"):
        params.tensors[key] = np.zeros_like(params.tensors[key])
    seq = Rng(7).gaussian_matrix(1, 4)
    out, _, _ = attention_block(params, seq, 2)
    assert np.allclose(out, seq)


def test_block_attention_rows_sum_to_one():
    params = block_params(8, 8)
    seq = Rng(9).gaussian_matrix(6, 8)
    _, attn, _ = attention_block(params, seq, 2)
    assert attn.shape == (2, 6, 6)
    assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)


def test_block_rejects_bad_head_count():
    params = block_params(10, 6)
    with pytest.raises(ConfigError):
        attention_block(params, np.zeros((2, 6)), 4)


def _block_grad_error(dtype, h):
    params = block_params(11, 8, dtype=dtype)
    seq = Rng(12).gaussian_matrix(3, 8).astype(dtype)
    w = Rng(13).gaussian_matrix(3, 8).astype(dtype)

    def f(point):
        saved = dict(params.tensors)
        params.tensors.update(point)
        out, _, cache = attention_block(params, seq, 2)
        loss = float((out * w).sum())
        _, grads = attention_block_backward(params, cache, w)
        params.tensors.update(saved)
        return loss, grads

    point = {k: v.copy() for k, v in params.tensors.items()}
    return grad_check(f, point, h=h)


def test_block_backward_double_precision():
    assert _block_grad_error(np.float64, 1e-5) < 1e-4


def test_block_backward_single_precision():
    assert _block_grad_error(np.float32, 3e-3) < 1e-3


def test_block_backward_five_seeds():
    for seed in range(5):
        params = block_params(20 + seed, 8)
        seq = Rng(30 + seed).gaussian_matrix(4, 8)
        w = Rng(40 + seed).gaussian_matrix(4, 8)

        def f(point):
            saved = dict(params.tensors)
            params.tensors.update(point)
            out, _, cache = attention_block(params, seq, 2)
            loss = float((out * w).sum())
            _, grads = attention_block_backward(params, cache, w)
            params.tensors.update(saved)
            return loss, grads

        point = {k: v.copy() for k, v in params.tensors.items()}
        assert grad_check(f, point, h=1e-5) < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e6))
def test_bounded_inputs_stay_finite(seed, magnitude):
    rng = Rng(seed)
    x = rng.gaussian_matrix(3, 8) * magnitude
    params = block_params(seed % 1000, 8)
    out, attn, _ = attention_block(params, x, 2)
    assert np.all(np.isfinite(out))
    assert np.all(np.isfinite(attn))
    gx, _ = gelu(x)
    assert np.all(np.isfinite(gx))
    sx, _ = softmax_rows(x)
    assert np.all(np.isfinite(sx))
    ln = lp(gamma=np.ones(8), beta=np.zeros(8))
    nx, _ = layer_norm(ln, x)
    assert np.all(np.isfinite(nx))


def test_ops_are_pure():
    params = block_params(14, 8)
    seq = Rng(15).gaussian_matrix(5, 8)
    seq_copy = seq.copy()
    tensors_copy = {k: v.copy() for k, v in params.tensors.items()}
    out1, attn1, _ = attention_block(params, seq, 2)
    out2, attn2, _ = attention_block(params, seq, 2)
    assert np.array_equal(out1, out2)
    assert np.array_equal(attn1, attn2)
    assert np.array_equal(seq, seq_copy)
    for k in tensors_copy:
        assert np.array_equal(params.tensors[k], tensors_copy[k])


# ---------------------------------------------------------------------------
# stacked-heads kernel vs the per-head loop it replaced
# ---------------------------------------------------------------------------


def _loop_softmax(x):
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def _loop_attention(params, seq, heads):
    """Reference: one 2-D product per head on column slices of Q, K, V."""
    t_count, d = seq.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    p = params.tensors
    h1, ln1_cache = numkit._layer_norm_core(p["ln1.gamma"], p["ln1.beta"], seq)
    q = h1 @ p["wq"].T + p["bq"]
    k = h1 @ p["wk"].T + p["bk"]
    v = h1 @ p["wv"].T + p["bv"]
    attn = np.empty((heads, t_count, t_count), dtype=seq.dtype)
    o = np.empty_like(q)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        attn[h] = _loop_softmax((q[:, sl] @ k[:, sl].T) * scale)
        o[:, sl] = attn[h] @ v[:, sl]
    y = seq + (o @ p["wo"].T + p["bo"])
    h2, ln2_cache = numkit._layer_norm_core(p["ln2.gamma"], p["ln2.beta"], y)
    a1, gelu_cache = gelu(h2 @ p["w1"].T + p["b1"])
    out = y + (a1 @ p["w2"].T + p["b2"])
    return out, attn, (h1, ln1_cache, q, k, v, attn, o, h2, ln2_cache, gelu_cache, a1, dh, scale)


def _loop_attention_backward(params, cache, grad_out):
    h1, ln1_cache, q, k, v, attn, o, h2, ln2_cache, gelu_cache, a1, dh, scale = cache
    p = params.tensors
    grads = {"w2": grad_out.T @ a1, "b2": grad_out.sum(axis=0)}
    grad_m1 = gelu_backward(gelu_cache, grad_out @ p["w2"])
    grads["w1"] = grad_m1.T @ h2
    grads["b1"] = grad_m1.sum(axis=0)
    grad_ln2, ln2_grads = layer_norm_backward(ln2_cache, grad_m1 @ p["w1"])
    grads["ln2.gamma"], grads["ln2.beta"] = ln2_grads["gamma"], ln2_grads["beta"]
    grad_y = grad_out + grad_ln2
    grads["wo"] = grad_y.T @ o
    grads["bo"] = grad_y.sum(axis=0)
    grad_o = grad_y @ p["wo"]
    grad_q, grad_k, grad_v = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h in range(attn.shape[0]):
        sl = slice(h * dh, (h + 1) * dh)
        a = attn[h]
        grad_oh = grad_o[:, sl]
        grad_a = grad_oh @ v[:, sl].T
        grad_v[:, sl] = a.T @ grad_oh
        grad_s = a * (grad_a - np.add.reduce(grad_a * a, axis=1, keepdims=True))
        grad_q[:, sl] = (grad_s @ k[:, sl]) * scale
        grad_k[:, sl] = (grad_s.T @ q[:, sl]) * scale
    for name, g in (("q", grad_q), ("k", grad_k), ("v", grad_v)):
        grads[f"w{name}"] = g.T @ h1
        grads[f"b{name}"] = g.sum(axis=0)
    grad_h1 = grad_q @ p["wq"] + grad_k @ p["wk"] + grad_v @ p["wv"]
    grad_ln1, ln1_grads = layer_norm_backward(ln1_cache, grad_h1)
    grads["ln1.gamma"], grads["ln1.beta"] = ln1_grads["gamma"], ln1_grads["beta"]
    return grad_y + grad_ln1, grads


def _assert_block_matches_loop(params, seq, heads, grad_out):
    out, attn, cache = attention_block(params, seq, heads)
    ref_out, ref_attn, ref_cache = _loop_attention(params, seq, heads)
    assert out.dtype == ref_out.dtype == seq.dtype
    assert attn.dtype == seq.dtype and attn.shape == (heads,) + seq.shape[:1] * 2
    assert np.array_equal(out, ref_out)
    assert np.array_equal(attn, ref_attn)
    grad_seq, grads = attention_block_backward(params, cache, grad_out)
    ref_grad_seq, ref_grads = _loop_attention_backward(params, ref_cache, grad_out)
    assert np.array_equal(grad_seq, ref_grad_seq)
    assert sorted(grads) == sorted(ref_grads) == sorted(params.tensors)
    for key, g in grads.items():
        assert g.dtype == seq.dtype
        assert np.array_equal(g, ref_grads[key]), key


def _random_block(seed, d, dtype):
    """block_params with every bias and LN affine drawn too."""
    params = block_params(seed, d, dtype=dtype)
    rng = Rng(seed + 1)
    for key, value in params.tensors.items():
        if value.ndim == 1:
            base = 1.0 if key.endswith("gamma") else 0.0
            params.tensors[key] = (base + rng.gaussian_matrix(1, value.size, 0.2)[0]).astype(dtype)
    return params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("t_count", [1, 5, 27])
def test_stacked_block_is_bit_identical_to_per_head_loop(dtype, heads, t_count):
    d = 32
    params = _random_block(50 + heads, d, dtype)
    rng = Rng(60 + t_count)
    seq = rng.gaussian_matrix(t_count, d).astype(dtype)
    grad_out = rng.gaussian_matrix(t_count, d).astype(dtype)
    _assert_block_matches_loop(params, seq, heads, grad_out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_block_is_bit_identical_on_prompted_layout(dtype):
    """Default dims: P patch rows + CLS + n prompts through a real frozen
    image block, and the m+1 text layout through a real text block."""
    model = init_frozen_model(3, DimsConfig(), "C", MapperConfig(n=10), dtype=dtype)
    dims = model.dims
    rng = Rng(70)
    seq = np.concatenate([
        rng.gaussian_matrix(dims.P + 1, dims.d_v),
        0.3 * rng.gaussian_matrix(dims.n, dims.d_v),
    ], axis=0).astype(dtype)
    assert seq.shape[0] == dims.P + 1 + dims.n
    grad_out = rng.gaussian_matrix(*seq.shape).astype(dtype)
    for block in model.image_blocks:
        _assert_block_matches_loop(block, seq, dims.H, grad_out)
    text_seq = rng.gaussian_matrix(dims.m + 1, dims.d_t).astype(dtype)
    text_grad = rng.gaussian_matrix(dims.m + 1, dims.d_t).astype(dtype)
    for block in model.text_blocks:
        _assert_block_matches_loop(block, text_seq, dims.H, text_grad)


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------


def test_grad_check_accepts_exact_linear():
    rng = Rng(16)
    x = rng.gaussian_matrix(2, 3)
    w = rng.gaussian_matrix(2, 4)

    def f(point):
        p = lp(weight=point["weight"], bias=point["bias"])
        out, cache = linear(p, x)
        loss = float((out * w).sum())
        _, grads = linear_backward(cache, w)
        return loss, grads

    point = {"weight": rng.gaussian_matrix(4, 3), "bias": rng.gaussian_matrix(1, 4)[0]}
    assert grad_check(f, point, h=1e-5) < 1e-6


def test_grad_check_full_encoder_cls_chain():
    from elip.encoders import image_forward

    model = init_frozen_model(7, TINY, "C", MapperConfig(n=TINY.n, hidden=8), dtype=np.float64)
    patches = Rng(17).gaussian_matrix(TINY.P, TINY.d_in)
    w = Rng(18).gaussian_matrix(1, TINY.d_v)[0]
    block = model.image_blocks[0]

    def f(point):
        saved = dict(block.tensors)
        block.tensors.update(point)
        states, _, _, _, cache = image_forward(model, patches, None)
        loss = float(np.dot(states[TINY.P], w))
        block_caches, ln_cache, _ = cache
        grad_states = np.zeros_like(states)
        grad_states[TINY.P] = w
        grad, _ = numkit.layer_norm_backward(ln_cache, grad_states)
        grad, _ = numkit.attention_block_backward(
            model.image_blocks[1], block_caches[1], grad
        )
        _, grads0 = numkit.attention_block_backward(block, block_caches[0], grad)
        block.tensors.update(saved)
        return loss, grads0

    point = {k: v.copy() for k, v in block.tensors.items()}
    assert grad_check(f, point, h=1e-5) < 1e-4


def test_grad_check_detects_corrupted_gradient():
    rng = Rng(19)
    x = rng.gaussian_matrix(2, 3)
    w = rng.gaussian_matrix(2, 4)

    def f(point):
        p = lp(weight=point["weight"], bias=point["bias"])
        out, cache = linear(p, x)
        loss = float((out * w).sum())
        _, grads = linear_backward(cache, w)
        grads = {k: v * 1.01 for k, v in grads.items()}
        return loss, grads

    point = {"weight": rng.gaussian_matrix(4, 3), "bias": rng.gaussian_matrix(1, 4)[0]}
    assert grad_check(f, point, h=1e-5) > 1e-3
