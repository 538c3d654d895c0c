import math
from dataclasses import replace

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
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    softmax_rows,
    softmax_rows_backward,
)
from elip.rng import Rng

from conftest import TINY, openblas_core
from oracles import grad_check, layer_norm_param_grads


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
        grads = layer_norm_param_grads(cache, w)
        grads["x"] = layer_norm_backward(cache, w)
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


def test_qkv_stack_follows_its_tensors():
    """A block's Q/K/V stack is read-only at its source: writing into wq
    after the block ran raises, and a replaced tensor or a deepcopy whose
    tensors were written before its first run gets a stack of its own."""
    import copy

    params = block_params(11, 8)
    seq = Rng(12).gaussian_matrix(5, 8)

    def fresh(p):
        return attention_block(LayerParams("b", dict(p.tensors)), seq, 2)[0]

    attention_block(params, seq, 2)
    with pytest.raises(ValueError):
        params.tensors["wq"][0, 0] += 1.0
    params.tensors["bk"] = params.tensors["bk"] + 0.5
    assert np.array_equal(attention_block(params, seq, 2)[0], fresh(params))
    bumped = copy.deepcopy(params)
    bumped.tensors["wv"][0, 0] += 1.0
    out = attention_block(bumped, seq, 2)[0]
    assert np.array_equal(out, fresh(bumped))
    assert not np.array_equal(out, attention_block(params, seq, 2)[0])


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


def _seq_grad_check(params, seq, w, h):
    """grad_check of attention_block_backward's gradient on the block input
    seq, for the loss sum(out * w)."""

    def f(point):
        out, _, cache = attention_block(params, point["seq"], 2)
        return float((out * w).sum()), {"seq": attention_block_backward(params, cache, w)}

    return grad_check(f, {"seq": seq.copy()}, h=h)


def _block_grad_error(dtype, h):
    params = block_params(11, 8, dtype=dtype)
    seq = Rng(12).gaussian_matrix(3, 8).astype(dtype)
    w = Rng(13).gaussian_matrix(3, 8).astype(dtype)
    return _seq_grad_check(params, seq, w, h)


def test_block_backward_double_precision():
    assert _block_grad_error(np.float64, 1e-5) < 1e-4


def test_block_backward_single_precision():
    assert _block_grad_error(np.float32, 3e-3) < 1e-3


def test_block_backward_five_seeds():
    for seed in range(5):
        params = block_params(20 + seed, 8)
        seq = Rng(30 + seed).gaussian_matrix(4, 8)
        w = Rng(40 + seed).gaussian_matrix(4, 8)
        assert _seq_grad_check(params, seq, w, 1e-5) < 1e-4


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
    return out, attn, (ln1_cache, q, k, v, attn, ln2_cache, gelu_cache, dh, scale)


def _loop_attention_backward(params, cache, grad_out):
    """Reference gradient on the block input, one 2-D product per head."""
    ln1_cache, q, k, v, attn, ln2_cache, gelu_cache, dh, scale = cache
    p = params.tensors
    grad_m1 = gelu_backward(gelu_cache, grad_out @ p["w2"])
    grad_ln2 = layer_norm_backward(ln2_cache, grad_m1 @ p["w1"])
    grad_y = grad_out + grad_ln2
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
    grad_h1 = grad_q @ p["wq"] + grad_k @ p["wk"] + grad_v @ p["wv"]
    grad_ln1 = layer_norm_backward(ln1_cache, grad_h1)
    return grad_y + grad_ln1


def _assert_block_matches_loop(params, seq, heads, grad_out):
    out, attn, cache = attention_block(params, seq, heads)
    ref_out, ref_attn, ref_cache = _loop_attention(params, seq, heads)
    assert out.dtype == ref_out.dtype == seq.dtype
    assert attn.dtype == seq.dtype and attn.shape == (heads,) + seq.shape[:1] * 2
    assert np.array_equal(out, ref_out)
    assert np.array_equal(attn, ref_attn)
    grad_seq = attention_block_backward(params, cache, grad_out)
    assert grad_seq.dtype == seq.dtype
    assert np.array_equal(grad_seq, _loop_attention_backward(params, ref_cache, grad_out))


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
    model = init_frozen_model(3, DimsConfig(), "C", MapperConfig(), dtype=dtype)
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


def _scaled_ulps(got, full):
    """Largest |got - full| in units of the dtype's epsilon times max |full|."""
    return np.abs(got - full).max() / (np.finfo(full.dtype).eps * np.abs(full).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("t_count", [1, 5, 27])
def test_trimmed_block_matches_full_block_rows(dtype, heads, t_count):
    """A block run for a subset of rows gives the full block's output and
    attention on those rows, and the input gradient of the full block with
    zero gradient on the dropped rows, within 8 eps of their largest value:
    the CLS-like last row alone, the rows before it (variant B without its
    prompts) and one middle row."""
    d = 32
    params = _random_block(50 + heads, d, dtype)
    rng = Rng(160 + t_count)
    seq = rng.gaussian_matrix(t_count, d).astype(dtype)
    grad_out = rng.gaussian_matrix(t_count, d).astype(dtype)
    full_out, full_attn, full_cache = attention_block(params, seq, heads)
    kept_sets = {(t_count - 1, t_count), (0, max(t_count - 1, 1)), (t_count // 2, t_count // 2 + 1)}
    for start, stop in sorted(kept_sets):
        rows = slice(start, stop)
        out, attn, cache = attention_block(params, seq, heads, rows=rows)
        assert out.shape == (stop - start, d) and out.dtype == dtype
        assert attn.shape == (heads, stop - start, t_count)
        assert _scaled_ulps(out, full_out[rows]) <= 8
        assert _scaled_ulps(attn, full_attn[:, rows]) <= 8
        grad_full = np.zeros_like(grad_out)
        grad_full[rows] = grad_out[rows]
        grad_seq = attention_block_backward(params, cache, grad_out[rows])
        assert grad_seq.shape == seq.shape and grad_seq.dtype == dtype
        assert _scaled_ulps(grad_seq, attention_block_backward(params, full_cache, grad_full)) <= 8


# ---------------------------------------------------------------------------
# kernels write only into their own temporaries, with the plain formulas' bits
# ---------------------------------------------------------------------------


def _plain_gelu(x):
    """The out-of-place formula the in-place gelu replaced."""
    inner = numkit._GELU_C * (x + numkit._GELU_A * x * x * x)
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), t


def _plain_layer_norm(gamma, beta, x):
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + numkit.LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, xhat, inv


def _plain_softmax(x):
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _plain_attention(params, seq, heads):
    """(out, attn) of the out-of-place block formula, leading axes allowed."""
    *lead, t_count, d = seq.shape
    scale = 1.0 / math.sqrt(d // heads)
    p = params.tensors

    def split(x):
        return x.reshape(*lead, t_count, heads, d // heads).swapaxes(-2, -3)

    h1, _, _ = _plain_layer_norm(p["ln1.gamma"], p["ln1.beta"], seq)
    q = split(h1 @ p["wq"].T + p["bq"])
    k = split(h1 @ p["wk"].T + p["bk"])
    v = split(h1 @ p["wv"].T + p["bv"])
    attn = _plain_softmax((q @ k.swapaxes(-1, -2)) * scale)
    o = (attn @ v).swapaxes(-2, -3).reshape(*lead, t_count, d)
    y = seq + (o @ p["wo"].T + p["bo"])
    h2, _, _ = _plain_layer_norm(p["ln2.gamma"], p["ln2.beta"], y)
    a1, _ = _plain_gelu(h2 @ p["w1"].T + p["b1"])
    return y + (a1 @ p["w2"].T + p["b2"]), attn


def _softmax_inputs(rng, t_count, g, dtype):
    """Scores of width T for softmax_rows: random rows under the leading
    stacks (), (H,) and (g, H), a strided view, single rows, and rows whose
    max is +inf, -inf, NaN, a tie, +0.0 or -0.0."""
    stacks = [(3.0 * rng.standard_normal((*lead, t_count, t_count))).astype(dtype)
              for lead in ((), (4,), (g, 4))]
    strided = np.stack([stacks[-1], -stacks[-1]], axis=-1)[..., 0]
    special = (-1.0 - np.abs(rng.standard_normal((9, t_count)))).astype(dtype)
    special[0, 0] = np.inf
    special[1, -1] = -np.inf
    special[2] = -np.inf
    special[3, t_count // 2] = np.nan
    special[4, 0] = special[4, -1] = 2.5
    special[5, 0], special[5, -1] = -0.0, 0.0
    special[6, 0], special[6, -1] = 0.0, -0.0
    special[7, -1] = -0.0
    special[8, 0] = 0.0
    return [*stacks, strided, stacks[0][0], stacks[0][:1], special,
            np.stack([special, special[::-1], special])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(27, 32), (3, 27, 32), (1, 32), (9, 32), (16, 32), (17, 32),
                                   (64, 32), (2, 1, 32), (4, 9, 32), (2, 17, 32), (2, 64, 32)])
def test_forward_kernels_leave_inputs_and_match_plain_formulas(dtype, shape):
    """Every forward kernel gives the bits of its plain formula and leaves its
    input untouched. softmax_rows takes its row max in another order than the
    plain per-row reduce; max is exact in any order, but the sign of a zero
    max (+0.0 against -0.0 in one row) may differ, and exp(x - m) cannot see
    it. So the softmax outputs are compared, not the max."""
    rng = np.random.default_rng(sum(shape))
    x = (2.0 * rng.standard_normal(shape)).astype(dtype)
    before = x.tobytes()
    params = _random_block(80, shape[-1], dtype)
    tensors_before = {k: v.tobytes() for k, v in params.tensors.items()}
    gamma, beta = params.tensors["ln1.gamma"], params.tensors["ln1.beta"]

    out, cache = gelu(x)
    ref, ref_t = _plain_gelu(x)
    assert out.tobytes() == ref.tobytes() and cache[1].tobytes() == ref_t.tobytes()
    assert cache[0] is x

    out, (xhat, inv, g) = layer_norm(LayerParams("ln", {"gamma": gamma, "beta": beta}), x)
    ref, ref_xhat, ref_inv = _plain_layer_norm(gamma, beta, x)
    assert out.dtype == dtype and out.tobytes() == ref.tobytes()
    assert xhat.tobytes() == ref_xhat.tobytes() and inv.tobytes() == ref_inv.tobytes()

    out, _ = softmax_rows(x)
    assert out.tobytes() == _plain_softmax(x).tobytes()
    with np.errstate(invalid="ignore"):
        for scores in _softmax_inputs(rng, shape[-2], shape[0] if len(shape) == 3 else 2, dtype):
            scores_before = scores.tobytes()
            out, _ = softmax_rows(scores)
            assert out.dtype == dtype and out.shape == scores.shape
            assert out.tobytes() == _plain_softmax(scores).tobytes()
            assert scores.tobytes() == scores_before

    ref, ref_attn = _plain_attention(params, x, 4)
    strided = np.stack([x, -x], axis=-1)[..., 0]
    for seq in (x, strided):
        out, attn, _ = attention_block(params, seq, 4)
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()
        assert attn.tobytes() == ref_attn.tobytes()

    assert x.tobytes() == before
    assert {k: v.tobytes() for k, v in params.tensors.items()} == tensors_before


def _plain_gelu_backward(x, t, grad_out):
    dinner = numkit._GELU_C * (1.0 + 3.0 * numkit._GELU_A * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return grad_out * local


def _plain_layer_norm_backward(xhat, inv, gamma, grad_out):
    n = xhat.shape[-1]
    dxhat = grad_out * gamma
    return inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )


def _plain_softmax_backward(p, grad_out):
    return p * (grad_out - np.add.reduce(grad_out * p, axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(27, 32), (3, 27, 32)])
def test_backward_kernels_leave_inputs_and_match_plain_formulas(dtype, shape):
    rng = np.random.default_rng(7 + sum(shape))
    x = (2.0 * rng.standard_normal(shape)).astype(dtype)
    grad_out = rng.standard_normal(shape).astype(dtype)
    gamma = (1.0 + 0.2 * rng.standard_normal(shape[-1])).astype(dtype)
    ln = LayerParams("ln", {"gamma": gamma, "beta": np.zeros_like(gamma)})
    _, gelu_cache = gelu(x)
    _, ln_cache = layer_norm(ln, x)
    p, _ = softmax_rows(x)
    inputs = (x, grad_out, gamma, p, *gelu_cache, *ln_cache)
    before = [a.tobytes() for a in inputs]

    got = gelu_backward(gelu_cache, grad_out)
    assert got.dtype == dtype
    assert got.tobytes() == _plain_gelu_backward(*gelu_cache, grad_out).tobytes()
    got = layer_norm_backward(ln_cache, grad_out)
    assert got.tobytes() == _plain_layer_norm_backward(*ln_cache, grad_out).tobytes()
    got = softmax_rows_backward(p, grad_out)
    assert got.tobytes() == _plain_softmax_backward(p, grad_out).tobytes()
    assert [a.tobytes() for a in inputs] == before


# ---------------------------------------------------------------------------
# kernel contract of the stacked backward: g images at once give the bytes
# of g single calls. This is a property of the BLAS build's kernel choice by
# shape, so a failure names the OpenBLAS core it ran on.
# ---------------------------------------------------------------------------


STACKS = (1, 2, 7, 12)


@st.composite
def prompted_dims(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    layers = draw(st.integers(1, 3))
    return DimsConfig(
        d_t=8, d_v=heads * draw(st.integers(2, 8)), d_e=8, P=draw(st.integers(1, 16)),
        m=3, L_t=1, L_v=layers, H=heads, n=draw(st.integers(1, 10)),
        insert_layer=draw(st.integers(0, layers - 1)), d_in=5, vocab=16,
    )


def _same_bytes(stacked, singles, what):
    for r, single in enumerate(singles):
        assert stacked[r].dtype == single.dtype
        assert stacked[r].tobytes() == single.tobytes(), (
            f"{what}: stack of {len(singles)}, image {r} moved bits on OpenBLAS "
            f"core {openblas_core()}"
        )


@settings(max_examples=20, deadline=None)
@given(prompted_dims(), st.sampled_from([np.float32, np.float64]), st.sampled_from("BC"),
       st.integers(0, 2**31))
def test_stacked_backward_matches_single_calls(dims, dtype, variant, seed):
    """Also through the last block's trimmed cache: its gradient comes in on
    the kept rows (CLS for C, patches and CLS for B) and leaves on all T."""
    from elip.encoders import image_backward, image_forward, joint_embed, kept_rows

    model = init_frozen_model(seed % 1000, dims, variant, MapperConfig(hidden=8),
                              dtype=dtype)
    rng = np.random.default_rng(seed)
    g_max = max(STACKS)
    encs = [image_forward(model, rng.standard_normal((dims.P, dims.d_in)),
                          0.5 * rng.standard_normal((dims.n, dims.d_v)))
            for _ in range(g_max)]
    kept = kept_rows(model)
    grad_v = rng.standard_normal((g_max, dims.d_e))
    grad_patches = (rng.standard_normal((g_max, dims.P, dims.d_v)).astype(dtype)
                    if variant == "B" else [None] * g_max)
    grad_kept = rng.standard_normal((g_max, kept.stop - kept.start, dims.d_v)).astype(dtype)
    grad_rows = rng.standard_normal((g_max, dims.P + 1 + dims.n, dims.d_v)).astype(dtype)
    layers = sorted({dims.insert_layer, dims.L_v - 1})
    grad_outs = {i: grad_kept if i == dims.L_v - 1 else grad_rows for i in layers}

    def final_ln_backward(enc, grad):
        ln_cache, _, _ = joint_embed(model, enc.kept)[2]
        return layer_norm_backward(ln_cache, grad), layer_norm_param_grads(ln_cache, grad)

    kept_stack = np.stack([e.kept for e in encs])
    singles = {
        "image_backward": [image_backward(model, [e], joint_embed(model, e.kept[None])[2], [gv],
                                          None if gp is None else [gp])[0]
                           for e, gv, gp in zip(encs, grad_v, grad_patches)],
        "layer_norm_backward": [final_ln_backward(e, gr) for e, gr in zip(encs, grad_kept)],
    }
    for i in layers:
        singles[i] = [attention_block_backward(model.image_blocks[i], e.block_caches[i], gr)
                      for e, gr in zip(encs, grad_outs[i])]
        assert all(x.shape == (dims.P + 1 + dims.n, dims.d_v) for x in singles[i])
    for g in STACKS:
        head_cache = joint_embed(model, kept_stack[:g])[2]
        ln_cache = head_cache[0]
        got = image_backward(model, encs[:g], head_cache, grad_v[:g],
                             grad_patches[:g] if variant == "B" else None)
        assert got.shape == (g, dims.n, dims.d_v)
        _same_bytes(got, singles["image_backward"][:g], "image_backward")
        grad_x = layer_norm_backward(ln_cache, grad_kept[:g])
        grads = layer_norm_param_grads(ln_cache, grad_kept[:g])
        _same_bytes(grad_x, [x for x, _ in singles["layer_norm_backward"][:g]], "layer_norm")
        for key in ("gamma", "beta"):
            _same_bytes(grads[key], [s[key] for _, s in singles["layer_norm_backward"][:g]],
                        f"layer_norm {key}")
        for i in layers:
            block_cache = numkit.stack_block_caches([e.block_caches[i] for e in encs[:g]])
            grad_x = attention_block_backward(model.image_blocks[i], block_cache,
                                              grad_outs[i][:g])
            _same_bytes(grad_x, singles[i][:g], f"block {i}")


@settings(max_examples=12, deadline=None)
@given(prompted_dims(), st.sampled_from([np.float32, np.float64]), st.sampled_from("BC"),
       st.integers(0, 2**31))
def test_stacked_head_keeps_each_images_bytes(dims, dtype, variant, seed):
    """The last block's MLP half runs in the joint head, over the stack of
    the kept rows' attention residuals. For stacks of 1, 7 and 200 images,
    joint_embed's v_joint and B's final patch states, and image_backward's
    prompt gradients, have the bytes of each image's 1-stack call; a
    1-stack call has the bytes of the full attention_block, MLP half
    included, on the kept rows."""
    from unittest import mock

    from elip.encoders import image_backward, image_forward, joint_embed, project_normalize

    model = init_frozen_model(seed % 1000, dims, variant, MapperConfig(hidden=8),
                              dtype=dtype)
    rng = np.random.default_rng(seed)
    stacks = (1, 7, 200)
    inputs = [(rng.standard_normal((dims.P, dims.d_in)),
               0.5 * rng.standard_normal((dims.n, dims.d_v))) for _ in range(max(stacks))]
    encs = [image_forward(model, *x) for x in inputs]
    kept = np.stack([e.kept for e in encs])
    grad_v = rng.standard_normal((max(stacks), dims.d_e))
    grad_p = (rng.standard_normal((max(stacks), dims.P, dims.d_v)).astype(dtype)
              if variant == "B" else None)

    def head(lo, hi):
        patch_states, v_joint, cache = joint_embed(model, kept[lo:hi])
        grad = image_backward(model, encs[lo:hi], cache, grad_v[lo:hi],
                              None if grad_p is None else grad_p[lo:hi])
        return v_joint, patch_states, grad

    singles = [[x[0] for x in head(r, r + 1) if x is not None] for r in range(max(stacks))]
    for g in stacks:
        for part, got in enumerate(x for x in head(0, g) if x is not None):
            _same_bytes(got, [single[part] for single in singles[:g]], f"head part {part}")

    real = numkit.attention_block

    def full_block(*args, **kwargs):
        return real(*args, **{**kwargs, "mlp": True})

    for r in range(0, max(stacks), 37):
        with mock.patch.object(numkit, "attention_block", full_block):
            full = image_forward(model, *inputs[r]).kept
        out, _ = numkit.block_mlp(model.image_blocks[-1], kept[r:r + 1])
        assert out[0].tobytes() == full.tobytes()
        states, _ = layer_norm(model.image_ln, full)
        v_joint, _ = project_normalize(model.proj_image, states[-1])
        assert singles[r][0].tobytes() == v_joint.tobytes()


def test_stacked_caches_share_parameters_and_view_a_single_image():
    from elip.encoders import image_forward

    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8))
    enc = image_forward(model, Rng(3).gaussian_matrix(TINY.P, TINY.d_in),
                        Rng(4).gaussian_matrix(TINY.n, TINY.d_v))
    cache = enc.block_caches[0]
    one = numkit.stack_block_caches([cache])
    for stacked, single in ((one[1], cache[1]), (one[4], cache[4]), (one[6][0], cache[6][0])):
        assert stacked.shape == (1,) + single.shape and np.shares_memory(stacked, single)
    xhat, inv, gamma = one[0]
    assert np.shares_memory(xhat, cache[0][0]) and gamma is cache[0][2]
    two = numkit.stack_block_caches([cache, cache])
    assert two[1].shape == (2,) + cache[1].shape and two[0][2] is cache[0][2]
    _assert_stacked_layout(one, cache, 1)
    _assert_stacked_layout(two, cache, 2)


def _assert_stacked_layout(stacked, single, g):
    """stacked has single's layout, entry for entry: each array stacked g
    deep or shared (the layer-norm gamma), every other value equal."""
    assert type(stacked) is type(single)
    if isinstance(single, tuple):
        assert len(stacked) == len(single)
        for s, c in zip(stacked, single):
            _assert_stacked_layout(s, c, g)
    elif isinstance(single, np.ndarray):
        assert stacked is single or stacked.shape == (g,) + single.shape
    else:
        assert stacked == single


# ---------------------------------------------------------------------------
# ranking kernel
# ---------------------------------------------------------------------------


def _layouts(mat):
    """The same rows as contiguous, column-strided and read-only matrices."""
    wide = np.repeat(mat, 2, axis=1)
    return {
        "contiguous": np.ascontiguousarray(mat),
        "strided": wide[:, ::2],
        "readonly": np.frombuffer(mat.tobytes(), dtype=mat.dtype).reshape(mat.shape),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [4, 24, 32])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "readonly"])
def test_row_dots_matches_per_row_dot(dtype, d, layout):
    """Each row's score has the bits and dtype of np.dot on that row, with
    the arguments either way round."""
    rng = np.random.default_rng(1000 + d)
    rows = _layouts(rng.standard_normal((300, d)).astype(dtype))[layout]
    assert rows.flags.c_contiguous == (layout != "strided")
    assert rows.flags.writeable == (layout != "readonly")
    vec = rng.standard_normal(d).astype(dtype)
    got = numkit.row_dots(rows, vec)
    expected = np.array([np.dot(rows[r], vec) for r in range(len(rows))])
    swapped = np.array([np.dot(vec, rows[r]) for r in range(len(rows))])
    assert got.dtype == expected.dtype == dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(got, swapped)


def test_row_dots_mixed_dtypes_match_per_row_dot():
    rng = np.random.default_rng(1100)
    rows = rng.standard_normal((50, 24)).astype(np.float32)
    vec = rng.standard_normal(24)
    got = numkit.row_dots(rows, vec)
    expected = np.array([np.dot(rows[r], vec) for r in range(len(rows))])
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected)


def test_order_desc_sorts_descending_with_ascending_tiebreak():
    scores = np.array([0.5, -0.0, 2.0, 0.5, 0.0, -1.0, 2.0])
    tiebreak = np.array([3, 1, 6, 0, 0, 2, 5])
    order = numkit.order_desc(scores, tiebreak)
    expected = sorted(range(len(scores)), key=lambda i: (-scores[i], tiebreak[i]))
    assert order.tolist() == expected == [6, 2, 3, 0, 4, 1, 5]


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
    """The CLS state's gradient on the encoder input, the raw patches: final
    layer norm, the last block's MLP half in the joint head, every block and
    the patch embedding. A C encoding keeps the CLS row alone after the last
    block, so the final layer norm's cache is that one row, from which the
    CLS state is rebuilt."""
    from elip.encoders import image_forward, joint_embed

    model = init_frozen_model(7, TINY, "C", MapperConfig(hidden=8), dtype=np.float64)
    w = Rng(18).gaussian_matrix(1, TINY.d_v)[0]

    def f(point):
        enc = image_forward(model, point["patches"])
        ln_cache, _, mlp_cache = joint_embed(model, enc.kept)[2]
        grad = numkit.layer_norm_backward(ln_cache, w[None])
        grad = numkit.block_mlp_backward(model.image_blocks[-1], mlp_cache, grad)
        for block, cache in reversed(list(zip(model.image_blocks, enc.block_caches))):
            grad = numkit.attention_block_backward(block, cache, grad)
        grad_patches, _ = linear_backward(
            (point["patches"], model.patch_embed.tensors["weight"]), grad[: TINY.P]
        )
        xhat, _, gamma = ln_cache
        assert xhat.shape == (1, TINY.d_v)
        cls_state = gamma * xhat[0] + model.image_ln.tensors["beta"]
        return float(np.dot(cls_state, w)), {"patches": grad_patches}

    assert grad_check(f, {"patches": Rng(17).gaussian_matrix(TINY.P, TINY.d_in)}, h=1e-5) < 1e-4


@pytest.mark.parametrize("variant", ["C", "B"])
@pytest.mark.parametrize("insert_layer", [0, TINY.L_v - 1])
@pytest.mark.parametrize("n", [1, 2])
def test_grad_check_prompts_through_trimmed_final_block(variant, insert_layer, n):
    """image_backward's prompt gradient through the last block, which keeps
    CLS alone for C and the patch rows and CLS for B, in float64: the loss
    reads v_joint and, for B, the final patch states."""
    from conftest import encode_one
    from elip.encoders import image_backward

    dims = replace(TINY, n=n, insert_layer=insert_layer)
    model = init_frozen_model(7, dims, variant, MapperConfig(hidden=8), dtype=np.float64)
    patches = Rng(19).gaussian_matrix(dims.P, dims.d_in)
    w_v = Rng(20).gaussian_matrix(1, dims.d_e)[0]
    w_p = Rng(21).gaussian_matrix(dims.P, dims.d_v) if variant == "B" else None

    def f(point):
        enc = encode_one(model, patches, point["prompts"])
        loss = float(np.dot(enc.v_joint, w_v))
        if w_p is not None:
            loss += float((enc.patch_states * w_p).sum())
        grad = image_backward(model, [enc.enc], enc.head_cache, [w_v],
                              None if w_p is None else [w_p])[0]
        return loss, {"prompts": grad}

    prompts = 0.5 * Rng(22).gaussian_matrix(n, dims.d_v)
    assert grad_check(f, {"prompts": prompts}, h=1e-5) < 1e-6


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
