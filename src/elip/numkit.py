"""Dense tensor math with hand-written backward passes.

Token sequences are (T, d) matrices; attention views them as an
(H, T, d/H) head stack and runs each product as one batched matmul. The
backward kernels also take leading stack axes, (g, T, d) for g images
(stack_block_caches, stack_layer_norm_caches), as do block_mlp and
layer_norm: every product stays a >= 3-D matmul, which numpy runs as one
gemm per image, so each image has the bits of its own 2-D call. A (g*T,
d) reshape would run one larger gemm and move bits.

Arrays are plain numpy ndarrays (float32 for training/inference, float64
for gradient-check runs); every op is pure and keeps the input dtype.
Kernels write into their own fresh temporaries (out=, +=, *=), never into
an input, with the ufuncs of the plain formula in its order. The one
exception is softmax_rows' row max: it runs over a column-major copy of the
(rows, T) scores, as one elementwise max across the T columns instead of
one short reduce per row. Max is exact in any order, so only the sign of a
zero max can differ, and exp(x - m) cannot see it.
Each primitive comes as a forward returning (out, cache) plus a backward
taking (cache, grad_out) and returning exact analytic gradients, which the
tests check against central finite differences. Only linear_backward
also returns its tensors' gradients: the encoders' layer norms and blocks
stay frozen, so layer_norm_backward, block_mlp_backward and
attention_block_backward return the input gradient alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

Array = np.ndarray

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class LayerParams:
    """Named tensors of one layer; gradients travel in separate dicts."""

    name: str
    tensors: dict[str, Array]
    trainable: bool = False

    def qkv(self) -> tuple[Array, Array]:
        """A block's (3, d, d) stack of wq.T, wk.T, wv.T, each slice with the
        strides of its .T view, and its (3, 1, d) stack of bq, bk, bv.

        Built on first use and kept with the six tensors it was built from,
        which building marks read-only: writing into one of them raises. It
        is built again when one of them was replaced or is writeable (as a
        deepcopy's are), so it never holds stale weights."""
        src = [self.tensors[key] for key in _QKV_KEYS]
        built = self.__dict__.get("_qkv")
        if built is not None:
            for arr, was in zip(src, built[0]):
                if arr is not was or arr.flags.writeable:
                    built = None
                    break
        if built is None:
            for arr in src:
                arr.flags.writeable = False
            weights = np.stack(src[:3]).swapaxes(-1, -2)
            built = self._qkv = (src, weights, np.stack(src[3:])[:, None])
        return built[1], built[2]


_QKV_KEYS = ("wq", "wk", "wv", "bq", "bk", "bv")


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
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, (x, t)


def gelu_backward(cache: tuple, grad_out: Array) -> Array:
    """grad_out * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)), in two
    fresh buffers."""
    x, t = cache
    local = 0.5 * x
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    local *= tmp
    np.multiply(3.0 * _GELU_A, x, out=tmp)
    tmp *= x
    tmp += 1.0
    tmp *= _GELU_C
    local *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    tmp += local
    tmp *= grad_out
    return tmp


# ---------------------------------------------------------------------------
# layer norm (per-row, epsilon inside the sqrt)
# ---------------------------------------------------------------------------


def _layer_norm_core(gamma: Array, beta: Array, x: Array) -> tuple[Array, tuple]:
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    inv /= n
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = gamma * xhat
    out += beta
    return out, (xhat, inv, gamma)


def layer_norm(params: LayerParams, x: Array) -> tuple[Array, tuple]:
    """Per-row normalization then affine; gamma/beta of length x.cols."""
    return _layer_norm_core(params.tensors["gamma"], params.tensors["beta"], x)


def layer_norm_backward(cache: tuple, grad_out: Array) -> Array:
    """The gradient on x; leading axes are a stack. The frozen encoders
    never train a layer norm, so its gamma/beta gradients are not taken."""
    xhat, inv, gamma = cache
    n = xhat.shape[-1]
    # inv * (dxhat - sum(dxhat) / n - xhat * (sum(dxhat * xhat) / n))
    grad_x = grad_out * gamma
    term = grad_x * xhat
    mean_dot = np.add.reduce(term, axis=-1, keepdims=True) / n
    grad_x -= np.add.reduce(grad_x, axis=-1, keepdims=True) / n
    np.multiply(xhat, mean_dot, out=term)
    grad_x -= term
    grad_x *= inv
    return grad_x


# ---------------------------------------------------------------------------
# softmax over rows (max-subtracted)
# ---------------------------------------------------------------------------


def softmax_rows(x: Array) -> tuple[Array, Array]:
    """Softmax over the last axis, so (T, T) and (H, T, T) scores share it.
    The row max reads a column-major copy of the rows (module docstring),
    which for one row is x itself, so it is never written."""
    rows = np.asfortranarray(x.reshape(-1, x.shape[-1]))
    p = x - np.maximum.reduce(rows, axis=1).reshape(*x.shape[:-1], 1)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p, p


def softmax_rows_backward(cache: Array, grad_out: Array) -> Array:
    """p * (grad_out - sum(grad_out * p)), in one fresh buffer."""
    p = cache
    grad = grad_out * p
    np.subtract(grad_out, np.add.reduce(grad, axis=-1, keepdims=True), out=grad)
    grad *= p
    return grad


# ---------------------------------------------------------------------------
# pre-norm transformer block: y = x + MHA(LN(x)); z = y + MLP(LN(y))
# ---------------------------------------------------------------------------


def _split_heads(x: Array, heads: int) -> Array:
    """(..., T, H*dh) -> (..., H, T, dh) strided view. Head h has the strides
    of the column slice x[..., h*dh:(h+1)*dh], so a batched matmul runs the
    same per-head BLAS call as a loop over slices and gives the same bits."""
    *lead, t_count, d = x.shape
    return x.reshape(*lead, t_count, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: Array) -> Array:
    """(..., H, T, dh) -> contiguous (..., T, H*dh), inverse of _split_heads."""
    *lead, heads, t_count, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, t_count, heads * dh)


def pre_attention(params: LayerParams, x: Array, rows: slice = slice(None)) -> tuple:
    """A block's per-row work before attention, on a group of its input rows
    x: (xhat, inv) of LN1, then Q for the rows of x that rows selects, K and
    V for all of them.

    Q, K and V run as one broadcast matmul against params.qkv(), which numpy
    runs as one gemm per slice, so each has the bits of its own x @ w.T (a
    fused (T, 3d) gemm would not). Leading axes of x are a stack."""
    p = params.tensors
    w, b = params.qkv()
    h1, (xhat, inv, _) = _layer_norm_core(p["ln1.gamma"], p["ln1.beta"], x)
    if rows == slice(None):
        qkv = h1[..., None, :, :] @ w
        qkv += b
        q, k, v = (qkv[..., i, :, :] for i in range(3))
    else:
        kv = h1[..., None, :, :] @ w[1:]
        kv += b[1:]
        k, v = kv[..., 0, :, :], kv[..., 1, :, :]
        q = h1[..., rows, :] @ w[0]
        q += b[0]
    return xhat, inv, q, k, v


def attention_block(params: LayerParams, seq: Array, heads: int, rows: slice = slice(None),
                    pre=None, mlp=True) -> tuple[Array, Array, tuple]:
    """Multi-head self-attention block; returns (out, attn (H,R,T), cache)
    for the R rows of seq that rows selects (all T by default).

    Pre-norm residual wiring. pre holds the pre_attention groups of seq's
    rows in row order, each with Q for its share of the kept rows, and the
    block joins them along the row axis; by default it computes all of seq
    as one group. Q, the attention rows, the output projection, the
    residual and then block_mlp run for the kept rows alone; K and V for
    all T, as every row is a key. mlp=False skips block_mlp and returns
    the attention residual y (encoders.joint_embed runs its block_mlp over
    a stack of images). attn rows are their post-softmax weights per head.
    All heads run as one (H, R, dh) stack; leading axes of seq are a stack
    too. The cache holds only what the input gradient reads, with Q as an
    (R, d) and K, V as (T, d) matrices, so that stack_block_caches stacks
    them into g-deep arrays whose per-head views have the strides of the
    unstacked ones. A group, or a subset of rows, runs gemms with fewer
    rows (GEMV for one), which OpenBLAS may sum in another order: its rows
    need not have the bits of the same rows of one whole-sequence group.
    """
    d = seq.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    scale = 1.0 / math.sqrt(d // heads)
    p = params.tensors

    if pre is None:
        pre = (pre_attention(params, seq, rows),)
    xhat, inv, q, k, v = (parts[0] if len(pre) == 1 else np.concatenate(parts, axis=-2)
                          for parts in zip(*pre))

    scores = _split_heads(q, heads) @ _split_heads(k, heads).swapaxes(-1, -2)
    scores *= scale
    attn, _ = softmax_rows(scores)
    o = _merge_heads(attn @ _split_heads(v, heads))

    y = o @ p["wo"].T
    y += p["bo"]
    y += seq[..., rows, :]
    out, mlp_cache = block_mlp(params, y) if mlp else (y, (None, None))
    cache = ((xhat, inv, p["ln1.gamma"]), q, k, v, attn, *mlp_cache,
             heads, scale, rows)
    return out, attn, cache


def block_mlp(params: LayerParams, y: Array) -> tuple[Array, tuple]:
    """out = y + MLP(LN2(y)), MLP hidden width 4*d, a block's row-wise half
    after attention, with its (ln2 cache, gelu cache); leading axes of y
    are a stack, each (R, d) slice with the bits of its own call."""
    p = params.tensors
    h2, ln2_cache = _layer_norm_core(p["ln2.gamma"], p["ln2.beta"], y)
    m1 = h2 @ p["w1"].T
    m1 += p["b1"]
    a1, gelu_cache = gelu(m1)
    out = a1 @ p["w2"].T
    out += p["b2"]
    out += y
    return out, (ln2_cache, gelu_cache)


def block_mlp_backward(params: LayerParams, cache: tuple, grad_out: Array) -> Array:
    """The gradient on y of a block_mlp call, stacked as its input was."""
    ln2_cache, gelu_cache = cache
    grad_m1 = gelu_backward(gelu_cache, grad_out @ params.tensors["w2"])
    grad_y = layer_norm_backward(ln2_cache, grad_m1 @ params.tensors["w1"])
    grad_y += grad_out
    return grad_y


def attention_block_backward(params: LayerParams, cache: tuple, grad_out: Array) -> Array:
    """The gradient on all T block input rows, given grad_out on the rows
    the forward kept: on out, or on y when the forward ran no MLP half.
    cache is one attention_block cache, or stack_block_caches of several
    with grad_out stacked the same way. The block's own tensors are frozen,
    so their gradients are never formed."""
    ln1_cache, q, k, v, attn, ln2_cache, gelu_cache, heads, scale, rows = cache
    p = params.tensors
    grad_y = (grad_out if ln2_cache is None
              else block_mlp_backward(params, (ln2_cache, gelu_cache), grad_out))

    # attention branch: y = seq[rows] + O @ wo.T + bo
    grad_o = _split_heads(grad_y @ p["wo"], heads)
    q, k, v = (_split_heads(x, heads) for x in (q, k, v))
    grad_v = _merge_heads(attn.swapaxes(-1, -2) @ grad_o)
    grad_s = softmax_rows_backward(attn, grad_o @ v.swapaxes(-1, -2))
    grad_q = grad_s @ k
    grad_q *= scale
    grad_q = _merge_heads(grad_q)
    grad_k = grad_s.swapaxes(-1, -2) @ q
    grad_k *= scale
    grad_k = _merge_heads(grad_k)
    # K + Q has the bits of Q + K, so all rows give the untrimmed sum
    grad_h1 = grad_k @ p["wk"]
    grad_h1[..., rows, :] += grad_q @ p["wq"]
    grad_h1 += grad_v @ p["wv"]
    grad_ln1 = layer_norm_backward(ln1_cache, grad_h1)
    grad_ln1[..., rows, :] += grad_y
    return grad_ln1


def _stack(arrays) -> Array:
    """(g, ...) stack of g same-shape arrays; one array gives a [None] view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def stack_layer_norm_caches(caches: list) -> tuple:
    """One layer_norm cache for the (g, T, d) stack of g (T, d) inputs."""
    xhats, invs, gammas = zip(*caches)
    return _stack(xhats), _stack(invs), gammas[0]


def stack_block_caches(caches: list) -> tuple:
    """One attention_block cache for the (g, T, d) stack of g (T, d) inputs."""
    ln1, q, k, v, attn, ln2, gelu_caches, heads, scale, rows = zip(*caches)
    mlp = ((None, None) if ln2[0] is None  # a block that ran no MLP half
           else (stack_layer_norm_caches(ln2), tuple(map(_stack, zip(*gelu_caches)))))
    return (stack_layer_norm_caches(ln1), _stack(q), _stack(k), _stack(v), _stack(attn),
            *mlp, heads[0], scale[0], rows[0])


# ---------------------------------------------------------------------------
# ranking kernel: every text-image ranked list is scored and ordered here
# ---------------------------------------------------------------------------


def row_dots(rows: Array, vec: Array) -> Array:
    """Score each row of an (N, d) matrix against one (d,) vector.

    Contract: out[r] has the bits of np.dot(rows[r], vec), which equals
    np.dot(vec, rows[r]) bit for bit, for any layout and for mixed float
    dtypes. np.vecdot runs numpy's 1-D dot loop (the BLAS sdot/ddot that
    np.dot calls) once per row; a GEMV (rows @ vec) sums in another order
    and moves the last bits.
    """
    return np.vecdot(rows, vec)


def order_desc(scores: Array, tiebreak: Array) -> Array:
    """Indices that put scores in descending order, ties by ascending
    tiebreak; +0.0 and -0.0 tie."""
    return np.lexsort((tiebreak, -scores))
