import numpy as np
import pytest
from dataclasses import replace

from elip.config import DimsConfig, MapperConfig
from elip.encoders import TextEncoding, encode_text, init_frozen_model
from elip.errors import ConfigError
from elip.prompt_mapper import (
    map_prompts_backward,
    map_prompts_with_cache,
    pool_text_dense,
    prompts_for_text,
)
from elip.rng import Rng

from conftest import randomize_mapper


def text_enc_for(model, tokens=(1, 2, 3)):
    return encode_text(model, list(tokens))


def test_zero_final_layer_gives_zero_prompts(tiny_model, tiny_dims):
    prompts = prompts_for_text(tiny_model, text_enc_for(tiny_model))
    assert prompts.shape == (tiny_dims.n, tiny_dims.d_v)
    assert np.all(prompts == 0.0)


def test_paper_default_shape_ten_by_thirty_two():
    dims = DimsConfig()  # toy defaults carry the n=10 ablation winner
    assert dims.n == 10 and dims.d_v == 32
    model = init_frozen_model(7, dims, "C")
    prompts = prompts_for_text(model, text_enc_for(model))
    assert prompts.shape == (10, 32)


def test_reshape_convention_row_major(tiny_model, tiny_dims):
    model = randomize_mapper(tiny_model)
    te = text_enc_for(model)
    prompts, cache = map_prompts_with_cache(
        model.mapper, te, model.mapper_cfg, tiny_dims.d_v
    )
    flat = cache[-1][0] @ model.mapper.tensors["l3.weight"].T + model.mapper.tensors["l3.bias"]
    flat = flat[0]
    for i in range(tiny_dims.n):
        assert np.array_equal(prompts[i], flat[i * tiny_dims.d_v : (i + 1) * tiny_dims.d_v])
    assert np.array_equal(prompts.reshape(-1), flat)


def test_n_zero_yields_empty_prompts(tiny_dims):
    dims = replace(tiny_dims, n=0)
    model = init_frozen_model(7, dims, "C", MapperConfig(hidden=8))
    prompts = prompts_for_text(model, text_enc_for(model))
    assert prompts.shape == (0, dims.d_v)


def test_input_width_mismatch_is_config_error(tiny_model, tiny_dims):
    bad = TextEncoding(
        dense=np.zeros((tiny_dims.m, tiny_dims.d_t + 1)),
        t_cls=np.zeros(tiny_dims.d_t + 1),
        t_joint=np.zeros(tiny_dims.d_e),
    )
    with pytest.raises(ConfigError):
        prompts_for_text(tiny_model, bad)


def test_dense_mean_mode_uses_pooled_tokens(tiny_dims):
    cfg = MapperConfig(input_mode="dense_mean", hidden=8)
    model = init_frozen_model(7, tiny_dims, "C", cfg)
    randomize_mapper(model)
    te = text_enc_for(model)
    via_mode = prompts_for_text(model, te)
    pooled = TextEncoding(dense=te.dense, t_cls=pool_text_dense(te), t_joint=te.t_joint)
    via_cls, _ = map_prompts_with_cache(
        model.mapper, pooled, MapperConfig(input_mode="cls", hidden=8),
        tiny_dims.d_v,
    )
    assert np.array_equal(via_mode, via_cls)


def test_mapper_finite_difference(tiny_dims):
    model = init_frozen_model(
        7, tiny_dims, "C", MapperConfig(hidden=8), dtype=np.float64
    )
    randomize_mapper(model)
    te = text_enc_for(model)
    w = Rng(31).gaussian_matrix(tiny_dims.n, tiny_dims.d_v)

    mapper = model.mapper

    def loss_and_grads():
        prompts, cache = map_prompts_with_cache(mapper, te, model.mapper_cfg, tiny_dims.d_v)
        loss = float((prompts * w).sum())
        grads = map_prompts_backward(mapper, cache, w)
        return loss, grads

    h = 1e-6
    loss0, analytic = loss_and_grads()
    worst = 0.0
    for key in mapper.tensors:
        flat = mapper.tensors[key].reshape(-1)
        gflat = np.asarray(analytic[key]).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_and_grads()[0]
            flat[idx] = orig - h
            lm = loss_and_grads()[0]
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(gflat[idx] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# dense pooling
# ---------------------------------------------------------------------------


def test_pool_equal_tokens_is_identity():
    u = np.array([1.5, -2.0, 0.25])
    te = TextEncoding(dense=np.tile(u, (4, 1)), t_cls=u, t_joint=u)
    assert np.allclose(pool_text_dense(te), u)


def test_pool_symmetry():
    te = TextEncoding(
        dense=np.array([[1.0, 0.0], [0.0, 1.0]]), t_cls=np.zeros(2), t_joint=np.zeros(2)
    )
    assert np.allclose(pool_text_dense(te), [0.5, 0.5])


def test_pool_matches_column_means():
    dims = DimsConfig()
    model = init_frozen_model(7, dims, "C")
    te = encode_text(model, [3, 1, 4, 1, 5, 9, 2, 6])
    assert te.dense.shape == (8, dims.d_t)
    expected = np.array([te.dense[:, c].mean() for c in range(dims.d_t)])
    assert np.abs(pool_text_dense(te) - expected).max() < 1e-6
