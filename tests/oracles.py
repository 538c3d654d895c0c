"""Reference math the tests check the package against, kept out of src/
because nothing outside the tests runs it: the central-difference gradient
checker, the layer-norm gamma/beta gradients the frozen encoders never
train, and the analytic prompt slope of retrieval.estimate_flops. Not a
test module: pytest collects test_*.py alone."""

import numpy as np

from elip.config import DimsConfig, MapperConfig
from elip.errors import NumericError
from elip.numkit import Array


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


def layer_norm_param_grads(cache: tuple, grad_out: Array) -> dict[str, Array]:
    """The gamma/beta gradients of a numkit.layer_norm call. Rows run along
    axis -2; leading axes are a stack, and each stack entry gets its own
    gradient."""
    xhat = cache[0]
    return {"gamma": np.add.reduce(grad_out * xhat, axis=-2),
            "beta": np.add.reduce(grad_out, axis=-2)}


def prompt_flops_slope(dims: DimsConfig, mapper_hidden: int = 0) -> int:
    """Analytic d(FLOPs)/dn for n >= 1 under retrieval.estimate_flops'
    convention."""
    hidden = MapperConfig(hidden=mapper_hidden).hidden_width(dims.d_v)
    d = dims.d_v
    tq = dims.P + 1
    prompted_layers = dims.L_v - dims.insert_layer
    per_layer = 5 * d + 4 * d * d + 4 * tq * d + 5 * dims.H * tq
    return prompted_layers * per_layer + 2 * hidden * d
