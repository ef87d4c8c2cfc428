"""Finite-difference verification of every hand-written backward pass."""

import numpy as np

from cardioclip import nn
from cardioclip.gradcheck import gradient_check

RNG = np.random.default_rng(1234)
TOL = 1e-7  # float64 central differences on smooth ops


def _params_linear(din, dout):
    return {
        "lin.w": RNG.normal(0, 0.5, (din, dout)),
        "lin.b": RNG.normal(0, 0.5, dout),
    }


def test_gradient_check_on_quadratic():
    params = {"theta": RNG.normal(0, 1.0, (5, 3))}

    def loss_fn(p):
        loss = 0.5 * float((p["theta"] ** 2).sum())
        return loss, {"theta": p["theta"].copy()}

    err = gradient_check(loss_fn, params, n_probes=15, eps=1e-5, seed=0)
    assert err < 1e-9


def test_gradient_check_catches_wrong_gradient():
    params = {"theta": RNG.normal(0, 1.0, 4)}

    def bad_loss_fn(p):
        return 0.5 * float((p["theta"] ** 2).sum()), {"theta": 2.0 * p["theta"]}

    err = gradient_check(bad_loss_fn, params, n_probes=4, eps=1e-5, seed=0)
    assert err > 0.1


def test_linear_backward():
    params = _params_linear(4, 3)
    x = RNG.normal(0, 1, (2, 5, 4))
    w_out = RNG.normal(0, 1, (2, 5, 3))  # fixed projection makes the loss scalar

    def loss_fn(p):
        y, cache = nn.linear_fwd(p, "lin", x)
        grads = {}
        nn.linear_bwd(p, "lin", cache, w_out, grads)
        return float((y * w_out).sum()), grads

    assert gradient_check(loss_fn, params, n_probes=19, seed=1) < TOL


def test_layernorm_backward():
    params = {"ln.g": RNG.normal(1, 0.2, 6), "ln.b": RNG.normal(0, 0.2, 6)}
    x = RNG.normal(0, 2, (3, 6))
    w_out = RNG.normal(0, 1, (3, 6))

    def loss_fn(p):
        y, cache = nn.layernorm_fwd(p, "ln", x)
        grads = {}
        nn.layernorm_bwd(p, "ln", cache, w_out, grads)
        return float((y * w_out).sum()), grads

    assert gradient_check(loss_fn, params, n_probes=12, seed=2) < TOL


def test_layernorm_input_gradient():
    params = {"ln.g": RNG.normal(1, 0.2, 6), "ln.b": RNG.normal(0, 0.2, 6)}
    x0 = RNG.normal(0, 2, (3, 6))
    w_out = RNG.normal(0, 1, (3, 6))
    # treat the input as the parameter under test
    wrapped = {"x": x0.copy()}

    def loss_fn(p):
        y, cache = nn.layernorm_fwd(params, "ln", p["x"])
        dx = nn.layernorm_bwd(params, "ln", cache, w_out, {})
        return float((y * w_out).sum()), {"x": dx}

    assert gradient_check(loss_fn, wrapped, n_probes=18, seed=3) < TOL


def test_gelu_backward():
    x0 = RNG.normal(0, 2, (4, 5))
    w_out = RNG.normal(0, 1, (4, 5))
    wrapped = {"x": x0.copy()}

    def loss_fn(p):
        y, cache = nn.gelu_fwd(p["x"])
        return float((y * w_out).sum()), {"x": nn.gelu_bwd(cache, w_out)}

    assert gradient_check(loss_fn, wrapped, n_probes=20, seed=4) < TOL


def test_gelu_forward_float32_matches_float64_formula():
    x = np.random.default_rng(5).normal(0, 1, (16, 65, 256)).astype(np.float32)
    y, (x_cached, t) = nn.gelu_fwd(x)
    assert y.dtype == np.float32 and t.dtype == np.float32
    assert x_cached is x
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)))
    assert np.abs(y - ref).max() < 1e-6


def test_attention_backward_with_mask():
    rng = np.random.default_rng(7)
    dim, heads, B, T = 8, 2, 2, 5
    params = {}
    params["a.qkv.w"] = rng.normal(0, 0.3, (dim, 3 * dim))
    params["a.qv.b"] = rng.normal(0, 0.1, 2 * dim)
    params["a.proj.w"] = rng.normal(0, 0.3, (dim, dim))
    params["a.proj.b"] = rng.normal(0, 0.1, dim)
    x = rng.normal(0, 1, (B, T, dim))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
    w_out = rng.normal(0, 1, (B, T, dim))
    w_out[0, 3:] = 0.0  # read only valid positions of the masked row

    def loss_fn(p):
        y, cache = nn.attention_fwd(p, "a", x, heads, key_mask=mask)
        grads = {}
        nn.attention_bwd(p, "a", cache, w_out, grads)
        return float((y * w_out).sum()), grads

    assert gradient_check(loss_fn, params, n_probes=40, seed=5) < 1e-6


def test_block_stack_backward():
    rng = np.random.default_rng(8)
    dim, heads, depth = 8, 2, 2
    params = {}
    nn.init_stack(rng, params, "s", dim, depth, 2 * dim, dtype=np.float64)
    # nudge away from the symmetric init
    for k in params:
        params[k] = params[k] + rng.normal(0, 0.05, params[k].shape)
    x = rng.normal(0, 1, (2, 4, dim))
    w_out = rng.normal(0, 1, (2, 4, dim))

    def loss_fn(p):
        y, caches = nn.stack_fwd(p, "s", x, depth, heads)
        grads = {}
        nn.stack_bwd(p, "s", caches, w_out, grads)
        return float((y * w_out).sum()), grads

    assert gradient_check(loss_fn, params, n_probes=60, seed=6) < 1e-6


def test_softmax_rows_sum_to_one():
    z = RNG.normal(0, 10, (5, 7))
    assert np.allclose(np.exp(nn.log_softmax(z)).sum(axis=1), 1.0)
    assert np.allclose(np.exp(nn.log_softmax(z.T)).sum(axis=1), 1.0)


def test_trunc_normal_bounds():
    rng = np.random.default_rng(9)
    x = nn.trunc_normal(rng, (1000,), std=0.02)
    assert np.all(np.abs(x) <= 0.04 + 1e-12)
    assert abs(float(x.mean())) < 0.005
