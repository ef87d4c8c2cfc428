"""AdamW's in-place step against the plain expression it replaced, bitwise."""

import numpy as np
import pytest

from cardioclip.optim import AdamW


def reference_step(opt, params, grads, lr):
    """The expression form of AdamW.step: one temporary per operation."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1**opt.t
    bc2 = 1.0 - opt.beta2**opt.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        step_lr = lr * opt.lr_scale_of(name)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if opt.weight_decay and p.ndim >= 2:
            update = update + opt.weight_decay * p
        p -= (step_lr * update).astype(p.dtype, copy=False)


def _params(rng):
    return {"a.w": rng.normal(0, 0.1, (64, 32)).astype(np.float32),
            "a.b": rng.normal(0, 0.1, 32).astype(np.float32),
            "proj.w": rng.normal(0, 0.1, (32, 16)).astype(np.float32),
            "frozen.w": rng.normal(0, 0.1, (8, 8)).astype(np.float32)}


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
def test_step_bitwise_equal_to_reference(grad_dtype):
    rng = np.random.default_rng(0)
    params = _params(rng)
    ref_params = {k: v.copy() for k, v in params.items()}
    kw = dict(lr_scale_of=lambda name: 5.0 if name.startswith("proj.") else 1.0)
    opt, ref = AdamW(params, **kw), AdamW(ref_params, **kw)
    for step in range(4):
        grads = {k: rng.normal(0, 1e-2 * (step + 1), v.shape).astype(grad_dtype)
                 for k, v in params.items() if k != "frozen.w"}
        opt.step(params, grads, lr=1e-3)
        reference_step(ref, ref_params, grads, lr=1e-3)
        for k in params:
            assert params[k].dtype == np.float32
            assert params[k].tobytes() == ref_params[k].tobytes(), (step, k)
            assert opt.m[k].tobytes() == ref.m[k].tobytes(), (step, k)
            assert opt.v[k].tobytes() == ref.v[k].tobytes(), (step, k)
    assert params["frozen.w"].tobytes() == _params(np.random.default_rng(0))["frozen.w"].tobytes()


def test_step_leaves_grads_untouched():
    rng = np.random.default_rng(1)
    params = _params(rng)
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    before = {k: g.copy() for k, g in grads.items()}
    AdamW(params).step(params, grads, lr=1e-3)
    for k in grads:
        assert grads[k].tobytes() == before[k].tobytes()
