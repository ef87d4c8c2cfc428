"""Minimal transformer layers over plain numpy arrays with explicit backward passes.

Parameters live in a flat dict[str, ndarray] ("parameter store"); gradients are
accumulated into a second dict with the same keys. Every *_fwd returns
(output, cache) and the matching *_bwd consumes (cache, d_output) and returns
d_input while accumulating parameter gradients. All ops follow the dtype of
their inputs, so the same code path runs float32 for training and float64 for
finite-difference checks.

Stage 2's backward runs in float64 although its parameters are float32: the
mean-pooled text feature divides by the int64 `lengths`, and the soft targets
are float64, so the similarity gradient dS and everything behind it promote.
Every dense-layer product goes through `matmul`/`matmul_tn`, which cast both
operands to their common dtype before one 2-D BLAS call; numpy would
otherwise run a (B, T, K) @ (K, N) product as B small GEMMs, and a mixed
float32/float64 product on its slower internal casting path.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
_MASK_BIG = 1e9  # additive logit penalty for masked keys; underflows to 0 after softmax

Params = dict
Grads = dict


def accumulate(grads: Grads, name: str, g: np.ndarray) -> None:
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std (torch-style trunc_normal_)."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(dtype)


# ---------------------------------------------------------------------------
# dense products


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    # a cast copy is C-contiguous, as in numpy's own mixed-dtype matmul, so
    # BLAS sees the same layout (small GEMMs round differently per layout)
    return a if a.dtype == dtype else np.ascontiguousarray(a, dtype=dtype)


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for x (..., K) and w (K, N), as one 2-D GEMM in np.result_type(x, w)."""
    dt = np.result_type(x, w)
    y = _cast(x.reshape(-1, x.shape[-1]), dt) @ _cast(w, dt)
    return y.reshape(*x.shape[:-1], w.shape[-1])


def matmul_tn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.reshape(-1, K).T @ b.reshape(-1, N) in np.result_type(a, b): a weight gradient."""
    dt = np.result_type(a, b)
    return _cast(a.reshape(-1, a.shape[-1]), dt).T @ _cast(b.reshape(-1, b.shape[-1]), dt)


# ---------------------------------------------------------------------------
# linear / layernorm / gelu / softmax


def linear_fwd(params: Params, prefix: str, x: np.ndarray):
    y = matmul(x, params[f"{prefix}.w"])
    y += params[f"{prefix}.b"]  # b has w's dtype, so y keeps the dtype of x @ w + b
    return y, x


def linear_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    x = cache
    accumulate(grads, f"{prefix}.w", matmul_tn(x, dy))
    accumulate(grads, f"{prefix}.b", dy.reshape(-1, dy.shape[-1]).sum(axis=0))
    return matmul(dy, params[f"{prefix}.w"].T)


def layernorm_fwd(params: Params, prefix: str, x: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    xhat = (x - mu) * inv
    y = xhat * params[f"{prefix}.g"] + params[f"{prefix}.b"]
    return y, (xhat, inv)


def layernorm_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    xhat, inv = cache
    g = params[f"{prefix}.g"]
    accumulate(grads, f"{prefix}.g", (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
    accumulate(grads, f"{prefix}.b", dy.reshape(-1, xhat.shape[-1]).sum(axis=0))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray):
    # x * x * x, not x**3: numpy sends a float32 cube through pow, ~100x slower
    u = np.asarray(_GELU_C, dtype=x.dtype) * (x + np.asarray(0.044715, dtype=x.dtype) * (x * x * x))
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    return y, (x, t)


def gelu_bwd(cache, dy: np.ndarray):
    x, t = cache
    du = np.asarray(_GELU_C, dtype=x.dtype) * (1.0 + 3.0 * np.asarray(0.044715, dtype=x.dtype) * x**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# multi-head self-attention


def attention_fwd(params: Params, prefix: str, x: np.ndarray, heads: int, key_mask=None):
    """x: (B, T, E); key_mask: optional (B, T) with 1 = attend, 0 = ignore.

    Biases exist for q and v only: a key bias shifts every logit in a query
    row equally, so it is an exact null direction of the softmax (zero
    gradient forever); leaving it out keeps every parameter live.
    """
    B, T, E = x.shape
    dh = E // heads
    qkv = matmul(x, params[f"{prefix}.qkv.w"])
    c_qkv = x
    qv_b = params[f"{prefix}.qv.b"]
    q, k, v = np.split(qkv, 3, axis=-1)
    q = q + qv_b[:E]
    v = v + qv_b[E:]
    q = q.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)
    k = k.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)
    v = v.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=x.dtype)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    if key_mask is not None:
        bias = (key_mask.astype(x.dtype) - 1.0) * np.asarray(_MASK_BIG, dtype=x.dtype)
        logits = logits + bias[:, None, None, :]
    attn = softmax(logits, axis=-1)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, T, E)
    y, c_proj = linear_fwd(params, f"{prefix}.proj", ctx)
    return y, (c_qkv, c_proj, q, k, v, attn, scale)


def attention_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    c_qkv, c_proj, q, k, v, attn, scale = cache
    B, H, T, dh = q.shape
    E = H * dh
    dctx = linear_bwd(params, f"{prefix}.proj", c_proj, dy, grads)
    dctx = dctx.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dlogits = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = (dlogits @ k) * scale
    dk = (dlogits.swapaxes(-1, -2) @ q) * scale
    dq_flat, dk_flat, dv_flat = (
        d.transpose(0, 2, 1, 3).reshape(B, T, E) for d in (dq, dk, dv)
    )
    accumulate(grads, f"{prefix}.qv.b", np.concatenate([
        dq_flat.reshape(-1, E).sum(axis=0), dv_flat.reshape(-1, E).sum(axis=0)
    ]))
    dqkv = np.concatenate([dq_flat, dk_flat, dv_flat], axis=-1)
    accumulate(grads, f"{prefix}.qkv.w", matmul_tn(c_qkv, dqkv))
    return matmul(dqkv, params[f"{prefix}.qkv.w"].T)


# ---------------------------------------------------------------------------
# pre-norm transformer block and stacks


def block_fwd(params: Params, prefix: str, x: np.ndarray, heads: int, key_mask=None):
    h1, c_ln1 = layernorm_fwd(params, f"{prefix}.ln1", x)
    a, c_attn = attention_fwd(params, f"{prefix}.attn", h1, heads, key_mask)
    x1 = x + a
    h2, c_ln2 = layernorm_fwd(params, f"{prefix}.ln2", x1)
    m, c_fc1 = linear_fwd(params, f"{prefix}.fc1", h2)
    g, c_gelu = gelu_fwd(m)
    m2, c_fc2 = linear_fwd(params, f"{prefix}.fc2", g)
    return x1 + m2, (c_ln1, c_attn, c_ln2, c_fc1, c_gelu, c_fc2)


def block_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    c_ln1, c_attn, c_ln2, c_fc1, c_gelu, c_fc2 = cache
    dg = linear_bwd(params, f"{prefix}.fc2", c_fc2, dy, grads)
    dm = gelu_bwd(c_gelu, dg)
    dh2 = linear_bwd(params, f"{prefix}.fc1", c_fc1, dm, grads)
    dx1 = dy + layernorm_bwd(params, f"{prefix}.ln2", c_ln2, dh2, grads)
    da = attention_bwd(params, f"{prefix}.attn", c_attn, dx1, grads)
    return dx1 + layernorm_bwd(params, f"{prefix}.ln1", c_ln1, da, grads)


def stack_fwd(params: Params, prefix: str, x: np.ndarray, depth: int, heads: int, key_mask=None):
    caches = []
    for layer in range(depth):
        x, c = block_fwd(params, f"{prefix}.blk{layer}", x, heads, key_mask)
        caches.append(c)
    return x, caches


def stack_bwd(params: Params, prefix: str, caches, dy: np.ndarray, grads: Grads):
    for layer in reversed(range(len(caches))):
        dy = block_bwd(params, f"{prefix}.blk{layer}", caches[layer], dy, grads)
    return dy


def init_block(rng: np.random.Generator, params: Params, prefix: str, dim: int,
               mlp_hidden: int, dtype=np.float32, std: float = 0.02) -> None:
    params[f"{prefix}.ln1.g"] = np.ones(dim, dtype=dtype)
    params[f"{prefix}.ln1.b"] = np.zeros(dim, dtype)
    params[f"{prefix}.attn.qkv.w"] = trunc_normal(rng, (dim, 3 * dim), std=std, dtype=dtype)
    params[f"{prefix}.attn.qv.b"] = np.zeros(2 * dim, dtype)
    params[f"{prefix}.attn.proj.w"] = trunc_normal(rng, (dim, dim), std=std, dtype=dtype)
    params[f"{prefix}.attn.proj.b"] = np.zeros(dim, dtype)
    params[f"{prefix}.ln2.g"] = np.ones(dim, dtype=dtype)
    params[f"{prefix}.ln2.b"] = np.zeros(dim, dtype)
    params[f"{prefix}.fc1.w"] = trunc_normal(rng, (dim, mlp_hidden), std=std, dtype=dtype)
    params[f"{prefix}.fc1.b"] = np.zeros(mlp_hidden, dtype)
    params[f"{prefix}.fc2.w"] = trunc_normal(rng, (mlp_hidden, dim), std=std, dtype=dtype)
    params[f"{prefix}.fc2.b"] = np.zeros(dim, dtype)


def init_stack(rng: np.random.Generator, params: Params, prefix: str, dim: int,
               depth: int, mlp_hidden: int, dtype=np.float32, std: float = 0.02) -> None:
    for layer in range(depth):
        init_block(rng, params, f"{prefix}.blk{layer}", dim, mlp_hidden, dtype, std=std)
    params[f"{prefix}.lnf.g"] = np.ones(dim, dtype=dtype)
    params[f"{prefix}.lnf.b"] = np.zeros(dim, dtype)
