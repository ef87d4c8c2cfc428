"""Minimal numpy transformer layers with explicit backward passes, and the two head losses.

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
float32/float64 product on its slower internal casting path. The operand
that stage 2 promotes, matmul's weight and matmul_tn's activation, is cast
CAST_BLOCK columns at a time, one GEMM per block into the result: the
blocks split output columns or rows, never the contracted axis, so every
dot product sums the same terms in the same order as the one-shot product,
and no float64 copy of the (B, 64, 4096) patch batch or of the patch
weight is ever whole.

Ownership: no kernel writes into its arguments (inputs, params, gradients
or caches); the elementwise kernels compute in place only into buffers they
allocated themselves, in the operation order and dtypes of the plain numpy
expression, so results are bitwise those of that expression. A parameter
has the dtype of the activations it meets, and a gradient that of its
cache or wider. A cache keeps only what its backward cannot rebuild: a
block caches no norm or GELU output, since each is an elementwise function
of that op's own cache, and block_bwd rebuilds it with layernorm_out or
gelu_out, the helpers the forward computed it with, so it is bitwise the
forward's and costs no GEMM. A *_bwd may consume its cache: block_bwd drops
each sub-cache, and each rebuilt array, once its backward has read it, and
stack_bwd pops each cache off its list, leaving the list empty, so a cache
is back-propagated once and each activation is freed as soon as the
backward is done with it. A stack is its blocks closed by its final norm
{prefix}.lnf, and its caches list holds one cache per block, then the
norm's.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
_MASK_BIG = 1e9  # additive logit penalty for masked keys; underflows to 0 after softmax
CAST_BLOCK = 512  # columns of a promoted operand cast per GEMM by matmul and matmul_tn

Params = dict
Grads = dict


def accumulate(grads: Grads, name: str, g: np.ndarray) -> None:
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g.copy()


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
    """x @ w for x (..., K) and w (K, N), as one 2-D GEMM in np.result_type(x, w),
    or, when w must be promoted, one per CAST_BLOCK columns of w."""
    dt = np.result_type(x, w)
    x2 = _cast(x.reshape(-1, x.shape[-1]), dt)
    if w.dtype == dt:
        y = x2 @ w
    else:
        y = np.empty((x2.shape[0], w.shape[1]), dtype=dt)
        for c in range(0, w.shape[1], CAST_BLOCK):
            np.matmul(x2, _cast(w[:, c:c + CAST_BLOCK], dt), out=y[:, c:c + CAST_BLOCK])
    return y.reshape(*x.shape[:-1], w.shape[-1])


def matmul_tn(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.reshape(-1, K).T @ b.reshape(-1, N) in np.result_type(a, b): a weight gradient,
    as one 2-D GEMM or, when a must be promoted, one per CAST_BLOCK columns of a."""
    dt = np.result_type(a, b)
    a2 = a.reshape(-1, a.shape[-1])
    b2 = _cast(b.reshape(-1, b.shape[-1]), dt)
    if a2.dtype == dt:
        return a2.T @ b2
    y = np.empty((a2.shape[1], b2.shape[1]), dtype=dt)
    for c in range(0, a2.shape[1], CAST_BLOCK):
        np.matmul(_cast(a2[:, c:c + CAST_BLOCK], dt).T, b2, out=y[c:c + CAST_BLOCK])
    return y


# ---------------------------------------------------------------------------
# linear / layernorm / gelu / softmax / head losses


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
    # np.var's own arithmetic (down to its intp divisor) on one deviation
    # buffer, whose square's buffer then takes y: bitwise equal to
    # (x - mu) / sqrt(x.var() + eps) * g + b
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = np.multiply(xhat, xhat)
    inv = y.sum(axis=-1, keepdims=True)
    inv /= np.intp(x.shape[-1])
    inv += np.asarray(LN_EPS, dtype=x.dtype)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    del y
    return layernorm_out(params, prefix, xhat), (xhat, inv)


def layernorm_out(params: Params, prefix: str, xhat: np.ndarray) -> np.ndarray:
    """xhat * g + b: the norm's output from its cached xhat, as the forward
    computes it, so the backward can rebuild it instead of caching it."""
    y = xhat * params[f"{prefix}.g"]
    y += params[f"{prefix}.b"]
    return y


def layernorm_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    xhat, inv = cache
    E = xhat.shape[-1]
    t = dy * xhat
    accumulate(grads, f"{prefix}.g", t.reshape(-1, E).sum(axis=0))
    accumulate(grads, f"{prefix}.b", dy.reshape(-1, E).sum(axis=0))
    # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv, dxhat = dy * g
    dx = dy * params[f"{prefix}.g"]
    m1 = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=t)
    m2 = t.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=t)
    dx -= m1
    dx -= t
    dx *= inv
    return dx


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray):
    # u = C * (x + 0.044715 * x^3) and t = tanh(u) in one buffer; the cube
    # is x * x * x, not x**3: numpy sends a float32 cube through pow, ~100x slower
    t = x * x
    t *= x
    t *= np.asarray(0.044715, dtype=x.dtype)
    t += x
    t *= np.asarray(_GELU_C, dtype=x.dtype)
    np.tanh(t, out=t)
    return gelu_out(x, t), (x, t)


def gelu_out(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + t), GELU's output from its cache (x, t), as the forward
    computes it, so the backward can rebuild it instead of caching it."""
    y = np.add(t, 1.0)
    y *= 0.5 * x
    return y


def gelu_bwd(cache, dy: np.ndarray):
    x, t = cache
    # dy * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * du), du = C * (1 + 3 * 0.044715 * x^2),
    # in two buffers: every sum and product takes its operands as written, in
    # x's dtype up to the one with dy
    h = 0.5 * x
    s = t * t
    np.subtract(1.0, s, out=s)
    h *= s
    np.multiply(x, x, out=s)
    s *= 3.0 * np.asarray(0.044715, dtype=x.dtype)
    s += 1.0
    s *= np.asarray(_GELU_C, dtype=x.dtype)
    h *= s
    np.add(t, 1.0, out=s)
    s *= 0.5
    s += h
    del h
    return np.multiply(dy, s, out=s if s.dtype == dy.dtype else None)


def _exp_normalize(e: np.ndarray, axis: int) -> np.ndarray:
    """exp(e) / its sum along axis, computed in e's own buffer."""
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean over rows of -sum_j targets_ij log softmax(logits)_ij, for soft or one-hot
    target rows: returns (loss, dloss/dlogits, softmax probabilities)."""
    logp = log_softmax(logits)
    loss = float(-(targets * logp).mean(axis=0).sum())
    p = np.exp(logp)
    row_mass = targets.sum(axis=1, keepdims=True)
    dlogits = (p * row_mass - targets) / logits.shape[0]
    return loss, dlogits, p


def sigmoid_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy of sigmoid(logits) against targets in [0, 1], as
    softplus(z) - t * z, finite at any finite logit: returns (loss, dloss/dlogits).
    The gradient's sigmoid takes the logits clipped to +/-30, where it is within
    1e-13 of 0 or 1. softplus is not np.logaddexp(0, z), which warns on a NaN
    logit before the training loop can name it."""
    softplus = np.maximum(logits, 0) + np.log1p(np.exp(-np.abs(logits)))
    loss = float((softplus - targets * logits).mean())
    p = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
    return loss, (p - targets) / targets.size


# ---------------------------------------------------------------------------
# multi-head self-attention


def _heads(a: np.ndarray, i: int, heads: int) -> np.ndarray:
    """The (B, heads, T, dh) view of the i-th E-wide third of a (B, T, 3E) array."""
    B, T, E3 = a.shape
    E = E3 // 3
    return a[..., i * E:(i + 1) * E].reshape(B, T, heads, E // heads).transpose(0, 2, 1, 3)


def attention_fwd(params: Params, prefix: str, x: np.ndarray, heads: int, key_mask=None):
    """x: (B, T, E); key_mask: optional (B, T) with 1 = attend, 0 = ignore.

    Biases exist for q and v only: a key bias shifts every logit in a query
    row equally, so it is an exact null direction of the softmax (zero
    gradient forever); leaving it out keeps every parameter live. q, k and v
    are views of the one (B, T, 3E) projection, their biases added in place.
    """
    B, T, E = x.shape
    qkv = matmul(x, params[f"{prefix}.qkv.w"])
    qv_b = params[f"{prefix}.qv.b"]
    qkv[..., :E] += qv_b[:E]
    qkv[..., 2 * E:] += qv_b[E:]
    q, k, v = (_heads(qkv, i, heads) for i in range(3))
    scale = np.asarray(1.0 / math.sqrt(E // heads), dtype=x.dtype)
    logits = q @ k.swapaxes(-1, -2)
    logits *= scale
    if key_mask is not None:
        bias = (key_mask.astype(x.dtype) - 1.0) * np.asarray(_MASK_BIG, dtype=x.dtype)
        logits += bias[:, None, None, :]
    logits -= logits.max(axis=-1, keepdims=True)
    attn = _exp_normalize(logits, -1)
    ctx = np.empty((B, T, E), dtype=attn.dtype)
    np.matmul(attn, v, out=ctx.reshape(B, T, heads, E // heads).transpose(0, 2, 1, 3))
    y, c_proj = linear_fwd(params, f"{prefix}.proj", ctx)
    return y, (x, c_proj, q, k, v, attn, scale)


def attention_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    c_qkv, c_proj, q, k, v, attn, scale = cache
    B, H, T, dh = q.shape
    E = H * dh
    dctx = linear_bwd(params, f"{prefix}.proj", c_proj, dy, grads)
    dctx = dctx.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    # dlogits = attn * (dattn - rowsum(dattn * attn)), in dattn's buffer
    dlogits = dctx @ v.swapaxes(-1, -2)
    dlogits -= (dlogits * attn).sum(axis=-1, keepdims=True)
    dlogits *= attn
    # dq, dk and dv are written straight into their thirds of dqkv
    dqkv = np.empty((B, T, 3 * E), dtype=dlogits.dtype)
    dq, dk, dv = (_heads(dqkv, i, H) for i in range(3))
    np.matmul(dlogits, k, out=dq)
    dq *= scale
    np.matmul(dlogits.swapaxes(-1, -2), q, out=dk)
    dk *= scale
    np.matmul(attn.swapaxes(-1, -2), dctx, out=dv)
    accumulate(grads, f"{prefix}.qv.b", np.concatenate([
        dqkv[..., :E].reshape(-1, E).sum(axis=0), dqkv[..., 2 * E:].reshape(-1, E).sum(axis=0)
    ]))
    accumulate(grads, f"{prefix}.qkv.w", matmul_tn(c_qkv, dqkv))
    return matmul(dqkv, params[f"{prefix}.qkv.w"].T)


# ---------------------------------------------------------------------------
# pre-norm transformer block and stacks


def block_fwd(params: Params, prefix: str, x: np.ndarray, heads: int, key_mask=None):
    """Its cache keeps neither norm's output (the attention and fc1 inputs)
    nor GELU's (the fc2 input): block_bwd rebuilds each from the norm's or
    GELU's own cache, with the helpers that computed it here."""
    h1, c_ln1 = layernorm_fwd(params, f"{prefix}.ln1", x)
    x1, c_attn = attention_fwd(params, f"{prefix}.attn", h1, heads, key_mask)
    c_attn = c_attn[1:]  # all but its input, h1
    del h1
    x1 += x  # the residuals are added into the branch outputs' buffers
    h2, c_ln2 = layernorm_fwd(params, f"{prefix}.ln2", x1)
    m = linear_fwd(params, f"{prefix}.fc1", h2)[0]
    del h2
    g, c_gelu = gelu_fwd(m)
    y = linear_fwd(params, f"{prefix}.fc2", g)[0]
    y += x1
    return y, (c_ln1, c_attn, c_ln2, c_gelu)


def block_bwd(params: Params, prefix: str, cache, dy: np.ndarray, grads: Grads):
    """Consumes cache: each sub-cache is dropped once its backward has read
    it, and each rebuilt input once its linear backward has, so with the
    caller holding no other reference to the cache tuple, each activation is
    freed as soon as it is no longer needed."""
    c_ln1, c_attn, c_ln2, c_gelu = cache
    del cache
    dg = linear_bwd(params, f"{prefix}.fc2", gelu_out(*c_gelu), dy, grads)
    dm = gelu_bwd(c_gelu, dg)
    del c_gelu, dg
    dh2 = linear_bwd(params, f"{prefix}.fc1", layernorm_out(params, f"{prefix}.ln2", c_ln2[0]),
                     dm, grads)
    del dm
    dx1 = layernorm_bwd(params, f"{prefix}.ln2", c_ln2, dh2, grads)
    del c_ln2, dh2
    dx1 += dy
    da = attention_bwd(params, f"{prefix}.attn",
                       (layernorm_out(params, f"{prefix}.ln1", c_ln1[0]), *c_attn), dx1, grads)
    del c_attn
    dx = layernorm_bwd(params, f"{prefix}.ln1", c_ln1, da, grads)
    dx += dx1
    return dx


def stack_fwd(params: Params, prefix: str, x: np.ndarray, depth: int, heads: int, key_mask=None):
    """The blocks {prefix}.blk0.. then the final norm {prefix}.lnf -> (y, caches),
    one cache per block in forward order, then the norm's."""
    caches = []
    for layer in range(depth):
        x, c = block_fwd(params, f"{prefix}.blk{layer}", x, heads, key_mask)
        caches.append(c)
    y, c = layernorm_fwd(params, f"{prefix}.lnf", x)
    caches.append(c)
    return y, caches


def stack_bwd(params: Params, prefix: str, caches, dy: np.ndarray, grads: Grads):
    """Pops the norm's cache, then each block's, off the caches list as it
    back-propagates through them, so the list is empty on return and every
    block's activations are freed before the layers below run their backward."""
    dy = layernorm_bwd(params, f"{prefix}.lnf", caches.pop(), dy, grads)
    for layer in reversed(range(len(caches))):
        dy = block_bwd(params, f"{prefix}.blk{layer}", caches.pop(), dy, grads)
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
