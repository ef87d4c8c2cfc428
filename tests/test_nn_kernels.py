"""The in-place gelu, layernorm, softmax, attention and block kernels against
the plain numpy expressions they replace, bitwise, at the shapes of both
stages; and their purity: inputs, params and caches are left unchanged."""

import math

import numpy as np
import pytest

from cardioclip import nn

F32, F64 = np.float32, np.float64
_C = math.sqrt(2.0 / math.pi)

# (batch, tokens, width, hidden, key mask): the stage-1 encoder on its 17
# visible tokens, the stage-1 decoder over all 65, the stage-2 visual tower,
# and the text tower with padded sequences
SHAPES = {
    "stage1_encoder": (16, 17, 128, 512, False),
    "stage1_decoder": (16, 65, 64, 256, False),
    "stage2_visual": (8, 65, 128, 512, False),
    "text": (16, 40, 128, 512, True),
}
HEADS = 4
# (forward/cache dtype, gradient dtype): float32 throughout (stage 1 and
# fine-tuning), stage 2's float32 caches with float64 gradients, and the
# float64 of the gradient checks
DTYPES = [(F32, F32), (F32, F64), (F64, F64)]
CASES = [(name, fdt, gdt) for name in SHAPES for fdt, gdt in DTYPES]
IDS = [f"{name}-{np.dtype(fdt).name}-{np.dtype(gdt).name}" for name, fdt, gdt in CASES]


# ---------------------------------------------------------------------------
# reference expressions


def ref_gelu_fwd(x):
    u = np.asarray(_C, dtype=x.dtype) * (x + np.asarray(0.044715, dtype=x.dtype) * (x * x * x))
    t = np.tanh(u)
    return ref_gelu_out(x, t), (x, t)


def ref_gelu_out(x, t):
    return 0.5 * x * (1.0 + t)


def ref_gelu_bwd(cache, dy):
    x, t = cache
    du = np.asarray(_C, dtype=x.dtype) * (1.0 + 3.0 * np.asarray(0.044715, dtype=x.dtype) * x**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def ref_layernorm_fwd(params, prefix, x):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(nn.LN_EPS, dtype=x.dtype))
    xhat = (x - mu) * inv
    return ref_layernorm_out(params, prefix, xhat), (xhat, inv)


def ref_layernorm_out(params, prefix, xhat):
    return xhat * params[f"{prefix}.g"] + params[f"{prefix}.b"]


def ref_layernorm_bwd(params, prefix, cache, dy, grads):
    xhat, inv = cache
    g = params[f"{prefix}.g"]
    nn.accumulate(grads, f"{prefix}.g", (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
    nn.accumulate(grads, f"{prefix}.b", dy.reshape(-1, xhat.shape[-1]).sum(axis=0))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


def ref_softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def ref_attention_fwd(params, prefix, x, heads, key_mask=None):
    B, T, E = x.shape
    dh = E // heads
    qkv = nn.matmul(x, params[f"{prefix}.qkv.w"])
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
        bias = (key_mask.astype(x.dtype) - 1.0) * np.asarray(1e9, dtype=x.dtype)
        logits = logits + bias[:, None, None, :]
    attn = ref_softmax(logits, axis=-1)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, T, E)
    y, c_proj = nn.linear_fwd(params, f"{prefix}.proj", ctx)
    return y, (x, c_proj, q, k, v, attn, scale)


def ref_attention_bwd(params, prefix, cache, dy, grads):
    c_qkv, c_proj, q, k, v, attn, scale = cache
    B, H, T, dh = q.shape
    E = H * dh
    dctx = nn.linear_bwd(params, f"{prefix}.proj", c_proj, dy, grads)
    dctx = dctx.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dlogits = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = (dlogits @ k) * scale
    dk = (dlogits.swapaxes(-1, -2) @ q) * scale
    dq_flat, dk_flat, dv_flat = (d.transpose(0, 2, 1, 3).reshape(B, T, E) for d in (dq, dk, dv))
    nn.accumulate(grads, f"{prefix}.qv.b", np.concatenate([
        dq_flat.reshape(-1, E).sum(axis=0), dv_flat.reshape(-1, E).sum(axis=0)
    ]))
    dqkv = np.concatenate([dq_flat, dk_flat, dv_flat], axis=-1)
    nn.accumulate(grads, f"{prefix}.qkv.w", nn.matmul_tn(c_qkv, dqkv))
    return nn.matmul(dqkv, params[f"{prefix}.qkv.w"].T)


def ref_block_fwd(params, prefix, x, heads, key_mask=None):
    """The block with the cache layout of nn.block_fwd: no norm output (the
    attention and fc1 inputs) and no GELU output (the fc2 input)."""
    h1, c_ln1 = ref_layernorm_fwd(params, f"{prefix}.ln1", x)
    a, c_attn = ref_attention_fwd(params, f"{prefix}.attn", h1, heads, key_mask)
    x1 = x + a
    h2, c_ln2 = ref_layernorm_fwd(params, f"{prefix}.ln2", x1)
    m, _ = nn.linear_fwd(params, f"{prefix}.fc1", h2)
    g, c_gelu = ref_gelu_fwd(m)
    m2, _ = nn.linear_fwd(params, f"{prefix}.fc2", g)
    return x1 + m2, (c_ln1, c_attn[1:], c_ln2, c_gelu)


def ref_block_bwd(params, prefix, cache, dy, grads):
    """The block's backward, each uncached linear input rebuilt from its
    op's cache by the reference expression."""
    c_ln1, c_attn, c_ln2, c_gelu = cache
    dg = nn.linear_bwd(params, f"{prefix}.fc2", ref_gelu_out(*c_gelu), dy, grads)
    dm = ref_gelu_bwd(c_gelu, dg)
    h2 = ref_layernorm_out(params, f"{prefix}.ln2", c_ln2[0])
    dh2 = nn.linear_bwd(params, f"{prefix}.fc1", h2, dm, grads)
    dx1 = dy + ref_layernorm_bwd(params, f"{prefix}.ln2", c_ln2, dh2, grads)
    h1 = ref_layernorm_out(params, f"{prefix}.ln1", c_ln1[0])
    da = ref_attention_bwd(params, f"{prefix}.attn", (h1, *c_attn), dx1, grads)
    return dx1 + ref_layernorm_bwd(params, f"{prefix}.ln1", c_ln1, da, grads)


# ---------------------------------------------------------------------------
# helpers


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _arrays(obj[k])


def _same(got, want):
    got, want = list(_arrays(got)), list(_arrays(want))
    return len(got) == len(want) and all(_bitwise(a, b) for a, b in zip(got, want))


class Frozen:
    """Copies of the arrays in obj, to check that nothing wrote into them."""

    def __init__(self, obj):
        self.obj, self.copies = obj, [a.copy() for a in _arrays(obj)]

    def unchanged(self):
        return _same(self.obj, self.copies)


def setup(name, fdt, gdt, seed=0):
    """(params, x, dy, hidden-width x, key mask) for one shape and dtype pair."""
    B, T, E, hidden, masked = SHAPES[name]
    rng = np.random.default_rng(seed)
    params = {}
    nn.init_block(rng, params, "b", E, hidden, dtype=fdt, std=0.1)
    for key, p in params.items():  # norms and biases off their init values
        if p.ndim == 1:
            p += rng.normal(0, 0.2, p.shape).astype(fdt)
    x = rng.normal(0, 1.5, (B, T, E)).astype(fdt)
    dy = rng.normal(0, 1.0, (B, T, E)).astype(gdt)
    h = rng.normal(0, 2.0, (B, T, hidden)).astype(fdt)
    mask = None
    if masked:
        lengths = rng.integers(3, T + 1, B)
        lengths[0] = T
        mask = np.arange(T)[None, :] < lengths[:, None]
    return params, x, dy, h, mask


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_gelu(name, fdt, gdt):
    _, _, _, h, _ = setup(name, fdt, gdt)
    dh = np.random.default_rng(1).normal(size=h.shape).astype(gdt)
    frozen = Frozen((h, dh))
    y, cache = nn.gelu_fwd(h)
    y_ref, cache_ref = ref_gelu_fwd(h)
    assert _same((y, cache), (y_ref, cache_ref))
    kept = Frozen(cache)
    assert _bitwise(nn.gelu_bwd(cache, dh), ref_gelu_bwd(cache_ref, dh))
    assert frozen.unchanged() and kept.unchanged()


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_layernorm(name, fdt, gdt):
    params, x, dy, _, _ = setup(name, fdt, gdt)
    frozen = Frozen((params, x, dy))
    y, cache = nn.layernorm_fwd(params, "b.ln1", x)
    y_ref, cache_ref = ref_layernorm_fwd(params, "b.ln1", x)
    assert _same((y, cache), (y_ref, cache_ref))
    kept = Frozen(cache)
    grads, grads_ref = {}, {}
    dx = nn.layernorm_bwd(params, "b.ln1", cache, dy, grads)
    assert _bitwise(dx, ref_layernorm_bwd(params, "b.ln1", cache_ref, dy, grads_ref))
    assert _same(grads, grads_ref) and set(grads) == {"b.ln1.g", "b.ln1.b"}
    assert frozen.unchanged() and kept.unchanged()


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_outputs_rebuild_bitwise_from_their_caches(name, fdt, gdt):
    """What block_bwd rebuilds instead of caching: each norm's output from
    its xhat, and GELU's from its (x, t), bitwise the forward's output."""
    params, x, _, h, _ = setup(name, fdt, gdt)
    y, (xhat, _) = nn.layernorm_fwd(params, "b.ln1", x)
    assert _bitwise(nn.layernorm_out(params, "b.ln1", xhat), y)
    g, (gx, t) = nn.gelu_fwd(h)
    assert _bitwise(nn.gelu_out(gx, t), g)


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_softmax(name, fdt, gdt):
    """attention_fwd's in-place normalizer, on max-shifted logits, is the
    plain softmax expression in the shifted logits' own buffer."""
    B, T, E, _, _ = SHAPES[name]
    z = np.random.default_rng(2).normal(0, 3.0, (B, HEADS, T, T)).astype(gdt)
    e = z - z.max(axis=-1, keepdims=True)
    p = nn._exp_normalize(e, -1)
    assert p is e and _bitwise(p, ref_softmax(z, axis=-1))


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_attention(name, fdt, gdt):
    params, x, dy, _, mask = setup(name, fdt, gdt)
    frozen = Frozen((params, x, dy, mask))
    y, cache = nn.attention_fwd(params, "b.attn", x, HEADS, key_mask=mask)
    y_ref, cache_ref = ref_attention_fwd(params, "b.attn", x, HEADS, key_mask=mask)
    assert _same((y, cache), (y_ref, cache_ref))
    q, k, v = cache[2:5]
    assert np.may_share_memory(q, k) and np.may_share_memory(k, v)  # views of one projection
    kept = Frozen(cache)
    grads, grads_ref = {}, {}
    dx = nn.attention_bwd(params, "b.attn", cache, dy, grads)
    assert _bitwise(dx, ref_attention_bwd(params, "b.attn", cache_ref, dy, grads_ref))
    assert _same(grads, grads_ref) and len(grads) == 4
    assert frozen.unchanged() and kept.unchanged()


@pytest.mark.parametrize("name,fdt,gdt", CASES, ids=IDS)
def test_block_and_stack(name, fdt, gdt):
    params, x, dy, _, mask = setup(name, fdt, gdt)
    rng = np.random.default_rng(3)
    E, hidden = SHAPES[name][2], SHAPES[name][3]
    nn.init_block(rng, params, "s.blk0", E, hidden, dtype=fdt, std=0.1)
    nn.init_block(rng, params, "s.blk1", E, hidden, dtype=fdt, std=0.1)
    params["s.lnf.g"] = rng.normal(1.0, 0.2, E).astype(fdt)
    params["s.lnf.b"] = rng.normal(0.0, 0.2, E).astype(fdt)
    frozen = Frozen((params, x, dy, mask))

    y, caches = nn.stack_fwd(params, "s", x, 2, HEADS, key_mask=mask)
    h_ref, c0 = ref_block_fwd(params, "s.blk0", x, HEADS, mask)
    h_ref, c1 = ref_block_fwd(params, "s.blk1", h_ref, HEADS, mask)
    y_ref, c_lnf = ref_layernorm_fwd(params, "s.lnf", h_ref)
    assert _same((y, caches), (y_ref, [c0, c1, c_lnf]))
    grads, grads_ref = {}, {}
    dx = nn.stack_bwd(params, "s", caches, dy, grads)
    assert caches == []
    dh_ref = ref_layernorm_bwd(params, "s.lnf", c_lnf, dy, grads_ref)
    dx_ref = ref_block_bwd(params, "s.blk0", c0,
                           ref_block_bwd(params, "s.blk1", c1, dh_ref, grads_ref), grads_ref)
    assert _bitwise(dx, dx_ref)
    assert _same(grads, grads_ref) and len(grads) == 26
    assert frozen.unchanged()
