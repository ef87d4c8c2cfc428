"""nn.matmul / nn.matmul_tn against the numpy expressions they replace, bitwise,
at the dense-layer shapes of the default config and past one cast block; the
memory their block-wise cast saves; linear_fwd's purity and dtype."""

import tracemalloc

import numpy as np
import pytest

from cardioclip import nn
from cardioclip.config import DEFAULT_CONFIG as CFG

F32, F64 = np.float32, np.float64


def _default_dense_shapes():
    """(activation shape, output width) of every dense product at the default config."""
    P = int(np.prod(CFG["geometry"]["patch_size"]))
    N = int(np.prod([d // p for d, p in zip(CFG["geometry"]["dims"], CFG["geometry"]["patch_size"])]))
    n_vis = N - int(round(CFG["mae"]["mask_ratio"] * N))
    E, D, Dp = CFG["visual"]["embed_dim"], CFG["decoder"]["embed_dim"], CFG["proj_dim"]
    Et = CFG["text"]["embed_dim"]
    b1, b2, bw = CFG["mae"]["batch"], CFG["clip"]["batch"], CFG["clip"]["text_warmup_batch"]
    shapes = []

    def block(lead, dim, ratio):
        hidden = int(dim * ratio)
        shapes.extend([(lead + (dim,), 3 * dim), (lead + (dim,), dim),
                       (lead + (dim,), hidden), (lead + (hidden,), dim)])

    # stage 1: patch embed, encoder on visible tokens, decoder, reconstruction head
    shapes.append(((b1, n_vis, P), E))
    block((b1, n_vis + 1), E, CFG["visual"]["mlp_ratio"])
    shapes.append(((b1, n_vis + 1, E), D))
    block((b1, N + 1), D, CFG["decoder"]["mlp_ratio"])
    shapes.append(((b1, N, D), P))
    # stage 2: full visual tower, text tower at a typical padded length, heads
    shapes.append(((b2, N, P), E))
    block((b2, N + 1), E, CFG["visual"]["mlp_ratio"])
    block((b2, 40), Et, CFG["text"]["mlp_ratio"])
    block((bw, 40), Et, CFG["text"]["mlp_ratio"])
    shapes.extend([((b2, E), Dp), ((b2, Et), Dp), ((bw, Et), 8)])
    return sorted(set(shapes))


SHAPES = _default_dense_shapes()
# (activation, weight, output gradient) dtypes: both stages' forward and
# backward; stage 2 carries float32 activations and weights with float64
# gradients, and its pooled text feature is float64
DTYPES = [(F32, F32, F32), (F64, F64, F64), (F32, F32, F64), (F64, F32, F64)]


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("xshape,n", SHAPES,
                         ids=["x".join(map(str, s)) + f"@{n}" for s, n in SHAPES])
@pytest.mark.parametrize("xdt,wdt,gdt", DTYPES)
def test_matmul_bitwise_equal_to_numpy(xshape, n, xdt, wdt, gdt):
    rng = np.random.default_rng(len(xshape) * 1000 + n)
    k = xshape[-1]
    x = rng.normal(size=xshape).astype(xdt)
    w = rng.normal(0, 0.1, (k, n)).astype(wdt)
    dy = rng.normal(size=xshape[:-1] + (n,)).astype(gdt)

    y = nn.matmul(x, w)
    assert y.dtype == np.result_type(x, w)
    assert _bitwise(y, x @ w)
    assert _bitwise(nn.matmul(dy, w.T), dy @ w.T)
    g = nn.matmul_tn(x, dy)
    assert g.dtype == np.result_type(x, dy)
    assert _bitwise(g, x.reshape(-1, k).T @ dy.reshape(-1, n))


@pytest.mark.parametrize("gdt", [F32, F64])
def test_matmul_on_token_slices(gdt):
    # the reconstruction head reads y[:, 1:]; the patch embed's input gradient dx[:, 1:]
    rng = np.random.default_rng(11)
    y = rng.normal(size=(16, 65, 64)).astype(F32)
    head = rng.normal(0, 0.1, (64, 4096)).astype(F32)
    assert _bitwise(nn.matmul(y[:, 1:], head), y[:, 1:] @ head)
    dx = rng.normal(size=(8, 65, 128)).astype(gdt)
    patch_w = rng.normal(0, 0.1, (4096, 128)).astype(F32)
    assert _bitwise(nn.matmul(dx[:, 1:], patch_w.T), dx[:, 1:] @ patch_w.T)


@pytest.mark.parametrize("adt,bdt", [(F32, F64), (F64, F32)])
def test_matmul_bitwise_past_one_cast_block(adt, bdt):
    # 1728 = 12**3 columns: three whole cast blocks and a partial one
    n = 1728
    assert n > nn.CAST_BLOCK and n % nn.CAST_BLOCK
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 64, 96)).astype(adt)
    w = rng.normal(0, 0.1, (96, n)).astype(bdt)
    assert _bitwise(nn.matmul(x, w), x @ w)
    assert _bitwise(nn.matmul(x[:, 1:], w), x[:, 1:] @ w)
    a = rng.normal(size=(4, 64, n)).astype(adt)
    b = rng.normal(size=(4, 64, 96)).astype(bdt)
    assert _bitwise(nn.matmul_tn(a, b), a.reshape(-1, n).T @ b.reshape(-1, 96))
    assert _bitwise(nn.matmul_tn(a[:, 1:], b[:, 1:]),
                    a[:, 1:].reshape(-1, n).T @ b[:, 1:].reshape(-1, 96))


def _traced_peak_above_result(fn, *args):
    """The tracemalloc peak of fn(*args) above its entry, less its result's size."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - y.nbytes


def test_promoted_operand_is_never_cast_whole():
    # stage 2's patch embedding backward at the default batch: the weight
    # gradient of float32 patches against a float64 token gradient, and the
    # input gradient through the float32 weight; a whole float64 copy of the
    # promoted operand would take 16.8 MB and 4.2 MB
    rng = np.random.default_rng(14)
    patches = rng.normal(size=(8, 64, 4096)).astype(F32)
    dtok = rng.normal(size=(8, 64, 128))
    w = rng.normal(0, 0.1, (4096, 128)).astype(F32)
    assert _traced_peak_above_result(nn.matmul_tn, patches, dtok) < patches.size * 8 / 2
    assert _traced_peak_above_result(nn.matmul, dtok, w.T) < w.size * 8 / 2


@pytest.mark.parametrize("xdt,wdt", [(F32, F32), (F64, F32), (F64, F64)])
def test_linear_fwd_is_pure_and_keeps_dtype(xdt, wdt):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(16, 17, 128)).astype(xdt)
    params = {"l.w": rng.normal(0, 0.1, (128, 512)).astype(wdt),
              "l.b": rng.normal(0, 0.1, 512).astype(wdt)}
    before = {k: v.copy() for k, v in params.items()}
    x_before = x.copy()
    y, cache = nn.linear_fwd(params, "l", x)
    assert cache is x
    assert _bitwise(x, x_before)
    for k in params:
        assert _bitwise(params[k], before[k])
    assert not np.shares_memory(y, x)
    assert _bitwise(y, x @ before["l.w"] + before["l.b"])
