"""The training loop every stage shares: a warmup + cosine learning-rate
schedule, a decoupled-weight-decay Adam, and the Trainer that drives them.

Stage 1, stage 2, fine-tuning and the text warmup all step their optimizer
through Trainer; the stages differ only in their batch logic and in which
parameter-name groups get which multiple of the rate. Every stage's config
names its peak rate lr, and every schedule ramps linearly to lr and decays
by a cosine to 0, so a schedule is three numbers: (lr, warmup_steps,
total_steps). The optimizer's constants (betas, eps and a decoupled weight
decay of 0.01) are the same for every stage and are not config keys.
"""

from __future__ import annotations

import math

import numpy as np

from .seeding import substream


def require(*rules) -> None:
    """Raise one ValueError that names every (ok, message) rule whose ok is
    false, so that a config reports all of its violations at once."""
    failed = [message for ok, message in rules if not ok]
    if failed:
        raise ValueError("; ".join(failed))


def integer_rule(name: str, x, low: int) -> tuple:
    """The rule that x, called `name` in the message, is an integer >= low.
    A bool is not an integer here; a numpy integer is."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= low,
            f"{name} must be an integer >= {low}, got {x!r}")


def count_rule(cfg, name: str, low: int) -> tuple:
    """integer_rule for field `name` of cfg."""
    return integer_rule(name, getattr(cfg, name), low)


def schedule_rules(cfg) -> tuple:
    """The rules of the fields every training stage's config shares: epochs,
    batch, warmup_frac and lr."""
    return (
        count_rule(cfg, "epochs", 1),
        count_rule(cfg, "batch", 1),
        (0.0 <= cfg.warmup_frac <= 1.0, f"warmup_frac must lie in [0, 1], got {cfg.warmup_frac}"),
        (cfg.lr > 0, f"lr must be positive, got {cfg.lr}"),
    )


def lr_at_step(lr: float, warmup_steps: int, total_steps: int, step: int) -> float:
    """Linear ramp to lr over warmup_steps, then cosine decay to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr * (step + 1) / warmup_steps
    span = total_steps - warmup_steps
    if span == 0:
        return lr
    t = (step - warmup_steps) / span
    return lr * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Adam with decoupled weight decay over a parameter dict.

    lr_scale_of maps a parameter name to a multiplier on the scheduled rate,
    which is how the contrastive stage runs its projection heads hotter than
    the encoders. The decay, weight_decay, is a class constant like the betas;
    it skips 1-D tensors (biases, norms, class/mask tokens).
    """

    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, params, lr_scale_of=None):
        self.lr_scale_of = lr_scale_of or (lambda name: 1.0)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            # temporaries in place, in the order and dtypes of
            # m += (1-b1)*g; v += (1-b2)*g*g; p -= lr*((m/bc1)/(sqrt(v/bc2)+eps) + wd*p)
            gs = (1.0 - self.beta1) * g
            m *= self.beta1
            m += gs
            np.multiply(g, 1.0 - self.beta2, out=gs)
            gs *= g
            v *= self.beta2
            v += gs
            update = m / bc1
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            if p.ndim >= 2:
                np.multiply(p, self.weight_decay, out=denom)
                update += denom
            update *= lr * self.lr_scale_of(name)
            p -= update.astype(p.dtype, copy=False)


class Trainer:
    """One AdamW optimizer over params, and the epoch loop the stages share.
    A stage sets only rates (lr_scale_of's multiples); the decay is AdamW's.

    step() refuses a non-finite loss, naming the stage, the step and (inside
    epochs()) the epoch, then takes one optimizer step. The text warmup,
    which samples its own batches at a constant rate, passes that rate;
    inside epochs() the rate follows the warmup + cosine schedule.

    AdamW.step updates the arrays of params in place, so any dict holding
    those same arrays (a stage's own params, or the one it took a trainable
    subset from) holds the trained values after each step; no loop copies
    them back.

    The loops hold one step of buffers: each builds a batch inside a local
    batch_step(...) -> (loss, grads) and calls step(*batch_step(...)), so
    the step's inputs and forward cache are freed when batch_step returns
    and its gradients when step returns, all before the next batch is built.
    Within a step they hold one copy of its patches: the raw batch (stage 1:
    its visible-patch gather) is handed straight to the forward and dies
    once the forward has cached its standardized copy. Stage 1's full batch,
    which its loss reads for the masked targets, is handed to mae.masked_mse
    as its only reference and dies there once the masked rows are
    subtracted, before the loss's squared-error temporary, which is where
    the step peaks; mae_batch_bwd drops the loss gradient as soon as
    dec.head's backward has read it. The exception is
    stage 2: clip.clip_batch_fwd_bwd's own patches parameter keeps the raw
    batch alive until visual_embed_fwd returns (8.4 MB at the default batch
    of 8). That puts the forward within about 1 MiB of the step's peak, a
    block's nn.gelu_bwd in the backward; the patch embedding's weight
    gradient no longer sets it, since nn.matmul_tn casts the float32
    standardized patches to the backward's float64 a block of columns at a
    time. Within the backward, each block's activations die as soon as its
    backward has read them (nn.stack_bwd pops each block's cache), so the patch
    embedding's backward runs with no block's activations alive, and the
    standardized patches die before its input gradient. The batch's volumes
    are read only while its patches are built (volume.batch_patches), so a
    corpus of volume.VolumeFile handles, as the CLI passes, is read from
    disk one volume at a time, once per epoch.
    """

    def __init__(self, stage: str, params, lr_scale_of=None):
        self.stage = stage
        self.params = params
        self.opt = AdamW(params, lr_scale_of=lr_scale_of)
        self.steps = 0
        self.sched = None
        self.epoch = None
        self.losses = []
        self.lr = None
        self.trace = []

    def step(self, loss: float, grads, lr: float | None = None) -> None:
        if not math.isfinite(loss):
            at = "" if self.epoch is None else f" (epoch {self.epoch})"
            raise FloatingPointError(f"non-finite {self.stage} loss at step {self.steps}{at}")
        self.lr = lr_at_step(*self.sched, self.steps) if lr is None else lr
        self.opt.step(self.params, grads, self.lr)
        self.losses.append(loss)
        self.steps += 1

    def epochs(self, n: int, cfg, seed: int, order_name: str, trace_hook=None,
               min_batch: int = 1):
        """Yield (epoch, batches, extra) for each of cfg.epochs epochs.

        batches cuts the (seed, order_name, epoch) permutation of range(n)
        into index arrays of cfg.batch, dropping a trailing one shorter than
        min_batch. The schedule, self.sched = (cfg.lr, warmup_steps,
        total_steps), spans only the batches that remain: it ramps to cfg.lr
        over cfg.warmup_frac of them and its cosine decays to 0 at the last.
        Once the caller has stepped through an epoch, its record {"epoch",
        "mean_loss", "lr_last"} plus the keys the caller put in extra is
        appended to self.trace and passed to trace_hook.
        """
        total = cfg.epochs * (n // cfg.batch + (n % cfg.batch >= min_batch))
        self.sched = (cfg.lr, int(round(cfg.warmup_frac * total)), total)
        for epoch in range(cfg.epochs):
            order = substream(seed, order_name, epoch).permutation(n)
            batches = [order[b0 : b0 + cfg.batch] for b0 in range(0, n, cfg.batch)]
            self.epoch, self.losses, self.lr, extra = epoch, [], cfg.lr, {}
            yield epoch, [idx for idx in batches if idx.size >= min_batch], extra
            record = {"epoch": epoch, "mean_loss": float(np.mean(self.losses)),
                      "lr_last": self.lr, **extra}
            self.trace.append(record)
            if trace_hook is not None:
                trace_hook(record)
        self.epoch = None
