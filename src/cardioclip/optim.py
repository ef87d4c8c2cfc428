"""Warmup + cosine learning-rate schedule and a decoupled-weight-decay Adam.

Both training stages share this machinery; they differ only in which
parameter-name groups get which base learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleConfig:
    base_lr: float
    warmup_steps: int
    total_steps: int
    weight_decay: float = 0.01
    min_lr: float = 0.0

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(
                f"require 0 <= warmup_steps <= total_steps, got {self.warmup_steps}, {self.total_steps}"
            )
        if not self.base_lr > self.min_lr >= 0:
            raise ValueError(f"require base_lr > min_lr >= 0, got {self.base_lr}, {self.min_lr}")


def lr_at_step(s: ScheduleConfig, step: int) -> float:
    """Linear ramp to base_lr over warmup_steps, then cosine decay to min_lr."""
    if not 0 <= step <= s.total_steps:
        raise ValueError(f"step {step} outside [0, {s.total_steps}]")
    if step < s.warmup_steps:
        return s.base_lr * (step + 1) / s.warmup_steps
    span = s.total_steps - s.warmup_steps
    if span == 0:
        return s.base_lr
    t = (step - s.warmup_steps) / span
    return s.min_lr + (s.base_lr - s.min_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Adam with decoupled weight decay over a parameter dict.

    lr_scale_of maps a parameter name to a multiplier on the scheduled rate,
    which is how the contrastive stage runs its projection heads hotter than
    the encoders. Decay skips 1-D tensors (biases, norms, class/mask tokens).
    """

    def __init__(self, params, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01, lr_scale_of=None):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
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
            if self.weight_decay and p.ndim >= 2:
                np.multiply(p, self.weight_decay, out=denom)
                update += denom
            update *= lr * self.lr_scale_of(name)
            p -= update.astype(p.dtype, copy=False)
