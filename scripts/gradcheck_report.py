#!/usr/bin/env python3
"""Standalone gradient audit: wider probe counts than the CLI gradcheck.

Checks both stage losses at double precision on the toy problem of
cardioclip.gradcheck.toy_losses and prints per-loss max relative errors for
a few probe budgets.
"""

import sys

from cardioclip.gradcheck import EPS, TOLERANCE, gradient_check, toy_losses

LABELS = {"mae": "masked-reconstruction", "contrastive": "contrastive"}

if __name__ == "__main__":
    worst = 0.0
    for name, (fn, params) in toy_losses(seed=0).items():
        for probes in (32, 128, 512):
            err = gradient_check(fn, params, n_probes=probes, eps=EPS, seed=probes)
            worst = max(worst, err)
            print(f"{LABELS[name]:22s} probes={probes:4d} max relative error = {err:.3e}")
    print("PASS" if worst < TOLERANCE else "FAIL", f"(worst {worst:.3e}, tolerance {TOLERANCE:.0e})")
    sys.exit(0 if worst < TOLERANCE else 1)
