"""Pass/fail verdicts of the acceptance criteria, in a module of their own so
that tests of the verdicts do not depend on the acceptance suite importing."""

import math


def zero_shot_verdict(per_name: dict, runtime: float):
    """Criterion 8's (passed, detail) for zero_shot_aurocs' output: every
    finding at AUROC >= 0.85 within the stage-2 budget. A finding scored None
    (one class only among the held-out cases) fails."""
    def fmt(v):
        return "None (one class)" if v is None else f"{v:.3f}"

    worst = min(per_name.values(), key=lambda v: -math.inf if v is None else v)
    detail = ", ".join(f"{k.split()[0][:4]}{k.split()[-1][:4]}={fmt(v)}"
                       for k, v in per_name.items())
    return (worst is not None and worst >= 0.85 and runtime < 1200,
            f"{detail}; worst={fmt(worst)}, stage-2 runtime {runtime:.0f}s < 1200s")
