import json

from workloads import _metrics_ok


def _synth_metrics(prevalence: float) -> bytes:
    return json.dumps({"n_cases": 10, "n_train": 6, "n_eval": 4, "n_graded": 4,
                       "prevalence": {"cac": 0.5, "lad_stenosis": prevalence}}).encode()


def test_synth_prevalence_must_lie_in_the_unit_interval():
    assert _metrics_ok(_synth_metrics(0.25))
    assert not _metrics_ok(_synth_metrics(1.5))
    assert not _metrics_ok(_synth_metrics(-0.1))


def test_non_finite_loss_and_unparseable_metrics_fail():
    assert not _metrics_ok(b"{not json")
    assert not _metrics_ok(json.dumps({"final_epoch_loss": float("nan")}).encode())
    assert _metrics_ok(json.dumps({"final_epoch_loss": 0.5, "recall": {"1": 0.2}}).encode())
