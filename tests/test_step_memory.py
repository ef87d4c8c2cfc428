"""scripts/step_memory.py on a toy config: it runs each stage's step once and
names the cardioclip functions active at each peak."""

import importlib.util
import os
import re

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "step_memory.py")
spec = importlib.util.spec_from_file_location("step_memory", SCRIPT)
step_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(step_memory)

TOY = ["geometry.dims=[32,32,32]", "visual.embed_dim=32", "visual.depth=1", "visual.heads=2",
       "decoder.embed_dim=16", "decoder.depth=1", "text.embed_dim=32", "text.depth=1",
       "text.heads=2", "proj_dim=16", "mae.batch=4", "clip.batch=4", "finetune.batch=4"]


def test_one_line_per_stage_step_with_its_peak_and_place(capsys):
    assert step_memory.main([arg for a in TOY for arg in ("--set", a)]) == 0
    lines = capsys.readouterr().out.splitlines()
    pattern = r"(.+?) +batch +4  peak +(\d+\.\d) MiB above entry  in (.+)"
    parsed = [re.fullmatch(pattern, line).groups() for line in lines]
    assert [label for label, _, _ in parsed] == ["stage-1 step", "stage-2 step", "fine-tune step"]
    assert all(float(mib) > 0 for _, mib, _ in parsed)
    # every location is a chain of cardioclip functions, the innermost last
    assert all(re.fullmatch(r"\w+\.[\w.<>]+( > \w+\.[\w.<>]+)*", where) for _, _, where in parsed)
    assert parsed[1][2].startswith("clip.clip_batch_fwd_bwd")
