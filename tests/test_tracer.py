"""The benchmark tracer still binds to the model code.

``perfbench/tracer.py`` wraps ``_ModelBase.prepare_batch`` and ``step`` on
each model class and checks that every call site it needs reaches a wrapper.
Installing it runs in a fresh interpreter, so the wrappers never leak into
other tests; no training runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from subgraph_infomax import models
from tracer import Tracer

classes = (models.PsiModel, models.TwoStageModel)
original_step = {cls: cls.step for cls in classes}
original_prepare = models._ModelBase.prepare_batch
Tracer().install()  # raises when a binding site misses its wrapper
for cls in classes:
    wrapped = cls.__dict__["step"]
    assert wrapped.__bench_wrapped__ is original_step[cls], cls
    assert not hasattr(wrapped.__bench_wrapped__, "__bench_wrapped__"), cls
assert models._ModelBase.prepare_batch.__bench_wrapped__ is original_prepare
print("bound")
"""


def test_tracer_installs_and_wraps_each_step_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "bound"
