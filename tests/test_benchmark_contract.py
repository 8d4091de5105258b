"""The benchmark's contract with the package.

`perfbench/tracing.py` wraps the package's functions by name and
`perfbench/run.py --self-test` drives small real runs through them; a
rename in `src/` that breaks either fails here.  Both files are only
read: the tracing module is executed from its source text, and the
self-test runs with bytecode writing off.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def traced_names():
    path = PERFBENCH / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module, attr in names:
        obj = importlib.import_module(f"shiftflex.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"shiftflex.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"shiftflex.{module}.{attr}"


def test_perfbench_self_test_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test: every check can fail" in run.stdout
