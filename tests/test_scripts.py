"""Smoke tests of the scripts in `scripts/`: each runs in its own process
on this checkout's sources, exits 0, and reports every check item ok."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_tower_demo_verifies_its_stage(tmp_path):
    run = run_script("tower_demo.py", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    items = [line.strip() for line in run.stdout.splitlines() if line.startswith("  [")]
    assert len(items) >= 10
    assert all(item.startswith("[ok] ") for item in items), run.stdout


def test_run_acceptance_passes_every_check(tmp_path):
    out = tmp_path / "acceptance"
    run = run_script("run_acceptance.py", str(out), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert f"exit code 0; reports in {out}/" in run.stdout
    reports = sorted(out.glob("stage-*.report"))
    assert [p.name for p in reports] == ["stage-1.report", "stage-2.report"]
    for report in reports:
        checks = [line for line in report.read_text().splitlines() if line.startswith("check ")]
        assert len(checks) >= 10
        assert all(": PASS (" in line for line in checks), report.read_text()
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line.split()[-1] for line in summary[1:]] == ["base", "pass", "pass"]
