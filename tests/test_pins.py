"""The CI workflow and tests/pins.py name the same checks, each run once under a time box."""

import os
import subprocess
import sys
from pathlib import Path

import pins
import syzstab

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def pin_runs():
    """(command, check names) for each workflow line that calls tests/pins.py."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    runs = [line.strip().removeprefix("run:").strip() for line in lines if "tests/pins.py" in line]
    return [(run, run.partition("tests/pins.py")[2].split()) for run in runs]


def test_each_check_is_one_time_boxed_ci_step():
    runs = pin_runs()
    assert all(run.startswith("timeout ") for run, _ in runs)
    assert all(len(names) == 1 for _, names in runs)
    called = [name for _, names in runs for name in names]
    assert set(called) <= set(pins.CHECKS)
    assert sorted(called) == sorted(pins.CHECKS)


def test_an_unknown_check_runs_nothing():
    # "plane" is valid and prints when it runs: nothing may run before the unknown name is refused
    # the child imports the same package as this process, whatever put it on the path
    src = str(Path(syzstab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pins.py"), "plane", "nope"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr == f"unknown check nope; the checks are {', '.join(pins.CHECKS)}\n"
