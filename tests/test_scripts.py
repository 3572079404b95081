import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, check=False
    )


def test_closure_landscape_script_runs():
    proc = _run(str(ROOT / "scripts" / "closure_landscape.py"))
    assert proc.returncode == 0, proc.stderr
    assert "T(ss|tt)" in proc.stdout


def test_package_runs_as_a_module():
    proc = _run("-m", "trivalent", "check", "p => p")
    assert proc.returncode == 0, proc.stderr
    assert "strong/st: valid" in proc.stdout
