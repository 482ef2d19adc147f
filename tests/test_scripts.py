import os
import subprocess
import sys
from pathlib import Path

import hrm

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_synthetic_experiment_smoke():
    """The with/without-fusion experiment runs end to end at a tiny size."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hrm.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--train-scenes", "4", "--test-scenes", "2", "--canvas", "160",
         "--n-pos", "200", "--n-neg", "200", "--patch-size", "4",
         "--components", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert any(line.startswith("recall ") for line in lines), out.stdout
    assert any("dup(after fusion)" in line for line in lines), out.stdout
