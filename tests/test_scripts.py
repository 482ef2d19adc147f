import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrm
from hrm.cli import main as hrm_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "run_synthetic_experiment.py"
WORKLOADS_PY = REPO_ROOT / "perfbench" / "workloads.py"

TINY_CONFIG = """[pls]
components = 4

[features]
patch_size = 4

[training]
n_pos = 200
n_neg = 200
scale_normalize = true

[voting]
stride = 2
"""


def _spec(scenes):
    return (f"[synth]\nscenes = {scenes}\ncanvas_width = 160\ncanvas_height = 160\n"
            "noise = 0.01\n")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hrm.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny inputs, and the script's run on them at seeds 3 (train) and 4 (test)."""
    d = tmp_path_factory.mktemp("tiny")
    (d / "config.ini").write_text(TINY_CONFIG)
    (d / "train.ini").write_text(_spec(4))
    (d / "test.ini").write_text(_spec(2))
    out = _run_script("--config", str(d / "config.ini"), "--train-spec",
                      str(d / "train.ini"), "--test-spec", str(d / "test.ini"),
                      "--train-seed", "3", "--test-seed", "4")
    return d, out


def test_synthetic_experiment_smoke(tiny):
    """The with/without-fusion experiment runs end to end at a tiny size."""
    _, out = tiny
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert any(line.startswith("recall ") for line in lines), out.stdout
    assert any("dup(after fusion)" in line for line in lines), out.stdout


def test_figures_are_hrm_evals(tiny, tmp_path, capsys):
    """Recall, precision and EER are those of hrm detect + hrm eval on the same inputs."""
    d, out = tiny
    assert out.returncode == 0, out.stderr
    cfg, ann = str(d / "config.ini"), str(tmp_path / "test" / "annotations.txt")
    for argv in (
        ["synth", "--spec", str(d / "train.ini"), "--seed", "3", "--out",
         str(tmp_path / "train")],
        ["synth", "--spec", str(d / "test.ini"), "--seed", "4", "--out",
         str(tmp_path / "test")],
        ["train", "--config", cfg, "--annotations", str(tmp_path / "train" /
         "annotations.txt"), "--out", str(tmp_path / "m.hrmb")],
        ["detect", "--config", cfg, "--model", str(tmp_path / "m.hrmb"), "--images",
         str(tmp_path / "test"), "--out", str(tmp_path / "det.tsv")],
        ["eval", "--config", cfg, "--detections", str(tmp_path / "det.tsv"),
         "--annotations", ann, "--out", str(tmp_path / "pr.csv")],
    ):
        assert hrm_main(argv) == 0
    eer = float(capsys.readouterr().out.splitlines()[-1].split()[1])
    _, precision, recall = (tmp_path / "pr.csv").read_text().splitlines()[-1].split(",")
    expected = (f"recall {float(recall):.3f}  precision {float(precision):.3f}  "
                f"EER {eer:.3f}")
    assert expected in out.stdout.splitlines(), out.stdout


def test_defaults_are_the_criterion_6_gate(monkeypatch):
    """The shipped scripts/c6 files and default seeds are perfbench's gate inputs."""
    workloads = _load("perfbench_workloads", WORKLOADS_PY)
    gate = workloads.GATE
    c6 = REPO_ROOT / "scripts" / "c6"
    assert (c6 / "config.ini").read_text() == gate.config(workloads.GATE_SAMPLE_SEED)
    assert (c6 / "train.ini").read_text() == gate.train.ini()
    assert (c6 / "test.ini").read_text() == gate.test.ini()

    script = _load("run_synthetic_experiment", SCRIPT)
    calls = []

    def record(argv):  # stop the run at training
        calls.append(argv)
        return 1 if argv[0] == "train" else 0

    monkeypatch.setattr(script, "hrm", record)
    assert script.main([]) == 1
    (train, test, fit) = calls
    assert train[:5] == ["synth", "--spec", str(c6 / "train.ini"), "--seed",
                         str(workloads.TRAIN_SEED)]
    assert test[:5] == ["synth", "--spec", str(c6 / "test.ini"), "--seed",
                        str(workloads.TEST_SEED)]
    assert fit[:3] == ["train", "--config", str(c6 / "config.ini")]


def test_unknown_config_key_is_an_error_line(tiny):
    d, _ = tiny
    (d / "bad.ini").write_text(TINY_CONFIG + "no_such_key = 1\n")
    out = _run_script("--config", str(d / "bad.ini"), "--train-spec",
                      str(d / "train.ini"), "--test-spec", str(d / "test.ini"))
    assert out.returncode == 2
    assert any(line.startswith("error: ") for line in out.stderr.splitlines()), out.stderr
    assert "Traceback" not in out.stderr
