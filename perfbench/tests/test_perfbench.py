"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, LAYERS  # noqa: E402
from spans import Patches, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tmp_path, *args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args, "--work", str(tmp_path)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == {n: spec[:2] for n, spec in LAYERS.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_tiny(tmp_path, workload):
    common = ["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"]
    info0, plain = result(run_bench(tmp_path, *common, "--trace", "0"))
    info1, traced = result(run_bench(tmp_path, *common, "--trace", "1"))

    for res, spec in ((plain, END_TO_END), (traced, LAYERS)):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 4
        assert set(res["metrics"]) == set(spec)
        for name, metric in res["metrics"].items():
            assert metric["unit"] == spec[name][0]
            assert isinstance(metric["value"], (int, float)), name
    for name in ("setup_s", "train_s", "detect_img_per_s", "peak_rss_mb", "model_bytes"):
        assert plain["metrics"][name]["value"] > 0, name

    layer = {n: m["value"] for n, m in traced["metrics"].items()}
    for name in ("train.training.context_self_s", "train.pls.fit_self_s",
                 "detect.votes_self_s"):
        assert layer[name] >= 0.0, name
    assert layer["train.pls.eig_calls"] == layer["train.pls.fit_calls"] > 0

    outputs = [*info0["outputs"].values(), *info1["outputs"].values()]
    assert len({o["pr_sha256"] for o in outputs}) == 1
    for key in ("model_sha256", "det_sha256"):
        assert len({d for o in outputs for d in o[key]}) == 1, key


def test_refuses_to_run_without_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(tmp_path / "work", "--workload", "c6", "--seed", "1",
                     "--seconds", "1", "--trace", "0",
                     cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrappers_are_restored_and_missing_names_recorded():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    cli = importlib.import_module("hrm.cli")
    before = cli.detect
    patches = install(Tracer())
    assert cli.detect is not before
    patches.restore()
    assert cli.detect is before

    patches = Patches()
    patches.wrap("hrm.cli.no_such_function", lambda fn: fn)
    patches.wrap("hrm.no_such_module.f", lambda fn: fn)
    assert patches.missing == {"hrm.cli.no_such_function", "hrm.no_such_module.f"}


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(10000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    snap = tracer.snapshot()
    assert snap["calls"] == {"inner": 3, "outer": 1}
    assert 0.0 <= snap["self"]["outer"] <= snap["time"]["outer"]
    assert snap["self"]["inner"] == pytest.approx(snap["time"]["inner"])
