#!/usr/bin/env python3
"""Benchmark of the hrm CLI pipeline: synth -> train -> detect -> eval.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload c6 --seed 1 --seconds 35 --trace 0

``--trace 0`` runs one untraced pass and reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced pass and reports the
per-layer metrics.  Each pass is a fresh worker process.  Outputs are
checked on every run.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment, the output digests and the raw timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYERS, end_to_end, per_layer  # noqa: E402
from workloads import (  # noqa: E402
    GATE, GATE_FLOOR, GATE_SAMPLE_SEED, TEST_SEED, TRAIN_SEED, WORKLOADS,
)

ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # the passes of one run
GATE_LIMIT_S = 300.0  # the gate, run by the first run of a program version
SETUP_REPEATS = 7


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(run_dir: Path, workload, sample_seed: int) -> dict:
    """Write the pass inputs into a fresh run directory; returns the job."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "train.ini").write_text(workload.train.ini())
    (run_dir / "test.ini").write_text(workload.test.ini())
    (run_dir / "config.ini").write_text(workload.config(sample_seed))
    return {
        "src": str(SRC),
        "dir": str(run_dir),
        "synth_seeds": [TRAIN_SEED, TEST_SEED],
        "setup_repeats": SETUP_REPEATS,
    }


def run_pass(mode: str, job: dict, deadline: float) -> dict:
    """Run one worker process; returns its result record."""
    run_dir = Path(job["dir"])
    job_path = run_dir / f"job-{mode}.json"
    result_path = run_dir / f"result-{mode}.json"
    job_path.write_text(json.dumps(dict(job, mode=mode)))
    env = dict(os.environ, TMPDIR=str(run_dir))
    env["HRM_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            env=env,
            cwd=run_dir,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "timed out", "calls": []}
    if proc.returncode != 0 or not result_path.exists():
        return {"mode": mode, "error": f"worker exited {proc.returncode}", "calls": []}
    return json.loads(result_path.read_text())


def gate(work: Path, code: str, deadline: float) -> dict:
    """Criterion 6 through the CLI, run once per program version.

    Its outputs are deterministic, so the result is kept in the work
    directory under the code fingerprint and read back by later runs.
    """
    record = work / f"gate-{code}.json"
    if record.exists():
        return json.loads(record.read_text())
    job = prepare(work / "gate", GATE, GATE_SAMPLE_SEED)
    res = run_pass("plain", job, deadline)
    if "error" in res:
        return {"error": res["error"]}
    out = {k: res[k] for k in ("recall", "precision", "pr_sha256")}
    record.write_text(json.dumps(out, indent=1))
    return out


def check(passes: list, digests_file: Path, key: str) -> list:
    """Output checks of one run; returns failure messages."""
    fails = [f"{r['mode']}: {r['error']}" for r in passes if "error" in r]
    if fails:
        return fails
    for res in passes:
        if len(set(map(tuple, res["annotation_digests"]))) != 1:
            fails.append(f"{res['mode']}: repeated synth outputs differ")
        for name in ("model", "det"):
            if len(set(res[f"{name}_sha256"])) != 1:
                fails.append(f"{res['mode']}: repeated {name} outputs differ")
    outputs = {
        "model": {r["model_sha256"][0] for r in passes},
        "det": {r["det_sha256"][0] for r in passes},
        "pr": {r["pr_sha256"] for r in passes},
    }
    for name, values in outputs.items():
        if len(values) != 1:
            fails.append(f"{name} output differs between traced and untraced passes")

    # the same code, workload and seed give the same bytes in every run
    found = {name: min(v) for name, v in outputs.items()}
    known = json.loads(digests_file.read_text()) if digests_file.exists() else {}
    for name, value in known.get(key, {}).items():
        if found[name] != value:
            fails.append(f"{name} output differs from an earlier run of the same code")
    known.setdefault(key, found)
    tmp = digests_file.with_name(digests_file.name + ".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, digests_file)
    return fails


def check_gate(res: dict) -> list:
    if "error" in res:
        return [f"criterion-6 gate: {res['error']}"]
    return [
        f"criterion-6 gate: {m} {res[m]:.4f} below {GATE_FLOOR}"
        for m in ("recall", "precision")
        if res[m] < GATE_FLOOR
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring window from the start of training")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="few-second inputs, for the self-test; not comparable")
    ap.add_argument("--work", default=None,
                    help="work directory (default .perfbench-work in the checkout)")
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "hrm" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    if args.tiny:
        workload = workload.tiny()
    work = Path(args.work) if args.work else ROOT / ".perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    code = code_fingerprint()

    gate_res = None if args.tiny else gate(work, code, start + GATE_LIMIT_S)
    deadline = time.monotonic() + TIME_LIMIT_S
    job = prepare(work / f"{workload.name}-{size}", workload, args.seed)
    job["seconds"] = args.seconds
    if args.trace:
        passes = [run_pass("plain", job, deadline), run_pass("traced", job, deadline)]
    else:
        passes = [run_pass("measure", job, deadline)]

    key = f"{code}:{workload.name}:{args.seed}:{size}"
    fails = check(passes, work / "digests.json", key)
    if gate_res is not None:
        fails += check_gate(gate_res)
    attempted = sum(len(r["calls"]) or 1 for r in passes)
    failed = sum(1 for r in passes for c in r["calls"] if c["code"] != 0)
    failed += sum(1 for r in passes if "error" in r and not r["calls"])

    metrics = {}
    if not any("error" in r for r in passes):
        if args.trace:
            values = per_layer(passes[1], passes[0])
            units = {name: spec[0] for name, spec in LAYERS.items()}
        else:
            values = end_to_end(passes[0])
            units = {name: spec[0] for name, spec in END_TO_END.items()}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "size": size,
        "code": code,
        "gate": gate_res and {k: gate_res.get(k) for k in ("recall", "precision")},
        "env": passes[-1].get("env"),
        "checks_failed": fails,
        "outputs": {
            r["mode"]: {k: r.get(k) for k in ("model_sha256", "det_sha256", "pr_sha256")}
            for r in passes
        },
        "calls": {r["mode"]: r["calls"] for r in passes},
    }
    for msg in fails:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
