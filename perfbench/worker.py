"""One benchmark pass in a fresh process: synth, train, detect, eval.

Usage: python3 worker.py JOB.json RESULT.json

Every step calls ``hrm.cli.main`` in this process.  Modes:

- ``measure``: set up ``setup_repeats`` times, then repeat train and
  detect while another cycle fits in the window of ``seconds``, and
  evaluate once.
- ``plain``: set up, train, detect and evaluate once each, untraced.
- ``traced``: as ``plain``, with the tracer wrapped around train, detect
  and eval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # older NumPy prints its config instead
        pass
    thread_vars = (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "HRM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in thread_vars},
    }


class Pass:
    def __init__(self, job: dict):
        self.job = job
        self.dir = Path(job["dir"])
        self.calls = []  # one record per CLI call
        self.tracer = None
        self.layers = {}  # phase -> tracer snapshot

    def cli(self, step: str, argv: list, phase: str | None = None):
        """Run one CLI command; returns (wall s, stdout), raises on failure."""
        from hrm import cli

        out = io.StringIO()
        traced = self.tracer is not None and phase is not None
        if traced:
            self.tracer.reset()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if traced:
            self.layers[phase] = self.tracer.snapshot()
            self.layers[phase]["cpu_per_wall"] = cpu / wall
        self.calls.append(
            {"step": step, "code": code, "wall_s": wall, "cpu_s": cpu}
        )
        if code != 0:
            raise StepFailed(f"{step} exited {code}")
        return wall, out.getvalue()

    def setup(self) -> float:
        d, seeds = self.dir, self.job["synth_seeds"]
        t0 = time.perf_counter()
        for split, seed in zip(("train", "test"), seeds):
            self.cli(
                f"synth-{split}",
                ["synth", "--spec", str(d / f"{split}.ini"), "--seed", str(seed),
                 "--out", str(d / split)],
            )
        return time.perf_counter() - t0

    def run(self) -> dict:
        job, d = self.job, self.dir
        mode = job["mode"]
        res = {"mode": mode, "env": environment()}
        cfg = str(d / "config.ini")
        model, det, pr = d / "model.hrmb", d / "det.tsv", d / "pr.csv"
        try:
            repeats = job["setup_repeats"] if mode == "measure" else 1
            res["setup_s"] = []
            res["annotation_digests"] = []
            for _ in range(repeats):
                res["setup_s"].append(self.setup())
                res["annotation_digests"].append(
                    [sha256(d / s / "annotations.txt") for s in ("train", "test")]
                )

            if mode == "traced":
                from spans import Tracer, install

                self.tracer = Tracer()
                patches = install(self.tracer)
                res["missing"] = sorted(patches.missing)
            try:
                for key in ("train_s", "detect_s", "model_sha256", "det_sha256"):
                    res[key] = []
                t_window = time.perf_counter()
                while True:
                    t_cycle = time.perf_counter()
                    wall, _ = self.cli(
                        "train",
                        ["train", "--config", cfg, "--annotations",
                         str(d / "train" / "annotations.txt"), "--out", str(model)],
                        phase="train",
                    )
                    res["train_s"].append(wall)
                    res["model_sha256"].append(sha256(model))
                    wall, _ = self.cli(
                        "detect",
                        ["detect", "--config", cfg, "--model", str(model),
                         "--images", str(d / "test"), "--out", str(det)],
                        phase="detect",
                    )
                    res["detect_s"].append(wall)
                    res["det_sha256"].append(sha256(det))
                    if len(res["detect_s"]) == 1:  # later cycles reuse the heap
                        res["peak_rss_mb"] = peak_rss_mb()
                    now = time.perf_counter()
                    used, cycle = now - t_window, now - t_cycle
                    if mode != "measure" or used + cycle > job["seconds"]:
                        break
                res["model_bytes"] = model.stat().st_size

                res["eval_s"], text = self.cli(
                    "eval",
                    ["eval", "--config", cfg, "--detections", str(det),
                     "--annotations", str(d / "test" / "annotations.txt"),
                     "--out", str(pr)],
                    phase="eval",
                )
            finally:
                if self.tracer is not None:
                    patches.restore()
            res["pr_sha256"] = sha256(pr)
            res["eer"] = float(text.split()[1])
            last = pr.read_text().splitlines()[-1].split(",")
            res["precision"], res["recall"] = float(last[1]), float(last[2])
            res["n_test"] = len(list((d / "test").glob("*.pgm")))
        except StepFailed as e:
            res["error"] = str(e)
        res["calls"] = self.calls
        res["layers"] = self.layers
        return res


class StepFailed(Exception):
    pass


def main(argv) -> int:
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    res = Pass(job).run()
    Path(result_path).write_text(json.dumps(res, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
