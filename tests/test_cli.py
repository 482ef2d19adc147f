import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrm
from hrm import cli, errors
from hrm.cli import main
from hrm.features import EXTRACTOR_VERSION
from hrm.image_io import write_pgm

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

REPO_ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[pls]
components = 4

[features]
patch_size = 6
neighbor_offsets = 6 0 -6 0 0 6 0 -6

[training]
n_pos = 150
n_neg = 150
seed = 0

[voting]
scales = 0.75 1.0
stride = 2
"""

SYNTH_SPEC = """
[synth]
scenes = 6
canvas_width = 96
canvas_height = 96
noise = 0.01
min_objects = 1
max_objects = 1
scales = 0.75 1.0
"""


def _no_objects(side):
    """An (old, new) spec edit that sets one canvas side and places no objects.

    With objects to place, placement fails first and hides the side check.
    """
    old = ("canvas_width = 96\ncanvas_height = 96\nnoise = 0.01\n"
           "min_objects = 1\nmax_objects = 1")
    new = old.replace("_objects = 1", "_objects = 0")
    return old, new.replace(side.split()[0] + " = 96", side)


def _out_refused(argv, capsys, root):
    """``hrm`` with an --out it cannot write: exit 2, an error line naming
    the --out path, no temp file left or named."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert argv[argv.index("--out") + 1] in err and ".tmp" not in err
    assert not list(root.rglob("*.tmp"))


def _error_types(cls=errors.HRMError):
    """HRMError and its subclasses at every depth."""
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_types(sub)]


MODEL_ERRORS = {"IncompatibleModel", "CorruptModel", "DegenerateFit", "InvalidComponents"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> detect -> eval, shared by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    (root / "cfg.ini").write_text(CONFIG)
    (root / "spec.ini").write_text(SYNTH_SPEC)

    assert main(["synth", "--spec", str(root / "spec.ini"), "--seed", "7",
                 "--out", str(root / "scenes")]) == 0
    assert main(["train", "--config", str(root / "cfg.ini"),
                 "--annotations", str(root / "scenes" / "annotations.txt"),
                 "--out", str(root / "model.hrmb")]) == 0
    assert main(["detect", "--config", str(root / "cfg.ini"),
                 "--model", str(root / "model.hrmb"),
                 "--images", str(root / "scenes"),
                 "--out", str(root / "det.tsv")]) == 0
    assert main(["eval", "--config", str(root / "cfg.ini"),
                 "--detections", str(root / "det.tsv"),
                 "--annotations", str(root / "scenes" / "annotations.txt"),
                 "--out", str(root / "pr.csv")]) == 0
    return root


class TestSynthCommand:
    def test_outputs_exist(self, workspace):
        scenes = workspace / "scenes"
        pgms = sorted(scenes.glob("scene_*.pgm"))
        assert len(pgms) == 6
        assert (scenes / "annotations.txt").exists()

    def test_annotations_parse(self, workspace):
        from hrm.dataset import load_dataset

        ds = load_dataset(workspace / "scenes" / "annotations.txt")
        assert len(ds.entries) == 6
        for _, boxes in ds.entries:
            assert len(boxes) == 1

    def test_deterministic(self, workspace, tmp_path):
        assert main(["synth", "--spec", str(workspace / "spec.ini"),
                     "--seed", "7", "--out", str(tmp_path / "again")]) == 0
        for name in ["annotations.txt"] + [f"scene_{i:04d}.pgm" for i in range(6)]:
            a = (workspace / "scenes" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b

    def test_failed_rename_keeps_old_scene(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "o"
        out.mkdir()
        old = out / "scene_0000.pgm"
        old.write_bytes(b"old scene")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["synth", "--spec", str(workspace / "spec.ini"),
                     "--out", str(out)]) == 2
        assert old.read_bytes() == b"old scene"
        assert not list(out.glob("*.tmp"))

    def test_negative_seed_is_input_error(self, workspace, tmp_path, capsys):
        assert main(["synth", "--spec", str(workspace / "spec.ini"), "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_spec_is_input_error(self, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def _synth_exit(self, tmp_path, old, new, capsys):
        (tmp_path / "spec.ini").write_text(SYNTH_SPEC.replace(old, new))
        code = main(["synth", "--spec", str(tmp_path / "spec.ini"),
                     "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_non_numeric_value_is_input_error(self, tmp_path, capsys):
        code, err = self._synth_exit(tmp_path, "scenes = 6", "scenes = many", capsys)
        assert code == 2 and "'scenes'" in err
        assert not (tmp_path / "o").exists()

    def test_misspelled_key_is_input_error(self, tmp_path, capsys):
        # would otherwise write the default 10 scenes silently
        code, err = self._synth_exit(tmp_path, "scenes = 6", "scnes = 5", capsys)
        assert code == 2 and "'scnes'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [
        ("max_objects = 1", "max_objects = 0"),
        ("scales = 0.75 1.0", "scales ="),
        ("noise = 0.01", "noise = -1"),
        ("canvas_width = 96", "canvas_width = 20"),
        ("scales = 0.75 1.0", "scales = 0.75 nan"),
        ("noise = 0.01", "noise = inf"),
        _no_objects("canvas_width = 0"),
        _no_objects("canvas_width = -5"),
        _no_objects("canvas_height = 0"),
    ])
    def test_invalid_value_is_input_error(self, tmp_path, capsys, old, new):
        assert self._synth_exit(tmp_path, old, new, capsys)[0] == 2

    def test_unwritable_out_is_input_error(self, workspace, tmp_path, capsys):
        (tmp_path / "taken").write_bytes(b"")
        _out_refused(["synth", "--spec", str(workspace / "spec.ini"),
                      "--out", str(tmp_path / "taken")], capsys, tmp_path)


class TestTrainCommand:
    def test_model_file_magic(self, workspace):
        assert (workspace / "model.hrmb").read_bytes()[:4] == b"HRMB"

    def test_model_loads(self, workspace):
        from hrm.model_io import load_model

        bank = load_model(workspace / "model.hrmb")
        assert bank.geometry.patch_size == 6
        assert bank.geometry.num_context == 5
        assert bank.reference_box[0] > 0

    def test_library_path_writes_the_same_model(self, workspace, tmp_path):
        # hrm train is sample_patches then train_from_samples on the config
        from hrm.config import load_config
        from hrm.dataset import load_dataset
        from hrm.model_io import save_model
        from hrm.training import sample_patches, train_from_samples

        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(CONFIG.replace("seed = 0", "seed = 0\nscale_normalize = true"))
        ann = workspace / "scenes" / "annotations.txt"
        assert main(["train", "--config", str(cfg_path), "--annotations", str(ann),
                     "--out", str(tmp_path / "cli.hrmb")]) == 0
        cfg = load_config(cfg_path)
        entries = [(img, boxes) for _, img, boxes in load_dataset(ann).load_entries()]
        samples = sample_patches(entries, cfg.training.n_pos, cfg.training.n_neg,
                                 cfg.geometry, cfg.training.seed, scale_normalize=True)
        assert len(samples.canvases) > len(entries)  # some boxes were rescaled
        save_model(tmp_path / "lib.hrmb", train_from_samples(samples, cfg.geometry, cfg.pls))
        assert (tmp_path / "lib.hrmb").read_bytes() == (tmp_path / "cli.hrmb").read_bytes()

    def test_missing_annotations_is_input_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 2

    @pytest.mark.parametrize("old, new", [
        ("seed = 0", "seed = 0\nmethod = foo"),
        ("components = 4", "compnents = 4"),
        ("n_pos = 150", "n_pos = -1"),
        ("n_neg = 150", "n_neg = 0"),
        ("components = 4", "components = 0"),
        ("components = 4", "components = 4\nridge = 2"),
        ("components = 4", "components = 4\nridge = nan"),
        ("components = 4", "components = 150"),  # n_pos; centered rank is 149
        ("seed = 0", "seed = -1"),
        ("neighbor_offsets = 6 0 -6 0 0 6 0 -6", "neighbor_offsets = 6 0 0 0"),
        # trains, but .hrmb stores offsets as int32
        ("neighbor_offsets = 6 0 -6 0 0 6 0 -6", "neighbor_offsets = 3000000000 0"),
    ])
    def test_invalid_training_config_is_input_error(self, workspace, tmp_path,
                                                    old, new):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((workspace / "cfg.ini").read_text().replace(old, new))
        assert main(["train", "--config", str(cfg),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        assert not (tmp_path / "m.hrmb").exists()

    def test_byte_identical_across_thread_counts(self, workspace, tmp_path,
                                                 monkeypatch):
        models = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HRM_THREADS", threads)
            out = tmp_path / f"m{threads}.hrmb"
            assert main(["train", "--config", str(workspace / "cfg.ini"),
                         "--annotations", str(workspace / "scenes" / "annotations.txt"),
                         "--out", str(out)]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]
        assert models[0] == (workspace / "model.hrmb").read_bytes()

    def test_heads_agree_across_blas_thread_counts(self, workspace, tmp_path):
        # SciPy's OpenBLAS sums in a thread-count-dependent order; a
        # well-posed latent step keeps the heads to rounding, and one
        # thread count gives the same bytes on every run
        from hrm.model_io import load_model

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(hrm.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        paths = []
        for run, threads in enumerate(("1", "2", "2")):
            out = tmp_path / f"m{run}.hrmb"
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from hrm.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "train", "--config", str(workspace / "cfg.ini"),
                 "--annotations", str(workspace / "scenes" / "annotations.txt"),
                 "--out", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            paths.append(out)
        assert paths[1].read_bytes() == paths[2].read_bytes()
        one, two = (load_model(p) for p in paths[:2])
        for name in ("coefficients", "intercepts"):
            a, b = getattr(one, name), getattr(two, name)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a)), name

    def test_annotations_directory_is_input_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(tmp_path),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        assert not (tmp_path / "m.hrmb").exists()

    def test_annotation_naming_directory_is_input_error(self, workspace, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "annotations.txt").write_text("sub 1 1 5 5\n")
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(tmp_path / "annotations.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        assert not (tmp_path / "m.hrmb").exists()

    def test_box_outside_image_is_input_error(self, workspace, tmp_path):
        # scene images are 96 x 96
        ann = tmp_path / "annotations.txt"
        image = workspace / "scenes" / "scene_0000.pgm"
        ann.write_text(f"{image} 50 50 500 500\n")
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(ann),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        assert not (tmp_path / "m.hrmb").exists()

    def test_eigensolver_failure_is_model_error(self, workspace, tmp_path,
                                                monkeypatch, capsys):
        from hrm import pls

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        def no_convergence(*args, **kwargs):
            raise pls.sparse_linalg.ArpackNoConvergence("no convergence", [], [])

        # Lanczos gives up, then the dense solve of the formed projection fails
        monkeypatch.setattr(pls.sparse_linalg, "eigsh", no_convergence)
        monkeypatch.setattr(pls.linalg, "eigh", fail)
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"^model error: voting model j=0: eigensolver failed", err, re.M)
        assert not (tmp_path / "m.hrmb").exists()

    def test_out_of_memory_is_input_error(self, workspace, tmp_path, monkeypatch,
                                          capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 13.8 GiB for an array")

        monkeypatch.setattr("hrm.cli.train_from_samples", out_of_memory)
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 13.8 GiB for an array\n"
        assert not (tmp_path / "m.hrmb").exists()

    @pytest.mark.parametrize("pnm", [
        b"P5\nabc 3\n255\n",
        b"P2\n2 2\n255\n1 x 3 4\n",
    ], ids=["header-token", "ascii-body-token"])
    def test_non_integer_pnm_token_is_input_error(self, workspace, tmp_path, pnm):
        (tmp_path / "bad.pgm").write_bytes(pnm)
        (tmp_path / "annotations.txt").write_text("bad.pgm\n")
        assert main(["train", "--config", str(workspace / "cfg.ini"),
                     "--annotations", str(tmp_path / "annotations.txt"),
                     "--out", str(tmp_path / "m.hrmb")]) == 2
        assert not (tmp_path / "m.hrmb").exists()

    def test_unwritable_out_is_input_error(self, workspace, tmp_path, capsys):
        _out_refused(["train", "--config", str(workspace / "cfg.ini"),
                      "--annotations", str(workspace / "scenes" / "annotations.txt"),
                      "--out", str(tmp_path / "missing" / "m.hrmb")], capsys, tmp_path)

    def test_unwritable_out_refused_before_sampling(self, workspace, tmp_path,
                                                    monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(cli, "sample_patches", never)
        _out_refused(["train", "--config", str(workspace / "cfg.ini"),
                      "--annotations", str(workspace / "scenes" / "annotations.txt"),
                      "--out", str(tmp_path / "missing_dir" / "m.hrmb")],
                     capsys, tmp_path)


class TestDetectCommand:
    def test_untrainable_components_config(self, workspace, tmp_path):
        # a config hrm train refuses (n_pos = 150) still drives detection
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(CONFIG.replace("components = 4", "components = 150"))
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "det.tsv")]) == 0
        assert (tmp_path / "det.tsv").read_bytes() == (workspace / "det.tsv").read_bytes()

    def test_output_format(self, workspace):
        from hrm.evaluate import box_from_hypothesis
        from hrm.model_io import load_model

        ref = load_model(workspace / "model.hrmb").reference_box
        lines = (workspace / "det.tsv").read_text().splitlines()
        assert lines
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 9
            assert parts[0].startswith("scene_")
            for field in parts[1:]:
                float(field)
                assert len(field.split(".")[-1]) == 6  # 6-decimal fixed point
            x, y, scale, _, *box = (float(v) for v in parts[1:])
            want = box_from_hypothesis((x, y), scale, ref)
            assert box == pytest.approx(want, abs=1e-5)

    def test_writes_no_sidecar(self, workspace):
        assert [p.name for p in workspace.glob("det.tsv*")] == ["det.tsv"]

    def test_rerun_byte_identical(self, workspace, tmp_path):
        assert main(["detect", "--config", str(workspace / "cfg.ini"),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "det2.tsv")]) == 0
        assert (workspace / "det.tsv").read_bytes() == (tmp_path / "det2.tsv").read_bytes()

    def test_thread_cap_env(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("HRM_THREADS", "1")
        assert main(["detect", "--config", str(workspace / "cfg.ini"),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "det1.tsv")]) == 0
        assert (workspace / "det.tsv").read_bytes() == (tmp_path / "det1.tsv").read_bytes()

    def test_byte_identical_across_thread_counts(self, workspace, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HRM_THREADS", threads)
            out = tmp_path / f"det{threads}.tsv"
            assert main(["detect", "--config", str(workspace / "cfg.ini"),
                         "--model", str(workspace / "model.hrmb"),
                         "--images", str(workspace / "scenes"),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == (workspace / "det.tsv").read_bytes()

    def _detect_args(self, workspace, images, out):
        return ["detect", "--config", str(workspace / "cfg.ini"),
                "--model", str(workspace / "model.hrmb"),
                "--images", str(images), "--out", str(out)]

    def test_numpy_blas_threads_set_for_the_pool_and_restored(
            self, workspace, tmp_path, monkeypatch):
        blas = cli._numpy_blas()
        if blas is None:
            pytest.skip("NumPy bundles no OpenBLAS here")
        get, set_threads = blas
        seen = []
        detect = cli.detect

        def recorded(*args, **kwargs):
            seen.append(get())
            return detect(*args, **kwargs)

        monkeypatch.setattr(cli, "detect", recorded)
        monkeypatch.setenv("HRM_THREADS", "2")
        images = tmp_path / "images"
        images.mkdir()
        for name in ("scene_0000.pgm", "scene_0001.pgm"):
            shutil.copy(workspace / "scenes" / name, images / name)
        args = self._detect_args(workspace, images, tmp_path / "d.tsv")
        original = get()
        set_threads(3)  # apart from the capped count below six cores
        try:
            assert main(args) == 0
            assert seen == [min(3, cli._detect_plan(2)[1])] * 2
            assert get() == 3
            (images / "scene_0002.pgm").write_bytes(b"P5\n4 4\n255\nxx")
            assert main(args) == 2  # truncated body
            assert get() == 3
        finally:
            set_threads(original)

    @pytest.mark.parametrize("cores, cap, n_images, plan", [
        (2, None, 20, (2, 1)),
        (2, "1", 20, (1, 2)),
        (2, None, 1, (1, 2)),
        (1, None, 20, (1, 1)),
        (4, "3", 20, (3, 1)),
        (8, "3", 20, (3, 2)),
        (16, "4", 2, (2, 8)),
        (4, None, 0, (1, 4)),
    ])
    def test_thread_plan_fits_the_usable_cores(self, monkeypatch, cores, cap,
                                               n_images, plan):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        if cap is None:
            monkeypatch.delenv("HRM_THREADS", raising=False)
        else:
            monkeypatch.setenv("HRM_THREADS", cap)
        workers, blas_threads = cli._detect_plan(n_images)
        assert (workers, blas_threads) == plan
        assert workers * blas_threads <= cores

    def test_workers_count_usable_not_installed_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("HRM_THREADS", raising=False)
        assert cli._worker_count() == 1
        monkeypatch.setenv("HRM_THREADS", "4")
        assert cli._worker_count() == 1

    def test_byte_identical_without_numpy_blas(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_numpy_blas", lambda: None)
        out = tmp_path / "d.tsv"
        assert main(self._detect_args(workspace, workspace / "scenes", out)) == 0
        assert out.read_bytes() == (workspace / "det.tsv").read_bytes()

    def test_image_without_patch_adds_no_detections(self, workspace, tmp_path):
        # a 4x9 image fits no 6x6 patch: it adds no line, and the batch runs
        images = tmp_path / "images"
        shutil.copytree(workspace / "scenes", images)
        write_pgm(images / "tiny.pgm", np.full((4, 9), 0.5))
        out = tmp_path / "d.tsv"
        assert main(self._detect_args(workspace, images, out)) == 0
        assert out.read_bytes() == (workspace / "det.tsv").read_bytes()

    def test_directory_without_images_writes_empty_detections(self, workspace,
                                                              tmp_path):
        images = tmp_path / "images"
        images.mkdir()
        (images / "notes.txt").write_text("no images here\n")
        out = tmp_path / "d.tsv"
        assert main(self._detect_args(workspace, images, out)) == 0
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("cap", ["abc", "0", "-2", ""])
    def test_non_integer_thread_cap_is_input_error(self, workspace, tmp_path,
                                                   monkeypatch, cap):
        monkeypatch.setenv("HRM_THREADS", cap)
        assert main(["detect", "--config", str(workspace / "cfg.ini"),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2

    def test_invalid_voting_config_is_input_error(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((workspace / "cfg.ini").read_text().replace(
            "stride = 2", "stride = 0"))
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("old, new", [
        ("stride = 2", "stride = 9223372036854775808"),  # 2**63
    ])
    def test_out_of_range_voting_value_is_input_error(self, workspace, tmp_path,
                                                      capsys, old, new):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((workspace / "cfg.ini").read_text().replace(old, new))
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        assert "must be in" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("old, new", [
        ("scales = 0.75 1.0", "scales = nan"),
        ("scales = 0.75 1.0", "scales = 1 inf"),
        ("stride = 2", "stride = 2\nmin_score_fraction = nan"),
        ("stride = 2", "stride = 2\n[pipeline]\niou_threshold = nan"),
        # a config that still carries the retired bin_size and [fusion]
        # bandwidth keys, here with a nan bandwidth, is refused all the same
        pytest.param("stride = 2", "stride = 2\nbin_size = 4\n[fusion]\nbandwidth = nan",
                     id="bin_size = 4-bin_size = 4\n[fusion]\nbandwidth = nan"),
    ])
    def test_non_finite_config_value_is_input_error(self, workspace, tmp_path,
                                                    old, new):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((workspace / "cfg.ini").read_text().replace(old, new))
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        assert not (tmp_path / "d.tsv").exists()

    def test_train_scale_is_unknown_key(self, workspace, tmp_path, capsys):
        # an old config is refused, not run without the key: train_scale t
        # with scales S is now written as scales S/t
        cfg = tmp_path / "cfg.ini"
        cfg.write_text((workspace / "cfg.ini").read_text().replace(
            "stride = 2", "stride = 2\ntrain_scale = 1"))
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        assert "unknown key 'train_scale' in section [voting]" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("section, line", [
        ("features", "derivative_kernel = sobel"),
        ("fusion", "kernel = gaussian"),
        ("fusion", "probability_floor = 1e-12"),
        ("voting", "bin_size = 4"),
        ("voting", "smoothing = 1.5"),
        ("fusion", "bandwidth = 8"),
    ])
    def test_removed_key_is_input_error(self, workspace, tmp_path, capsys,
                                        section, line):
        # the filter, the kernel, the accumulator cell, its smoothing and the
        # kernel bandwidth are fixed, so even their old defaults are refused
        # rather than ignored
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        assert main(["detect", "--config", str(cfg),
                     "--model", str(workspace / "model.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        key = line.split()[0]
        assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    def test_patch_geometry_is_read_from_the_model(self, workspace, tmp_path):
        from hrm.config import load_config
        from hrm.model_io import load_model

        bare = tmp_path / "bare.ini"  # no [features]: patch size 16, 16 offsets
        bare.write_text(re.sub(r"\[features\][^[]*", "", CONFIG))
        model = workspace / "model.hrmb"
        assert load_config(bare).geometry != load_model(model).geometry
        out = tmp_path / "bare.tsv"
        assert main(["detect", "--config", str(bare), "--model", str(model),
                     "--images", str(workspace / "scenes"), "--out", str(out)]) == 0
        assert out.read_bytes() == (workspace / "det.tsv").read_bytes()

    @pytest.mark.parametrize("version", [2, 3])
    def test_old_format_model_refused(self, workspace, tmp_path, capsys, version):
        data = bytearray((workspace / "model.hrmb").read_bytes())
        struct.pack_into("<I", data, 4, version)
        old = tmp_path / "old.hrmb"
        old.write_bytes(bytes(data))
        assert main(["detect", "--model", str(old),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3
        assert "retrain" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    def test_corrupt_model_is_model_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.hrmb"
        bad.write_bytes((workspace / "model.hrmb").read_bytes()[:40])
        assert main(["detect", "--model", str(bad),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3

    def test_v1_model_refused(self, workspace, tmp_path):
        # the format-1 header: geometry, train scale, reference box, c, alpha,
        # then the model count (every fit record followed)
        ext = EXTRACTOR_VERSION.encode()
        old = tmp_path / "v1.hrmb"
        old.write_bytes(
            b"HRMB" + struct.pack("<II", 1, len(ext)) + ext
            + struct.pack("<II", 6, 1) + struct.pack("<ii", 6, 0)
            + struct.pack("<dddId", 1.0, 24.0, 24.0, 4, 1e-10)
            + struct.pack("<I", 0)
        )
        assert main(["detect", "--model", str(old),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3
        assert not (tmp_path / "d.tsv").exists()

    def test_head_rows_disagreeing_with_patch_size_is_model_error(
        self, workspace, tmp_path
    ):
        data = bytearray((workspace / "model.hrmb").read_bytes())
        (ext_len,) = struct.unpack_from("<I", data, 8)
        at = 12 + ext_len  # the patch-size field
        assert struct.unpack_from("<I", data, at) == (6,)
        struct.pack_into("<I", data, at, 5)
        bad = tmp_path / "bad.hrmb"
        bad.write_bytes(bytes(data))
        assert main(["detect", "--model", str(bad),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("field, value", [
        ("coefficients", np.nan),
        ("intercepts", np.inf),
        ("reference_box", (np.nan, -3.0)),
    ])
    def test_non_finite_model_is_model_error(self, workspace, tmp_path, field, value):
        from hrm.model_io import load_model, save_model

        bank = load_model(workspace / "model.hrmb")
        bad = tmp_path / "bad.hrmb"
        if field == "reference_box":  # a bank refuses it, so patch the file's box
            data = bytearray((workspace / "model.hrmb").read_bytes())
            (ext_len,) = struct.unpack_from("<I", data, 8)
            at = 20 + ext_len + 8 * len(bank.geometry.neighbor_offsets)
            assert struct.unpack_from("<dd", data, at) == bank.reference_box
            struct.pack_into("<dd", data, at, *value)
            bad.write_bytes(bytes(data))
        else:
            getattr(bank, field).flat[0] = value
            save_model(bad, bank)
        assert main(["detect", "--model", str(bad),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3
        assert not (tmp_path / "d.tsv").exists()

    def test_missing_model_is_input_error(self, workspace, tmp_path):
        assert main(["detect", "--model", str(tmp_path / "nope.hrmb"),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 2
        assert not (tmp_path / "d.tsv").exists()

    def test_non_utf8_extractor_is_model_error(self, workspace, tmp_path):
        data = bytearray((workspace / "model.hrmb").read_bytes())
        (ext_len,) = struct.unpack_from("<I", data, 8)
        data[12 : 12 + ext_len] = b"\xff" * ext_len
        bad = tmp_path / "bad.hrmb"
        bad.write_bytes(bytes(data))
        assert main(["detect", "--model", str(bad),
                     "--images", str(workspace / "scenes"),
                     "--out", str(tmp_path / "d.tsv")]) == 3
        assert not (tmp_path / "d.tsv").exists()

    def test_missing_images_is_input_error(self, workspace, tmp_path):
        assert main(["detect", "--model", str(workspace / "model.hrmb"),
                     "--images", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "d.tsv")]) == 2

    def test_unwritable_out_is_input_error(self, workspace, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        _out_refused(["detect", "--config", str(workspace / "cfg.ini"),
                      "--model", str(workspace / "model.hrmb"),
                      "--images", str(workspace / "scenes"),
                      "--out", str(tmp_path / "taken")], capsys, tmp_path)


class TestEvalCommand:
    def test_untrainable_components_config(self, workspace, tmp_path):
        # eval never reads [pls]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(CONFIG.replace("components = 4", "components = 150"))
        assert main(["eval", "--config", str(cfg),
                     "--detections", str(workspace / "det.tsv"),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 0
        assert (tmp_path / "pr.csv").read_bytes() == (workspace / "pr.csv").read_bytes()

    def test_csv_format(self, workspace):
        lines = (workspace / "pr.csv").read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        for line in lines[1:]:
            t, p, r = (float(v) for v in line.split(","))
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0

    def test_detections_alone_evaluate_the_same(self, workspace, tmp_path):
        det = tmp_path / "det.tsv"
        det.write_bytes((workspace / "det.tsv").read_bytes())
        assert main(["eval", "--config", str(workspace / "cfg.ini"),
                     "--detections", str(det),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 0
        assert (tmp_path / "pr.csv").read_bytes() == (workspace / "pr.csv").read_bytes()

    def test_box_is_read_as_written(self, tmp_path):
        # centre and scale say nothing of the box: only columns 6-9 are matched
        (tmp_path / "x.pgm").write_bytes(b"P5\n60 60\n255\n" + bytes(3600))
        ann = tmp_path / "annotations.txt"
        ann.write_text("x.pgm 10 10 30 40\n")
        det = tmp_path / "det.tsv"
        det.write_text("x.pgm\t0.0\t0.0\t9.0\t0.5\t10.0\t10.0\t30.0\t40.0\n")
        assert main(["eval", "--detections", str(det), "--annotations", str(ann),
                     "--out", str(tmp_path / "pr.csv")]) == 0
        rows = (tmp_path / "pr.csv").read_text().splitlines()
        assert rows[1:] == ["0.500000,1.000000,1.000000"]

    def test_oversized_box_is_input_error(self, tmp_path, capsys):
        # eval decodes no image, so no image size bounds the box
        (tmp_path / "x.pgm").write_bytes(b"P5\n60 60\n255\n" + bytes(3600))
        ann = tmp_path / "annotations.txt"
        ann.write_text(f"x.pgm 0 0 {10**400} 50\n")
        det = tmp_path / "det.tsv"
        det.write_text("x.pgm\t0.0\t0.0\t9.0\t0.5\t10.0\t10.0\t30.0\t40.0\n")
        assert main(["eval", "--detections", str(det), "--annotations", str(ann),
                     "--out", str(tmp_path / "pr.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{ann}:1" in err
        assert not (tmp_path / "pr.csv").exists()

    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_detection_is_input_error(self, workspace, tmp_path,
                                                 column, value):
        fields = (workspace / "det.tsv").read_text().splitlines()[0].split("\t")
        fields[column] = value
        bad = tmp_path / "det.tsv"
        bad.write_text("\t".join(fields) + "\n")
        assert main(["eval", "--detections", str(bad),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 2
        assert not (tmp_path / "pr.csv").exists()

    @pytest.mark.parametrize("line", [
        "scene_0000.pgm\t10.0\t10.0\t1.0\t0.5",  # the 5-column layout
        "scene_0000.pgm\t10.0\t10.0\t1.0\t0.5\t30.0\t0.0\t10.0\t20.0",  # x0 > x1
        "scene_0000.pgm\t10.0\t10.0\t1.0\t0.5\t0.0\t30.0\t20.0\t10.0",  # y0 > y1
    ], ids=["five-fields", "x-inverted", "y-inverted"])
    def test_malformed_detection_line_is_input_error(self, workspace, tmp_path,
                                                     line, capsys):
        bad = tmp_path / "det.tsv"
        bad.write_text(line + "\n")
        assert main(["eval", "--detections", str(bad),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 2
        assert f"{bad}:1:" in capsys.readouterr().err
        assert not (tmp_path / "pr.csv").exists()

    def test_non_utf8_detections_is_input_error(self, workspace, tmp_path):
        bad = tmp_path / "det.tsv"
        bad.write_bytes(b"scene_\xff.pgm\t1.0\t2.0\t1.0\t0.5\t0\t0\t4\t4\n")
        assert main(["eval", "--detections", str(bad),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 2
        assert not (tmp_path / "pr.csv").exists()

    def test_malformed_detections_is_input_error(self, workspace, tmp_path):
        bad = tmp_path / "det.tsv"
        bad.write_text("scene_0000.pgm\t1.0\t2.0\n")
        assert main(["eval", "--detections", str(bad),
                     "--annotations", str(workspace / "scenes" / "annotations.txt"),
                     "--out", str(tmp_path / "pr.csv")]) == 2

    def test_shared_file_name_is_input_error(self, tmp_path, capsys):
        # det.tsv names images by file name alone, so b/x.pgm would hide a/x.pgm
        pgm = b"P5\n60 60\n255\n" + bytes(3600)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.pgm").write_bytes(pgm)
        ann = tmp_path / "annotations.txt"
        ann.write_text("a/x.pgm 0 0 20 20\nb/x.pgm 30 30 50 50\n")
        det = tmp_path / "det.tsv"
        det.write_text("x.pgm\t10.0\t10.0\t1.0\t0.9\t0.0\t0.0\t20.0\t20.0\n"
                       "x.pgm\t40.0\t40.0\t1.0\t0.8\t30.0\t30.0\t50.0\t50.0\n")
        assert main(["eval", "--detections", str(det), "--annotations", str(ann),
                     "--out", str(tmp_path / "pr.csv")]) == 2
        err = capsys.readouterr().err
        assert str(Path("a") / "x.pgm") in err and str(Path("b") / "x.pgm") in err
        assert not (tmp_path / "pr.csv").exists()

    def test_unwritable_out_is_input_error(self, workspace, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        _out_refused(["eval", "--detections", str(workspace / "det.tsv"),
                      "--annotations", str(workspace / "scenes" / "annotations.txt"),
                      "--out", str(tmp_path / "taken")], capsys, tmp_path)


def _write_console_script(bin_dir):
    """Write the ``hrm`` wrapper an installer generates from ``pyproject.toml``."""
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["hrm"]
    module, _, attr = target.partition(":")
    bin_dir.mkdir()
    script = bin_dir / "hrm"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        bin_dir = tmp_path / "bin"
        _write_console_script(bin_dir)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(hrm.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        out = subprocess.run(["hrm", "--help"], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        # match the subcommand choices, not substrings: the description
        # ("object detection") would otherwise satisfy "detect" on its own
        choices = re.search(r"\{([\w,-]+)\}", out.stdout)
        assert choices, out.stdout
        for cmd in ("train", "detect", "eval", "synth"):
            assert cmd in choices.group(1).split(",")


class TestExitCodes:
    @pytest.mark.parametrize("cls", _error_types(), ids=lambda cls: cls.__name__)
    def test_every_error_type_exits_with_its_code(self, cls, tmp_path, monkeypatch,
                                                  capsys):
        def fail(path):
            raise cls("cannot go on")

        monkeypatch.setattr(cli, "load_synth_spec", fail)
        code = 3 if cls.__name__ in MODEL_ERRORS else 2
        assert main(["synth", "--spec", str(tmp_path / "spec.ini"),
                     "--out", str(tmp_path / "out")]) == code
        prefix = "model error" if code == 3 else "error"
        assert capsys.readouterr().err == f"{prefix}: cannot go on\n"
        assert cls.exit_code == code
