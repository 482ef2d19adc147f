import numpy as np
import pytest

from hrm import synth
from hrm.cli import main
from hrm.errors import InvalidSpec
from hrm.evaluate import iou
from hrm.image_io import write_pgm


class TestRenderTemplate:
    def test_base_size(self):
        img = synth.render_template(1.0)
        assert img.shape == (40, 40)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_scaled_sizes(self):
        assert synth.render_template(1.25).shape == (50, 50)
        assert synth.render_template(0.75).shape == (30, 30)

    def test_structure_present(self):
        img = synth.render_template(1.0)
        # bright corner square, dark bar, bright disk
        assert img[10, 8] == 1.0
        assert img[20, 20] == 0.05
        assert img[28, 22] == 0.95

    def test_scale_invariant_structure(self):
        # the same normalized coordinates hit the same template regions
        for scale in (0.75, 1.5):
            size = int(round(40 * scale))
            img = synth.render_template(scale)
            assert img[int(0.2 * size), int(0.2 * size)] == 1.0  # square
            assert img[int(0.5 * size), int(0.5 * size)] == 0.05  # bar

    def test_too_small(self):
        with pytest.raises(InvalidSpec):
            synth.render_template(0.1)


class TestSynthScene:
    def test_zero_objects(self):
        img, boxes = synth.synth_scene([], (64, 48), noise=0.0, seed=1)
        assert img.shape == (48, 64)
        assert boxes == ()

    def test_deterministic(self):
        a, _ = synth.synth_scene([(32, 32, 1.0)], (64, 64), noise=0.02, seed=5)
        b, _ = synth.synth_scene([(32, 32, 1.0)], (64, 64), noise=0.02, seed=5)
        assert np.array_equal(a, b)

    def test_box_size_forced_by_scale(self):
        _, boxes = synth.synth_scene([(60, 60, 1.25)], (128, 128), 0.0, 0)
        x0, y0, x1, y1 = boxes[0]
        assert x1 - x0 == 50 and y1 - y0 == 50

    def test_template_rendered_at_box(self):
        img, boxes = synth.synth_scene([(32, 32, 1.0)], (64, 64), 0.0, 2)
        x0, y0, x1, y1 = boxes[0]
        assert np.array_equal(img[y0:y1, x0:x1], synth.render_template(1.0))

    def test_object_off_canvas(self):
        with pytest.raises(InvalidSpec):
            synth.synth_scene([(5, 5, 1.0)], (64, 64), 0.0, 0)

    def test_overlapping_objects(self):
        with pytest.raises(InvalidSpec):
            synth.synth_scene([(32, 32, 1.0), (36, 32, 1.0)], (96, 96), 0.0, 0)

    def test_values_clipped(self):
        img, _ = synth.synth_scene([(32, 32, 1.0)], (64, 64), noise=0.5, seed=3)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestRandomScene:
    def test_places_requested_count(self):
        rng = np.random.default_rng(0)
        specs = synth.random_scene(rng, 3, (0.75, 1.0, 1.25, 1.5), (224, 224))
        assert len(specs) == 3
        img, boxes = synth.synth_scene(specs, (224, 224), 0.02, 7)
        assert len(boxes) == 3

    def test_objects_fit_and_separate(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            specs = synth.random_scene(rng, 3, (1.0, 1.5), (224, 224))
            _, boxes = synth.synth_scene(specs, (224, 224), 0.0, 0)
            for i, a in enumerate(boxes):
                assert a[0] >= 0 and a[1] >= 0 and a[2] <= 224 and a[3] <= 224
                for b in boxes[i + 1 :]:
                    assert iou(a, b) == 0

    def test_impossible_placement(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidSpec):
            synth.random_scene(rng, 10, (1.5,), (80, 80), max_tries=30)


class TestRandomScenes:
    def test_reproduces_hrm_synth_bytes(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text("[synth]\nscenes = 4\ncanvas_width = 120\ncanvas_height = 100\n"
                        "noise = 0.02\nmin_objects = 0\nmax_objects = 2\n"
                        "scales = 0.75 1.0\n")
        assert main(["synth", "--spec", str(spec), "--seed", "11",
                     "--out", str(tmp_path / "cli")]) == 0
        lines = []
        for idx, (img, boxes) in enumerate(
            synth.random_scenes(11, 4, (120, 100), 0.02, (0.75, 1.0), 0, 2)
        ):
            name = f"scene_{idx:04d}.pgm"
            write_pgm(tmp_path / name, img)
            assert (tmp_path / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
            lines.append(" ".join([name] + [str(v) for b in boxes for v in b]) + "\n")
        assert "".join(lines) == (tmp_path / "cli" / "annotations.txt").read_text()
