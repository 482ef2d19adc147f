import threading
import weakref

import numpy as np
import pytest

from hrm import pls, training
from hrm.errors import InvalidDataset
from hrm.features import PatchGeometry, compute_channels, context_vectors
from hrm.model_io import save_model
from hrm.synth import synth_scene

PS = 5
GEOM = PatchGeometry(PS, ((PS, 0), (0, PS)))


def scene_entry(seed=0, box=(20, 16, 44, 40), canvas=(64, 64)):
    """One synthetic image with a single annotated object box."""
    cx = (box[0] + box[2]) / 2.0
    cy = (box[1] + box[3]) / 2.0
    scale = (box[2] - box[0]) / 40.0
    img, boxes = synth_scene([(cx, cy, scale)], canvas, noise=0.01, seed=seed)
    return img, list(boxes)


def context_sets(ss, geom):
    """Rows (n, m+1, d) from the per-patch oracle, +-1 labels, positive votes."""
    vols = {cid: compute_channels(c) for cid, c in enumerate(ss.canvases)}
    rows = np.array(
        [context_vectors(vols[s.canvas_id], s.topleft, geom).vectors
         for s in ss.samples]
    )
    labels = np.array([float(s.label) for s in ss.samples])
    votes = np.array([s.voting for s in ss.samples if s.label > 0])
    return rows, labels, votes


def oracle_bank(ss, geom, cfg):
    """The bank fitted on every X_j built from the per-patch oracle, rows
    positives first, through training's per-context fit."""
    rows, labels, votes = context_sets(ss, geom)
    order = np.argsort(labels < 0, kind="stable")
    hrms, lrms = zip(*(training.fit_context(rows[order, j, :], votes, cfg, j)
                       for j in range(geom.num_context)))
    return training.ModelBank.from_fits(hrms, lrms, geom)


def head_votes(bank, X):
    """The raw-patch context's two voting outputs for the rows of X."""
    return X @ bank.coefficients[:, 0, :2] + bank.intercepts[0, :2]


class TestSamplePatches:
    def test_counts_and_labels(self):
        entries = [scene_entry(0), scene_entry(1)]
        ss = training.sample_patches(entries, 40, 60, GEOM, seed=7)
        labels = [s.label for s in ss.samples]
        assert labels.count(+1) == 40
        assert labels.count(-1) == 60

    def test_deterministic_under_seed(self):
        entries = [scene_entry(2)]
        a = training.sample_patches(entries, 20, 20, GEOM, seed=3)
        b = training.sample_patches(entries, 20, 20, GEOM, seed=3)
        assert [(s.canvas_id, s.topleft, s.label) for s in a.samples] == [
            (s.canvas_id, s.topleft, s.label) for s in b.samples
        ]

    def test_positives_inside_negatives_outside(self):
        box = (20, 16, 44, 40)
        entries = [scene_entry(3, box)]
        ss = training.sample_patches(entries, 30, 30, GEOM, seed=1)
        x0, y0, x1, y1 = box
        for s in ss.samples:
            px, py = s.topleft
            inside = x0 <= px and y0 <= py and px + PS <= x1 and py + PS <= y1
            overlaps = px < x1 and px + PS > x0 and py < y1 and py + PS > y0
            if s.label > 0:
                assert inside
            else:
                assert not overlaps

    def test_voting_vector_oracle(self):
        box = (20, 16, 44, 40)
        cx, cy = 32.0, 28.0
        entries = [scene_entry(4, box)]
        ss = training.sample_patches(entries, 25, 5, GEOM, seed=2)
        for s in ss.samples:
            if s.label > 0:
                expected = (cx - (s.topleft[0] + PS / 2.0),
                            cy - (s.topleft[1] + PS / 2.0))
                assert np.allclose(s.voting, expected)
            else:
                assert s.voting is None

    def test_centered_patch_votes_zero(self):
        # a box exactly one patch wide admits a single positive placement
        # whose center coincides with the box center
        img = np.random.default_rng(5).random((32, 32))
        entries = [(img, [(10, 12, 10 + PS, 12 + PS)])]
        ss = training.sample_patches(entries, 1, 1, GEOM, seed=0)
        positive = next(s for s in ss.samples if s.label > 0)
        assert positive.topleft == (10, 12)
        assert np.array_equal(positive.voting, np.zeros(2))

    def test_voting_bounded_by_box_diagonal(self):
        box = (20, 16, 44, 40)
        entries = [scene_entry(6, box)]
        ss = training.sample_patches(entries, 50, 5, GEOM, seed=4)
        diag = np.hypot(box[2] - box[0], box[3] - box[1])
        for s in ss.samples:
            if s.label > 0:
                assert np.linalg.norm(s.voting) <= diag

    def test_insufficient_negatives(self):
        # box covering all but a sliver leaves too few negative positions
        img = np.random.default_rng(7).random((32, 32))
        entries = [(img, [(0, 0, 32, 28)])]
        with pytest.raises(InvalidDataset):
            training.sample_patches(entries, 1, 10_000, GEOM, seed=0)

    def test_insufficient_positives(self):
        img = np.random.default_rng(8).random((32, 32))
        entries = [(img, [(10, 10, 10 + PS, 10 + PS)])]
        with pytest.raises(InvalidDataset):
            training.sample_patches(entries, 2, 1, GEOM, seed=0)

    def test_scale_normalization_adds_canvas(self):
        # a 2x-reference box triggers a rescaled canvas for its positives
        entries = [scene_entry(9, (12, 12, 52, 52))]
        ss = training.sample_patches(
            entries, 10, 10, GEOM, seed=0, reference_size=20.0
        )
        assert len(ss.canvases) == 2
        assert ss.canvases[1].shape == (32, 32)
        for s in ss.samples:
            if s.label > 0:
                assert s.canvas_id == 1


class TestTrainBank:
    def test_bank_structure(self):
        entries = [scene_entry(13)]
        ss = training.sample_patches(entries, 10, 10, GEOM, seed=0)
        cfg = pls.LatentConfig(components=4)
        bank = training.train_from_samples(ss, GEOM, cfg)
        assert bank.geometry.num_context == GEOM.num_context == 3
        assert bank.coefficients.shape == (GEOM.vector_length, 3, 3)
        assert bank.intercepts.shape == (3, 3)

    @pytest.mark.parametrize("offsets, entries, reference_size", [
        (((PS, 0), (0, PS)), [scene_entry(14)], None),
        ((), [scene_entry(14)], None),
        # positives on rescaled canvases; +-PS neighbors clip at canvas edges
        (((PS, 0), (-PS, 0), (0, PS), (0, -PS)),
         [scene_entry(14), scene_entry(19, (8, 30, 40, 62))], 20.0),
        # a shift past the 64-px canvas clips for every sample
        (((70, 0), (0, PS)), [scene_entry(14)], None),
        # shifts under PS make a sample's windows overlap
        (((2, 0), (0, -1), (-3, 3)), [scene_entry(14), scene_entry(17)], None),
    ], ids=["m2", "m0", "m4-two-scenes-rescaled", "m2-offset-past-canvas",
            "m3-overlapping-windows"])
    def test_matches_fits_on_context_vectors(self, offsets, entries, reference_size):
        # every X_j built from the per-patch oracle, fitted directly
        geom = PatchGeometry(PS, offsets)
        ss = training.sample_patches(
            entries, 8, 8, geom, seed=1, reference_size=reference_size
        )
        cfg = pls.LatentConfig(components=3)
        a = oracle_bank(ss, geom, cfg)
        b = training.train_from_samples(ss, geom, cfg)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercepts, b.intercepts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_volumes_bounded_by_workers(self, monkeypatch, workers):
        # each canvas's volume is dropped once its covered pixels are kept
        lock = threading.Lock()
        live = {"now": 0, "peak": 0, "calls": 0}

        def release():
            with lock:
                live["now"] -= 1

        def tracked(*args):
            vol = compute_channels(*args)
            with lock:
                live["now"] += 1
                live["calls"] += 1
                live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(vol, release)
            return vol

        monkeypatch.setattr(training, "compute_channels", tracked)
        entries = [scene_entry(s) for s in (21, 22, 23, 24)]
        ss = training.sample_patches(entries, 16, 16, GEOM, seed=1)
        training.train_from_samples(ss, GEOM, pls.LatentConfig(components=3),
                                    workers=workers)
        assert live["calls"] == len({s.canvas_id for s in ss.samples}) > 2
        assert 1 <= live["peak"] <= workers
        assert live["now"] == 0

    def test_matches_fits_at_every_start(self):
        # every patch start of a small canvas, so each neighbor bound is hit
        geom = PatchGeometry(PS, ((PS, 0), (-PS, 0), (0, PS), (0, -PS)))
        img, _ = scene_entry(20, (2, 2, 14, 14), canvas=(16, 17))
        starts = [(x, y) for y in range(17 - PS + 1) for x in range(16 - PS + 1)]
        samples = tuple(
            training.TrainingSample(0, xy, +1, np.array([i, -i]) / 7.0)
            if i % 2 else training.TrainingSample(0, xy, -1)
            for i, xy in enumerate(starts)
        )
        ss = training.SampleSet((img,), samples)
        cfg = pls.LatentConfig(components=3)
        a = oracle_bank(ss, geom, cfg)
        b = training.train_from_samples(ss, geom, cfg)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercepts, b.intercepts)

    def test_exact_interpolation_small_sample(self):
        # with c = n_pos - 1 components the fit spans the full centered
        # row space, so training votes are reproduced exactly
        geom = PatchGeometry(PS, ())
        entries = [scene_entry(15)]
        ss = training.sample_patches(entries, 8, 8, geom, seed=2)
        cfg = pls.LatentConfig(components=7)
        bank = training.train_from_samples(ss, geom, cfg)
        rows, labels, votes = context_sets(ss, geom)
        pred = head_votes(bank, rows[labels > 0, 0, :])
        assert np.max(np.abs(pred - votes)) <= 1e-6

    def test_pls_and_bpls_agree_on_full_rank_fit(self):
        geom = PatchGeometry(PS, ())
        entries = [scene_entry(16)]
        ss = training.sample_patches(entries, 8, 8, geom, seed=3)
        cfg = pls.LatentConfig(components=7)
        bank = training.train_from_samples(ss, geom, cfg)
        rows, labels, votes = context_sets(ss, geom)
        X = rows[labels > 0, 0, :]
        reference = pls.pls_fit(X, votes, cfg.components)
        d = np.abs(pls.predict(reference, X) - head_votes(bank, X))
        assert np.max(d) <= 1e-4

    def test_bank_does_not_depend_on_sample_order(self):
        ss = training.sample_patches([scene_entry(25)], 8, 8, GEOM, seed=2)
        pos = [s for s in ss.samples if s.label > 0]
        neg = [s for s in ss.samples if s.label < 0]
        interleaved = [s for pair in zip(neg, pos) for s in pair]
        cfg = pls.LatentConfig(components=3)
        a = training.train_from_samples(
            training.SampleSet(ss.canvases, tuple(pos + neg)), GEOM, cfg
        )
        b = training.train_from_samples(
            training.SampleSet(ss.canvases, tuple(interleaved)), GEOM, cfg
        )
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercepts, b.intercepts)

    @pytest.mark.parametrize("label", [+1, -1])
    def test_one_class_refused(self, label):
        ss = training.sample_patches([scene_entry(26)], 8, 8, GEOM, seed=3)
        one = tuple(s for s in ss.samples if s.label == label)
        with pytest.raises(InvalidDataset, match="both labels"):
            training.train_from_samples(
                training.SampleSet(ss.canvases, one), GEOM, pls.LatentConfig(components=3)
            )

    def test_single_negative_trains(self):
        ss = training.sample_patches([scene_entry(27)], 8, 1, GEOM, seed=4)
        cfg = pls.LatentConfig(components=3)
        bank = training.train_from_samples(ss, GEOM, cfg)
        assert np.array_equal(bank.coefficients, oracle_bank(ss, GEOM, cfg).coefficients)

    def test_channels_cover_only_the_sampled_region(self, monkeypatch):
        # a rescaled canvas's samples read around its one box, so its
        # volume is a crop of it
        shapes = []

        def recorded(img, kernel):
            shapes.append(img.shape)
            return compute_channels(img, kernel)

        monkeypatch.setattr(training, "compute_channels", recorded)
        entries = [scene_entry(28, (8, 8, 48, 48), canvas=(96, 96))]
        ss = training.sample_patches(entries, 8, 8, GEOM, seed=1, reference_size=20.0)
        training.train_from_samples(ss, GEOM, pls.LatentConfig(components=3))
        assert len(ss.canvases) == len(shapes) == 2
        assert shapes[1] != ss.canvases[1].shape
        assert sum(h * w for h, w in shapes) < sum(c.size for c in ss.canvases)

    def test_fits_called_through_module(self, monkeypatch):
        # one bpls_fit and one eigensolve per voting and label model, each
        # looked up on hrm.pls, where the benchmark's spans wrap them
        calls = {"bpls_fit": 0, "dominant_eigenvectors": 0}

        def counted(name):
            original = getattr(pls, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(pls, name, counted(name))
        ss = training.sample_patches([scene_entry(18)], 8, 8, GEOM, seed=5)
        training.train_from_samples(ss, GEOM, pls.LatentConfig(components=3))
        m = len(GEOM.neighbor_offsets)
        assert calls == {"bpls_fit": 2 * (m + 1), "dominant_eigenvectors": 2 * (m + 1)}

    def test_reproducible_serialization(self, tmp_path):
        cfg = pls.LatentConfig(components=3)
        blobs = []
        for run in range(2):
            entries = [scene_entry(18)]
            ss = training.sample_patches(entries, 8, 8, GEOM, seed=5)
            bank = training.train_from_samples(ss, GEOM, cfg)
            path = tmp_path / f"bank{run}.hrmb"
            save_model(path, bank)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
