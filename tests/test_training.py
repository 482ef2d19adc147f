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
    """The bank fitted directly on every X_j built from the per-patch oracle."""
    rows, labels, votes = context_sets(ss, geom)
    pos = labels > 0
    hrms = [pls.bpls_fit(rows[pos, j, :], votes, cfg.components, cfg.ridge)
            for j in range(geom.num_context)]
    lrms = [pls.bpls_fit(rows[:, j, :], labels[:, None], cfg.components, cfg.ridge)
            for j in range(geom.num_context)]
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
        assert bank.num_context == GEOM.num_context == 3
        assert bank.coefficients.shape == (GEOM.vector_length, 3, 3)
        assert bank.intercepts.shape == (3, 3)

    @pytest.mark.parametrize("offsets, entries, reference_size", [
        (((PS, 0), (0, PS)), [scene_entry(14)], None),
        ((), [scene_entry(14)], None),
        # positives on rescaled canvases; +-PS neighbors clip at canvas edges
        (((PS, 0), (-PS, 0), (0, PS), (0, -PS)),
         [scene_entry(14), scene_entry(19, (8, 30, 40, 62))], 20.0),
    ], ids=["m2", "m0", "m4-two-scenes-rescaled"])
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
