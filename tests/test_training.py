import statistics
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from hrm import pls, training
from hrm.errors import InvalidDataset, InvalidInput
from hrm.features import (
    CROP_MARGIN, N_CHANNELS, PatchGeometry, compute_channels, context_vectors,
)
from hrm.image_io import LUMA
from hrm.model_io import load_model, save_model
from hrm.synth import random_scenes, synth_scene

PS = 5
GEOM = PatchGeometry(PS, ((PS, 0), (0, PS)))


def scene_entry(seed=0, box=(20, 16, 44, 40), canvas=(64, 64)):
    """One synthetic image with a single annotated object box."""
    cx = (box[0] + box[2]) / 2.0
    cy = (box[1] + box[3]) / 2.0
    scale = (box[2] - box[0]) / 40.0
    img, boxes = synth_scene([(cx, cy, scale)], canvas, noise=0.01, seed=seed)
    return img, list(boxes)


def reference_samples(entries, n_pos, n_neg, geom, seed=0, scale_normalize=False):
    """The per-sample sampler: canvases, one (canvas_id, (x, y), label, vote
    or None) per drawn patch, from the same seeded draws, and the median
    box width and height.  A rescaled box's canvas is the whole zoomed
    image, added only when a patch fits inside the box."""
    ps = geom.patch_size
    rng = np.random.default_rng(seed)
    boxes = [box for _, bs in entries for box in bs]
    median = (statistics.median(x1 - x0 for x0, _, x1, _ in boxes),
              statistics.median(y1 - y0 for _, y0, _, y1 in boxes))
    side = (median[0] + median[1]) / 2.0
    canvases = [np.asarray(img, dtype=np.float64) for img, _ in entries]
    pos_pool = []  # (canvas_id, xs, ys, box_center)
    neg_pool = []  # (canvas_id, y, x) arrays
    for idx, (_, boxes) in enumerate(entries):
        img = canvases[idx]
        ok = training._negative_candidates(boxes, img.shape, ps)
        if ok.size:
            ys, xs = np.nonzero(ok)
            if len(ys):
                neg_pool.append((idx, ys, xs))
        for box in boxes:
            x0, y0, x1, y1 = box
            factor = 1.0
            if scale_normalize:
                factor = side / (((x1 - x0) + (y1 - y0)) / 2.0)
            if abs(factor - 1.0) > 1e-3:
                canvas = ndimage.zoom(img, factor, order=1, mode="nearest", grid_mode=True)
                canvas_id = len(canvases)
                x0, y0, x1, y1 = (int(round(v * factor)) for v in box)
            else:
                canvas, canvas_id = img, idx
            h, w = canvas.shape
            xs = np.arange(max(0, x0), min(w - ps, x1 - ps) + 1)
            ys = np.arange(max(0, y0), min(h - ps, y1 - ps) + 1)
            if len(xs) and len(ys):
                if canvas_id == len(canvases):
                    canvases.append(canvas)
                pos_pool.append((canvas_id, xs, ys, ((x0 + x1) / 2.0, (y0 + y1) / 2.0)))

    samples = []
    sizes = [len(xs) * len(ys) for _, xs, ys, _ in pos_pool]
    bounds = np.cumsum([0] + sizes)
    for flat in np.sort(rng.choice(sum(sizes), size=n_pos, replace=False)):
        k = np.searchsorted(bounds, flat, side="right") - 1
        cid, xs, ys, (cx, cy) = pos_pool[k]
        local = flat - bounds[k]
        x = int(xs[local % len(xs)])
        y = int(ys[local // len(xs)])
        vote = np.array([cx - (x + ps / 2.0), cy - (y + ps / 2.0)])
        samples.append((cid, (x, y), +1, vote))
    sizes = [len(ys) for _, ys, _ in neg_pool]
    bounds = np.cumsum([0] + sizes)
    for flat in np.sort(rng.choice(sum(sizes), size=n_neg, replace=False)):
        k = np.searchsorted(bounds, flat, side="right") - 1
        cid, ys, xs = neg_pool[k]
        local = flat - bounds[k]
        samples.append((cid, (int(xs[local]), int(ys[local])), -1, None))
    return canvases, samples, median


def window_origin(canvas, window):
    """The one (x, y) at which ``window`` is a window of ``canvas``."""
    h, w = window.shape
    ys, xs = np.nonzero(canvas[: len(canvas) - h + 1, : canvas.shape[1] - w + 1]
                        == window[0, 0])
    found = [(x, y) for x, y in zip(xs, ys)
             if np.array_equal(canvas[y : y + h, x : x + w], window)]
    assert len(found) == 1
    return found[0]


def context_rows(ss, geom):
    """Rows (n, m+1, d) from the per-patch oracle, in the set's order."""
    vols = [compute_channels(c) for c in ss.canvases]
    return np.array(
        [context_vectors(vols[c], xy, geom).vectors
         for c, xy in zip(ss.canvas_ids, ss.topleft)]
    )


def oracle_bank(ss, geom, cfg):
    """The bank fitted on every X_j built from the per-patch oracle, through
    training's per-context fit."""
    rows = context_rows(ss, geom)
    hrms, lrms = zip(*(training.fit_context(rows[:, j].copy(), ss.votes, cfg, j)
                       for j in range(geom.num_context)))
    return training.ModelBank.from_fits(hrms, lrms, geom)


def head_votes(bank, X):
    """The raw-patch context's two voting outputs for the rows of X."""
    return X @ bank.coefficients[:, 0, :2] + bank.intercepts[0, :2]


def replaced(ss, **arrays):
    """ss with some of its arrays replaced."""
    fields = dict(canvas_ids=ss.canvas_ids, topleft=ss.topleft, votes=ss.votes,
                  reference_box=ss.reference_box)
    return training.SampleSet(ss.canvases, **{**fields, **arrays})


class TestSamplePatches:
    def test_counts_and_labels(self):
        entries = [scene_entry(0), scene_entry(1)]
        ss = training.sample_patches(entries, 40, 60, GEOM, seed=7)
        assert ss.canvas_ids.shape == (100,)
        assert ss.topleft.shape == (100, 2)
        assert ss.votes.shape == (40, 2)

    # scene sets by median box side, each with boxes above, at and below
    # it; None samples a set of 24-40 px boxes without scale normalization
    @pytest.mark.parametrize("median", [None, 20.0, 40.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_per_sample_sampler(self, seed, median):
        scales = {None: ((0.6, 1.0), (0.8,), (1.0, 0.75)),
                  20.0: ((0.5, 0.75), (0.5,), (0.4, 0.6)),
                  40.0: ((0.6, 1.0), (1.2,), (1.0, 0.75))}[median]
        centers = (((24, 24), (70, 64)), ((48, 40),), ((30, 70), (72, 24)))
        entries = [synth_scene([c + (s,) for c, s in zip(cs, sc)], (96, 96), noise=0.01,
                               seed=seed + i)
                   for i, (cs, sc) in enumerate(zip(centers, scales))]
        normalize = median is not None
        ss = training.sample_patches(entries, 60, 90, GEOM, seed, normalize)
        canvases, samples, box = reference_samples(entries, 60, 90, GEOM, seed, normalize)
        assert ss.reference_box == box
        if normalize:
            assert box == (median, median)
            assert len(entries) < len(canvases) < len(entries) + 5  # not every box
        assert len(ss.canvases) == len(canvases)
        # a rescaled canvas is the reference's zoomed image at one origin,
        # and each of its top-lefts is the reference's shifted by it
        shift = np.zeros((len(canvases), 2), dtype=np.intp)
        for c, (a, b) in enumerate(zip(ss.canvases, canvases)):
            if c < len(entries):
                assert np.array_equal(a, b)
            else:
                shift[c] = window_origin(b, a)
        assert [s[2] for s in samples] == [1] * 60 + [-1] * 90
        assert np.array_equal(ss.canvas_ids, [s[0] for s in samples])
        assert np.array_equal(ss.topleft + shift[ss.canvas_ids], [s[1] for s in samples])
        assert np.array_equal(ss.votes, [s[3] for s in samples[:60]])

    def test_deterministic_under_seed(self):
        entries = [scene_entry(2)]
        a = training.sample_patches(entries, 20, 20, GEOM, seed=3)
        b = training.sample_patches(entries, 20, 20, GEOM, seed=3)
        for name in ("canvas_ids", "topleft", "votes"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_positives_inside_negatives_outside(self):
        box = (20, 16, 44, 40)
        entries = [scene_entry(3, box)]
        ss = training.sample_patches(entries, 30, 30, GEOM, seed=1)
        x0, y0, x1, y1 = box
        for i, (px, py) in enumerate(ss.topleft):
            inside = x0 <= px and y0 <= py and px + PS <= x1 and py + PS <= y1
            overlaps = px < x1 and px + PS > x0 and py < y1 and py + PS > y0
            assert inside if i < 30 else not overlaps

    def test_voting_vector_oracle(self):
        box = (20, 16, 44, 40)
        cx, cy = 32.0, 28.0
        entries = [scene_entry(4, box)]
        ss = training.sample_patches(entries, 25, 5, GEOM, seed=2)
        expected = np.array([cx, cy]) - (ss.topleft[:25] + PS / 2.0)
        assert np.allclose(ss.votes, expected)

    def test_centered_patch_votes_zero(self):
        # a box exactly one patch wide admits a single positive placement
        # whose center coincides with the box center
        img = np.random.default_rng(5).random((32, 32))
        entries = [(img, [(10, 12, 10 + PS, 12 + PS)])]
        ss = training.sample_patches(entries, 1, 1, GEOM, seed=0)
        assert tuple(ss.topleft[0]) == (10, 12)
        assert np.array_equal(ss.votes, np.zeros((1, 2)))

    def test_voting_bounded_by_box_diagonal(self):
        box = (20, 16, 44, 40)
        entries = [scene_entry(6, box)]
        ss = training.sample_patches(entries, 50, 5, GEOM, seed=4)
        diag = np.hypot(box[2] - box[0], box[3] - box[1])
        assert np.all(np.linalg.norm(ss.votes, axis=1) <= diag)

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
        # a 2x-median box triggers a rescaled canvas for its positives;
        # the median-sized boxes keep their own canvases
        entries = [scene_entry(9, (12, 12, 52, 52)), scene_entry(10, (22, 22, 42, 42)),
                   scene_entry(11, (22, 22, 42, 42))]
        ss = training.sample_patches(entries, 30, 10, GEOM, seed=0, scale_normalize=True)
        assert ss.reference_box == (20.0, 20.0)
        assert len(ss.canvases) == 4
        # the 40-px box becomes (6, 6, 26, 26) on a 32 x 32 zoom: its top-lefts
        # 6..21, neighbors to +5 and patches to +4, widened by CROP_MARGIN
        # (5), clipped to the zoom, is the window [1, 32) on each axis
        assert ss.canvases[3].shape == (31, 31)
        assert set(ss.canvas_ids[:30]) == {1, 2, 3}

    def test_small_box_canvas_is_its_window(self):
        # a 4 x 4 box beside a 40-px box is zoomed 10x, to 2240 x 2240 whole,
        # and a 50-px box in a corner 0.8x: each canvas is only the window
        # its box's samples read, and the bank is the one trained on the
        # whole zooms at the same samples.  Every positive is drawn, so the
        # windows' outermost pixels are read.
        geom = PatchGeometry(PS, ((PS, 0), (-PS, 0), (0, PS), (0, -PS)))
        img, boxes = synth_scene([(25, 25, 1.25), (130, 130, 1.0)], (224, 224),
                                 noise=0.01, seed=31)
        boxes = list(boxes) + [(220, 220, 224, 224)]  # at the far corner, clipped
        n_pos = 3 * (40 - PS + 1) ** 2  # every box is 40 px on its canvas
        ss = training.sample_patches([(img, boxes)], n_pos, 200, geom, seed=2,
                                     scale_normalize=True)
        assert ss.reference_box == (40.0, 40.0)
        assert len(ss.canvases) == 3
        span = 2 * PS  # offsets from -PS to +PS, the raw window's 0 between
        for canvas in ss.canvases[1:]:  # each box rescaled to 40 px
            assert canvas.size <= (40 + span + PS + 2 * CROP_MARGIN) ** 2

        whole = [ndimage.zoom(img, 40.0 / (((x1 - x0) + (y1 - y0)) / 2.0), order=1,
                              mode="nearest", grid_mode=True)
                 for x0, y0, x1, y1 in (boxes[0], boxes[-1])]
        shift = np.array([(0, 0)] + [window_origin(b, a)
                                     for a, b in zip(ss.canvases[1:], whole)])
        reference = training.SampleSet((img, *whole), ss.canvas_ids,
                                       ss.topleft + shift[ss.canvas_ids], ss.votes,
                                       ss.reference_box)
        cfg = pls.LatentConfig(components=3)
        a, b = (training.train_from_samples(s, geom, cfg) for s in (ss, reference))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercepts, b.intercepts)

    @pytest.mark.parametrize("edge", ["top", "bottom", "left", "right"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), height=st.integers(1, 40),
           width=st.integers(1, 40),
           factor=st.one_of(st.floats(0.05, 0.999), st.floats(1.001, 12.0)),
           data=st.data())
    def test_zoom_window_is_the_zoom_at_it(self, edge, seed, height, width, factor, data):
        # the window that touches this edge of the zoom, other sides drawn
        img = np.random.default_rng(seed).random((height, width))
        zoomed = ndimage.zoom(img, factor, order=1, mode="nearest", grid_mode=True)
        assert zoomed.shape == tuple(int(round(n * factor)) for n in img.shape)
        assume(zoomed.size)
        window = []
        for axis, n in enumerate(zoomed.shape):
            start = data.draw(st.integers(0, n - 1))
            stop = data.draw(st.integers(start + 1, n))
            if edge in (("top", "bottom"), ("left", "right"))[axis]:
                start, stop = (0, stop) if edge in ("top", "left") else (start, n)
            window.append(slice(start, stop))
        window = tuple(window)
        assert np.array_equal(training._zoom_window(img, zoomed.shape, window),
                              zoomed[window])

    @pytest.mark.parametrize("boxes, median", [
        (((0, 0, 10, 20), (0, 0, 30, 40), (0, 0, 20, 60)), (20.0, 40.0)),
        (((0, 0, 10, 20), (0, 0, 30, 40), (0, 0, 20, 60), (0, 0, 50, 30)), (25.0, 35.0)),
    ], ids=["odd-count", "even-count"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_reference_box_is_median_box(self, boxes, median, normalize):
        # width and height each take their own median, over every image's boxes
        img = np.random.default_rng(10).random((96, 96))
        entries = [(img, boxes[:2]), (img, boxes[2:])]
        ss = training.sample_patches(entries, 5, 5, GEOM, seed=0, scale_normalize=normalize)
        assert ss.reference_box == median
        assert all(type(v) is float for v in ss.reference_box)

    def test_generator_is_read_once(self):
        # a generator of scenes samples exactly as the list of the same scenes
        spec = (600, 4, (128, 128), 0.01, (0.75, 1.0), 1, 2)
        geom = PatchGeometry(4)
        ss = training.sample_patches(random_scenes(*spec), 10, 10, geom)
        expected = training.sample_patches(list(random_scenes(*spec)), 10, 10, geom)
        assert np.array_equal(ss.topleft, expected.topleft)
        assert np.array_equal(ss.votes, expected.votes)
        assert ss.reference_box == expected.reference_box

    def test_no_boxes_refused(self):
        # no positives, and no median of an empty box list (a RuntimeWarning)
        img = np.random.default_rng(11).random((32, 32))
        with pytest.raises(InvalidDataset, match="no annotated boxes"):
            training.sample_patches([(img, []), (img, [])], 1, 1, GEOM, scale_normalize=True)


class TestColourImages:
    """Training takes an (H, W, 3) image as its grey, as detection does."""

    @staticmethod
    def rgb_entries():
        entries = []
        for seed, box in ((21, (20, 16, 44, 40)), (22, (12, 12, 52, 52))):
            grey, boxes = scene_entry(seed, box)
            tint = np.random.default_rng(seed).normal(0.0, 0.05, grey.shape + (3,))
            entries.append((np.clip(grey[..., None] + tint, 0.0, 1.0), boxes))
        return entries

    def test_samples_and_bank_equal_the_greys(self):
        rgb = self.rgb_entries()
        grey = [(img @ LUMA, boxes) for img, boxes in rgb]
        a, b = (training.sample_patches(e, 20, 30, GEOM, seed=4, scale_normalize=True)
                for e in (rgb, grey))
        assert len(a.canvases) == len(b.canvases) == 4  # two rescaled canvases
        for x, y in zip(a.canvases, b.canvases):
            assert np.array_equal(x, y)
        for name in ("canvas_ids", "topleft", "votes"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        cfg = pls.LatentConfig(components=3)
        bank_a, bank_b = (training.train_from_samples(ss, GEOM, cfg) for ss in (a, b))
        assert np.array_equal(bank_a.coefficients, bank_b.coefficients)
        assert np.array_equal(bank_a.intercepts, bank_b.intercepts)

    @pytest.mark.parametrize("shape", [(64, 64, 4), (64, 64, 1), (64,), (2, 64, 64, 3)])
    def test_other_shapes_refused(self, shape):
        with pytest.raises(InvalidInput):
            training.sample_patches([(np.zeros(shape), [(20, 16, 44, 40)])], 5, 5, GEOM)


class TestTrainBank:
    def test_bank_structure(self):
        entries = [scene_entry(13)]
        ss = training.sample_patches(entries, 10, 10, GEOM, seed=0)
        cfg = pls.LatentConfig(components=4)
        bank = training.train_from_samples(ss, GEOM, cfg)
        assert bank.geometry.num_context == GEOM.num_context == 3
        assert bank.coefficients.shape == (GEOM.vector_length, 3, 3)
        assert bank.intercepts.shape == (3, 3)

    @pytest.mark.parametrize("offsets, entries, scale_normalize", [
        (((PS, 0), (0, PS)), [scene_entry(14)], False),
        ((), [scene_entry(14)], False),
        # 24- and 40-px boxes on rescaled canvases, the 32-px median box on
        # its own; +-PS neighbors clip at canvas edges
        (((PS, 0), (-PS, 0), (0, PS), (0, -PS)),
         [synth_scene([(16, 32, 0.6), (60, 40, 1.0)], (96, 64), noise=0.01, seed=14),
          scene_entry(19, (8, 30, 40, 62))], True),
        # a shift past the 64-px canvas clips for every sample
        (((70, 0), (0, PS)), [scene_entry(14)], False),
        # shifts under PS make a sample's windows overlap
        (((2, 0), (0, -1), (-3, 3)), [scene_entry(14), scene_entry(17)], False),
    ], ids=["m2", "m0", "m4-two-scenes-rescaled", "m2-offset-past-canvas",
            "m3-overlapping-windows"])
    def test_matches_fits_on_context_vectors(self, offsets, entries, scale_normalize):
        # every X_j built from the per-patch oracle, fitted directly
        geom = PatchGeometry(PS, offsets)
        ss = training.sample_patches(
            entries, 8, 8, geom, seed=1, scale_normalize=scale_normalize
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
        assert live["calls"] == len(np.unique(ss.canvas_ids)) > 2
        assert 1 <= live["peak"] <= workers
        assert live["now"] == 0

    def test_matches_fits_at_every_start(self):
        # every patch start of a small canvas, so each neighbor bound is hit
        geom = PatchGeometry(PS, ((PS, 0), (-PS, 0), (0, PS), (0, -PS)))
        img, _ = scene_entry(20, (2, 2, 14, 14), canvas=(16, 17))
        starts = [(x, y) for y in range(17 - PS + 1) for x in range(16 - PS + 1)]
        # the odd starts are positives, each voting (i, -i) / 7
        i = np.r_[1 : len(starts) : 2, 0 : len(starts) : 2]
        ss = training.SampleSet(
            (img,), np.zeros(len(i), dtype=np.intp), np.array(starts)[i],
            np.stack([i, -i], axis=1)[: len(starts) // 2] / 7.0, (12.0, 12.0),
        )
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
        pred = head_votes(bank, context_rows(ss, geom)[:8, 0, :])
        assert np.max(np.abs(pred - ss.votes)) <= 1e-6

    def test_pls_and_bpls_agree_on_full_rank_fit(self):
        geom = PatchGeometry(PS, ())
        entries = [scene_entry(16)]
        ss = training.sample_patches(entries, 8, 8, geom, seed=3)
        cfg = pls.LatentConfig(components=7)
        bank = training.train_from_samples(ss, geom, cfg)
        X = context_rows(ss, geom)[:8, 0, :]
        reference = pls.pls_fit(X, ss.votes, cfg.components)
        d = np.abs(pls.predict(reference, X) - head_votes(bank, X))
        assert np.max(d) <= 1e-4

    @pytest.mark.parametrize("label", [+1, -1])
    def test_one_class_refused(self, label):
        ss = training.sample_patches([scene_entry(26)], 8, 8, GEOM, seed=3)
        one = slice(None, 8) if label > 0 else slice(8, None)
        votes = ss.votes if label > 0 else ss.votes[:0]
        with pytest.raises(InvalidDataset, match="both labels"):
            training.train_from_samples(
                replaced(ss, canvas_ids=ss.canvas_ids[one], topleft=ss.topleft[one],
                         votes=votes),
                GEOM, pls.LatentConfig(components=3),
            )

    @pytest.mark.parametrize("row", [0, 12])
    @pytest.mark.parametrize("corner", [(-1, 3), (3, -1), (64 - PS + 1, 3), (3, 64 - PS + 1)])
    def test_window_off_canvas_refused(self, row, corner):
        # a positive (row 0) or negative (row 12) that would train on zeros
        ss = training.sample_patches([scene_entry(29)], 8, 8, GEOM, seed=1)
        topleft = ss.topleft.copy()
        topleft[row] = corner
        with pytest.raises(InvalidDataset, match="window must lie on its canvas"):
            training.train_from_samples(
                replaced(ss, topleft=topleft), GEOM, pls.LatentConfig(components=3)
            )

    @pytest.mark.parametrize("canvas_id", [-1, 1])
    def test_canvas_id_out_of_range_refused(self, canvas_id):
        # -1 would read the last canvas, 1 is past the end of one canvas
        ss = training.sample_patches([scene_entry(30)], 8, 8, GEOM, seed=2)
        ids = ss.canvas_ids.copy()
        ids[3] = canvas_id
        with pytest.raises(InvalidDataset, match="canvas ids"):
            training.train_from_samples(
                replaced(ss, canvas_ids=ids), GEOM, pls.LatentConfig(components=3)
            )

    @pytest.mark.parametrize("box", [(np.nan, 1.0), (1.0, -1.0), (np.inf, 2.0), (2.0,),
                                     ("40", "40"), (True, True)])
    def test_unsaveable_reference_box_refused(self, box):
        # a box that load_model would refuse never reaches a model file
        ss = training.sample_patches([scene_entry(31)], 8, 8, GEOM, seed=3)
        with pytest.raises(InvalidDataset, match="reference box"):
            training.train_from_samples(
                replaced(ss, reference_box=box), GEOM, pls.LatentConfig(components=3)
            )

    @pytest.mark.parametrize("box", [(0, 0), (24.0, 35.5)])
    def test_reference_box_reaches_the_model_file(self, tmp_path, box):
        ss = training.sample_patches([scene_entry(31)], 8, 8, GEOM, seed=3)
        bank = training.train_from_samples(
            replaced(ss, reference_box=box), GEOM, pls.LatentConfig(components=3)
        )
        assert bank.reference_box == box
        save_model(tmp_path / "bank.hrmb", bank)
        assert load_model(tmp_path / "bank.hrmb").reference_box == box

    def test_positive_without_vote_refused(self):
        ss = training.sample_patches([scene_entry(31)], 8, 8, GEOM, seed=3)
        votes = ss.votes.copy()
        votes[5] = np.nan
        with pytest.raises(InvalidDataset, match="finite vote"):
            training.train_from_samples(
                replaced(ss, votes=votes), GEOM, pls.LatentConfig(components=3)
            )

    @pytest.mark.parametrize("arrays", [
        dict(votes=np.zeros((8, 3))),
        dict(votes=np.zeros(8)),
        dict(topleft=np.zeros((16, 3), dtype=np.intp)),
        dict(topleft=np.zeros((16, 2))),
        dict(canvas_ids=np.zeros((16, 1), dtype=np.intp)),
        dict(canvas_ids=np.zeros(15, dtype=np.intp)),
    ], ids=["vote-width", "vote-rank", "topleft-width", "float-topleft",
            "id-rank", "id-count"])
    def test_malformed_arrays_refused(self, arrays):
        ss = training.sample_patches([scene_entry(32)], 8, 8, GEOM, seed=4)
        with pytest.raises(InvalidDataset, match="sample set needs"):
            training.train_from_samples(
                replaced(ss, **arrays), GEOM, pls.LatentConfig(components=3)
            )

    def test_one_context_matrix_resident(self):
        # tracemalloc sees NumPy's buffers.  At ps 4 and n = 8000 an (n, d)
        # matrix is 27 MB and a d x d moment 1.4 MB, so holding the raw rows
        # beside X_j (2 n d 8 bytes) breaks the bound; one X_j at a time,
        # with the fits' moments and blocks, stays near 1.3 n d 8.
        geom = PatchGeometry(4, ((4, 0), (0, 4)))
        entries = [scene_entry(s) for s in range(16)]
        ss = training.sample_patches(entries, 4000, 4000, geom, seed=0)
        n, d = len(ss.canvas_ids), geom.vector_length
        pixels = sum(c.size for c in ss.canvases) * N_CHANNELS * 8  # >= compacted
        tracemalloc.start()
        try:
            training.train_from_samples(ss, geom, pls.LatentConfig(components=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pixels + 1.5 * n * d * 8

    def test_single_negative_trains(self):
        ss = training.sample_patches([scene_entry(27)], 8, 1, GEOM, seed=4)
        cfg = pls.LatentConfig(components=3)
        bank = training.train_from_samples(ss, GEOM, cfg)
        assert np.array_equal(bank.coefficients, oracle_bank(ss, GEOM, cfg).coefficients)

    def test_channels_cover_only_the_sampled_region(self, monkeypatch):
        # a rescaled canvas's samples read around its one box, so its
        # volume is a crop of it
        shapes = []

        def recorded(img):
            shapes.append(img.shape)
            return compute_channels(img)

        monkeypatch.setattr(training, "compute_channels", recorded)
        # a 40- and a 20-px box, each rescaled to the 30-px median
        entries = [synth_scene([(28, 28, 1.0), (72, 72, 0.5)], (96, 96), noise=0.01,
                               seed=28)]
        ss = training.sample_patches(entries, 8, 8, GEOM, seed=1, scale_normalize=True)
        training.train_from_samples(ss, GEOM, pls.LatentConfig(components=3))
        assert len(ss.canvases) == len(shapes) == 3
        assert all(shapes[k] != ss.canvases[k].shape for k in (1, 2))
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
