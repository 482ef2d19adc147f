import importlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrm import pls
from hrm.detect import VotingConfig, compute_patch_votes, detect
from hrm.errors import InvalidInput
from hrm.features import PatchGeometry, compute_channels, context_vectors
from hrm.training import ModelBank
from hrm.voting import ScaleSet, cast_votes

PS = 5
GEOM = PatchGeometry(PS, ((PS, 0), (0, -PS)))
DIM = GEOM.vector_length


def fitted_bank(seed=0):
    """A bank with genuine (random-data) fits at the real vector length."""
    rng = np.random.default_rng(seed)
    hrms, lrms = [], []
    for _ in range(GEOM.num_context):
        X = rng.standard_normal((12, DIM))
        hrms.append(pls.bpls_fit(X, rng.standard_normal((12, 2)), 2, 1e-10))
        lrms.append(pls.bpls_fit(X, rng.standard_normal((12, 1)), 2, 1e-10))
    return ModelBank.from_fits(hrms, lrms, GEOM, reference_box=(20.0, 20.0))


def gated_off_bank():
    """A bank whose label models reject every patch (weight always 0)."""

    def const(out):
        out = np.atleast_1d(np.asarray(out, dtype=np.float64))
        return pls.RegressionModel(np.zeros((DIM, out.size)), out)

    hrms = tuple(const([0.0, 0.0]) for _ in range(GEOM.num_context))
    lrms = tuple(const([-1.0]) for _ in range(GEOM.num_context))
    return ModelBank.from_fits(hrms, lrms, GEOM, reference_box=(20.0, 20.0))


def random_linear_bank(geom, rng):
    """A bank of random linear heads with outputs of order one."""
    dim = geom.vector_length

    def model(q):
        coef, mean_x = rng.standard_normal((dim, q)) / dim, rng.random(dim)
        return pls.RegressionModel(coef, rng.standard_normal(q) - mean_x @ coef)

    hrms = tuple(model(2) for _ in range(geom.num_context))
    lrms = tuple(model(1) for _ in range(geom.num_context))
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=(20.0, 20.0))


def assert_matches_oracle(img, geom, stride, rng):
    """compute_patch_votes equals the per-patch context oracle on every start."""
    ps = geom.patch_size
    bank = random_linear_bank(geom, rng)
    out = compute_patch_votes(img, bank, VotingConfig(stride=stride))

    vol = compute_channels(img)
    height, width = img.shape
    expected = [
        cast_votes(context_vectors(vol, (x, y), geom), bank,
                   (x + ps / 2, y + ps / 2))
        for y in range(0, height - ps + 1, stride)
        for x in range(0, width - ps + 1, stride)
    ]
    assert len(out) == len(expected)
    for i, b in enumerate(expected):
        a = out[i]
        assert np.array_equal(a.location, b.location)
        assert np.abs(a.votes - b.votes).max() <= 1e-12
        assert np.abs(a.labels - b.labels).max() <= 1e-12
        assert a.weight == b.weight


CROWD_OFFSETS = ((6, 0), (-6, 0), (0, 6), (0, -6))
WIDE_OFFSETS = ((8, 0), (-8, 0), (0, 8), (0, -8))


class TestVotingConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(stride=0), dict(stride=-1), dict(bin_size=0), dict(smoothing=-0.5),
        dict(smoothing=float("nan")), dict(maxima_radius=0),
        dict(min_score_fraction=-0.1), dict(min_score_fraction=1.5),
        dict(min_score_fraction=float("nan")), dict(smoothing=float("inf")),
        dict(stride=2**63), dict(smoothing=1e300), dict(smoothing=1e6 * (1 + 1e-15)),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidInput):
            VotingConfig(**kwargs)

    def test_accepts_edges(self):
        VotingConfig(stride=1, bin_size=1, smoothing=0.0, maxima_radius=1,
                     min_score_fraction=0.0)
        VotingConfig(min_score_fraction=1.0)
        VotingConfig(stride=2**63 - 1, smoothing=1e6)


class TestComputePatchVotes:
    def test_matches_context_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.random((16, 18))
        bank = fitted_bank()
        cfg = VotingConfig(stride=3)
        out = compute_patch_votes(img, bank, cfg)

        vol = compute_channels(img)
        expected = []
        for y in range(0, 16 - PS + 1, 3):
            for x in range(0, 18 - PS + 1, 3):
                ctx = context_vectors(vol, (x, y), GEOM)
                expected.append(cast_votes(ctx, bank, (x + PS / 2, y + PS / 2)))
        assert len(out) == len(expected)
        for i, b in enumerate(expected):
            a = out[i]
            assert np.array_equal(a.location, b.location)
            assert np.allclose(a.votes, b.votes, atol=1e-12)
            assert np.allclose(a.labels, b.labels, atol=1e-12)
            assert a.weight == b.weight

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        height=st.integers(5, 22),
        width=st.integers(5, 22),
        ps=st.integers(1, 8),
        stride=st.integers(1, 5),
        offsets=st.lists(
            st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
                lambda o: o != (0, 0)
            ),
            max_size=4,
            unique=True,
        ),
    )
    # a stride coset whose every neighbor is clipped
    @example(seed=0, height=5, width=5, ps=1, stride=2, offsets=[(5, 0)])
    def test_matches_oracle_over_geometries(
        self, seed, height, width, ps, stride, offsets
    ):
        """Odd, negative, clipped and out-of-image offsets; empty grids too."""
        rng = np.random.default_rng(seed)
        img = rng.random((height, width))
        assert_matches_oracle(img, PatchGeometry(ps, tuple(offsets)), stride, rng)

    @pytest.mark.parametrize("geom, stride", [
        (PatchGeometry(6), 1),  # every offset in the zero coset
        (PatchGeometry(6), 2),  # c6: three nonzero cosets plus the zero one
        (PatchGeometry(6, CROWD_OFFSETS), 4),  # crowd: two nonzero cosets
    ])
    @pytest.mark.parametrize("block_bytes", [1, None, 1 << 30],
                             ids=["row-blocks", "default-blocks", "one-block"])
    def test_matches_oracle_per_coset(self, monkeypatch, geom, stride, block_bytes):
        if block_bytes is not None:
            detect_module = importlib.import_module("hrm.detect")
            monkeypatch.setattr(detect_module, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(8)
        assert_matches_oracle(rng.random((31, 34)), geom, stride, rng)

    @pytest.mark.parametrize("geom, stride, bound", [
        (PatchGeometry(6), 2, 903_552),  # 2,446,011 over all needed starts
        (PatchGeometry(8, WIDE_OFFSETS), 4, 45_375),  # all offsets on the grid
    ])
    def test_vote_gemm_work(self, monkeypatch, geom, stride, bound):
        """Response entries (starts x columns) the vote GEMMs compute, 224² image."""
        module = importlib.import_module("hrm.detect")
        responses = module._responses
        work = []

        def counted(vol, ps, rows, cols, coef):
            work.append(len(rows) * len(cols) * coef[0].size)
            return responses(vol, ps, rows, cols, coef)

        monkeypatch.setattr(module, "_responses", counted)
        rng = np.random.default_rng(9)
        bank = random_linear_bank(geom, rng)
        compute_patch_votes(rng.random((224, 224)), bank, VotingConfig(stride=stride))
        assert sum(work) <= bound

    def test_image_smaller_than_patch(self):
        geom = PatchGeometry(12, ((12, 0),))
        bank = random_linear_bank(geom, np.random.default_rng(0))
        img = np.random.default_rng(1).random((10, 10))
        assert len(compute_patch_votes(img, bank, VotingConfig())) == 0

    def test_stride_controls_grid(self):
        img = np.random.default_rng(2).random((15, 15))
        bank = fitted_bank()
        n1 = len(compute_patch_votes(img, bank, VotingConfig(stride=1)))
        n2 = len(compute_patch_votes(img, bank, VotingConfig(stride=2)))
        assert n1 == 11 * 11
        assert n2 == 6 * 6


class TestDetect:
    def test_submodule_is_not_shadowed(self):
        import hrm.detect as m

        assert isinstance(m, types.ModuleType)
        assert callable(m.detect) and callable(m._responses)

    def test_fully_gated_image_yields_nothing(self):
        img = np.random.default_rng(3).random((24, 24))
        result = detect(img, gated_off_bank(), ScaleSet((1.0,)))
        assert result.detections == []
        assert result.total_mass == 0.0
        assert float(result.cuboid.levels.max()) == 0.0

    def test_image_under_one_bin_yields_nothing(self):
        # a 5x5 image has no 6x6 patch and one 8-px bin, whose cell has no
        # neighbor on the grid: no votes must not make a 0-score detection
        bank = random_linear_bank(PatchGeometry(6, ((6, 0),)), np.random.default_rng(0))
        img = np.random.default_rng(3).random((5, 5))
        result = detect(img, bank, ScaleSet((1.0, 1.25)), VotingConfig(bin_size=8))
        assert result.cuboid.levels.shape == (2, 1, 1)
        assert result.hypotheses_prefusion == [] and result.detections == []

    def test_detections_sorted_and_boxed(self):
        img = np.random.default_rng(14).random((64, 64))  # two detections
        result = detect(
            img, fitted_bank(), ScaleSet((1.0, 1.25)), VotingConfig(stride=2, bin_size=2)
        )
        scores = [d.score for d in result.detections]
        assert len(scores) > 1 and scores == sorted(scores, reverse=True)
        for d in result.detections:
            w = 20.0 * d.scale
            assert d.box == (d.center[0] - w / 2, d.center[1] - w / 2,
                             d.center[0] + w / 2, d.center[1] + w / 2)

    def test_fusion_never_adds_detections(self):
        img = np.random.default_rng(14).random((64, 64))  # fusion drops one of three
        result = detect(
            img, fitted_bank(), ScaleSet((1.0, 1.25)), VotingConfig(stride=2, bin_size=2)
        )
        hypotheses = {(h.center, h.scale, h.score) for h in result.hypotheses_prefusion}
        kept = [(d.center, d.scale, d.score) for d in result.detections]
        assert len(kept) < len(result.hypotheses_prefusion)
        assert len(set(kept)) == len(kept) and set(kept) <= hypotheses

    def test_deterministic(self):
        img = np.random.default_rng(6).random((20, 20))
        bank = fitted_bank()
        a = detect(img, bank, ScaleSet((1.0,)), VotingConfig(stride=2))
        b = detect(img, bank, ScaleSet((1.0,)), VotingConfig(stride=2))
        assert a.detections == b.detections
        assert np.array_equal(a.cuboid.levels, b.cuboid.levels)
