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


def constant_bank(label):
    """A bank whose every label model outputs `label`: a gate always on (> 0) or off."""

    def const(out):
        out = np.atleast_1d(np.asarray(out, dtype=np.float64))
        return pls.RegressionModel(np.zeros((DIM, out.size)), out)

    hrms = tuple(const([0.0, 0.0]) for _ in range(GEOM.num_context))
    lrms = tuple(const([label]) for _ in range(GEOM.num_context))
    return ModelBank.from_fits(hrms, lrms, GEOM, reference_box=(20.0, 20.0))


def random_linear_bank(geom, rng, label_shift=0.0):
    """A bank of random linear heads with outputs of order one; `label_shift`
    is added to every label intercept."""
    dim = geom.vector_length

    def model(q, shift=0.0):
        coef, mean_x = rng.standard_normal((dim, q)) / dim, rng.random(dim)
        return pls.RegressionModel(coef, rng.standard_normal(q) - mean_x @ coef + shift)

    hrms = tuple(model(2) for _ in range(geom.num_context))
    lrms = tuple(model(1, label_shift) for _ in range(geom.num_context))
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=(20.0, 20.0))


def oracle_votes(img, bank, stride):
    """cast_votes on the context oracle at every grid start, in grid order."""
    ps = bank.geometry.patch_size
    vol = compute_channels(img)
    height, width = img.shape
    return [
        cast_votes(context_vectors(vol, (x, y), bank.geometry), bank,
                   (x + ps / 2, y + ps / 2))
        for y in range(0, height - ps + 1, stride)
        for x in range(0, width - ps + 1, stride)
    ]


def assert_rows_are_oracle(field, oracle):
    """The field's rows are exactly the oracle's nonzero-weight patches, in grid order."""
    expected = [pv for pv in oracle if pv.weight]
    assert len(field) == len(expected)
    for i, b in enumerate(expected):
        a = field[i]
        assert np.array_equal(a.location, b.location)
        assert np.abs(a.votes - b.votes).max() <= 1e-12
        assert np.abs(a.labels - b.labels).max() <= 1e-12
        assert a.weight == b.weight


def assert_matches_oracle(img, geom, stride, rng, gate):
    """compute_patch_votes equals the per-patch context oracle, with the label
    intercepts shifted so that the gate cuts the sorted peaks (the patches'
    largest labels) at fraction `gate`: 0 gates every patch on, 1 every one
    off.  The cut lies midway between two peaks or one unit outside them all,
    never on a peak: there the gate would hang on the summation order of the
    label, which the oracle and the filter bank need not share.

    Returns the number of gated-on patches and of grid starts.
    """
    seed = rng.integers(2**63)
    bank = random_linear_bank(geom, np.random.default_rng(seed))
    peaks = np.unique([pv.labels.max() for pv in oracle_votes(img, bank, stride)])
    cuts = np.concatenate([peaks[:1] - 1, (peaks[1:] + peaks[:-1]) / 2,
                           peaks[-1:] + 1]) if len(peaks) else np.zeros(1)
    shift = -cuts[round(gate * (len(cuts) - 1))]  # a patch is on iff peak > -shift
    bank = random_linear_bank(geom, np.random.default_rng(seed), shift)
    oracle = oracle_votes(img, bank, stride)
    field = compute_patch_votes(img, bank, VotingConfig(stride=stride))
    assert_rows_are_oracle(field, oracle)
    return len(field), len(oracle)


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
        out = compute_patch_votes(img, bank, VotingConfig(stride=3))
        assert_rows_are_oracle(out, oracle_votes(img, bank, 3))

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
        gate=st.floats(0.0, 1.0),
    )
    # a stride coset whose every neighbor is clipped
    @example(seed=0, height=5, width=5, ps=1, stride=2, offsets=[(5, 0)], gate=0.5)
    # a one-sided offset at stride 2: no start reads its coset's first two
    # columns, so none of them is computed
    @example(seed=0, height=20, width=20, ps=3, stride=2, offsets=[(5, 0)], gate=0.5)
    # ps not a multiple of the stride: 5 zero-coset columns in alignment
    # classes of 3 and 2
    @example(seed=2, height=9, width=11, ps=3, stride=2, offsets=[(1, 0), (-3, 2)],
             gate=0.5)
    # stride above ps: one alignment class
    @example(seed=3, height=14, width=17, ps=2, stride=3, offsets=[(4, -1), (-5, 3)],
             gate=0.5)
    # one coset's read rectangle is empty, the other's is not
    @example(seed=4, height=9, width=9, ps=2, stride=2, offsets=[(9, 1), (1, 0)],
             gate=0.5)
    # a one-row grid
    @example(seed=5, height=5, width=20, ps=5, stride=2,
             offsets=[(3, 0), (-2, 0), (0, 1)], gate=0.5)
    # one grid start, its label summed by window row: the cut stays off its peak
    @example(seed=0, height=5, width=5, ps=2, stride=4, offsets=[], gate=0.5)
    # every patch gated on, then every patch gated off
    @example(seed=1, height=20, width=22, ps=3, stride=2, offsets=[(3, 1), (-2, 4)],
             gate=0.0)
    @example(seed=1, height=20, width=22, ps=3, stride=2, offsets=[(3, 1), (-2, 4)],
             gate=1.0)
    def test_matches_oracle_over_geometries(
        self, seed, height, width, ps, stride, offsets, gate
    ):
        """Odd, negative, clipped and out-of-image offsets; empty grids too;
        from every patch gated on to none."""
        rng = np.random.default_rng(seed)
        img = rng.random((height, width))
        assert_matches_oracle(img, PatchGeometry(ps, tuple(offsets)), stride, rng, gate)

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
        on, starts = assert_matches_oracle(rng.random((31, 34)), geom, stride, rng, 0.5)
        assert 0 < on < starts  # pass 2 gathers a strict subset

    @pytest.mark.parametrize("geom, stride, bound", [
        (PatchGeometry(6), 2, 903_552),  # 2,446,011 over all needed starts
        (PatchGeometry(8, WIDE_OFFSETS), 4, 45_375),  # all offsets on the grid
        (PatchGeometry(3, ((5, 0),)), 2, 110_223),  # only the coset starts read
    ])
    def test_vote_gemm_work(self, monkeypatch, geom, stride, bound):
        """Response entries (starts x columns) both passes compute on a 224² image:
        pass 1 in :func:`_dense_responses` and pass 2 in :func:`_responses`.

        With every patch gated on that is the dense scheme's work, the bound;
        with none, only the label columns, a third of it."""
        module = importlib.import_module("hrm.detect")
        responses, dense = module._responses, module._dense_responses
        work = []

        def counted(vol, ps, rows, cols, coef):
            work.append(len(rows) * coef[0].size)
            return responses(vol, ps, rows, cols, coef)

        def counted_dense(vol, ps, rows, cols, coef):
            work.append(len(rows) * len(cols) * coef[0].size)
            return dense(vol, ps, rows, cols, coef)

        monkeypatch.setattr(module, "_responses", counted)
        monkeypatch.setattr(module, "_dense_responses", counted_dense)
        starts = len(range(0, 225 - geom.patch_size, stride)) ** 2
        for label_shift, gated_on, share in ((1e3, starts, 1), (-1e3, 0, 3)):
            rng = np.random.default_rng(9)
            bank = random_linear_bank(geom, rng, label_shift)
            work.clear()
            field = compute_patch_votes(rng.random((224, 224)), bank,
                                        VotingConfig(stride=stride))
            assert len(field) == gated_on
            assert sum(work) <= bound // share

    def test_image_smaller_than_patch(self):
        geom = PatchGeometry(12, ((12, 0),))
        bank = random_linear_bank(geom, np.random.default_rng(0))
        img = np.random.default_rng(1).random((10, 10))
        assert len(compute_patch_votes(img, bank, VotingConfig())) == 0

    def test_stride_controls_grid(self):
        img = np.random.default_rng(2).random((15, 15))
        bank = constant_bank(1.0)
        n1 = len(compute_patch_votes(img, bank, VotingConfig(stride=1)))
        n2 = len(compute_patch_votes(img, bank, VotingConfig(stride=2)))
        assert n1 == 11 * 11
        assert n2 == 6 * 6


class TestDetect:
    def test_submodule_is_not_shadowed(self):
        import hrm.detect as m

        assert isinstance(m, types.ModuleType)
        assert callable(m.detect) and callable(m._responses)
        assert callable(m._dense_responses) and callable(m._grid_responses)

    def test_fully_gated_image_yields_nothing(self):
        img = np.random.default_rng(3).random((24, 24))
        result = detect(img, constant_bank(-1.0), ScaleSet((1.0,)))
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
