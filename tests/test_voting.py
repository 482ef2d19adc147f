import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrm import pls, voting
from hrm.errors import InvalidInput
from hrm.features import ContextSet, PatchGeometry
from hrm.training import ModelBank


def constant_model(dim, out):
    """A regressor that returns `out` for every input."""
    out = np.atleast_1d(np.asarray(out, dtype=np.float64))
    q = out.shape[0]
    return pls.RegressionModel(coefficients=np.zeros((dim, q)), intercept=out)


def constant_fits(votes, labels):
    """Geometry plus fits whose j-th models always output votes[j] / labels[j]."""
    geom = PatchGeometry(4, tuple((k + 1, 0) for k in range(len(votes) - 1)))
    dim = geom.vector_length
    hrms = tuple(constant_model(dim, v) for v in votes)
    lrms = tuple(constant_model(dim, [l]) for l in labels)
    return geom, hrms, lrms


def patch(loc, votes, labels):
    votes = np.asarray(votes, dtype=np.float64).reshape(-1, 2)
    labels = np.asarray(labels, dtype=np.float64)
    return voting.PatchVotes(
        np.asarray(loc, dtype=np.float64), votes, labels,
        voting.patch_weight(labels),
    )


class TestScaleSet:
    def test_defaults(self):
        s = voting.ScaleSet()
        assert s.scales == (0.75, 1.0, 1.25, 1.5)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            voting.ScaleSet((1.0, 0.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            voting.ScaleSet((0.0, 1.0))

    @pytest.mark.parametrize("scales", [
        (float("nan"),),
        (1.0, float("inf")),
        (float("nan"), 1.0),
    ])
    def test_rejects_non_finite(self, scales):
        with pytest.raises(InvalidInput):
            voting.ScaleSet(scales)


class TestPatchWeight:
    def test_extremes(self):
        assert voting.patch_weight(np.ones(17)) == 1.0
        assert voting.patch_weight(-np.ones(17)) == 0.0
        assert voting.patch_weight(np.zeros(17)) == 0.0  # sign(max(0,0)) = 0

    def test_nine_of_seventeen(self):
        labels = np.array([1.0] * 9 + [-1.0] * 8)
        assert voting.patch_weight(labels) == pytest.approx(9.0 / 17.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 30), st.integers(1, 20))
    def test_stack_matches_per_row_calls(self, seed, rows, mplus1):
        labels = np.random.default_rng(seed).standard_normal((rows, mplus1))
        labels[:, ::3] = 0.0  # a zero label is not positive
        w = voting.patch_weight(labels)
        assert w.shape == (rows,)
        assert w.tolist() == [voting.patch_weight(row) for row in labels]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 20))
    def test_multiples_of_context_fraction(self, seed, mplus1):
        labels = np.random.default_rng(seed).standard_normal(mplus1)
        w = voting.patch_weight(labels)
        assert 0.0 <= w <= 1.0
        assert (w * mplus1) == pytest.approx(round(w * mplus1))


class TestCastVotes:
    def test_matches_per_model_predict(self):
        votes_out = [(1.0, 2.0), (0.5, -1.0), (-2.0, 0.0)]
        labels_out = [1.0, -0.5, 0.2]
        geom, hrms, lrms = constant_fits(votes_out, labels_out)
        bank = ModelBank.from_fits(hrms, lrms, geom)
        dim = geom.vector_length
        ctx = ContextSet(np.random.default_rng(0).random((3, dim)), (False,) * 3)
        pv = voting.cast_votes(ctx, bank, (10.0, 20.0))
        for j in range(3):
            assert np.allclose(pv.votes[j], pls.predict(hrms[j], ctx.vectors[j]))
            assert pv.labels[j] == pytest.approx(
                float(pls.predict(lrms[j], ctx.vectors[j])[0])
            )
        assert pv.weight == pytest.approx(2.0 / 3.0)

    def test_context_count_mismatch(self):
        geom, hrms, lrms = constant_fits([(0, 0)] * 3, [1.0] * 3)
        bank = ModelBank.from_fits(hrms, lrms, geom)
        ctx = ContextSet(np.zeros((2, geom.vector_length)), (False, False))
        with pytest.raises(InvalidInput):
            voting.cast_votes(ctx, bank, (0, 0))


class TestVoteField:
    def test_stacks_and_indexes_patch_votes(self):
        rng = np.random.default_rng(7)
        pvs = [
            patch(rng.random(2) * 30, rng.standard_normal((3, 2)),
                  np.abs(rng.standard_normal(3)))
            for _ in range(6)
        ]
        field = voting.VoteField.of(pvs)
        assert len(field) == 6
        assert field.locations.shape == (6, 2)
        assert field.votes.shape == (6, 3, 2)
        assert field.labels.shape == (6, 3)
        assert field.weights.shape == (6,)
        assert voting.VoteField.of(field) is field
        for i, pv in enumerate(pvs):
            got = field[i]
            assert np.array_equal(got.location, pv.location)
            assert np.array_equal(got.votes, pv.votes)
            assert np.array_equal(got.labels, pv.labels)
            assert got.weight == pv.weight

    def test_empty(self):
        field = voting.VoteField.of([])
        assert len(field) == 0
        assert field.locations.shape == (0, 2)

    def test_of_drops_zero_weight_rows_in_order(self):
        rng = np.random.default_rng(3)
        labels = [[1.0, -1.0], [-1.0, -2.0], [0.5, 2.0], [-3.0, -1.0], [-1.0, 4.0]]
        pvs = [patch(rng.random(2) * 30, rng.standard_normal((2, 2)), lab)
               for lab in labels]
        field = voting.VoteField.of(pvs)
        assert len(field) == 3
        for got, i in enumerate((0, 2, 4)):
            assert np.array_equal(field.locations[got], pvs[i].location)
            assert np.array_equal(field.votes[got], pvs[i].votes)
            assert np.array_equal(field.labels[got], pvs[i].labels)
            assert field.weights[got] == pvs[i].weight
        assert np.all(field.weights != 0)

    def test_of_all_zero_weight_patches_is_empty(self):
        rng = np.random.default_rng(4)
        pvs = [patch(rng.random(2), rng.standard_normal((3, 2)), [-1.0, -2.0, 0.0])
               for _ in range(4)]
        field = voting.VoteField.of(pvs)
        assert len(field) == 0
        assert field.locations.shape == (0, 2)
        assert len(field.votes) == len(field.labels) == 0


class TestAccumulateCuboid:
    def test_landing_geometry(self):
        # vote (d, 0) from location l lands at l + scale * (d, 0)
        d = 6.0
        pv = patch((10.0, 10.0), [(d, 0.0)], [1.0])
        scales = voting.ScaleSet((1.5,))
        cub = voting.accumulate_cuboid([pv], scales, (40, 40), bin_size=1,
                                       smoothing=0.0)
        assert cub.levels[0, 10, 19] == pytest.approx(1.0)
        assert cub.levels.sum() == pytest.approx(1.0)

    def test_landing_past_int64_dropped(self):
        # at scale 1e300 every nonzero vote lands past int64, where a cast
        # has no defined value; each is dropped and counted, without a warning
        pvs = [patch((10.0, 10.0), [(3.0, -2.0), (-0.5, 4.0)], [1.0, 1.0]),
               patch((20.0, 5.0), [(1.0, 1.0), (7.0, 0.25)], [1.0, -1.0])]
        cub = voting.accumulate_cuboid(pvs, voting.ScaleSet((1.0, 1e300)), (40, 40),
                                       bin_size=4, smoothing=0.0)
        assert cub.level_mass[1] == cub.level_mass[0] == pytest.approx(1.5)
        assert cub.levels[1].sum() == 0.0 and cub.dropped[1] == 4
        assert cub.levels[0].sum() == pytest.approx(1.5) and cub.dropped[0] == 0

    def test_unit_ratio_reproduces_single_scale(self):
        rng = np.random.default_rng(2)
        pvs = [
            patch(rng.random(2) * 30 + 5, rng.standard_normal((3, 2)) * 3,
                  rng.standard_normal(3))
            for _ in range(10)
        ]
        multi = voting.accumulate_cuboid(
            pvs, voting.ScaleSet((0.5, 1.0, 2.0)), (48, 48), 1, 0.0
        )
        single = voting.accumulate_cuboid(
            pvs, voting.ScaleSet((1.0,)), (48, 48), 1, 0.0
        )
        assert np.array_equal(multi.levels[1], single.levels[0])

    def test_hand_accumulation(self):
        # three patches, two votes each, all aimed at one cell, with gate
        # weights 1, 0.5 and 0; each vote carries weight / 2 of mass
        target = np.array([20.0, 20.0])
        configs = (
            ((10.0, 10.0), [1.0, 1.0]),   # weight 1
            ((30.0, 10.0), [1.0, -1.0]),  # weight 0.5
            ((10.0, 30.0), [-1.0, -1.0]), # weight 0
        )
        pvs = [
            patch(loc, [target - np.asarray(loc)] * 2, labels)
            for loc, labels in configs
        ]
        cub = voting.accumulate_cuboid(pvs, voting.ScaleSet((1.0,)),
                                       (40, 40), 1, 0.0)
        assert cub.levels[0, 20, 20] == pytest.approx(1.0 + 0.5 + 0.0)

    def test_mass_conservation_across_levels(self):
        rng = np.random.default_rng(3)
        pvs = [
            patch(rng.random(2) * 40, rng.standard_normal((4, 2)) * 5,
                  rng.standard_normal(4))
            for _ in range(20)
        ]
        cub = voting.accumulate_cuboid(pvs, voting.ScaleSet(), (64, 64), 4, 1.5)
        total_weight = sum(pv.weight for pv in pvs)
        assert np.allclose(cub.level_mass, total_weight)
        # accumulated mass = level mass minus what fell off the grid
        assert np.all(cub.dropped >= 0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        lam = 2.0
        pvs = [
            patch(rng.random(2) * 30 + 10, rng.standard_normal((3, 2)) * 4,
                  rng.standard_normal(3))
            for _ in range(15)
        ]
        scaled = [
            voting.PatchVotes(pv.location, pv.votes * lam, pv.labels, pv.weight)
            for pv in pvs
        ]
        base = voting.accumulate_cuboid(
            pvs, voting.ScaleSet((0.75, 1.0, 1.5)), (64, 64), 1, 0.0
        )
        cov = voting.accumulate_cuboid(
            scaled, voting.ScaleSet((0.75 / lam, 1.0 / lam, 1.5 / lam)),
            (64, 64), 1, 0.0,
        )
        assert np.array_equal(base.levels, cov.levels)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        pvs = [
            patch(rng.random(2) * 50, rng.standard_normal((5, 2)) * 8,
                  rng.standard_normal(5))
            for _ in range(25)
        ]
        scales = voting.ScaleSet((1.25,))
        cub = voting.accumulate_cuboid(pvs, scales, (60, 60), 1, 0.0)

        oracle = np.zeros((60, 60))
        for pv in pvs:
            for v in pv.votes:
                land = pv.location + 1.25 * v
                x, y = int(np.floor(land[0])), int(np.floor(land[1]))
                if 0 <= x < 60 and 0 <= y < 60:
                    oracle[y, x] += pv.weight / len(pv.votes)
        assert np.allclose(cub.levels[0], oracle)

    def test_binning_only_mass_carrying_votes_is_exact(self):
        """Mostly gated-off patches, some votes off the grid: an all-votes oracle."""
        rng = np.random.default_rng(11)
        r, mplus1, bin_size, size = 300, 5, 4, (61, 47)
        labels = rng.standard_normal((r, mplus1))
        labels[rng.random(r) < 0.85] = -1.0  # weight 0
        locations = rng.random((r, 2)) * size
        votes = rng.standard_normal((r, mplus1, 2)) * 30
        weights = (labels > 0).sum(axis=1) / mplus1
        pvs = [voting.PatchVotes(*row) for row in zip(locations, votes, labels, weights)]
        scales = voting.ScaleSet((0.75, 1.0, 1.5))
        cub = voting.accumulate_cuboid(pvs, scales, size, bin_size, 0.0)

        gw, gh = -(-size[0] // bin_size), -(-size[1] // bin_size)
        m = np.broadcast_to(weights[:, None] / mplus1, (r, mplus1)).ravel()
        for s, sigma in enumerate(scales.scales):
            landing = locations[:, None, :] + sigma * votes
            cells = np.floor(landing / bin_size).astype(np.int64)
            cx, cy = cells[..., 0].ravel(), cells[..., 1].ravel()
            inside = (cx >= 0) & (cx < gw) & (cy >= 0) & (cy < gh)
            oracle = np.bincount(cy[inside] * gw + cx[inside], weights=m[inside],
                                 minlength=gh * gw).reshape(gh, gw)
            assert np.array_equal(cub.levels[s], oracle)
            assert cub.level_mass[s] == m[m != 0].sum()  # summed over the field's votes
            assert np.count_nonzero(~inside & (m == 0)) > 0  # zero-mass votes fell off
            assert cub.dropped[s] == np.count_nonzero(~inside & (m != 0)) > 0

    def test_empty_votes(self):
        cub = voting.accumulate_cuboid([], voting.ScaleSet(), (32, 32), 4, 0.0)
        assert cub.levels.shape == (4, 8, 8)
        assert cub.levels.sum() == 0.0

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(6)
        pvs = [
            patch(rng.random(2) * 40, rng.standard_normal((3, 2)) * 6,
                  rng.standard_normal(3))
            for _ in range(10)
        ]
        cub = voting.accumulate_cuboid(pvs, voting.ScaleSet(), (48, 48), 4, 1.5)
        assert np.all(np.isfinite(cub.levels))
        assert np.all(cub.levels >= 0)


class TestFindMaxima:
    def make_cuboid(self, levels, bin_size=1):
        levels = np.asarray(levels, dtype=np.float64)
        scales = voting.ScaleSet(tuple(1.0 + 0.25 * s for s in range(levels.shape[0])))
        return voting.HoughCuboid(
            levels, scales, bin_size,
            np.ones(levels.shape[0]), np.zeros(levels.shape[0], dtype=np.int64),
        )

    def test_single_impulse(self):
        levels = np.zeros((2, 10, 10))
        levels[1, 4, 7] = 3.0
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.1, radius=2)
        assert len(hyps) == 1
        assert hyps[0].center == (7.5, 4.5)
        assert hyps[0].scale == 1.25
        assert hyps[0].score == 3.0

    def test_zero_cell_without_neighbors_is_no_hypothesis(self):
        # off-grid neighbors read -inf, so an empty 1x1 level's cell beats
        # them all; only a cell that holds votes is a hypothesis
        levels = np.array([[[0.0]], [[0.5]]])
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.0, radius=1)
        assert [(h.scale, h.score) for h in hyps] == [(1.25, 0.5)]

    def test_uniform_level_no_maxima(self):
        levels = np.ones((1, 8, 8))
        assert voting.find_maxima(self.make_cuboid(levels), 0.0, radius=1) == []

    def test_two_separated_peaks(self):
        r = 3
        levels = np.zeros((1, 20, 20))
        levels[0, 5, 5] = 1.0
        levels[0, 5, 5 + 2 * r + 2] = 0.9
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.0, radius=r)
        assert len(hyps) == 2

    def test_min_score_filter(self):
        levels = np.zeros((1, 10, 10))
        levels[0, 2, 2] = 1.0
        levels[0, 8, 8] = 0.2
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.5, radius=2)
        assert len(hyps) == 1 and hyps[0].score == 1.0

    def test_bin_size_maps_to_cell_centers(self):
        levels = np.zeros((1, 5, 5))
        levels[0, 1, 3] = 2.0
        hyps = voting.find_maxima(self.make_cuboid(levels, bin_size=4), 0.0, 1)
        assert hyps[0].center == (14.0, 6.0)

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(7)
        levels = rng.random((2, 12, 12))
        r = 2
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.0, radius=r)
        found = {(h.scale, h.center) for h in hyps}

        expected = set()
        scales = (1.0, 1.25)
        for s in range(2):
            for y in range(12):
                for x in range(12):
                    v = levels[s, y, x]
                    is_max = True
                    for dy in range(-r, r + 1):
                        for dx in range(-r, r + 1):
                            if (dx, dy) == (0, 0):
                                continue
                            ny, nx = y + dy, x + dx
                            if 0 <= ny < 12 and 0 <= nx < 12 and levels[s, ny, nx] >= v:
                                is_max = False
                    if is_max:
                        expected.add((scales[s], (x + 0.5, y + 0.5)))
        assert found == expected

    def test_radius_beyond_the_grid_is_the_grid_side(self):
        # a (2r+1)^2 footprint at r = 10**6 would need about 4 TB
        rng = np.random.default_rng(9)
        cuboid = self.make_cuboid(rng.random((2, 9, 14)))
        whole = voting.find_maxima(cuboid, 0.0, 14)
        assert voting.find_maxima(cuboid, 0.0, 10**6) == whole

    def test_radius_guard(self):
        with pytest.raises(InvalidInput):
            voting.find_maxima(self.make_cuboid(np.zeros((1, 4, 4))), 0.0, radius=0)

    def test_sorted_by_descending_score(self):
        rng = np.random.default_rng(8)
        levels = rng.random((3, 15, 15))
        hyps = voting.find_maxima(self.make_cuboid(levels), 0.0, radius=1)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
