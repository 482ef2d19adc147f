import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from hrm import features, image_io
from hrm.errors import InvalidInput, OutOfBounds


def random_image(seed, h=32, w=32):
    return np.random.default_rng(seed).random((h, w))


class TestPatchGeometry:
    def test_default_neighbor_count(self):
        geom = features.PatchGeometry()
        assert geom.patch_size == 16
        assert len(geom.neighbor_offsets) == 16
        assert geom.num_context == 17

    def test_default_offsets_adjacent_and_half(self):
        geom = features.PatchGeometry(16)
        offs = set(geom.neighbor_offsets)
        for step in (16, 8):
            for dy in (-step, 0, step):
                for dx in (-step, 0, step):
                    if (dx, dy) != (0, 0):
                        assert (dx, dy) in offs

    def test_shifts_are_self_then_neighbors(self):
        geom = features.PatchGeometry(5, ((5, 0), (-3, 2)))
        assert geom.shifts == ((0, 0), (5, 0), (-3, 2))
        assert len(geom.shifts) == geom.num_context

    def test_vector_length(self):
        assert features.PatchGeometry(16).vector_length == 6656
        assert features.PatchGeometry(5).vector_length == 5 * 5 * 26

    @pytest.mark.parametrize("offset", [(1, 2, 3), (4,), ()])
    def test_offsets_must_be_pairs(self, offset):
        with pytest.raises(InvalidInput, match="pairs"):
            features.PatchGeometry(5, ((5, 0), offset))

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(InvalidInput):
            features.PatchGeometry(8, ((1, 0), (1, 0)))

    def test_bad_patch_size(self):
        with pytest.raises(InvalidInput):
            features.PatchGeometry(0)

    def test_zero_offset_rejected(self):
        # raw minus itself: the context would be all zeros
        with pytest.raises(InvalidInput):
            features.PatchGeometry(8, ((8, 0), (0, 0)))


class TestBaseChannels:
    def test_constant_image_all_zero(self):
        base = features.base_channels(np.full((12, 12), 0.5))
        assert np.max(np.abs(base)) == 0.0

    def test_vertical_step_edge(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 1.0
        base = features.base_channels(img)
        gx, gy = base[0], base[1]
        # the x-derivative peaks on the edge columns, y-derivative vanishes
        assert gx[8, 7] > 0 and gx[8, 8] > 0
        interior = gy[2:-2, 2:-2]
        assert np.max(np.abs(interior)) == 0.0
        col_means = gx.mean(axis=0)
        assert np.argmax(col_means) in (7, 8)

    def test_channel_count_and_nonnegative(self):
        base = features.base_channels(random_image(0))
        assert base.shape[0] == features.N_BASE_CHANNELS == 13
        assert np.all(base >= 0.0)

    def test_too_small_image(self):
        with pytest.raises(InvalidInput):
            features.base_channels(np.zeros((4, 4)))

    def test_rgb_collapsed_to_luminance(self):
        rng = np.random.default_rng(3)
        img = rng.random((10, 10, 3))
        luma = img @ np.array([0.299, 0.587, 0.114])
        assert np.allclose(
            features.base_channels(img), features.base_channels(luma)
        )

    @pytest.mark.parametrize("shape", [(12, 12, 4), (12, 12, 1), (2, 12, 12, 3)])
    def test_non_image_shape_refused(self, shape):
        with pytest.raises(InvalidInput):
            features.compute_channels(np.zeros(shape))

    def test_rgb_grey_matches_load_image(self, tmp_path):
        rgb = np.random.default_rng(4).integers(0, 256, (12, 10, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n10 12\n255\n" + rgb.tobytes())
        assert np.array_equal(
            features.compute_channels(rgb / 255.0),
            features.compute_channels(image_io.load_image(path)),
        )


class TestHogChannels:
    def test_bin_partition(self):
        # every pixel lands in exactly one of the 9 orientation bins, so
        # window counts summed across bins equal the window pixel count
        img = random_image(4)
        bins = features.hog_bin_map(img)
        assert bins.min() >= 0 and bins.max() < features.HOG_BINS
        counts = np.zeros(img.shape)
        for b in range(features.HOG_BINS):
            counts += ndimage.uniform_filter(
                (bins == b).astype(float), size=5, mode="nearest"
            ) * 25.0
        assert np.allclose(counts, 25.0)

    def test_hog_window_accumulation_oracle(self):
        # brute-force 5x5 magnitude accumulation at an interior pixel
        img = random_image(5, 20, 20)
        base = features.base_channels(img)
        gx = ndimage.sobel(img, axis=1, mode="nearest") / 8.0
        gy = ndimage.sobel(img, axis=0, mode="nearest") / 8.0
        mag = np.hypot(gx, gy)
        bins = features.hog_bin_map(img)
        y, x = 10, 9
        for b in range(features.HOG_BINS):
            window_mag = mag[y - 2 : y + 3, x - 2 : x + 3]
            window_bin = bins[y - 2 : y + 3, x - 2 : x + 3]
            expected = window_mag[window_bin == b].sum()
            assert abs(base[4 + b][y, x] - expected) <= 1e-10

    def test_horizontal_edge_orientation(self):
        # a horizontal edge has a vertical gradient: angle pi/2, bin 4
        img = np.zeros((16, 16))
        img[8:, :] = 1.0
        bins = features.hog_bin_map(img)
        assert bins[8, 8] == 4

    def test_colour_gives_the_bins_of_its_grey(self):
        # the (H, W) bins that base_channels reads, not Sobel across colour planes
        rgb = np.random.default_rng(8).random((12, 10, 3))
        bins = features.hog_bin_map(rgb)
        assert bins.shape == (12, 10)
        assert np.array_equal(bins, features.hog_bin_map(image_io.to_grey(rgb)))

    @pytest.mark.parametrize("shape", [(7,), (4, 5, 2), (2, 3, 4, 3)])
    def test_other_shapes_refused(self, shape):
        with pytest.raises(InvalidInput):
            features.hog_bin_map(np.zeros(shape))

    def test_bins_are_those_of_the_channels(self):
        # the unscaled Sobel gives the same angles: Sobel/8 is an exact scaling
        img = random_image(7)
        gx, gy = (ndimage.sobel(img, axis=a, mode="nearest") for a in (1, 0))
        ang = np.mod(np.arctan2(gy, gx), np.pi)
        expected = np.minimum((ang / (np.pi / features.HOG_BINS)).astype(int), 8)
        assert np.array_equal(features.hog_bin_map(img), expected)


class TestComputeChannels:
    def test_plane_count(self):
        vol = features.compute_channels(random_image(6))
        assert vol.shape == (32, 32, 26)
        assert vol.shape[0] == 32 and vol.shape[1] == 32

    def test_min_max_sandwich_oracle(self):
        img = random_image(7)
        base = features.base_channels(img)
        vol = features.compute_channels(img)
        for k in range(13):
            # brute-force window min/max at a few pixels
            for y, x in ((2, 3), (10, 10), (29, 28)):
                y0, y1 = max(0, y - 2), min(32, y + 3)
                x0, x1 = max(0, x - 2), min(32, x + 3)
                win = base[k][y0:y1, x0:x1]
                assert vol[y, x, k] == win.max()
                assert vol[y, x, 13 + k] == win.min()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_min_max_sandwich_property(self, seed):
        img = random_image(seed, 12, 14)
        base = features.base_channels(img)
        vol = features.compute_channels(img)
        assert np.all(vol[..., 13:] <= base.transpose(1, 2, 0) + 1e-12)
        assert np.all(base.transpose(1, 2, 0) <= vol[..., :13] + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(5, 40),
        st.integers(5, 40),
        st.integers(0, 10_000),
        st.booleans(),
    )
    def test_matches_per_plane_ndimage_filters(self, h, w, seed, integer):
        rng = np.random.default_rng(seed)
        # small integers give flat runs and ties in every channel
        if integer:
            img = rng.integers(0, 4, (h, w)).astype(float)
        else:
            img = rng.random((h, w))
        base = features.base_channels(img)
        expected = np.stack(
            [ndimage.maximum_filter(p, size=5, mode="nearest") for p in base]
            + [ndimage.minimum_filter(p, size=5, mode="nearest") for p in base],
            axis=-1,
        )
        planes = features.compute_channels(img)
        assert planes.flags.c_contiguous
        assert np.array_equal(planes, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(5, 48),
        st.integers(5, 48),
        st.integers(0, 10_000),
        st.booleans(),
        st.data(),
    )
    def test_crop_matches_image_inside_margin(self, h, w, seed, integer, data):
        # a crop's channels equal the image's at every pixel CROP_MARGIN or
        # more inside each crop edge that is not an image edge
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 4, (h, w)).astype(float) if integer else rng.random((h, w))
        y0 = data.draw(st.integers(0, h - 5))
        y1 = data.draw(st.integers(y0 + 5, h))
        x0 = data.draw(st.integers(0, w - 5))
        x1 = data.draw(st.integers(x0 + 5, w))
        m = features.CROP_MARGIN
        ya, yb = y0 + (m if y0 > 0 else 0), y1 - (m if y1 < h else 0)
        xa, xb = x0 + (m if x0 > 0 else 0), x1 - (m if x1 < w else 0)
        crop = features.compute_channels(img[y0:y1, x0:x1])
        whole = features.compute_channels(img)
        assert np.array_equal(
            crop[ya - y0 : yb - y0, xa - x0 : xb - x0], whole[ya:yb, xa:xb]
        )

    def test_determinism(self):
        img = random_image(8)
        a = features.compute_channels(img.copy())
        b = features.compute_channels(img.copy())
        assert np.array_equal(a, b)


class TestExtractPatchVector:
    def test_length(self):
        vol = features.compute_channels(random_image(9))
        geom = features.PatchGeometry(16)
        assert features.extract_patch_vector(vol, (0, 0), geom).shape == (6656,)

    def test_indexing_oracle(self):
        vol = features.compute_channels(random_image(10))
        geom = features.PatchGeometry(4)
        x0, y0 = 5, 7
        v = features.extract_patch_vector(vol, (x0, y0), geom)
        for r in range(4):
            for c in range(4):
                for k in range(26):
                    idx = (r * 4 + c) * 26 + k
                    assert v[idx] == vol[y0 + r, x0 + c, k]

    def test_periodic_translation(self):
        # two patches one full period apart see identical content, so
        # their feature vectors coincide (away from image borders)
        tile = np.random.default_rng(11).random((8, 8))
        img = np.tile(tile, (4, 4))
        vol = features.compute_channels(img)
        geom = features.PatchGeometry(8)
        a = features.extract_patch_vector(vol, (8, 8), geom)
        b = features.extract_patch_vector(vol, (16, 16), geom)
        assert np.allclose(a, b, atol=1e-12)

    def test_out_of_bounds(self):
        vol = features.compute_channels(random_image(12))
        geom = features.PatchGeometry(16)
        with pytest.raises(OutOfBounds):
            features.extract_patch_vector(vol, (20, 0), geom)
        with pytest.raises(OutOfBounds):
            features.extract_patch_vector(vol, (-1, 0), geom)

    @pytest.mark.parametrize("topleft", [(2.7, 3), (2, 3.2), (2.0, 3), (True, 3)])
    def test_non_integer_corner_is_refused(self, topleft):
        # both per-patch oracles refuse it rather than truncate it
        vol = features.compute_channels(random_image(12))
        geom = features.PatchGeometry(5, ((5, 0),))
        for oracle in (features.extract_patch_vector, features.context_vectors):
            with pytest.raises(InvalidInput, match="patch coordinate must be an integer"):
                oracle(vol, topleft, geom)


class TestPatchWindows:
    @pytest.mark.parametrize("ps", [1, 2, 3, 4, 5])
    def test_matches_extract_patch_vector_at_every_start(self, ps):
        vol = features.compute_channels(random_image(16, 9, 11))
        geom = features.PatchGeometry(ps, ())
        windows = features.patch_windows(vol, ps)
        assert windows.shape == (9 - ps + 1, 11 - ps + 1, ps, ps, 26)
        assert not windows.flags.writeable
        for y in range(windows.shape[0]):
            for x in range(windows.shape[1]):
                v = features.extract_patch_vector(vol, (x, y), geom)
                assert np.array_equal(windows[y, x].reshape(-1), v)


class TestContextVectors:
    def test_entry_zero_is_raw(self):
        vol = features.compute_channels(random_image(13))
        geom = features.PatchGeometry(5, ((5, 0), (0, 5)))
        ctx = features.context_vectors(vol, (10, 10), geom)
        raw = features.extract_patch_vector(vol, (10, 10), geom)
        assert np.array_equal(ctx[0], raw)
        assert ctx.shape == (geom.num_context, geom.vector_length) == (3, 650)

    def test_constant_image_differences_zero(self):
        vol = features.compute_channels(np.full((20, 20), 0.3))
        geom = features.PatchGeometry(5)
        ctx = features.context_vectors(vol, (7, 7), geom)
        assert np.max(np.abs(ctx)) == 0.0

    def test_difference_oracle(self):
        vol = features.compute_channels(random_image(14))
        geom = features.PatchGeometry(5, ((5, 0), (-5, 0), (0, 5)))
        ctx = features.context_vectors(vol, (10, 10), geom)
        for j, (dx, dy) in enumerate(geom.neighbor_offsets, start=1):
            raw = features.extract_patch_vector(vol, (10, 10), geom)
            nb = features.extract_patch_vector(vol, (10 + dx, 10 + dy), geom)
            assert np.array_equal(ctx[j], raw - nb)

    def test_clipped_neighbor_is_raw(self):
        vol = features.compute_channels(random_image(15, 16, 16))
        geom = features.PatchGeometry(5, ((-8, 0), (5, 0)))
        ctx = features.context_vectors(vol, (2, 2), geom)
        assert np.array_equal(ctx[1], ctx[0])
        nb = features.extract_patch_vector(vol, (7, 2), geom)
        assert np.array_equal(ctx[2], ctx[0] - nb)

    def test_center_out_of_bounds(self):
        vol = features.compute_channels(random_image(16, 16, 16))
        geom = features.PatchGeometry(5)
        with pytest.raises(OutOfBounds):
            features.context_vectors(vol, (14, 0), geom)
