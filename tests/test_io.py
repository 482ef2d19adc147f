import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrm import dataset, image_io, model_io, pls, voting
from hrm.errors import (
    CorruptModel,
    HRMError,
    IncompatibleModel,
    InvalidInput,
    MissingAsset,
    ParseError,
)
from hrm.features import EXTRACTOR_VERSION, ContextSet, PatchGeometry
from hrm.training import ModelBank


class TestImageIO:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(0).random((12, 17))
        path = tmp_path / "a.pgm"
        image_io.write_pgm(path, img)
        back = image_io.load_image(path)
        assert back.shape == (12, 17)
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_ascii_p2(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n255 128 0\n")
        img = image_io.read_pnm(path)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0 and img[0, 2] == 1.0
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_ascii_p3_color_luma(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_text("P3\n1 1\n255\n255 0 0\n")
        img = image_io.load_image(path)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(0.299)

    def test_binary_p6(self, tmp_path):
        path = tmp_path / "d.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 255, 255, 0, 0, 0]))
        img = image_io.load_image(path)
        assert img[0, 0] == pytest.approx(1.0)
        assert img[0, 1] == 0.0

    def test_binary_16_bit_is_big_endian(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0xFF, 0xFF]))
        img = image_io.read_pnm(path)
        assert img.tolist() == [[256 / 65535, 1.0]]

    @pytest.mark.parametrize("target, error", [
        ("missing_dir/m.hrmb", FileNotFoundError),
        ("adir", IsADirectoryError),
    ])
    def test_failed_write_names_the_path(self, tmp_path, target, error):
        (tmp_path / "adir").mkdir()
        path = tmp_path / target
        with pytest.raises(error) as info:
            image_io.atomic_write(path, b"data")
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_comment_in_binary_header(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\x40\x80\xff")
        img = image_io.read_pnm(path)
        assert img[1, 1] == 1.0

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ParseError):
            image_io.read_pnm(path)

    def test_truncated_ascii(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_text("P2\n3 3\n255\n1 2 3\n")
        with pytest.raises(ParseError):
            image_io.read_pnm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"BM\x00\x00")
        with pytest.raises(ParseError):
            image_io.read_pnm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingAsset):
            image_io.read_pnm(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("data", [
        b"P2\n2 1\n255\n300 0\n",  # above maxval, read as 1.176
        b"P5\n2 1\n100\n\xc8\x00",  # byte 200 at maxval 100, read as 2.0
        b"P2\n2 1\n255\n-5 0\n",  # negative sample
    ])
    def test_sample_outside_maxval_refused(self, tmp_path, data):
        path = tmp_path / "s.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="maxval"):
            image_io.read_pnm(path)


def write_scene(tmp_path, name="img.pgm", shape=(32, 32)):
    img = np.random.default_rng(1).random(shape)
    image_io.write_pgm(tmp_path / name, img)
    return name


class TestDataset:
    def test_single_line(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"{name} 10 20 60 120\n")
        # out-of-image boxes are a caller concern; parsing just records them
        ds = dataset.load_dataset(ann)
        assert len(ds.entries) == 1
        path, boxes = ds.entries[0]
        assert boxes == ((10, 20, 60, 120),)

    def test_multiple_boxes_and_accumulation(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(
            f"{name} 1 2 5 6 8 9 12 13\n"
            f"{name} 2 2 6 6  # later line accumulates\n"
        )
        ds = dataset.load_dataset(ann)
        assert len(ds.entries) == 1
        assert len(ds.entries[0][1]) == 3

    def test_background_line(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"{name}\n")
        ds = dataset.load_dataset(ann)
        assert ds.entries[0][1] == ()

    def test_empty_file_warns(self, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("# only comments\n\n")
        with pytest.warns(UserWarning):
            ds = dataset.load_dataset(ann)
        assert ds.entries == ()

    def test_degenerate_box_names_line(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"# header\n{name} 10 10 10 20\n")
        with pytest.raises(ParseError, match=":2"):
            dataset.load_dataset(ann)

    @pytest.mark.parametrize("box", [
        "0 0 2147483648 50", f"0 0 {10**400} 50", f"0 {2**31} 5 {2**32}", "-1 0 5 5",
    ], ids=["x1=2**31", "x1=10**400", "y0=2**31", "x0=-1"])
    def test_box_outside_32_bits_names_line(self, tmp_path, box):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"{name} 0 0 2147483647 50\n{name} {box}\n")
        with pytest.raises(ParseError, match=":2: box corner"):
            dataset.load_dataset(ann)

    def test_partial_coordinate_group(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"{name} 1 2 3\n")
        with pytest.raises(ParseError, match=":1"):
            dataset.load_dataset(ann)

    def test_missing_image(self, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("ghost.pgm 0 0 4 4\n")
        with pytest.raises(MissingAsset):
            dataset.load_dataset(ann)

    def test_missing_annotation_file(self, tmp_path):
        with pytest.raises(MissingAsset):
            dataset.load_dataset(tmp_path / "nope.txt")

    def test_non_utf8_annotation_file(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_bytes(b"img\xff.pgm 1 1 9 9\n")
        with pytest.raises(ParseError):
            dataset.load_dataset(path)

    def test_load_entries_decodes(self, tmp_path):
        name = write_scene(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text(f"{name} 1 1 9 9\n")
        ds = dataset.load_dataset(ann)
        entries = list(ds.load_entries())
        assert len(entries) == 1
        _, img, boxes = entries[0]
        assert img.shape == (32, 32) and boxes == ((1, 1, 9, 9),)


def random_bank(seed=0, mplus1=2):
    rng = np.random.default_rng(seed)
    geom = PatchGeometry(4, tuple((k + 1, -k) for k in range(mplus1 - 1)))
    dim = geom.vector_length
    hrms = tuple(
        pls.bpls_fit(rng.standard_normal((12, dim)), rng.standard_normal((12, 2)),
                     3, 1e-10)
        for _ in range(mplus1)
    )
    lrms = tuple(
        pls.bpls_fit(rng.standard_normal((12, dim)), rng.standard_normal((12, 1)),
                     3, 1e-10)
        for _ in range(mplus1)
    )
    return ModelBank.from_fits(hrms, lrms, geom, reference_box=(24.0, 30.0))


def v4_header(patch_size=4, offsets=()):
    """A format-4 model file up to its arrays."""
    ext = EXTRACTOR_VERSION.encode()
    return (
        b"HRMB" + struct.pack("<II", 4, len(ext)) + ext
        + struct.pack("<II", patch_size, len(offsets))
        + b"".join(struct.pack("<ii", *o) for o in offsets)
        + struct.pack("<dd", 1.0, 1.0)
    )


SCALAR = struct.pack("<I", 0) + bytes(8)  # a 0-d array


class TestModelIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        bank = random_bank()
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, bank)
        back = model_io.load_model(path)
        assert back.geometry == bank.geometry
        assert back.reference_box == bank.reference_box
        ext = EXTRACTOR_VERSION.encode()
        assert path.read_bytes()[12 : 12 + len(ext)] == ext
        assert np.array_equal(back.coefficients, bank.coefficients)
        assert np.array_equal(back.intercepts, bank.intercepts)

    def test_save_is_deterministic(self, tmp_path):
        bank = random_bank(3)
        p1, p2 = tmp_path / "a.hrmb", tmp_path / "b.hrmb"
        model_io.save_model(p1, bank)
        model_io.save_model(p2, bank)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        assert path.read_bytes()[:4] == b"HRMB"

    def test_truncated_by_one_byte(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(CorruptModel):
            model_io.load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptModel):
            model_io.load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(IncompatibleModel):
            model_io.load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(IncompatibleModel):
            model_io.load_model(path)

    def test_extractor_mismatch(self, tmp_path, monkeypatch):
        path = tmp_path / "bank.hrmb"
        with monkeypatch.context() as m:
            m.setattr(model_io, "EXTRACTOR_VERSION", "chan26-v0")
            model_io.save_model(path, random_bank())
        with pytest.raises(IncompatibleModel):
            model_io.load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingAsset):
            model_io.load_model(tmp_path / "none.hrmb")
        with pytest.raises(MissingAsset):
            model_io.load_model(tmp_path)

    def test_non_utf8_extractor(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, random_bank())
        data = bytearray(path.read_bytes())
        data[12] = 0xFF  # first byte of the extractor tag
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModel):
            model_io.load_model(path)

    @pytest.mark.parametrize(
        "patch_size, offsets", [(0, ()), (4, ((1, 0), (1, 0))), (4, ((0, 0),))]
    )
    def test_invalid_geometry(self, tmp_path, patch_size, offsets):
        path = tmp_path / "bank.hrmb"
        path.write_bytes(v4_header(patch_size, offsets) + SCALAR + SCALAR)
        with pytest.raises(CorruptModel):
            model_io.load_model(path)

    def test_format_2_refused(self, tmp_path):
        # format 2 had no derivative kernel after the offsets
        ext = EXTRACTOR_VERSION.encode()
        path = tmp_path / "bank.hrmb"
        path.write_bytes(
            b"HRMB" + struct.pack("<II", 2, len(ext)) + ext
            + struct.pack("<II", 4, 0) + struct.pack("<dd", 1.0, 1.0)
            + SCALAR + SCALAR
        )
        with pytest.raises(IncompatibleModel, match="retrain"):
            model_io.load_model(path)

    def test_format_3_refused(self, tmp_path):
        # format 3 recorded a derivative-filter name after the offsets
        ext = EXTRACTOR_VERSION.encode()
        path = tmp_path / "bank.hrmb"
        path.write_bytes(
            b"HRMB" + struct.pack("<II", 3, len(ext)) + ext
            + struct.pack("<II", 4, 0) + struct.pack("<I", 5) + b"sobel"
            + struct.pack("<dd", 1.0, 1.0) + SCALAR + SCALAR
        )
        with pytest.raises(IncompatibleModel, match="retrain"):
            model_io.load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("head", ["coefficients", "intercepts"])
    def test_non_finite_head_refused(self, tmp_path, head, value):
        bank = random_bank(6)
        getattr(bank, head).flat[3] = value
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, bank)
        with pytest.raises(CorruptModel, match="finite"):
            model_io.load_model(path)

    @pytest.mark.parametrize("box", [
        (np.nan, -3.0), (np.nan, 24.0), (24.0, -3.0), (np.inf, 24.0), (24.0, -np.inf),
    ])
    def test_invalid_reference_box_refused(self, tmp_path, box):
        bank = random_bank(7)
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, bank)
        data = bytearray(path.read_bytes())
        at = len(v4_header(4, bank.geometry.neighbor_offsets)) - 16  # the box field
        assert struct.unpack_from("<dd", data, at) == bank.reference_box
        struct.pack_into("<dd", data, at, *box)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModel, match="reference box"):
            model_io.load_model(path)

    @pytest.mark.parametrize("box", [
        (np.nan, -3.0), (24.0, -3.0), (np.inf, 24.0), (24.0,), ("24", "30"), (True, True),
    ])
    def test_bank_refuses_unsaveable_reference_box(self, box):
        # so no bank that load_model would refuse reaches save_model
        bank = random_bank(7)
        with pytest.raises(InvalidInput, match="reference box"):
            ModelBank(bank.coefficients, bank.intercepts, bank.geometry, box)

    def test_zero_reference_box_accepted(self, tmp_path):
        bank = random_bank(7)
        bank = ModelBank(bank.coefficients, bank.intercepts, bank.geometry)
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, bank)
        assert model_io.load_model(path).reference_box == (0.0, 0.0)

    def test_empty_array_with_dimension_past_intp(self, tmp_path):
        path = tmp_path / "bank.hrmb"
        path.write_bytes(v4_header() + struct.pack("<I2Q", 2, 0, 2**64 - 1))
        with pytest.raises(CorruptModel):
            model_io.load_model(path)

    def test_roundtrip_preserves_predictions(self, tmp_path):
        bank = random_bank(5)
        path = tmp_path / "bank.hrmb"
        model_io.save_model(path, bank)
        back = model_io.load_model(path)
        x = np.random.default_rng(6).standard_normal((2, bank.geometry.vector_length))
        ctx = ContextSet(x, (False, False))
        a, b = (voting.cast_votes(ctx, k, (0.0, 0.0)) for k in (bank, back))
        assert np.array_equal(a.votes, b.votes)
        assert np.array_equal(a.labels, b.labels)


def read_or_refuse(reader, name: str, data: bytes):
    """Write data to a fresh file and read it; an HRMError is a refusal (None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        (Path(tmp) / "a.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
        try:
            return reader(path)
        except HRMError:
            return None


def joined(tokens, sep):
    return st.lists(tokens, max_size=12).map(sep.join)


# numbers, junk and comment/line breaks, so generated headers often parse
PNM_TOKENS = st.one_of(
    st.integers(-2, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b"#", b"\n", b"65535", b"1e3", b"x"]),
    st.binary(max_size=3),
)


@st.composite
def model_tails(draw):
    """Bytes after ``HRMB`` and version 4: header fields, then two arrays."""
    valid = EXTRACTOR_VERSION.encode()
    ext = draw(st.sampled_from([valid, valid, valid, b"\xff\xfe", b""]))
    m = draw(st.integers(0, 3))
    out = struct.pack("<I", len(ext)) + ext
    out += struct.pack("<II", draw(st.integers(0, 5)), m)
    for _ in range(m):
        out += struct.pack("<ii", *draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6))))
    out += struct.pack("<dd", *draw(st.tuples(st.floats(), st.floats())))
    for _ in range(2):
        dims = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), max_size=4))
        out += struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
        n = int(np.prod(dims, dtype=object)) if dims else 1
        out += bytes(8 * min(n, 64))
    cut = draw(st.integers(0, len(out)))
    return draw(st.sampled_from([out, out[:cut], out + b"\x00"]))


class TestReaderFuzz:
    """Every input to a file reader is read or refused with an HRMError."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"P2", b"P5"]),
           st.one_of(joined(PNM_TOKENS, b" "), st.binary(max_size=40)))
    def test_read_pnm(self, magic, body):
        img = read_or_refuse(image_io.read_pnm, "x.pgm", magic + body)
        assert img is None or (img.min() >= 0.0 and img.max() <= 1.0)

    @pytest.mark.filterwarnings("ignore:.*empty dataset")
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(joined(st.one_of(
        st.sampled_from(["a.pgm", "b.pgm", ".", "#", "\n", "-1", "0", "1", "2", "x"]),
        st.text(max_size=4),
    ), " ").map(str.encode), st.binary(max_size=40)))
    def test_load_dataset(self, data):
        read_or_refuse(dataset.load_dataset, "ann.txt", data)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(model_tails(), st.binary(max_size=80)))
    def test_load_model(self, tail):
        data = b"HRMB" + struct.pack("<I", 4) + tail
        read_or_refuse(model_io.load_model, "m.hrmb", data)
