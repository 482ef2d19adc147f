import pytest

from hrm.config import PipelineConfig, load_config
from hrm.errors import ParseError


class TestDefaults:
    def test_no_file_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.pls.components == 100
        assert cfg.pls.ridge == 1e-10
        assert cfg.geometry.patch_size == 16
        assert cfg.geometry.num_context == 17
        assert cfg.training.n_pos == cfg.training.n_neg == 12000
        assert cfg.scales.scales == (0.75, 1.0, 1.25, 1.5)
        assert cfg.voting.bin_size == 4
        assert cfg.fusion is None
        assert cfg.iou_threshold == 0.5

    def test_dataclass_defaults_match_loader(self):
        assert load_config(None) == PipelineConfig()


class TestFileParsing:
    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[pls]\ncomponents = 8\nridge = 0.5\n"
            "[features]\npatch_size = 6\nneighbor_offsets = 6 0 -6 0\n"
            "derivative_kernel = central\n"
            "[training]\nn_pos = 100\nn_neg = 50\nseed = 9\n"
            "[voting]\nscales = 0.5 1.0 2.0\nstride = 2\nbin_size = 2\n"
            "smoothing = 0.5\n"
            "[fusion]\nkernel = epanechnikov\nbandwidth = 3.5\n"
            "[pipeline]\niou_threshold = 0.4\n"
        )
        cfg = load_config(path)
        assert cfg.pls.components == 8 and cfg.pls.ridge == 0.5
        assert cfg.geometry.patch_size == 6
        assert cfg.geometry.neighbor_offsets == ((6, 0), (-6, 0))
        assert cfg.voting.derivative_kernel == "central"
        assert cfg.training.n_pos == 100
        assert cfg.scales.scales == (0.5, 1.0, 2.0)
        assert cfg.voting.stride == 2 and cfg.voting.smoothing == 0.5
        assert cfg.fusion.kernel == "epanechnikov"
        assert cfg.fusion.bandwidth == 3.5
        assert cfg.iou_threshold == 0.4

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncomponents = 3\n")
        cfg = load_config(path)
        assert cfg.pls.components == 3
        assert cfg.geometry.patch_size == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "none.ini")

    def test_bad_value(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncomponents = many\n")
        with pytest.raises(ParseError):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[features]\nneighbor_offsets = 6 x\n",
        "[voting]\nscales = 1 y\n",
    ])
    def test_bad_number_in_list(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_config(path)

    def test_misspelled_key(self, tmp_path):
        # would otherwise load silently with components = 100
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncompnents = 4\n")
        with pytest.raises(ParseError, match=r"'compnents'.*\[pls\]"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncomponents = 4\n[plsx]\ncomponents = 4\n")
        with pytest.raises(ParseError, match=r"\[plsx\]"):
            load_config(path)

    def test_default_section_is_unknown(self, tmp_path):
        # configparser would copy [DEFAULT] keys into every section
        path = tmp_path / "cfg.ini"
        path.write_text("[DEFAULT]\nseed = 3\n")
        with pytest.raises(ParseError, match=r"\[DEFAULT\]"):
            load_config(path)

    def test_odd_offset_count(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[features]\nneighbor_offsets = 1 2 3\n")
        with pytest.raises(ParseError):
            load_config(path)
