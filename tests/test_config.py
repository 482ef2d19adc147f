import re
from pathlib import Path

import pytest

from hrm import config
from hrm.config import PipelineConfig, SynthSpec, load_config, load_synth_spec
from hrm.errors import InvalidInput, ParseError
from hrm.features import PatchGeometry
from hrm.fusion import FusionConfig
from hrm.pls import LatentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert cfg.fusion == FusionConfig(bandwidth=2.0 * cfg.voting.bin_size)
        assert cfg.iou_threshold == 0.5

    def test_dataclass_defaults_match_loader(self):
        assert load_config(None) == PipelineConfig()


class TestFileParsing:
    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[pls]\ncomponents = 8\nridge = 0.5\n"
            "[features]\npatch_size = 6\nneighbor_offsets = 6 0 -6 0\n"
            "[training]\nn_pos = 100\nn_neg = 50\nseed = 9\n"
            "[voting]\nscales = 0.5 1.0 2.0\nstride = 2\nbin_size = 2\n"
            "smoothing = 0.5\n"
            "[fusion]\nbandwidth = 3.5\n"
            "[pipeline]\niou_threshold = 0.4\n"
        )
        cfg = load_config(path)
        assert cfg.pls.components == 8 and cfg.pls.ridge == 0.5
        assert cfg.geometry.patch_size == 6
        assert cfg.geometry.neighbor_offsets == ((6, 0), (-6, 0))
        assert cfg.training.n_pos == 100
        assert cfg.scales.scales == (0.5, 1.0, 2.0)
        assert cfg.voting.stride == 2 and cfg.voting.smoothing == 0.5
        assert cfg.fusion.bandwidth == 3.5
        assert cfg.iou_threshold == 0.4

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncomponents = 3\n")
        cfg = load_config(path)
        assert cfg.pls.components == 3
        assert cfg.geometry.patch_size == 16

    @pytest.mark.parametrize("fusion", ["", "[fusion]\n"])
    def test_default_bandwidth_is_two_cells(self, tmp_path, fusion):
        path = tmp_path / "cfg.ini"
        path.write_text("[voting]\nbin_size = 3\n" + fusion)
        assert load_config(path).fusion.bandwidth == 6.0

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

    def test_inline_comment(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[pls]\ncomponents = 7   # latent components\n")
        assert load_config(path).pls.components == 7

    @pytest.mark.parametrize("text", [
        "[features]\nneighbor_offsets = 6 0 0 0\n",
        "[features]\nneighbor_offsets = 3000000000 0\n",  # .hrmb stores int32
        "[training]\nseed = -1\n",
        "[voting]\nscales = 1 inf\n",
        "[voting]\nmin_score_fraction = 1.5\n",
        "[pipeline]\niou_threshold = nan\n",
    ])
    def test_invalid_value(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(InvalidInput):
            load_config(path)

    def test_features_section_is_the_patch_geometry(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[features]\npatch_size = 6\nneighbor_offsets = 6 0\n")
        geom = load_config(path).geometry
        assert (geom.patch_size, geom.neighbor_offsets) == (6, ((6, 0),))


class TestEveryKey:
    # A non-default value for every key, as the field it must land on.
    VALUES = {
        "pls": {"components": 7, "ridge": 0.25},
        "features": {"patch_size": 6, "neighbor_offsets": ((6, 0), (0, -3))},
        "training": {"n_pos": 20, "n_neg": 30, "seed": 5, "scale_normalize": True},
        "voting": {
            "scales": (0.5, 2.0),
            "stride": 3,
            "bin_size": 2,
            "smoothing": 0.5,
            "min_score_fraction": 0.2,
            "maxima_radius": 5,
        },
        "fusion": {"bandwidth": 3.5},
        "pipeline": {"iou_threshold": 0.4},
    }

    @staticmethod
    def ini(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return " ".join(TestEveryKey.ini(v) for v in value)
        return str(value)

    @staticmethod
    def owners(cfg, fusion):
        # [voting] fills two dataclasses: ScaleSet takes scales
        return {
            "pls": cfg.pls, "features": cfg.geometry, "training": cfg.training,
            "voting": cfg.voting, "scales": cfg.scales, "fusion": fusion,
            "pipeline": cfg,
        }

    def test_every_key_lands_on_its_field(self, tmp_path):
        assert {s: set(keys) for s, keys in self.VALUES.items()} == config._KEYS
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {self.ini(v)}\n" for k, v in keys.items())
            for section, keys in self.VALUES.items()
        ))
        cfg = load_config(path)
        parsed = self.owners(cfg, cfg.fusion)
        defaults = self.owners(load_config(None), FusionConfig())
        for section, keys in self.VALUES.items():
            for key, want in keys.items():
                owner = "scales" if key == "scales" else section
                assert getattr(defaults[owner], key) != want, (section, key)
                assert getattr(parsed[owner], key) == want, (section, key)


class TestPipelineConfig:
    @pytest.mark.parametrize("iou", [0.0, -0.1, 1.0001, float("nan")])
    def test_rejects_iou_threshold(self, iou):
        with pytest.raises(InvalidInput):
            PipelineConfig(iou_threshold=iou)

    def test_accepts_iou_threshold_one(self):
        assert PipelineConfig(iou_threshold=1.0).iou_threshold == 1.0

    @pytest.mark.parametrize("n_pos, patch_size", [(150, 6), (30, 1)])
    def test_components_bound(self, n_pos, patch_size):
        # voting models see n_pos centered rows of patch_size^2 * 26 columns
        kw = dict(
            training=config.TrainingConfig(n_pos=n_pos),
            geometry=PatchGeometry(patch_size, ()),
        )
        bound = min(n_pos - 1, patch_size * patch_size * 26)
        PipelineConfig(LatentConfig(components=bound), **kw).check_training()
        over = PipelineConfig(LatentConfig(components=bound + 1), **kw)
        with pytest.raises(InvalidInput, match=f"= {bound}, got {bound + 1}"):
            over.check_training()

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidInput):
            config.TrainingConfig(seed=-1)


class TestReadmeExamples:
    """The INI blocks of README.md load, and cover every key."""

    def blocks(self, tmp_path):
        texts = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        assert len(texts) == 2
        paths = [tmp_path / "cfg.ini", tmp_path / "synth.ini"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        return paths

    def test_config_block(self, tmp_path):
        path = self.blocks(tmp_path)[0]
        load_config(path)
        parser = config._read_ini(path, config._KEYS)
        keys = {(s, k) for s in parser.sections() for k in parser[s]}
        assert keys == {(s, k) for s, names in config._KEYS.items() for k in names}

    def test_synth_block(self, tmp_path):
        path = self.blocks(tmp_path)[1]
        load_synth_spec(path)
        parser = config._read_ini(path, {"synth": set(SynthSpec.__dataclass_fields__)})
        assert parser.sections() == ["synth"]
        assert set(parser["synth"]) == set(SynthSpec.__dataclass_fields__)
