import re
from pathlib import Path

import numpy as np
import pytest

from hrm import config
from hrm.config import PipelineConfig, SynthSpec, load_config, load_synth_spec
from hrm.detect import VotingConfig
from hrm.errors import InvalidInput, InvalidSpec, ParseError
from hrm.features import PatchGeometry
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
        assert cfg.voting.scales == (0.75, 1.0, 1.25, 1.5)
        assert cfg.voting.stride == 1

    def test_dataclass_defaults_match_loader(self):
        assert load_config(None) == PipelineConfig()


class TestFileParsing:
    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[pls]\ncomponents = 8\nridge = 0.5\n"
            "[features]\npatch_size = 6\nneighbor_offsets = 6 0 -6 0\n"
            "[training]\nn_pos = 100\nn_neg = 50\nseed = 9\n"
            "[voting]\nscales = 0.5 1.0 2.0\nstride = 2\nmaxima_radius = 2\n"
        )
        cfg = load_config(path)
        assert cfg.pls.components == 8 and cfg.pls.ridge == 0.5
        assert cfg.geometry.patch_size == 6
        assert cfg.geometry.neighbor_offsets == ((6, 0), (-6, 0))
        assert cfg.training.n_pos == 100
        assert cfg.voting.scales == (0.5, 1.0, 2.0)
        assert cfg.voting.stride == 2 and cfg.voting.maxima_radius == 2

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

    def test_retired_section_is_unknown(self, tmp_path):
        # [fusion] is gone: even empty, it is refused rather than ignored
        path = tmp_path / "cfg.ini"
        path.write_text("[fusion]\n")
        with pytest.raises(ParseError, match=r"unknown config section \[fusion\]"):
            load_config(path)

    def test_retired_pipeline_section_is_unknown(self, tmp_path):
        # the match IoU is a constant of evaluate, so no key needs [pipeline]
        path = tmp_path / "cfg.ini"
        path.write_text("[pipeline]\n")
        with pytest.raises(ParseError, match=r"unknown config section \[pipeline\]"):
            load_config(path)

    def test_retired_iou_threshold_is_unknown(self, tmp_path):
        # refused by name, not range-checked
        path = tmp_path / "cfg.ini"
        path.write_text("[pipeline]\niou_threshold = nan\n")
        with pytest.raises(ParseError, match=r"'iou_threshold' in section \[pipeline\]"):
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
            "min_score_fraction": 0.2,
            "maxima_radius": 5,
        },
    }

    @staticmethod
    def ini(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return " ".join(TestEveryKey.ini(v) for v in value)
        return str(value)

    @staticmethod
    def owners(cfg):
        return {
            "pls": cfg.pls, "features": cfg.geometry, "training": cfg.training,
            "voting": cfg.voting,
        }

    def test_every_key_lands_on_its_field(self, tmp_path):
        assert {s: set(keys) for s, keys in self.VALUES.items()} == config._KEYS
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {self.ini(v)}\n" for k, v in keys.items())
            for section, keys in self.VALUES.items()
        ))
        cfg = load_config(path)
        parsed = self.owners(cfg)
        defaults = self.owners(load_config(None))
        for section, keys in self.VALUES.items():
            for key, want in keys.items():
                assert getattr(defaults[section], key) != want, (section, key)
                assert getattr(parsed[section], key) == want, (section, key)


class TestPipelineConfig:
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


class TestIntegerSettings:
    """Each integer setting refuses a float or a bool with its class's own
    error, and takes a NumPy integer."""

    @pytest.mark.parametrize("make, error", [
        (lambda: VotingConfig(stride=1.5), InvalidInput),
        (lambda: VotingConfig(stride=2.0), InvalidInput),
        (lambda: VotingConfig(maxima_radius=2.5), InvalidInput),
        (lambda: VotingConfig(stride=True), InvalidInput),
        (lambda: PatchGeometry(4.5), InvalidInput),
        (lambda: PatchGeometry(True, ()), InvalidInput),
        (lambda: PatchGeometry(5, ((4.7, 0),)), InvalidInput),
        (lambda: PatchGeometry(5, ((0, True),)), InvalidInput),
        (lambda: LatentConfig(components=2.5), InvalidInput),
        (lambda: config.TrainingConfig(n_pos=2.5), InvalidInput),
        (lambda: config.TrainingConfig(n_neg=3.0), InvalidInput),
        (lambda: config.TrainingConfig(seed=0.5), InvalidInput),
        (lambda: SynthSpec(scenes=2.5), InvalidSpec),
        (lambda: SynthSpec(canvas_width=224.5), InvalidSpec),
        (lambda: SynthSpec(canvas_height=True), InvalidSpec),
        (lambda: SynthSpec(min_objects=0.5), InvalidSpec),
        (lambda: SynthSpec(max_objects=3.5), InvalidSpec),
    ])
    def test_refuses_non_integers(self, make, error):
        with pytest.raises(error, match="must be an integer"):
            make()

    def test_takes_numpy_integers(self):
        i = np.int64
        assert VotingConfig(stride=i(2), maxima_radius=np.int32(3)).stride == 2
        geom = PatchGeometry(np.int32(5), ((i(5), np.int16(-2)),))
        assert geom.neighbor_offsets == ((5, -2),)
        assert all(type(v) is int for v in geom.neighbor_offsets[0])
        assert config.TrainingConfig(n_pos=i(4), n_neg=i(4), seed=i(0)).n_pos == 4
        assert SynthSpec(scenes=i(2), canvas_width=i(64), max_objects=i(1)).scenes == 2


class TestRealSettings:
    """Each real-valued setting refuses a bool, a string or a value out of its
    range with its class's own error, and takes a NumPy float; a bool
    setting refuses anything but a bool."""

    @pytest.mark.parametrize("make, error", [
        (lambda: LatentConfig(ridge=True), InvalidInput),
        (lambda: LatentConfig(ridge="0.5"), InvalidInput),
        (lambda: LatentConfig(ridge=float("nan")), InvalidInput),
        (lambda: VotingConfig(min_score_fraction=True), InvalidInput),
        (lambda: VotingConfig(min_score_fraction="0.1"), InvalidInput),
        (lambda: SynthSpec(noise=True), InvalidSpec),
        (lambda: SynthSpec(noise="0.01"), InvalidSpec),
        (lambda: SynthSpec(noise=float("inf")), InvalidSpec),
        (lambda: SynthSpec(scales=("1",)), InvalidSpec),
        (lambda: SynthSpec(scales=(True,)), InvalidSpec),
    ], ids=["ridge-True", "ridge-str", "ridge-nan", "min_score_fraction-True",
            "min_score_fraction-str", "noise-True", "noise-str", "noise-inf",
            "scales-str", "scales-True"])
    def test_refuses_non_reals(self, make, error):
        with pytest.raises(error, match="must be a finite real number"):
            make()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_scale_normalize_refuses_non_bools(self, value):
        with pytest.raises(InvalidInput, match="scale_normalize must be a bool"):
            config.TrainingConfig(scale_normalize=value)

    def test_takes_numpy_values(self):
        assert LatentConfig(ridge=np.float32(0.5)).ridge == 0.5
        assert VotingConfig(min_score_fraction=np.float64(0.1)).min_score_fraction == 0.1
        assert SynthSpec(noise=np.float64(0.0)).noise == 0.0
        assert config.TrainingConfig(scale_normalize=np.bool_(True)).scale_normalize


class TestReadmeExamples:
    """The INI blocks of README.md load and cover every key, and its Python
    block runs as written."""

    def test_library_block(self, capsys):
        (text,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        exec(compile(text, str(README), "exec"), {})
        assert capsys.readouterr().out  # at least one detection printed

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
