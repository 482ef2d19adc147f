"""perfbench traces by wrapping functions by module name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hrm import detect, pls, training, voting
from hrm.features import PatchGeometry

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
TARGETS = sorted({t[0] for t in _spans.SPANS} | {t[0] for t in _spans.COUNTS})


@pytest.mark.parametrize("target", TARGETS)
def test_wrap_target_is_callable(target):
    module_name, _, attr = target.rpartition(".")
    assert callable(getattr(importlib.import_module(module_name), attr, None)), target


def test_training_fits_pass_their_rows_first(monkeypatch):
    # the pls.fit span's Gram counter reads args[0].shape of each fit
    shapes = []
    fit = pls.bpls_fit

    def recorded(*args, **kwargs):
        shapes.append(args[0].shape if isinstance(args[0], np.ndarray) else None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(pls, "bpls_fit", recorded)
    geom = PatchGeometry(5, ((5, 0), (0, 5)))
    img = np.random.default_rng(0).random((40, 40))
    ss = training.sample_patches([(img, [(10, 10, 30, 30)])], geom,
                                 training.TrainingConfig(8, 5, seed=0))
    training.train_from_samples(ss, pls.LatentConfig(components=3))
    p = geom.vector_length
    assert shapes == [(8, p), (13, p)] * geom.num_context


@pytest.fixture(scope="module")
def trained():
    """A bank trained on one image, and that image."""
    geom = PatchGeometry(5, ((5, 0), (0, 5)))
    img = np.random.default_rng(0).random((40, 40))
    ss = training.sample_patches([(img, [(10, 10, 30, 30)])], geom,
                                 training.TrainingConfig(30, 30, seed=0))
    return training.train_from_samples(ss, pls.LatentConfig(components=3)), img


@pytest.mark.parametrize("label_shift", [0.0, -1e3], ids=["gated", "empty"])
def test_vote_hooks_read_the_field(trained, label_shift):
    """The _patches and _cuboid hooks run, unmodified, on the field detection
    returns: it holds only the gated-on patches, and is empty when none is."""
    trained_bank, img = trained
    intercepts = trained_bank.intercepts.copy()
    intercepts[:, 2] += label_shift
    bank = training.ModelBank(trained_bank.coefficients, intercepts,
                              trained_bank.geometry)
    cfg = detect.VotingConfig(stride=2, scales=(1.0, 1.25))
    field = detect.compute_patch_votes(img, bank, cfg)
    cuboid = voting.accumulate_cuboid(field, cfg, (40, 40), 4, 0.0)

    tracer = _spans.Tracer()
    _spans._patches(tracer, (img, bank, cfg), {}, field)
    _spans._cuboid(tracer, (field, cfg, (40, 40), 4, 0.0), {}, cuboid)
    counters = tracer.snapshot()["counters"]
    assert counters["patches"] == counters["patches_accumulated"] == len(field)
    assert counters["votes_cast"] == len(field) * bank.geometry.num_context * 2
    if label_shift:
        assert len(field) == 0
    else:  # some patches gated off, and mean_gate is the gated-on patches' mean
        assert 0 < len(field) < len(range(0, 36, 2)) ** 2
        mean_gate = counters["gate_mass"] / counters["patches_accumulated"]
        assert mean_gate == pytest.approx(field.weights.mean())
