"""perfbench traces by wrapping functions by module name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hrm import pls, training
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
    ss = training.sample_patches([(img, [(10, 10, 30, 30)])], 8, 5, geom, seed=0)
    training.train_from_samples(ss, geom, pls.LatentConfig(components=3))
    p = geom.vector_length
    assert shapes == [(8, p), (13, p)] * geom.num_context
