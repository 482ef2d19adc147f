"""perfbench traces by wrapping functions by module name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
