"""Span and counter tracing by wrapping the program's functions from outside.

The modules bind names with ``from ... import``, so a function is wrapped
at every module attribute through which it is looked up.  Modules are
resolved with ``importlib`` because ``hrm.detect`` is also the name of a
function re-exported by ``hrm/__init__.py``.

Spans nest per thread: a span's self time is its duration minus the time
its traced children took.  Times are summed over threads.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self):
        with self._lock:
            self.time = defaultdict(float)  # span name -> summed duration
            self.child = defaultdict(float)  # span name -> summed child time
            self.calls = defaultdict(int)
            self.counters = defaultdict(float)
            self.hook_errors = set()  # names whose hook raised

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "time": dict(self.time),
                "self": {k: self.time[k] - self.child[k] for k in self.time},
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "hook_errors": sorted(self.hook_errors),
            }

    def add(self, name: str, value: float = 1.0):
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float):
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hook(self, name, hook, args, kwargs, result):
        try:
            hook(self, args, kwargs, result)
        except Exception:  # a changed signature must not fail the run
            with self._lock:
                self.hook_errors.add(name)

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` so each call records a span, then runs ``hook``."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.time[name] += dt
                    self.child[name] += child
                    self.calls[name] += 1
            if hook is not None:
                self._hook(name, hook, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` so each call only bumps a counter (no span)."""

        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class Patches:
    """Install wrappers on module attributes; ``restore`` undoes them all.

    A target that does not exist is recorded in ``missing`` and skipped.
    """

    def __init__(self):
        self._saved = []
        self.missing = set()

    def wrap(self, target: str, make):
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.add(target)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.add(target)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# --- hooks: counters read from arguments and results -----------------------


def _channels_px(t, args, kwargs, result):
    t.add("channels_px", args[0].shape[0] * args[0].shape[1])


def _gram(t, args, kwargs, result):
    n, p = args[0].shape
    t.add("gram_flop", 2.0 * n * p * p)


def _eig_dim(t, args, kwargs, result):
    t.peak("eig_dim", args[0].shape[0])


def _predict_rows(t, args, kwargs, result):
    x = args[1]
    t.add("predict_rows", x.shape[0] if x.ndim == 2 else 1)


def _patches(t, args, kwargs, result):
    t.add("patches", len(result))


def _cuboid(t, args, kwargs, result):
    votes = args[0]
    r = len(votes)
    mplus1 = len(votes[0].votes) if r else 0
    levels = len(result.level_mass)
    t.add("votes_cast", r * mplus1 * levels)
    t.add("votes_dropped", float(result.dropped.sum()))
    t.add("patches_accumulated", r)
    if levels:
        t.add("gate_mass", float(result.level_mass[0]))


def _hypotheses(t, args, kwargs, result):
    t.add("hypotheses", len(result))


def _fuse(t, args, kwargs, result):
    t.add("fuse_in", len(args[0]))
    t.add("fuse_out", len(result))


# (target, span or counter name, hook); a None name means count only.
SPANS = (
    ("hrm.cli.sample_patches", "training.sample_patches", None),
    ("hrm.cli.train_from_samples", "training.train_from_samples", None),
    ("hrm.cli.save_model", "model_io.save_model", None),
    ("hrm.cli.load_model", "model_io.load_model", None),
    ("hrm.cli.load_image", "image_io.load_image", None),
    ("hrm.dataset.load_image", "image_io.load_image", None),
    ("hrm.cli.detect", "detect.detect", None),
    ("hrm.cli.evaluate", "evaluate.evaluate", None),
    ("hrm.training.compute_channels", "features.compute_channels", _channels_px),
    ("hrm.detect.compute_channels", "features.compute_channels", _channels_px),
    ("hrm.detect.compute_patch_votes", "detect.compute_patch_votes", _patches),
    ("hrm.detect.accumulate_cuboid", "voting.accumulate_cuboid", _cuboid),
    ("hrm.detect.find_maxima", "voting.find_maxima", _hypotheses),
    ("hrm.detect.fuse", "fusion.fuse", _fuse),
    ("hrm.pls.bpls_fit", "pls.fit", _gram),
    ("hrm.pls.pls_fit", "pls.fit", _gram),
    ("hrm.pls.dominant_eigenvectors", "pls.dominant_eigenvectors", _eig_dim),
    ("hrm.pls.predict", "pls.predict", _predict_rows),
)
COUNTS = (
    ("hrm.training.extract_patch_vector", "features.extract_patch_vector"),
    ("hrm.detect.extract_patch_vector", "features.extract_patch_vector"),
    ("hrm.fusion.npmi", "fusion.npmi"),
)


def install(tracer: Tracer) -> Patches:
    patches = Patches()
    for target, name, hook in SPANS:
        patches.wrap(target, lambda fn, n=name, h=hook: tracer.span(n, fn, h))
    for target, name in COUNTS:
        patches.wrap(target, lambda fn, n=name: tracer.count(n, fn))
    return patches
