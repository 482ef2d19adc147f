"""Metric tables: end-to-end metrics from untraced passes, per-layer
metrics from the traced pass.

A per-layer metric lists the wrapped targets it reads; it is ``None``
when one of them no longer exists in the program or its hook failed.
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "detect_img_per_s": ("images/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "model_bytes": ("bytes", "lower"),
    "recall": ("fraction", "higher"),
    "precision": ("fraction", "higher"),
    "eer": ("fraction", "higher"),
}


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "train_s": statistics.median(res["train_s"]),
        "detect_img_per_s": res["n_test"] / statistics.median(res["detect_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "model_bytes": res["model_bytes"],
        "recall": res["recall"],
        "precision": res["precision"],
        "eer": res["eer"],
    }


def _time(name):
    return lambda s: s["time"].get(name, 0.0)


def _self(name):
    return lambda s: s["self"].get(name, 0.0)


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _counter(name, scale=1.0):
    return lambda s: s["counters"].get(name, 0.0) * scale


def _ratio(num, den):
    return lambda s: s["counters"][num] / s["counters"][den]


_TRAIN_CH = ("hrm.training.compute_channels",)
_DET_CH = ("hrm.detect.compute_channels",)
_FITS = ("hrm.pls.bpls_fit", "hrm.pls.pls_fit")
_EIG = ("hrm.pls.dominant_eigenvectors",)
_CUBOID = ("hrm.detect.accumulate_cuboid",)
_FUSE = ("hrm.detect.fuse",)

# name -> (unit, better, phase, targets read, hook span names, value)
LAYERS = {
    "train.features.channels_s": (
        "s", "lower", "train", _TRAIN_CH, (), _time("features.compute_channels")),
    "train.features.channels_px": (
        "px", "lower", "train", _TRAIN_CH, ("features.compute_channels",),
        _counter("channels_px")),
    "train.training.sample_s": (
        "s", "lower", "train", ("hrm.cli.sample_patches",), (),
        _time("training.sample_patches")),
    "train.training.context_self_s": (
        "s", "lower", "train",
        ("hrm.cli.train_from_samples",) + _TRAIN_CH + _FITS, (),
        _self("training.train_from_samples")),
    "train.features.patch_vector_calls": (
        "count", "lower", "train", ("hrm.training.extract_patch_vector",), (),
        _calls("features.extract_patch_vector")),
    "train.pls.fit_s": ("s", "lower", "train", _FITS, (), _time("pls.fit")),
    "train.pls.fit_calls": ("count", "lower", "train", _FITS, (), _calls("pls.fit")),
    "train.pls.gram_gflop": (
        "GFLOP", "lower", "train", _FITS, ("pls.fit",), _counter("gram_flop", 1e-9)),
    "train.pls.eig_s": (
        "s", "lower", "train", _EIG, (), _time("pls.dominant_eigenvectors")),
    "train.pls.eig_calls": (
        "count", "lower", "train", _EIG, (), _calls("pls.dominant_eigenvectors")),
    "train.pls.eig_dim": (
        "count", "lower", "train", _EIG, ("pls.dominant_eigenvectors",),
        _counter("eig_dim")),
    "train.pls.fit_self_s": ("s", "lower", "train", _FITS + _EIG, (), _self("pls.fit")),
    "train.model_io.save_s": (
        "s", "lower", "train", ("hrm.cli.save_model",), (), _time("model_io.save_model")),
    "train.image_io.load_s": (
        "s", "lower", "train", ("hrm.dataset.load_image",), (),
        _time("image_io.load_image")),
    "train.cli.cpu_per_wall": (
        "ratio", "lower", "train", (), (), lambda s: s["cpu_per_wall"]),
    "detect.model_io.load_s": (
        "s", "lower", "detect", ("hrm.cli.load_model",), (), _time("model_io.load_model")),
    "detect.image_io.load_s": (
        "s", "lower", "detect", ("hrm.cli.load_image",), (), _time("image_io.load_image")),
    "detect.detect.image_s": (
        "s", "lower", "detect", ("hrm.cli.detect",), (), _time("detect.detect")),
    "detect.features.channels_s": (
        "s", "lower", "detect", _DET_CH, (), _time("features.compute_channels")),
    "detect.votes_self_s": (
        "s", "lower", "detect",
        ("hrm.detect.compute_patch_votes", "hrm.pls.predict") + _DET_CH, (),
        _self("detect.compute_patch_votes")),
    "detect.features.patch_vector_calls": (
        "count", "lower", "detect", ("hrm.detect.extract_patch_vector",), (),
        _calls("features.extract_patch_vector")),
    "detect.patches": (
        "count", "lower", "detect", ("hrm.detect.compute_patch_votes",),
        ("detect.compute_patch_votes",), _counter("patches")),
    "detect.pls.predict_s": (
        "s", "lower", "detect", ("hrm.pls.predict",), (), _time("pls.predict")),
    "detect.pls.predict_rows": (
        "count", "lower", "detect", ("hrm.pls.predict",), ("pls.predict",),
        _counter("predict_rows")),
    "detect.voting.accumulate_s": (
        "s", "lower", "detect", _CUBOID, (), _time("voting.accumulate_cuboid")),
    "detect.voting.votes_cast": (
        "count", "lower", "detect", _CUBOID, ("voting.accumulate_cuboid",),
        _counter("votes_cast")),
    "detect.voting.dropped_frac": (
        "fraction", "lower", "detect", _CUBOID, ("voting.accumulate_cuboid",),
        _ratio("votes_dropped", "votes_cast")),
    "detect.voting.mean_gate": (
        "fraction", "higher", "detect", _CUBOID, ("voting.accumulate_cuboid",),
        _ratio("gate_mass", "patches_accumulated")),
    "detect.voting.maxima_s": (
        "s", "lower", "detect", ("hrm.detect.find_maxima",), (),
        _time("voting.find_maxima")),
    "detect.voting.hypotheses": (
        "count", "lower", "detect", ("hrm.detect.find_maxima",),
        ("voting.find_maxima",), _counter("hypotheses")),
    "detect.fusion.fuse_s": ("s", "lower", "detect", _FUSE, (), _time("fusion.fuse")),
    "detect.fusion.npmi_calls": (
        "count", "lower", "detect", ("hrm.fusion.npmi",), (), _calls("fusion.npmi")),
    "detect.fusion.kept_frac": (
        "fraction", "lower", "detect", _FUSE, ("fusion.fuse",),
        _ratio("fuse_out", "fuse_in")),
    "detect.cli.cpu_per_wall": (
        "ratio", "lower", "detect", (), (), lambda s: s["cpu_per_wall"]),
    "eval.evaluate_s": (
        "s", "lower", "eval", ("hrm.cli.evaluate",), (), _time("evaluate.evaluate")),
    "trace.overhead_frac": ("fraction", "lower", None, (), (), None),
}


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer values from a traced pass and an untraced pass."""
    missing = set(traced.get("missing", ()))
    out = {}
    for name, (_, _, phase, targets, hooked, value) in LAYERS.items():
        if phase is None:
            continue
        snap = traced["layers"].get(phase)
        if snap is None or missing.intersection(targets) or set(hooked).intersection(
            snap["hook_errors"]
        ):
            out[name] = None
            continue
        try:
            out[name] = value(snap)
        except (KeyError, ZeroDivisionError):
            out[name] = None

    def wall(res):
        return sum(res["train_s"]) + sum(res["detect_s"]) + res["eval_s"]

    out["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    return out
