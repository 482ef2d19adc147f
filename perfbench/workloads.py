"""Benchmark workloads: synthetic scene specs and pipeline configs.

Each workload is a train split, a test split and one INI config.  The
program sees only the files written from these: two ``[synth]`` specs and
the pipeline config.

Scenes come from the seeds of the criterion-6 acceptance test: every
workload trains on the ``hrm synth`` seed-600 scenes (whose median box is
the scale-1 template, so the detection scales 0.75-1.5 cover the test
objects) and detects on seed-1600 scenes of its own spec.  The benchmark
seed is the patch-sampling seed of ``hrm train``.  Fixed scenes keep the
detection work, and so its time and precision, the same across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SCALES4 = "0.75 1 1.25 1.5"
SCALES7 = "0.75 0.875 1 1.125 1.25 1.375 1.5"
TRAIN_SEED = 600  # criterion-6 training scenes
TEST_SEED = 1600  # criterion-6 test scenes


@dataclass(frozen=True)
class Scenes:
    """One ``hrm synth`` spec."""

    scenes: int
    size: int = 224
    min_objects: int = 1
    max_objects: int = 3
    scales: str = SCALES4
    noise: float = 0.01

    def ini(self) -> str:
        return (
            "[synth]\n"
            f"scenes = {self.scenes}\n"
            f"canvas_width = {self.size}\n"
            f"canvas_height = {self.size}\n"
            f"noise = {self.noise}\n"
            f"min_objects = {self.min_objects}\n"
            f"max_objects = {self.max_objects}\n"
            f"scales = {self.scales}\n"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    train: Scenes
    test: Scenes
    patch_size: int
    components: int
    n_samples: int  # n_pos = n_neg
    stride: int
    offsets: str | None = None  # None = the 16 default offsets
    det_scales: str = SCALES4
    min_score_fraction: float = 0.05
    maxima_radius: int = 3

    def config(self, sample_seed: int) -> str:
        features = f"[features]\npatch_size = {self.patch_size}\n"
        if self.offsets is not None:
            features += f"neighbor_offsets = {self.offsets}\n"
        return (
            f"[pls]\ncomponents = {self.components}\nridge = 1e-10\n\n"
            + features
            + "\n[training]\n"
            f"n_pos = {self.n_samples}\nn_neg = {self.n_samples}\n"
            f"seed = {sample_seed}\nscale_normalize = true\n\n"
            "[voting]\n"
            f"scales = {self.det_scales}\n"
            f"stride = {self.stride}\n"
            f"min_score_fraction = {self.min_score_fraction}\n"
            f"maxima_radius = {self.maxima_radius}\n"
        )

    def tiny(self) -> "Workload":
        """A few-second version of the workload, for the self-test."""
        return replace(
            self,
            train=replace(self.train, scenes=4),
            test=replace(self.test, scenes=1),
            patch_size=4,
            components=min(self.components, 4),
            n_samples=100,
        )


TRAIN_SCENES = Scenes(30)

WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-6 setup: detection is almost all per-patch vote
        # computation.
        Workload(
            "c6",
            train=TRAIN_SCENES,
            test=Scenes(3),
            patch_size=6,
            components=8,
            n_samples=2000,
            stride=2,
        ),
        # Paper latent size c=100 at ps 8: eigensolve and Gram dominate
        # training.  Five contexts, not 17, so that a run fits its time.
        Workload(
            "wide",
            train=TRAIN_SCENES,
            test=Scenes(8),
            patch_size=8,
            components=100,
            n_samples=3000,
            stride=4,
            offsets="8 0 -8 0 0 8 0 -8",
        ),
        # Many objects and 7 scales: NPMI fusion is half of detection.
        Workload(
            "crowd",
            train=TRAIN_SCENES,
            test=Scenes(6, size=320, min_objects=4, max_objects=8),
            patch_size=6,
            components=8,
            n_samples=1000,
            stride=4,
            offsets="6 0 -6 0 0 6 0 -6",
            det_scales=SCALES7,
            min_score_fraction=0.01,
            maxima_radius=2,
        ),
    )
}

# Criterion 6 of the acceptance suite, through the CLI: the c6 workload on
# all 20 test scenes with patch-sampling seed 0.
GATE = replace(WORKLOADS["c6"], name="gate", test=Scenes(20))
GATE_SAMPLE_SEED = 0
GATE_FLOOR = 0.9  # recall and precision at IoU 0.5
