"""Hough-regression object detection.

Linear voting regressors fitted by (Bridge) partial least squares cast
probabilistic Hough votes at multiple scales in a single pass; duplicate
hypotheses across scales are removed by normalized pointwise mutual
information.
"""

from .detect import DetectionResult, VotingConfig
from .errors import HRMError
from .features import PatchGeometry, compute_channels
from .fusion import FusionConfig, fuse, npmi
from .pls import LatentConfig, RegressionModel, bpls_fit, pls_fit, predict
from .training import ModelBank, sample_patches, train_from_samples
from .voting import Hypothesis, ScaleSet, accumulate_cuboid, find_maxima

__all__ = [
    "DetectionResult",
    "FusionConfig",
    "HRMError",
    "Hypothesis",
    "LatentConfig",
    "ModelBank",
    "PatchGeometry",
    "RegressionModel",
    "ScaleSet",
    "VotingConfig",
    "accumulate_cuboid",
    "bpls_fit",
    "compute_channels",
    "find_maxima",
    "fuse",
    "npmi",
    "pls_fit",
    "predict",
    "sample_patches",
    "train_from_samples",
]

__version__ = "0.1.0"
