"""Documented raises on bad input, one row per library entry point."""

from __future__ import annotations

import numpy as np
import pytest

from duinnet import metrics, tensor as T
from duinnet.geometry import (GeometryError, PointCloud, TriMesh, add_gaussian_noise,
                              hidden_point_removal, poisson_disk_sample)
from duinnet.nn import Adam
from duinnet.tensor import Tensor


def _triangle() -> TriMesh:
    return TriMesh(np.eye(3), [[0, 1, 2]])


# id: (call, exception type, message pattern)
_RAISES = {
    "backward-non-scalar": (lambda: Tensor(np.zeros(3), requires_grad=True).backward(),
                            ValueError, r"scalar output, got shape \(3,\)"),
    "conv2d-channel-mismatch": (lambda: T.conv2d(Tensor(np.zeros((4, 4, 3))),
                                                 Tensor(np.zeros((3, 3, 2, 5))), None),
                                T.DimensionError, "channel mismatch"),
    "default-dtype-int32": (lambda: T.set_default_dtype(np.int32),
                            ValueError, "unsupported dtype int32"),
    "adam-mixed-dtypes": (lambda: Adam([Tensor(np.zeros(2, np.float32), requires_grad=True),
                                        Tensor(np.zeros(2, np.float64), requires_grad=True)]),
                          ValueError, "mixed dtypes"),
    "summarize-empty": (lambda: metrics.summarize([], []), ValueError, "empty evaluation batch"),
    "trimesh-bad-shapes": (lambda: TriMesh(np.zeros((3, 2)), [[0, 1, 2]]),
                           GeometryError, r"got \(3, 2\), \(1, 3\)"),
    "trimesh-face-out-of-range": (lambda: TriMesh(np.eye(3), [[0, 1, 3]]),
                                  GeometryError, "face index out of range"),
    "poisson-zero-points": (lambda: poisson_disk_sample(_triangle(), 0),
                            ValueError, "n must be >= 1"),
    "noise-negative-sigma": (lambda: add_gaussian_noise(PointCloud(np.zeros((2, 3))), -1),
                             ValueError, "sigma must be >= 0"),
    # one point 5e-13 from the viewpoint: its bounding sphere has radius 0
    "hpr-points-at-viewpoint": (lambda: hidden_point_removal(PointCloud([[5e-13, 0, 0]]),
                                                             np.zeros(3)),
                                GeometryError, "coincident with the viewpoint"),
}


@pytest.mark.parametrize("case", list(_RAISES), ids=list(_RAISES))
def test_bad_input_raises_the_documented_error(case):
    call, exc, pattern = _RAISES[case]
    before = T.default_dtype()
    with pytest.raises(exc, match=pattern):
        call()
    assert T.default_dtype() is before
