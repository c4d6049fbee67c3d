"""Planar rigid-body math (one shared rotation, ``Pose2.transform_xy``), the
one guarded normalisation of a direction (``unit``), and polyline arc
lengths, resampling and start headings; the module imports nothing from the
package. Poses are immutable. Grids are resampled in one place,
``occupancy.crop``; fusion's ``_pull_back`` is its exact inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Pose2:
    """Planar pose: translation in meters, yaw in radians, normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.yaw)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    def transform_xy(self, x, y):
        """Points (x, y) of this pose's frame in the parent frame; floats or
        arrays that broadcast together, as is each returned coordinate."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return self.x + c * x - s * y, self.y + s * x + c * y

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return Pose2(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.yaw)

    def transform_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.stack(self.transform_xy(p[..., 0], p[..., 1]), axis=-1)

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def unit(v, default):
    """``v / np.linalg.norm(v)``, or ``default`` itself when that norm is 0
    (a zero vector, or one whose squared norm underflows)."""
    n = np.linalg.norm(v)
    return v / n if n > 0 else default


def route_heading(route: np.ndarray) -> np.ndarray:
    """Unit direction of an (N, 2) polyline's first segment; +x when it has
    none or it has zero length."""
    east = np.array([1.0, 0.0])
    return unit(route[1] - route[0], east) if len(route) >= 2 else east


def arc_length(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length along an (N, 2) polyline, starting at 0.

    Each segment length is ``np.linalg.norm(step, axis=1)`` bit for bit:
    that norm is the root of each row's sum of squares, and a two-term sum
    is ``x + y`` whether a reduction over the row or an addition of the two
    columns takes it; the columns skip the reduction's per-row cost."""
    step = points[1:] - points[:-1]
    step *= step
    return np.concatenate([[0.0], np.cumsum(np.sqrt(step[:, 0] + step[:, 1]))])


def resample_polyline(points: np.ndarray, s: np.ndarray, targets) -> np.ndarray:
    """Linear interpolation of a polyline with cumulative arc length ``s`` at
    arc-length ``targets``: (M, 2) for an array of targets, (2,) for a scalar."""
    x = np.interp(targets, s, points[:, 0])
    out = np.empty(x.shape + (2,))
    out[..., 0] = x
    out[..., 1] = np.interp(targets, s, points[:, 1])
    return out
