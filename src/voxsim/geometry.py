"""Planar rigid-body math (one shared rotation, ``Pose2.transform_xy``),
timestamped trajectories and their JSON files, and polyline arc lengths.
Poses are immutable. Grids are resampled in one place, ``occupancy.crop``;
fusion's ``_pull_back`` is its exact inverse.
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


@dataclass(frozen=True)
class Trajectory:
    """Timestamped pose sequence; timestamps strictly increasing."""

    samples: tuple  # of (time, Pose2)

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("trajectory needs at least one sample")
        times = [t for t, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("timestamps must be strictly increasing")

    @property
    def poses(self):
        return [p for _, p in self.samples]

    def __len__(self):
        return len(self.samples)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory from a JSON array of {t, x, y, yaw} records, each
    value a finite number."""
    from .occupancy import FINITE, load_json_input  # occupancy imports this module

    def sample(r):
        t, x, y, yaw = (FINITE.check(k, r[k]) for k in ("t", "x", "y", "yaw"))
        return t, Pose2(x, y, yaw)

    return load_json_input(path, lambda records: Trajectory(tuple(map(sample, records))))


def save_trajectory(traj: Trajectory, path) -> str:
    """Write ``traj`` as JSON; the file's sha256."""
    from .occupancy import save_json  # occupancy imports this module

    return save_json([{"t": t, "x": p.x, "y": p.y, "yaw": p.yaw} for t, p in traj.samples], path)


def arc_length(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length along an (N, 2) polyline, starting at 0."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample_polyline(points: np.ndarray, s: np.ndarray, targets) -> np.ndarray:
    """Linear interpolation of a polyline with cumulative arc length ``s`` at
    arc-length ``targets``: (M, 2) for an array of targets, (2,) for a scalar."""
    x = np.interp(targets, s, points[:, 0])
    y = np.interp(targets, s, points[:, 1])
    return np.stack([x, y], axis=-1)
