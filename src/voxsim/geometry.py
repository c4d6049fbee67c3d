"""Planar rigid-body math (one shared rotation, ``Pose2.transform_xy``) and grid
warping primitives. Everything here is pure: poses, twists, masks and warps
are computed from immutable inputs.
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

    def compose(self, other: "Pose2") -> "Pose2":
        return Pose2(*self.transform_xy(other.x, other.y), self.yaw + other.yaw)

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
class Twist:
    """Planar body velocity: vx, vy in m/s and yaw rate in rad/s."""

    vx: float
    vy: float
    omega: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.vx, self.vy, self.omega)):
            raise ValueError("twist components must be finite")


# Below this the closed form V-matrix degenerates numerically; use the
# pure-translation limit instead.
SMALL_ANGLE = 1e-8


def exp_twist(tw: Twist, dt: float) -> Pose2:
    """Exponential map of a constant planar twist over a time interval.

    For |omega*dt| below the small-angle threshold the displacement reduces to
    pure translation; otherwise the rotation couples into the translation via
    the closed-form V matrix.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    theta = tw.omega * dt
    if abs(theta) < SMALL_ANGLE:
        return Pose2(tw.vx * dt, tw.vy * dt, theta)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    # V = (1/theta) * [[sin t, -(1-cos t)], [1-cos t, sin t]]
    a = sin_t / theta
    b = (1.0 - cos_t) / theta
    px = (a * tw.vx - b * tw.vy) * dt
    py = (b * tw.vx + a * tw.vy) * dt
    return Pose2(px, py, theta)


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


def _dest_source_coords(transform: Pose2, width: int, height: int, voxel_size: float):
    """Source-frame pixel coordinates of every destination cell center.

    ``transform`` maps source coordinates into the destination frame, so each
    destination cell samples the source at the inverse-transformed location.
    """
    xs = (np.arange(width) + 0.5) * voxel_size
    ys = (np.arange(height) + 0.5) * voxel_size
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    sx, sy = transform.inverse().transform_xy(gx, gy)
    return sx / voxel_size, sy / voxel_size


def warp_grid(src: np.ndarray, transform: Pose2, voxel_size: float,
              mode: str = "bilinear", fill=0.0) -> np.ndarray:
    """Resample a (W, H[, C]) grid under a planar rigid transform.

    Gather formulation: every destination cell reads the source at the
    inverse-transformed location, which cannot leave holes. Out-of-bounds
    destinations are filled with ``fill``.
    """
    src = np.asarray(src)
    if src.size == 0:
        raise ValueError("zero-sized grid")
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    width, height = src.shape[0], src.shape[1]
    sx, sy = _dest_source_coords(transform, width, height, voxel_size)

    if mode == "nearest":
        ix = np.floor(sx).astype(np.int64)
        iy = np.floor(sy).astype(np.int64)
        inside = (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
        out = np.full(src.shape, fill, dtype=src.dtype)
        out[inside] = src[ix[inside], iy[inside]]
        return out
    if mode == "bilinear":
        fx = sx - 0.5
        fy = sy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        wx = fx - x0
        wy = fy - y0
        vals = np.zeros(src.shape[:2] + src.shape[2:], dtype=float)
        if src.ndim == 3:
            wx = wx[..., None]
            wy = wy[..., None]
        for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            xi = x0 + dx
            yi = y0 + dy
            ok = (xi >= 0) & (xi < width) & (yi >= 0) & (yi < height)
            w = (wx if dx else 1.0 - wx) * (wy if dy else 1.0 - wy)
            contrib = np.zeros_like(vals)
            contrib[ok] = src[xi[ok], yi[ok]]
            vals += w * contrib
        return vals.astype(float)
    raise ValueError(f"unknown warp mode {mode!r}")


def visibility_mask(transform: Pose2, width: int, height: int, voxel_size: float) -> np.ndarray:
    """Binary mask of destination cells whose source sample lies inside the
    source field of view [0, W) x [0, H). Purely geometric."""
    if width <= 0 or height <= 0:
        raise ValueError("mask dimensions must be positive")
    sx, sy = _dest_source_coords(transform, width, height, voxel_size)
    return (sx >= 0) & (sx < width) & (sy >= 0) & (sy < height)


def random_mask(width: int, height: int, p: float, seed: int) -> np.ndarray:
    """Bernoulli(1 - p) mask: each cell is 1 with probability 1 - p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("masking ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)
    return rng.random((width, height)) >= p


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
