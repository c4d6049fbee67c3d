"""Procedural analytic worlds and ego-centric frame sampling.

Worlds are built from strips and arcs with closed-form geometry, so every
downstream stage (fusion, topology, lanes, simulation) has an exact expected
answer. Frames are plain crops of the ground truth, optionally corrupted with
seeded label-flip noise.
"""

from __future__ import annotations

import math
import logging
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2
from .occupancy import (DEFAULT_CROP_DIMS, DEFAULT_VOXEL_SIZE, GlobalMap,
                        SemanticTable, crop, default_table)

log = logging.getLogger(__name__)


@dataclass
class WorldSpec:
    recipe: str = "straight"          # straight | curve | plus | grid
    extent: float = 120.0             # meters, square world side
    road_width: float = 10.8          # meters
    sidewalk_width: float = 2.0
    voxel_size: float = DEFAULT_VOXEL_SIZE
    z_dim: int = 16
    radius: float = 40.0              # curve recipe
    blocks: tuple = (2, 2)            # grid recipe
    obstacle_density: float = 0.0     # obstacles per 100 m^2 of off-road area
    obstacle_height: float = 2.0
    seed: int = 0

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        if self.extent <= 0 or self.road_width <= 0 or self.voxel_size <= 0:
            raise ValueError("infeasible world spec")
        if round(self.extent / self.voxel_size) < 1:
            raise ValueError(f"voxel_size {self.voxel_size!r} leaves the world no cells")
        if type(self.z_dim) is not int or self.z_dim < 1:
            raise ValueError(f"z_dim {self.z_dim!r} must be a positive int")
        if len(self.blocks) != 2 or not all(type(n) is int and n > 0 for n in self.blocks):
            raise ValueError(f"blocks {self.blocks!r} must be two positive ints")
        if self.recipe not in ("straight", "curve", "plus", "grid"):
            raise ValueError(f"unknown recipe {self.recipe!r}")
        if self.recipe == "curve" and self.radius <= self.road_width:
            raise ValueError("curve radius must exceed the road width")

    @classmethod
    def from_json(cls, obj) -> "WorldSpec":
        return cls(**obj)


def _road_lines(extent: float, count: int) -> list:
    """Coordinates of the grid recipe's ``count`` evenly spaced road
    centerlines along one axis."""
    return [extent * (j + 1) / (count + 1) for j in range(count)]


def _signed_distance_field(spec: WorldSpec, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Distance (meters) from each cell center to the road centerline set."""
    e = spec.extent
    if spec.recipe == "straight":
        return np.abs(gy - e / 2.0)
    if spec.recipe == "plus":
        return np.minimum(np.abs(gy - e / 2.0), np.abs(gx - e / 2.0))
    if spec.recipe == "curve":
        # quarter arc centered at the world corner, plus straight run-ins
        cx, cy = e / 2.0, e / 2.0
        r = np.hypot(gx - cx, gy - cy)
        arc = np.abs(r - spec.radius)
        return arc
    if spec.recipe == "grid":
        nx, ny = spec.blocks
        dists = [np.abs(gy - y) for y in _road_lines(e, ny)]
        dists += [np.abs(gx - x) for x in _road_lines(e, nx)]
        return np.minimum.reduce(dists)
    raise AssertionError(spec.recipe)


def generate_world(spec: WorldSpec, table: SemanticTable = None) -> GlobalMap:
    """Deterministic ground-truth world: road at z=0 flanked by sidewalks,
    free space above, and optional box obstacles off-road."""
    if table is None:
        table = default_table()
    vox = spec.voxel_size
    n = int(round(spec.extent / vox))
    xs = (np.arange(n) + 0.5) * vox
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    d = _signed_distance_field(spec, gx, gy)

    road = d <= spec.road_width / 2.0
    sidewalk = (~road) & (d <= spec.road_width / 2.0 + spec.sidewalk_width)

    labels = np.full((n, n, spec.z_dim), table.unassigned_id, dtype=np.uint8)
    ground = np.full((n, n), table.ids_for("ground")[0],
                     dtype=np.uint8)
    ground[road] = table.road_id
    ground[sidewalk] = table.sidewalk_id
    labels[:, :, 0] = ground
    free_id = table.ids_for("free")[0]
    labels[:, :, 1:] = free_id

    if spec.obstacle_density > 0:
        rng = np.random.default_rng(spec.seed)
        off_road_area = float((~road & ~sidewalk).sum()) * vox * vox
        count = int(round(spec.obstacle_density * off_road_area / 100.0))
        obstacle_id = table.ids_for("obstacle")[0]
        zmax = min(int(math.ceil(spec.obstacle_height / vox)) + 1, spec.z_dim)
        placed = 0
        while placed < count:
            cx, cy = rng.integers(0, n, size=2)
            half = int(round(1.0 / vox))
            x0, x1 = max(cx - half, 0), min(cx + half, n)
            y0, y1 = max(cy - half, 0), min(cy + half, n)
            patch = road[x0:x1, y0:y1] | sidewalk[x0:x1, y0:y1]
            if patch.any():
                continue
            labels[x0:x1, y0:y1, 1:zmax] = obstacle_id
            placed += 1

    return GlobalMap(labels, vox, Pose2(0.0, 0.0, 0.0), table)


def sample_frames(world: GlobalMap, trajectory, crop_dims=DEFAULT_CROP_DIMS,
                  noise: float = 0.0, seed: int = 0):
    """Ego-centric crops of the world along a trajectory, with optional
    per-voxel label-flip noise."""
    poses = trajectory.poses if hasattr(trajectory, "poses") else list(trajectory)
    rng = np.random.default_rng(seed)
    lo, hi = world.extent
    ids = np.array(world.table.ids, dtype=np.uint8)
    frames = []
    for pose in poses:
        if not (lo[0] <= pose.x <= hi[0] and lo[1] <= pose.y <= hi[1]):
            log.warning("pose (%.1f, %.1f) outside world extent", pose.x, pose.y)
        frame = crop(world, pose, crop_dims)
        if noise > 0:
            flip = rng.random(frame.labels.shape) < noise
            repl = ids[rng.integers(0, len(ids), size=frame.labels.shape)]
            frame.labels[flip] = repl[flip]
        frames.append(frame)
    return frames


def straight_trajectory(spec: WorldSpec, step: float = 3.2, margin: float = 12.0):
    """Axis-aligned poses along the centerline y = extent/2 at voxel-aligned
    spacing (exact nearest-neighbor round trips). A grid with an even number
    of road rows runs no road there, so it uses the first of the two rows
    nearest that line."""
    y = spec.extent / 2.0
    rows = spec.blocks[1]
    if spec.recipe == "grid" and rows % 2 == 0:
        y = _road_lines(spec.extent, rows)[rows // 2 - 1]
    xs = np.arange(margin, spec.extent - margin, step)
    return [Pose2(float(x), y, 0.0) for x in xs]


def curve_trajectory(spec: WorldSpec, step: float = 3.0, margin_angle: float = 0.15):
    """Poses along the curve recipe's arc centerline."""
    cx = cy = spec.extent / 2.0
    r = spec.radius
    arc_len = (math.pi / 2.0) * r
    n = max(int(arc_len / step), 2)
    angles = np.linspace(math.pi + margin_angle, 1.5 * math.pi - margin_angle, n)
    poses = []
    for a in angles:
        x = cx + r * math.cos(a)
        y = cy + r * math.sin(a)
        poses.append(Pose2(float(x), float(y), float(a + math.pi / 2.0)))
    return poses
