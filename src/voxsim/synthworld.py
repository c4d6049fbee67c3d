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
from .occupancy import (DEFAULT_CROP_DIMS, DEFAULT_VOXEL_SIZE, FINITE, NONNEGATIVE,
                        POSITIVE, GlobalMap, Rule, Settings, at_least, crop,
                        default_table, positive_dims, setting)

log = logging.getLogger(__name__)

BLOCKS = Rule(lambda v: positive_dims(v, 2), "two positive ints")
RECIPE = Rule(lambda v: v in ("straight", "curve", "plus", "grid"),
              "one of straight, curve, plus, grid")
STRAIGHT_MARGIN = 12.0     # meters left clear at each end of a straight trajectory
CURVE_MARGIN_ANGLE = 0.15  # radians left clear at each end of the curve's arc
ROOM_BAND = 8              # window rows per summed-area table in _no_room


@dataclass
class WorldSpec(Settings):
    recipe: str = setting("straight", RECIPE)
    extent: float = setting(120.0, POSITIVE)           # meters, square world side
    road_width: float = setting(10.8, POSITIVE)        # meters
    sidewalk_width: float = setting(2.0, NONNEGATIVE)
    voxel_size: float = setting(DEFAULT_VOXEL_SIZE, POSITIVE)
    z_dim: int = setting(16, at_least(1))
    radius: float = setting(40.0, FINITE)              # curve recipe
    blocks: tuple = setting((2, 2), BLOCKS)            # grid recipe
    obstacle_density: float = setting(0.0, NONNEGATIVE)  # per 100 m^2 of off-road area
    obstacle_height: float = setting(2.0, POSITIVE)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.blocks, list):
            self.blocks = tuple(self.blocks)
        super().__post_init__()
        cells = self.extent / self.voxel_size
        if not (math.isfinite(cells) and round(cells) >= 1):
            raise ValueError(f"voxel_size {self.voxel_size!r} gives no finite cell count >= 1")
        if self.recipe == "curve" and self.radius <= self.road_width:
            raise ValueError("curve radius must exceed the road width")

    @classmethod
    def from_json(cls, obj) -> "WorldSpec":
        return cls(**obj)


def _road_lines(extent: float, count: int) -> list:
    """Coordinates of the grid recipe's ``count`` evenly spaced road
    centerlines along one axis."""
    return [extent * (j + 1) / (count + 1) for j in range(count)]


def _centerline_distances(spec: WorldSpec, xs: np.ndarray):
    """Distance (meters) from the cell centers to the road centerline set,
    as two terms that broadcast to the (n, n) grid and whose minimum is that
    distance. For the straight, plus and grid recipes they are the 1-D
    distances to the lines across each axis, shaped (n, 1) and (1, n), so
    ``min(dx, dy) <= r`` is ``(dx <= r) | (dy <= r)`` and no (n, n) float
    array is made. For the curve recipe they are the (n, n) arc distance
    and inf."""
    e = spec.extent
    if spec.recipe == "curve":
        # quarter arc centered at the world corner, plus straight run-ins
        r = np.hypot((xs - e / 2.0)[:, None], (xs - e / 2.0)[None, :])
        return np.abs(r - spec.radius, out=r), np.inf
    lines_x, lines_y = {
        "straight": ([], [e / 2.0]),
        "plus": ([e / 2.0], [e / 2.0]),
        "grid": (_road_lines(e, spec.blocks[0]), _road_lines(e, spec.blocks[1])),
    }[spec.recipe]
    dx, dy = np.full(len(xs), np.inf), np.full(len(xs), np.inf)
    for d, lines in ((dx, lines_x), (dy, lines_y)):
        for c in lines:
            np.minimum(d, np.abs(xs - c), out=d)
    return dx[:, None], dy[None, :]


def _no_room(blocked: np.ndarray, half: int) -> bool:
    """Whether every window of rows and columns ``[i - half, i + half)``
    holds a blocked cell, cells off the plane counting as clear: the
    obstacle patch at each cell, and ``scipy.ndimage.maximum_filter``'s
    window of even size ``2 * half`` with ``mode="constant"``. The windows
    are read ROOM_BAND rows at a time, each band's sums from an int32
    summed-area table of the plane rows its windows cover, padded with clear
    cells to their reach. No plane-sized array is made, and the first band
    with a clear window ends the check."""
    n0, n1 = blocked.shape
    w = 2 * half
    for r0 in range(0, n0, ROOM_BAND):
        m = min(ROOM_BAND, n0 - r0)
        # the band's windows cover plane rows [r0 - half, r0 + m + half - 1)
        lo, hi = max(r0 - half, 0), min(r0 + m + half - 1, n0)
        rows = np.pad(blocked[lo:hi], ((lo - r0 + half, r0 + m + half - 1 - hi),
                                       (half, half)))
        sat = np.zeros((m + w, n1 + w + 1), dtype=np.int32)
        np.cumsum(rows, axis=0, dtype=np.int32, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        sums = sat[w:, w:w + n1] - sat[:m, w:w + n1] - sat[w:, :n1] + sat[:m, :n1]
        if not sums.all():
            return False
    return True


def generate_world(spec: WorldSpec) -> GlobalMap:
    """Deterministic ground-truth world in the default table: road at z=0
    flanked by sidewalks, free space above, and optional box obstacles off-road."""
    table = default_table()
    vox = spec.voxel_size
    n = int(round(spec.extent / vox))
    xs = (np.arange(n) + 0.5) * vox
    dx, dy = _centerline_distances(spec, xs)
    half_road = spec.road_width / 2.0
    outer = half_road + spec.sidewalk_width
    road = (dx <= half_road) | (dy <= half_road)
    sidewalk = ~road & ((dx <= outer) | (dy <= outer))
    del dx, dy  # the curve's (n, n) distances go before the labels come

    labels = np.full((n, n, spec.z_dim), table.ids_for("free")[0], dtype=np.uint8)
    ground = labels[:, :, 0]
    ground[...] = table.ids_for("ground")[0]
    ground[road] = table.road_id
    ground[sidewalk] = table.sidewalk_id

    if spec.obstacle_density > 0:
        rng = np.random.default_rng(spec.seed)
        # road and sidewalk are disjoint: count them, not a third plane
        off_road_area = float(n * n - np.count_nonzero(road)
                              - np.count_nonzero(sidewalk)) * vox * vox
        count = int(round(spec.obstacle_density * off_road_area / 100.0))
        obstacle_id = table.ids_for("obstacle")[0]
        zmax = min(int(math.ceil(spec.obstacle_height / vox)) + 1, spec.z_dim)
        half = int(round(1.0 / vox))
        # the loop below redraws until a footprint misses the road: without
        # one clear footprint (a window, clipped at the edges, whose
        # summed-area count of road and sidewalk cells is 0) it would never end
        if count and half and _no_room(road | sidewalk, half):
            raise ValueError(f"no {2 * half}x{2 * half}-cell obstacle footprint "
                             f"fits off road in a {n}x{n}-cell world")
        placed = 0
        while placed < count:
            cx, cy = rng.integers(0, n, size=2)
            x0, x1 = max(cx - half, 0), min(cx + half, n)
            y0, y1 = max(cy - half, 0), min(cy + half, n)
            patch = road[x0:x1, y0:y1] | sidewalk[x0:x1, y0:y1]
            if patch.any():
                continue
            labels[x0:x1, y0:y1, 1:zmax] = obstacle_id
            placed += 1

    return GlobalMap(labels, vox, Pose2(0.0, 0.0, 0.0), table)


def iter_frames(world: GlobalMap, poses, crop_dims=DEFAULT_CROP_DIMS,
                noise: float = 0.0, seed: int = 0):
    """Ego-centric crops of the world at each of the listed poses, one at a
    time, with optional label-flip noise: each voxel independently, with
    probability ``noise``, takes a category id drawn uniformly from the table
    (possibly its own). Frame i's draws follow frame i - 1's from one
    generator."""
    rng = np.random.default_rng(seed)
    lo, hi = world.extent
    ids = np.array(world.table.ids, dtype=np.uint8)
    for pose in poses:
        if not (lo[0] <= pose.x <= hi[0] and lo[1] <= pose.y <= hi[1]):
            log.warning("pose (%.1f, %.1f) outside world extent", pose.x, pose.y)
        frame = crop(world, pose, crop_dims)
        if noise > 0:
            # i.i.d. Bernoulli(noise) flips: a binomial count, then a uniform
            # subset of that size, each redrawn uniformly from the table
            size = frame.labels.size
            flips = rng.choice(size, rng.binomial(size, noise), replace=False,
                               shuffle=False)
            np.put(frame.labels, flips, ids[rng.integers(0, len(ids), size=len(flips))])
        yield frame


def sample_frames(world: GlobalMap, poses, crop_dims=DEFAULT_CROP_DIMS,
                  noise: float = 0.0, seed: int = 0):
    """``iter_frames`` as a list."""
    return list(iter_frames(world, poses, crop_dims, noise, seed))


def straight_trajectory(spec: WorldSpec, step: float = 3.2):
    """Axis-aligned poses along the centerline y = extent/2 at voxel-aligned
    spacing (exact nearest-neighbor round trips), STRAIGHT_MARGIN clear of
    each end. A grid with an even number of road rows runs no road there, so
    it uses the first of the two rows nearest that line."""
    y = spec.extent / 2.0
    rows = spec.blocks[1]
    if spec.recipe == "grid" and rows % 2 == 0:
        y = _road_lines(spec.extent, rows)[rows // 2 - 1]
    xs = np.arange(STRAIGHT_MARGIN, spec.extent - STRAIGHT_MARGIN, step)
    return [Pose2(float(x), y, 0.0) for x in xs]


def curve_trajectory(spec: WorldSpec, step: float = 3.0):
    """Poses along the curve recipe's arc centerline, CURVE_MARGIN_ANGLE clear
    of each end."""
    cx = cy = spec.extent / 2.0
    r = spec.radius
    arc_len = (math.pi / 2.0) * r
    n = max(int(arc_len / step), 2)
    angles = np.linspace(math.pi + CURVE_MARGIN_ANGLE, 1.5 * math.pi - CURVE_MARGIN_ANGLE, n)
    poses = []
    for a in angles:
        x = cx + r * math.cos(a)
        y = cy + r * math.sin(a)
        poses.append(Pose2(float(x), float(y), float(a + math.pi / 2.0)))
    return poses
