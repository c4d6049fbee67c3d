"""Layout heatmaps, augmentation, and spatially-conditioned agent spawning.

Spawning asks a layout source for vehicle positions around an anchor pose.
A layout source has one method, ``sample(anchor, half, rng)``: it receives
the anchor pose and the half-extent (x, y) in meters of the anchor's
footprint, and returns an ``AgentLayout`` in the footprint frame, origin at
its corner. ``FileLayoutSource`` proposes the layout decoded from a heatmap
file; ``ProceduralLayoutSource`` draws lane samples of the route network.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2
from .occupancy import (POSITIVE, GridFormatError, OccupancyGrid, Settings,
                        container_floats, read_container, setting, write_hashed)
from .routing import RouteNetwork

log = logging.getLogger(__name__)

HEATMAP_SIZE = 200
KERNEL_RADIUS = 3          # cells; also the NMS suppression radius
PEAK_THRESHOLD = 0.5       # |heatmap| a decoded peak must exceed
KERNEL_SIGMA = 1.0         # unit-sigma Gaussian, truncated at the radius
MAX_VEHICLES = 10
MIN_SPACING = 8.0          # meters between procedurally proposed vehicles
P_STATIC = 0.2             # share of procedurally proposed vehicles parked
SNAP_DIST = 5.0            # meters from a proposal to its lane sample
ROUTE_BLOCK = 32           # route segments under one bounding circle


@dataclass
class LayoutEntry:
    x: float               # meters, local frame
    y: float
    static: bool = False


@dataclass
class AgentLayout:
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


@dataclass
class AgentAsset(Settings):
    length: float = setting(4.5, POSITIVE)
    width: float = setting(1.9, POSITIVE)
    height: float = setting(1.6, POSITIVE)


DEFAULT_ASSETS = (
    AgentAsset(4.5, 1.9, 1.6),
    AgentAsset(5.2, 2.0, 1.9),
    AgentAsset(4.2, 1.8, 1.5),
)


@dataclass(eq=False)
class Agent:
    position: np.ndarray           # (2,) world meters
    heading: np.ndarray            # unit vector
    speed: float
    route: np.ndarray              # (N, 2) world meters
    target: np.ndarray             # (2,)
    asset: AgentAsset
    static: bool = False
    route_s: float = 0.0           # arc-length progress along the route
    lane_id: int = -1
    lc_cooldown: int = 0
    active: bool = True
    is_ego: bool = False
    route_arc: np.ndarray = field(init=False, repr=False)
    route_segments: tuple = field(init=False, repr=False)
    route_blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.heading = np.asarray(self.heading, dtype=float)
        n = np.linalg.norm(self.heading)
        if n > 0:
            self.heading = self.heading / n
        self.set_route(self.route)

    def set_route(self, route) -> None:
        """Assign a route and cache its geometry: the cumulative arc length
        ``route_arc``; ``route_segments``, the segment starts, vectors and
        squared lengths (1 for a zero-length segment); and ``route_blocks``,
        the centres and radii of circles that each cover ROUTE_BLOCK
        consecutive segments (the last block may hold fewer), with the
        route's coordinate scale, 1 plus its largest absolute coordinate."""
        self.route = np.asarray(route, dtype=float)
        a = self.route[:-1]
        ab = self.route[1:] - a
        denom = (ab * ab).sum(axis=1)
        # geometry.arc_length's segment norms are these square roots
        self.route_arc = np.concatenate([[0.0], np.cumsum(np.sqrt(denom))])
        denom[denom == 0] = 1.0
        self.route_segments = (a, ab, denom)
        # Block k covers points k * ROUTE_BLOCK through (k + 1) * ROUTE_BLOCK,
        # the last one being the end of its last segment: the box over the
        # block's segment starts grows to take that end, and the circle is
        # the box's circumcircle.
        starts = np.arange(0, len(a), ROUTE_BLOCK)
        lo = hi = self.route[np.minimum(starts + ROUTE_BLOCK, len(a))]
        if len(a):
            lo = np.minimum(np.minimum.reduceat(a, starts), lo)
            hi = np.maximum(np.maximum.reduceat(a, starts), hi)
        scale = 1.0 + float(np.abs(self.route).max(initial=0.0))
        self.route_blocks = ((lo + hi) / 2.0, np.hypot(*(hi - lo).T) / 2.0, scale)

    @property
    def yaw(self) -> float:
        return math.atan2(self.heading[1], self.heading[0])


def encode_heatmap(layout: AgentLayout, meters_per_cell: float) -> np.ndarray:
    """Signed sum of unit-peak Gaussian kernels: +1 peaks for static vehicles,
    -1 for dynamic, truncated at the kernel radius."""
    h = np.zeros((HEATMAP_SIZE, HEATMAP_SIZE))
    r = KERNEL_RADIUS
    offs = np.arange(-r, r + 1)
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    kernel = np.exp(-(ox ** 2 + oy ** 2) / (2.0 * KERNEL_SIGMA ** 2))
    kernel[ox ** 2 + oy ** 2 > r ** 2] = 0.0
    for e in layout.entries:
        cx = int(math.floor(e.x / meters_per_cell))
        cy = int(math.floor(e.y / meters_per_cell))
        if not (0 <= cx < HEATMAP_SIZE and 0 <= cy < HEATMAP_SIZE):
            raise ValueError(f"layout entry ({e.x}, {e.y}) out of bounds")
        sign = 1.0 if e.static else -1.0
        x0, x1 = max(cx - r, 0), min(cx + r + 1, HEATMAP_SIZE)
        y0, y1 = max(cy - r, 0), min(cy + r + 1, HEATMAP_SIZE)
        h[x0:x1, y0:y1] += sign * kernel[x0 - cx + r:x1 - cx + r,
                                         y0 - cy + r:y1 - cy + r]
    return h


def decode_heatmap(h: np.ndarray, meters_per_cell: float) -> AgentLayout:
    """Non-maximum suppression over |h|: local maxima above PEAK_THRESHOLD
    within the kernel radius become vehicles; the peak sign sets the state."""
    mag = np.abs(h)
    order = np.argsort(mag, axis=None)[::-1]
    taken = np.zeros(h.shape, dtype=bool)
    entries = []
    r = KERNEL_RADIUS
    for flat in order:
        cx, cy = np.unravel_index(flat, h.shape)
        if mag[cx, cy] <= PEAK_THRESHOLD:
            break
        if taken[cx, cy]:
            continue
        x0, x1 = max(cx - r, 0), min(cx + r + 1, h.shape[0])
        y0, y1 = max(cy - r, 0), min(cy + r + 1, h.shape[1])
        taken[x0:x1, y0:y1] = True
        entries.append(LayoutEntry(
            (cx + 0.5) * meters_per_cell, (cy + 0.5) * meters_per_cell,
            static=h[cx, cy] > 0))
    return AgentLayout(entries)


def write_heatmap(h: np.ndarray, meters_per_cell: float, path) -> str:
    """Write ``h`` as a HEATMAP1 file and return the file's sha256."""
    return write_hashed(path, b"HEATMAP1",
                        struct.pack("<IId", h.shape[0], h.shape[1], meters_per_cell),
                        np.ascontiguousarray(h, dtype="<f4"))


def read_heatmap(path):
    with open(path, "rb") as fh:
        data = fh.read()
    w, hgt, mpc = read_container(data, b"HEATMAP1", "<IId")
    if not POSITIVE.ok(mpc):
        raise GridFormatError(f"meters per cell {mpc} is not finite and positive", 16)
    return container_floats(data, 24, (w, hgt)), mpc


# Each global transform once, as an operation on the two leading (x, y) axes.
_TRANSFORMS = {
    "identity": lambda a: a,
    "rot90": lambda a: np.rot90(a, k=3, axes=(0, 1)),
    "rot180": lambda a: np.rot90(a, k=2, axes=(0, 1)),
    "rot270": lambda a: np.rot90(a, k=1, axes=(0, 1)),
    "flip_x": lambda a: a[::-1],
    "flip_y": lambda a: a[:, ::-1],
}
GLOBAL_TRANSFORMS = tuple(_TRANSFORMS)


def _transform_cell(t: str, cx: int, cy: int, w: int, h: int):
    """Where cell (cx, cy) of a w x h plane lands under transform t: the
    transform is applied to a plane of flat cell indices."""
    if not (0 <= cx < w and 0 <= cy < h):
        raise ValueError(f"cell ({cx}, {cy}) outside the {w}x{h} plane")
    moved = _TRANSFORMS[t](np.arange(w * h).reshape(w, h))
    tx, ty = np.argwhere(moved == cx * h + cy)[0]
    return int(tx), int(ty)


def augment(layout: AgentLayout, grid: OccupancyGrid, seed: int,
            transform: str = None, perturb: bool = True):
    """Two-stage augmentation of a (layout, grid) pair.

    1. Cap the layout at 10 vehicles by uniform subsampling.
    2. Perturb each center within a drivable 5x5 cell neighborhood.
    3. Apply one shared global transform (rotation/flip) to both members.
    """
    rng = np.random.default_rng(seed)
    entries = list(layout.entries)
    if len(entries) > MAX_VEHICLES:
        keep = rng.choice(len(entries), size=MAX_VEHICLES, replace=False)
        entries = [entries[i] for i in sorted(keep)]

    vox = grid.voxel_size
    drivable = grid.labels[:, :, 0] == grid.table.road_id
    W, H = drivable.shape
    out_entries = []
    for e in entries:
        cx = int(math.floor(e.x / vox))
        cy = int(math.floor(e.y / vox))
        if perturb:
            cands = [(cx + dx, cy + dy)
                     for dx in range(-2, 3) for dy in range(-2, 3)
                     if 0 <= cx + dx < W and 0 <= cy + dy < H
                     and drivable[cx + dx, cy + dy]]
            if cands:
                cx, cy = cands[rng.integers(0, len(cands))]
        out_entries.append(LayoutEntry((cx + 0.5) * vox, (cy + 0.5) * vox, e.static))

    if transform is None:
        transform = GLOBAL_TRANSFORMS[rng.integers(0, len(GLOBAL_TRANSFORMS))]
    new_labels = _TRANSFORMS[transform](grid.labels).copy()
    final_entries = []
    for e in out_entries:
        cx = int(math.floor(e.x / vox))
        cy = int(math.floor(e.y / vox))
        tx, ty = _transform_cell(transform, cx, cy, W, H)
        final_entries.append(LayoutEntry((tx + 0.5) * vox, (ty + 0.5) * vox, e.static))
    new_grid = OccupancyGrid(new_labels, vox, grid.origin, grid.table)
    return AgentLayout(final_entries), new_grid


class FileLayoutSource:
    """Layout source backed by an externally generated heatmap file; the
    layout is decoded once and proposed around every anchor."""

    def __init__(self, path):
        self.layout = decode_heatmap(*read_heatmap(path))

    def sample(self, anchor: Pose2, half, rng) -> AgentLayout:
        return self.layout


class ProceduralLayoutSource:
    """Uniform stand-in for the learned layout generator: up to MAX_VEHICLES
    vehicles at random route-network samples inside 90% of the footprint,
    MIN_SPACING apart, each static with probability P_STATIC. An empty
    network proposes nothing."""

    def __init__(self, network: RouteNetwork):
        self.network = network

    def sample(self, anchor: Pose2, half, rng) -> AgentLayout:
        inner = half * 0.9
        # The box |local| < inner lies in the ball of its half-diagonal; the
        # slack covers rounding in the frame transform.
        near = self.network.nodes_within(anchor.position, math.hypot(*inner) + 1e-3)
        cands = self.network.positions[near]
        inv = anchor.inverse()
        pool = cands[np.all(np.abs(inv.transform_point(cands)) < inner, axis=1)]
        k = int(rng.integers(0, MAX_VEHICLES + 1))
        chosen, statics = np.empty((k, 2)), []
        for i in rng.permutation(len(pool)):
            if len(statics) >= k:
                break
            # the 1-D np.linalg.norm of one p - q is the root of its dot
            # product; vecdot takes that for every chosen q at once
            d = pool[i] - chosen[:len(statics)]
            if np.all(np.sqrt(np.vecdot(d, d)) >= MIN_SPACING):
                chosen[len(statics)] = pool[i]
                statics.append(rng.random() < P_STATIC)
        local = inv.transform_point(chosen[:len(statics)]) + half  # corner origin
        return AgentLayout([LayoutEntry(float(x), float(y), static)
                            for (x, y), static in zip(local.tolist(), statics)])


def _route_heading(route: np.ndarray) -> np.ndarray:
    if len(route) >= 2:
        d = route[1] - route[0]
        n = np.linalg.norm(d)
        if n > 0:
            return d / n
    return np.array([1.0, 0.0])


def spawn_agents(anchor: Pose2, b_ego: bool, half, network: RouteNetwork,
                 valid_endpoints_m, speed_dist, layout_source, rng):
    """Spawn agents around an anchor pose.

    ``half`` is the half-extent (x, y) in meters of the anchor's footprint.
    The layout source's ``sample(anchor, half, rng)`` proposes positions in
    the footprint frame, origin at its corner (the anchor itself is appended
    when b_ego); each agent gets a Normal(mu, sigma) speed clamped at zero, a
    uniform valid endpoint target, a uniform asset, a shortest route over the
    lane network (``RouteNetwork.route_to``), and the route tangent as initial
    heading. Agents farther than SNAP_DIST from the network or without a
    route are discarded with a log entry.
    """
    if len(network.positions) == 0:
        raise ValueError("cannot spawn without lanes")
    if len(valid_endpoints_m) == 0:
        raise ValueError("cannot spawn without valid endpoints")
    mu_v, sigma_v = speed_dist
    layout = layout_source.sample(anchor, half, rng)

    world_positions = []
    for e in layout.entries:
        local = np.array([e.x, e.y]) - half
        world_positions.append((anchor.transform_point(local), e.static, False))
    if b_ego:
        world_positions.append((anchor.position, False, True))
    nodes = network.nearest_nodes([pos for pos, _, _ in world_positions], SNAP_DIST)

    endpoints = np.asarray(valid_endpoints_m, dtype=float)
    agents = []
    for (pos, static, is_ego), node in zip(world_positions, nodes):
        speed = max(0.0, rng.normal(mu_v, sigma_v))
        target = endpoints[rng.integers(0, len(endpoints))]
        asset = DEFAULT_ASSETS[rng.integers(0, len(DEFAULT_ASSETS))]
        if node is None:
            log.info("agent at %s too far from any lane; discarded", pos)
            continue
        if static:
            snap = network.positions[node]
            agents.append(Agent(snap, network.tangent_at(node), 0.0, np.asarray([snap]),
                                target, asset, static=True,
                                lane_id=int(network.lane_of[node])))
            continue
        route = network.route_to(node, target)
        if route is None:
            log.info("no route from %s to %s; agent discarded", pos, target)
            continue
        heading = _route_heading(route)
        agents.append(Agent(route[0].copy(), heading, speed, route, target,
                            asset, lane_id=int(network.lane_of[node]), is_ego=is_ego))
    return agents

