"""Layout heatmaps and spatially-conditioned agent spawning.

Spawning asks a layout source for vehicle positions around an anchor pose.
A layout source has one method, ``sample(anchor, half, rng)``: it receives
the anchor pose and the half-extent (x, y) in meters of the anchor's
footprint, and returns a layout, a list of ``LayoutEntry``, in the footprint
frame, origin at its corner. ``FileLayoutSource`` proposes the layout decoded
from a heatmap file; ``ProceduralLayoutSource`` draws lane samples of the
route network.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2, arc_length, route_heading, unit
from .occupancy import (POSITIVE, GridFormatError, Settings, container_floats,
                        read_container, setting, write_hashed)
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
# Relative slack of the route test's block pruning: float64 rounding of a
# distance is a few ulps (~1e-15) of the coordinates' magnitude.
ROUTE_SLACK = 1e-9


@dataclass
class LayoutEntry:
    x: float               # meters, local frame
    y: float
    static: bool = False


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
    route_reach: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        heading = np.asarray(self.heading, dtype=float)
        self.heading = unit(heading, heading)
        self.set_route(self.route)

    def set_route(self, route) -> None:
        """Assign a route and cache its geometry: the cumulative arc length
        ``route_arc``; ``route_segments``, the segment starts, vectors and
        squared lengths (1 for a zero-length segment); and ``route_blocks``,
        the centres and radii of circles that each cover ROUTE_BLOCK
        consecutive segments (the last block may hold fewer), with the
        route's coordinate scale, 1 plus its largest absolute coordinate.
        ``route_reach`` holds the last ``d_lat`` that ``near_route`` was
        asked about and the squared reach of each block for it."""
        self.route = np.asarray(route, dtype=float)
        self.route_arc = arc_length(self.route)
        a = self.route[:-1]
        ab = self.route[1:] - a
        sq = ab * ab
        denom = sq[:, 0] + sq[:, 1]   # (ab * ab).sum(axis=1), as in arc_length
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
        self.route_reach = (None, None)

    def near_route(self, p: np.ndarray, d_lat: float) -> bool:
        """Whether point p lies closer than d_lat to the route.

        Only the span of route blocks whose bounding circle comes within
        d_lat of p, plus ROUTE_SLACK times the route's coordinate scale and
        d_lat, is projected onto segment by segment. The projection is the
        same per-row arithmetic over a slice of the cached segment arrays,
        and the slack is orders of magnitude above its rounding, so every
        segment nearer than d_lat lies in the span: the answer equals the
        minimum over all segments compared with d_lat, bit for bit."""
        if len(self.route) == 1:
            return float(np.linalg.norm(p - self.route[0])) < d_lat
        centers, radii, scale = self.route_blocks
        if self.route_reach[0] != d_lat:
            reach = radii + (d_lat + ROUTE_SLACK * (scale + d_lat))
            self.route_reach = (d_lat, reach * reach)
        off = centers - p
        near = (np.vecdot(off, off) < self.route_reach[1]).nonzero()[0]
        if not len(near):
            return False
        span = slice(near[0] * ROUTE_BLOCK, (near[-1] + 1) * ROUTE_BLOCK)
        a, ab, denom = (v[span] for v in self.route_segments)
        # each row sum of two columns is x + y, as in arc_length
        m = (p - a) * ab
        t = (m[:, 0] + m[:, 1]) / denom
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        d = a + t[:, None] * ab - p
        d *= d
        # norm(d, axis=1) is the root of this row sum; sqrt is correctly
        # rounded and monotone, so the root of the least sum is the least root
        return math.sqrt((d[:, 0] + d[:, 1]).min()) < d_lat

    @property
    def yaw(self) -> float:
        return math.atan2(self.heading[1], self.heading[0])

    @property
    def pose(self) -> Pose2:
        return Pose2(float(self.position[0]), float(self.position[1]), self.yaw)

    @property
    def record(self) -> dict:
        """The agent's ``x, y, yaw, speed`` as a JSON-friendly dict, keys in
        that order; a log or file entry appends its own keys after them."""
        return {"x": float(self.position[0]), "y": float(self.position[1]),
                "yaw": self.yaw, "speed": self.speed}


def encode_heatmap(layout: list, meters_per_cell: float) -> np.ndarray:
    """Signed sum of unit-peak Gaussian kernels: +1 peaks for static vehicles,
    -1 for dynamic, truncated at the kernel radius."""
    h = np.zeros((HEATMAP_SIZE, HEATMAP_SIZE))
    r = KERNEL_RADIUS
    offs = np.arange(-r, r + 1)
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    kernel = np.exp(-(ox ** 2 + oy ** 2) / (2.0 * KERNEL_SIGMA ** 2))
    kernel[ox ** 2 + oy ** 2 > r ** 2] = 0.0
    for e in layout:
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


def decode_heatmap(h: np.ndarray, meters_per_cell: float) -> list:
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
    return entries


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


class FileLayoutSource:
    """Layout source backed by an externally generated heatmap file; the
    layout is decoded once and proposed around every anchor."""

    def __init__(self, path):
        self.layout = decode_heatmap(*read_heatmap(path))

    def sample(self, anchor: Pose2, half, rng) -> list:
        return self.layout


class ProceduralLayoutSource:
    """Uniform stand-in for the learned layout generator: up to MAX_VEHICLES
    vehicles at random route-network samples inside 90% of the footprint,
    MIN_SPACING apart, each static with probability P_STATIC. An empty
    network proposes nothing."""

    def __init__(self, network: RouteNetwork):
        self.network = network

    def sample(self, anchor: Pose2, half, rng) -> list:
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
            # product; vecdot takes that for every chosen q at once, and the
            # root of the least is the least root (sqrt is monotone)
            d = pool[i] - chosen[:len(statics)]
            if not statics or math.sqrt(np.vecdot(d, d).min()) >= MIN_SPACING:
                chosen[len(statics)] = pool[i]
                statics.append(rng.random() < P_STATIC)
        local = inv.transform_point(chosen[:len(statics)]) + half  # corner origin
        return [LayoutEntry(float(x), float(y), static)
                for (x, y), static in zip(local.tolist(), statics)]


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

    local = np.array([[e.x, e.y] for e in layout], dtype=float).reshape(-1, 2) - half
    world_positions = [(pos, e.static, False)
                       for pos, e in zip(anchor.transform_point(local), layout)]
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
        agents.append(Agent(route[0].copy(), route_heading(route), speed, route, target,
                            asset, lane_id=int(network.lane_of[node]), is_ego=is_ego))
    return agents

