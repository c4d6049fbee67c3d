"""Closed-loop rolling-horizon traffic engine.

Each step runs three phases in order: rolling-horizon spawn/cull management,
per-agent longitudinal control (IDM along the planned route, with Bezier lane
changes on conflict), and voxel rendering of the local frame around the ego.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .agents import Agent, ProceduralLayoutSource, spawn_agents
from .geometry import Pose2, arc_length, resample_polyline, route_heading, unit
from .occupancy import (DEFAULT_CROP_DIMS, DIMS, FINITE, NONNEGATIVE, POSITIVE, GlobalMap,
                        OccupancyGrid, Settings, at_least, crop, setting)
from .routing import RouteNetwork, build_route_network

log = logging.getLogger(__name__)

BEZIER_DS = 0.5  # meters between the samples of a lane-change transition


@dataclass
class IdmParams(Settings):
    v0: float = setting(12.0, POSITIVE)            # desired speed, m/s
    a_max: float = setting(1.5, POSITIVE)
    b_comfort: float = setting(2.0, POSITIVE)
    s0: float = setting(2.0, POSITIVE)             # jam gap, meters
    t_headway: float = setting(1.5, POSITIVE)
    delta: float = setting(4.0, POSITIVE)
    b_emergency: float = setting(6.0, POSITIVE)


@dataclass
class SimParams(Settings):
    dt: float = setting(0.5, POSITIVE)
    horizon: int = setting(20, at_least(1))
    d_roll: float = setting(10.0, POSITIVE)
    d_pre: float = setting(30.0, POSITIVE)
    d_lc: float = setting(15.0, POSITIVE)          # lane-change trigger distance
    d_lat: float = setting(2.0, POSITIVE)          # lateral route-blocking tolerance
    fov_dims: tuple = setting(DEFAULT_CROP_DIMS, DIMS)
    idm: IdmParams = field(default_factory=IdmParams)
    speed_mu: float = setting(8.0, FINITE)
    speed_sigma: float = setting(2.0, NONNEGATIVE)
    lc_cooldown_steps: int = setting(20, at_least(0))
    seed: int = 0


def idm_accel(v: float, dv: float, s: float, idm: IdmParams) -> float:
    """Longitudinal IDM acceleration toward the desired speed ``idm.v0``.

    s is the bumper-to-bumper gap to the leader (inf on a free road) and
    dv = v - v_leader. Clamped to [-b_emergency, a_max]; a non-positive gap
    means emergency braking.
    """
    if s <= 0:
        return -idm.b_emergency
    free = 1.0 - (v / idm.v0) ** idm.delta
    s_star = idm.s0 + v * idm.t_headway + v * dv / (2.0 * math.sqrt(idm.a_max * idm.b_comfort))
    interaction = (max(s_star, 0.0) / s) ** 2   # exactly 0.0 on a free road
    a = idm.a_max * (free - interaction)
    return float(min(max(a, -idm.b_emergency), idm.a_max))


def _positions(agents) -> np.ndarray:
    if not agents:
        return np.empty((0, 2))
    return np.concatenate([a.position for a in agents]).reshape(-1, 2)


def select_leader(agent: Agent, others, positions: np.ndarray, d_lat: float):
    """Nearest other agent within the forward cone (normalized dot > 0.5)
    that also lies within d_lat of the agent's planned route; of equally
    near ones, the first in ``others``. ``positions`` holds their positions,
    row i that of ``others[i]`` (``_positions(others)``). No agent within
    1e-9 of it, the agent itself included, is its leader."""
    rel = positions - agent.position
    # Row-wise vecdot gives the same bits as the 1-D norm and dot product of
    # each row; norm(axis=1) and a matrix product do not.
    dist = np.sqrt(np.vecdot(rel, rel))
    # an agent within 1e-9 keeps the cosine 0, outside the cone
    cos = np.divide(np.vecdot(rel, agent.heading), dist, out=np.zeros(len(dist)),
                    where=dist > 1e-9)
    cone = (cos > 0.5).nonzero()[0]
    for i in cone[dist[cone].argsort(kind="stable")]:
        if agent.near_route(others[i].position, d_lat):
            return others[i]
    return None


def bezier_transition(p0: np.ndarray, h0: np.ndarray, p1: np.ndarray,
                      h1: np.ndarray) -> np.ndarray:
    """Cubic Bezier from p0 (tangent h0) to p1 (tangent h1), resampled at
    BEZIER_DS."""
    d = np.linalg.norm(p1 - p0)
    c0 = p0 + 0.3 * d * h0
    c1 = p1 - 0.3 * d * h1
    n = max(int(d / BEZIER_DS) * 4, 8)
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = ((1 - t) ** 3 * p0 + 3 * (1 - t) ** 2 * t * c0
           + 3 * (1 - t) * t ** 2 * c1 + t ** 3 * p1)
    s = arc_length(pts)
    if s[-1] <= 0:
        return pts[:1]
    return resample_polyline(pts, s, np.arange(0.0, s[-1], BEZIER_DS))


def maybe_lane_change(agent: Agent, s: float, dv: float, head_on: bool,
                      network: RouteNetwork, params: SimParams) -> bool:
    """Alg trigger: s < d_lc and (closing in, or a head-on leader). s and dv
    are the gap and closing speed ``idm_accel`` takes, and ``head_on``
    whether the leader faces the agent, as ``Simulator.agent_step`` finds
    them. On success the route becomes a Bezier transition onto the nearest
    parallel lane followed by a shortest re-route to the original target."""
    if s >= params.d_lc or agent.lc_cooldown > 0 or not (dv > 0 or head_on):
        return False
    adj = network.nearest_node_on_other_lane(
        agent.position, agent.lane_id, 2.0 * 3.6)
    if adj is None:
        return False
    p_adj = network.positions[adj]
    tail = network.route_to(adj, agent.target)
    if tail is None:
        return False
    h1 = route_heading(tail)
    bez = bezier_transition(agent.position, agent.heading, p_adj, h1)
    agent.set_route(np.concatenate([bez, tail]))
    agent.route_s = 0.0
    agent.lane_id = int(network.lane_of[adj])
    agent.lc_cooldown = params.lc_cooldown_steps
    return True


def advance_along_route(agent: Agent, dist: float) -> None:
    """Move the agent dist meters along its route; completion deactivates it."""
    if len(agent.route) < 2:
        agent.active = False
        return
    s = agent.route_arc
    agent.route_s += dist
    if agent.route_s >= s[-1]:
        agent.position = agent.route[-1].copy()
        agent.active = False
        return
    new_pos = resample_polyline(agent.route, s, agent.route_s)
    step = new_pos - agent.position
    n = math.sqrt(step.dot(step))  # np.linalg.norm of a 1-D array, bit for bit
    if n > 1e-9:
        agent.heading = step / n
    else:
        i = int(np.searchsorted(s, agent.route_s))
        i = min(max(i, 1), len(agent.route) - 1)
        agent.heading = unit(agent.route[i] - agent.route[i - 1], agent.heading)
    agent.position = new_pos


@dataclass
class SimState:
    agents: list
    ego: Agent
    delta_d_ego: float = 0.0
    step_index: int = 0


def _in_fov(ego_pose: Pose2, positions: np.ndarray, half: np.ndarray):
    """Ego-frame coordinates of world ``positions`` (n, 2), and which of
    them lie inside the footprint of half-extent ``half``."""
    local = ego_pose.inverse().transform_point(positions)
    return local, np.all(np.abs(local) <= half, axis=1)


def _pose_at_offset(poses, s_path: np.ndarray, anchor_idx: int, offset: float):
    """Pose at a signed arc-length offset along the recorded path, or None
    when the path is exhausted in that direction."""
    target = s_path[anchor_idx] + offset
    if target < s_path[0] - 1e-9 or target > s_path[-1] + 1e-9:
        return None
    idx = int(np.clip(np.searchsorted(s_path, target), 0, len(poses) - 1))
    return poses[idx]


class Simulator:
    """Owns the world artifacts and runs the closed-loop engine."""

    def __init__(self, gmap: GlobalMap, lanes, valid_endpoints_m, ego_path,
                 params: SimParams = None, layout_source=None, ego_speed_hook=None):
        self.gmap = gmap
        self.network = build_route_network(lanes)
        self.valid_endpoints = np.asarray(valid_endpoints_m, dtype=float)
        self.ego_path = list(ego_path)
        self.params = params or SimParams()
        # half-extent (x, y) in meters of the footprint spawned into and rendered
        self._half = np.array(self.params.fov_dims[:2]) * gmap.voxel_size / 2.0
        self.layout_source = layout_source or ProceduralLayoutSource(self.network)
        self.ego_speed_hook = ego_speed_hook
        self.rng = np.random.default_rng(self.params.seed)
        self._path_pts = np.array([[p.x, p.y] for p in self.ego_path])
        self._s_path = arc_length(self._path_pts)
        self._crop_pose = None   # the pose of the cached, unstamped crop
        self._crop = None

    # -- spawning ---------------------------------------------------------

    def spawn(self, anchor: Pose2, b_ego: bool):
        """Agents spawned around one anchor pose (plus the ego when b_ego)."""
        return spawn_agents(
            anchor, b_ego, self._half, self.network, self.valid_endpoints,
            (self.params.speed_mu, self.params.speed_sigma),
            self.layout_source, self.rng)

    def _spawn_ahead_and_behind(self, anchor_idx: int) -> list:
        """Agents spawned around the recorded poses d_pre ahead of and behind
        the anchor index; a direction where the path is exhausted is skipped."""
        poses = [_pose_at_offset(self.ego_path, self._s_path, anchor_idx, offset)
                 for offset in (self.params.d_pre, -self.params.d_pre)]
        poses = [pose for pose in poses if pose is not None]
        if not poses:
            log.info("recorded ego path exhausted; no spawn anchors")
        return [a for pose in poses for a in self.spawn(pose, b_ego=False)]

    def init_state(self, ego_pose_index: int) -> SimState:
        agents = self.spawn(self.ego_path[ego_pose_index], b_ego=True)
        ego = next((a for a in agents if a.is_ego), None)
        if ego is None:
            raise RuntimeError("ego could not be snapped onto the lane network")
        agents.extend(self._spawn_ahead_and_behind(ego_pose_index))
        return SimState(agents=agents, ego=ego)

    # -- per-step phases --------------------------------------------------

    def rolling_update(self, state: SimState) -> None:
        params = self.params
        state.delta_d_ego += state.ego.speed * params.dt
        if state.delta_d_ego < params.d_roll:
            return
        _, inside = _in_fov(state.ego.pose, _positions(state.agents), self._half)
        state.agents = [a for a, ok in zip(state.agents, inside)
                        if ok or a is state.ego]
        # nearest recorded pose to the current ego position anchors the respawn
        anchor_idx = int(np.argmin(np.linalg.norm(self._path_pts - state.ego.position, axis=1)))
        state.agents.extend(self._spawn_ahead_and_behind(anchor_idx))
        state.delta_d_ego = 0.0

    def agent_step(self, state: SimState) -> None:
        """Each moving agent in list order picks its leader, sets its speed
        and advances; an agent sees the new positions of the agents before
        it, kept in one positions array whose row is updated as each moves."""
        params = self.params
        idm = params.idm
        positions = _positions(state.agents)
        for k, agent in enumerate(state.agents):
            if agent.static or not agent.active:
                continue
            leader = select_leader(agent, state.agents, positions, params.d_lat)
            s, dv = math.inf, 0.0  # a free road
            if leader is not None:
                gap = leader.position - agent.position
                s = math.sqrt(gap.dot(gap))  # np.linalg.norm of a 1-D array
                s -= (agent.asset.length + leader.asset.length) / 2.0
                head_on = float(agent.heading @ leader.heading) < -0.5
                dv = agent.speed + leader.speed if head_on else agent.speed - leader.speed
                maybe_lane_change(agent, s, dv, head_on, self.network, params)
            a_cmd = idm_accel(agent.speed, dv, s, idm)
            if agent is state.ego and self.ego_speed_hook is not None:
                agent.speed = max(0.0, float(self.ego_speed_hook(state, agent)))
            else:
                agent.speed = max(0.0, agent.speed + a_cmd * params.dt)
            if agent.lc_cooldown > 0:
                agent.lc_cooldown -= 1
            advance_along_route(agent, agent.speed * params.dt)
            positions[k] = agent.position

    def render(self, state: SimState) -> OccupancyGrid:
        """The map crop around the ego with every agent in view stamped
        into it as vehicle voxels (the vehicle id is never the unassigned
        id, so this is the crop overlaid with a volume of agent boxes).
        The map is read-only for the simulator's lifetime, so while the ego
        pose equals the last rendered one its crop is reused."""
        ego_pose = state.ego.pose
        if ego_pose != self._crop_pose:
            self._crop = crop(self.gmap, ego_pose, self.params.fov_dims).labels
            self._crop_pose = ego_pose
        labels = self._crop.copy()
        local, inside = _in_fov(ego_pose, _positions(state.agents), self._half)
        shown = [a for a, ok in zip(state.agents, inside) if ok]
        _stamp_boxes(labels, local[inside], [a.yaw - ego_pose.yaw for a in shown],
                     [a.asset for a in shown], self.gmap.voxel_size,
                     self.gmap.table.vehicle_id)
        return OccupancyGrid(labels, self.gmap.voxel_size, ego_pose, self.gmap.table)

    def step(self, state: SimState) -> OccupancyGrid:
        self.rolling_update(state)
        self.agent_step(state)
        frame = self.render(state)
        state.step_index += 1
        return frame

    def iter_steps(self, ego_pose_index: int):
        """Roll the engine for the configured horizon, yielding each step's
        (frame, log entry) as it is made. Deterministic for a fixed
        params.seed."""
        state = self.init_state(ego_pose_index)
        for _ in range(self.params.horizon):
            frame = self.step(state)
            yield frame, snapshot_state(state)


def _stamp_boxes(labels: np.ndarray, local: np.ndarray, yaws, assets,
                 vox: float, vehicle_id: int) -> None:
    """Rasterize asset boxes at ego-frame positions ``local`` (k, 2) and
    ego-frame ``yaws`` into an ego-centred crop volume, all in one pass.

    Each box is tested on the window of its bounding cells, clipped to the
    volume and padded to the largest window; the padding is masked out.
    Each box takes its cos and sin from ``math`` of the raw ``-yaw`` (a
    wrapped yaw, or ``np.cos``, can differ in the last bit), and every cell
    sees the same arithmetic as when boxes were stamped one at a time."""
    if not assets:
        return
    X, Y, Z = labels.shape
    center = local + np.array([X, Y]) * vox / 2.0
    half_diag = np.array([[math.hypot(a.length, a.width) / 2.0] for a in assets])
    lo = np.maximum(np.trunc((center - half_diag) / vox).astype(np.intp) - 1, 0)
    hi = np.minimum(np.trunc((center + half_diag) / vox).astype(np.intp) + 2, (X, Y))
    size = hi - lo   # a box off the volume has a size <= 0
    ox, oy = np.arange(max(size[:, 0].max(), 0)), np.arange(max(size[:, 1].max(), 0))
    ix, iy = lo[:, :1] + ox, lo[:, 1:] + oy
    cx = ((ix + 0.5) * vox - center[:, :1])[:, :, None]
    cy = ((iy + 0.5) * vox - center[:, 1:])[:, None, :]
    c = np.array([math.cos(-yaw) for yaw in yaws])[:, None, None]
    s = np.array([math.sin(-yaw) for yaw in yaws])[:, None, None]
    lon = c * cx - s * cy
    lat = s * cx + c * cy
    inside = ((np.abs(lon) <= np.array([a.length / 2.0 for a in assets])[:, None, None])
              & (np.abs(lat) <= np.array([a.width / 2.0 for a in assets])[:, None, None])
              & (ox < size[:, :1])[:, :, None] & (oy < size[:, 1:])[:, None, :])
    box, i, j = np.nonzero(inside)
    gx, gy = ix[box, i], iy[box, j]
    heights = [min(math.ceil(a.height / vox), Z) for a in assets]
    z1 = np.array(heights)[box]
    for h in sorted(set(heights)):
        column = z1 == h
        labels[gx[column], gy[column], :h] = vehicle_id


def snapshot_state(state: SimState):
    """JSON-friendly per-step log entry."""
    return {
        "step": state.step_index,
        "ego": state.ego.record,
        "agents": [{**a.record, "static": a.static, "active": a.active}
                   for a in state.agents],
    }


def boxes_overlap(a: Agent, b: Agent) -> bool:
    """Oriented-rectangle intersection test (separating axis) for bumper-gap
    audits."""
    def corners(ag):
        c, s = math.cos(ag.yaw), math.sin(ag.yaw)
        R = np.array([[c, -s], [s, c]])
        L, W = ag.asset.length / 2.0, ag.asset.width / 2.0
        local = np.array([[L, W], [L, -W], [-L, -W], [-L, W]])
        return ag.position + local @ R.T

    ca, cb = corners(a), corners(b)
    for rect in (ca, cb):
        for i in range(4):
            edge = rect[(i + 1) % 4] - rect[i]
            axis = np.array([-edge[1], edge[0]])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False  # separating axis found
    return True
