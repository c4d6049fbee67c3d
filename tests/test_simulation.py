import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voxsim.simulation as simulation
from voxsim.agents import ROUTE_BLOCK, AgentAsset, Agent
from voxsim.geometry import Pose2, arc_length, resample_polyline
from voxsim.lanes import Lane
from voxsim.occupancy import GlobalMap, OccupancyGrid, crop
from voxsim.routing import build_route_network
from voxsim.simulation import (IdmParams, SimParams, SimState, Simulator,
                               advance_along_route, bezier_transition,
                               boxes_overlap, idm_accel, maybe_lane_change,
                               _positions, select_leader, snapshot_state)
from voxsim.synthworld import (WorldSpec, generate_world, straight_trajectory)
from voxsim.topology import extract_topology
from voxsim.lanes import extract_lanes

from conftest import assert_pinned


ASSET = AgentAsset(4.5, 1.9, 1.6)


def make_agent(x, y, heading, speed, route, lane_id=0, static=False):
    route = np.asarray(route, dtype=float)
    return Agent(np.array([x, y], dtype=float), np.asarray(heading, dtype=float),
                 speed, route, route[-1], ASSET, static=static, lane_id=lane_id)


class TestIdm:
    def test_equilibrium_at_desired_speed(self):
        idm = IdmParams()
        assert idm_accel(idm.v0, 0.0, math.inf, idm) == 0.0

    def test_free_road_from_rest(self):
        idm = IdmParams()
        assert idm_accel(0.0, 0.0, math.inf, idm) == idm.a_max

    def test_clamped_to_emergency(self):
        idm = IdmParams()
        assert idm_accel(10.0, 10.0, 0.5, idm) == -idm.b_emergency

    def test_nonpositive_gap_emergency(self):
        idm = IdmParams()
        assert idm_accel(5.0, 0.0, 0.0, idm) == -idm.b_emergency

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 40.0), st.floats(-40.0, 40.0),
           st.one_of(st.floats(-10.0, 0.0), st.just(math.inf), st.floats(1e-6, 500.0)),
           st.booleans())
    @example(20.0, 0.0, math.inf, False)
    @example(5.0, 1.0, -0.0, True)
    def test_clamp_is_the_numpy_clip(self, v, dv, s, numpy_speed):
        # a free road, a non-positive gap and a speed above v0 included; a
        # NumPy speed gives a Python float too
        idm = IdmParams()
        if numpy_speed:
            v = np.float64(v)
        if s <= 0:
            raw = -math.inf
        else:
            interaction = 0.0 if math.isinf(s) else (max(
                idm.s0 + v * idm.t_headway
                + v * dv / (2.0 * math.sqrt(idm.a_max * idm.b_comfort)), 0.0) / s) ** 2
            raw = idm.a_max * (1.0 - (v / idm.v0) ** idm.delta - interaction)
        got = idm_accel(v, dv, s, idm)
        assert type(got) is float
        assert got.hex() == float(np.clip(raw, -idm.b_emergency, idm.a_max)).hex()

    def test_matches_scalar_reference(self):
        # independent scalar re-evaluation of the closed form
        idm = IdmParams()
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(0, 15)
            dv = rng.uniform(-5, 5)
            s = rng.uniform(1, 100)
            s_star = max(idm.s0 + v * idm.t_headway
                         + v * dv / (2 * math.sqrt(idm.a_max * idm.b_comfort)), 0.0)
            expect = idm.a_max * (1 - (v / idm.v0) ** idm.delta - (s_star / s) ** 2)
            expect = min(max(expect, -idm.b_emergency), idm.a_max)
            assert idm_accel(v, dv, s, idm) == pytest.approx(expect)

    def test_follower_gap_converges_to_headway(self):
        # RK4 reference for the two-car pursuit; equilibrium gap should land
        # within 5% of s0 + v*T at moderate leader speed
        idm = IdmParams()
        v_lead = 5.0

        # integrate follower position/speed against a constant-speed leader
        def rk4_gap(t_end=400.0, h=0.01):
            x_f, v_f = 0.0, 0.0
            x_l = 50.0

            def acc(x_f, v_f, t):
                s = (x_l + v_lead * t) - x_f
                return idm_accel(v_f, v_f - v_lead, s, idm)

            t = 0.0
            while t < t_end:
                k1v = acc(x_f, v_f, t)
                k1x = v_f
                k2v = acc(x_f + h / 2 * k1x, v_f + h / 2 * k1v, t + h / 2)
                k2x = v_f + h / 2 * k1v
                k3v = acc(x_f + h / 2 * k2x, v_f + h / 2 * k2v, t + h / 2)
                k3x = v_f + h / 2 * k2v
                k4v = acc(x_f + h * k3x, v_f + h * k3v, t + h)
                k4x = v_f + h * k3v
                x_f += h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
                v_f += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
                t += h
            return (x_l + v_lead * t) - x_f

        gap_ref = rk4_gap()
        target = idm.s0 + v_lead * idm.t_headway
        assert abs(gap_ref - target) / target < 0.05

        # the engine's Euler update converges to the same equilibrium
        x_f, v_f, x_l, t, dt = 0.0, 0.0, 50.0, 0.0, 0.5
        for _ in range(2000):
            s = x_l - x_f
            a = idm_accel(v_f, v_f - v_lead, s, idm)
            v_f = max(0.0, v_f + a * dt)
            x_f += v_f * dt
            x_l += v_lead * dt
        assert abs((x_l - x_f) - gap_ref) / gap_ref < 0.05


def reference_dist_point_polyline(p, poly):
    """Minimum distance from a point to a polyline, from the polyline itself."""
    if len(poly) == 1:
        return float(np.linalg.norm(p - poly[0]))
    a = poly[:-1]
    b = poly[1:]
    ab = b - a
    ap = p - a
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0] = 1.0
    t = np.clip((ap * ab).sum(axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.linalg.norm(proj - p, axis=1).min())


def reference_select_leader(agent, others, d_lat=2.0):
    """The per-candidate leader search: every candidate in the cone gets the
    route-distance test, and a strictly nearer one replaces the best. Kept
    as the equivalence reference."""
    best, best_d = None, math.inf
    for other in others:
        if other is agent:
            continue
        rel = other.position - agent.position
        dist = np.linalg.norm(rel)
        if dist <= 1e-9:
            continue
        if float(rel @ agent.heading) / dist <= 0.5:
            continue
        if reference_dist_point_polyline(other.position, agent.route) >= d_lat:
            continue
        if dist < best_d:
            best, best_d = other, dist
    return best


def on_cone_edge(pos, yaw, side, t):
    """The point t meters from pos on one edge of the 60-degree leader cone:
    the cone test there is decided by the last bits of the dot product."""
    return pos + t * np.array([math.cos(yaw + side * math.pi / 3),
                               math.sin(yaw + side * math.pi / 3)])


@st.composite
def leader_scenes(draw):
    """An agent, a candidate list and d_lat. Integer grid coordinates give
    many equal distances. Non-integer offsets, also drawn with their
    coordinates swapped or one negated, give distances that are equal in
    exact arithmetic but may round apart, and candidates on the cone's edges
    sit where the cone test turns on the last bit, so a norm or dot product
    one ulp off the reference changes the pick. Candidates may sit on the
    agent, behind it, off its route, or appear twice; the agent may be in
    its own list, and its route may be the single point it stands on."""
    coord = st.one_of(st.integers(-8, 8),
                      st.integers(-56, 56).map(lambda k: k / 7),  # full mantissas
                      st.floats(-8, 8, allow_nan=False, allow_infinity=False))
    point = st.tuples(coord, coord)
    pos = np.array(draw(point), dtype=float)
    yaw = draw(st.one_of(st.integers(0, 7).map(lambda k: k * math.pi / 4),
                         st.floats(-math.pi, math.pi)))
    heading = [math.cos(yaw), math.sin(yaw)]
    spots = []
    for dx, dy in draw(st.lists(point, max_size=8)):
        variants = [(dx, dy), (dy, dx), (dx, -dy), (-dy, dx)]
        spots += [pos + v for v in variants[:draw(st.integers(1, 4))]]
    for t in draw(st.lists(st.floats(0.5, 8.0), max_size=3)):
        spots.append(on_cone_edge(pos, yaw, draw(st.sampled_from((-1, 1))), t))
    # the route may pass through candidates, so that more of them pass its test
    waypoint = st.one_of(point, st.sampled_from(spots)) if spots else point
    route = [pos] + draw(st.one_of(st.just([]), st.lists(waypoint, max_size=5)))
    agent = make_agent(*pos, heading, 5.0, route)
    spots += [pos] * draw(st.integers(0, 1))
    others = []
    for p in draw(st.permutations(spots)):
        other = make_agent(*p, heading, 5.0, route)
        others.extend([other] * draw(st.integers(1, 2)))
    if draw(st.booleans()):
        others.insert(draw(st.integers(0, len(others))), agent)
    return agent, others, draw(st.floats(0.5, 6.0))


def _scene(yaw, spots, route, d_lat):
    heading = [math.cos(yaw), math.sin(yaw)]
    agent = make_agent(0.0, 0.0, heading, 5.0, route)
    return agent, [make_agent(*p, heading, 5.0, route) for p in spots], d_lat


# (1/7, 4/7) is one ulp nearer the origin than (4/7, 1/7) by the 1-D norm;
# a row-wise sum of squares calls them equal and keeps the first.
ULP_NEARER = _scene(math.pi / 4, [(4 / 7, 1 / 7), (1 / 7, 4 / 7)],
                    [(0.0, 0.0), (4 / 7, 1 / 7), (1 / 7, 4 / 7)], 1.0)
# The 1-D dot product puts the first of these inside the cone, a matrix
# product over both rows puts it outside.
ULP_IN_CONE = _scene(
    math.pi / 4,
    [on_cone_edge(np.zeros(2), math.pi / 4, 1, t)
     for t in (4.3615759548598705, 6.501375540963485)],
    [(0.0, 0.0), on_cone_edge(np.zeros(2), math.pi / 4, 1, 8.0)], 1.0)


@st.composite
def long_routes(draw):
    """A random-walk route of 1 to about 200 points, up to 500 m from the
    origin, so that it spans several route blocks; lengths just around a
    multiple of ROUTE_BLOCK segments are drawn often. Some, most or all of
    its steps are zero, giving zero-length segments, point-sized blocks and
    long segments from one block to the next."""
    n = draw(st.one_of(st.integers(1, 200),
                       st.sampled_from([k * ROUTE_BLOCK + d for k in (1, 2, 3)
                                        for d in (0, 1, 2)])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = rng.uniform(-4.0, 4.0, size=(n - 1, 2)) * draw(st.sampled_from([1.0, 10.0]))
    steps[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.2, 0.9, 1.0]))] = 0.0
    start = rng.uniform(-500.0, 500.0, size=2)
    return np.concatenate([[start], start + np.cumsum(steps, axis=0)])


def points_off_route(data, route, d_lat):
    """Points at d_lat, give or take a few ulps of the coordinates, off
    segments anywhere along the route (most of them in a later block than
    the first, many on the segment that ends a block), plus points scattered
    around the route's bounding box."""
    last_of_block = list(range(ROUTE_BLOCK - 1, len(route) - 1, ROUTE_BLOCK))
    segment = st.integers(0, len(route) - 1)
    points = []
    for _ in range(data.draw(st.integers(1, 8))):
        i = data.draw(st.one_of(segment, st.sampled_from(last_of_block))
                      if last_of_block else segment)
        a, b = route[i], route[min(i + 1, len(route) - 1)]
        ab = b - a
        q = a + data.draw(st.floats(0.0, 1.0)) * ab
        n = np.linalg.norm(ab)
        yaw = data.draw(st.floats(-math.pi, math.pi))
        normal = (np.array([-ab[1], ab[0]]) / n if n > 0
                  else np.array([math.cos(yaw), math.sin(yaw)]))
        ulps = data.draw(st.integers(-8, 8)) * math.ulp(float(np.abs(q).max()) + d_lat)
        points.append(q + data.draw(st.sampled_from([-1.0, 1.0])) * (d_lat + ulps) * normal)
    lo, hi = route.min(axis=0) - 3 * d_lat, route.max(axis=0) + 3 * d_lat
    for _ in range(data.draw(st.integers(0, 8))):
        points.append(lo + np.array([data.draw(st.floats(0.0, 1.0)) for _ in "xy"]) * (hi - lo))
    return points


class TestLeaderSelection:
    def test_ahead_on_route_selected(self):
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        lead = make_agent(20, 0.5, [1, 0], 5, route)
        assert select_leader(a, [lead], _positions([lead]), SimParams().d_lat) is lead

    def test_behind_ignored(self):
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(50, 0, [1, 0], 5, route)
        behind = make_agent(30, 0, [1, 0], 5, route)
        assert select_leader(a, [behind], _positions([behind]), SimParams().d_lat) is None

    def test_cone_boundary(self):
        # normalized dot must exceed 0.5: 60 degrees off-axis is exactly 0.5
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        ang = math.radians(61.0)
        outside = make_agent(2 * math.cos(ang), 2 * math.sin(ang), [1, 0], 5, route)
        assert select_leader(a, [outside], _positions([outside]), d_lat=10.0) is None
        ang = math.radians(60.0)
        inside = make_agent(2 * math.cos(ang * 0.9), 2 * math.sin(ang * 0.9),
                            [1, 0], 5, route)
        assert select_leader(a, [inside], _positions([inside]), d_lat=10.0) is inside

    def test_lateral_tolerance(self):
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        off_route = make_agent(20, 5.0, [1, 0], 5, route)
        assert select_leader(a, [off_route], _positions([off_route]), d_lat=2.0) is None

    def test_no_candidate_but_itself_gives_no_leader(self):
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        assert select_leader(a, [], _positions([]), SimParams().d_lat) is None
        assert select_leader(a, [a], _positions([a]), SimParams().d_lat) is None

    def test_nearest_wins(self):
        route = [[0.0, 0.0], [100.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        near = make_agent(10, 0, [1, 0], 5, route)
        far = make_agent(30, 0, [1, 0], 5, route)
        others = [far, near]
        assert select_leader(a, others, _positions(others), SimParams().d_lat) is near

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_pruned_route_test_matches_reference(self, data):
        # the route test projects only onto blocks near the candidate; it
        # must decide exactly as the projection onto every segment does
        route = data.draw(long_routes())
        d_lat = data.draw(st.floats(0.5, 6.0))
        yaw = data.draw(st.floats(-math.pi, math.pi))
        heading = [math.cos(yaw), math.sin(yaw)]
        if data.draw(st.booleans()):
            agent = make_agent(*route[0], heading, 5.0, route)
        else:
            # the cached blocks follow a route replaced by set_route
            agent = make_agent(*route[0], heading, 5.0, data.draw(long_routes()))
            agent.set_route(route)
        points = points_off_route(data, route, d_lat)
        d_other = data.draw(st.floats(0.5, 6.0))

        def check(path, tolerances):
            for p in points:
                for d in tolerances:
                    assert (agent.near_route(p, d)
                            == (reference_dist_point_polyline(p, path) < d))

        # the blocks' reach is kept for the last d_lat asked: two tolerances
        # take turns, and the reach kept for d_other must not outlive its
        # route, replaced by one with one more block
        check(route, (d_lat, d_other))
        longer = np.concatenate([route, route[-1] + np.cumsum(
            np.full((ROUTE_BLOCK, 2), data.draw(st.floats(-4.0, 4.0))), axis=0)])
        agent.set_route(longer)
        check(longer, (d_other, d_lat))
        agent.set_route(route)
        others = [make_agent(*p, heading, 5.0, route) for p in points]
        assert (select_leader(agent, others, _positions(others), d_lat)
                is reference_select_leader(agent, others, d_lat))

    @settings(max_examples=300, deadline=None)
    @given(leader_scenes())
    @example(ULP_NEARER)
    @example(ULP_IN_CONE)
    def test_pruned_search_matches_reference(self, scene):
        agent, others, d_lat = scene
        assert (select_leader(agent, others, _positions(others), d_lat)
                is reference_select_leader(agent, others, d_lat))


class TestBezier:
    def test_endpoints_and_tangents(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([20.0, 3.6])
        h0, h1 = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        pts = bezier_transition(p0, h0, p1, h1)
        assert np.linalg.norm(pts[0] - p0) < 0.6
        assert np.linalg.norm(pts[-1] - p1) < 0.6
        d0 = pts[1] - pts[0]
        assert d0[0] > 0 and abs(d0[1]) < d0[0] * 0.3  # leaves along h0
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert steps.max() < 0.75  # near-uniform arc resampling


class TestAdvance:
    def test_interpolated_position_and_heading(self):
        route = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        advance_along_route(a, 5.0)
        assert np.allclose(a.position, [5.0, 0.0])
        assert np.allclose(a.heading, [1.0, 0.0])
        advance_along_route(a, 5.0)   # lands exactly on the corner
        assert np.allclose(a.position, [10.0, 0.0])
        advance_along_route(a, 5.0)
        assert np.allclose(a.position, [10.0, 5.0])
        assert np.allclose(a.heading, [0.0, 1.0], atol=1e-9)

    def test_completion_deactivates(self):
        route = [[0.0, 0.0], [10.0, 0.0]]
        a = make_agent(0, 0, [1, 0], 5, route)
        advance_along_route(a, 50.0)
        assert not a.active
        assert np.allclose(a.position, [10.0, 0.0])


class TestBoxesOverlap:
    def test_parallel_lanes_no_overlap(self):
        a = make_agent(0, 0, [1, 0], 5, [[0.0, 0.0], [10.0, 0.0]])
        b = make_agent(0, 3.6, [1, 0], 5, [[0.0, 3.6], [10.0, 3.6]])
        assert not boxes_overlap(a, b)

    def test_nose_to_tail_touching(self):
        a = make_agent(0, 0, [1, 0], 5, [[0.0, 0.0], [10.0, 0.0]])
        b = make_agent(4.0, 0, [1, 0], 5, [[0.0, 0.0], [10.0, 0.0]])
        assert boxes_overlap(a, b)
        c = make_agent(5.0, 0, [1, 0], 5, [[0.0, 0.0], [10.0, 0.0]])
        assert not boxes_overlap(a, c)

    def test_rotated_overlap(self):
        a = make_agent(0, 0, [1, 0], 5, [[0.0, 0.0], [10.0, 0.0]])
        b = make_agent(2.5, 1.0, [0, 1], 5, [[2.5, -5.0], [2.5, 5.0]])
        assert boxes_overlap(a, b)


def build_sim(road_width=9.6, extent=120.0, horizon=10, seed=0, **kw):
    spec = WorldSpec(recipe="straight", extent=extent, road_width=road_width)
    world = generate_world(spec)
    poses = straight_trajectory(spec, step=3.2)
    g, valid = extract_topology(world)
    lanes = extract_lanes(world, g)
    endpoints = [((x + 0.5) * 0.4, (y + 0.5) * 0.4) for x, y in valid]
    params = SimParams(horizon=horizon, seed=seed, **kw)
    return Simulator(world, lanes, endpoints, poses, params), poses


class TestSimulator:
    def test_run_produces_frames_and_log(self):
        sim, poses = build_sim(horizon=5, seed=42)
        frames, logbook = zip(*sim.iter_steps(ego_pose_index=3))
        assert len(frames) == 5 and len(logbook) == 5
        assert frames[0].dims == (200, 200, 16)
        for entry in logbook:
            assert "ego" in entry and "agents" in entry
        # the ego is stamped into the frame as vehicle voxels
        vid = sim.gmap.table.vehicle_id
        assert (frames[-1].labels == vid).sum() > 0

    def test_deterministic_for_fixed_seed(self):
        frames1, log1 = zip(*build_sim(horizon=4, seed=7)[0].iter_steps(ego_pose_index=2))
        frames2, log2 = zip(*build_sim(horizon=4, seed=7)[0].iter_steps(ego_pose_index=2))
        assert log1 == log2
        for f1, f2 in zip(frames1, frames2):
            assert np.array_equal(f1.labels, f2.labels)

    def test_rolling_update_culls_out_of_fov(self):
        sim, poses = build_sim(horizon=3, seed=0, fov_dims=(100, 100, 16))
        state = sim.init_state(ego_pose_index=3)
        stray = make_agent(1000.0, 1000.0, [1, 0], 5,
                           [[1000.0, 1000.0], [1010.0, 1000.0]])
        state.agents.append(stray)
        state.delta_d_ego = sim.params.d_roll  # force the roll
        state.ego.speed = 1.0
        sim.rolling_update(state)
        assert stray not in state.agents
        assert state.ego in state.agents
        assert state.delta_d_ego == 0.0

    def test_ego_speed_hook_overrides(self):
        sim, poses = build_sim(horizon=3, seed=0)
        sim.ego_speed_hook = lambda state, agent: 2.5
        state = sim.init_state(ego_pose_index=3)
        sim.agent_step(state)
        assert state.ego.speed == 2.5

    @staticmethod
    def _close_in_on_parked(speed, follower_length, parked_length, steps=600):
        """A follower at ``speed`` 40 m behind a parked car on the one-lane
        straight world, run for ``steps``; returns the simulator, the
        follower, the number of steps whose boxes overlap and the final
        bumper-to-bumper gap."""
        sim, _ = build_sim()
        assert set(sim.network.lane_of.tolist()) == {0}   # one lane
        lane = sim.network.positions[np.argsort(sim.network.positions[:, 0])]
        y = float(lane[0, 1])
        follower = Agent(np.array([20.0, y]), np.array([1.0, 0.0]), speed,
                         lane[lane[:, 0] >= 20.0], lane[-1],
                         AgentAsset(follower_length, 1.9, 1.6))
        parked = Agent(np.array([60.0, y]), np.array([1.0, 0.0]), 0.0,
                       np.array([[60.0, y]]), lane[-1],
                       AgentAsset(parked_length, 2.0, 1.9), static=True)
        state = SimState(agents=[follower, parked], ego=follower)
        overlaps = 0
        for _ in range(steps):
            sim.agent_step(state)
            overlaps += boxes_overlap(follower, parked)
        gap = (math.dist(follower.position, parked.position)
               - (follower_length + parked_length) / 2.0)
        return sim, follower, overlaps, gap

    def test_follower_stops_s0_behind_a_parked_car_bumper_to_bumper(self):
        # IDM's gap is bumper to bumper (Treiber, Hennecke & Helbing 2000):
        # closing in at 8 m/s on a longer parked car, the follower stops s0
        # short of its rear bumper, and the two boxes never overlap
        sim, follower, overlaps, gap = self._close_in_on_parked(8.0, 4.5, 5.2)
        assert overlaps == 0
        assert follower.speed < 1e-6
        assert gap == pytest.approx(sim.params.idm.s0, abs=1e-3)

    @pytest.mark.parametrize("speed, follower_length, parked_length", [
        (4.0, 5.2, 4.5),    # the longer car follows
        (12.0, 4.5, 4.5),   # equal lengths, faster approach
        (8.0, 3.0, 7.0),    # very unequal halves: the gap subtracts both
    ])
    def test_stopping_gap_is_net_of_both_half_lengths(self, speed, follower_length,
                                                      parked_length):
        # whichever car is longer and however fast the approach, the stop is
        # s0 from bumper to bumper, not s0 from centre to centre
        sim, follower, overlaps, gap = self._close_in_on_parked(
            speed, follower_length, parked_length)
        assert overlaps == 0
        assert follower.speed < 1e-6
        assert gap == pytest.approx(sim.params.idm.s0, abs=1e-3)

    def test_snapshot_json_friendly(self):
        import json
        sim, _ = build_sim(horizon=2, seed=0)
        state = sim.init_state(ego_pose_index=2)
        json.dumps(snapshot_state(state))


def reference_stamp_box(fg, ego_pose, agent, vox, vehicle_id, trig=math):
    """An agent's oriented asset box rasterized into a separate foreground
    volume, each cell tested on a meshgrid of the box's bounding cells, with
    cos and sin from ``trig``."""
    X, Y, Z = fg.shape
    inv = ego_pose.inverse()
    center = inv.transform_point(agent.position) + np.array([X, Y]) * vox / 2.0
    yaw = agent.yaw - ego_pose.yaw
    L, W = agent.asset.length, agent.asset.width
    half_diag = math.hypot(L, W) / 2.0
    x0 = max(int((center[0] - half_diag) / vox) - 1, 0)
    x1 = min(int((center[0] + half_diag) / vox) + 2, X)
    y0 = max(int((center[1] - half_diag) / vox) - 1, 0)
    y1 = min(int((center[1] + half_diag) / vox) + 2, Y)
    if x1 <= x0 or y1 <= y0:
        return
    gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1), indexing="ij")
    cx = (gx + 0.5) * vox - center[0]
    cy = (gy + 0.5) * vox - center[1]
    c, s = trig.cos(-yaw), trig.sin(-yaw)
    lon = c * cx - s * cy
    lat = s * cx + c * cy
    inside = (np.abs(lon) <= L / 2.0) & (np.abs(lat) <= W / 2.0)
    z1 = min(int(math.ceil(agent.asset.height / vox)), Z)
    sub = fg[x0:x1, y0:y1, :z1]
    sub[inside] = vehicle_id
    fg[x0:x1, y0:y1, :z1] = sub


def reference_overlay(background: OccupancyGrid, foreground: OccupancyGrid) -> OccupancyGrid:
    """Foreground label wins wherever it is assigned; background elsewhere."""
    if background.dims != foreground.dims or background.voxel_size != foreground.voxel_size:
        raise ValueError("overlay requires identical dims and voxel size")
    out = background.labels.copy()
    sel = foreground.labels != foreground.table.unassigned_id
    out[sel] = foreground.labels[sel]
    return OccupancyGrid(out, background.voxel_size, background.origin, background.table)


class TestOverlay:
    def test_foreground_wins_where_assigned(self):
        bg = OccupancyGrid(np.full((4, 4, 2), 1, dtype=np.uint8))
        fg_labels = np.zeros((4, 4, 2), dtype=np.uint8)
        fg_labels[1, 1, 0] = 3
        fg = OccupancyGrid(fg_labels)
        out = reference_overlay(bg, fg)
        assert out.labels[1, 1, 0] == 3
        assert out.labels[0, 0, 0] == 1

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reference_overlay(OccupancyGrid(np.zeros((4, 4, 2), dtype=np.uint8)),
                              OccupancyGrid(np.zeros((5, 4, 2), dtype=np.uint8)))


def reference_render(sim, state):
    """The frame as a foreground volume of agent boxes, each agent tested
    against the field of view on its own, laid over the crop with
    ``reference_overlay``. Kept as the equivalence reference."""
    ego_pose = state.ego.pose
    background = crop(sim.gmap, ego_pose, sim.params.fov_dims)
    fg = np.full(background.dims, sim.gmap.table.unassigned_id, dtype=np.uint8)
    vox = sim.gmap.voxel_size
    half = np.array(sim.params.fov_dims[:2]) * vox / 2.0
    for agent in state.agents:
        local = ego_pose.inverse().transform_point(agent.position)
        if np.all(np.abs(local) <= half):
            reference_stamp_box(fg, background.origin, agent, vox,
                                sim.gmap.table.vehicle_id)
    return reference_overlay(background,
                             OccupancyGrid(fg, vox, background.origin, sim.gmap.table))


def random_agents(data, n, coord=st.floats(-5.0, 25.0, allow_nan=False)):
    """n agents at drawn positions and yaws, with drawn box sizes."""
    size = st.floats(0.3, 6.0)
    agents = []
    for _ in range(n):
        h = data.draw(st.floats(-math.pi, math.pi))
        agents.append(Agent([data.draw(coord), data.draw(coord)],
                            [math.cos(h), math.sin(h)], 0.0, [[0.0, 0.0]], [0.0, 0.0],
                            AgentAsset(data.draw(size), data.draw(size), data.draw(size))))
    return agents


class TestRender:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_foreground_overlay(self, data):
        # a random map, a small field of view, and up to 24 agents in, at the
        # edge of and outside it, some boxes larger than the view; the ego
        # may be left out of the agent list, so that no agent is in view
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        vox = data.draw(st.sampled_from([0.4, 0.5]))
        gmap = GlobalMap(rng.integers(0, 7, size=(40, 40, 6)).astype(np.uint8), vox)
        fov = data.draw(st.tuples(st.integers(2, 40), st.integers(2, 40),
                                  st.integers(1, 8)))
        sim = Simulator(gmap, [], [], [Pose2()], SimParams(fov_dims=fov))
        agents = random_agents(data, data.draw(st.integers(1, 25)))
        state = SimState(agents=agents[data.draw(st.integers(0, 1)):], ego=agents[0])
        frame = sim.render(state)
        expect = reference_render(sim, state)
        assert np.array_equal(frame.labels, expect.labels)
        assert (frame.voxel_size, frame.origin) == (expect.voxel_size, expect.origin)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_boxes_off_the_volume_stamp_nothing(self, data):
        # boxes stamped straight into a volume, many far enough off its
        # edges that their windows clip to nothing
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        vox = data.draw(st.sampled_from([0.4, 0.5]))
        labels = rng.integers(0, 7, size=(20, 16, 5)).astype(np.uint8)
        agents = random_agents(data, data.draw(st.integers(0, 24)),
                               st.floats(-20.0, 30.0, allow_nan=False))
        half = np.array(labels.shape[:2]) * vox / 2.0
        local = np.array([a.position for a in agents]).reshape(-1, 2) - half
        stamped = labels.copy()
        simulation._stamp_boxes(stamped, local, [a.yaw for a in agents],
                                [a.asset for a in agents], vox, 9)
        for agent, p in zip(agents, local):
            reference_stamp_box(labels, Pose2(),
                                Agent(p, agent.heading, 0.0, [[0.0, 0.0]], [0.0, 0.0],
                                      agent.asset), vox, 9)
        assert np.array_equal(stamped, labels)

    def test_box_trig_comes_from_math_of_the_raw_yaw(self, monkeypatch):
        # numpy's float64 cos/sin can agree with math's on every yaw, so the
        # module's math is swapped for one whose cos/sin come out one ulp
        # up and record their arguments. The box's length puts its edge on a
        # cell centre that the nudged and the true cos/sin put on opposite
        # sides, so trig taken from anywhere else, or of a wrapped yaw,
        # stamps that cell differently.
        called = []
        nudged = types.SimpleNamespace(**vars(math))
        nudged.cos = lambda x: called.append(x) or math.nextafter(math.cos(x), math.inf)
        nudged.sin = lambda x: called.append(x) or math.nextafter(math.sin(x), math.inf)
        vox, X, Y, yaw = 0.5, 24, 24, 4.0   # a raw yaw outside (-pi, pi]
        local = np.array([[0.13, -0.07]])
        center = local[0] + np.array([X, Y]) * vox / 2.0
        gx, gy = np.meshgrid(np.arange(X), np.arange(Y), indexing="ij")
        cx, cy = (gx + 0.5) * vox - center[0], (gy + 0.5) * vox - center[1]
        lon = [np.abs(t.cos(-yaw) * cx - t.sin(-yaw) * cy) for t in (math, nudged)]
        lat = np.abs(math.sin(-yaw) * cx + math.cos(-yaw) * cy)
        edge = np.unravel_index(np.argmax((lon[0] != lon[1]) & (lon[0] < 3.0) & (lat < 3.0)),
                                lat.shape)
        assert lon[0][edge] != lon[1][edge]
        box = types.SimpleNamespace(position=local[0], yaw=yaw, asset=AgentAsset(
            2.0 * min(lon[0][edge], lon[1][edge]), 8.0, 1.0))
        truth, expect = (np.zeros((X, Y, 2), dtype=np.uint8) for _ in range(2))
        reference_stamp_box(truth, Pose2(), box, vox, 9)
        reference_stamp_box(expect, Pose2(), box, vox, 9, trig=nudged)
        assert truth[edge][0] != expect[edge][0]
        called.clear()
        monkeypatch.setattr(simulation, "math", nudged)
        stamped = np.zeros((X, Y, 2), dtype=np.uint8)
        simulation._stamp_boxes(stamped, local, [yaw], [box.asset], vox, 9)
        assert called == [-yaw, -yaw]
        assert np.array_equal(stamped, expect)


@pytest.fixture(scope="module")
def small_city():
    """A 240 m, 3x3-block grid world: map, lanes, valid endpoints, ego path."""
    spec = WorldSpec(recipe="grid", extent=240.0, blocks=(3, 3))
    world = generate_world(spec)
    g, valid = extract_topology(world)
    endpoints = [((x + 0.5) * 0.4, (y + 0.5) * 0.4) for x, y in valid]
    return world, extract_lanes(world, g), endpoints, straight_trajectory(spec)


class TestPinnedRollouts:
    """Rollouts hashed byte for byte: every snapshot_state entry (JSON, keys
    sorted) and every rendered frame. The digests were recorded with the
    per-agent loops that the reference functions in these tests keep, so
    any change to the simulator's arithmetic moves them."""

    @pytest.mark.parametrize("seed, start, pin, hold_from", [
        (3, 1, "rollout/seed3-edge", None),
        (3, 34, "rollout/seed3-interior", None),
        (11, 1, "rollout/seed11-edge", None),
        (11, 34, "rollout/seed11-interior", None),
        # the ego drives 4 steps, then stands still (ego_speed_hook), as in
        # TestRevisit: it stalls by design, whatever the traffic does
        (1, 34, "rollout/seed1-stall", 4),
    ], ids=["seed3-edge", "seed3-interior", "seed11-edge", "seed11-interior",
            "seed1-stall"])
    def test_rollout_bytes(self, small_city, seed, start, pin, hold_from):
        world, lanes, endpoints, path = small_city
        hook = None if hold_from is None else (
            lambda state, ego: ego.speed if state.step_index < hold_from else 0.0)
        sim = Simulator(world, lanes, endpoints, path, SimParams(horizon=12, seed=seed),
                        ego_speed_hook=hook)
        frames, logbook = zip(*sim.iter_steps(ego_pose_index=start))
        if hold_from is not None:
            assert all(entry["ego"]["speed"] == 0.0 for entry in logbook[hold_from:])
        assert_pinned(pin, (chunk for frame, entry in zip(frames, logbook)
                            for chunk in (json.dumps(entry, sort_keys=True).encode(),
                                          frame.labels)))


class TestRevisit:
    def test_equal_poses_render_equal_places(self, small_city, monkeypatch):
        # Paper desideratum 3: a place seen again looks structurally
        # identical. The ego drives for 4 steps and then holds still, so
        # later steps repeat its pose and reuse its crop, whatever the
        # traffic does; every frame must still be a fresh crop with the
        # boxes in view stamped into it.
        world, lanes, endpoints, path = small_city
        sim = Simulator(world, lanes, endpoints, path, SimParams(seed=1),
                        ego_speed_hook=lambda state, ego:
                        ego.speed if state.step_index < 4 else 0.0)
        crops = []
        monkeypatch.setattr(simulation, "crop", lambda *a: crops.append(a) or crop(*a))
        state = sim.init_state(ego_pose_index=34)
        frames, poses = [], []
        for _ in range(12):
            frame = sim.step(state)
            assert np.array_equal(frame.labels, reference_render(sim, state).labels)
            frames.append(frame.labels)
            poses.append(frame.origin)
        assert len(crops) < len(frames)
        vid = world.table.vehicle_id
        revisits = [(i, j) for i in range(len(poses)) for j in range(i)
                    if poses[i] == poses[j]]
        assert revisits
        for i, j in revisits:
            kept = (frames[i] != vid) & (frames[j] != vid)
            assert np.array_equal(frames[i][kept], frames[j][kept])


class TestLaneChange:
    def _two_lane_net(self):
        ax = np.arange(0.0, 100.0, 0.5)
        lanes = [Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0),
                 Lane(np.stack([ax, np.full_like(ax, 3.6)], axis=1), 0, 1)]
        return build_route_network(lanes)

    def test_head_on_triggers_change(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 8, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        params = SimParams()
        changed = maybe_lane_change(a, s=10.0, dv=16.0, head_on=True, network=net,
                                    params=params)
        assert changed
        assert a.lane_id == 1
        assert a.lc_cooldown == params.lc_cooldown_steps

    def test_no_trigger_beyond_distance(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 8, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        assert not maybe_lane_change(a, s=30.0, dv=16.0, head_on=True, network=net,
                                     params=SimParams())

    def test_cooldown_blocks(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 8, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        a.lc_cooldown = 5
        assert not maybe_lane_change(a, s=10.0, dv=16.0, head_on=True, network=net,
                                     params=SimParams())

    def test_advance_follows_the_new_route(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 8, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        advance_along_route(a, 2.0)   # reads the first route's geometry
        assert maybe_lane_change(a, s=8.0, dv=16.0, head_on=True, network=net,
                                 params=SimParams())
        route = a.route.copy()
        advance_along_route(a, 3.0)
        expect = resample_polyline(route, arc_length(route), 3.0)
        assert np.array_equal(a.position, expect)
        # on the old route the same arc length is elsewhere
        assert not np.allclose(expect, [13.0, 0.0])

    def test_receding_same_direction_no_trigger(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 5, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        assert not maybe_lane_change(a, s=10.0, dv=-4.0, head_on=False, network=net,
                                     params=SimParams())

    def test_head_on_triggers_without_closing_in(self):
        net = self._two_lane_net()
        a = make_agent(10, 0, [1, 0], 5, [[10.0, 0.0], [99.5, 0.0]], lane_id=0)
        assert maybe_lane_change(a, s=10.0, dv=-4.0, head_on=True, network=net,
                                 params=SimParams())
