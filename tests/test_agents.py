import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxsim.agents import (DEFAULT_ASSETS, MIN_SPACING, PEAK_THRESHOLD,
                           SNAP_DIST, Agent, AgentAsset, AgentLayout,
                           GLOBAL_TRANSFORMS, LayoutEntry,
                           ProceduralLayoutSource, _route_heading,
                           _transform_cell, augment, decode_heatmap,
                           encode_heatmap, read_heatmap, spawn_agents,
                           write_heatmap)
from voxsim.geometry import Pose2, arc_length
from voxsim.lanes import Lane
from voxsim.occupancy import OccupancyGrid
from voxsim.routing import build_route_network

from conftest import make_map


def centered_layout(cells, mpc=0.4):
    """Layout whose entries sit exactly at cell centers (lossless decoding)."""
    return AgentLayout([LayoutEntry((cx + 0.5) * mpc, (cy + 0.5) * mpc, static)
                        for cx, cy, static in cells])


class TestHeatmapCodec:
    def test_round_trip_lossless(self):
        cells = [(20, 20, False), (40, 20, True), (60, 80, False),
                 (100, 100, True), (150, 30, False)]
        layout = centered_layout(cells)
        h = encode_heatmap(layout, 0.4)
        back = decode_heatmap(h, 0.4)
        got = sorted((round(e.x / 0.4 - 0.5), round(e.y / 0.4 - 0.5), e.static)
                     for e in back.entries)
        assert got == sorted(cells)

    def test_peak_signs(self):
        h = encode_heatmap(centered_layout([(50, 50, True), (100, 100, False)]), 0.4)
        assert h[50, 50] == pytest.approx(1.0)
        assert h[100, 100] == pytest.approx(-1.0)

    def test_kernel_truncated_at_radius(self):
        h = encode_heatmap(centered_layout([(50, 50, True)]), 0.4)
        assert h[50, 54] == 0.0
        assert h[53, 53] == 0.0          # radius exceeded diagonally
        assert h[50, 53] > 0.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            encode_heatmap(AgentLayout([LayoutEntry(1000.0, 0.0)]), 0.4)

    def test_decode_threshold(self):
        # one vehicle's peak is 1: scaled just above PEAK_THRESHOLD it
        # decodes, at or just below it does not
        h = encode_heatmap(centered_layout([(50, 50, False)]), 0.4)
        assert np.abs(h).max() == 1.0
        assert len(decode_heatmap(h * (PEAK_THRESHOLD * 1.01), 0.4)) == 1
        assert len(decode_heatmap(h * PEAK_THRESHOLD, 0.4)) == 0
        assert len(decode_heatmap(h * (PEAK_THRESHOLD * 0.99), 0.4)) == 0

    def test_file_round_trip(self, tmp_path):
        h = encode_heatmap(centered_layout([(10, 10, False)]), 0.4)
        path = tmp_path / "h.hm"
        write_heatmap(h, 0.4, path)
        back, mpc = read_heatmap(path)
        assert mpc == 0.4
        assert np.allclose(back, h.astype(np.float32))


class TestAugment:
    def _road_grid(self, table):
        plane = np.full((200, 200), table.road_id, dtype=np.uint8)
        return make_map(plane, table, z_dim=4)

    def test_cap_15_to_10(self, table):
        grid = self._road_grid(table)
        cells = [(10 + 12 * i, 100, False) for i in range(15)]
        layout = centered_layout(cells)
        out, _ = augment(layout, grid, seed=0, transform="identity",
                         perturb=False)
        assert len(out) == 10

    @pytest.mark.parametrize("shape", [(200, 200), (200, 120)])
    def test_shared_transform_grid_and_layout(self, table, shape):
        rng = np.random.default_rng(3)
        plane = rng.integers(1, 7, size=shape).astype(np.uint8)
        grid = make_map(plane, table, z_dim=2, free_above=False)
        cells = [(30, 40, False), (120, 60, True), (70, 110, False),
                 (0, 0, True), (199, 0, False), (0, shape[1] - 1, True)]
        layout = centered_layout(cells)
        for t in GLOBAL_TRANSFORMS:
            out, new_grid = augment(layout, grid, seed=0, transform=t,
                                    perturb=False)
            for (cx, cy, static), e in zip(cells, out.entries):
                tx, ty = _transform_cell(t, cx, cy, *shape)
                assert (tx, ty) == reference_transform_cell(t, cx, cy, *shape)
                assert (round(e.x / 0.4 - 0.5), round(e.y / 0.4 - 0.5)) == (tx, ty)
                assert e.static == static
                # the label under the vehicle follows it through the transform
                assert new_grid.labels[tx, ty, 0] == grid.labels[cx, cy, 0]

    def test_transform_verified_by_redecoding(self, table):
        grid = self._road_grid(table)
        cells = [(50, 50, False), (150, 100, True)]
        layout = centered_layout(cells)
        out, _ = augment(layout, grid, seed=0, transform="rot90", perturb=False)
        h = encode_heatmap(out, 0.4)
        redecoded = decode_heatmap(h, 0.4)
        got = sorted((round(e.x / 0.4 - 0.5), round(e.y / 0.4 - 0.5), e.static)
                     for e in redecoded.entries)
        expect = sorted((*_transform_cell("rot90", cx, cy, 200, 200), s)
                        for cx, cy, s in cells)
        assert got == expect

    def test_perturbation_stays_drivable(self, table):
        plane = np.full((200, 200), 4, dtype=np.uint8)
        plane[95:106, 95:106] = table.road_id
        grid = make_map(plane, table, z_dim=2, free_above=False)
        layout = centered_layout([(100, 100, False)])
        for seed in range(10):
            out, _ = augment(layout, grid, seed=seed, transform="identity")
            e = out.entries[0]
            cx, cy = int(e.x / 0.4), int(e.y / 0.4)
            assert plane[cx, cy] == table.road_id
            assert abs(cx - 100) <= 2 and abs(cy - 100) <= 2

    def test_degenerate_mask_center_unchanged(self, table):
        plane = np.full((200, 200), 4, dtype=np.uint8)  # nothing drivable
        grid = make_map(plane, table, z_dim=2, free_above=False)
        layout = centered_layout([(100, 100, False)])
        out, _ = augment(layout, grid, seed=0, transform="identity")
        e = out.entries[0]
        assert (round(e.x / 0.4 - 0.5), round(e.y / 0.4 - 0.5)) == (100, 100)


class TestSpawn:
    HALF = np.array([150, 150]) * 0.4 / 2.0  # a 150 x 150 footprint at 0.4 m

    def _world(self):
        ax = np.arange(2.0, 98.0, 0.5)
        lanes = [Lane(np.stack([ax, np.full_like(ax, 14.2)], axis=1), 0, 0),
                 Lane(np.stack([ax, np.full_like(ax, 17.8)], axis=1), 0, 1)]
        network = build_route_network(lanes)
        endpoints = [(2.0, 16.0), (97.5, 16.0)]
        return network, endpoints

    def test_ego_present_and_routed(self):
        network, endpoints = self._world()
        rng = np.random.default_rng(0)
        source = ProceduralLayoutSource(network)
        anchor = Pose2(50.0, 16.0, 0.0)
        agents = spawn_agents(anchor, True, self.HALF, network, endpoints,
                              (8.0, 2.0), source, rng)
        egos = [a for a in agents if a.is_ego]
        assert len(egos) == 1
        ego = egos[0]
        assert len(ego.route) >= 2
        assert np.linalg.norm(ego.position - [50.0, 16.0]) < 5.0
        for a in agents:
            assert a.speed >= 0.0
            if a.static:
                assert a.speed == 0.0 and len(a.route) == 1
            else:
                assert len(a.route) >= 2
                # route ends at a node near some valid endpoint
                d = min(np.linalg.norm(a.route[-1] - np.asarray(e))
                        for e in endpoints)
                assert d < 5.0

    def test_unsnappable_anchor_discards_ego(self):
        network, endpoints = self._world()
        rng = np.random.default_rng(0)
        source = ProceduralLayoutSource(build_route_network([]))  # proposes nothing
        agents = spawn_agents(Pose2(50.0, 70.0, 0.0), True, self.HALF, network,
                              endpoints, (8.0, 2.0), source, rng)
        assert agents == []

    def test_no_lanes_rejected(self):
        _, endpoints = self._world()
        empty = build_route_network([])
        with pytest.raises(ValueError):
            spawn_agents(Pose2(), True, self.HALF, empty, endpoints, (8.0, 2.0),
                         ProceduralLayoutSource(empty), np.random.default_rng(0))

    def test_procedural_source_spacing_and_cap(self):
        network, endpoints = self._world()
        source = ProceduralLayoutSource(network)
        for seed in range(20):
            layout = source.sample(Pose2(50.0, 16.0, 0.0), self.HALF,
                                   np.random.default_rng(seed))
            assert len(layout) <= 10
            pts = np.array([[e.x, e.y] for e in layout.entries])
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.linalg.norm(pts[i] - pts[j]) >= 8.0 - 1e-9

    def test_asset_validation(self):
        with pytest.raises(ValueError):
            AgentAsset(0.0, 1.0, 1.0)


def reference_transform_cell(t, cx, cy, w, h):
    """The six transforms as closed-form cell mappings."""
    return {"identity": (cx, cy), "rot90": (cy, w - 1 - cx),
            "rot180": (w - 1 - cx, h - 1 - cy), "rot270": (h - 1 - cy, cx),
            "flip_x": (w - 1 - cx, cy), "flip_y": (cx, h - 1 - cy)}[t]


def test_transform_cell_outside_plane_rejected():
    with pytest.raises(ValueError):
        _transform_cell("rot90", 200, 0, 200, 120)


def reference_sample(lanes, local_grid, rng):
    """The procedural layout as drawn from a crop around the anchor: every
    lane point transformed into the crop frame, the ones inside 90% of the
    crop pooled. Kept as the equivalence reference."""
    lane_points = (np.concatenate([l.points for l in lanes])
                   if lanes else np.zeros((0, 2)))
    anchor = local_grid.origin
    dims = local_grid.dims
    vox = local_grid.voxel_size
    half = np.array([dims[0], dims[1]]) * vox / 2.0
    inv = anchor.inverse()
    local = inv.transform_point(lane_points) if len(lane_points) else np.zeros((0, 2))
    inside = np.all(np.abs(local) < half * 0.9, axis=1)
    pool = lane_points[inside]
    k = int(rng.integers(0, 10 + 1))
    chosen = []
    order = rng.permutation(len(pool))
    for i in order:
        if len(chosen) >= k:
            break
        p = pool[i]
        if all(np.linalg.norm(p - q) >= 8.0 for q, _ in chosen):
            chosen.append((p, rng.random() < 0.2))
    entries = []
    for p, static in chosen:
        lp = inv.transform_point(p) + half  # local frame, corner origin
        entries.append(LayoutEntry(float(lp[0]), float(lp[1]), static))
    return AgentLayout(entries)


@st.composite
def sample_scenes(draw):
    """An anchor pose (near, at and beyond the edge of the lanes' 100 m
    square), a footprint, and lanes: random polylines, one whose samples
    sit on the 0.9 * half boundary of the anchor's footprint or one ulp to
    either side of it, and one with a sample by the anchor and samples
    MIN_SPACING from it along x and along y, or one ulp nearer or
    farther."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vox = draw(st.sampled_from([0.4, 0.5]))
    dims = (draw(st.integers(4, 250)), draw(st.integers(4, 250)), 1)
    quarter_turn = st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])
    yaw = draw(st.one_of(quarter_turn, st.floats(-math.pi, math.pi)))
    coord = st.one_of(st.integers(-60, 160).map(lambda v: v / 4.0),
                      st.floats(-60.0, 160.0))
    anchor = Pose2(draw(coord), draw(coord), yaw)
    lanes = []
    for _ in range(draw(st.integers(0, 4))):
        start = rng.uniform(0.0, 100.0, 2)
        heading = rng.uniform(-math.pi, math.pi)
        steps = np.arange(rng.integers(2, 160))[:, None] * 0.5
        pts = start + steps * [math.cos(heading), math.sin(heading)]
        lanes.append(Lane(pts, 0, len(lanes)))
    if draw(st.booleans()):
        inner = np.array(dims[:2]) * vox / 2.0 * 0.9
        t = rng.uniform(-1.0, 1.0, (40, 1)) * inner
        edge = np.concatenate([
            np.hstack([np.full_like(t[:, :1], inner[0]), t[:, 1:]]),
            np.hstack([t[:, :1], np.full_like(t[:, :1], -inner[1])]),
            [inner, -inner, [inner[0], -inner[1]]]])
        ulps = rng.integers(-1, 2, edge.shape)
        edge = np.where(ulps == 0, edge, np.nextafter(edge, np.copysign(np.inf, ulps)))
        lanes.append(Lane(anchor.transform_point(edge), 0, len(lanes)))
    if draw(st.booleans()):
        # quarter-meter coordinates: p + MIN_SPACING - p is MIN_SPACING exactly
        p = np.round(anchor.position * 4.0) / 4.0
        spaced = [p]
        for axis in (0, 1):
            q = p.copy()
            q[axis] += MIN_SPACING
            for toward in (-np.inf, None, np.inf):
                r = q.copy()
                if toward is not None:
                    r[axis] = np.nextafter(q[axis], toward)
                spaced.append(r)
        lanes.append(Lane(np.array(spaced), 0, len(lanes)))
    return anchor, vox, dims, lanes


@settings(max_examples=300, deadline=None)
@given(sample_scenes(), st.integers(0, 2 ** 32 - 1))
def test_procedural_sample_matches_reference(scene, seed):
    anchor, vox, dims, lanes = scene
    local_grid = OccupancyGrid(np.zeros(dims, dtype=np.uint8), vox, anchor)
    expect_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expect = reference_sample(lanes, local_grid, expect_rng)
    half = np.array(dims[:2]) * vox / 2.0
    got = ProceduralLayoutSource(build_route_network(lanes)).sample(anchor, half, got_rng)
    assert got.entries == expect.entries
    assert got_rng.random() == expect_rng.random()   # same number of draws


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=40),
       st.floats(0.1, 50.0))
def test_route_arc_is_the_arc_length(cells, scale):
    # repeated points make zero-length segments, whose squared length the
    # segment cache then sets to 1
    route = np.asarray(cells, dtype=float) * scale
    agent = Agent(route[0], np.array([1.0, 0.0]), 0.0, route, route[-1], DEFAULT_ASSETS[0])
    assert agent.route_arc.tobytes() == arc_length(route).tobytes()


def reference_spawn_agents(anchor, b_ego, half, network, valid_endpoints_m, speed_dist,
                           layout_source, rng):
    """spawn_agents as it snapped each proposal with its own
    ``nearest_node(pos, SNAP_DIST)`` query, without the log entries."""
    mu_v, sigma_v = speed_dist
    layout = layout_source.sample(anchor, half, rng)
    world_positions = []
    for e in layout.entries:
        local = np.array([e.x, e.y]) - half
        world_positions.append((anchor.transform_point(local), e.static, False))
    if b_ego:
        world_positions.append((anchor.position, False, True))
    endpoints = np.asarray(valid_endpoints_m, dtype=float)
    agents = []
    for pos, static, is_ego in world_positions:
        speed = max(0.0, rng.normal(mu_v, sigma_v))
        target = endpoints[rng.integers(0, len(endpoints))]
        asset = DEFAULT_ASSETS[rng.integers(0, len(DEFAULT_ASSETS))]
        node = network.nearest_node(pos, SNAP_DIST)
        if node is None:
            continue
        if static:
            snap = network.positions[node]
            heading = network.tangent_at(node)
            agents.append(Agent(snap, heading, 0.0, np.asarray([snap]),
                                target, asset, static=True,
                                lane_id=int(network.lane_of[node])))
            continue
        route = network.route_to(node, target)
        if route is None:
            continue
        heading = _route_heading(route)
        agents.append(Agent(route[0].copy(), heading, speed, route, target,
                            asset, lane_id=int(network.lane_of[node]), is_ego=is_ego))
    return agents


class FixedLayoutSource:
    def __init__(self, layout):
        self.layout = layout

    def sample(self, anchor, half, rng):
        return self.layout


@st.composite
def snap_scenes(draw):
    """Straight lanes on a 0.5 m lattice and proposals around their samples:
    exactly SNAP_DIST away along an axis or on a 3-4-5 diagonal, one ulp
    nearer or farther along an axis, or anywhere within 7 m. The anchor is
    the origin pose and the footprint half-extent zero, so the proposals'
    world positions are their layout coordinates exactly."""
    lanes = []
    for k in range(draw(st.integers(1, 3))):
        first = np.array([draw(st.integers(-40, 40)), draw(st.integers(-40, 40))])
        step = np.array(draw(st.sampled_from([(1, 0), (0, 1), (-1, 0)])))
        cells = first + np.arange(draw(st.integers(1, 40)))[:, None] * step
        lanes.append(Lane(cells * 0.5, k, 0))
    samples = np.concatenate([lane.points for lane in lanes])
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        p = samples[draw(st.integers(0, len(samples) - 1))].copy()
        kind = draw(st.sampled_from(["axis", "diagonal", "ulp", "any"]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        axis = draw(st.integers(0, 1))
        if kind == "any":
            p += [draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))]
        elif kind == "diagonal":
            p += sign * np.array([3.0, 4.0] if axis else [4.0, -3.0])
        else:
            p[axis] += sign * SNAP_DIST
            if kind == "ulp":
                p[axis] = np.nextafter(p[axis], draw(st.sampled_from([-np.inf, np.inf])))
        entries.append(LayoutEntry(float(p[0]), float(p[1]), draw(st.booleans())))
    endpoints = samples[draw(st.lists(st.integers(0, len(samples) - 1), min_size=1,
                                      max_size=3))]
    return lanes, AgentLayout(entries), endpoints, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(snap_scenes(), st.integers(0, 2 ** 32 - 1))
def test_batched_snap_matches_per_proposal_snap(scene, seed):
    lanes, layout, endpoints, b_ego = scene
    network = build_route_network(lanes)
    source = FixedLayoutSource(layout)
    args = (Pose2(), b_ego, np.zeros(2), network, endpoints, (8.0, 2.0), source)
    expect_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expect = reference_spawn_agents(*args, expect_rng)
    got = spawn_agents(*args, got_rng)
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        for name in ("position", "heading", "route", "target"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert (a.speed, a.asset, a.static, a.lane_id, a.is_ego) == (
            b.speed, b.asset, b.static, b.lane_id, b.is_ego)
    assert got_rng.random() == expect_rng.random()   # same number of draws


def test_proposal_at_snap_dist_is_kept():
    # the sample at (0, 0) is SNAP_DIST from (0, 5) and (3, 4); one ulp
    # past that distance the proposal is dropped
    ax = np.arange(-20.0, 0.5, 0.5)
    network = build_route_network([Lane(np.stack([ax, np.zeros_like(ax)], axis=1))])
    past = float(np.nextafter(SNAP_DIST, np.inf))
    layout = AgentLayout([LayoutEntry(0.0, SNAP_DIST), LayoutEntry(3.0, 4.0),
                          LayoutEntry(0.0, past)])
    agents = spawn_agents(Pose2(), False, np.zeros(2), network, [(-20.0, 0.0)],
                          (8.0, 2.0), FixedLayoutSource(layout), np.random.default_rng(0))
    assert [a.route[0].tolist() for a in agents] == [[0.0, 0.0], [0.0, 0.0]]
