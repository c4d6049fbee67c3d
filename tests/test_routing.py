import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

import voxsim.routing as routing
from voxsim.lanes import Lane
from voxsim.routing import RouteNetwork, build_route_network

from conftest import assert_pinned, astar


def random_geometric_graph(rng, n=30, k=4):
    """Random positions with k-nearest Euclidean edges (metric weights, so the
    straight-line heuristic is admissible)."""
    pos = rng.uniform(0, 100, size=(n, 2))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        d = np.linalg.norm(pos - pos[i], axis=1)
        for j in np.argsort(d)[1:k + 1]:
            g.add_edge(i, int(j), weight=float(d[j]))
    return RouteNetwork(pos, [0] * n, list(g.edges)), g


def path_to(net, start: int, goal: int):
    """Shortest route from start to goal as (node list, cost), or None when
    goal is unreachable: ``net._runs`` with each run expanded into its
    nodes."""
    found = net._runs(start, goal)
    if found is None:
        return None
    path = []
    for first, last in found[0]:
        path.extend(range(first, last + 1) if first <= last else range(first, last - 1, -1))
    return path, found[1]


def reference_build_route_network(lanes, junction_radius=4.0):
    """The dict-of-lists builder the CSR one replaced: (positions, lane_of,
    adjacency), adjacency mapping node -> [(node, weight)] in insertion
    order."""
    positions, lane_of, lane_nodes = [], [], []
    for li, lane in enumerate(lanes):
        ids = []
        for p in lane.points:
            ids.append(len(positions))
            positions.append(p)
            lane_of.append(li)
        lane_nodes.append(ids)
    adjacency = {i: [] for i in range(len(positions))}

    def connect(a, b):
        w = math.dist(positions[a], positions[b])
        if all(nb != b for nb, _ in adjacency[a]):
            adjacency[a].append((b, w))
            adjacency[b].append((a, w))

    for ids in lane_nodes:
        for a, b in zip(ids, ids[1:]):
            connect(a, b)
    if positions:
        tree = cKDTree(np.asarray(positions, dtype=float).reshape(-1, 2))
        for li, ids in enumerate(lane_nodes):
            for end in (ids[0], ids[-1]):
                for j in tree.query_ball_point(positions[end], junction_radius):
                    if lane_of[j] != li:
                        connect(end, int(j))
    return positions, lane_of, adjacency


def reference_reverse_csr(n, adjacency):
    """The CSR the goal trees used to build from the dict: edge a -> b
    stored at (b, a), explicit zeros kept."""
    src, dst, w = [], [], []
    for a, nbrs in adjacency.items():
        for b, wb in nbrs:
            src.append(a)
            dst.append(b)
            w.append(wb)
    return csr_matrix((np.asarray(w, dtype=float),
                       (np.asarray(dst, dtype=np.int64), np.asarray(src, dtype=np.int64))),
                      shape=(n, n))


def reference_tangent_at(positions, lane_of, adjacency, node):
    for nbr, _ in adjacency.get(node, ()):
        if lane_of[nbr] == lane_of[node]:
            d = np.asarray(positions[nbr]) - np.asarray(positions[node])
            n = np.linalg.norm(d)
            if n > 0:
                return d / n
    return np.array([1.0, 0.0])


@st.composite
def lane_sets(draw):
    """Lanes of 1-8 samples on a 0.5 m lattice in a 6 m box, so samples of
    different lanes coincide (zero-length edges) and lane ends fall inside
    the junction radius of each other; plus the radius."""
    lanes = []
    for k in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 8))
        cells = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                              min_size=n, max_size=n))
        lanes.append(Lane(np.asarray(cells, dtype=float) * 0.5, k, 0))
    return lanes, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]))


class TestAstar:
    def test_matches_dijkstra_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            net, g = random_geometric_graph(rng)
            s, t = rng.integers(0, 30, size=2)
            found = astar(net, int(s), int(t))
            if not nx.has_path(g, int(s), int(t)):
                assert found is None
                continue
            ref = nx.dijkstra_path_length(g, int(s), int(t))
            assert found is not None
            path, cost = found
            assert path[0] == s and path[-1] == t
            # the reported cost equals the path's own edge-weight sum
            recomputed = sum(g.edges[a, b]["weight"]
                             for a, b in zip(path, path[1:]))
            assert cost == pytest.approx(recomputed, abs=1e-9)
            assert cost == pytest.approx(ref, abs=1e-9)

    def test_trivial_self_route(self):
        net = RouteNetwork([[0.0, 0.0], [1.0, 0.0]], [0, 0], [(0, 1)])
        path, cost = astar(net, 0, 0)
        assert path == [0] and cost == 0.0

    def test_disconnected_returns_none(self):
        net = RouteNetwork([[0.0, 0.0], [5.0, 0.0]], [0, 1], [])
        assert astar(net, 0, 1) is None


class TestPathTo:
    def test_matches_astar_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            net, g = random_geometric_graph(rng)
            s, t = (int(v) for v in rng.integers(0, 30, size=2))
            found = path_to(net, s, t)
            ref = astar(net, s, t)
            assert (found is None) == (ref is None)
            if found is None:
                continue
            path, cost = found
            assert path[0] == s and path[-1] == t
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            recomputed = sum(g.edges[a, b]["weight"]
                             for a, b in zip(path, path[1:]))
            assert cost == pytest.approx(recomputed, abs=1e-9)
            assert cost == pytest.approx(ref[1], abs=1e-9)

    def test_trivial_self_route(self):
        net = RouteNetwork([[0.0, 0.0], [1.0, 0.0]], [0, 0], [(0, 1)])
        assert path_to(net, 1, 1) == ([1], 0.0)

    def test_disconnected_returns_none(self):
        net = RouteNetwork([[0.0, 0.0], [5.0, 0.0]], [0, 1], [])
        assert path_to(net, 0, 1) is None

    def test_routes_through_zero_weight_edge(self):
        # lane b starts on lane a's last sample; with a tiny junction radius
        # that coincident pair is the only link between the lanes
        ax = np.arange(0.0, 5.5, 0.5)
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        b = Lane(np.stack([np.full_like(ax, 5.0), ax], axis=1), 0, 1)
        net = build_route_network([a, b], junction_radius=0.1)
        last_a, first_b = len(ax) - 1, len(ax)
        assert (first_b, 0.0) in net.neighbors(last_a)
        found = path_to(net, 0, 2 * len(ax) - 1)
        assert found is not None
        path, cost = found
        assert [last_a, first_b] == path[len(ax) - 1:len(ax) + 1]
        assert cost == pytest.approx(10.0, abs=1e-9)

    def test_one_tree_per_goal(self, monkeypatch):
        calls = []
        dijkstra = routing.dijkstra

        def counting_dijkstra(*args, **kwargs):
            calls.append(kwargs["indices"])
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(routing, "dijkstra", counting_dijkstra)
        rng = np.random.default_rng(1)
        net, _ = random_geometric_graph(rng, n=300, k=6)
        goals = rng.choice(300, size=5, replace=False)
        for s in rng.integers(0, 300, size=200):
            for t in goals:
                path_to(net, int(s), int(t))
        assert sorted(calls) == sorted(int(t) for t in goals)


def reference_path_to(trees, graph, start, goal):
    """The walk routes took before they stepped by runs: one Python step per
    predecessor link. The body is that of the ``RouteNetwork.path_to`` of
    that time, with the tree cache ``trees`` and the CSR ``graph`` passed
    in."""
    tree = trees.get(goal)
    if tree is None:
        dist, pred = dijkstra(graph, indices=goal, return_predecessors=True)
        tree = trees[goal] = dist, pred.astype(np.int32, copy=False)
    dist, pred = tree
    if math.isinf(dist[start]):
        return None
    hop = memoryview(pred)   # indexing yields Python ints
    path = [start]
    node = start
    while node != goal:
        node = hop[node]
        path.append(node)
    return path, float(dist[start])


@st.composite
def run_lane_sets(draw):
    """Straight lanes of 1-12 samples on a 0.5 m lattice, each starting in a
    6 m box and running along one of four directions, two of which count
    down the lattice (the reverse of the two that count up), plus a
    junction radius and up to 8 goal nodes. Some lanes start on or beside
    the previous lane's last sample, which is the node just before theirs,
    so the stitch joins consecutive nodes of two lanes; samples of
    different lanes coincide (zero-length edges); and a small radius
    leaves lanes unconnected."""
    lanes = []
    for k in range(draw(st.integers(1, 6))):
        step = np.array(draw(st.sampled_from([(1, 0), (-1, 0), (0, -1), (1, 1)])))
        if lanes and draw(st.booleans()):
            first = lanes[-1].points[-1] / 0.5 + draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        else:
            first = np.array([draw(st.integers(0, 12)), draw(st.integers(0, 12))])
        cells = first + np.arange(draw(st.integers(1, 12)))[:, None] * step
        lanes.append(Lane(cells * 0.5, k, 0))
    n = sum(len(lane.points) for lane in lanes)
    goals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    return lanes, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])), goals


class TestRunWalk:
    @settings(max_examples=200, deadline=None)
    @given(run_lane_sets())
    def test_matches_the_predecessor_walk(self, case):
        # every start toward each goal, start == goal and unreachable goals
        # included: the same node list, cost and route bytes
        lanes, radius, goals = case
        net = build_route_network(lanes, junction_radius=radius)
        nearest = cKDTree(net.positions)
        trees = {}
        for goal in goals:
            target = net.positions[goal] + 0.1
            snapped = int(nearest.query(target)[1])
            for start in range(len(net.positions)):
                assert path_to(net, start, goal) == reference_path_to(trees, net.graph,
                                                                      start, goal)
                want = reference_path_to(trees, net.graph, start, snapped)
                got = net.route_to(start, target)
                if want is None:
                    assert got is None
                else:
                    expect = net.positions[want[0]]
                    assert got.dtype == expect.dtype and got.shape == expect.shape
                    assert got.tobytes() == expect.tobytes()

    def test_a_route_along_a_lane_is_one_run(self):
        ax = np.arange(0.0, 50.0, 0.5)
        net = build_route_network([Lane(np.stack([ax, np.zeros_like(ax)], axis=1))])
        assert net._runs(0, 99) == ([(0, 99)], 49.5)
        assert net._runs(99, 0) == ([(99, 0)], 49.5)
        assert net._runs(7, 7) == ([(7, 7)], 0.0)

    def test_each_target_snapped_once(self, monkeypatch):
        net = build_route_network(grid_lanes())
        fresh = build_route_network(grid_lanes())
        calls = []
        nearest_node = net.nearest_node

        def counting_nearest_node(point, *args):
            calls.append(tuple(point))
            return nearest_node(point, *args)

        monkeypatch.setattr(net, "nearest_node", counting_nearest_node)
        rng = np.random.default_rng(3)
        targets = rng.uniform(-5.0, 77.0, size=(5, 2))
        for start in rng.integers(0, len(net.positions), size=40):
            for target in targets:
                # a list and an array with the same values are one target
                for point in (target, target.tolist()):
                    got = net.route_to(int(start), point)
                    want = path_to(fresh, int(start), fresh.nearest_node(point))
                    assert got.tobytes() == fresh.positions[want[0]].tobytes()
        assert sorted(calls) == sorted(tuple(t) for t in targets)


class TestRouteNetwork:
    def _two_lanes(self):
        ax = np.arange(0.0, 20.0, 0.5)
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        b = Lane(np.stack([ax, np.full_like(ax, 3.6)], axis=1), 0, 1)
        return [a, b]

    def test_consecutive_samples_connected(self):
        net = build_route_network(self._two_lanes())
        n_per_lane = 40
        for i in range(n_per_lane - 1):
            assert any(nb == i + 1 for nb, _ in net.neighbors(i))

    def test_endpoints_stitched_across_lanes(self):
        net = build_route_network(self._two_lanes())
        # lane 0's first node links to nearby lane-1 samples (3.6 m < 4 m)
        assert any(net.lane_of[nb] == 1 for nb, _ in net.neighbors(0))

    def test_nearest_node_respects_max_dist(self):
        net = build_route_network(self._two_lanes())
        assert net.nearest_node([0.0, 0.1], max_dist=5.0) == 0
        assert net.nearest_node([0.0, 50.0], max_dist=5.0) is None

    def test_nearest_node_on_other_lane(self):
        net = build_route_network(self._two_lanes())
        node = net.nearest_node_on_other_lane([10.0, 0.0], exclude_lane=0,
                                              max_dist=7.2)
        assert node is not None
        assert net.lane_of[node] == 1

    def test_route_to_nearest_node_of_target(self):
        net = build_route_network(self._two_lanes())
        start = net.nearest_node([0.5, 0.0])
        goal = net.nearest_node([19.0, 3.6])
        path, _ = path_to(net, start, goal)
        route = net.route_to(start, [19.0, 3.6])
        assert np.array_equal(route, net.positions[path])
        # a target nearest an unreachable node gives no route
        split = RouteNetwork([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]], [0, 0, 1],
                             [(0, 1)])
        assert np.array_equal(split.route_to(0, [1.2, 0.3]), [[0.0, 0.0], [1.0, 0.0]])
        # the target snaps to its nearest node at any distance
        assert np.array_equal(split.route_to(0, [1.2, 50.0]), [[0.0, 0.0], [1.0, 0.0]])
        assert split.route_to(0, [9.0, 0.0]) is None

    def test_empty_network(self):
        net = RouteNetwork(np.zeros((0, 2)), [], [])
        assert net.nearest_node([0, 0]) is None


def grid_lanes(blocks=3, spacing=24.0, offset=1.8, ds=0.5):
    """Two opposing lanes, offset either side of each street centerline, on
    a blocks x blocks street grid."""
    ax = np.arange(0.0, blocks * spacing + ds / 2, ds)
    lanes = []
    for k in range(blocks + 1):
        c = k * spacing
        for side in (-offset, offset):
            line = ax if side > 0 else ax[::-1]
            lanes.append(Lane(np.stack([line, np.full_like(line, c + side)], axis=1)))
            lanes.append(Lane(np.stack([np.full_like(line, c + side), line], axis=1)))
    return lanes


class TestOneKDTree:
    def test_one_tree_per_network(self, monkeypatch):
        built = []
        tree_class = routing.cKDTree

        def counting_tree(*args, **kwargs):
            built.append(1)
            return tree_class(*args, **kwargs)

        monkeypatch.setattr(routing, "cKDTree", counting_tree)
        for lanes in (grid_lanes(), grid_lanes(blocks=1)):
            built.clear()
            net = build_route_network(lanes)
            net.nearest_node([10.0, 10.0])
            net.nodes_within([10.0, 10.0], 5.0)
            net.nearest_node_on_other_lane([10.0, 1.8], 0, 8.0)
            assert len(built) == 1
            assert np.array_equal(net._tree.data, net.positions)

    def test_grid_world_graph_and_routes_pinned(self):
        # graph bytes and query answers on a 3x3 street grid, as before the
        # junction stitch's tree was handed over to the network
        net = build_route_network(grid_lanes())
        rng = np.random.default_rng(4)
        chunks = [net.graph.indptr, net.graph.indices, net.graph.data]
        for point in rng.uniform(-5.0, 77.0, size=(40, 2)):
            start = net.nearest_node(point)
            chunks.append(net.nodes_within(point, 3.0))
            chunks.append(str(net.nearest_node_on_other_lane(point, net.lane_of[start],
                                                             6.0)).encode())
            route = net.route_to(start, point[::-1])
            chunks.append(b"none" if route is None else route)
        assert len(net.positions) == 2320
        assert_pinned("routing/grid-world", chunks)


class TestBuildMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(lane_sets())
    def test_graph_and_tangents_match_dict_builder(self, case):
        lanes, radius = case
        net = build_route_network(lanes, junction_radius=radius)
        positions, lane_of, adjacency = reference_build_route_network(lanes, radius)
        ref = reference_reverse_csr(len(positions), adjacency)
        for field in ("indptr", "indices", "data"):
            got, want = getattr(net.graph, field), getattr(ref, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        assert net.lane_of.tolist() == lane_of
        for node in range(len(positions)):
            want = reference_tangent_at(positions, lane_of, adjacency, node)
            assert net.tangent_at(node).tobytes() == want.tobytes()

    def test_empty_lane_rejected(self):
        with pytest.raises(ValueError):
            build_route_network([Lane(np.zeros((0, 2)))])
