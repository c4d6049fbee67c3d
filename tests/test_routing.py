import networkx as nx
import numpy as np
import pytest

import voxsim.routing as routing
from voxsim.lanes import Lane
from voxsim.routing import (RouteNetwork, astar, build_route_network,
                            route_points)


def random_geometric_graph(rng, n=30, k=4):
    """Random positions with k-nearest Euclidean edges (metric weights, so the
    straight-line heuristic is admissible)."""
    pos = rng.uniform(0, 100, size=(n, 2))
    adjacency = {i: [] for i in range(n)}
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        d = np.linalg.norm(pos - pos[i], axis=1)
        for j in np.argsort(d)[1:k + 1]:
            w = float(d[j])
            if all(nb != j for nb, _ in adjacency[i]):
                adjacency[i].append((int(j), w))
                adjacency[int(j)].append((i, w))
                g.add_edge(i, int(j), weight=w)
    return pos, adjacency, g


class TestAstar:
    def test_matches_dijkstra_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            pos, adjacency, g = random_geometric_graph(rng)
            s, t = rng.integers(0, 30, size=2)
            found = astar(adjacency, pos, int(s), int(t))
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
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        adj = {0: [(1, 1.0)], 1: [(0, 1.0)]}
        path, cost = astar(adj, pos, 0, 0)
        assert path == [0] and cost == 0.0

    def test_disconnected_returns_none(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        adj = {0: [], 1: []}
        assert astar(adj, pos, 0, 1) is None


class TestPathTo:
    def test_matches_astar_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos, adjacency, g = random_geometric_graph(rng)
            net = RouteNetwork(pos, [0] * len(pos), adjacency)
            s, t = (int(v) for v in rng.integers(0, 30, size=2))
            found = net.path_to(s, t)
            ref = astar(adjacency, pos, s, t)
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
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = RouteNetwork(pos, [0, 0], {0: [(1, 1.0)], 1: [(0, 1.0)]})
        assert net.path_to(1, 1) == ([1], 0.0)

    def test_disconnected_returns_none(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        net = RouteNetwork(pos, [0, 1], {0: [], 1: []})
        assert net.path_to(0, 1) is None

    def test_routes_through_zero_weight_edge(self):
        # lane b starts on lane a's last sample; with a tiny junction radius
        # that coincident pair is the only link between the lanes
        ax = np.arange(0.0, 5.5, 0.5)
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        b = Lane(np.stack([np.full_like(ax, 5.0), ax], axis=1), 0, 1)
        net = build_route_network([a, b], junction_radius=0.1)
        last_a, first_b = len(ax) - 1, len(ax)
        assert (first_b, 0.0) in net.adjacency[last_a]
        found = net.path_to(0, 2 * len(ax) - 1)
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
        pos, adjacency, _ = random_geometric_graph(rng, n=300, k=6)
        net = RouteNetwork(pos, [0] * len(pos), adjacency)
        goals = rng.choice(len(pos), size=5, replace=False)
        for s in rng.integers(0, len(pos), size=200):
            for t in goals:
                net.path_to(int(s), int(t))
        assert sorted(calls) == sorted(int(t) for t in goals)


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
            assert any(nb == i + 1 for nb, _ in net.adjacency[i])

    def test_endpoints_stitched_across_lanes(self):
        net = build_route_network(self._two_lanes())
        # lane 0's first node links to nearby lane-1 samples (3.6 m < 4 m)
        assert any(net.lane_of[nb] == 1 for nb, _ in net.adjacency[0])

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

    def test_route_points_spans_lanes(self):
        net = build_route_network(self._two_lanes())
        pts = route_points(net, [0.5, 0.0], [19.0, 3.6])
        assert pts is not None
        assert np.linalg.norm(pts[0] - [0.5, 0.0]) < 1.0
        assert np.linalg.norm(pts[-1] - [19.0, 3.6]) < 1.0

    def test_route_to_nearest_node_of_target(self):
        net = build_route_network(self._two_lanes())
        start = net.nearest_node([0.5, 0.0])
        goal = net.nearest_node([19.0, 3.6])
        path, _ = net.path_to(start, goal)
        route = net.route_to(start, [19.0, 3.6])
        assert np.array_equal(route, net.positions[path])
        # a target nearest an unreachable node gives no route
        split = RouteNetwork([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]], [0, 0, 1],
                             {0: [(1, 1.0)], 1: [(0, 1.0)], 2: []})
        assert np.array_equal(split.route_to(0, [1.2, 0.3]), [[0.0, 0.0], [1.0, 0.0]])
        # the target snaps to its nearest node at any distance
        assert np.array_equal(split.route_to(0, [1.2, 50.0]), [[0.0, 0.0], [1.0, 0.0]])
        assert split.route_to(0, [9.0, 0.0]) is None

    def test_empty_network(self):
        net = RouteNetwork(np.zeros((0, 2)), [], {})
        assert net.nearest_node([0, 0]) is None
