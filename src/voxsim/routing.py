"""Routing over the vectorized lane network.

Lanes become a weighted point graph: consecutive samples connect along each
lane, and lane endpoints link to nearby samples of other lanes so routes can
flow through junctions. Agents route through cached goal-rooted
shortest-path trees: the first query for a goal runs one Dijkstra from that
goal over the whole network, and every later query toward it walks the
tree's predecessor links (``RouteNetwork.path_to``); ``route_to`` routes to
the node nearest a target point. ``astar`` remains the
single-pair search, with the straight-line heuristic, which is admissible
because edge weights are Euclidean lengths.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree


class RouteNetwork:
    """Bidirectional point graph over lane samples.

    Nodes are integers; ``positions[i]`` is the world-meter coordinate and
    ``lane_of[i]`` the owning lane index. ``adjacency`` is read once, on the
    first ``path_to`` query, so it must not change after that.
    """

    def __init__(self, positions, lane_of, adjacency):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        self.lane_of = list(lane_of)
        self.adjacency = adjacency  # node -> list of (node, weight)
        self._tree = cKDTree(self.positions) if len(self.positions) else None
        self._reverse_csr = None
        self._goal_trees = {}  # goal -> (dist float64, pred int32) arrays

    def path_to(self, start: int, goal: int):
        """Shortest route from start to goal as (node list, cost), or None
        when goal is unreachable.

        The first query for a goal runs one Dijkstra rooted at it over the
        reversed edges, so ``dist[n]`` is the cost from n to the goal and
        ``pred[n]`` the next node on that route; the arrays are cached, and
        every query walks them from start.
        """
        tree = self._goal_trees.get(goal)
        if tree is None:
            tree = self._goal_trees[goal] = self._goal_tree(goal)
        dist, pred = tree
        if math.isinf(dist[start]):
            return None
        path = [start]
        node = start
        while node != goal:
            node = int(pred[node])
            path.append(node)
        return path, float(dist[start])

    def route_to(self, start: int, target_point):
        """World-meter (N, 2) shortest route from node start to the node
        nearest ``target_point``; None when that node is unreachable."""
        found = self.path_to(start, self.nearest_node(target_point))
        return None if found is None else self.positions[found[0]]

    def _goal_tree(self, goal: int):
        if self._reverse_csr is None:
            n = len(self.positions)
            src, dst, w = [], [], []
            for a, nbrs in self.adjacency.items():
                for b, wb in nbrs:
                    src.append(a)
                    dst.append(b)
                    w.append(wb)
            # Edge a -> b is stored at (b, a). Explicit zeros stay stored:
            # csgraph reads a stored zero as a zero-weight edge (coincident
            # samples of two lanes), so never call eliminate_zeros here.
            self._reverse_csr = csr_matrix(
                (np.asarray(w, dtype=float), (np.asarray(dst, dtype=np.int64),
                                              np.asarray(src, dtype=np.int64))),
                shape=(n, n))
        dist, pred = dijkstra(self._reverse_csr, indices=goal,
                              return_predecessors=True)
        return dist, pred.astype(np.int32, copy=False)

    def nearest_node(self, point, max_dist=math.inf):
        if self._tree is None:
            return None
        d, i = self._tree.query(np.asarray(point, dtype=float))
        return int(i) if d <= max_dist else None

    def nodes_within(self, point, radius) -> np.ndarray:
        """Nodes within radius of point, in ascending order."""
        if self._tree is None:
            return np.zeros(0, dtype=np.intp)
        return np.asarray(self._tree.query_ball_point(point, radius, return_sorted=True),
                          dtype=np.intp)

    def nearest_node_on_other_lane(self, point, exclude_lane, max_dist):
        if self._tree is None:
            return None
        idx = self._tree.query_ball_point(np.asarray(point, dtype=float), max_dist)
        best, best_d = None, math.inf
        for i in idx:
            if self.lane_of[i] == exclude_lane:
                continue
            d = math.dist(self.positions[i], point)
            if d < best_d:
                best, best_d = int(i), d
        return best


def build_route_network(lanes, junction_radius: float = 4.0) -> RouteNetwork:
    """Connect consecutive samples within each lane and stitch lane endpoints
    to nearby samples of other lanes within junction_radius."""
    positions = []
    lane_of = []
    lane_nodes = []
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

    network = RouteNetwork(positions, lane_of, adjacency)
    if network._tree is not None:
        for li, ids in enumerate(lane_nodes):
            for end in (ids[0], ids[-1]):
                for j in network._tree.query_ball_point(positions[end], junction_radius):
                    if lane_of[j] != li:
                        connect(end, int(j))
    return network


def astar(adjacency, positions, start: int, goal: int):
    """A* shortest path by total edge weight; returns (node list, cost) or None."""
    positions = np.asarray(positions, dtype=float)

    def h(n):
        return math.dist(positions[n], positions[goal])

    open_heap = [(h(start), 0.0, start)]
    g_cost = {start: 0.0}
    parent = {start: None}
    closed = set()
    while open_heap:
        f, g, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == goal:
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return path[::-1], g
        closed.add(node)
        for nbr, w in adjacency.get(node, ()):
            ng = g + w
            if ng < g_cost.get(nbr, math.inf):
                g_cost[nbr] = ng
                parent[nbr] = node
                heapq.heappush(open_heap, (ng + h(nbr), ng, nbr))
    return None


def route_points(network: RouteNetwork, start_point, goal_point,
                 snap_dist: float = 5.0):
    """World-meter polyline of the shortest route between two points snapped
    onto the network; None when either snap or the search fails."""
    s = network.nearest_node(start_point, snap_dist)
    return None if s is None else network.route_to(s, goal_point)
