"""Routing over the vectorized lane network.

Lanes become a weighted point graph: consecutive samples connect along each
lane, and lane endpoints link to nearby samples of other lanes so routes can
flow through junctions. The graph is one symmetric CSR matrix of edge
lengths, built from edge arrays. Agents route through cached goal-rooted
shortest-path trees on that matrix: the first query for a goal runs one
Dijkstra from that goal over the whole network, and every later query toward
it walks the tree's predecessor links (``RouteNetwork.path_to``);
``route_to`` routes to the node nearest a target point. ``astar`` remains the
single-pair search over the same matrix, with the straight-line heuristic,
which is admissible because edge weights are Euclidean lengths.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree


class RouteNetwork:
    """Bidirectional point graph over lane samples.

    Nodes are integers; ``positions[i]`` is the world-meter coordinate and
    ``lane_of[i]`` the owning lane index. ``edges`` lists each undirected
    node pair once; ``graph`` holds it as a symmetric CSR matrix whose
    entries are the edge lengths. ``_tree``, the KD-tree over ``positions``
    that the nearest-node queries use, is built on first use, unless
    ``build_route_network`` hands over the one its junction stitch built.
    """

    def __init__(self, positions, lane_of, edges):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        self.lane_of = np.asarray(lane_of, dtype=np.intp)
        a, b = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
        # math.hypot, not np.hypot: the two can differ in the last bit.
        # math.hypot of the float64 differences is math.dist of the points.
        x, y = self.positions.T
        w = np.fromiter(map(math.hypot, (x[a] - x[b]).tolist(), (y[a] - y[b]).tolist()),
                        dtype=float, count=len(a))
        # Explicit zeros stay stored: csgraph reads a stored zero as a
        # zero-weight edge (coincident samples of two lanes), so never call
        # eliminate_zeros here.
        n = len(self.positions)
        self.graph = csr_matrix((np.concatenate([w, w]),
                                 (np.concatenate([a, b]), np.concatenate([b, a]))),
                                shape=(n, n))
        self._goal_trees = {}  # goal -> (dist float64, pred int32) arrays

    @cached_property
    def _tree(self):
        return cKDTree(self.positions) if len(self.positions) else None

    def neighbors(self, node: int):
        """(neighbour, edge length) pairs of node, in ascending node order."""
        lo, hi = self.graph.indptr[node], self.graph.indptr[node + 1]
        return list(zip(self.graph.indices[lo:hi].tolist(),
                        self.graph.data[lo:hi].tolist()))

    def tangent_at(self, node: int) -> np.ndarray:
        """Unit direction from node to its first distinct same-lane
        neighbour; +x when there is none."""
        for nbr, _ in self.neighbors(node):
            if self.lane_of[nbr] == self.lane_of[node]:
                d = self.positions[nbr] - self.positions[node]
                n = np.linalg.norm(d)
                if n > 0:
                    return d / n
        return np.array([1.0, 0.0])

    def path_to(self, start: int, goal: int):
        """Shortest route from start to goal as (node list, cost), or None
        when goal is unreachable.

        The first query for a goal runs one Dijkstra rooted at it; the graph
        is symmetric, so ``dist[n]`` is the cost from n to the goal and
        ``pred[n]`` the next node on that route; the arrays are cached, and
        every query walks them from start.
        """
        tree = self._goal_trees.get(goal)
        if tree is None:
            dist, pred = dijkstra(self.graph, indices=goal, return_predecessors=True)
            tree = self._goal_trees[goal] = dist, pred.astype(np.int32, copy=False)
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

    def route_to(self, start: int, target_point):
        """World-meter (N, 2) shortest route from node start to the node
        nearest ``target_point``; None when that node is unreachable."""
        found = self.path_to(start, self.nearest_node(target_point))
        return None if found is None else self.positions[found[0]]

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
    if not lanes:
        return RouteNetwork(np.zeros((0, 2)), [], [])
    sizes = np.array([len(lane.points) for lane in lanes])
    if sizes.min() < 1:
        raise ValueError("every lane needs at least one sample")
    positions = np.concatenate([lane.points for lane in lanes])
    lane_of = np.repeat(np.arange(len(lanes)), sizes)
    along = np.flatnonzero(lane_of[1:] == lane_of[:-1])
    first = np.cumsum(sizes) - sizes
    ends = np.stack([first, first + sizes - 1], axis=1).ravel()
    tree = cKDTree(positions)
    near = tree.query_ball_point(positions[ends], junction_radius)
    hits = np.concatenate(near)
    origin = np.repeat(ends, [len(js) for js in near])
    cross = lane_of[hits] != lane_of[origin]
    # Two lane ends can find each other; a junction pair never joins
    # samples of one lane, so it cannot repeat an along-lane pair.
    junctions = np.unique(np.sort(np.stack([origin[cross], hits[cross]], axis=1), axis=1),
                          axis=0)
    edges = np.concatenate([np.stack([along, along + 1], axis=1), junctions])
    network = RouteNetwork(positions, lane_of, edges)
    network._tree = tree  # the nearest-node queries reuse the stitch's tree
    return network


def astar(network: RouteNetwork, start: int, goal: int):
    """A* shortest path by total edge weight; returns (node list, cost) or None."""
    positions = network.positions

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
        for nbr, w in network.neighbors(node):
            ng = g + w
            if ng < g_cost.get(nbr, math.inf):
                g_cost[nbr] = ng
                parent[nbr] = node
                heapq.heappush(open_heap, (ng + h(nbr), ng, nbr))
    return None

