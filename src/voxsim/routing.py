"""Routing over the vectorized lane network.

Lanes become a weighted point graph: consecutive samples connect along each
lane, and lane endpoints link to nearby samples of other lanes so routes can
flow through junctions. The graph is one symmetric CSR matrix of edge
lengths, built from edge arrays. Agents route through cached goal-rooted
shortest-path trees on that matrix: the first query for a goal runs one
Dijkstra from that goal over the whole network, and every later query toward
it walks the tree (``RouteNetwork._runs``). Samples are numbered along each
lane, so a route is mostly runs of consecutive node numbers; each tree also
keeps where every node's run ends, and a walk takes one step per run.
``route_to`` routes to the node nearest a target point, snapped once per
target, and copies the route's positions one run at a time.
"""

from __future__ import annotations

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
        self._goal_trees = {}  # goal -> (dist float64, pred int32, run int32) arrays
        self._goal_of = {}     # target point bytes -> its nearest node

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

    def _runs(self, start: int, goal: int):
        """(runs, cost) of the shortest route from start to goal, or None
        when goal is unreachable; run ``(first, last)`` is the route's nodes
        first, first +- 1, ..., last. The first query for a goal runs one
        Dijkstra rooted at it and caches ``dist[n]``, the cost from n to the
        goal (the graph is symmetric), ``pred[n]``, the next node on that
        route, and ``run[n]``, where the route from n leaves its block of
        steps to the next node (``pred[m] == m + 1`` all along) or to the
        previous one; n itself when it starts neither."""
        tree = self._goal_trees.get(goal)
        if tree is None:
            dist, pred = dijkstra(self.graph, indices=goal, return_predecessors=True)
            node = np.arange(len(pred))
            up, down = pred == node + 1, pred == node - 1
            stop = np.flatnonzero(~up)   # the first of these from n on ends n's upward block
            run = stop[np.searchsorted(stop, node)]
            stop = np.flatnonzero(~down)   # the last of these up to n ends a downward one
            run[down] = stop[np.searchsorted(stop, node[down], side="right") - 1]
            tree = self._goal_trees[goal] = (dist, pred.astype(np.int32, copy=False),
                                             run.astype(np.int32))
        dist, pred, run = tree
        if math.isinf(dist[start]):
            return None
        hop, jump = memoryview(pred), memoryview(run)   # indexing yields Python ints
        runs = [(start, jump[start])]
        while runs[-1][1] != goal:
            node = hop[runs[-1][1]]
            runs.append((node, jump[node]))
        return runs, float(dist[start])

    def route_to(self, start: int, target_point):
        """World-meter (N, 2) shortest route from node start to the node
        nearest ``target_point``, which is looked up once per target; None
        when that node is unreachable."""
        key = np.asarray(target_point, dtype=float).tobytes()
        if key not in self._goal_of:
            self._goal_of[key] = self.nearest_node(target_point)
        found = self._runs(start, self._goal_of[key])
        pos = self.positions
        return None if found is None else np.concatenate(
            [pos[first:last + 1] if first <= last else pos[last:first + 1][::-1]
             for first, last in found[0]])

    def nearest_node(self, point, max_dist=math.inf):
        return self.nearest_nodes([point], max_dist)[0]

    def nearest_nodes(self, points, max_dist=math.inf) -> list:
        """For each of the (k, 2) points, from one KD-tree query, its nearest
        node, or None if that lies farther than max_dist."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if self._tree is None:
            return [None] * len(points)
        d, i = self._tree.query(points)
        return [n if ok else None for n, ok in zip(i.tolist(), (d <= max_dist).tolist())]

    def nodes_within(self, point, radius) -> np.ndarray:
        """Nodes within radius of point, in ascending order."""
        if self._tree is None:
            return np.zeros(0, dtype=np.intp)
        return np.asarray(self._tree.query_ball_point(point, radius, return_sorted=True),
                          dtype=np.intp)

    def nearest_node_on_other_lane(self, point, exclude_lane, max_dist):
        if self._tree is None:
            return None
        point = np.asarray(point, dtype=float)
        idx = np.asarray(self._tree.query_ball_point(point, max_dist), dtype=np.intp)
        idx = idx[self.lane_of[idx] != exclude_lane]
        here = point.tolist()   # the first of the nearest in the query's order wins
        d = [math.dist(q, here) for q in self.positions[idx].tolist()]
        return int(idx[d.index(min(d))]) if d else None


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
