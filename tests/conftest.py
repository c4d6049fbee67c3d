import heapq
import math

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from voxsim.geometry import Pose2
from voxsim.occupancy import GlobalMap, SemanticTable, default_table


@pytest.fixture
def table():
    return default_table()


def swapped_table():
    """The default table with the road and sidewalk ids swapped: a grid
    written under it holds sidewalk where the default table reads road."""
    return SemanticTable(entries=((2, "road", "road"), (1, "sidewalk", "sidewalk"))
                         + default_table().entries[2:])


def make_map(plane, table, voxel_size=0.4, z_dim=8, free_above=True):
    """Build a GlobalMap from a 2D label plane: plane at z=0, free above."""
    plane = np.asarray(plane, dtype=np.uint8)
    labels = np.zeros(plane.shape + (z_dim,), dtype=np.uint8)
    labels[:, :, 0] = plane
    if free_above:
        free_id = next(i for i, _, r in table.entries if r == "free")
        labels[:, :, 1:] = free_id
    return GlobalMap(labels, voxel_size, Pose2(0.0, 0.0, 0.0), table)


@pytest.fixture
def straight_road_map(table):
    """50 m x 20 m world, 9.6 m road strip along x at y center."""
    n, m = 125, 50  # 0.4 m voxels
    plane = np.full((n, m), 4, dtype=np.uint8)  # terrain
    yc = m // 2
    half = 12  # 4.8 m
    plane[:, yc - half:yc + half] = table.road_id
    return make_map(plane, table)


def astar(network, start: int, goal: int):
    """A* shortest path over a ``RouteNetwork`` by total edge weight, with the
    straight-line heuristic (admissible: edge weights are Euclidean
    lengths); returns (node list, cost) or None. The single-pair oracle
    that the goal-tree routes are checked against."""
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

