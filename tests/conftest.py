import hashlib
import heapq
import math
from pathlib import Path

import numpy as np
import pytest

from voxsim.geometry import Pose2
from voxsim.occupancy import GlobalMap, SemanticTable, default_table

ACCEPTANCE_LINES = []

# Every pinned sha256 of the tests and CI lives in pins.sha256, one
# "<digest>  <name>" line each (sha256sum format). Nothing rewrites it: a
# moved pin's line is edited by hand from the "moved pins" report.
PINS_FILE = Path(__file__).with_name("pins.sha256")
MOVED_PINS = []   # (name, pinned digest or None, computed digest)


def read_pins():
    """The registry's (digest, name) pairs, in file order."""
    return [line.partition("  ")[::2] for line in PINS_FILE.read_text().splitlines()]


def assert_pinned(name, chunks):
    """Assert that the sha256 of the byte chunks (arrays by ``tobytes()``)
    is the one pins.sha256 holds under ``name``."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.tobytes() if isinstance(chunk, np.ndarray) else chunk)
    assert_pins({name: h.hexdigest()})


def assert_pins(digests):
    """Assert every computed digest, by pin name, against pins.sha256. Each
    one that differs is recorded for the report before the test fails."""
    pins = {name: digest for digest, name in read_pins()}
    moved = [(name, pins.get(name), digest) for name, digest in digests.items()
             if pins.get(name) != digest]
    MOVED_PINS.extend(moved)
    assert not moved, "moved pins: " + ", ".join(name for name, _, _ in moved)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if MOVED_PINS:
        terminalreporter.section("moved pins")
        for name, pinned, computed in MOVED_PINS:
            terminalreporter.write_line(f"{name}: pinned {pinned}, computed {computed}")


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

