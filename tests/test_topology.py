import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voxsim.geometry import Pose2
from voxsim.lanes import extract_lanes
from voxsim.occupancy import GlobalMap, SemanticTable, default_table
from voxsim.topology import (OUTWARD_MIN_LEN, TopologyParams, _box_obstacle_count,
                             _outward_direction, build_graph,
                             clean_graph, extract_topology, filter_endpoints,
                             load_graph, save_graph, skeletonize, zhang_suen_thin)
from voxsim.synthworld import WorldSpec, generate_world

from conftest import assert_pinned, make_map


def reference_neighbor_stack(img: np.ndarray):
    """P2..P9 neighborhoods (clockwise from north) with zero padding."""
    p = np.pad(img, 1)
    # axis 0 = x, axis 1 = y; "north" = y+1
    p2 = p[1:-1, 2:]
    p3 = p[2:, 2:]
    p4 = p[2:, 1:-1]
    p5 = p[2:, :-2]
    p6 = p[1:-1, :-2]
    p7 = p[:-2, :-2]
    p8 = p[:-2, 1:-1]
    p9 = p[:-2, 2:]
    return [p2, p3, p4, p5, p6, p7, p8, p9]


def reference_zhang_suen_thin(mask: np.ndarray) -> np.ndarray:
    """Reference: every sub-iteration evaluates the Zhang-Suen tests on
    whole-map shifted views."""
    img = mask.astype(np.uint8).copy()
    changed = True
    while changed:
        changed = False
        for phase in (0, 1):
            nb = reference_neighbor_stack(img)
            B = sum(n.astype(np.int32) for n in nb)
            ring = nb + [nb[0]]
            A = sum(((ring[i] == 0) & (ring[i + 1] == 1)).astype(np.int32)
                    for i in range(8))
            p2, p4, p6, p8 = nb[0], nb[2], nb[4], nb[6]
            if phase == 0:
                c1 = (p2 * p4 * p6) == 0
                c2 = (p4 * p6 * p8) == 0
            else:
                c1 = (p2 * p4 * p8) == 0
                c2 = (p2 * p6 * p8) == 0
            kill = (img == 1) & (B >= 2) & (B <= 6) & (A == 1) & c1 & c2
            if kill.any():
                img[kill] = 0
                changed = True
    return img.astype(bool)


def reference_build_graph(skeleton):
    """Reference: every forward 8-neighbour edge added pixel by pixel, in
    sorted order, then the longest edge of each 3-clique removed."""
    g = nx.Graph()
    xs, ys = np.nonzero(np.asarray(skeleton, dtype=bool))
    pixels = sorted(zip(xs.tolist(), ys.tolist()))
    g.add_nodes_from(pixels)
    for (x, y) in pixels:
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            v = (x + dx, y + dy)
            if v in g:
                g.add_edge((x, y), v, weight=math.hypot(dx, dy))

    for tri in [c for c in nx.enumerate_all_cliques(g) if len(c) == 3]:
        edges = [tuple(sorted((tri[i], tri[j])))
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        edges = [e for e in edges if g.has_edge(*e)]
        if len(edges) < 3:
            continue  # already opened by an earlier removal
        longest = max(edges, key=lambda e: (g.edges[e]["weight"], e))
        g.remove_edge(*longest)
    return g


# The networkx pipeline that the segment graph replaced, kept as the oracle
# of the graph and of its order rule: spur pruning and junction contraction
# on an ``nx.Graph``, leaves and junctions taken in sorted order, chain walks
# over ``g.neighbors`` from each anchor in sorted order toward its sorted
# neighbours, and pure cycles from ``nx.connected_components``, each from its
# smallest node toward the smaller of that node's neighbours.

def reference_chain(g, prev, node):
    path = [prev, node]
    while g.degree(node) == 2 and node != path[0]:
        prev, node = node, next(n for n in g.neighbors(node) if n != prev)
        path.append(node)
    return path


def reference_leaf_chain(g, leaf):
    return reference_chain(g, leaf, next(iter(g.neighbors(leaf))))


def reference_prune_spurs(g, tau_prune):
    removed = False
    for leaf in sorted(n for n in g.nodes if g.degree(n) == 1):
        if leaf not in g or g.degree(leaf) != 1:
            continue
        path = reference_leaf_chain(g, leaf)
        if g.degree(path[-1]) <= 2:
            continue
        weight = sum(g.edges[u, v]["weight"] for u, v in zip(path, path[1:]))
        if weight < tau_prune:
            g.remove_nodes_from(path[:-1])
            removed = True
    return removed


def reference_contract_junctions(g, radius):
    junctions = sorted(n for n in g.nodes if g.degree(n) > 2)
    best = None
    for i, u in enumerate(junctions):
        for v in junctions[i + 1:]:
            d = math.dist(u, v)
            if d < radius and (best is None or d < best[0]):
                best = (d, u, v)
    if best is None:
        return False
    _, u, v = best
    merged = ((u[0] + v[0]) / 2.0, (u[1] + v[1]) / 2.0)
    nbrs = (set(g.neighbors(u)) | set(g.neighbors(v))) - {u, v}
    g.remove_nodes_from([u, v])
    if merged in g:
        merged = (merged[0] + 1e-6, merged[1])
    g.add_node(merged)
    for n in nbrs:
        g.add_edge(merged, n, weight=math.dist(merged, n))
    return True


def reference_clean_graph(g, tau_prune_px, w_lane_px):
    g = g.copy()
    while True:
        pruned = reference_prune_spurs(g, tau_prune_px)
        contracted = reference_contract_junctions(g, 2.0 * w_lane_px)
        if not pruned and not contracted:
            return g


def reference_filter_endpoints(g, gmap, params):
    vox = gmap.voxel_size
    road = gmap.labels[:, :, 0] == gmap.table.road_id
    valid = []
    for leaf in sorted(n for n in g.nodes if g.degree(n) == 1):
        path = reference_leaf_chain(g, leaf)
        anchor = next((n for n in path[1:] if math.dist(leaf, n) >= 3.0), path[-1])
        d = np.array(leaf, dtype=float) - np.array(anchor, dtype=float)
        d = d / np.linalg.norm(d)
        probe = np.array(leaf, dtype=float) + 1.5 * (params.w_lane / vox) * d
        px, py = int(math.floor(probe[0])), int(math.floor(probe[1]))
        if 0 <= px < road.shape[0] and 0 <= py < road.shape[1] and road[px, py]:
            continue
        count = _box_obstacle_count(
            gmap, leaf, d, params.probe_length / vox, params.probe_width / vox)
        if count < params.tau_obs:
            valid.append(leaf)
    return valid


def reference_graph_segments(g):
    starts = [(a, n) for a in sorted(g.nodes) if g.degree(a) != 2 for n in sorted(g.neighbors(a))]
    cycles = sorted(min(comp) for comp in nx.connected_components(g)
                    if all(g.degree(n) == 2 for n in comp))
    starts += [(start, min(g.neighbors(start))) for start in cycles]
    segs = []
    seen = set()
    for prev, node in starts:
        if frozenset((prev, node)) in seen:
            continue
        path = reference_chain(g, prev, node)
        seen.update(map(frozenset, zip(path, path[1:])))
        segs.append(path)
    return segs


def _json_points(path):
    """graph.json's points: a coordinate that is a whole number as an int."""
    return [[int(v) if float(v).is_integer() else v for v in p] for p in path]


def reference_save_graph(g, valid_endpoints, path):
    """graph.json of the networkx graph: its anchors sorted and the segments
    of reference_graph_segments."""
    anchors = sorted(n for n in g.nodes if g.degree(n) != 2)
    index = {n: i for i, n in enumerate(anchors)}
    segs = reference_graph_segments(g)
    obj = {
        "anchors": [{"id": i, "x": n[0], "y": n[1]} for i, n in enumerate(anchors)],
        "segments": [{"u": index[p[0]], "v": index[p[-1]], "interior": _json_points(p[1:-1])}
                     for p in segs if p[0] in index],
        "cycles": [_json_points(p[:-1]) for p in segs if p[0] not in index],
        "valid_endpoints": [index[n] for n in valid_endpoints],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def skeleton_of(*paths, pad=3):
    """A skeleton image holding the pixels of the paths, shifted by pad."""
    pts = np.array([p for path in paths for p in path]) + pad
    skel = np.zeros(pts.max(axis=0) + pad + 1, dtype=bool)
    skel[pts[:, 0], pts[:, 1]] = True
    return skel


def assert_same_graph(g, ref):
    """The anchors of the networkx graph ref (its nodes not of degree 2),
    sorted, with its degrees, and its segments in reference_graph_segments'
    order, point for point."""
    assert list(g.nodes) == sorted(n for n in ref.nodes if ref.degree(n) != 2)
    assert [g.degree(n) for n in g.nodes] == [ref.degree(n) for n in g.nodes]
    segs, want = [s.points for s in g.segments], reference_graph_segments(ref)
    assert len(segs) == len(want)
    for s, w in zip(segs, want):
        assert np.array_equal(s, np.asarray(w, dtype=float)), (s, w)


def reference_obstacle_count(gmap, origin_px, direction, length_px, width_px):
    """Reference: a whole-map boolean obstacle volume from two np.isin passes,
    summed over the oriented probe box."""
    t = gmap.table
    above = gmap.labels[:, :, 1:]
    keep_out = np.isin(above, [t.road_id, t.sidewalk_id, t.unassigned_id])
    free_ids = [e[0] for e in t.entries if e[2] == "free"]
    if free_ids:
        keep_out |= np.isin(above, free_ids)
    obstacles = ~keep_out

    X, Y = obstacles.shape[0], obstacles.shape[1]
    d = np.asarray(direction, dtype=float)
    n = np.array([-d[1], d[0]])
    o = np.asarray(origin_px, dtype=float)
    corners = np.array([
        o + n * width_px / 2, o - n * width_px / 2,
        o + d * length_px + n * width_px / 2, o + d * length_px - n * width_px / 2,
    ])
    x0, y0 = np.maximum(np.floor(corners.min(axis=0)).astype(int), 0)
    x1 = min(int(math.ceil(corners[:, 0].max())) + 1, X)
    y1 = min(int(math.ceil(corners[:, 1].max())) + 1, Y)
    if x1 <= x0 or y1 <= y0:
        return 0
    gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1), indexing="ij")
    rel = np.stack([gx - o[0], gy - o[1]], axis=-1)
    lon = rel @ d
    lat = rel @ n
    inside = (lon >= 0) & (lon <= length_px) & (np.abs(lat) <= width_px / 2)
    if not inside.any():
        return 0
    return int(obstacles[gx[inside], gy[inside], :].sum())


@st.composite
def thin_masks(draw):
    """Random masks up to 40x40, single rows and columns included, from
    empty to full, passed as they are or as non-contiguous views."""
    side = st.integers(1, 40)
    shape = draw(st.one_of(st.tuples(side, side), st.tuples(st.just(1), side),
                           st.tuples(side, st.just(1))))
    fill = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    mask = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(shape) < fill
    view = draw(st.sampled_from(["as is", "rot90", "reversed"]))
    return {"as is": mask, "rot90": np.rot90(mask), "reversed": mask[::-1]}[view]


@st.composite
def pixel_masks(draw):
    """Random masks as they are, thinned without corner clearing (which
    leaves full 2x2 blocks) or fully skeletonized."""
    shape = draw(st.tuples(st.integers(1, 24), st.integers(1, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0.0, 1.0))
    form = draw(st.sampled_from(["raw", "thin", "skeleton"]))
    if form == "thin":
        return zhang_suen_thin(mask)
    return skeletonize(mask) if form == "skeleton" else mask


@st.composite
def probe_worlds(draw):
    """A label volume over a random table whose values include ids outside
    the table, plus a random probe box."""
    ids = draw(st.lists(st.integers(0, 255), min_size=7, max_size=7, unique=True))
    roles = ["road", "sidewalk", "vehicle", "ground", "obstacle",
             draw(st.sampled_from(["free", "other", "ground"]))]
    table = SemanticTable(tuple((i, r, r) for i, r in zip(ids, roles)),
                          unassigned_id=ids[6])
    values = ids + draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    dims = (draw(st.integers(1, 20)), draw(st.integers(1, 20)), draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.choice(np.array(values, dtype=np.uint8), size=dims)
    gmap = GlobalMap(labels, 0.4, Pose2(), table)
    origin = (draw(st.floats(-5.0, 25.0)), draw(st.floats(-5.0, 25.0)))
    angle = draw(st.floats(0.0, 2 * math.pi))
    box = (draw(st.floats(0.5, 30.0)), draw(st.floats(0.5, 12.0)))
    return gmap, origin, (math.cos(angle), math.sin(angle)), box


class TestThinning:
    def test_skeleton_subset_of_mask(self):
        rng = np.random.default_rng(0)
        mask = np.zeros((60, 60), dtype=bool)
        for _ in range(5):
            x, y = rng.integers(5, 45, size=2)
            mask[x:x + rng.integers(4, 14), y:y + rng.integers(4, 14)] = True
        skel = zhang_suen_thin(mask)
        assert not (skel & ~mask).any()

    def test_single_pixel_line_preserved(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[10, 2:18] = True
        assert np.array_equal(zhang_suen_thin(mask), mask)

    def test_empty_mask(self):
        assert not skeletonize(np.zeros((10, 10), dtype=bool)).any()

    @pytest.mark.parametrize("shape", [(0, 7), (7, 0)])
    def test_zero_size_mask_gives_an_empty_skeleton(self, shape):
        # the code image's shifted views would start past their end here
        for thin in (zhang_suen_thin, skeletonize):
            skel = thin(np.zeros(shape, dtype=bool))
            assert skel.shape == shape and skel.dtype == bool

    def test_thick_strip_reduces_to_one_pixel_width(self):
        mask = np.zeros((40, 30), dtype=bool)
        mask[5:35, 10:20] = True
        skel = skeletonize(mask)
        # every column of the strip interior holds exactly one skeleton pixel
        cols = skel[10:30, :].sum(axis=1)
        assert (cols == 1).all()

    def test_no_full_2x2_blocks_after_clearing(self):
        rng = np.random.default_rng(1)
        mask = rng.random((50, 50)) < 0.6
        skel = skeletonize(mask)
        full = skel[:-1, :-1] & skel[1:, :-1] & skel[:-1, 1:] & skel[1:, 1:]
        assert not full.any()

    @settings(max_examples=300, deadline=None)
    @given(thin_masks())
    def test_matches_reference_thinning(self, mask):
        before = mask.copy()
        assert np.array_equal(zhang_suen_thin(mask), reference_zhang_suen_thin(mask))
        assert np.array_equal(mask, before)

    def test_grid_world_matches_reference_in_every_dihedral_transform(self):
        gmap = generate_world(WorldSpec(recipe="grid", extent=120.0, blocks=(3, 3),
                                        road_width=9.6))
        road = gmap.labels[:, :, 0] == gmap.table.road_id
        for k in range(4):
            for view in (np.rot90(road, k), np.rot90(road, k)[::-1]):
                assert np.array_equal(zhang_suen_thin(view),
                                      reference_zhang_suen_thin(view)), k

    def test_city_world_skeleton_pinned(self):
        # the 600 m, 5x5-block city of bench/'s city-sim workload: a
        # 1 500 x 1 500 mask, 30 sub-iterations, 372k pixels killed
        gmap = generate_world(WorldSpec(recipe="grid", extent=600.0, blocks=(5, 5)))
        road = gmap.labels[:, :, 0] == gmap.table.road_id
        before = road.copy()
        zhang_suen_thin(road)
        assert np.array_equal(road, before)
        skel = skeletonize(road)
        assert int(skel.sum()) == 14705
        assert_pinned("skeleton/city-5x5", [np.packbits(skel)])

    def test_peak_memory_stays_near_three_bytes_a_cell(self):
        # 3x3 grid at 400 m (10^6 cells): the padded plane, the code image
        # and the border mask, built in place, take 3 bytes a cell. An int64
        # index per road pixel and an int64 temporary per neighbour gather
        # peaked at 4.5
        road = generate_world(WorldSpec(recipe="grid", extent=400.0, blocks=(3, 3)))
        road = road.labels[:, :, 0] == road.table.road_id
        tracemalloc.start()
        try:
            skel = zhang_suen_thin(road)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert skel.any() and not (skel & ~road).any()
        assert peak < 3.5 * road.size, peak / road.size


def _steps(points):
    return np.hypot(*np.diff(points, axis=0).T)


class TestBuildGraph:
    def test_line_graph_weights(self):
        skel = np.zeros((10, 10), dtype=bool)
        skel[2:8, 4] = True
        g = build_graph(skel)
        assert sorted(g.nodes) == [(2, 4), (7, 4)]
        (seg,) = [s.points for s in g.segments]
        assert len(seg) == 6
        assert (_steps(seg) == 1.0).all()

    def test_diagonal_weight(self):
        # a Y of arms from (20, 20): a diagonal step weighs sqrt(2), so the
        # spur of 3 of them, 4.24 px long, goes at tau_prune 4.3 and stays at 4.2
        skel = skeleton_of([(20, 20 + i) for i in range(30)],
                           [(20 - i, 20 - i) for i in range(1, 30)],
                           [(20 + i, 20 - i) for i in range(1, 4)])
        g = build_graph(skel)
        spur = next(s.points for s in g.segments if len(s.points) == 4)
        assert (_steps(spur) == math.sqrt(2)).all()
        assert clean_graph(g, 4.3, 0.1).number_of_nodes() == 2
        assert clean_graph(g, 4.2, 0.1).number_of_nodes() == 4

    def test_triangle_longest_edge_removed(self):
        # right triangle: two unit edges plus a sqrt(2) hypotenuse
        skel = np.zeros((5, 5), dtype=bool)
        skel[1, 1] = skel[1, 2] = skel[2, 2] = True
        g = build_graph(skel)
        assert sorted(g.nodes) == [(1, 1), (2, 2)]
        (seg,) = [s.points for s in g.segments]
        assert sorted(map(tuple, seg.tolist())) == [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]

    def test_full_block_is_four_cycle(self):
        skel = np.zeros((4, 4), dtype=bool)
        skel[1:3, 1:3] = True
        g = build_graph(skel)
        assert g.number_of_nodes() == 0
        (seg,) = [s.points for s in g.segments]
        assert sorted(map(tuple, seg[:-1].tolist())) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert (seg[0] == seg[-1]).all() and (_steps(seg) == 1.0).all()
        assert_same_graph(g, reference_build_graph(skel))

    @settings(max_examples=300, deadline=None)
    @given(pixel_masks())
    def test_matches_reference_build(self, skel):
        assert_same_graph(build_graph(skel), reference_build_graph(skel))

    def test_peak_memory_stays_below_two_bytes_a_pixel(self):
        # a map-sized intp row image would cost 8 bytes a pixel; the padded
        # bool copy of the skeleton costs 1
        skel = np.zeros((3000, 3000), dtype=bool)
        skel[1500, 100:400] = True
        skel[100:400, 2000] = True
        tracemalloc.start()
        try:
            g = build_graph(skel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.number_of_nodes() == 4
        assert sorted(len(s.points) for s in g.segments) == [300, 300]
        assert peak < 2 * skel.size, peak / skel.size


class TestExtractTopology:
    def test_peak_memory_follows_the_road_plane(self):
        # the 600 m, 5x5-block city (2.25 M cells): the road plane beside
        # thinning's padded plane, code image and border mask, 4 bytes a
        # cell; the untraced first call imports scipy.spatial for junction
        # contraction. Thinning's per-pixel int64 gathers peaked at 5.7
        world = generate_world(WorldSpec(recipe="grid", extent=600.0, blocks=(5, 5)))
        cells = world.dims[0] * world.dims[1]
        g, valid = extract_topology(world)
        tracemalloc.start()
        try:
            again = extract_topology(world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again[1] == valid and len(again[0].segments) == len(g.segments) > 0
        assert peak < 4.8 * cells, peak / cells


class TestCleanGraph:
    def _trunk_with_spur(self, spur_len):
        return build_graph(skeleton_of([(x, 10) for x in range(0, 40)],
                                       [(20, 10 + i) for i in range(spur_len + 1)], pad=0))

    def test_short_spur_pruned(self):
        g = clean_graph(self._trunk_with_spur(3), tau_prune_px=5.0, w_lane_px=9.0)
        assert g.number_of_nodes() == 2
        assert all((s.points[:, 1] == 10).all() for s in g.segments)

    def test_long_branch_kept(self):
        g = clean_graph(self._trunk_with_spur(30), tau_prune_px=5.0, w_lane_px=9.0)
        assert any(n[1] > 10 for n in g.nodes)

    def test_close_junctions_contracted(self):
        # two degree-3 pixels side by side, each with two arms of 14 px
        j1, j2 = (20, 20), (21, 20)
        arms = [[(j[0] + dx * i, j[1] + dy * i) for i in range(15)]
                for j, (dx, dy) in ((j1, (-1, 0)), (j1, (0, 1)), (j2, (1, 0)), (j2, (0, -1)))]
        g = build_graph(skeleton_of(*arms, pad=0))
        assert [g.degree(j) for j in (j1, j2)] == [3, 3]
        cleaned = clean_graph(g, tau_prune_px=5.0, w_lane_px=9.0)
        junctions = [n for n in cleaned.nodes if cleaned.degree(n) > 2]
        assert junctions == [(20.5, 20.0)]
        assert cleaned.degree(junctions[0]) == 4
        assert g.number_of_nodes() == 6  # clean_graph leaves its input as it is


class TestEndpointFiltering:
    def _straight_map(self, table, length_px=100, width_px=24, pad=30):
        plane = np.full((length_px + 2 * pad, width_px + 2 * pad), 4,
                        dtype=np.uint8)
        plane[pad:pad + length_px, pad:pad + width_px] = table.road_id
        return make_map(plane, table)

    def test_true_border_leaves_valid(self, table):
        gmap = self._straight_map(table, width_px=12)  # 4.8 m road
        g, valid = extract_topology(gmap)
        leaves = [n for n in g.nodes if g.degree(n) == 1]
        assert len(leaves) == 2
        assert sorted(valid) == sorted(leaves)

    def test_internal_fragmentation_rejected(self, table):
        gmap = self._straight_map(table, width_px=12)
        # 2 m gap of terrain across the road splits the mask in two
        plane = gmap.labels[:, :, 0]
        road_cols = np.nonzero((plane == table.road_id).any(axis=1))[0]
        mid = int(road_cols.mean())
        plane[mid - 2:mid + 3, :][plane[mid - 2:mid + 3, :] == table.road_id] = 4
        g, valid = extract_topology(gmap)
        leaves = [n for n in g.nodes if g.degree(n) == 1]
        assert len(leaves) == 4
        # only the two outer frontier leaves survive the topology probe
        assert len(valid) == 2
        xs = sorted(n[0] for n in valid)
        assert xs[0] < mid < xs[1]
        inner = [n for n in leaves if n not in valid]
        assert all(abs(n[0] - mid) < 20 for n in inner)

    def test_obstacle_wall_rejected(self, table):
        gmap = self._straight_map(table, width_px=12)
        plane = gmap.labels[:, :, 0]
        road_cols = np.nonzero((plane == table.road_id).any(axis=1))[0]
        x_end = road_cols.max()
        # dense obstacle wall just past the high-x road end, above ground
        gmap.labels[x_end + 2:x_end + 8, :, 1:6] = 5
        g, valid = extract_topology(gmap)
        leaves = sorted(n for n in g.nodes if g.degree(n) == 1)
        assert len(leaves) == 2
        assert len(valid) == 1
        assert valid[0][0] < x_end - 20  # the low-x leaf survives

    def test_tau_obs_boundary(self, table):
        gmap = self._straight_map(table, width_px=12)
        g, valid_before = extract_topology(gmap)
        params = TopologyParams(tau_obs=1)
        plane_leaf = max(valid_before)  # high-x leaf
        # a single obstacle voxel in the probe box trips tau_obs=1
        gmap.labels[int(plane_leaf[0]) + 6, int(plane_leaf[1]), 1] = 5
        valid = filter_endpoints(g, gmap, params, gmap.labels[:, :, 0] == table.road_id)
        assert plane_leaf not in valid

    def test_outward_direction_anchors_the_first_point_min_len_away(self):
        # a leaf at (10, 10) whose segment runs along +x, then turns: the
        # anchor is (13, 10), the first point OUTWARD_MIN_LEN from the leaf
        path = [(10, 10), (11, 10), (12, 10), (13, 10), (14, 12), (14, 20)]
        d = _outward_direction((10, 10), path)
        assert d.tolist() == [-1.0, 0.0]

    def test_outward_direction_of_a_short_segment_anchors_its_far_end(self):
        # no point is OUTWARD_MIN_LEN away: the far end is the anchor
        path = [(5, 5), (6, 6), (7, 6)]
        assert max(math.dist(path[0], p) for p in path) < OUTWARD_MIN_LEN
        d = _outward_direction((5, 5), path)
        expect = np.array([-2.0, -1.0]) / np.linalg.norm([-2.0, -1.0])
        assert d.tobytes() == expect.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=2, max_size=12))
    def test_outward_direction_is_the_unit_leaf_direction(self, pts):
        # the same bits as dividing by np.linalg.norm, a unit vector pointing
        # from the anchor to the leaf
        leaf, path = pts[0], pts
        anchor = next((p for p in path[1:] if math.dist(leaf, p) >= OUTWARD_MIN_LEN),
                      path[-1])
        assume(anchor != leaf)
        raw = np.array(leaf, dtype=float) - anchor
        d = _outward_direction(leaf, path)
        assert d.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
        assert math.hypot(*d) == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(probe_worlds())
    def test_box_count_matches_reference_volume(self, world):
        gmap, origin, direction, (length, width) = world
        got = _box_obstacle_count(gmap, origin, direction, length, width)
        assert got == reference_obstacle_count(gmap, origin, direction, length, width)


class TestPlusWorld:
    def test_single_junction_four_endpoints(self):
        spec = WorldSpec(recipe="plus", extent=120.0, road_width=9.6)
        world = generate_world(spec)
        g, valid = extract_topology(world)
        junctions = [n for n in g.nodes if g.degree(n) > 2]
        assert len(junctions) == 1
        assert g.degree(junctions[0]) == 4
        assert len(valid) == 4


def _reloaded(g, valid):
    """The graph and valid endpoints that save_graph's file loads back to."""
    with tempfile.TemporaryDirectory() as d:
        save_graph(g, valid, Path(d) / "graph.json")
        return load_graph(Path(d) / "graph.json")


def assert_round_trip(g, valid):
    """graph.json loads back to the same anchors, degrees and valid
    endpoints, ints and floats as they were, and writes the same bytes."""
    g2, valid2 = _reloaded(g, valid)
    assert sorted(map(repr, g2.nodes)) == sorted(map(repr, g.nodes))
    assert {n: g2.degree(n) for n in g2.nodes} == {n: g.degree(n) for n in g.nodes}
    assert repr(valid2) == repr(valid)
    assert _saved_bytes(save_graph, g2, valid2) == _saved_bytes(save_graph, g, valid)


class TestSegmentsAndIO:
    def test_graph_segments_cover_plus(self):
        spec = WorldSpec(recipe="plus", extent=120.0, road_width=9.6)
        g, _ = extract_topology(generate_world(spec))
        segs = [s.points for s in g.segments]
        assert len(segs) == 4
        junction = next(n for n in g.nodes if g.degree(n) > 2)
        for seg in segs:
            assert junction in (tuple(seg[0]), tuple(seg[-1]))

    def test_save_load_round_trip(self):
        # a line; two junctions with parallel chains and a pure cycle; and a
        # merged junction at half-pixel coordinates
        skel = np.zeros((10, 10), dtype=bool)
        skel[2:8, 4] = True
        assert_round_trip(build_graph(skel), [(2, 4)])
        g = build_graph(skeleton_of(*PARALLEL_CHAINS, CYCLE_8))
        assert g.segments[-1].u is None
        assert_round_trip(g, [n for n in g.nodes if g.degree(n) == 1])
        arms = [[(j[0] + dx * i, j[1] + dy * i) for i in range(15)]
                for j, (dx, dy) in (((20, 20), (-1, 0)), ((20, 20), (0, 1)),
                                    ((21, 20), (1, 0)), ((21, 20), (0, -1)))]
        g = clean_graph(build_graph(skeleton_of(*arms, pad=0)), 5.0, 9.0)
        assert (20.5, 20.0) in g.nodes
        assert_round_trip(g, [n for n in g.nodes if g.degree(n) == 1][1:])

    def test_clean_graph_refuses_a_graph_read_from_graph_json(self):
        # a loaded graph has no chains to edit; cleaning the graph of a plus
        # world read back from graph.json raised an AttributeError
        g, valid = extract_topology(generate_world(
            WorldSpec(recipe="plus", extent=120.0, road_width=9.6)))
        loaded, _ = _reloaded(g, valid)
        with pytest.raises(ValueError, match="build_graph"):
            clean_graph(loaded, 5.0, 9.0)

    # graph.json holds pixel coordinates and the anchors' ids only, so its
    # bytes pin the anchors, the segments and the valid endpoints, in the
    # graph's order, exactly
    @pytest.mark.parametrize("spec, pin", [
        (dict(recipe="plus", extent=120.0, road_width=9.6), "graph-json/plus"),
        (dict(recipe="grid", extent=120.0, blocks=(3, 3), road_width=9.6),
         "graph-json/grid3x3"),
    ], ids=["plus", "grid3x3"])
    def test_graph_json_bytes_pinned(self, tmp_path, spec, pin):
        g, valid = extract_topology(generate_world(WorldSpec(**spec)))
        save_graph(g, valid, tmp_path / "graph.json")
        assert_pinned(pin, [(tmp_path / "graph.json").read_bytes()])


def _check_segments(segs, ref):
    """Every edge of the networkx graph ref in exactly one segment, interiors
    of degree 2, and each segment between anchors or closed on itself."""
    paths = [list(map(tuple, seg.tolist())) for seg in segs]
    covered = [frozenset(e) for p in paths for e in zip(p, p[1:])]
    assert len(covered) == len(set(covered))
    assert set(covered) == {frozenset(e) for e in ref.edges}
    for p in paths:
        assert len(p) >= 2
        assert all(ref.degree(n) == 2 for n in p[1:-1])
        assert (ref.degree(p[0]) != 2 and ref.degree(p[-1]) != 2) or p[0] == p[-1]


@st.composite
def road_masks(draw):
    """Unions of random bars and a hollow ring: junctions, spurs, loops."""
    n = draw(st.integers(16, 48))
    mask = np.zeros((n, n), dtype=bool)
    for _ in range(draw(st.integers(1, 6))):
        x, y = draw(st.integers(0, n - 3)), draw(st.integers(0, n - 3))
        long_, thick = draw(st.integers(2, n)), draw(st.integers(2, 7))
        if draw(st.booleans()):
            mask[x:x + long_, y:y + thick] = True
        else:
            mask[x:x + thick, y:y + long_] = True
    if draw(st.booleans()):
        gx, gy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        r = np.hypot(gx - n / 2, gy - n / 2)
        radius = draw(st.floats(3.0, n / 2 - 2))
        mask |= np.abs(r - radius) <= 1.5
    return mask


@st.composite
def noise_masks(draw):
    """Dense random masks. Their skeletons hold junctions that merge more
    than once, into nodes of five or more neighbours."""
    n = draw(st.integers(16, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random((n, n)) < draw(st.floats(0.3, 0.7))


def _graph_items(g):
    return list(g.nodes), [g.degree(n) for n in g.nodes], [s.points.tolist() for s in g.segments]


def assert_in_order(g):
    """The order rule of topology.py, read off the graph: anchors strictly
    ascending; the segments are the walk from each anchor in turn along its
    chains by ascending second point, each chain once, from the anchor it
    is first met at; then the pure cycles by ascending smallest point, each
    from that point toward the smaller of its two neighbours."""
    anchors = list(g.nodes)
    assert all(a < b for a, b in zip(anchors, anchors[1:]))
    kinds = [s.u is None for s in g.segments]
    assert kinds == sorted(kinds)
    chains = [s for s in g.segments if s.u is not None]
    at = {}
    for k, s in enumerate(chains):
        first, last = s.points[1].tolist(), s.points[-2].tolist()
        assert s.u < s.v or (s.u == s.v and first < last)
        at.setdefault(s.u, []).append((first, k))
        at.setdefault(s.v, []).append((last, k))
    walk = []
    for a in sorted(at):
        for _, k in sorted(at[a]):
            if k not in walk:
                walk.append(k)
    assert walk == list(range(len(chains)))
    starts = []
    for s in g.segments[len(chains):]:
        ring = s.points[:-1].tolist()
        assert ring[0] == min(ring) and ring[1] < ring[-1]
        starts.append(ring[0])
    assert starts == sorted(starts)


class TestOrderRule:
    """Every graph that build_graph and clean_graph make follows the order
    rule. clean_graph edits a copy of the built chains: with nothing to
    prune or contract it gives back the built graph, and the built graph is
    left as it is."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(pixel_masks(), road_masks().map(skeletonize)),
           st.floats(1.0, 12.0), st.floats(1.0, 10.0))
    def test_built_and_cleaned_graphs_follow_it(self, skel, tau_prune, w_lane):
        g = build_graph(skel)
        assert_in_order(g)
        before = _graph_items(g)
        assert _graph_items(clean_graph(g, 1e-9, 1e-9)) == before
        assert_in_order(clean_graph(g, tau_prune, w_lane))
        assert _graph_items(g) == before


def _saved_bytes(save, g, valid):
    with tempfile.TemporaryDirectory() as d:
        save(g, valid, Path(d) / "graph.json")
        return (Path(d) / "graph.json").read_bytes()


class TestMatchesNetworkxReference:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(road_masks(), noise_masks()), st.floats(1.0, 12.0),
           st.floats(1.0, 10.0))
    def test_graph_segments_endpoints_and_bytes(self, mask, tau_prune, w_lane):
        skel = skeletonize(mask)
        g, ref = build_graph(skel), reference_build_graph(skel)
        assert_same_graph(g, ref)

        cleaned = clean_graph(g, tau_prune, w_lane)
        ref_cleaned = reference_clean_graph(ref, tau_prune, w_lane)
        assert_same_graph(cleaned, ref_cleaned)

        table = default_table()
        gmap = make_map(np.where(mask, table.road_id, 4), table)
        vox = gmap.voxel_size
        params = TopologyParams(w_lane=w_lane * vox, tau_prune=tau_prune * vox)
        valid = filter_endpoints(cleaned, gmap, params,
                                 gmap.labels[:, :, 0] == table.road_id)
        assert valid == reference_filter_endpoints(ref_cleaned, gmap, params)
        assert (_saved_bytes(save_graph, cleaned, valid)
                == _saved_bytes(reference_save_graph, ref_cleaned, valid))
        assert_same_graph(_reloaded(cleaned, valid)[0], ref_cleaned)
        assert_round_trip(cleaned, valid)


PARALLEL_CHAINS = ([(0, 0), (1, 1), (2, 1), (3, 1), (4, 0)],
                   [(0, 0), (1, -1), (2, -1), (3, -1), (4, 0)],
                   [(-1, 0), (0, 0)], [(4, 0), (5, 0)])
CYCLE_8 = [(0, 6), (1, 6), (2, 6), (2, 7), (2, 8), (1, 8), (0, 8), (0, 7), (0, 6)]  # a 3x3 ring


class TestGraphSegments:
    @settings(max_examples=150, deadline=None)
    @given(road_masks(), st.floats(1.0, 12.0), st.floats(1.0, 10.0))
    def test_segments_partition_skeleton_edges(self, mask, tau_prune, w_lane):
        skel = skeletonize(mask)
        g, ref = build_graph(skel), reference_build_graph(skel)
        _check_segments([s.points for s in g.segments], ref)
        _check_segments([s.points for s in clean_graph(g, tau_prune, w_lane).segments],
                        reference_clean_graph(ref, tau_prune, w_lane))

    def test_loop_through_one_junction(self):
        skel = skeleton_of([(0, 0), (1, 0), (2, 0)],                  # tail to a leaf
                           [(0, 0), (0, 1), (-1, 1), (-1, 0), (0, 0)])  # a 2x2 block
        segs = [s.points for s in build_graph(skel).segments]
        _check_segments(segs, reference_build_graph(skel))
        assert sorted(len(s) for s in segs) == [3, 5]
        loop = next(s for s in segs if len(s) == 5)
        assert tuple(loop[0]) == tuple(loop[-1]) == (3, 3)

    def test_anchor_free_cycle_component(self):
        skel = skeleton_of([(0, 0), (0, 1), (1, 1), (1, 0)], [(5, 5), (5, 6), (5, 7)])
        g = build_graph(skel)
        segs = [s.points for s in g.segments]
        _check_segments(segs, reference_build_graph(skel))
        # anchors first; the cycle starts at its smallest point, toward the
        # smaller of that point's neighbours
        assert [len(s) for s in segs] == [3, 5]
        assert [(s.u is None) for s in g.segments] == [False, True]
        assert_same_graph(g, reference_build_graph(skel))

    def test_single_edge_between_junctions(self):
        skel = skeleton_of([(0, 0), (1, 0)], [(0, 0), (-1, 1)], [(0, 0), (-1, -1)],
                           [(1, 0), (2, 1)], [(1, 0), (2, -1)])
        segs = [s.points for s in build_graph(skel).segments]
        _check_segments(segs, reference_build_graph(skel))
        assert len(segs) == 5
        assert sum(set(map(tuple, s.tolist())) == {(3, 3), (4, 3)} for s in segs) == 1

    @pytest.mark.parametrize("paths", [
        # two parallel chains between the same two junctions, each with a tail
        PARALLEL_CHAINS,
        # a 2x2 block at a junction: a chain from it back to itself, then its
        # tails
        ([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)],
         [(0, 0), (-1, 0), (-2, 0)], [(0, 0), (-1, -1)]),
        # a pure cycle beside a star with a long arm
        (CYCLE_8, [(9, 9), (9, 10), (9, 11)], [(9, 9), (10, 9)], [(9, 9), (8, 8), (7, 7)]),
        # a lone edge between two leaves
        ([(0, 0), (1, 0)],),
    ], ids=["parallel-chains", "junction-loop", "cycle-beside-anchors", "lone-edge"])
    def test_small_graphs_match_reference(self, paths):
        skel = skeleton_of(*paths)
        g, ref = build_graph(skel), reference_build_graph(skel)
        assert_same_graph(g, ref)
        _check_segments([s.points for s in g.segments], ref)


def assert_reads_back_alike(gmap, g, valid):
    """The graph read back from graph.json, which the CLI's stages walk,
    gives the segments, valid endpoints and lanes of the graph in memory, in
    the same order and direction."""
    g2, valid2 = _reloaded(g, valid)
    segs, segs2 = [s.points for s in g.segments], [s.points for s in g2.segments]
    assert len(segs2) == len(segs)
    for s, s2 in zip(segs, segs2):
        assert np.array_equal(s, s2)
    assert valid2 == valid
    lanes, lanes2 = extract_lanes(gmap, g), extract_lanes(gmap, g2)
    assert [l.source_segment for l in lanes2] == [l.source_segment for l in lanes]
    for lane, lane2 in zip(lanes, lanes2):
        assert np.array_equal(lane.points, lane2.points)


class TestLibraryAndCliAgree:
    @pytest.mark.parametrize("spec", [
        dict(recipe="plus", extent=160.0),
        dict(recipe="grid", extent=160.0, blocks=(3, 3)),
        dict(recipe="grid", extent=400.0, blocks=(3, 3)),
        dict(recipe="grid", extent=600.0, blocks=(5, 5)),
    ], ids=["plus-160m", "grid3x3-160m", "grid3x3-400m", "city5x5-600m"])
    def test_worlds(self, spec):
        world = generate_world(WorldSpec(**spec))
        assert_reads_back_alike(world, *extract_topology(world))

    @settings(max_examples=50, deadline=None)
    @given(road_masks(), st.floats(1.0, 12.0), st.floats(1.0, 10.0))
    def test_road_masks(self, mask, tau_prune, w_lane):
        table = default_table()
        gmap = make_map(np.where(mask, table.road_id, 4), table)
        params = TopologyParams(w_lane=w_lane * gmap.voxel_size,
                                tau_prune=tau_prune * gmap.voxel_size)
        assert_reads_back_alike(gmap, *extract_topology(gmap, params))
