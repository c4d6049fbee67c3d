import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsim.geometry import Pose2
from voxsim.occupancy import GlobalMap, SemanticTable, default_table
from voxsim.topology import (PixelGraph, TopologyParams, _box_obstacle_count,
                             build_graph, clean_graph,
                             extract_topology, filter_endpoints,
                             graph_segments, load_graph, save_graph,
                             skeletonize, zhang_suen_thin)
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
    """Reference: every forward 8-neighbour edge added pixel by pixel, then
    the longest edge of each 3-clique removed."""
    g = nx.Graph()
    xs, ys = np.nonzero(np.asarray(skeleton, dtype=bool))
    pixels = set(zip(xs.tolist(), ys.tolist()))
    g.add_nodes_from(pixels)
    for (x, y) in pixels:
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            v = (x + dx, y + dy)
            if v in pixels:
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


# The networkx pipeline that PixelGraph replaced, kept as the equivalence
# reference: spur pruning and junction contraction on an ``nx.Graph`` copy,
# chain walks over ``g.neighbors``, and pure cycles from
# ``nx.connected_components``.

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
    for leaf in [n for n in g.nodes if g.degree(n) == 1]:
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
    junctions = [n for n in g.nodes if g.degree(n) > 2]
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
    for leaf in [n for n in g.nodes if g.degree(n) == 1]:
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
    starts = [(a, n) for a in g.nodes if g.degree(a) != 2 for n in g.neighbors(a)]
    for comp in nx.connected_components(g):
        start = next(iter(comp))
        if all(g.degree(n) == 2 for n in comp):
            starts.append((start, next(iter(g.neighbors(start)))))
    segs = []
    seen = set()
    for prev, node in starts:
        if frozenset((prev, node)) in seen:
            continue
        path = reference_chain(g, prev, node)
        seen.update(map(frozenset, zip(path, path[1:])))
        segs.append(path)
    return segs


def reference_save_graph(g, valid_endpoints, path):
    nodes = sorted(g.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    obj = {
        "nodes": [{"id": i, "x": n[0], "y": n[1]} for n, i in index.items()],
        "edges": [{"u": index[u], "v": index[v], "weight": d["weight"]}
                  for u, v, d in g.edges(data=True)],
        "valid_endpoints": [index[n] for n in valid_endpoints],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def graph_of(*paths):
    """A PixelGraph with an edge, weighted by its length, between the
    consecutive nodes of each path."""
    g = PixelGraph()
    for path in paths:
        for u, v in zip(path, path[1:]):
            g.add_edge(u, v, math.dist(u, v))
    return g


def nx_graph_of(*paths):
    """The networkx twin of ``graph_of``: same nodes, edges and orders."""
    g = nx.Graph()
    for path in paths:
        for u, v in zip(path, path[1:]):
            g.add_edge(u, v, weight=math.dist(u, v))
    return g


def _edge_set(g):
    return {frozenset((u, v)) for u, v, _ in g.edges()}


def reinserting_copy(src):
    """The copy that clean_graph made before build_graph emitted order rule 2
    itself: every edge re-inserted in edges() order."""
    g, src = PixelGraph((n, {}) for n in src), src
    for u, v, w in src.edges():
        g[u][v] = w
        g[v][u] = w
    return g


def _nested_items(g):
    return [(n, list(nbrs.items())) for n, nbrs in g.items()]


def assert_same_graph(g, ref):
    """Same node order, same neighbour order and weights at every node and
    the same edges() order as the networkx graph ref."""
    assert list(g) == list(ref.nodes)
    for n in g:
        assert list(g[n].items()) == [(m, d["weight"]) for m, d in ref.adj[n].items()]
    assert list(g.edges()) == list(ref.edges(data="weight"))


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
    the table (and table ids above 255 that no uint8 label can hold), plus
    a random probe box."""
    ids = draw(st.lists(st.integers(0, 300), min_size=7, max_size=7, unique=True))
    roles = ["road", "sidewalk", "vehicle", "ground", "obstacle",
             draw(st.sampled_from(["free", "other", "ground"]))]
    table = SemanticTable(tuple((i, r, r) for i, r in zip(ids, roles)),
                          unassigned_id=ids[6])
    values = [i for i in ids if i < 256] + draw(
        st.lists(st.integers(0, 255), min_size=1, max_size=4))
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


class TestBuildGraph:
    def test_line_graph_weights(self):
        skel = np.zeros((10, 10), dtype=bool)
        skel[2:8, 4] = True
        g = build_graph(skel)
        assert g.number_of_nodes() == 6
        assert len(list(g.edges())) == 5
        assert all(w == 1.0 for _, _, w in g.edges())

    def test_diagonal_weight(self):
        skel = np.zeros((5, 5), dtype=bool)
        skel[1, 1] = skel[2, 2] = True
        g = build_graph(skel)
        assert g[(1, 1)][(2, 2)] == pytest.approx(math.sqrt(2))

    def test_triangle_longest_edge_removed(self):
        # right triangle: two unit edges plus a sqrt(2) hypotenuse
        skel = np.zeros((5, 5), dtype=bool)
        skel[1, 1] = skel[1, 2] = skel[2, 2] = True
        g = build_graph(skel)
        assert len(list(g.edges())) == 2
        assert (2, 2) not in g[(1, 1)]

    def test_full_block_is_four_cycle(self):
        skel = np.zeros((4, 4), dtype=bool)
        skel[1:3, 1:3] = True
        g = build_graph(skel)
        assert sorted(sorted((u, v)) for u, v, _ in g.edges()) == [
            [(1, 1), (1, 2)], [(1, 1), (2, 1)], [(1, 2), (2, 2)], [(2, 1), (2, 2)]]
        assert all(w == 1.0 for _, _, w in g.edges())

    # build_graph emits order rule 2 directly, the order in which networkx's
    # copy re-adds the reference's edges (adjacency order)
    @settings(max_examples=300, deadline=None)
    @given(pixel_masks())
    def test_matches_reference_build(self, skel):
        g, ref = build_graph(skel), reference_build_graph(skel).copy()
        assert_same_graph(g, ref)

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
        assert g.number_of_nodes() == 600
        assert peak < 2 * skel.size, peak / skel.size


class TestCleanGraph:
    def _trunk_with_spur(self, spur_len):
        return graph_of([(x, 10) for x in range(0, 40)],
                        [(20, 10 + i) for i in range(spur_len + 1)])

    def test_short_spur_pruned(self):
        g = clean_graph(self._trunk_with_spur(3), tau_prune_px=5.0, w_lane_px=9.0)
        assert all(n[1] == 10 for n in g.nodes)

    def test_long_branch_kept(self):
        g = clean_graph(self._trunk_with_spur(30), tau_prune_px=5.0, w_lane_px=9.0)
        assert any(n[1] > 10 for n in g.nodes)

    def test_close_junctions_contracted(self):
        # two degree-3 nodes 2 px apart, each with three long arms
        j1, j2 = (20, 20), (22, 20)
        arms = [[(j[0] + dx * i, j[1] + dy * i) for i in range(15)]
                for j, (dx, dy) in ((j1, (-1, 0)), (j1, (0, 1)), (j2, (1, 0)), (j2, (0, -1)))]
        g = graph_of([j1, j2], *arms)
        cleaned = clean_graph(g, tau_prune_px=5.0, w_lane_px=9.0)
        junctions = [n for n in cleaned.nodes if cleaned.degree(n) > 2]
        assert len(junctions) == 1
        assert junctions[0] == (21.0, 20.0)


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


class TestSegmentsAndIO:
    def test_graph_segments_cover_plus(self):
        spec = WorldSpec(recipe="plus", extent=120.0, road_width=9.6)
        g, _ = extract_topology(generate_world(spec))
        segs = graph_segments(g)
        assert len(segs) == 4
        junction = next(n for n in g.nodes if g.degree(n) > 2)
        for seg in segs:
            assert seg[0] == junction or seg[-1] == junction

    def test_save_load_round_trip(self, tmp_path):
        skel = np.zeros((10, 10), dtype=bool)
        skel[2:8, 4] = True
        g = build_graph(skel)
        valid = [(2, 4)]
        path = tmp_path / "g.json"
        save_graph(g, valid, path)
        g2, valid2 = load_graph(path)
        assert set(g2.nodes) == set(g.nodes)
        assert _edge_set(g2) == _edge_set(g)
        assert valid2 == valid

    # graph.json holds integer pixels and math.dist weights only, so its bytes
    # pin the node set, the edge order and the valid endpoints exactly
    @pytest.mark.parametrize("spec, pin", [
        (dict(recipe="plus", extent=120.0, road_width=9.6), "graph-json/plus"),
        (dict(recipe="grid", extent=120.0, blocks=(3, 3), road_width=9.6),
         "graph-json/grid3x3"),
    ], ids=["plus", "grid3x3"])
    def test_graph_json_bytes_pinned(self, tmp_path, spec, pin):
        g, valid = extract_topology(generate_world(WorldSpec(**spec)))
        save_graph(g, valid, tmp_path / "graph.json")
        assert_pinned(pin, [(tmp_path / "graph.json").read_bytes()])


def _check_segments(g, segs):
    """Every edge in exactly one segment, degree-2 interiors, and each
    segment between non-degree-2 anchors or closed on itself."""
    covered = [frozenset(e) for seg in segs for e in zip(seg, seg[1:])]
    assert len(covered) == len(set(covered))
    assert set(covered) == _edge_set(g)
    for seg in segs:
        assert len(seg) >= 2
        assert all(g.degree(n) == 2 for n in seg[1:-1])
        ends_at_anchors = g.degree(seg[0]) != 2 and g.degree(seg[-1]) != 2
        assert ends_at_anchors or seg[0] == seg[-1]


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
    than once, into nodes of five or more neighbours, whose neighbour sets
    iterate in another order when built presized from a dict."""
    n = draw(st.integers(16, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random((n, n)) < draw(st.floats(0.3, 0.7))


class TestOrderRule2:
    """build_graph's output already has the node and neighbour order that
    re-inserting every edge in edges() order gives, so clean_graph can work
    on a plain copy."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(pixel_masks(), road_masks().map(skeletonize)),
           st.floats(1.0, 12.0), st.floats(1.0, 10.0))
    def test_build_graph_output_is_its_own_reinserting_copy(self, skel, tau_prune, w_lane):
        g = build_graph(skel)
        before = _nested_items(g)
        assert before == _nested_items(reinserting_copy(g))
        clean_graph(g, tau_prune, w_lane)
        assert _nested_items(g) == before


def _ring(cycle):
    """A closed path's nodes up to rotation and direction."""
    ring = cycle[:-1]
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    return min(ring, ring[:1] + ring[:0:-1])


def assert_same_segments(g, segs, ref):
    """Equal segment lists, except that a pure cycle (every node of degree
    2) may start at another node or run the other way."""
    assert len(segs) == len(ref)
    for s, r in zip(segs, ref):
        if all(len(g[n]) == 2 for n in s):
            assert _ring(s) == _ring(r)
        else:
            assert s == r


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
        g, ref = build_graph(skel), reference_build_graph(skel).copy()
        assert_same_graph(g, ref)
        assert_same_segments(g, graph_segments(g), reference_graph_segments(ref))

        cleaned = clean_graph(g, tau_prune, w_lane)
        ref_cleaned = reference_clean_graph(ref, tau_prune, w_lane)
        assert_same_graph(cleaned, ref_cleaned)
        assert_same_segments(cleaned, graph_segments(cleaned),
                             reference_graph_segments(ref_cleaned))

        table = default_table()
        gmap = make_map(np.where(mask, table.road_id, 4), table)
        vox = gmap.voxel_size
        params = TopologyParams(w_lane=w_lane * vox, tau_prune=tau_prune * vox)
        valid = filter_endpoints(cleaned, gmap, params,
                                 gmap.labels[:, :, 0] == table.road_id)
        assert valid == reference_filter_endpoints(ref_cleaned, gmap, params)
        assert (_saved_bytes(save_graph, cleaned, valid)
                == _saved_bytes(reference_save_graph, ref_cleaned, valid))


class TestGraphSegments:
    @settings(max_examples=150, deadline=None)
    @given(road_masks(), st.floats(1.0, 12.0), st.floats(1.0, 10.0))
    def test_segments_partition_skeleton_edges(self, mask, tau_prune, w_lane):
        g = build_graph(skeletonize(mask))
        _check_segments(g, graph_segments(g))
        cleaned = clean_graph(g, tau_prune, w_lane)
        _check_segments(cleaned, graph_segments(cleaned))

    def test_loop_through_one_junction(self):
        g = graph_of([(0, 0), (1, 0), (2, 0)],                  # tail to a leaf
                     [(0, 0), (0, 1), (-1, 1), (-1, 0), (0, 0)])
        segs = graph_segments(g)
        _check_segments(g, segs)
        assert sorted(len(s) for s in segs) == [3, 5]
        loop = next(s for s in segs if len(s) == 5)
        assert loop[0] == loop[-1] == (0, 0)

    def test_anchor_free_cycle_component(self):
        g = graph_of([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)],
                     [(5, 5), (5, 6), (5, 7)])
        segs = graph_segments(g)
        _check_segments(g, segs)
        # anchors first; the cycle starts at its first node, toward that
        # node's first neighbour
        assert segs == [[(5, 5), (5, 6), (5, 7)],
                        [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]]

    def test_single_edge_between_junctions(self):
        g = graph_of([(0, 0), (1, 0)], [(0, 0), (-1, 1)], [(0, 0), (-1, -1)],
                     [(1, 0), (2, 1)], [(1, 0), (2, -1)])
        segs = graph_segments(g)
        _check_segments(g, segs)
        assert len(segs) == 5
        assert sum(set(s) == {(0, 0), (1, 0)} for s in segs) == 1

    @pytest.mark.parametrize("paths", [
        # two parallel chains between the same two junctions, each with a tail
        ([(0, 0), (1, 1), (2, 1), (3, 1), (4, 0)],
         [(0, 0), (1, -1), (2, -1), (3, -1), (4, 0)],
         [(-1, 0), (0, 0)], [(4, 0), (5, 0)]),
        # a chain from a junction back to itself, the junction's tails after
        ([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)],
         [(0, 0), (-1, 0), (-2, 0)], [(0, 0), (-1, -1)]),
        # a pure cycle first in node order, beside a star with a long arm
        ([(0, 0), (0, 1), (1, 1), (2, 1), (2, 0), (1, 0), (0, 0)],
         [(9, 9), (9, 10), (9, 11)], [(9, 9), (10, 9)], [(9, 9), (8, 8), (7, 7)]),
        # a lone edge between two leaves
        ([(0, 0), (1, 0)],),
    ], ids=["parallel-chains", "junction-loop", "cycle-beside-anchors", "lone-edge"])
    def test_small_graphs_match_reference(self, paths):
        g, ref = graph_of(*paths), nx_graph_of(*paths)
        assert_same_graph(g, ref)
        segs = graph_segments(g)
        _check_segments(g, segs)
        assert_same_segments(g, segs, reference_graph_segments(ref))
