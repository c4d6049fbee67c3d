"""Road-skeleton graph extraction and valid-endpoint filtering.

Pipeline: binary road mask -> Zhang-Suen thinning (+ 2x2 corner clearing) ->
8-connected pixel graph without the triangle-closing diagonals -> spur
pruning and junction contraction -> dual-probe endpoint filtering against
the 3D map, which counts obstacle voxels only inside each probe box.

The graph is a ``PixelGraph``: node -> {neighbour: weight}, both levels in
insertion order, which decides segment and lane order. Four rules fix it:
1. nodes go in in the iteration order of the set of skeleton pixels;
2. ``build_graph``'s edges go in by the lower node row of their two ends,
   then by the row of the end that the forward step leaves, then by the
   step's index. Adding every edge again in ``edges()`` order gives the
   same graph, so ``clean_graph`` keeps this order in a plain copy;
3. a merged junction's edges go in in the order of
   ``set(iter(g[u])) | set(iter(g[v]))``: ``set(g[u])`` presizes its table
   from the dict and iterates differently once a node has many neighbours;
4. ``graph_segments`` walks from every anchor (a node not of degree 2)
   first, then from each pure cycle's first node toward its first neighbour.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .occupancy import (FINITE, POSITIVE, GlobalMap, Settings, at_least, load_json_input,
                        save_json, setting)


class PixelGraph(dict):
    """Undirected weighted graph: node -> {neighbour: weight}, both levels
    in insertion order. Nodes are pixel coordinate tuples."""

    @property
    def nodes(self):
        return self.keys()

    def degree(self, n) -> int:
        return len(self[n])

    def number_of_nodes(self) -> int:
        return len(self)

    def add_edge(self, u, v, w: float) -> None:
        self.setdefault(u, {})[v] = w
        self.setdefault(v, {})[u] = w

    def remove_nodes(self, nodes) -> None:
        for n in nodes:
            for m in self.pop(n):
                del self[m][n]

    def edges(self):
        """Each edge once as (u, v, w): u in node order, v in u's order,
        skipping a v that was already passed as u."""
        passed = set()
        for u, nbrs in self.items():
            for v, w in nbrs.items():
                if v not in passed:
                    yield u, v, w
            passed.add(u)


@dataclass
class TopologyParams(Settings):
    w_lane: float = setting(3.6, POSITIVE)         # meters
    tau_prune: float = setting(5.0, POSITIVE)      # meters, spur threshold
    tau_obs: int = setting(20, POSITIVE)           # obstacle voxels tolerated in the probe box
    probe_length: float = setting(15.0, POSITIVE)  # meters, semantic probe box
    probe_width: float = setting(3.6, POSITIVE)    # meters


def _kill_tables():
    """Each phase's 256-entry kill table, indexed by the 8-neighbour code whose
    bit i is P(i+2), clockwise from north (y+1): 2 <= B <= 6, A == 1 and the
    phase's two products zero."""
    p = (np.arange(256)[:, None] >> np.arange(8)) & 1
    b, a = p.sum(axis=1), ((p == 0) & (np.roll(p, -1, axis=1) == 1)).sum(axis=1)
    p2, p4, p6, p8 = p[:, 0], p[:, 2], p[:, 4], p[:, 6]
    base = (b >= 2) & (b <= 6) & (a == 1)
    return (base & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
            base & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0))


_KILL = _kill_tables()


def zhang_suen_thin(mask: np.ndarray) -> np.ndarray:
    """Iterative Zhang-Suen thinning of a binary image to a 1-pixel skeleton.

    A uint8 code image over the padded mask holds each foreground pixel's
    8-neighbour code (bit i is P(i+2), the ``_KILL`` index), computed once
    and kept across sub-iterations. A kill needs A == 1, so a background
    neighbour: each sub-iteration looks up only the border, the foreground
    pixels whose code is not 255, all against its starting state. It then
    clears the killed pixels' bit in each of their neighbours' codes; a
    neighbour whose code read 255 just before joins the border, so the next
    border is the survivors plus those pixels and the work follows the kills,
    not the image size."""
    padded = np.zeros(np.add(np.shape(mask), 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    img = padded.reshape(-1)  # writes through: padded is C-contiguous
    w = padded.shape[1]
    offsets = np.array([1, w + 1, w, w - 1, -1, -w - 1, -w, 1 - w])  # P2..P9
    fg = np.flatnonzero(img)
    fg_code = np.zeros(fg.size, dtype=np.uint8)
    for i, o in enumerate(offsets):
        fg_code |= img[fg + o].view(np.uint8) << i
    code = np.zeros(img.shape, dtype=np.uint8)
    code[fg] = fg_code
    border = fg[fg_code != 255]
    # a neighbour at offset i sees the pixel at offset i + 4 (mod 8)
    opposite = [np.uint8(~(1 << ((i + 4) % 8)) & 0xFF) for i in range(8)]
    changed = True
    while changed:
        changed = False
        for phase in (0, 1):
            kill = _KILL[phase][code[border]]
            if not kill.any():
                continue
            killed = border[kill]
            img[killed] = False
            changed = True
            next_border = [border[~kill]]
            # a background pixel's code is never looked up and never reads
            # 255 (0 at the start, below 255 when killed, and codes only
            # lose bits), so every neighbour is updated unfiltered
            for o, clear in zip(offsets, opposite):
                near = killed + o
                c = code[near]
                next_border.append(near[c == 255])
                code[near] = c & clear
            border = np.concatenate(next_border)
    return padded[1:-1, 1:-1].copy()


def skeletonize(mask: np.ndarray) -> np.ndarray:
    """Thin a road mask, then clear the (x+1, y+1) pixel of every fully-filled
    2x2 block so the skeleton is strictly single-pixel under 8-connectivity."""
    skel = zhang_suen_thin(mask)
    full = skel[:-1, :-1] & skel[1:, :-1] & skel[:-1, 1:] & skel[1:, 1:]
    skel[1:, 1:][full] = False
    return skel


_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1))  # forward 8-neighbours, in edge order
_STEP_WEIGHTS = np.array([math.hypot(dx, dy) for dx, dy in _STEPS])


def build_graph(skeleton: np.ndarray) -> PixelGraph:
    """Pixel graph of the skeleton: a node per pixel and an edge per
    8-neighbor pair, weighted by Euclidean distance, except each diagonal
    that closes a triangle. Every 3-clique of an 8-connected pixel graph
    lies in one 2x2 block, where its diagonal is the unique longest edge, so
    a diagonal is left out exactly when a pixel beside both of its ends is
    set.

    Edges go in in order rule 2: by the lower node row of their two ends,
    then by owner row (the end that the forward step leaves) and step index
    in ``_STEPS``. A step's target is found by ``searchsorted`` over the
    sorted flat indices of the skeleton pixels, so no map-sized index image
    is made."""
    sk = np.pad(np.asarray(skeleton, dtype=bool), 1)
    img, stride = sk.reshape(-1), sk.shape[1]  # padded (x, y) sits at x * stride + y
    pixels = np.flatnonzero(img)  # sorted
    xs, ys = np.divmod(pixels, stride)
    g = PixelGraph((n, {}) for n in set(zip((xs - 1).tolist(), (ys - 1).tolist())))
    nodes = list(g)
    x, y = np.fromiter(itertools.chain.from_iterable(nodes), dtype=np.intp,
                       count=2 * len(nodes)).reshape(-1, 2).T
    row_of = np.argsort((x + 1) * stride + y + 1)  # node row of pixels[i]
    right, up, down = img[pixels + stride], img[pixels + 1], img[pixels - 1]
    keep = np.stack([right, up, img[pixels + stride + 1] & ~(right | up),
                     img[pixels + stride - 1] & ~(right | down)], axis=1)
    src, k = np.divmod(np.flatnonzero(keep), len(_STEPS))
    steps = np.array([dx * stride + dy for dx, dy in _STEPS])
    owner, target = row_of[src], row_of[np.searchsorted(pixels, pixels[src] + steps[k])]
    order = np.lexsort((k, owner, np.minimum(owner, target)))
    nbrs = list(g.values())
    for a, b, w in zip(owner[order].tolist(), target[order].tolist(),
                       _STEP_WEIGHTS[k[order]].tolist()):
        nbrs[a][nodes[b]] = w
        nbrs[b][nodes[a]] = w
    return g


def _chain(g: PixelGraph, prev, node) -> list:
    """Walk from the edge (prev, node) through degree-2 nodes. The path starts
    at prev and ends at the first node of another degree, or back at prev
    when the walk closes a cycle."""
    path = [prev, node]
    start = prev
    nbrs = g[node]
    while len(nbrs) == 2 and node != start:
        a, b = nbrs
        prev, node = node, b if a == prev else a
        path.append(node)
        nbrs = g[node]
    return path


def _prune_spurs(g: PixelGraph, tau_prune: float) -> bool:
    """Remove each leaf's chain up to its junction (deg > 2), junction kept,
    when the chain is shorter than tau_prune."""
    removed = False
    for leaf in [n for n, nbrs in g.items() if len(nbrs) == 1]:
        if leaf not in g or len(g[leaf]) != 1:
            continue
        path = _chain(g, leaf, next(iter(g[leaf])))
        if len(g[path[-1]]) > 2 and sum(g[u][v] for u, v in zip(path, path[1:])) < tau_prune:
            g.remove_nodes(path[:-1])
            removed = True
    return removed


def _contract_junctions(g: PixelGraph, radius: float) -> bool:
    """Merge the closest junction pair within radius into a centroid node,
    the first pair (i, j) in junction order among equally close ones.
    Returns True when a contraction happened."""
    junctions = [n for n, nbrs in g.items() if len(nbrs) > 2]
    if len(junctions) < 2:
        return False
    # np.hypot and math.dist agree to within a few ulps, so the pair that
    # math.dist picks is among the candidates within a 1e-9 relative margin,
    # both of the radius and of the closest candidate
    pts = np.array(junctions, dtype=float)
    i, j = cKDTree(pts).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray").T
    d = np.hypot(*(pts[j] - pts[i]).T)
    if not len(d):
        return False
    near = d <= d.min() * (1.0 + 1e-9)
    best = None
    for a, b in sorted(zip(i[near].tolist(), j[near].tolist())):
        u, v = junctions[a], junctions[b]
        dist = math.dist(u, v)
        if dist < radius and (best is None or dist < best[0]):
            best = (dist, u, v)
    if best is None:
        return False
    _, u, v = best
    merged = ((u[0] + v[0]) / 2.0, (u[1] + v[1]) / 2.0)
    nbrs = (set(iter(g[u])) | set(iter(g[v]))) - {u, v}  # order rule 3
    g.remove_nodes([u, v])
    if merged in g:
        merged = (merged[0] + 1e-6, merged[1])
    for n in nbrs:
        g.add_edge(merged, n, math.dist(merged, n))
    return True


def clean_graph(g: PixelGraph, tau_prune_px: float, w_lane_px: float) -> PixelGraph:
    """Iterate spur pruning and junction contraction to a joint fixpoint on a
    plain copy, which keeps the node and neighbour order of g: build_graph's
    output is already in order rule 2, and g is left as it is."""
    g = PixelGraph((n, dict(nbrs)) for n, nbrs in g.items())
    while True:
        pruned = _prune_spurs(g, tau_prune_px)
        contracted = _contract_junctions(g, 2.0 * w_lane_px)
        if not pruned and not contracted:
            return g


OUTWARD_MIN_LEN = 3.0  # pixels from a leaf to the anchor of its outward direction


def _outward_direction(g: PixelGraph, leaf):
    """Unit direction pointing out of the graph at a leaf, estimated from the
    last segment of at least OUTWARD_MIN_LEN pixels leading into it."""
    path = _chain(g, leaf, next(iter(g[leaf])))
    anchor = next((n for n in path[1:] if math.dist(leaf, n) >= OUTWARD_MIN_LEN),
                  path[-1])
    d = np.array(leaf, dtype=float) - np.array(anchor, dtype=float)
    return d / np.linalg.norm(d)


def _box_obstacle_count(gmap: GlobalMap, origin_px, direction, length_px, width_px):
    """Count above-ground obstacle voxels inside an oriented box extending
    from origin along direction. A label is an obstacle unless it is road,
    sidewalk, a free-role category or unassigned."""
    t = gmap.table
    free = (t.unassigned_id, *t.ids_for("road", "sidewalk", "free"))
    is_obstacle = ~np.isin(np.arange(256), free)  # per uint8 label value
    X, Y = gmap.labels.shape[:2]
    d = np.asarray(direction, dtype=float)
    n = np.array([-d[1], d[0]])
    o = np.asarray(origin_px, dtype=float)
    # bounding box of the oriented probe
    corners = np.array([
        o + n * width_px / 2, o - n * width_px / 2,
        o + d * length_px + n * width_px / 2, o + d * length_px - n * width_px / 2,
    ])
    x0, y0 = np.maximum(np.floor(corners.min(axis=0)).astype(int), 0)
    x1 = min(int(math.ceil(corners[:, 0].max())) + 1, X)
    y1 = min(int(math.ceil(corners[:, 1].max())) + 1, Y)
    gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1), indexing="ij")
    rel = np.stack([gx - o[0], gy - o[1]], axis=-1)
    lon = rel @ d
    lat = rel @ n
    inside = (lon >= 0) & (lon <= length_px) & (np.abs(lat) <= width_px / 2)
    return int(is_obstacle[gmap.labels[gx[inside], gy[inside], 1:]].sum())


def filter_endpoints(g: PixelGraph, gmap: GlobalMap, params: TopologyParams,
                     road: np.ndarray):
    """Dual-probe endpoint filtering.

    A leaf survives when the topology probe 1.5*w_lane beyond it leaves the
    road mask and the 15m x 3.6m semantic probe box along its outward
    direction holds fewer than tau_obs obstacle voxels. ``road`` is the
    map's road plane, ``gmap.labels[:, :, 0] == gmap.table.road_id``, which
    the caller has already made to find the skeleton.
    """
    vox = gmap.voxel_size
    w_lane_px = params.w_lane / vox
    valid = []
    for leaf in [n for n, nbrs in g.items() if len(nbrs) == 1]:
        d = _outward_direction(g, leaf)
        probe = np.array(leaf, dtype=float) + 1.5 * w_lane_px * d
        px, py = int(math.floor(probe[0])), int(math.floor(probe[1]))
        on_road = (0 <= px < road.shape[0] and 0 <= py < road.shape[1]
                   and road[px, py])
        if on_road:
            continue  # internal fragmentation, not a real frontier
        count = _box_obstacle_count(
            gmap, leaf, d, params.probe_length / vox, params.probe_width / vox)
        if count < params.tau_obs:
            valid.append(leaf)
    return valid


def extract_topology(gmap: GlobalMap, params: TopologyParams = None):
    """Full Alg-style chain: mask -> skeleton -> graph -> clean -> endpoints.
    Returns (graph, valid_endpoints); node coordinates are pixels."""
    if params is None:
        params = TopologyParams()
    vox = gmap.voxel_size
    road = gmap.labels[:, :, 0] == gmap.table.road_id
    skel = skeletonize(road)
    g = build_graph(skel)
    g = clean_graph(g, params.tau_prune / vox, params.w_lane / vox)
    valid = filter_endpoints(g, gmap, params, road)
    return g, valid


def graph_segments(g: PixelGraph):
    """Maximal chains of degree-2 nodes between junction/leaf anchors, as
    ordered pixel paths. Isolated cycles are returned as closed paths.

    Chains are walked from every anchor edge, skipping the far end of a
    chain already walked; a chain's interior holds only degree-2 nodes, so
    the degree-2 nodes never visited lie on pure cycles, each walked once
    from its first node toward that node's first neighbour."""
    segs = []
    walked = set()   # (end, node before it) of each chain walked from an anchor
    for a, nbrs in g.items():
        if len(nbrs) != 2:
            for n in nbrs:
                if (a, n) not in walked:
                    path = _chain(g, a, n)
                    walked.add((path[-1], path[-2]))
                    segs.append(path)
    visited = {n for path in segs for n in path[1:-1]}
    for a, nbrs in g.items():
        if len(nbrs) == 2 and a not in visited:
            path = _chain(g, a, next(iter(nbrs)))
            visited.update(path)
            segs.append(path)
    return segs


def save_graph(g: PixelGraph, valid_endpoints, path) -> str:
    """Write the graph and its valid endpoints as JSON; the file's sha256."""
    nodes = sorted(g)
    index = {n: i for i, n in enumerate(nodes)}
    obj = {
        "nodes": [{"id": i, "x": n[0], "y": n[1]} for n, i in index.items()],
        "edges": [{"u": index[u], "v": index[v], "weight": w}
                  for u, v, w in g.edges()],
        "valid_endpoints": [index[n] for n in valid_endpoints],
    }
    return save_json(obj, path)


def load_graph(path):
    return load_json_input(path, _graph_from_json)


def _graph_from_json(obj):
    node_id = at_least(0)
    coords = {node_id.check("node id", n["id"]):
              (FINITE.check("node x", n["x"]), FINITE.check("node y", n["y"]))
              for n in obj["nodes"]}
    if len(coords) != len(obj["nodes"]):
        raise ValueError("repeated node id")
    g = PixelGraph((c, {}) for c in coords.values())
    if len(g) != len(coords):
        raise ValueError("two node ids at one pixel")

    def node(i):
        # every key is an int that passed node_id, but True and 1.0 find id 1
        if type(i) is not int:
            raise ValueError(f"node id {i!r} is not an int")
        return coords[i]

    for e in obj["edges"]:
        u, v = node(e["u"]), node(e["v"])
        if u == v:
            raise ValueError(f"self-loop edge at {u}")
        if v in g[u]:
            raise ValueError(f"repeated edge {u}-{v}")
        g.add_edge(u, v, FINITE.check("edge weight", e["weight"]))
    valid = [node(i) for i in obj["valid_endpoints"]]
    return g, valid
