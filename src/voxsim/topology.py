"""Road-skeleton graph extraction and valid-endpoint filtering.

Pipeline: binary road mask -> Zhang-Suen thinning (+ 2x2 corner clearing) ->
segment graph of the 8-connected skeleton without the triangle-closing
diagonals -> spur pruning and junction contraction -> dual-probe endpoint
filtering against the 3D map, which counts obstacle voxels only inside each
probe box.

The graph is a ``SegmentGraph``. Its anchors are the nodes whose degree is
not 2: skeleton pixels, and the centroids that junction contraction makes.
Its segments are the chains between them, each an ordered point array; a
pure cycle, a chain with no anchor, starts and ends at its first point.
Segment order decides lane order. One rule fixes it, for the graph in
memory and in graph.json alike; points compare by their (x, y)
coordinates:
- the anchors go in ascending order;
- the segments are walked from each anchor in that order, along each of
  its chains in the order of the chain's second point, skipping a chain
  already walked from its other end;
- then come the pure cycles, in the order of their smallest points, each
  walked from that point toward the smaller of its two neighbours.
Spur pruning visits the leaves, and junction contraction breaks ties
between equally close pairs, in the same anchor order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .geometry import unit
from .occupancy import (FINITE, POSITIVE, GlobalMap, Settings, at_least, finite_points,
                        load_json_input, save_json, setting)


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


_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1))  # forward 8-neighbours


@dataclass(frozen=True)
class Segment:
    """A chain walked from anchor ``u`` to anchor ``v`` (indices into the
    graph's anchors), both ends included in ``points``; or a pure cycle,
    ``u`` and ``v`` None, closed on its first point."""

    u: int | None
    v: int | None
    points: np.ndarray  # (n, 2) float


class SegmentGraph:
    """Anchors and segments in the order the module docstring states.
    ``nodes``, ``degree`` and ``number_of_nodes`` read the anchors; a node is
    its coordinate tuple, of ints for a skeleton pixel."""

    def __init__(self, anchors, segments, chains=None):
        self.anchors = anchors
        self.segments = segments
        self._chains = chains  # what clean_graph edits; None on a loaded graph
        self._index = {a: i for i, a in enumerate(anchors)}
        self._degree = [0] * len(anchors)
        for s in segments:
            if s.u is not None:
                self._degree[s.u] += 1
                self._degree[s.v] += 1

    @property
    def nodes(self):
        return self.anchors

    def degree(self, n) -> int:
        return self._degree[self._index[n]]

    def number_of_nodes(self) -> int:
        return len(self.anchors)

    def leaf_paths(self):
        """(leaf, the points of its segment walked from it) of each anchor of
        degree 1, in anchor order."""
        paths = {}
        for s in self.segments:
            if s.u is not None:
                paths[s.u], paths[s.v] = s.points, s.points[::-1]
        return [(a, paths[i]) for i, a in enumerate(self.anchors) if self._degree[i] == 1]


class _Chains:
    """The graph that build_graph makes and clean_graph edits, as chains
    between anchors. Node ids below P index the skeleton pixels in flat
    order, which is their coordinate order; id P + k is the k-th merged
    junction. ``ports[a]`` holds anchor a's (chain id, end) pairs, end 0
    where the chain starts at a and 1 where it ends there. Neither the
    anchors nor a port list is kept in order: ``_in_order`` and ``graph``
    sort them where the order is read. A chain is its node-id array, and
    edits replace chains and never write into their arrays. A pure cycle is
    a chain that no port names, closed on its first node."""

    def __init__(self, xy, flat, stride):
        self.xy = xy                             # each pixel's coordinates
        self.flat, self.stride = flat, stride    # each pixel's padded flat index
        self.coord = {}       # node -> coordinates, of every node made an anchor
        self.alive = np.ones(len(xy), dtype=bool)
        self.merged = []      # coordinates of merged junction P + k
        self.merged_at = {}   # coordinates -> id, of the merged junctions in the graph
        self.ports = {}
        self.chains = {}
        self.new_id = 0

    def copy(self) -> _Chains:
        c = copy.copy(self)
        c.alive, c.merged, c.merged_at = self.alive.copy(), list(self.merged), dict(self.merged_at)
        c.coord = dict(self.coord)
        c.ports = {a: list(p) for a, p in self.ports.items()}
        c.chains = dict(self.chains)
        return c

    def _add(self, nodes) -> int:
        cid = self.new_id
        self.new_id += 1
        self.chains[cid] = nodes
        return cid

    def _in_order(self, anchors):
        return sorted(anchors, key=self.coord.__getitem__)

    def _replace(self, a, old, new) -> None:
        ports = self.ports[a]
        ports[ports.index(old)] = new

    def _kill(self, nodes) -> None:
        """Mark the node ids as out of the graph."""
        P = len(self.xy)
        self.alive[nodes[nodes < P]] = False
        for n in nodes[nodes >= P].tolist():
            del self.merged_at[self.merged[n - P]]

    def _occupied(self, c) -> bool:
        """Whether a node of the graph sits at the float coordinates c."""
        if c in self.merged_at:
            return True
        if not (c[0].is_integer() and c[1].is_integer()):
            return False
        f = (int(c[0]) + 1) * self.stride + int(c[1]) + 1
        i = int(np.searchsorted(self.flat, f))
        return i < len(self.flat) and self.flat[i] == f and bool(self.alive[i])

    def _split(self, cid, i) -> None:
        """Make the chain's i-th node, of degree 2, an anchor."""
        nodes = self.chains.pop(cid)
        head = self._add(nodes[:i + 1])
        tail = self._add(nodes[i:])
        self._replace(int(nodes[0]), (cid, 0), (head, 0))
        self._replace(int(nodes[-1]), (cid, 1), (tail, 1))
        x = int(nodes[i])
        self.ports[x] = [(head, 1), (tail, 0)]
        if x not in self.coord:  # a pixel; a merged junction is entered when made
            self.coord[x] = tuple(self.xy[x].tolist())

    def _dissolve(self, x) -> None:
        """Join the two chains at x, an anchor left with degree 2."""
        (c1, e1), (c2, e2) = self.ports.pop(x)
        if c1 == c2:  # a loop through x, now a pure cycle
            return
        n1, n2 = self.chains.pop(c1), self.chains.pop(c2)
        if e1 == 0:  # the first chain ends at x, the second starts there
            n1 = n1[::-1]
        if e2 == 1:
            n2 = n2[::-1]
        cid = self._add(np.concatenate([n1, n2[1:]]))
        self._replace(int(n1[0]), (c1, 1 - e1), (cid, 0))
        self._replace(int(n2[-1]), (c2, 1 - e2), (cid, 1))

    def _length(self, nodes) -> float:
        """The chain's length: ``math.hypot`` of each step, summed one by one
        from its first node, as the pixel graph sums its edge weights."""
        pts = self.xy.take(nodes, axis=0, mode="clip").tolist()
        for i in np.flatnonzero(nodes >= len(self.xy)).tolist():  # merged junctions
            pts[i] = self.coord[nodes[i]]
        return sum(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:]))

    def prune_spurs(self, tau_prune: float) -> bool:
        """Remove each leaf's chain up to its junction (deg > 2), junction
        kept, when the chain is shorter than tau_prune; the leaves in anchor
        order as they are when the pass starts."""
        removed = False
        for leaf in self._in_order(a for a, p in self.ports.items() if len(p) == 1):
            (cid, end), = self.ports[leaf]
            nodes = self.chains[cid]
            if end:  # walk it from the leaf
                nodes = nodes[::-1]
            junction = int(nodes[-1])
            if len(self.ports[junction]) > 2 and self._length(nodes) < tau_prune:
                del self.chains[cid], self.ports[leaf]
                self._kill(nodes[:-1])
                self.ports[junction].remove((cid, 1 - end))
                if len(self.ports[junction]) == 2:
                    self._dissolve(junction)
                removed = True
        return removed

    def contract_junctions(self, radius: float) -> bool:
        """Merge the closest junction pair within radius into a centroid node,
        the first pair (i, j) in anchor order among equally close ones.
        Returns True when a contraction happened."""
        junctions = self._in_order(a for a, p in self.ports.items() if len(p) > 2)
        if len(junctions) < 2:
            return False
        coords = [self.coord[a] for a in junctions]
        # np.hypot and math.dist agree to within a few ulps, so the pair that
        # math.dist picks is among the candidates within a 1e-9 relative margin,
        # both of the radius and of the closest candidate
        pts = np.array(coords, dtype=float)
        i, j = scipy.spatial.cKDTree(pts).query_pairs(radius * (1.0 + 1e-9),
                                                      output_type="ndarray").T
        d = np.hypot(*(pts[j] - pts[i]).T)
        if not len(d):
            return False
        near = d <= d.min() * (1.0 + 1e-9)
        best = None
        for a, b in sorted(zip(i[near].tolist(), j[near].tolist())):
            dist = math.dist(coords[a], coords[b])
            if dist < radius and (best is None or dist < best[0]):
                best = (dist, a, b)
        if best is None:
            return False
        self._merge(junctions[best[1]], junctions[best[2]])
        return True

    def _merge(self, u, v) -> None:
        """Replace junctions u and v by one node at their centroid, joined
        to each of their neighbours."""
        # every neighbour becomes an anchor, so each chain at u or v is one edge
        for a in (u, v):
            ports = self.ports[a]
            for k in range(len(ports)):
                cid, end = ports[k]
                nodes = self.chains[cid]
                i = len(nodes) - 2 if end else 1
                if int(nodes[i]) not in self.ports:
                    self._split(cid, i)
        nbrs = []
        for a in (u, v):
            for cid, end in self.ports.pop(a):
                x = int(self.chains.pop(cid)[0 if end else -1])
                self.ports[x].remove((cid, 1 - end))
                if x != v and x not in nbrs:
                    nbrs.append(x)
        self._kill(np.array([u, v]))
        cu, cv = self.coord[u], self.coord[v]
        merged = ((cu[0] + cv[0]) / 2.0, (cu[1] + cv[1]) / 2.0)
        if self._occupied(merged):
            merged = (merged[0] + 1e-6, merged[1])
        m = self.merged_at.get(merged)  # the pixel graph adds edges to a node already there
        if m is None:
            m = len(self.xy) + len(self.merged)
            self.merged.append(merged)
            self.merged_at[merged] = m
            self.coord[m] = merged
            self.ports[m] = []
        for x in nbrs:
            cid = self._add(np.array([m, x]))
            self.ports[m].append((cid, 0))
            self.ports[x].append((cid, 1))
        for x in nbrs + [m]:
            if len(self.ports[x]) == 2:
                self._dissolve(x)

    def graph(self) -> SegmentGraph:
        """The graph in the order the module docstring states."""
        order = self._in_order(self.ports)
        index = {a: i for i, a in enumerate(order)}
        table = np.concatenate([self.xy, np.reshape(self.merged, (-1, 2))]).astype(float)

        def second(port):  # the point after the anchor on the port's chain
            nodes = self.chains[port[0]]
            return table[nodes[-2 if port[1] else 1]].tolist()

        segments, walked = [], set()
        for a in order:
            for cid, end in sorted(self.ports[a], key=second):
                if cid not in walked:
                    walked.add(cid)
                    nodes = self.chains[cid]
                    if end:
                        nodes = nodes[::-1]
                    segments.append(Segment(index[a], index[int(nodes[-1])], table[nodes]))
        cycles = []
        for cid in self.chains.keys() - walked:  # no anchor's chain: a pure cycle
            ring = self.chains[cid][:-1]
            pts = table[ring].tolist()
            i = min(range(len(ring)), key=pts.__getitem__)
            path = np.roll(ring, -i)
            if pts[i - 1] < pts[(i + 1) % len(ring)]:  # the smaller neighbour is behind
                path = np.roll(path[::-1], 1)
            cycles.append((pts[i], np.append(path, ring[i])))
        cycles.sort(key=lambda c: c[0])
        segments += [Segment(None, None, table[path]) for _, path in cycles]
        return SegmentGraph([self.coord[a] for a in order], segments, self)


def build_graph(skeleton: np.ndarray) -> SegmentGraph:
    """Segment graph of the skeleton's pixel graph: an edge per 8-neighbour
    pair, weighted by Euclidean distance, except each diagonal that closes
    a triangle. Every 3-clique of an 8-connected pixel graph lies in one 2x2
    block, where its diagonal is the unique longest edge, so a diagonal is
    left out exactly when a pixel beside both of its ends is set. A step's
    target is found by ``searchsorted`` over the sorted flat indices of the
    skeleton pixels, so no map-sized index image is made.

    The chains are traced over half-edges, an edge in one direction: the
    half-edge into a pixel of degree 2 points at the one out of it, and
    pointer jumping finds each half-edge's last one, into an anchor, and
    its distance to it, in log2 of the longest chain's length rounds. One
    of the two walks of each chain is kept. Half-edges that reach no
    anchor lie on pure cycles, each walked once."""
    sk = np.pad(np.asarray(skeleton, dtype=bool), 1)
    img, stride = sk.reshape(-1), sk.shape[1]  # padded (x, y) sits at x * stride + y
    pixels = np.flatnonzero(img)  # sorted, so in coordinate order
    xs, ys = np.divmod(pixels, stride)
    xy = np.stack([xs - 1, ys - 1], axis=1)
    right, up, down = img[pixels + stride], img[pixels + 1], img[pixels - 1]
    keep = np.stack([right, up, img[pixels + stride + 1] & ~(right | up),
                     img[pixels + stride - 1] & ~(right | down)], axis=1)
    src, k = np.divmod(np.flatnonzero(keep), len(_STEPS))
    steps = np.array([dx * stride + dy for dx, dy in _STEPS])
    dst = np.searchsorted(pixels, pixels[src] + steps[k])
    n = len(pixels)
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)

    # half-edge 2e runs along edge e from src to dst, 2e + 1 back
    tail, head = np.stack([src, dst], axis=1).reshape(-1), np.stack([dst, src], axis=1).reshape(-1)
    h = np.arange(len(tail))
    out = np.argsort(tail, kind="stable")  # half-edges by the pixel they leave
    first = np.cumsum(deg) - deg
    inner = deg[head] == 2
    a, b = out[first[head]], out[np.minimum(first[head] + 1, len(out) - 1)]
    nxt = np.where(inner, np.where(a == h ^ 1, b, a), h)
    last, dist = nxt, inner.astype(np.intp)
    for _ in range(len(h).bit_length()):
        if not inner[last].any():
            break
        dist = dist + dist[last]
        last = last[last]

    g = _Chains(xy, pixels, stride)
    anchors = np.flatnonzero(deg != 2)
    g.ports = {a: [] for a in anchors.tolist()}
    g.coord = dict(zip(anchors.tolist(), zip(*xy[anchors].T.tolist())))
    s = h[deg[tail] != 2]
    t = last[s]
    kept = s < (t ^ 1)  # of a chain's two walks, the one whose first half-edge is lower
    s, t = s[kept], t[kept]
    length = dist[s] + 1
    walk = np.full(len(h), -1)
    walk[t] = np.arange(len(s))
    w = walk[last]  # the kept walk a half-edge is on; -1 on the other or a cycle
    on = np.flatnonzero(w >= 0)
    ends = np.cumsum(length)
    seq = np.empty(len(on), dtype=np.intp)
    seq[ends[w[on]] - 1 - dist[on]] = on  # each walk's half-edges in walk order
    for nodes, end in zip(np.split(tail[seq], ends[:-1]), head[t].tolist()):
        cid = g._add(np.append(nodes, end))
        g.ports[int(nodes[0])].append((cid, 0))
        g.ports[end].append((cid, 1))

    loose = h[inner[last]]
    if len(loose):
        seen = np.zeros(len(h), dtype=bool)
        nxt = nxt.tolist()
        for h0 in loose.tolist():
            if not seen[h0]:
                ring = [h0]
                while nxt[ring[-1]] != h0:
                    ring.append(nxt[ring[-1]])
                ring = np.array(ring)
                seen[ring] = seen[ring ^ 1] = True
                g._add(np.append(tail[ring], tail[ring[0]]))
    return g.graph()


def clean_graph(g: SegmentGraph, tau_prune_px: float, w_lane_px: float) -> SegmentGraph:
    """Iterate spur pruning and junction contraction to a joint fixpoint on a
    copy of g's chains; g is left as it is. Only a graph that build_graph
    made has chains: one read from graph.json is refused."""
    if g._chains is None:
        raise ValueError("clean_graph needs the graph build_graph made, "
                         "not one read from graph.json")
    chains = g._chains.copy()
    while True:
        pruned = chains.prune_spurs(tau_prune_px)
        contracted = chains.contract_junctions(2.0 * w_lane_px)
        if not pruned and not contracted:
            return chains.graph()


OUTWARD_MIN_LEN = 3.0  # pixels from a leaf to the anchor of its outward direction


def _outward_direction(leaf, path):
    """Unit direction pointing out of the graph at a leaf, estimated from the
    last segment of at least OUTWARD_MIN_LEN pixels leading into it; ``path``
    is the leaf's segment walked from it."""
    anchor = next((p for p in path[1:] if math.dist(leaf, p) >= OUTWARD_MIN_LEN), path[-1])
    d = np.array(leaf, dtype=float) - anchor
    return unit(d, d)


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


def filter_endpoints(g: SegmentGraph, gmap: GlobalMap, params: TopologyParams,
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
    for leaf, path in g.leaf_paths():
        d = _outward_direction(leaf, path)
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


def _json_points(points):
    """Points as JSON lists, a coordinate that is a whole number as an int."""
    ints = points.astype(np.int64)
    if (ints == points).all():
        return ints.tolist()
    return [[int(v) if v.is_integer() else v for v in p] for p in points.tolist()]


def save_graph(g: SegmentGraph, valid_endpoints, path) -> str:
    """Write the graph and its valid endpoints as JSON; the file's sha256.
    The anchors, segments and valid endpoints go in the graph's order, which
    load_graph keeps, so the graph read back walks as g does."""
    obj = {
        "anchors": [{"id": i, "x": a[0], "y": a[1]} for i, a in enumerate(g.anchors)],
        "segments": [{"u": s.u, "v": s.v, "interior": _json_points(s.points[1:-1])}
                     for s in g.segments if s.u is not None],
        "cycles": [_json_points(s.points[:-1]) for s in g.segments if s.u is None],
        "valid_endpoints": [g._index[n] for n in valid_endpoints],
    }
    return save_json(obj, path)


def load_graph(path):
    return load_json_input(path, _graph_from_json)


def _graph_from_json(obj):
    if "anchors" not in obj:
        raise ValueError("no anchors: a per-pixel graph.json is not read; run voxsim topo again")
    anchor_id = at_least(0)
    ids, anchors = {}, []
    for a in obj["anchors"]:
        i = anchor_id.check("anchor id", a["id"])
        if i in ids:
            raise ValueError(f"repeated anchor id {i}")
        ids[i] = len(anchors)
        anchors.append((FINITE.check("anchor x", a["x"]), FINITE.check("anchor y", a["y"])))

    def anchor(i):
        # every key is an int that passed anchor_id, but True and 1.0 find id 1
        if type(i) is not int or i not in ids:
            raise ValueError(f"{i!r} is not an anchor id")
        return ids[i]

    table = np.reshape(np.asarray(anchors, dtype=float), (-1, 2))
    segments, edges = [], set()
    for s in obj["segments"]:
        u, v = anchor(s["u"]), anchor(s["v"])
        interior = finite_points("segment interior", s["interior"])
        if not len(interior):
            if u == v or frozenset((u, v)) in edges:
                raise ValueError(f"self-loop or repeated edge {s['u']}-{s['v']}")
            edges.add(frozenset((u, v)))
        segments.append(Segment(u, v, np.concatenate([table[[u]], interior, table[[v]]])))
    for c in obj["cycles"]:
        ring = finite_points("cycle", c, 3)
        segments.append(Segment(None, None, np.concatenate([ring, ring[:1]])))
    # every point once: a point in two places would join two chains
    pts = np.concatenate([table, *(s.points[1:-1] if s.u is not None else s.points[:-1]
                                   for s in segments)])
    pts = pts[np.lexsort(pts.T[::-1])]
    if (pts[1:] == pts[:-1]).all(axis=1).any():
        raise ValueError("a point of the graph given twice")
    g = SegmentGraph(anchors, segments)
    valid = [anchor(i) for i in obj["valid_endpoints"]]
    if len(set(valid)) != len(valid) or any(g._degree[i] != 1 for i in valid):
        raise ValueError("valid endpoints must be anchors of degree 1, each listed once")
    return g, [anchors[i] for i in valid]
