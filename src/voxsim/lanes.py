"""Vectorized lane extraction from cleaned skeleton segments.

Phase 1 smooths each long-enough segment with a cubic B-spline (one
evaluation for both coordinates), estimates every segment's road width from
the distances of its centerline cells to the road's border (one KD-tree over
the border cells and one query over all the centerlines' cells per map), and
offsets parallel candidates along the normals. Phase 2 cuts candidates where
they run closer than epsilon to another lane, found with one KD-tree over all
candidate samples, keeps the longest surviving run, re-splines it, and drops
anything shorter than five samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .geometry import arc_length, resample_polyline
from .occupancy import (POSITIVE, Settings, at_least, finite_points, load_json_input,
                        save_json, setting)


@dataclass
class LaneParams(Settings):
    w_lane: float = setting(3.6, POSITIVE)
    epsilon: float = setting(0.9, POSITIVE)        # conflict distance, meters
    ds_step: float = setting(0.5, POSITIVE)        # resampling step, meters
    # fit_centerline needs 10 points; a lane needs a sample to route on
    min_segment_pts: int = setting(10, at_least(10))
    min_lane_samples: int = setting(5, at_least(1))

    def __post_init__(self):
        super().__post_init__()
        if self.epsilon >= self.w_lane:
            raise ValueError("epsilon must be smaller than the lane width")


@dataclass
class Lane:
    points: np.ndarray                 # (N, 2) world meters
    source_segment: int = 0
    offset_index: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)


def fit_centerline(segment, ds_step: float, smooth: float = None) -> np.ndarray:
    """Least-squares cubic B-spline fit of a pixel path, resampled at ds_step.

    Endpoints are pinned to the input endpoints after smoothing so segment
    junctions stay coherent across the graph.
    """
    pts = np.asarray(segment, dtype=float)
    if len(pts) < 10:
        raise ValueError("centerline fit needs at least 10 points")
    # collapse duplicate consecutive points, splprep rejects them; the step
    # lengths are np.linalg.norm's bit for bit (see geometry.arc_length)
    step = pts[1:] - pts[:-1]
    step *= step
    moved = np.sqrt(step[:, 0] + step[:, 1]) > 1e-12
    if not moved.all():
        pts = pts[np.concatenate(([True], moved))]
    if smooth is None:
        smooth = len(pts) * 0.25  # absorbs ~half-cell rasterization noise
    u = arc_length(pts)
    if u[-1] <= 0:
        return pts[:1].copy()
    u /= u[-1]
    dense = np.linspace(0.0, 1.0, max(len(pts) * 4, 64))

    def fit(s):
        # with full_output splprep reports its error flag instead of warning
        # (ier 1-3: the smoothing target was missed, the fit is kept) or
        # raising (ier 10: bad input), so the warning filter cannot decide
        ((t, c, k), _), _, ier, msg = scipy.interpolate.splprep(
            [pts[:, 0], pts[:, 1]], u=u, k=3, s=s, full_output=1)
        if ier >= 10:
            raise ValueError(msg)
        # both coordinates in one de Boor pass, bit for bit splev's values
        return scipy.interpolate.BSpline.construct_fast(t, np.stack(c, axis=1), k)(dense)

    try:
        curve = fit(smooth)
    except ValueError:
        curve = fit(0)
    # FITPACK can report success for a smoothing spline that swings far off
    # its data (10^8 m from a 25 m zigzag path); interpolate the path then
    # (column by column: numpy's axis-0 reductions of a short (n, 2) array
    # cost more than the comparisons themselves)
    x, y, cx, cy = pts[:, 0], pts[:, 1], curve[:, 0], curve[:, 1]
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    reach = max(x1 - x0, y1 - y0)
    if not (((cx >= x0 - reach) & (cx <= x1 + reach)).all()
            and ((cy >= y0 - reach) & (cy <= y1 + reach)).all()):
        curve = fit(0)
    curve[0] = pts[0]
    curve[-1] = pts[-1]
    # uniform arc-length spacing close to ds_step, keeping both endpoints
    s = arc_length(curve)
    if s[-1] <= 0:
        return curve[:1].copy()
    n = max(int(round(s[-1] / ds_step)), 1)
    return resample_polyline(curve, s, np.linspace(0.0, s[-1], n + 1))


def normal_vectors(points: np.ndarray) -> np.ndarray:
    """Unit left normals via central differences (one-sided at the ends)."""
    t = np.gradient(points, axis=0)
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    t = t / norms
    return np.stack([-t[:, 1], t[:, 0]], axis=1)


def border_tree(road: np.ndarray) -> scipy.spatial.cKDTree:
    """KD-tree over the road's border cells: the off-road cells with a road
    4-neighbour. The nearest off-road cell to a road cell is always one of
    them, since one step from any farther off-road cell toward the road cell
    lands on a closer cell, itself off road unless the first was a border
    cell."""
    near = np.zeros_like(road)
    near[1:] |= road[:-1]
    near[:-1] |= road[1:]
    near[:, 1:] |= road[:, :-1]
    near[:, :-1] |= road[:, 1:]
    near &= ~road
    # argwhere's row-major cells, from the flat indices
    cells = np.stack(np.divmod(np.flatnonzero(near), road.shape[1]), axis=1)
    return scipy.spatial.cKDTree(cells)


def estimate_width(centers_px, road: np.ndarray, border: scipy.spatial.cKDTree,
                   voxel_size: float) -> list:
    """Road width in meters at each of a list of centerlines: twice the
    median distance from the road cells under it to their nearest off-road
    cell (``border`` is ``border_tree(road)``), all cells taken in one query.
    An off-road centerline cell reads 0, and a map without an off-road cell
    has width 0. Each distance is taken from its integer offset with the
    float steps of scipy's exact Euclidean distance transform, so it equals
    that dense map's value bit for bit; a tie may pick another border cell
    at the same distance."""
    if not (border.n and len(centers_px)):
        return [0.0] * len(centers_px)
    ix, iy = np.clip(np.floor(np.concatenate(centers_px)).astype(int),
                     0, [road.shape[0] - 1, road.shape[1] - 1]).T
    on = road[ix, iy]
    cell = np.stack([ix[on], iy[on]], axis=1)
    off = border.data[border.query(cell)[1]] - cell
    d = np.zeros(len(ix))
    d[on] = np.sqrt(np.add.reduce(off * off, axis=1))
    d *= voxel_size
    ends = np.cumsum([len(c) for c in centers_px])[:-1]
    return [2.0 * float(np.median(part)) for part in np.split(d, ends)]


def _on_mask(points_m: np.ndarray, mask: np.ndarray, gmap) -> np.ndarray:
    """Whether each world point lies in a True cell of ``mask``, a plane of
    ``gmap``'s cells (``cell_of``); points off the plane read False."""
    ix, iy = gmap.cell_of(points_m[:, 0], points_m[:, 1])
    ok = (ix >= 0) & (ix < mask.shape[0]) & (iy >= 0) & (iy < mask.shape[1])
    out = np.zeros(len(points_m), dtype=bool)
    out[ok] = mask[ix[ok], iy[ok]]
    return out


def offset_lanes(center: np.ndarray, seg_width: float, params: LaneParams,
                 drivable: np.ndarray, gmap, source_segment: int = 0):
    """Parallel lane candidates: n = floor(seg_width / w_lane) - 1 offsets at
    (i - (n-1)/2) * w_lane along the centerline normals. A candidate is kept
    only when its interior stays on the drivable mask, a plane of ``gmap``'s
    cells; n <= 0 degrades to the centerline alone."""
    n = int(math.floor(seg_width / params.w_lane + 1e-9)) - 1
    if n <= 0:
        return [Lane(center.copy(), source_segment, 0)]
    normals = normal_vectors(center)
    lanes = []
    for i in range(n):
        off = (i - (n - 1) / 2.0) * params.w_lane
        pts = center + off * normals
        interior = pts[1:-1] if len(pts) > 2 else pts
        if _on_mask(interior, drivable, gmap).all():
            lanes.append(Lane(pts, source_segment, i))
    return lanes


def _longest_run(mask: np.ndarray):
    """Start/stop (inclusive/exclusive) of the longest True run; the first
    one among equally long runs, (0, 0) when there is none."""
    step = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    if not len(starts):
        return 0, 0
    k = int(np.argmax(stops - starts))
    return int(starts[k]), int(stops[k])


def resolve_overlaps(candidates, params: LaneParams):
    """Cut every lane at samples lying closer than epsilon to any other
    lane, keep its longest contiguous run, re-spline it, and drop short
    remainders."""
    if not candidates:
        return []
    pts = np.concatenate([l.points for l in candidates])
    sizes = [len(l.points) for l in candidates]
    lane_of = np.repeat(np.arange(len(candidates)), sizes)
    a, b = scipy.spatial.cKDTree(pts).query_pairs(params.epsilon, output_type="ndarray").T
    d = pts[a] - pts[b]
    # query_pairs keeps pairs at exactly epsilon; the cut is strict
    close = (d * d).sum(axis=1) < params.epsilon * params.epsilon
    hit = close & (lane_of[a] != lane_of[b])
    conflict = np.zeros(len(pts), dtype=bool)
    conflict[a[hit]] = conflict[b[hit]] = True
    final = []
    for lane, cut in zip(candidates, np.split(conflict, np.cumsum(sizes)[:-1])):
        start, stop = _longest_run(~cut)
        kept = lane.points[start:stop]
        if len(kept) < params.min_lane_samples:
            continue
        if len(kept) >= 10:
            kept = fit_centerline(kept, params.ds_step, smooth=len(kept) * 0.01)
        if len(kept) < params.min_lane_samples:
            continue
        final.append(Lane(kept, lane.source_segment, lane.offset_index))
    return final


def extract_lanes(gmap, graph, params: LaneParams = None):
    """Alg-style two-phase extraction over all graph segments of a fused map.
    Lane points come out in world meters."""
    if params is None:
        params = LaneParams()
    vox = gmap.voxel_size
    road = gmap.labels[:, :, 0] == gmap.table.road_id
    border = border_tree(road)

    centers = [(seg_id, fit_centerline(seg.points, params.ds_step / vox))
               for seg_id, seg in enumerate(graph.segments)
               if len(seg.points) >= params.min_segment_pts]
    widths = estimate_width([c for _, c in centers], road, border, vox)
    candidates = []
    for (seg_id, center_px), seg_width in zip(centers, widths):
        center_m = np.stack(gmap.cell_center(*center_px.T), axis=1)
        candidates.extend(offset_lanes(center_m, seg_width, params, road, gmap,
                                       source_segment=seg_id))
    return resolve_overlaps(candidates, params)


def save_lanes(lanes, path) -> str:
    """Write the lanes as JSON; the file's sha256."""
    obj = [{"id": i, "points": l.points.tolist(), "offset_index": l.offset_index,
            "source_segment": l.source_segment} for i, l in enumerate(lanes)]
    return save_json(obj, path)


def load_lanes(path):
    """Read lanes written by ``save_lanes``: points that are finite numbers,
    and a source segment and offset index that are ints >= 0."""
    lane_id = at_least(0)
    return load_json_input(path, lambda obj: [
        Lane(finite_points("lane points", l["points"], 1),
             lane_id.check("source_segment", l["source_segment"]),
             lane_id.check("offset_index", l["offset_index"]))
        for l in obj])
