"""Vectorized lane extraction from cleaned skeleton segments.

Phase 1 smooths each long-enough segment with a cubic B-spline, estimates the
local road width from the distances of its centerline cells to the road's
border (one KD-tree over the border cells per map), and offsets parallel
candidates along the normals. Phase 2 cuts candidates where they run closer
than epsilon to another lane, found with one KD-tree over all candidate
samples, keeps the longest surviving run, re-splines it, and drops anything
shorter than five samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .geometry import arc_length, resample_polyline
from .occupancy import (POSITIVE, Settings, at_least, finite_points, load_json_input,
                        save_json, setting)
from .topology import graph_segments


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
    # collapse duplicate consecutive points, splprep rejects them
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-12
    pts = pts[keep]
    if smooth is None:
        smooth = len(pts) * 0.25  # absorbs ~half-cell rasterization noise
    u = arc_length(pts)
    if u[-1] <= 0:
        return pts[:1].copy()
    u /= u[-1]
    dense = np.linspace(0.0, 1.0, max(len(pts) * 4, 64))

    def fit(s):
        (tck, _) = scipy.interpolate.splprep([pts[:, 0], pts[:, 1]], u=u, k=3, s=s)
        return np.stack(scipy.interpolate.splev(dense, tck), axis=1)

    try:
        curve = fit(smooth)
    except Exception:
        curve = fit(0)
    # FITPACK can report success for a smoothing spline that swings far off
    # its data (10^8 m from a 25 m zigzag path); interpolate the path then
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    reach = (hi - lo).max()
    if not ((curve >= lo - reach) & (curve <= hi + reach)).all():
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
    return scipy.spatial.cKDTree(np.argwhere(near))


def estimate_width(center_px: np.ndarray, road: np.ndarray, border: scipy.spatial.cKDTree,
                   voxel_size: float) -> float:
    """Road width in meters at a centerline: twice the median distance from
    the road cells under it to their nearest off-road cell (``border`` is
    ``border_tree(road)``). An off-road centerline cell reads 0, and a map
    without an off-road cell has width 0. Each distance is taken from its
    integer offset with the float steps of scipy's exact Euclidean distance
    transform, so it equals that dense map's value bit for bit; a tie may
    pick another border cell at the same distance."""
    if not border.n:
        return 0.0
    ix, iy = np.clip(np.floor(center_px).astype(int),
                     0, [road.shape[0] - 1, road.shape[1] - 1]).T
    on = road[ix, iy]
    cell = np.stack([ix[on], iy[on]], axis=1)
    off = border.data[border.query(cell)[1]] - cell
    d = np.zeros(len(ix))
    d[on] = np.sqrt(np.add.reduce(off * off, axis=1))
    return 2.0 * float(np.median(d * voxel_size))


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

    candidates = []
    for seg_id, seg in enumerate(graph_segments(graph)):
        if len(seg) < params.min_segment_pts:
            continue
        seg_px = np.asarray(seg, dtype=float)
        center_px = fit_centerline(seg_px, params.ds_step / vox)
        seg_width = estimate_width(center_px, road, border, vox)
        center_m = np.stack(gmap.cell_center(*center_px.T), axis=1)
        cands = offset_lanes(center_m, seg_width, params, road, gmap,
                             source_segment=seg_id)
        candidates.extend(cands)
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
