import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import interpolate, ndimage
from scipy.spatial import cKDTree

from voxsim.lanes import (Lane, LaneParams, _longest_run, border_tree,
                          estimate_width, extract_lanes, fit_centerline,
                          load_lanes, normal_vectors, offset_lanes,
                          resolve_overlaps, save_lanes)
from voxsim.geometry import arc_length, resample_polyline
from voxsim.synthworld import WorldSpec, generate_world
from voxsim.topology import extract_topology

from conftest import assert_pinned, make_map


def reference_longest_run(mask):
    """Reference: a loop over the mask; the first of equal runs wins."""
    best = (0, 0)
    start = None
    for i, v in enumerate(mask):
        if v and start is None:
            start = i
        if (not v or i == len(mask) - 1) and start is not None:
            stop = i + 1 if v else i
            if stop - start > best[1] - best[0]:
                best = (start, stop)
            start = None
    return best


def reference_estimate_width(center_px, road, voxel_size):
    """Twice the median of the dense distance map (meters) of
    ``distance_transform_edt`` read under the centerline: the reference for
    estimate_width's border distances. A map without an off-road cell has
    no distance to measure and reads 0."""
    if road.all():
        return 0.0
    dist_m = ndimage.distance_transform_edt(road) * voxel_size
    idx = np.clip(np.floor(center_px).astype(int),
                  0, [dist_m.shape[0] - 1, dist_m.shape[1] - 1])
    return 2.0 * float(np.median(dist_m[idx[:, 0], idx[:, 1]]))


def reference_fit_centerline(segment, ds_step, smooth=None):
    """Reference: the centerline fit with FITPACK's splev, one call per
    coordinate, and splprep's warnings ignored (a missed smoothing target
    keeps the fit, an input error falls back to the interpolating spline)."""
    pts = np.asarray(segment, dtype=float)
    if len(pts) < 10:
        raise ValueError("centerline fit needs at least 10 points")
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-12
    pts = pts[keep]
    if smooth is None:
        smooth = len(pts) * 0.25
    u = arc_length(pts)
    if u[-1] <= 0:
        return pts[:1].copy()
    u /= u[-1]
    dense = np.linspace(0.0, 1.0, max(len(pts) * 4, 64))

    def fit(s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            (tck, _) = interpolate.splprep([pts[:, 0], pts[:, 1]], u=u, k=3, s=s)
        return np.stack(interpolate.splev(dense, tck), axis=1)

    try:
        curve = fit(smooth)
    except Exception:
        curve = fit(0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    reach = (hi - lo).max()
    if not ((curve >= lo - reach) & (curve <= hi + reach)).all():
        curve = fit(0)
    curve[0] = pts[0]
    curve[-1] = pts[-1]
    s = arc_length(curve)
    if s[-1] <= 0:
        return curve[:1].copy()
    n = max(int(round(s[-1] / ds_step)), 1)
    return resample_polyline(curve, s, np.linspace(0.0, s[-1], n + 1))


def reference_segment_widths(centers_px, road, border, voxel_size):
    """Reference: one border query per centerline, the width loop of a
    per-segment extraction."""
    widths = []
    for center_px in centers_px:
        if not border.n:
            widths.append(0.0)
            continue
        ix, iy = np.clip(np.floor(center_px).astype(int),
                         0, [road.shape[0] - 1, road.shape[1] - 1]).T
        on = road[ix, iy]
        cell = np.stack([ix[on], iy[on]], axis=1)
        off = border.data[border.query(cell)[1]] - cell
        d = np.zeros(len(ix))
        d[on] = np.sqrt(np.add.reduce(off * off, axis=1))
        widths.append(2.0 * float(np.median(d * voxel_size)))
    return widths


def reference_resolve_overlaps(candidates, params):
    """Reference: one KD-tree per lane, each lane queried against every other
    lane's tree (a sample exactly epsilon away is not a conflict)."""
    if not candidates:
        return []
    trees = [cKDTree(l.points) for l in candidates]
    final = []
    for i, lane in enumerate(candidates):
        conflict = np.zeros(len(lane.points), dtype=bool)
        for j, tree in enumerate(trees):
            if j == i:
                continue
            d, _ = tree.query(lane.points, distance_upper_bound=params.epsilon)
            conflict |= np.isfinite(d)
        start, stop = reference_longest_run(~conflict)
        kept = lane.points[start:stop]
        if len(kept) < params.min_lane_samples:
            continue
        if len(kept) >= 10:
            kept = fit_centerline(kept, params.ds_step, smooth=len(kept) * 0.01)
        if len(kept) < params.min_lane_samples:
            continue
        final.append(Lane(kept, lane.source_segment, lane.offset_index))
    return final


@st.composite
def lane_sets(draw):
    """Monotone lanes on a grid of pitch `step`: samples of two lanes are
    often exactly epsilon apart (pitch 0.5 or 1.0) or within rounding of it
    (pitch 0.9); some lanes coincide with another."""
    step = draw(st.sampled_from([0.5, 0.9, 1.0]))
    lanes = []
    for k in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 30))
        x0, y0 = draw(st.integers(-10, 10)), draw(st.integers(-10, 10))
        dy = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
        along = np.arange(n) + x0
        across = np.concatenate([[0], np.cumsum(dy)]) + y0
        pts = np.stack([along, across] if draw(st.booleans()) else [across, along], axis=1)
        lanes.append(Lane(pts * step, k, draw(st.integers(0, 2))))
    if draw(st.booleans()):
        lanes.append(Lane(lanes[0].points.copy(), len(lanes), 0))
    params = LaneParams(epsilon=draw(st.sampled_from([0.5, 0.9, 1.0])),
                        min_lane_samples=draw(st.integers(1, 6)))
    return lanes, params


@st.composite
def fit_paths(draw):
    """Paths of at least 10 points for the centerline fit: random walks,
    integer zigzags, arcs (on or off the cell lattice) and noisy straight
    lines, some with repeated points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.one_of(st.just(10), st.integers(10, 300)))
    kind = draw(st.sampled_from(["walk", "zigzag", "arc", "line"]))
    if kind == "walk":
        step = draw(st.sampled_from([0.4, 1.0, 2.5]))
        pts = np.cumsum(rng.integers(-1, 2, (n, 2)), axis=0) * step
    elif kind == "zigzag":
        period = draw(st.integers(1, 6))
        i = np.arange(n)
        pts = np.stack([i, np.abs(i % (2 * period) - period)], axis=1).astype(float)
    elif kind == "arc":
        t = np.linspace(0.0, draw(st.floats(0.2, 6.0)), n)
        pts = draw(st.floats(3.0, 80.0)) * np.stack([np.cos(t), np.sin(t)], axis=1)
        if draw(st.booleans()):
            pts = np.floor(pts)
    else:
        pts = np.stack([np.arange(n) * draw(st.sampled_from([0.5, 1.0])),
                        rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 1.0])), n)], axis=1)
    if draw(st.booleans()):
        pts = pts[:, ::-1]
    if draw(st.booleans()):
        pts = np.repeat(pts, rng.integers(1, 3, len(pts)), axis=0)
    smooth = draw(st.sampled_from([None, 0.01, 0.0]))
    return pts, (smooth * len(pts) if smooth else smooth)


def _outcome(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except Exception as e:
        return type(e)


class TestCenterlineFit:
    def test_straight_line_preserved(self):
        pts = np.stack([np.arange(0, 30, 1.0), np.full(30, 5.0)], axis=1)
        out = fit_centerline(pts, ds_step=0.5)
        assert np.allclose(out[:, 1], 5.0, atol=1e-6)
        assert np.allclose(out[0], [0.0, 5.0])
        assert np.allclose(out[-1], [29.0, 5.0])
        steps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert np.allclose(steps, steps[0], atol=0.05)

    def test_endpoints_pinned(self):
        rng = np.random.default_rng(0)
        pts = np.stack([np.arange(0, 20, 1.0),
                        np.sin(np.arange(0, 20, 1.0)) + rng.normal(0, 0.1, 20)],
                       axis=1)
        out = fit_centerline(pts, ds_step=0.5)
        assert np.allclose(out[0], pts[0])
        assert np.allclose(out[-1], pts[-1])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_centerline(np.zeros((5, 2)), 0.5)

    def test_a_wild_smoothing_spline_falls_back_to_interpolation(self):
        # resolve_overlaps' re-spline of this zigzag lane (s = 0.28): FITPACK
        # reports success for a spline that reaches 2.8e8 m, and resampling
        # its 1e9 m length at 0.5 m asked for 12 GiB. The coarse step keeps
        # the wild curve's resample small.
        xs = [0, 0, 0, -1, 0, 1, 0, 1, 0, 1, 2, 3, 4, 3, 4, 3, 3, 2, 3, 2, 2, 2, 3, 2, 3, 3, 4, 5]
        pts = np.stack([xs, np.arange(len(xs))], axis=1) * 0.9
        for ds_step in (1e7, 0.5):
            out = fit_centerline(pts, ds_step, smooth=len(pts) * 0.01)
            assert ((out >= pts.min(axis=0) - 1.0) & (out <= pts.max(axis=0) + 1.0)).all()

    @settings(max_examples=300, deadline=None)
    @given(fit_paths(), st.sampled_from([0.5, 1.25]))
    def test_matches_the_splev_reference_bit_for_bit(self, path, ds_step):
        pts, smooth = path
        got = _outcome(fit_centerline, pts, ds_step, smooth=smooth)
        ref = _outcome(reference_fit_centerline, pts, ds_step, smooth=smooth)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_a_missed_smoothing_target_keeps_the_fit_under_any_warning_filter(self):
        # a random walk on which splprep misses resolve_overlaps' smoothing
        # target, s = 0.01 n (ier 1-3, a RuntimeWarning unless full_output):
        # the lane once kept that fit under the default warning filter and
        # took the interpolating spline where RuntimeWarning is an error
        rng = np.random.default_rng(242)
        m = int(rng.integers(10, 130))
        pts = np.cumsum(rng.integers(-1, 2, (m, 2)), axis=0) * round(rng.uniform(0.1, 5), 2)
        walk = pts[np.concatenate(([True], (np.diff(pts, axis=0) != 0).any(axis=1)))]
        u = arc_length(walk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            interpolate.splprep([walk[:, 0], walk[:, 1]], u=u / u[-1], k=3, s=0.01 * m)
        assert [w.category for w in caught] == [RuntimeWarning]
        lanes = {}
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                lanes[action] = resolve_overlaps([Lane(pts, 0, 0)], LaneParams())
        assert np.array_equal(lanes["error"][0].points, lanes["ignore"][0].points)
        assert np.array_equal(lanes["error"][0].points,
                              reference_fit_centerline(pts, 0.5, smooth=0.01 * m))

    def test_arc_resample_spacing(self):
        pts = np.stack([np.linspace(0, 10, 11), np.zeros(11)], axis=1)
        out = fit_centerline(pts, 0.5)
        assert len(out) == 21
        assert np.allclose(out[:, 0], np.linspace(0, 10, 21))


class TestNormalsAndWidth:
    def test_normals_perpendicular_unit(self):
        t = np.linspace(0, np.pi, 50)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1) * 10
        n = normal_vectors(pts)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
        tang = np.gradient(pts, axis=0)
        dots = (n * tang).sum(axis=1)
        assert np.abs(dots).max() < 1e-9

    def test_strip_width_estimate(self, table):
        plane = np.zeros((100, 60), dtype=np.uint8)
        plane[:, 20:47] = table.road_id  # 27 px = 10.8 m
        mask = plane == table.road_id
        center = np.stack([np.arange(10, 90, 1.0), np.full(80, 33.0)], axis=1)
        [w] = estimate_width([center], mask, border_tree(mask), 0.4)
        assert w == pytest.approx(10.8, abs=0.9)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_width_matches_dense_distance_reference(self, data):
        nx, ny = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mask = rng.random((nx, ny)) < data.draw(st.sampled_from([0.0, 0.3, 0.8, 0.97, 1.0]))
        vox = data.draw(st.sampled_from([0.25, 0.4, 0.7]))
        center = rng.uniform(-3.0, max(nx, ny) + 3.0, size=(data.draw(st.integers(1, 60)), 2))
        assert (estimate_width([center], mask, border_tree(mask), vox)
                == [reference_estimate_width(center, mask, vox)])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_query_matches_a_query_per_centerline(self, data):
        # maps with off-road cells under the centerlines, and all-road maps
        # (fill 1.0) with no off-road cell at all
        nx, ny = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mask = rng.random((nx, ny)) < data.draw(st.sampled_from([0.0, 0.3, 0.8, 0.97, 1.0]))
        vox = data.draw(st.sampled_from([0.25, 0.4, 0.7]))
        centers = [rng.uniform(-3.0, max(nx, ny) + 3.0, size=(k, 2))
                   for k in data.draw(st.lists(st.integers(1, 40), max_size=6))]
        border = border_tree(mask)
        assert (estimate_width(centers, mask, border, vox)
                == reference_segment_widths(centers, mask, border, vox))

    def test_road_on_the_map_edge(self):
        # the road runs along y = 0 and across the map in x: the edge is not
        # off road, so the distance is to the first off-road row, y = 10
        mask = np.zeros((30, 20), dtype=bool)
        mask[:, :10] = True
        center = np.stack([np.arange(0.5, 30.0), np.full(30, 2.5)], axis=1)
        [w] = estimate_width([center], mask, border_tree(mask), 0.4)
        assert w == 2.0 * 8 * 0.4
        assert w == reference_estimate_width(center, mask, 0.4)

    def test_off_road_and_clipped_cells(self):
        # a 4-cell strip y in [3, 6] across the map; cells off the map clip
        # to its edge, and an off-road cell reads 0
        mask = np.zeros((10, 10), dtype=bool)
        mask[:, 3:7] = True
        center = np.array([[5.5, 4.5],     # (5, 4): 2 cells to y = 2
                           [-3.0, 4.2],    # clips to (0, 4): 2
                           [12.0, 5.9],    # clips to (9, 5): 2 to y = 7
                           [5.0, 0.5],     # (5, 0): off road, 0
                           [5.0, 20.0]])   # clips to (5, 9): off road, 0
        [w] = estimate_width([center], mask, border_tree(mask), 0.5)
        assert w == 2.0 * 2 * 0.5
        assert w == reference_estimate_width(center, mask, 0.5)
        assert estimate_width([center[3:]], mask, border_tree(mask), 0.5) == [0.0]

    def test_all_road_map_reads_zero_and_keeps_the_centerline(self, table):
        # no off-road cell: no border, width 0, and offset_lanes keeps the
        # centerline as the one lane
        mask = np.ones((12, 8), dtype=bool)
        border = border_tree(mask)
        assert border.n == 0
        center = np.stack([np.arange(0.5, 12.0), np.full(12, 4.0)], axis=1)
        assert estimate_width([center], mask, border, 0.4) == [0.0]
        lanes = offset_lanes(center * 0.4, 0.0, LaneParams(), mask,
                             make_map(mask, table))
        assert len(lanes) == 1
        assert np.array_equal(lanes[0].points, center * 0.4)

    def test_border_cells_are_off_road_beside_the_road(self):
        rng = np.random.default_rng(3)
        mask = rng.random((25, 17)) < 0.5
        cells = {tuple(c) for c in border_tree(mask).data.astype(int).tolist()}
        expect = {(x, y) for x in range(25) for y in range(17) if not mask[x, y]
                  and any(0 <= x + dx < 25 and 0 <= y + dy < 17 and mask[x + dx, y + dy]
                          for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))}
        assert cells == expect


class TestOffsets:
    def _strip_mask(self, width_px=27, size=(100, 60), y0=20):
        mask = np.zeros(size, dtype=bool)
        mask[:, y0:y0 + width_px] = True
        return mask

    def test_offset_count_and_positions(self, table):
        mask = self._strip_mask()
        center = np.stack([np.arange(4, 36, 0.5),
                           np.full(64, (20 + 13.5) * 0.4)], axis=1)
        lanes = offset_lanes(center, 10.8, LaneParams(), mask, make_map(mask, table))
        # floor(10.8 / 3.6) - 1 = 2 offsets at -1.8 and +1.8
        assert len(lanes) == 2
        ys = sorted(float(np.median(l.points[:, 1])) for l in lanes)
        yc = (20 + 13.5) * 0.4
        assert ys[0] == pytest.approx(yc - 1.8, abs=1e-6)
        assert ys[1] == pytest.approx(yc + 1.8, abs=1e-6)

    def test_narrow_road_degrades_to_centerline(self, table):
        mask = self._strip_mask(width_px=12)
        center = np.stack([np.arange(4, 36, 0.5), np.full(64, 10.4)], axis=1)
        lanes = offset_lanes(center, 4.8, LaneParams(), mask, make_map(mask, table))
        assert len(lanes) == 1
        assert np.allclose(lanes[0].points, center)

    def test_candidate_off_mask_dropped(self, table):
        mask = self._strip_mask(width_px=27)
        mask[:, 38:] = False  # narrowing removes the upper lane's room
        center = np.stack([np.arange(4, 36, 0.5),
                           np.full(64, (20 + 13.5) * 0.4)], axis=1)
        lanes = offset_lanes(center, 10.8, LaneParams(), mask, make_map(mask, table))
        assert len(lanes) == 1
        assert float(np.median(lanes[0].points[:, 1])) < (20 + 13.5) * 0.4


class TestOverlapResolution:
    def test_crossing_lanes_hand_computed_cut(self):
        # lane A along y=0 for x in [0, 24]; lane B along x=12, y in [-10, 10]
        ax = np.arange(0.0, 24.0 + 0.25, 0.5)
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        by = np.arange(-10.0, 10.0 + 0.25, 0.5)
        b = Lane(np.stack([np.full_like(by, 12.0), by], axis=1), 1, 0)
        out = resolve_overlaps([a, b], LaneParams())
        assert len(out) == 2
        out_a = next(l for l in out if l.source_segment == 0)
        out_b = next(l for l in out if l.source_segment == 1)
        # A's conflicts: |x - 12| < 0.9 -> samples 11.5..12.5 cut; the longest
        # run is x in [0, 11.0]; B symmetric with runs of equal length keeps
        # the first, y in [-10, -1.0]
        assert out_a.points[:, 0].min() == pytest.approx(0.0, abs=1e-6)
        assert out_a.points[:, 0].max() == pytest.approx(11.0, abs=1e-6)
        assert out_b.points[:, 1].min() == pytest.approx(-10.0, abs=1e-6)
        assert out_b.points[:, 1].max() == pytest.approx(-1.0, abs=1e-6)

    def test_short_remainder_dropped(self):
        ax = np.arange(0.0, 3.0, 0.5)  # 6 samples
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        # b sits on top of a's middle, leaving runs under 5 samples
        b = Lane(np.array([[1.0, 0.0], [1.5, 0.0], [2.0, 0.0]]), 1, 0)
        out = resolve_overlaps([a, b], LaneParams())
        assert all(l.source_segment != 0 for l in out)

    def test_disjoint_lanes_untouched(self):
        ax = np.arange(0.0, 10.0, 0.5)
        a = Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 0, 0)
        b = Lane(np.stack([ax, np.full_like(ax, 50.0)], axis=1), 1, 0)
        out = resolve_overlaps([a, b], LaneParams())
        assert len(out) == 2
        got_a = next(l for l in out if l.source_segment == 0)
        assert got_a.points[0] == pytest.approx([0.0, 0.0])
        assert got_a.points[-1] == pytest.approx([9.5, 0.0])

    def test_samples_exactly_epsilon_apart_are_not_cut(self):
        # nearest samples (0, 0) and (0.9, 0): 0.9 m is not closer than epsilon
        a = Lane(np.stack([np.linspace(-20.0, 0.0, 41), np.zeros(41)], axis=1), 0, 0)
        b = Lane(np.stack([np.linspace(0.9, 20.9, 41), np.zeros(41)], axis=1), 1, 0)
        out = resolve_overlaps([a, b], LaneParams(epsilon=0.9))
        assert [l.source_segment for l in out] == [0, 1]
        assert out[0].points[-1] == pytest.approx([0.0, 0.0])
        assert out[1].points[0] == pytest.approx([0.9, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(lane_sets())
    def test_matches_reference(self, case):
        lanes, params = case
        got, ref = resolve_overlaps(lanes, params), reference_resolve_overlaps(lanes, params)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.array_equal(g.points, r.points)
            assert (g.source_segment, g.offset_index) == (r.source_segment, r.offset_index)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=40))
    def test_longest_run_matches_reference(self, mask):
        assert _longest_run(np.array(mask, dtype=bool)) == reference_longest_run(mask)


class TestExtractLanes:
    def test_two_lane_strip(self, table):
        plane = np.full((150, 80), 4, dtype=np.uint8)
        plane[:, 26:53] = table.road_id  # 27 px = 10.8 m strip
        gmap = make_map(plane, table)
        g, _ = extract_topology(gmap)
        lanes = extract_lanes(gmap, g)
        assert len(lanes) == 2
        road = gmap.labels[:, :, 0] == table.road_id
        for lane in lanes:
            assert len(lane.points) >= 5
            idx = np.floor(lane.points / 0.4).astype(int)
            assert road[idx[:, 0], idx[:, 1]].all()
        ys = sorted(float(np.median(l.points[:, 1])) for l in lanes)
        assert ys[1] - ys[0] == pytest.approx(3.6, abs=0.2)

    # Lane points of a plus world, hashed: they follow the cell centres of
    # GlobalMap.cell_center and the segment order of the cleaned graph,
    # which the order rule of topology.py fixes.
    def test_plus_world_bytes_pinned(self):
        world = generate_world(WorldSpec(recipe="plus", extent=80.0, road_width=10.8))
        g, _ = extract_topology(world)
        lanes = extract_lanes(world, g)
        assert len(lanes) == 8
        assert_pinned("lanes/plus-world", [lane.points for lane in lanes])

    # Phase A of bench/'s city-sim world, the 600 m 5x5-block city: the
    # sorted valid endpoints and every lane's points, the bytes of city-sim's
    # phase_a_digest. Segment order sets lane order, so this pins the order
    # rule of topology.py at the scale the benchmark measures.
    def test_city_world_bytes_pinned(self):
        world = generate_world(WorldSpec(recipe="grid", extent=600.0, blocks=(5, 5)))
        g, valid = extract_topology(world)
        lanes = extract_lanes(world, g)
        assert_pinned("lanes/city-5x5", [json.dumps(sorted(map(list, valid))).encode(),
                                         *(lane.points for lane in lanes)])

    def test_peak_memory_scales_with_the_road_plane(self):
        # 3x3 grid at 400 m (10^6 ground cells): a dense float64 distance
        # map and its transients peaked at 34 bytes a cell, a full feature
        # transform sampled under the centerlines at 11, and the border
        # KD-tree peaks at 3 (the road mask, the border mask and ~road)
        world = generate_world(WorldSpec(recipe="grid", extent=400.0, blocks=(3, 3)))
        g, _ = extract_topology(world)
        cells = world.dims[0] * world.dims[1]
        tracemalloc.start()
        try:
            lanes = extract_lanes(world, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lanes) > 0
        assert peak < 5 * cells, peak / cells

    def test_save_load_round_trip(self, tmp_path):
        ax = np.arange(0.0, 10.0, 0.5)
        lanes = [Lane(np.stack([ax, np.zeros_like(ax)], axis=1), 2, 1)]
        path = tmp_path / "lanes.json"
        save_lanes(lanes, path)
        back = load_lanes(path)
        assert len(back) == 1
        assert np.allclose(back[0].points, lanes[0].points)
        assert back[0].source_segment == 2
        assert back[0].offset_index == 1

    def test_epsilon_must_undershoot_lane_width(self):
        with pytest.raises(ValueError):
            LaneParams(epsilon=4.0)
