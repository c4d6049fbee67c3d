import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsim.geometry import Pose2, arc_length, normalize_angle, resample_polyline, unit

coords = st.floats(-1e3, 1e3, allow_nan=False)
poses = st.builds(Pose2, coords, coords, st.floats(-20.0, 20.0))


class TestPose2:
    @settings(max_examples=200, deadline=None)
    @given(poses, coords, coords)
    def test_inverse_round_trip(self, p, x, y):
        back = p.inverse().transform_point(p.transform_point([x, y]))
        scale = max(1.0, abs(p.x), abs(p.y), abs(x), abs(y))
        assert np.abs(back - [x, y]).max() <= 1e-9 * scale
        inv = p.inverse()
        assert -math.pi < inv.yaw <= math.pi
        assert abs(normalize_angle(inv.yaw + p.yaw)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(poses, st.lists(st.tuples(coords, coords), min_size=12, max_size=12),
           st.sampled_from([(12,), (3, 4), (2, 3, 2), (1, 12)]))
    def test_transform_point_stacks_transform_xy(self, p, pts, shape):
        # on arrays of any leading shape, and on one point, whose coordinates
        # transform_xy then takes as Python floats
        arr = np.array(pts).reshape(*shape, 2)
        assert np.array_equal(p.transform_point(arr),
                              np.stack(p.transform_xy(arr[..., 0], arr[..., 1]), axis=-1))
        x, y = pts[0]
        assert p.transform_point([x, y]).tolist() == list(p.transform_xy(x, y))

    def test_yaw_normalized(self):
        assert Pose2(0, 0, 3 * math.pi).yaw == pytest.approx(math.pi)
        assert -math.pi < Pose2(0, 0, -math.pi).yaw <= math.pi

    def test_transform_xy_broadcasts(self):
        p = Pose2(1.0, 2.0, 0.5)
        xs = np.array([[3.0], [0.0], [-2.5]])
        ys = np.array([-1.0, 4.0])
        wx, wy = p.transform_xy(xs, ys)
        assert wx.shape == wy.shape == (3, 2)
        pts = np.stack(np.broadcast_arrays(xs, ys), axis=-1)
        assert np.array_equal(np.stack([wx, wy], axis=-1), p.transform_point(pts))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pose2(float("nan"), 0, 0)

    def test_normalize_angle_range(self):
        for t in np.linspace(-20, 20, 101):
            w = normalize_angle(t)
            assert -math.pi < w <= math.pi
            assert abs(math.remainder(w - t, 2 * math.pi)) < 1e-9


class TestUnit:
    def test_zero_vector_gives_the_default_itself(self):
        default = object()
        assert unit(np.zeros(2), default) is default

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(coords, coords))
    def test_divides_by_a_nonzero_norm_bit_for_bit(self, v):
        # a norm can be 0 for a nonzero vector too: its square underflows
        v, default = np.array(v), object()
        n = np.linalg.norm(v)
        got = unit(v, default)
        if n == 0:
            assert got is default
        else:
            assert got.tobytes() == (v / n).tobytes()


@st.composite
def polylines(draw):
    """An (N, 2) polyline of 1 to 30 points at one of several scales, with
    repeated points (zero-length segments, so repeated arc lengths) drawn
    often."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = rng.uniform(-1.0, 1.0, size=(n - 1, 2)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    steps[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    start = rng.uniform(-500.0, 500.0, size=2)
    return np.concatenate([[start], start + np.cumsum(steps, axis=0)])


class TestPolyline:
    @settings(max_examples=200, deadline=None)
    @given(polylines())
    def test_arc_length_is_the_cumulative_row_norm(self, points):
        expect = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0),
                                                                 axis=1))])
        got = arc_length(points)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(polylines(), st.data())
    def test_resample_matches_stacked_interp(self, points, data):
        # scalar, 0-d and 1-D targets, before, inside and after the arc
        s = arc_length(points)
        at = st.floats(-5.0, float(s[-1]) + 5.0) | st.sampled_from(s.tolist())
        targets = data.draw(st.one_of(at, at.map(np.array),
                                      st.lists(at, max_size=12).map(np.array)))
        expect = np.stack([np.interp(targets, s, points[:, 0]),
                           np.interp(targets, s, points[:, 1])], axis=-1)
        got = resample_polyline(points, s, targets)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()
