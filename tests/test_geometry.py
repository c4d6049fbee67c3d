import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsim.geometry import Pose2, Trajectory, load_trajectory, normalize_angle, save_trajectory

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


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        traj = Trajectory(((0.0, Pose2(1, 2, 0.3)), (1.0, Pose2(4, 5, -0.6))))
        path = tmp_path / "traj.json"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert len(back) == 2
        for (ta, pa), (tb, pb) in zip(traj.samples, back.samples):
            assert ta == tb
            assert (pa.x, pa.y, pa.yaw) == (pb.x, pb.y, pb.yaw)

    def test_monotonic_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(((1.0, Pose2()), (1.0, Pose2())))
