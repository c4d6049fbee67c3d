import hashlib
import math

import numpy as np
import pytest

from voxsim.geometry import (Pose2, Trajectory, Twist, exp_twist, load_trajectory,
                             normalize_angle, random_mask, save_trajectory,
                             visibility_mask, warp_grid)


def rk4_exp_twist(tw, dt, steps=2000):
    """Reference: integrate the planar pose ODE with classic RK4."""
    def deriv(state):
        x, y, yaw = state
        c, s = math.cos(yaw), math.sin(yaw)
        return np.array([c * tw.vx - s * tw.vy, s * tw.vx + c * tw.vy, tw.omega])

    state = np.zeros(3)
    h = dt / steps
    for _ in range(steps):
        k1 = deriv(state)
        k2 = deriv(state + h / 2 * k1)
        k3 = deriv(state + h / 2 * k2)
        k4 = deriv(state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


class TestPose2:
    def test_compose_inverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = Pose2(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
            q = p.compose(p.inverse())
            assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.yaw) < 1e-12

    def test_yaw_normalized(self):
        assert Pose2(0, 0, 3 * math.pi).yaw == pytest.approx(math.pi)
        assert -math.pi < Pose2(0, 0, -math.pi).yaw <= math.pi

    def test_transform_point_matches_compose(self):
        p = Pose2(1.0, 2.0, 0.5)
        pt = p.transform_point([3.0, -1.0])
        q = p.compose(Pose2(3.0, -1.0, 0.0))
        assert np.allclose(pt, [q.x, q.y])

    def test_transform_xy_broadcasts(self):
        p = Pose2(1.0, 2.0, 0.5)
        xs = np.array([[3.0], [0.0], [-2.5]])
        ys = np.array([-1.0, 4.0])
        wx, wy = p.transform_xy(xs, ys)
        assert wx.shape == wy.shape == (3, 2)
        pts = np.stack(np.broadcast_arrays(xs, ys), axis=-1)
        assert np.array_equal(np.stack([wx, wy], axis=-1), p.transform_point(pts))
        q = p.compose(Pose2(3.0, -1.0, 0.25))
        assert p.transform_xy(3.0, -1.0) == (q.x, q.y)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pose2(float("nan"), 0, 0)

    def test_normalize_angle_range(self):
        for t in np.linspace(-20, 20, 101):
            w = normalize_angle(t)
            assert -math.pi < w <= math.pi
            assert abs(math.remainder(w - t, 2 * math.pi)) < 1e-9


class TestExpTwist:
    def test_against_rk4(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            tw = Twist(rng.uniform(-10, 10), rng.uniform(-10, 10),
                       rng.uniform(-math.pi, math.pi))
            dt = rng.uniform(0.01, 1.0)
            got = exp_twist(tw, dt)
            ref = rk4_exp_twist(tw, dt)
            assert abs(got.x - ref[0]) < 1e-6
            assert abs(got.y - ref[1]) < 1e-6
            assert abs(normalize_angle(got.yaw - ref[2])) < 1e-6

    def test_pure_translation(self):
        p = exp_twist(Twist(2.0, -1.0, 0.0), 0.5)
        assert (p.x, p.y, p.yaw) == (1.0, -0.5, 0.0)

    def test_small_angle_continuity(self):
        lo = exp_twist(Twist(1, 0, 9.9e-9), 1.0)
        hi = exp_twist(Twist(1, 0, 1.1e-8), 1.0)
        # the dropped coupling term is O(theta/2) at the threshold
        assert abs(lo.x - hi.x) < 2e-8 and abs(lo.y - hi.y) < 2e-8

    def test_quarter_turn(self):
        p = exp_twist(Twist(1.0, 0.0, math.pi / 2), 1.0)
        assert p.x == pytest.approx(2 / math.pi)
        assert p.y == pytest.approx(2 / math.pi)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            exp_twist(Twist(1, 0, 0), -0.1)


class TestWarpGrid:
    def test_rot90_matches_index_permutation(self):
        rng = np.random.default_rng(2)
        g = rng.random((64, 64)).astype(np.float32)
        c = 64 * 0.5 * 1.0
        T = Pose2(c, c, math.pi / 2).compose(Pose2(-c, -c, 0))
        w = warp_grid(g, T, 1.0, mode="nearest")
        assert np.array_equal(w, np.rot90(g, k=1))

    def test_identity_nearest(self):
        rng = np.random.default_rng(3)
        g = rng.integers(0, 7, size=(32, 48)).astype(np.uint8)
        assert np.array_equal(warp_grid(g, Pose2(), 0.4, mode="nearest"), g)

    def test_round_trip_translation_exact(self):
        rng = np.random.default_rng(4)
        g = rng.integers(0, 7, size=(40, 40)).astype(np.uint8)
        T = Pose2(5 * 0.4, -3 * 0.4, 0.0)  # voxel-multiple shift
        fwd = warp_grid(g, T, 0.4, mode="nearest")
        back = warp_grid(fwd, T.inverse(), 0.4, mode="nearest")
        vis = visibility_mask(T, 40, 40, 0.4)
        vis_back = warp_grid(vis.astype(np.uint8), T.inverse(), 0.4,
                             mode="nearest").astype(bool)
        assert vis_back.any()
        assert np.array_equal(back[vis_back], g[vis_back])

    def test_round_trip_rotation_exact(self):
        rng = np.random.default_rng(5)
        g = rng.integers(0, 7, size=(50, 50)).astype(np.uint8)
        c = 50 * 0.4 / 2
        T = Pose2(c, c, math.pi / 2).compose(Pose2(-c, -c, 0))
        back = warp_grid(warp_grid(g, T, 0.4, mode="nearest"),
                         T.inverse(), 0.4, mode="nearest")
        assert np.array_equal(back, g)

    def test_bilinear_identity(self):
        rng = np.random.default_rng(6)
        g = rng.random((20, 20))
        w = warp_grid(g, Pose2(), 1.0, mode="bilinear")
        assert np.allclose(w, g)

    def test_bilinear_halfcell_average(self):
        g = np.zeros((8, 8))
        g[4, 4] = 1.0
        w = warp_grid(g, Pose2(0.5, 0.0, 0.0), 1.0, mode="bilinear")
        assert w[4, 4] == pytest.approx(0.5)
        assert w[5, 4] == pytest.approx(0.5)

    # Warps under a rotated, translated transform, hashed: nearest and
    # bilinear, on 2-D and 3-D grids. The inverse rotation comes from
    # Pose2.transform_xy, so a change to it shows here bit for bit.
    def test_rotated_bytes_pinned(self):
        rng = np.random.default_rng(11)
        grids = (rng.integers(0, 7, size=(31, 23)).astype(np.uint8),
                 rng.random((31, 23, 3)))
        t = Pose2(0.37, -0.52, 0.61)
        h = hashlib.sha256()
        for mode in ("nearest", "bilinear"):
            for src in grids:
                h.update(warp_grid(src, t, 0.4, mode=mode).tobytes())
        assert h.hexdigest() == (
            "26fa31085c29e7c4bf0ae5626f6aab808dd9ff328a196a9fe05b7325e23eff39")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            warp_grid(np.ones((4, 4)), Pose2(), 1.0, mode="cubic")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            warp_grid(np.zeros((0, 4)), Pose2(), 1.0)


class TestMasks:
    def test_visibility_identity_all_ones(self):
        assert visibility_mask(Pose2(), 30, 20, 0.5).all()

    def test_visibility_disjoint_translation(self):
        m = visibility_mask(Pose2(30 * 0.5, 0, 0), 30, 20, 0.5)
        assert not m.any()

    def test_visibility_matches_per_cell_oracle(self):
        T = Pose2(1.3, -0.7, 0.4)
        vox = 0.5
        m = visibility_mask(T, 16, 12, vox)
        inv = T.inverse()
        for i in range(16):
            for j in range(12):
                src = inv.transform_point([(i + 0.5) * vox, (j + 0.5) * vox])
                expect = (0 <= src[0] / vox < 16) and (0 <= src[1] / vox < 12)
                assert m[i, j] == expect

    def test_visibility_rotated_bytes_pinned(self):
        mask = visibility_mask(Pose2(0.37, -0.52, 0.61), 31, 23, 0.4)
        assert hashlib.sha256(mask.tobytes()).hexdigest() == (
            "5136180788cafcddc2e0d6bfff94fbf136a54ffb673de23ba3b415b738fb58ee")

    def test_random_mask_reproducible(self):
        a = random_mask(100, 80, 0.3, seed=7)
        b = random_mask(100, 80, 0.3, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_mask(100, 80, 0.3, seed=8))

    def test_random_mask_fraction(self):
        # binomial 6-sigma band around 1-p for 200x200 cells
        for seed in range(5):
            m = random_mask(200, 200, 0.3, seed=seed)
            assert 0.66 <= m.mean() <= 0.74

    def test_random_mask_extremes(self):
        assert random_mask(10, 10, 0.0, 0).all()
        assert not random_mask(10, 10, 1.0, 0).any()
        with pytest.raises(ValueError):
            random_mask(10, 10, 1.5, 0)


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
