import math

import numpy as np
import pytest

from voxsim.metrics import (fid, gaussian_kernel, kid, miou, mmd,
                            pairwise_diversity, polynomial_kernel,
                            read_features, vendi, write_features)
from voxsim.geometry import Pose2
from voxsim.occupancy import OccupancyGrid, default_table

from conftest import swapped_table


def naive_mmd(x, y, kernel_fn):
    """Double-sum re-implementation of the unbiased MMD^2 U-statistic."""
    m, n = len(x), len(y)
    sxx = sum(kernel_fn(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    syy = sum(kernel_fn(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    sxy = sum(kernel_fn(x[i], y[j]) for i in range(m) for j in range(n))
    return sxx / (m * (m - 1)) + syy / (n * (n - 1)) - 2 * sxy / (m * n)


class TestMiou:
    def test_identical_grids(self):
        a = np.array([[[1, 2], [2, 1]]])
        per, mean = miou(a, a, [1, 2, 3])
        assert per[1] == 1.0 and per[2] == 1.0
        assert per[3] is None  # absent from both, excluded
        assert mean == 1.0

    def test_disjoint_grids(self):
        a = np.full((2, 2, 1), 1)
        b = np.full((2, 2, 1), 2)
        _, mean = miou(a, b, [1, 2])
        assert mean == 0.0

    def test_half_overlap(self):
        a = np.array([[[1, 1, 2, 2]]])
        b = np.array([[[1, 2, 2, 2]]])
        per, _ = miou(a, b, [1, 2])
        assert per[1] == pytest.approx(0.5)
        assert per[2] == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            miou(np.zeros((2, 2, 1)), np.zeros((3, 2, 1)), [1])

    def test_table_mismatch(self):
        # the same label values read road and sidewalk the other way round
        labels = np.ones((2, 2, 1), dtype=np.uint8)
        a, b = (OccupancyGrid(labels, 0.4, Pose2(), t)
                for t in (default_table(), swapped_table()))
        assert miou(a, OccupancyGrid(labels, 0.4, Pose2()), [1])[1] == 1.0
        with pytest.raises(ValueError, match="semantic table"):
            miou(a, b, [1])


class TestDiversity:
    def test_identical_rollouts_zero(self):
        frame = np.random.default_rng(0).integers(1, 4, size=(4, 4, 2))
        rollouts = [[frame, frame], [frame.copy(), frame.copy()]]
        d_t, d_mean = pairwise_diversity(rollouts, [1, 2, 3])
        assert d_t == [0.0, 0.0]
        assert d_mean == 0.0

    def test_disjoint_rollouts_one(self):
        r1 = [np.full((3, 3, 1), 1)] * 2
        r2 = [np.full((3, 3, 1), 2)] * 2
        d_t, d_mean = pairwise_diversity([r1, r2], [1, 2])
        assert d_t == [1.0, 1.0]
        assert d_mean == 1.0

    def test_needs_two_rollouts(self):
        with pytest.raises(ValueError):
            pairwise_diversity([[np.zeros((2, 2, 1))]], [0])

    @pytest.mark.parametrize("lengths", [(1, 2), (2, 1), (2, 2, 1), (0, 0)])
    def test_refuses_rollouts_of_other_lengths(self, lengths):
        frame = np.zeros((2, 2, 1))
        expected = ", ".join(map(str, lengths))
        with pytest.raises(ValueError, match=rf"lengths \[{expected}\]"):
            pairwise_diversity([[frame] * k for k in lengths], [0])


class TestVendi:
    def test_identical_vectors_one(self):
        x = np.tile([0.3, 0.7, 1.1], (8, 1))
        assert vendi(x) == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_pair_two(self):
        x = np.array([[2.0, 0.0], [-2.0, 0.0]])
        assert vendi(x) == pytest.approx(2.0, abs=1e-9)

    def test_bounded_by_count(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 6))
        v = vendi(x)
        assert 1.0 <= v <= 12.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            vendi(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestMmd:
    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m, n, d = rng.integers(3, 9, size=3)
            x = rng.normal(size=(m, d))
            y = rng.normal(size=(n, d)) + 0.5
            sigma = float(rng.uniform(0.5, 2.0))
            got = mmd(x, y, sigma=sigma)
            ref = naive_mmd(x, y, lambda a, b: math.exp(
                -float(((a - b) ** 2).sum()) / (2 * sigma ** 2)))
            assert abs(got - ref) < 1e-10
            got_p = kid(x, y)
            ref_p = naive_mmd(x, y, lambda a, b: (float(a @ b) / d + 1.0) ** 3)
            assert abs(got_p - ref_p) < 1e-8 * max(1.0, abs(ref_p))

    def test_same_distribution_near_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=(200, 4))
        assert abs(mmd(x, y)) < 0.01

    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            mmd(np.zeros((1, 3)), np.zeros((5, 3)))

    @pytest.mark.parametrize("metric", [mmd, kid, fid], ids=["mmd", "kid", "fid"])
    @pytest.mark.parametrize("shape_x, shape_y", [
        ((5, 0), (5, 0)), ((5, 0), (6, 3)), ((5, 4), (6, 5)), ((5,), (6,)), ((5, 2, 2), (6, 2, 2)),
    ], ids=["zero-width", "one-zero-width", "widths-differ", "vectors", "3-d"])
    def test_sets_that_are_not_matrices_of_one_width_are_refused(self, metric, shape_x,
                                                                  shape_y):
        # two 5 x 0 sets gave kid a NaN and mmd and fid a 0.0
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=shape_x), rng.normal(size=shape_y)
        with pytest.raises(ValueError) as exc:
            metric(x, y)
        assert f"{shape_x} and {shape_y}" in str(exc.value)


class TestKernels:
    def test_gaussian_diag_ones(self):
        x = np.random.default_rng(5).normal(size=(6, 3))
        k = gaussian_kernel(x, x, 1.0)
        assert np.allclose(np.diag(k), 1.0)
        assert np.allclose(k, k.T)

    def test_polynomial_formula(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([[3.0, 4.0]])
        assert polynomial_kernel(x, y)[0, 0] == pytest.approx(((11 / 2) + 1) ** 3)


class TestFid:
    def test_self_distance_zero(self):
        x = np.random.default_rng(6).normal(size=(50, 4))
        value, flagged = fid(x, x)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_offset_gaussians_analytic_limit(self):
        rng = np.random.default_rng(7)
        delta = np.array([1.0, -2.0, 0.5, 0.0])
        x = rng.normal(size=(10_000, 4))
        y = rng.normal(size=(10_000, 4)) + delta
        value, flagged = fid(x, y)
        expect = float((delta ** 2).sum())
        assert abs(value - expect) / expect < 0.05
        assert not flagged

    def test_singular_covariance_flagged(self):
        x = np.zeros((10, 3))
        x[:, 0] = np.arange(10)
        value, flagged = fid(x, x + 1.0)
        assert flagged
        assert value >= 0.0

    def test_value_floor_at_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        value, _ = fid(x, x.copy())
        assert value >= 0.0


class TestFeatureIO:
    def test_round_trip(self, tmp_path):
        x = np.random.default_rng(9).normal(size=(7, 3)).astype(np.float32)
        path = tmp_path / "f.feat"
        write_features(x, path)
        back = read_features(path)
        assert np.allclose(back, x)
        assert back.shape == (7, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOTAFEAT" + b"\0" * 16)
        with pytest.raises(ValueError):
            read_features(path)

    def test_truncated(self, tmp_path):
        x = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "t.feat"
        write_features(x, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            read_features(path)
