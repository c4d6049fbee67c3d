import math

import numpy as np
import pytest

from voxsim.geometry import Pose2
from voxsim.occupancy import default_table
from voxsim.synthworld import (WorldSpec, curve_trajectory, generate_world,
                               sample_frames, straight_trajectory)


class TestWorldSpec:
    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            WorldSpec(recipe="spiral")

    def test_curve_radius_validation(self):
        with pytest.raises(ValueError):
            WorldSpec(recipe="curve", radius=5.0, road_width=10.8)

    def test_from_json(self):
        spec = WorldSpec.from_json({"recipe": "grid", "blocks": [3, 2]})
        assert spec.recipe == "grid"
        assert spec.blocks == (3, 2)


class TestGenerateWorld:
    def test_straight_road_is_axis_aligned_strip(self):
        spec = WorldSpec(recipe="straight", extent=40.0, road_width=9.6)
        world = generate_world(spec)
        road = world.labels[:, :, 0] == world.table.road_id
        cols = np.nonzero(road.any(axis=0))[0]
        # strip spans the full x range over a contiguous y band
        assert road[:, cols].all()
        assert not road[:, :cols.min()].any()
        assert not road[:, cols.max() + 1:].any()
        assert len(cols) == pytest.approx(9.6 / 0.4, abs=1)

    def test_sidewalk_flanks_road(self):
        spec = WorldSpec(recipe="straight", extent=40.0, road_width=9.6,
                         sidewalk_width=2.0)
        world = generate_world(spec)
        plane = world.labels[:, :, 0]
        road_cols = np.nonzero((plane == world.table.road_id).any(axis=0))[0]
        side_cols = np.nonzero((plane == world.table.sidewalk_id).any(axis=0))[0]
        assert side_cols.min() < road_cols.min()
        assert side_cols.max() > road_cols.max()

    def test_free_above_ground(self):
        world = generate_world(WorldSpec(recipe="straight", extent=20.0))
        assert (world.labels[:, :, 1:] == 6).all()
        assert (world.labels[:, :, 0] != world.table.unassigned_id).all()

    def test_obstacles_off_road(self):
        spec = WorldSpec(recipe="straight", extent=60.0, road_width=9.6,
                         obstacle_density=0.5, seed=3)
        world = generate_world(spec)
        obstacles = (world.labels == 5).any(axis=2)
        plane = world.labels[:, :, 0]
        on_road = obstacles & ((plane == world.table.road_id)
                               | (plane == world.table.sidewalk_id))
        assert obstacles.any()
        assert not on_road.any()

    def test_plus_recipe_two_strips(self):
        world = generate_world(WorldSpec(recipe="plus", extent=60.0,
                                         road_width=9.6))
        road = world.labels[:, :, 0] == world.table.road_id
        n = road.shape[0]
        assert road[n // 2, :].all()
        assert road[:, n // 2].all()


class TestTrajectories:
    def test_straight_voxel_aligned(self):
        spec = WorldSpec(recipe="straight", extent=80.0)
        poses = straight_trajectory(spec, step=3.2)
        for p in poses:
            assert p.y == 40.0 and p.yaw == 0.0
            assert (p.x / 0.4) == pytest.approx(round(p.x / 0.4))

    @pytest.mark.parametrize("blocks, y", [((3, 3), 120.0), ((2, 2), 80.0), ((3, 4), 96.0)])
    def test_grid_poses_follow_the_middle_road_row(self, blocks, y):
        # 240 m: an odd row count keeps extent/2; an even one takes the
        # first of the two middle rows (240 / 3 and 2 * 240 / 5)
        spec = WorldSpec(recipe="grid", extent=240.0, blocks=blocks)
        poses = straight_trajectory(spec, step=3.2)
        assert {p.y for p in poses} == {y}
        road = generate_world(spec).labels[:, int(y / 0.4), 0] == default_table().road_id
        assert road.all()

    def test_curve_poses_on_arc(self):
        spec = WorldSpec(recipe="curve", extent=120.0, radius=40.0)
        poses = curve_trajectory(spec)
        for p in poses:
            r = math.hypot(p.x - 60.0, p.y - 60.0)
            assert r == pytest.approx(40.0, abs=1e-6)


class TestSampleFrames:
    def test_noiseless_frames_match_crops(self):
        spec = WorldSpec(recipe="straight", extent=40.0)
        world = generate_world(spec)
        poses = [Pose2(20.0, 20.0, 0.0)]
        frames = sample_frames(world, poses, crop_dims=(50, 50, 8))
        from voxsim.occupancy import crop
        expect = crop(world, poses[0], (50, 50, 8))
        assert np.array_equal(frames[0].labels, expect.labels)

    def test_noise_fraction_in_binomial_band(self):
        spec = WorldSpec(recipe="straight", extent=40.0)
        world = generate_world(spec)
        poses = [Pose2(20.0, 20.0, 0.0)]
        clean = sample_frames(world, poses, crop_dims=(60, 60, 8))[0]
        noisy = sample_frames(world, poses, crop_dims=(60, 60, 8),
                              noise=0.05, seed=1)[0]
        changed = (clean.labels != noisy.labels).mean()
        # flips draw a uniform replacement, so ~1/6 of flips are no-ops
        p_eff = 0.05 * 5 / 6
        n = clean.labels.size
        band = 6 * math.sqrt(p_eff * (1 - p_eff) / n)
        assert abs(changed - p_eff) < band

    def test_noise_reproducible(self):
        spec = WorldSpec(recipe="straight", extent=40.0)
        world = generate_world(spec)
        poses = [Pose2(20.0, 20.0, 0.0)]
        a = sample_frames(world, poses, crop_dims=(40, 40, 8), noise=0.1, seed=5)
        b = sample_frames(world, poses, crop_dims=(40, 40, 8), noise=0.1, seed=5)
        assert np.array_equal(a[0].labels, b[0].labels)

    def test_out_of_extent_pose_warns(self, caplog):
        import logging
        spec = WorldSpec(recipe="straight", extent=40.0)
        world = generate_world(spec)
        with caplog.at_level(logging.WARNING, logger="voxsim.synthworld"):
            sample_frames(world, [Pose2(500.0, 500.0, 0.0)], crop_dims=(20, 20, 4))
        assert any("outside world extent" in r.message for r in caplog.records)
