import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxsim import synthworld
from voxsim.geometry import Pose2
from voxsim.occupancy import GlobalMap, default_table
from voxsim.synthworld import (WorldSpec, _no_room, _road_lines, curve_trajectory,
                               generate_world, sample_frames, straight_trajectory)


def reference_distance_field(spec, gx, gy):
    """Distance from every cell center of a meshgrid to the road centerline
    set, one (n, n) float array per centerline: the reference for
    generate_world's broadcast per-axis distances."""
    e = spec.extent
    if spec.recipe == "straight":
        return np.abs(gy - e / 2.0)
    if spec.recipe == "plus":
        return np.minimum(np.abs(gy - e / 2.0), np.abs(gx - e / 2.0))
    if spec.recipe == "curve":
        return np.abs(np.hypot(gx - e / 2.0, gy - e / 2.0) - spec.radius)
    nx, ny = spec.blocks
    dists = [np.abs(gy - y) for y in _road_lines(e, ny)]
    dists += [np.abs(gx - x) for x in _road_lines(e, nx)]
    return np.minimum.reduce(dists)


def reference_generate_world(spec, table=None):
    """generate_world on a full meshgrid distance field, with the same
    obstacle draws (and the same endless loop when no footprint fits)."""
    table = table or default_table()
    vox = spec.voxel_size
    n = int(round(spec.extent / vox))
    xs = (np.arange(n) + 0.5) * vox
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    d = reference_distance_field(spec, gx, gy)
    road = d <= spec.road_width / 2.0
    sidewalk = (~road) & (d <= spec.road_width / 2.0 + spec.sidewalk_width)
    labels = np.full((n, n, spec.z_dim), table.unassigned_id, dtype=np.uint8)
    ground = np.full((n, n), table.ids_for("ground")[0], dtype=np.uint8)
    ground[road] = table.road_id
    ground[sidewalk] = table.sidewalk_id
    labels[:, :, 0] = ground
    labels[:, :, 1:] = table.ids_for("free")[0]
    if spec.obstacle_density > 0:
        rng = np.random.default_rng(spec.seed)
        off_road_area = float((~road & ~sidewalk).sum()) * vox * vox
        count = int(round(spec.obstacle_density * off_road_area / 100.0))
        zmax = min(int(math.ceil(spec.obstacle_height / vox)) + 1, spec.z_dim)
        placed = 0
        while placed < count:
            cx, cy = rng.integers(0, n, size=2)
            half = int(round(1.0 / vox))
            x0, x1 = max(cx - half, 0), min(cx + half, n)
            y0, y1 = max(cy - half, 0), min(cy + half, n)
            if (road[x0:x1, y0:y1] | sidewalk[x0:x1, y0:y1]).any():
                continue
            labels[x0:x1, y0:y1, 1:zmax] = table.ids_for("obstacle")[0]
            placed += 1
    return GlobalMap(labels, vox, Pose2(0.0, 0.0, 0.0), table)


def _footprint_fits(spec):
    """Whether some clipped 2*half-cell obstacle window of the world holds
    no road or sidewalk, window by window."""
    plane = generate_world(WorldSpec(**{**vars(spec), "obstacle_density": 0.0})).labels[:, :, 0]
    table = default_table()
    blocked = (plane == table.road_id) | (plane == table.sidewalk_id)
    n, half = len(plane), int(round(1.0 / spec.voxel_size))
    return any(not blocked[max(cx - half, 0):cx + half, max(cy - half, 0):cy + half].any()
               for cx in range(n) for cy in range(n))


@st.composite
def world_specs(draw):
    """Every recipe at road widths 7.2-14.4 m over odd and even cell
    counts, some with obstacles."""
    vox = draw(st.sampled_from([0.25, 0.4, 0.5]))
    n = draw(st.integers(30, 200))
    road_width = draw(st.floats(7.2, 14.4))
    extent = n * vox
    recipe = draw(st.sampled_from(["straight", "plus", "grid", "curve"]))
    radius = draw(st.floats(road_width + 0.1, max(extent / 2.0, road_width + 0.2)))
    return WorldSpec(recipe=recipe, extent=extent, road_width=road_width,
                     sidewalk_width=draw(st.sampled_from([0.0, 0.8, 2.0, 3.1])),
                     voxel_size=vox, z_dim=draw(st.integers(1, 6)), radius=radius,
                     blocks=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
                     obstacle_density=draw(st.sampled_from([0.0, 0.0, 0.3, 1.5])),
                     obstacle_height=draw(st.sampled_from([0.3, 2.0])),
                     seed=draw(st.integers(0, 2 ** 31 - 1)))


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


    @pytest.mark.parametrize("field, value", [
        ("extent", math.inf), ("road_width", math.nan), ("radius", -math.inf),
        ("obstacle_height", math.nan), ("voxel_size", 1e-320),
        ("sidewalk_width", -0.5), ("obstacle_density", -1.0), ("obstacle_height", 0.0),
    ])
    def test_non_finite_and_negative_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            WorldSpec(**{field: value})


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

    @settings(max_examples=200, deadline=None)
    @given(world_specs())
    def test_matches_meshgrid_reference(self, spec):
        try:
            world = generate_world(spec)
        except ValueError:
            # the reference would loop forever here
            assert spec.obstacle_density > 0 and not _footprint_fits(spec)
            return
        ref = reference_generate_world(spec)
        assert world.labels.dtype == np.uint8 and world.labels.flags.c_contiguous
        assert np.array_equal(world.labels, ref.labels)

    def test_no_room_for_obstacles_raises(self):
        spec = WorldSpec(recipe="straight", extent=16.0, obstacle_density=10.0)
        with pytest.raises(ValueError, match="obstacle footprint"):
            generate_world(spec)
        # no obstacle to place: nothing to fit
        generate_world(WorldSpec(recipe="straight", extent=16.0, obstacle_density=0.0))

    # noise planes, and blocked planes with one clear rectangle that may or
    # may not hold a whole window, some of it off the plane; bands of 1 to 8
    # rows, so that windows straddle band edges and the plane's ends
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_no_room_matches_maximum_filter(self, data):
        nx, ny = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        half = data.draw(st.integers(1, 6))
        band = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        fill = data.draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9, 1.0]))
        blocked = rng.random((nx, ny)) < fill
        if data.draw(st.booleans()):
            x, y = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
            blocked[:] = True
            blocked[x:x + data.draw(st.integers(1, 2 * half + 1)),
                    y:y + data.draw(st.integers(1, 2 * half + 1))] = False
        want = ndimage.maximum_filter(blocked, size=2 * half, mode="constant").all()
        with mock.patch.object(synthworld, "ROOM_BAND", band):
            assert _no_room(blocked, half) == want

    # 5x5 grid at 600 m (1 500^2 cells, 36 MB of labels): the meshgrid
    # build peaked at 11.5x the label bytes, the broadcast one at 1.13x. With
    # obstacles the room check runs beside the labels and the road planes:
    # maximum_filter's bool output peaked at 1.25x, one int64 summed-area
    # table of the whole plane at 2.26x, a band of rows at a time at 1.19x
    @pytest.mark.parametrize("obstacle_density", [0.0, 0.05])
    def test_peak_memory_near_label_bytes(self, obstacle_density):
        spec = WorldSpec(recipe="grid", extent=600.0, blocks=(5, 5),
                         obstacle_density=obstacle_density)
        tracemalloc.start()
        try:
            world = generate_world(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        obstacle = world.labels[:, :, 1] == default_table().ids_for("obstacle")[0]
        assert obstacle.any() == (obstacle_density > 0)
        assert peak < 1.3 * world.labels.nbytes, peak / world.labels.nbytes

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

    def test_flip_count_in_binomial_band(self):
        # off the map every crop voxel is unassigned, an id no flip can
        # draw, so each frame's flips are exactly its assigned voxels
        world = generate_world(WorldSpec(recipe="straight", extent=40.0))
        poses = [Pose2(500.0 + 10 * i, 500.0, 0.0) for i in range(8)]
        for noise in (0.02, 0.3):
            for frame in sample_frames(world, poses, crop_dims=(50, 40, 8),
                                       noise=noise, seed=7):
                n = frame.labels.size
                flips = np.count_nonzero(frame.labels != world.table.unassigned_id)
                assert abs(flips - n * noise) < 6 * math.sqrt(n * noise * (1 - noise))

    def test_full_noise_redraws_every_voxel(self):
        world = generate_world(WorldSpec(recipe="straight", extent=40.0))
        # half the crop hangs off the map and reads unassigned before noise
        pose = Pose2(40.0, 20.0, 0.0)
        frame = sample_frames(world, [pose], crop_dims=(60, 60, 8), noise=1.0, seed=2)[0]
        counts = np.bincount(frame.labels.ravel(), minlength=7)
        assert counts[world.table.unassigned_id] == 0
        ids = list(world.table.ids)
        p, n = 1 / len(ids), frame.labels.size
        assert np.all(np.abs(counts[ids] - n * p) < 6 * math.sqrt(n * p * (1 - p)))

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
