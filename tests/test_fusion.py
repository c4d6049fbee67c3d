import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxsim.fusion import (FusionParams, _close_3x3, _columns_any, _footprint_rows,
                           _frame_columns, _map_extent, _mode_fill_ground,
                           _pull_back, _sink_columns, _small_components,
                           _vote_winners, _words,
                           fuse_keyframes, fuse_sequence, refine_morphology,
                           select_keyframes, vote_inpaint)
from voxsim.geometry import Pose2
from voxsim.lanes import extract_lanes
from voxsim.occupancy import GlobalMap, OccupancyGrid, SemanticTable, default_table
from voxsim.synthworld import (WorldSpec, curve_trajectory, generate_world,
                               sample_frames, straight_trajectory)
from voxsim.topology import extract_topology

from conftest import assert_pinned, make_map, swapped_table


class TestSelectKeyframes:
    def test_hand_trace(self):
        # distances from pose 0: 0, 4, 9, 12, 14, 26
        xs = [0, 4, 9, 12, 14, 26]
        poses = [Pose2(float(x), 0, 0) for x in xs]
        # greedy: keep 0; 4 (d=4) no; 9 no; 12 (d=12>10) keep; 14 (d=2) no;
        # 26 (d=14>10) keep
        assert select_keyframes(poses, 10.0) == [0, 3, 5]

    def test_first_always_kept(self):
        assert select_keyframes([Pose2()], 10.0) == [0]

    def test_boundary_not_strictly_greater(self):
        poses = [Pose2(0, 0, 0), Pose2(10.0, 0, 0), Pose2(10.1, 0, 0)]
        assert select_keyframes(poses, 10.0) == [0, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_keyframes([], 10.0)


def reference_footprint(pose, dims, vox):
    """World-frame axis-aligned bounding box (lo, hi) of the crop at pose,
    each of its four corners moved on its own."""
    X, Y = dims[0], dims[1]
    corners = [pose.transform_xy(sx * X / 2.0 * vox, sy * Y / 2.0 * vox)
               for sx in (-1, 1) for sy in (-1, 1)]
    return [min(c) for c in zip(*corners)], [max(c) for c in zip(*corners)]


def reference_map_extent(poses, dims, vox, margin):
    """The origin and cell counts of the map that holds every pose's crop,
    one footprint at a time."""
    lo, hi = [math.inf, math.inf], [-math.inf, -math.inf]
    for pose in poses:
        flo, fhi = reference_footprint(pose, dims, vox)
        lo, hi = list(map(min, lo, flo)), list(map(max, hi, fhi))
    origin = [math.floor((v - margin) / vox) * vox for v in lo]
    return origin, tuple(math.ceil((h + margin - o) / vox) for h, o in zip(hi, origin))


def reference_frame_to_map_indices(gmap, pose, dims):
    """For every global cell inside the frame's footprint: (gx, gy, fx, fy).

    The full-footprint pull-back, kept apart from the column selection
    under test so the references below do not share its indexing."""
    vox = gmap.voxel_size
    X, Y = dims[0], dims[1]
    lo, hi = reference_footprint(pose, dims, vox)
    g0 = np.maximum(gmap.cell_of(*lo), 0)
    g1 = np.minimum(np.add(gmap.cell_of(*hi), 1), gmap.dims[:2])
    if np.any(g1 <= g0):
        return None
    gx = np.arange(g0[0], g1[0])
    gy = np.arange(g0[1], g1[1])
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    lx, ly = pose.inverse().transform_xy(*gmap.cell_center(GX, GY))
    fx = np.floor(lx / vox + X / 2.0).astype(np.int64)
    fy = np.floor(ly / vox + Y / 2.0).astype(np.int64)
    ok = (fx >= 0) & (fx < X) & (fy >= 0) & (fy < Y)
    return GX[ok], GY[ok], fx[ok], fy[ok]


def reference_fuse_keyframes(frames, poses, keys, table, margin=2.0):
    """Reference first-wins pass: every keyframe rewrites its whole footprint."""
    vox = frames[keys[0]].voxel_size
    dims = frames[keys[0]].dims
    lo, (nx, ny) = _map_extent([poses[k] for k in keys], dims, vox, margin)
    labels = np.full((nx, ny, dims[2]), table.unassigned_id, dtype=np.uint8)
    gmap = GlobalMap(labels, vox, Pose2(lo[0], lo[1], 0.0), table)

    for k in keys:
        hit = reference_frame_to_map_indices(gmap, poses[k], dims)
        if hit is None:
            continue
        gx, gy, fx, fy = hit
        src = frames[k].labels[fx, fy, :]          # (n, Z)
        dst = gmap.labels[gx, gy, :]
        unset = dst == table.unassigned_id
        dst[unset] = src[unset]
        gmap.labels[gx, gy, :] = dst

    _sink_columns(gmap, table)
    _mode_fill_ground(gmap, table)
    return gmap


def assert_frame_columns_match_reference(gmap, pose, dims, listed):
    """``_frame_columns`` over the map cells ``listed`` returns exactly the
    reference's cells whose column is listed, in the same order, and
    gathers the frame's columns at the reference's frame indices: the frame
    stores fx at z = 0 and fy at z = 1."""
    fx, fy = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]), indexing="ij")
    frame = OccupancyGrid(np.stack([fx, fy], axis=2), gmap.voxel_size, pose, gmap.table)
    cells = np.flatnonzero(listed)
    ref = reference_frame_to_map_indices(gmap, pose, dims)
    got = _frame_columns(gmap, pose, frame, cells)
    if ref is None or not listed[ref[0], ref[1]].any():
        assert got is None   # no listed column inside the footprint
        return
    k, src = got
    assert k.dtype == np.int64 and src.dtype == np.uint8
    assert ((k >= 0) & (k < cells.size)).all()
    assert src.shape == (k.size, 2)
    gx, gy = np.divmod(cells[k], gmap.dims[1])
    sel = listed[ref[0], ref[1]]
    for a, b in zip((gx, gy, src[:, 0], src[:, 1]), ref):
        assert np.array_equal(a, b[sel]), pose


VOX = 0.4
pose_in_box = st.builds(Pose2, st.floats(0.0, 6.0), st.floats(0.0, 6.0),
                        st.floats(-math.pi, math.pi))


# yaws on and within 1e-12 of the axes, where a frame coordinate is
# constant or nearly constant along a map row, and yaws anywhere
AXIS_YAWS = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
yaws = st.one_of(
    st.sampled_from(AXIS_YAWS),
    st.builds(lambda a, d: a + d, st.sampled_from(AXIS_YAWS), st.floats(-1e-12, 1e-12)),
    st.floats(-math.pi, math.pi))


class TestMapExtent:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.builds(Pose2, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), yaws),
                    min_size=1, max_size=6),
           st.integers(1, 64), st.integers(1, 64),
           st.one_of(st.sampled_from([0.1, 0.2, 0.4, 0.5, 1.0]), st.floats(0.05, 2.0)),
           st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    def test_matches_per_pose_corners(self, poses, X, Y, vox, margin):
        lo, (nx, ny) = _map_extent(poses, (X, Y, 4), vox, margin)
        want_lo, want_n = reference_map_extent(poses, (X, Y, 4), vox, margin)
        assert [float(v).hex() for v in lo] == [v.hex() for v in want_lo]
        assert (nx, ny) == want_n


class TestColumnWords:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]), st.booleans())
    def test_matches_any_and_all_along_the_last_axis(self, Z, seed, share, planes):
        # random rows of each density, beside an all-False row, an all-True
        # row and one row per z level holding that level alone, so every
        # byte of every word is seen set by itself
        rng = np.random.default_rng(seed)
        rows = np.concatenate([rng.random((int(rng.integers(0, 30)), Z)) < share,
                               np.zeros((1, Z), dtype=bool), np.ones((1, Z), dtype=bool),
                               np.eye(Z, dtype=bool)])
        mask = rows.reshape(-1, 1, Z) if planes else rows  # (n, 1, Z) or (n, Z)
        words, w = _words(mask)
        assert w == max(w for w in (1, 2, 4, 8) if Z % w == 0)
        assert words.dtype == np.dtype(f"<u{w}") and words.shape == mask.shape[:-1] + (Z // w,)
        assert np.shares_memory(words, mask)
        got = _columns_any(mask)
        assert got.dtype == bool and got.shape == mask.shape[:-1]
        assert np.array_equal(got, mask.any(axis=-1))
        assert np.array_equal(~_columns_any(~mask), mask.all(axis=-1))

    @pytest.mark.parametrize("Z", [1, 3, 12, 16, 40])
    def test_rows_that_are_not_contiguous(self, Z):
        # every other row and map column of a plane of rows, once with z
        # contiguous and once with z the slowest axis of the array
        rng = np.random.default_rng(Z)
        for mask in (rng.random((6, 8, Z)) < 0.1,
                     (rng.random((Z, 6, 8)) < 0.1).transpose(1, 2, 0)):
            view = mask[::2, 1::2]
            assert np.array_equal(_columns_any(view), view.any(axis=-1))


class TestHoleColumnSelection:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hole_columns_of_the_full_footprint(self, data):
        # the row-range selection both passes use, against the reference;
        # maps much larger than the frames make whole rows and most of each
        # row fall outside the footprint, and poses past the map's edge
        # graze it or miss it
        table = default_table()
        nx, ny = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        gmap = GlobalMap(np.zeros((nx, ny, 1), dtype=np.uint8), VOX,
                         Pose2(data.draw(st.floats(-2.0, 2.0)),
                               data.draw(st.floats(-2.0, 2.0)), 0.0), table)
        dims = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)), 1)
        reach = 4.0  # past the map's edge by more than half a frame diagonal
        pose = Pose2(gmap.origin.x + data.draw(st.floats(-reach, nx * VOX + reach)),
                     gmap.origin.y + data.draw(st.floats(-reach, ny * VOX + reach)),
                     data.draw(yaws))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        listed = rng.random((nx, ny)) < data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        assert_frame_columns_match_reference(gmap, pose, dims, listed)

    @pytest.mark.parametrize("yaw", AXIS_YAWS)
    def test_lattice_poses_match_the_full_footprint(self, yaw, table):
        # at quarter turns with the frame centre on a cell corner or centre,
        # map cell centres pull back onto frame voxel edges, where a last-bit
        # change in the rotation's order of operations moves a floor
        gmap = GlobalMap(np.zeros((16, 16, 1), dtype=np.uint8), VOX, Pose2(), table)
        listed = np.ones((16, 16), dtype=bool)
        for px, py in np.ndindex(13, 13):
            for dims in ((1, 2, 1), (2, 1, 1), (5, 6, 1)):
                pose = Pose2(0.2 * px + 0.8, 0.2 * py + 0.8, yaw)
                assert_frame_columns_match_reference(gmap, pose, dims, listed)

    def test_row_ranges_prune_a_rotated_footprint(self, table):
        # a 12 x 12 frame at 45 degrees covers about half of its bounding
        # box; the row ranges hold its cells plus a voxel of margin, and
        # leave out most of the rest
        gmap = GlobalMap(np.zeros((60, 60, 1), dtype=np.uint8), VOX, Pose2(), table)
        pose = Pose2(12.0, 12.0, math.pi / 4)
        rows, jlo, jhi = _footprint_rows(gmap, pose, (12, 12, 1))
        box = rows.size * (jhi.max() - jlo.min())
        inside = reference_frame_to_map_indices(gmap, pose, (12, 12, 1))[0].size
        assert inside <= (jhi - jlo).sum() < 0.75 * box


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_spans_hold_every_cell_the_pull_back_keeps(self, data):
        # every map cell whose pull-back falls inside the frame lies in the
        # span of its row; None only when no cell does. Random, axis and
        # near-axis yaws, and poses whose footprint lies in, across or
        # wholly outside the map's edge
        table = default_table()
        nx, ny = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 50))
        gmap = GlobalMap(np.zeros((nx, ny, 1), dtype=np.uint8), VOX,
                         Pose2(data.draw(st.floats(-2.0, 2.0)),
                               data.draw(st.floats(-2.0, 2.0)), 0.0), table)
        dims = (data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16)), 1)
        reach = 8.0  # past the map's edge by more than a frame diagonal
        pose = Pose2(gmap.origin.x + data.draw(st.floats(-reach, nx * VOX + reach)),
                     gmap.origin.y + data.draw(st.floats(-reach, ny * VOX + reach)),
                     data.draw(yaws))
        gx, gy = np.divmod(np.arange(nx * ny), ny)
        ok = _pull_back(gmap, pose, dims, gx, gy)[2].reshape(nx, ny)
        hit = _footprint_rows(gmap, pose, dims)
        if hit is None:
            assert not ok.any()
            return
        rows, jlo, jhi = hit
        assert rows.dtype == jlo.dtype == jhi.dtype == np.int64
        assert (np.diff(rows) == 1).all() and 0 <= rows[0] and rows[-1] < nx
        assert ((0 <= jlo) & (jlo <= jhi) & (jhi <= ny)).all()
        spans = np.zeros((nx, ny), dtype=bool)
        for r, a, b in zip(rows, jlo, jhi):
            spans[r, a:b] = True
        assert not (ok & ~spans).any()


@st.composite
def keyframe_sets(draw):
    """Rotated, overlapping keyframes whose labels include the unassigned id;
    a negative margin clips footprints at the map's edge."""
    table = default_table()
    values = np.array((table.unassigned_id,) + table.ids, dtype=np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X, Y, Z = draw(st.integers(2, 10)), draw(st.integers(2, 10)), draw(st.integers(1, 4))
    share = draw(st.sampled_from([0.0, 0.2, 0.8]))  # unassigned share per frame
    frames, poses = [], []
    for pose in draw(st.lists(pose_in_box, min_size=1, max_size=5)):
        for _ in range(draw(st.integers(1, 2))):  # repeats overlap exactly
            labels = rng.choice(values[1:], size=(X, Y, Z))
            labels[rng.random(labels.shape) < share] = table.unassigned_id
            frames.append(OccupancyGrid(labels, VOX, pose, table))
            poses.append(pose)
    keys = draw(st.permutations(range(len(frames))))
    return frames, poses, list(keys), draw(st.floats(-0.3, 1.0))


class TestFirstWins:
    @settings(max_examples=300, deadline=None)
    @given(keyframe_sets())
    def test_matches_full_footprint_reference(self, world):
        frames, poses, keys, margin = world
        table = frames[0].table
        got = fuse_keyframes(frames, poses, keys, margin=margin)
        ref = reference_fuse_keyframes(frames, poses, keys, table, margin=margin)
        assert (got.origin.x, got.origin.y) == (ref.origin.x, ref.origin.y)
        assert got.labels.dtype == np.uint8
        assert np.array_equal(got.labels, ref.labels)

    def test_earlier_keyframe_wins_conflicts(self, table):
        # two identical-pose frames with different labels: first keyframe wins
        f1 = make_map(np.full((20, 20), table.road_id, dtype=np.uint8), table,
                      z_dim=4)
        f2 = make_map(np.full((20, 20), table.sidewalk_id, dtype=np.uint8),
                      table, z_dim=4)
        pose = Pose2(4.0, 4.0, 0.0)
        gmap = fuse_keyframes([f1, f2], [pose, pose], [0, 1], FusionParams().margin)
        assigned = gmap.labels[:, :, 0]
        core = assigned[assigned != table.unassigned_id]
        assert (core == table.road_id).all()


def mixed_sequence(table, dims, voxel_sizes, swapped=()):
    """One all-road frame per (dims, voxel size), all at one pose; the
    frames whose index is in ``swapped`` are under ``swapped_table()``."""
    pose = Pose2(4.0, 4.0, 0.0)
    frames = [OccupancyGrid(np.full(d, table.road_id, dtype=np.uint8), v, pose,
                            swapped_table() if i in swapped else table)
              for i, (d, v) in enumerate(zip(dims, voxel_sizes))]
    return frames, [pose] * len(frames)


MIXED_SEQUENCES = pytest.mark.parametrize("dims, voxel_sizes, swapped, message", [
    ([(30, 30, 4)] + [(20, 20, 4)] * 5, [0.4] * 6, (),
     "frame 1 has dims (20, 20, 4), frame 0 has (30, 30, 4)"),
    ([(20, 20, 4)] * 3 + [(20, 20, 5)] * 3, [0.4] * 6, (),
     "frame 3 has dims (20, 20, 5), frame 0 has (20, 20, 4)"),
    ([(20, 20, 4)] * 6, [0.4, 0.4, 0.5, 0.4, 0.4, 0.5], (),
     "frame 2 has voxel size 0.5 m, frame 0 has 0.4 m"),
    ([(20, 20, 4)] * 6, [0.4] * 6, (4, 5),
     "frame 4 has a different semantic table than frame 0"),
], ids=["xy", "z", "voxel-size", "table"])


class TestFrameGeometry:
    @MIXED_SEQUENCES
    def test_fuse_sequence_names_the_first_frame_that_differs(
            self, table, dims, voxel_sizes, swapped, message):
        frames, poses = mixed_sequence(table, dims, voxel_sizes, swapped)
        with pytest.raises(ValueError, match=re.escape(message)):
            fuse_sequence(frames, poses, FusionParams())

    @MIXED_SEQUENCES
    def test_each_pass_checks_the_whole_sequence(self, table, dims, voxel_sizes, swapped,
                                                 message):
        # frame 0 alone is the keyframe, frames 1-5 the non-keyframes
        frames, poses = mixed_sequence(table, dims, voxel_sizes, swapped)
        with pytest.raises(ValueError, match=re.escape(message)):
            fuse_keyframes(frames, poses, [0], FusionParams().margin)
        gmap = GlobalMap(np.zeros((40, 40, dims[0][2]), dtype=np.uint8),
                         voxel_sizes[0], Pose2(), table)
        with pytest.raises(ValueError, match=re.escape(message)):
            vote_inpaint(gmap, frames, poses, [1, 2, 3, 4, 5], 1)

    # in the table case the frames agree with each other, but their id 1 is
    # sidewalk where the map's is road: counted under the map's table, their
    # votes would fill every hole with road
    @pytest.mark.parametrize("z, vox, swapped, message", [
        (5, 0.4, (), "frames have 4 z levels of 0.4 m, the map 5 of 0.4 m"),
        (4, 0.5, (), "frames have 4 z levels of 0.4 m, the map 4 of 0.5 m"),
        (4, 0.4, (0, 1), "frame 0 has a different semantic table than the map"),
    ], ids=["z", "voxel-size", "table"])
    def test_vote_pass_checks_the_frames_against_the_map(self, table, z, vox, swapped,
                                                         message):
        frames, poses = mixed_sequence(table, [(20, 20, 4)] * 2, [0.4] * 2, swapped)
        gmap = GlobalMap(np.zeros((40, 40, z), dtype=np.uint8), vox, Pose2(), table)
        with pytest.raises(ValueError, match=re.escape(message)):
            vote_inpaint(gmap, frames, poses, [1], 1)

    # fusing under a table with an id no uint8 label can hold used to end in
    # numpy's OverflowError (the ground fill's write of id 300, the map's
    # fill with unassigned id -1); no frame can carry such a table now
    @pytest.mark.parametrize("free_id, unassigned_id, bad", [(300, 0, 300), (6, -1, -1)],
                             ids=["category", "unassigned"])
    def test_frame_0_table_ids_must_fit_a_label(self, table, free_id, unassigned_id, bad):
        message = f"table id {bad} is not an int in 0-255"
        with pytest.raises(ValueError, match=re.escape(message)):
            SemanticTable(entries=table.entries[:5] + ((free_id, "free", "free"),),
                          unassigned_id=unassigned_id)


def reference_sink_columns(labels, table):
    """Sunk copy of a label volume from one fancy gather over (X, Y, Z)
    int64 source indices, with the ground found by ``np.isin`` over the
    whole volume: the reference for _sink_columns' lookup and row shift."""
    ground = np.isin(labels, table.ground_ids)
    dz = np.where(ground.any(axis=2), ground.argmax(axis=2), 0)
    Z = labels.shape[2]
    zidx = np.arange(Z)[None, None, :] + dz[:, :, None]
    xi = np.arange(labels.shape[0])[:, None, None]
    yi = np.arange(labels.shape[1])[None, :, None]
    return np.where(zidx < Z, labels[xi, yi, np.minimum(zidx, Z - 1)],
                    table.unassigned_id).astype(np.uint8)


def odd_table():
    """A table whose ids differ from the default's, with ground ids
    (9, 4, 250) and unassigned id 200."""
    return SemanticTable(entries=((9, "lane", "road"), (4, "kerb", "sidewalk"),
                                  (7, "car", "vehicle"), (250, "grass", "ground"),
                                  (5, "air", "free"), (3, "sky", "obstacle")),
                         unassigned_id=200)


class TestColumnSinking:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_gather_reference(self, data):
        table = data.draw(st.sampled_from([default_table(), swapped_table(), odd_table()]))
        shape = tuple(data.draw(st.integers(1, 9)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # values include the unassigned id; a low ground share leaves
        # columns without any ground voxel
        values = np.array((table.unassigned_id,) + table.ids, dtype=np.uint8)
        labels = rng.choice(values, size=shape)
        keep = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        labels[~keep & np.isin(labels, table.ground_ids)] = table.ids_for("free")[0]
        gmap = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        _sink_columns(gmap, table)
        assert gmap.labels.dtype == np.uint8
        assert np.array_equal(gmap.labels, reference_sink_columns(labels, table))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_gather_reference_over_multi_word_columns(self, data):
        # columns of several 8-, 4- and 2-byte words: the lowest ground level
        # is found in the lowest word that holds ground
        table = data.draw(st.sampled_from([default_table(), odd_table()]))
        Z = data.draw(st.sampled_from([10, 12, 16, 24, 40]))
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)), Z)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = np.array((table.unassigned_id,) + table.ids, dtype=np.uint8)
        labels = rng.choice(values, size=shape)
        keep = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
        labels[~keep & np.isin(labels, table.ground_ids)] = table.ids_for("free")[0]
        gmap = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        _sink_columns(gmap, table)
        assert np.array_equal(gmap.labels, reference_sink_columns(labels, table))

    def test_keyframe_pass_memory_scales_with_the_map(self):
        # 3x3 grid at 400 m, CLI crops: the (X, Y, Z) int64 sink indices took
        # the pass to 20x the fused map's bytes, the plane loop to 3.1x
        spec = WorldSpec(recipe="grid", extent=400.0, blocks=(3, 3))
        world = generate_world(spec)
        poses = straight_trajectory(spec)
        poses = [poses[k] for k in select_keyframes(poses, FusionParams().d_max)]
        frames = sample_frames(world, poses)
        tracemalloc.start()
        try:
            gmap = fuse_keyframes(frames, poses, list(range(len(poses))),
                                      FusionParams().margin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * gmap.labels.nbytes, peak / gmap.labels.nbytes

    def test_memory_scales_with_the_map_when_every_column_moves(self, table):
        # ground at z = 1..15 in every column: (n, Z) int64 source levels for
        # one gather of every moved row took the sink to about 20x the map
        rng = np.random.default_rng(0)
        labels = rng.choice(np.array([0, 3, 5, 6], dtype=np.uint8), size=(200, 200, 16))
        dz = rng.integers(1, 16, size=(200, 200))
        np.put_along_axis(labels, dz[:, :, None], table.road_id, axis=2)
        expected = reference_sink_columns(labels, table)
        gmap = GlobalMap(labels, 0.4, Pose2(), table)
        tracemalloc.start()
        try:
            _sink_columns(gmap, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(gmap.labels, expected)
        assert peak < 3 * labels.nbytes, peak / labels.nbytes

    def test_elevated_ground_sinks_to_zero(self, table):
        labels = np.zeros((4, 4, 8), dtype=np.uint8)
        labels[:, :, 2] = table.road_id       # ground floating at z=2
        labels[:, :, 3] = 6                   # free above
        gmap = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        _sink_columns(gmap, table)
        assert (gmap.labels[:, :, 0] == table.road_id).all()
        assert (gmap.labels[:, :, 1] == 6).all()
        # vacated top layers become unassigned
        assert (gmap.labels[:, :, 6:] == table.unassigned_id).all()

    def test_groundless_column_untouched(self, table):
        labels = np.zeros((2, 2, 4), dtype=np.uint8)
        labels[:, :, 3] = 5  # obstacle only
        gmap = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        _sink_columns(gmap, table)
        assert np.array_equal(gmap.labels, labels)


def reference_mode_fill_ground(gmap, table):
    """The mode fill by one int32 ``ndimage.convolve`` of the whole z=0
    plane per category: the reference for _mode_fill_ground's box sums."""
    plane = gmap.labels[:, :, 0]
    holes = plane == table.unassigned_id
    if not holes.any():
        return
    best_count = np.zeros(plane.shape, dtype=np.int32)
    best_label = np.full(plane.shape, table.unassigned_id, dtype=np.uint8)
    kernel = np.ones((3, 3), dtype=np.int32)
    for cid in sorted(table.ids):
        count = ndimage.convolve((plane == cid).astype(np.int32), kernel,
                                 mode="constant", cval=0)
        better = count > best_count  # strict: earlier (lower) id wins ties
        best_count = np.where(better, count, best_count)
        best_label = np.where(better, np.uint8(cid), best_label)
    fill = holes & (best_count > 0)
    plane[fill] = best_label[fill]


class TestModeFill:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_convolve_reference(self, data):
        table = data.draw(st.sampled_from([default_table(), swapped_table(), odd_table()]))
        X, Y, Z = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)),
                   data.draw(st.integers(1, 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # two categories make ties common; all holes and no holes are edge cases
        ids = np.array(data.draw(st.sampled_from([table.ids, table.ids[:2]])), dtype=np.uint8)
        labels = rng.choice(ids, size=(X, Y, Z)).astype(np.uint8)
        hole_share = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        labels[:, :, 0][rng.random((X, Y)) < hole_share] = table.unassigned_id
        tie = None
        if X >= 3 and Y >= 3 and data.draw(st.booleans()):
            # a hole whose eight neighbours are four of each of two ids
            i, j = int(rng.integers(1, X - 1)), int(rng.integers(1, Y - 1))
            a, b = (int(v) for v in rng.choice(table.ids, size=2, replace=False))
            window = np.insert(rng.permutation([a] * 4 + [b] * 4), 4, table.unassigned_id)
            labels[i - 1:i + 2, j - 1:j + 2, 0] = window.reshape(3, 3)
            tie = (i, j, min(a, b))
        expected = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        reference_mode_fill_ground(expected, table)
        gmap = GlobalMap(labels.copy(), 0.4, Pose2(), table)
        _mode_fill_ground(gmap, table)
        assert gmap.labels.dtype == np.uint8
        assert np.array_equal(gmap.labels, expected.labels)
        if tie is not None:
            assert gmap.labels[tie[0], tie[1], 0] == tie[2]

    def test_majority_neighbor_fills_hole(self, table):
        plane = np.full((5, 5), table.road_id, dtype=np.uint8)
        plane[2, 2] = table.unassigned_id
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        from voxsim.fusion import _mode_fill_ground
        _mode_fill_ground(gmap, table)
        assert gmap.labels[2, 2, 0] == table.road_id

    def test_tie_breaks_to_lowest_id(self, table):
        # 4 road vs 4 sidewalk neighbors around the hole: road (id 1) wins
        plane = np.zeros((3, 3), dtype=np.uint8)
        plane[0, :] = table.road_id
        plane[2, :] = table.sidewalk_id
        plane[1, 0] = table.road_id
        plane[1, 2] = table.sidewalk_id
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        from voxsim.fusion import _mode_fill_ground
        _mode_fill_ground(gmap, table)
        assert gmap.labels[1, 1, 0] == table.road_id

    def test_isolated_hole_left_unassigned(self, table):
        plane = np.zeros((5, 5), dtype=np.uint8)
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        from voxsim.fusion import _mode_fill_ground
        _mode_fill_ground(gmap, table)
        assert (gmap.labels[:, :, 0] == table.unassigned_id).all()


class TestVoteInpaint:
    def _map_and_frames(self, table, votes_per_label):
        """Unassigned 8x8 map plus stacked identical frames at the map pose."""
        gmap = GlobalMap(np.zeros((8, 8, 4), dtype=np.uint8), 0.4,
                         Pose2(0, 0, 0), table)
        frames, poses = [], []
        pose = Pose2(8 * 0.4 / 2, 8 * 0.4 / 2, 0.0)
        for label, count in votes_per_label:
            for _ in range(count):
                f = make_map(np.full((8, 8), label, dtype=np.uint8), table,
                             z_dim=4, free_above=False)
                frames.append(f)
                poses.append(pose)
        return gmap, frames, poses

    def test_threshold_respected(self, table):
        gmap, frames, poses = self._map_and_frames(table, [(table.road_id, 2)])
        out = vote_inpaint(gmap, frames, poses, list(range(len(frames))), 3)
        assert (out.labels[:, :, 0] == table.unassigned_id).all()
        out = vote_inpaint(gmap, frames, poses, list(range(len(frames))), 2)
        assert (out.labels[:, :, 0] == table.road_id).all()

    def test_argmax_tie_lowest_id(self, table):
        gmap, frames, poses = self._map_and_frames(
            table, [(table.road_id, 3), (table.sidewalk_id, 3)])
        out = vote_inpaint(gmap, frames, poses, list(range(len(frames))), 3)
        assert (out.labels[:, :, 0] == table.road_id).all()

    def test_tie_at_exactly_tau_picks_the_lower_id(self, table):
        # sidewalk (2) and obstacle (5) are not adjacent tally columns; each
        # gets exactly tau_vote votes, the higher id first
        gmap, frames, poses = self._map_and_frames(table, [(5, 3), (2, 3)])
        non_keys = list(range(len(frames)))
        out = vote_inpaint(gmap, frames, poses, non_keys, 3)
        ref = dense_vote_inpaint(gmap, frames, poses, non_keys, 3)
        assert np.array_equal(out.labels, ref.labels)
        assert (out.labels[:, :, 0] == 2).all()
        assert (out.labels[:, :, 1:] == table.unassigned_id).all()

    def test_one_vote_short_stays_unassigned_beside_a_fill(self, table):
        # rows x < 4 get tau_vote road votes, rows x >= 4 one fewer
        gmap, frames, poses = self._map_and_frames(table, [(table.road_id, 3)])
        frames[2].labels[4:, :, :] = table.unassigned_id
        non_keys = list(range(len(frames)))
        out = vote_inpaint(gmap, frames, poses, non_keys, 3)
        ref = dense_vote_inpaint(gmap, frames, poses, non_keys, 3)
        assert np.array_equal(out.labels, ref.labels)
        assert (out.labels[:4, :, 0] == table.road_id).all()
        assert (out.labels[4:, :, 0] == table.unassigned_id).all()

    def test_tally_counts_past_255_votes(self, table):
        # 300 non-keyframes take a uint16 tally; a uint8 one would wrap at 256.
        # The tally takes np.min_scalar_type(len(non_keys)) and one frame casts
        # at most one vote per hole, so 65 536 frames would likewise switch to
        # uint32; building that many frames is left untested.
        gmap, frames, poses = self._map_and_frames(table, [(table.road_id, 300)])
        out = vote_inpaint(gmap, frames, poses, list(range(len(frames))), 260)
        assert (out.labels[:, :, 0] == table.road_id).all()

    def test_pass1_voxels_never_modified(self, table):
        gmap, frames, poses = self._map_and_frames(table, [(table.sidewalk_id, 5)])
        gmap.labels[3, 3, 0] = table.road_id
        out = vote_inpaint(gmap, frames, poses, list(range(len(frames))), 3)
        assert out.labels[3, 3, 0] == table.road_id


def dense_vote_inpaint(gmap, frames, poses, non_keys, tau_vote):
    """Reference: the dense (X, Y, Z, C) tally filled with np.add.at."""
    table = gmap.table
    out = gmap.labels.copy()
    unassigned = out == table.unassigned_id
    if not unassigned.any() or not non_keys:
        return GlobalMap(out, gmap.voxel_size, gmap.origin, table)

    cids = sorted(table.ids)
    cindex = {c: i for i, c in enumerate(cids)}
    votes = np.zeros(out.shape + (len(cids),), dtype=np.uint16)

    dims = frames[non_keys[0]].dims
    for t in non_keys:
        hit = reference_frame_to_map_indices(gmap, poses[t], dims)
        if hit is None:
            continue
        gx, gy, fx, fy = hit
        src = frames[t].labels[fx, fy, :]  # (n, Z)
        for cid in cids:
            sel = src == cid
            if not sel.any():
                continue
            n_idx, z_idx = np.nonzero(sel)
            np.add.at(votes, (gx[n_idx], gy[n_idx], z_idx, cindex[cid]), 1)

    max_votes = votes.max(axis=3)
    winner = np.argmax(votes, axis=3)  # first (lowest-id) argmax on ties
    assign = unassigned & (max_votes >= tau_vote)
    cid_arr = np.array(cids, dtype=np.uint8)
    out[assign] = cid_arr[winner[assign]]
    return GlobalMap(out, gmap.voxel_size, gmap.origin, table)


def reference_vote_winners(votes, cids, tau_vote, unassigned_id):
    """The winner pass as it ran over every hole: a reverse putmask of each
    category reaching the best count, then the holes below tau_vote reset."""
    best = votes[0].copy()
    for row in votes[1:]:
        np.maximum(best, row, out=best)
    filled = np.empty(len(best), dtype=np.uint8)
    for cid, row in reversed(list(zip(cids, votes))):
        np.putmask(filled, row == best, cid)
    filled[best < tau_vote] = unassigned_id
    return filled


class TestVoteWinners:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_reverse_putmask_over_every_hole(self, data):
        # counts from 0 to tau_vote + 1 make ties and best counts of exactly
        # tau_vote common; some holes get two categories at exactly tau_vote
        # and every other one below it
        C, n = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 80))
        tau = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16]))
        votes = rng.integers(0, tau + 2, size=(C, n)).astype(dtype)
        if C > 1:
            for j in np.flatnonzero(rng.random(n) < 0.3):
                votes[:, j] = rng.integers(0, tau, size=C)
                votes[rng.choice(C, size=2, replace=False), j] = tau
        cids = sorted(rng.choice(np.arange(1, 255), size=C, replace=False).tolist())
        unassigned_id = data.draw(st.sampled_from([0, 255]))
        got = _vote_winners(votes, cids, tau, unassigned_id)
        assert got.dtype == np.uint8 and got.shape == (n,)
        assert np.array_equal(got, reference_vote_winners(votes, cids, tau, unassigned_id))

    def test_a_tie_at_exactly_tau_goes_to_the_lowest_id(self):
        votes = np.array([[1, 3, 3, 2], [3, 3, 0, 2], [3, 1, 3, 2]], dtype=np.uint8)
        got = _vote_winners(votes, [2, 5, 9], 3, 0)
        assert got.tolist() == [5, 2, 2, 0]
        assert np.array_equal(got, reference_vote_winners(votes, [2, 5, 9], 3, 0))


class CountingFrame:
    """A frame that counts the reads of its ``labels``."""

    def __init__(self, frame):
        self.frame, self.reads = frame, 0

    def __getattr__(self, name):
        return getattr(self.frame, name)

    @property
    def labels(self):
        self.reads += 1
        return self.frame.labels


def wide_table():
    """Nine categories, more than the default table's six, with unassigned
    id 200."""
    return SemanticTable(entries=odd_table().entries + ((11, "curb", "other"),
                                                        (12, "pole", "obstacle"),
                                                        (13, "bush", "other")),
                         unassigned_id=200)


@st.composite
def vote_worlds(draw):
    """A small pass-1 map with 0%, some or 100% of its voxels unassigned,
    or with sunk columns whose holes are only their top levels, under the
    default table or a nine-category one, and rotated, translated,
    overlapping non-keyframes whose labels include the unassigned id and,
    in some worlds, values outside the table; some frames are entirely
    unassigned; a tie pair puts two constant frames at one pose."""
    table = draw(st.sampled_from([default_table(), wide_table()]))
    vox = 0.4
    nx, ny = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    Z = draw(st.one_of(st.integers(1, 3), st.sampled_from([7, 16])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.array((table.unassigned_id,) + table.ids, dtype=np.uint8)
    if draw(st.booleans()):  # label values no category holds cast no vote
        outside = [v for v in (7, 8, 200, 255) if v not in values]
        values = np.concatenate([values, np.array(outside, dtype=np.uint8)])
    labels = rng.choice(np.array(table.ids, dtype=np.uint8), size=(nx, ny, Z))
    holes = draw(st.sampled_from(["none", "partial", "all", "sunk"]))
    if holes == "all":
        labels[...] = table.unassigned_id
    elif holes == "partial":
        labels[rng.random(labels.shape) < draw(st.floats(0.05, 0.95))] = table.unassigned_id
    elif holes == "sunk":  # a column sunk by dz holds holes at its top dz levels
        dz = rng.integers(0, Z + 1, size=(nx, ny, 1))
        labels[np.arange(Z) >= Z - dz] = table.unassigned_id
    gmap = GlobalMap(labels, vox, Pose2(0.0, 0.0, 0.0), table)
    X, Y = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    pose_st = st.builds(Pose2, st.floats(0.0, nx * vox), st.floats(0.0, ny * vox),
                        st.floats(-math.pi, math.pi))
    frames, poses = [], []
    for pose in draw(st.lists(pose_st, min_size=1, max_size=6)):
        blank = draw(st.booleans())  # an entirely unassigned frame votes nowhere
        for _ in range(draw(st.integers(1, 3))):  # repeats overlap exactly
            frame = (np.full((X, Y, Z), table.unassigned_id, dtype=np.uint8) if blank
                     else rng.choice(values, size=(X, Y, Z)))
            frames.append(OccupancyGrid(frame, vox, pose, table))
            poses.append(pose)
    if draw(st.booleans()):
        pose = draw(pose_st)
        a, b = draw(st.lists(st.sampled_from(table.ids), min_size=2, max_size=2,
                             unique=True))
        for cid in (a, b, b, a):
            frames.append(OccupancyGrid(np.full((X, Y, Z), cid, dtype=np.uint8),
                                        vox, pose, table))
            poses.append(pose)
    non_keys = draw(st.lists(st.sampled_from(range(len(frames))), unique=True))
    return gmap, frames, poses, non_keys, draw(st.integers(1, 4))


class TestVoteInpaintEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(vote_worlds())
    def test_compact_tally_matches_dense_reference(self, world):
        gmap, frames, poses, non_keys, tau = world
        before = gmap.labels.copy()
        out = vote_inpaint(gmap, frames, poses, non_keys, tau)
        ref = dense_vote_inpaint(gmap, frames, poses, non_keys, tau)
        assert out.labels.dtype == np.uint8
        assert np.array_equal(out.labels, ref.labels)
        assigned = before != gmap.table.unassigned_id
        assert np.array_equal(out.labels[assigned], before[assigned])
        # the tally counts every voxel of a hole column; its pass-1 ones keep their labels
        hole_column = (~assigned).any(axis=2, keepdims=True)
        kept = assigned & hole_column
        assert np.array_equal(out.labels[kept], before[kept])
        assert np.array_equal(gmap.labels, before)

    @settings(max_examples=200, deadline=None)
    @given(vote_worlds())
    def test_frames_without_a_hole_in_view_are_not_read(self, world):
        # a GridFile reads its whole payload on each labels access; a frame
        # whose footprint holds no hole column is never read, every other
        # frame once, and the votes are those of the plain frames
        gmap, frames, poses, non_keys, tau = world
        counted = [CountingFrame(f) for f in frames]
        out = vote_inpaint(gmap, counted, poses, non_keys, tau)
        assert out.labels.tobytes() == vote_inpaint(gmap, frames, poses, non_keys,
                                                    tau).labels.tobytes()
        hole_column = (gmap.labels == gmap.table.unassigned_id).any(axis=2)
        for t, frame in enumerate(counted):
            hit = reference_frame_to_map_indices(gmap, poses[t], frame.dims)
            in_view = hit is not None and hole_column[hit[0], hit[1]].any()
            assert frame.reads == (t in non_keys and in_view), t

    @pytest.mark.parametrize("pose", [
        Pose2(5.0, 6.0, 0.0), Pose2(5.3, 4.1, math.pi / 2), Pose2(6.1, 5.7, 0.3),
        Pose2(4.9, 5.2, math.pi / 4), Pose2(5.5, 5.5, 1.0), Pose2(3.7, 6.3, -2.5),
        Pose2(0.2, 11.9, 2.9), Pose2(7.77, 2.03, -1.234),
    ])
    def test_frame_to_map_indices_yields_each_map_cell_at_most_once(self, pose, table):
        # named for the selector _frame_columns replaced; the tally's plain
        # `votes[at] += 1` and pass 1's first-wins write back are exact only
        # because one frame never maps two sources onto one map cell
        gmap = GlobalMap(np.zeros((30, 30, 2), dtype=np.uint8), 0.4, Pose2(), table)
        frame = OccupancyGrid(np.zeros((20, 16, 2), dtype=np.uint8), 0.4, pose, table)
        cells = np.arange(30 * 30, dtype=np.int64)
        k, src = _frame_columns(gmap, pose, frame, cells)
        assert k.size > 0 and src.shape == (k.size, 2)
        assert np.unique(k).size == k.size

    def test_tally_memory_scales_with_holes_not_map(self, table):
        # pass 1 assigned 95% of a 150 x 150 x 16 map; the dense tally alone
        # would take labels.size * C * 2 bytes
        rng = np.random.default_rng(0)
        labels = np.full((150, 150, 16), table.road_id, dtype=np.uint8)
        labels[rng.random(labels.shape) < 0.05] = table.unassigned_id
        gmap = GlobalMap(labels, 0.4, Pose2(), table)
        poses = [Pose2(10.0 + 4.0 * i, 30.0, 0.2 * i) for i in range(10)]
        frames = [OccupancyGrid(rng.choice(np.array(table.ids, dtype=np.uint8),
                                           size=(40, 40, 16)), 0.4, p, table)
                  for p in poses]
        dense_bytes = labels.size * len(table.ids) * 2
        tracemalloc.start()
        try:
            out = vote_inpaint(gmap, frames, poses, list(range(10)), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.labels != table.unassigned_id).sum() > (labels != 0).sum()
        assert peak < dense_bytes, (peak, dense_bytes)

    def test_peak_memory_follows_the_hole_columns(self):
        # the noisy curve of the CI's rotated vote step: C count bytes per
        # voxel of a hole column, 4 more for each frame's gathers and the
        # winners, and one map copy. One count per hole with an int32 hole
        # -> slot table, beside a map-sized hole mask and the map copy held
        # through the tally, peaked at 1.50x this bound; the per-voxel tally
        # at 0.76x
        spec = WorldSpec(recipe="curve", extent=60.0, radius=20.0)
        poses = curve_trajectory(spec, step=0.5)
        frames = sample_frames(generate_world(spec), poses, crop_dims=(100, 100, 16),
                               noise=0.02, seed=1)
        params = FusionParams()
        keys = select_keyframes(poses, params.d_max)
        gmap = fuse_keyframes(frames, poses, keys, params.margin)
        non_keys = [i for i in range(len(frames)) if i not in keys]
        hole_columns = (gmap.labels == gmap.table.unassigned_id).any(axis=2).sum()
        bound = ((len(gmap.table.ids) + 4) * hole_columns * gmap.dims[2]
                 + gmap.labels.nbytes)
        tracemalloc.start()
        try:
            out = vote_inpaint(gmap, frames, poses, non_keys, params.tau_vote)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.labels != gmap.labels).any()
        assert peak < bound, peak / bound


def reference_small_components(mask, diagonal, cell_area, min_area):
    """The small components by ``ndimage.label`` and a bincount lookup over
    the label image; None when none is small."""
    structure = ndimage.generate_binary_structure(2, 2 if diagonal else 1)
    lab, n = ndimage.label(mask, structure=structure)
    small = np.bincount(lab.ravel(), minlength=n + 1) * cell_area < min_area
    small[0] = False
    return small[lab] if small.any() else None


class TestMorphology:
    def test_small_road_blob_removed(self, table):
        plane = np.full((30, 30), 4, dtype=np.uint8)
        plane[5, 5] = table.road_id  # 0.16 m^2 at 0.4 m voxels
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams())
        assert out.labels[5, 5, 0] == table.unassigned_id

    def test_large_road_component_retained(self, table):
        plane = np.full((30, 30), 4, dtype=np.uint8)
        plane[10:20, 10:20] = table.road_id  # 16 m^2
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams())
        assert (out.labels[10:20, 10:20, 0] == table.road_id).all()

    def test_sidewalk_closing_fills_unassigned_gap(self, table):
        plane = np.zeros((20, 20), dtype=np.uint8)
        plane[5:15, 4:6] = table.sidewalk_id
        plane[10, 4:6] = table.unassigned_id  # one-row nick
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams())
        assert (out.labels[10, 4:6, 0] == table.sidewalk_id).all()

    def test_closing_never_overwrites_assigned(self, table):
        plane = np.zeros((20, 20), dtype=np.uint8)
        plane[5:15, 4:6] = table.sidewalk_id
        plane[10, 4:6] = table.road_id
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams(min_area=0.0))
        assert (out.labels[10, 4:6, 0] == table.road_id).all()


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closing_matches_scipy(self, data):
        nx, ny = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mask = rng.random((nx, ny)) < data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
        assert np.array_equal(_close_3x3(mask),
                              ndimage.binary_closing(mask, structure=np.ones((3, 3), dtype=bool)))

    # 1xN and Nx1 strips up to about 60x60 planes, from empty through noise
    # to full; min_area at 0, at a whole number of cells, one float step
    # either side of it, and above the plane's area
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_small_components_match_ndimage_label(self, data):
        nx, ny = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        fill = data.draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.5, 0.6, 0.8, 0.95, 1.0]))
        mask = rng.random((nx, ny)) < fill
        cell_area = data.draw(st.sampled_from([0.4, 0.25, 0.5, 1.0])) ** 2
        k = data.draw(st.one_of(st.integers(0, 12), st.just(nx * ny + 1)))
        min_area = data.draw(st.sampled_from([np.nextafter(k * cell_area, -np.inf),
                                              k * cell_area,
                                              np.nextafter(k * cell_area, np.inf)]))
        min_area = max(min_area, 0.0)
        for diagonal in (True, False):
            got = _small_components(mask, diagonal, cell_area, min_area)
            want = reference_small_components(mask, diagonal, cell_area, min_area)
            assert (got is None) == (want is None), diagonal
            if want is not None:
                assert got.dtype == bool and got.shape == mask.shape
                assert np.array_equal(got, want), diagonal

    def test_small_holes_in_the_road_filled(self, table):
        plane = np.full((40, 40), 4, dtype=np.uint8)
        plane[5:35, 5:35] = table.road_id
        plane[10, 10] = 4                       # 0.16 m^2 of terrain
        plane[20:23, 20:23] = table.unassigned_id   # 1.44 m^2, unobserved
        plane[12:16, 25:29] = table.sidewalk_id     # 2.56 m^2 >= min_area: kept
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams()).labels[:, :, 0]
        assert out[10, 10] == table.road_id
        assert (out[20:23, 20:23] == table.road_id).all()
        assert (out[12:16, 25:29] == table.sidewalk_id).all()
        assert (out[:5] == 4).all() and (out[:, :5] == 4).all()
        assert refine_morphology(gmap, FusionParams(min_area=0.0)).labels[10, 10, 0] == 4

    def test_holes_are_four_connected(self, table):
        # terrain over x, y < 10 and a diagonal chain of terrain cells off
        # its corner: the 8-connected road runs between the chain's cells,
        # so each is a hole of its own, filled, though it touches the
        # terrain (or the next cell) at a corner
        plane = np.full((30, 30), table.road_id, dtype=np.uint8)
        plane[:10, :10] = 4
        for i in range(10, 14):
            plane[i, i] = 4
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams()).labels[:, :, 0]
        assert (out[:10, :10] == 4).all()
        assert all(out[i, i] == table.road_id for i in range(10, 14))

    def test_removed_blob_not_filled_back(self, table):
        # a road speck inside a large terrain area: removed to unassigned,
        # and the terrain area around it is no hole
        plane = np.full((30, 30), 4, dtype=np.uint8)
        plane[:, 20:] = table.road_id
        plane[8, 8] = table.road_id
        gmap = make_map(plane, table, z_dim=2, free_above=False)
        out = refine_morphology(gmap, FusionParams()).labels[:, :, 0]
        assert out[8, 8] == table.unassigned_id
        assert (out[:, 20:] == table.road_id).all()

    # A share of the z = 0 cells set to random table ids, then pass 3: the
    # road graph's segments and the lanes are as many as on the clean
    # world. Each flipped cell inside the road is a hole the skeleton would
    # loop round, adding segments and lanes.
    @pytest.mark.parametrize("frac", [0.0003, 0.001])
    @pytest.mark.parametrize("spec", [dict(recipe="plus", extent=160.0),
                                      dict(recipe="grid", extent=240.0, blocks=(3, 3))],
                             ids=["plus", "grid"])
    def test_label_noise_leaves_the_phase_a_counts(self, spec, frac):
        world = generate_world(WorldSpec(**spec))

        def counts(gmap):
            gmap = refine_morphology(gmap, FusionParams())
            g, _ = extract_topology(gmap)
            return len(g.segments), len(extract_lanes(gmap, g))

        clean = counts(world)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            labels = world.labels.copy()
            n = round(frac * world.dims[0] * world.dims[1])
            cells = rng.choice(world.dims[0] * world.dims[1], n, replace=False)
            labels[:, :, 0].flat[cells] = rng.choice(np.array(world.table.ids, np.uint8), n)
            noisy = GlobalMap(labels, world.voxel_size, world.origin, world.table)
            assert counts(noisy) == clean, seed


class TestFuseSequence:
    def test_axis_aligned_round_trip_exact(self):
        spec = WorldSpec(recipe="straight", extent=80.0, road_width=9.6)
        world = generate_world(spec)
        poses = straight_trajectory(spec, step=3.2)
        frames = sample_frames(world, poses, crop_dims=(100, 100, 16))
        fused = fuse_sequence(frames, poses, FusionParams())
        # compare on the overlap of the fused map and the world lattice
        vox = world.voxel_size
        off = np.round(np.array([fused.origin.x, fused.origin.y]) / vox).astype(int)
        lo = np.maximum(off, 0)                       # world-index window start
        hi = np.minimum(off + np.array(fused.dims[:2]), world.dims[:2])
        sub = fused.labels[lo[0] - off[0]:hi[0] - off[0],
                           lo[1] - off[1]:hi[1] - off[1], :]
        truth = world.labels[lo[0]:hi[0], lo[1]:hi[1], :]
        assigned = sub != world.table.unassigned_id
        assert assigned.sum() > 100_000
        assert np.array_equal(sub[assigned], truth[assigned])

    # Fused labels of a short noisy sequence of rotated poses off the voxel
    # lattice (4 keyframes; the vote pass fills about 5 400 voxels), hashed.
    # The references above pull back whole footprints through their own copy
    # of the gather, apart from the _frame_columns selection under test;
    # these bytes also pin that copy, so an index error common to both (a
    # footprint cell dropped at the edge, a frame index shifted) moves them.
    def test_rotated_noisy_bytes_pinned(self):
        spec = WorldSpec(recipe="plus", extent=60.0, road_width=6.0)
        poses = [Pose2(12.13 + 2.9 * i, 30.07 + 0.37 * i, 0.11 * i - 0.3)
                 for i in range(12)]
        frames = sample_frames(generate_world(spec), poses, crop_dims=(80, 80, 8),
                               noise=0.05, seed=3)
        fused = fuse_sequence(frames, poses, FusionParams(d_max=8.0, tau_vote=2))
        assert fused.dims == (182, 125, 8)
        assert_pinned("fusion/rotated-noisy", [fused.labels])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FusionParams(d_max=0)
        with pytest.raises(ValueError):
            FusionParams(tau_vote=0)
