"""Two-pass keyframe occupancy fusion.

Phase 1 selects spatially separated keyframes, phase 2 writes them first-wins
into a fresh world map and sinks columns to the ground plane, phase 3 inpaints
the remaining gaps with per-category votes from the non-keyframes, and phase 4
cleans the result morphologically.

Both warping passes pull back only the map columns that can still change,
kept as a sorted list of flat map cells: phase 2 the columns no earlier
keyframe has filled, phase 3 the columns that hold a hole. One routine,
``_frame_columns``, picks a frame's columns from such a list and gathers
what the frame holds there. Along a map row the frame's footprint is one
interval, and two binary searches per row find the listed columns inside
it, so the pull-back work follows the footprint's rows plus the listed
columns inside it, not its axis-aligned box; each of them still passes the
exact in-frame test. The columns come in row-major order, each map cell at
most once, and the frame's sources as flat rows of Z bytes, one ``take``
per frame. Phase 3 then looks up and counts only the voxels that can vote,
assigned in the frame and left unassigned by phase 2, in a tally of one
count per hole and category, so its per-frame work follows the votes and
its memory the holes, not each frame's footprint or the map. Every frame of
a sequence must share frame 0's dims, voxel size and semantic table; phase
2 builds its map under that table, and phase 3 checks that the frames fit
its map: the same z levels, voxel size and table. Phase 2's ground clean-up
finds every column's lowest ground level in one pass over the map (a
comparison per ground id and one ``argmax`` along z) and shifts only the
columns whose ground lies above z = 0. Its z = 0 mode fill counts
each category's neighbours as a uint8 box sum of shifted adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .geometry import Pose2
from .occupancy import NONNEGATIVE, POSITIVE, GlobalMap, Settings, at_least, setting


@dataclass
class FusionParams(Settings):
    d_max: float = setting(10.0, POSITIVE)       # keyframe spacing, meters
    tau_vote: int = setting(3, at_least(1))      # minimum vote count for inpainting
    min_area: float = setting(2.0, NONNEGATIVE)  # road components below this (m^2) are dropped
    margin: float = setting(2.0, NONNEGATIVE)    # world-map padding around footprints, meters


def select_keyframes(poses, d_max: float):
    """Greedy spatial subsampling: keep a pose once it moves more than d_max
    from the last kept one. The first pose is always kept."""
    if len(poses) < 1:
        raise ValueError("need at least one pose")
    keys = [0]
    last = np.array([poses[0].x, poses[0].y])
    for i, p in enumerate(poses[1:], start=1):
        here = np.array([p.x, p.y])
        if np.linalg.norm(here - last) > d_max:
            keys.append(i)
            last = here
    return keys


def _frame_footprint(pose: Pose2, dims, vox: float):
    """World-frame axis-aligned bounding box of an ego-centered crop."""
    X, Y = dims[0], dims[1]
    corners_local = np.array([
        [-X / 2.0, -Y / 2.0], [X / 2.0, -Y / 2.0],
        [-X / 2.0, Y / 2.0], [X / 2.0, Y / 2.0],
    ]) * vox
    corners = pose.transform_point(corners_local)
    return corners.min(axis=0), corners.max(axis=0)


def _map_extent(poses, dims, vox: float, margin: float):
    lo = np.array([np.inf, np.inf])
    hi = np.array([-np.inf, -np.inf])
    for p in poses:
        flo, fhi = _frame_footprint(p, dims, vox)
        lo = np.minimum(lo, flo)
        hi = np.maximum(hi, fhi)
    lo -= margin
    hi += margin
    # snap the origin to the voxel lattice so axis-aligned warps stay exact
    lo = np.floor(lo / vox) * vox
    nx = int(math.ceil((hi[0] - lo[0]) / vox))
    ny = int(math.ceil((hi[1] - lo[1]) / vox))
    return lo, (nx, ny)


def _pull_back(gmap: GlobalMap, pose: Pose2, dims, gx, gy):
    """(fx, fy, ok): the frame indices of map cells (gx, gy) and whether
    they fall inside the frame. Cell centres go through the inverse ego pose
    and ``floor``, the exact inverse of the crop sampling. The arithmetic is
    elementwise, so a cell's answer does not depend on which other cells
    are pulled back with it."""
    vox = gmap.voxel_size
    X, Y = dims[0], dims[1]
    lx, ly = pose.inverse().transform_xy(*gmap.cell_center(gx, gy))
    fx = np.floor(lx / vox + X / 2.0).astype(np.int64)
    fy = np.floor(ly / vox + Y / 2.0).astype(np.int64)
    return fx, fy, (fx >= 0) & (fx < X) & (fy >= 0) & (fy < Y)


def _row_span(a, b, n):
    """Float bounds (lo, hi) of the gy along each map row at which the frame
    coordinate ``a + b * gy`` (in voxels, one ``a`` per row) lies in
    [-1, n + 1]: the frame's [0, n) grown by one voxel on each side. With
    ``b == 0`` the coordinate is constant along a row, so a row is all in
    or all out."""
    if b == 0:
        inside = (a >= -1) & (a <= n + 1)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    t0, t1 = (-1 - a) / b, (n + 1 - a) / b
    return np.minimum(t0, t1), np.maximum(t0, t1)


def _footprint_rows(gmap: GlobalMap, pose: Pose2, dims):
    """(rows, jlo, jhi): the map rows of the on-map part of the frame's
    axis-aligned footprint box and, for each, a range [jlo, jhi) of gy inside
    the box that holds every cell of that row inside the frame; None when
    the footprint misses the map.

    Along a map row both frame coordinates are linear in gy, so the frame
    rectangle grown by one voxel on every side cuts the row in one interval.
    The margin is far larger than the rounding of the exact pull-back, so
    the ranges are supersets: ``_pull_back`` still decides each cell.
    """
    lo, hi = _frame_footprint(pose, dims, gmap.voxel_size)
    g0 = np.maximum(gmap.cell_of(*lo), 0)
    g1 = np.minimum(np.add(gmap.cell_of(*hi), 1), gmap.dims[:2])  # exclusive
    if np.any(g1 <= g0):
        return None
    inv = pose.inverse()
    c, s = math.cos(inv.yaw), math.sin(inv.yaw)  # as in Pose2.transform_xy
    rows = np.arange(g0[0], g1[0], dtype=np.int64)
    lx, ly = inv.transform_xy(*gmap.cell_center(rows, 0))  # at gy = 0
    vox = gmap.voxel_size
    # one step in gy moves the frame coordinates by (-s, c) voxels
    ulo, uhi = _row_span(lx / vox + dims[0] / 2.0, -s, dims[0])
    vlo, vhi = _row_span(ly / vox + dims[1] / 2.0, c, dims[1])
    jlo = np.clip(np.ceil(np.maximum(ulo, vlo)), g0[1], g1[1]).astype(np.int64)
    jhi = np.clip(np.floor(np.minimum(uhi, vhi)) + 1, g0[1], g1[1]).astype(np.int64)
    return rows, jlo, np.maximum(jhi, jlo)


def _frame_columns(gmap: GlobalMap, pose: Pose2, frame, cells):
    """(k, src) for every column of the sorted int64 list ``cells`` (flat map
    cells gx * GY + gy) that lies inside ``frame`` at ``pose``: ``cells[k]``
    are those columns in row-major order, each at most once, and ``src`` the
    frame's label columns there, one row of Z bytes each; None, without a
    read of the frame's labels, when there are none. Two binary searches per
    footprint row (``_footprint_rows``) pick the listed columns pulled back."""
    hit = _footprint_rows(gmap, pose, frame.dims)
    if hit is None:
        return None
    rows, jlo, jhi = hit
    GY = gmap.dims[1]
    start = np.searchsorted(cells, rows * GY + jlo)
    counts = np.searchsorted(cells, rows * GY + jhi) - start
    # ragged ranges start[i] .. start[i] + counts[i], concatenated
    k = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    gx = np.repeat(rows, counts)
    fx, fy, ok = _pull_back(gmap, pose, frame.dims, gx, cells[k] - gx * GY)
    if not ok.any():
        return None
    X, Y, Z = frame.dims
    return k[ok], frame.labels.reshape(X * Y, Z).take(fx[ok] * Y + fy[ok], axis=0)


def _frame_geometry(frames):
    """(dims, voxel size, semantic table) shared by every frame of a
    sequence. Both passes index each frame with these and read its label
    values under frame 0's semantic table, so a frame that differs from
    frame 0 in any of the three raises a ValueError naming its index and
    what differs."""
    dims, vox, table = frames[0].dims, frames[0].voxel_size, frames[0].table
    for i, f in enumerate(frames):
        if f.dims != dims:
            raise ValueError(f"frame {i} has dims {f.dims}, frame 0 has {dims}")
        if f.voxel_size != vox:
            raise ValueError(f"frame {i} has voxel size {f.voxel_size} m, "
                             f"frame 0 has {vox} m")
        if f.table != table:
            raise ValueError(f"frame {i} has a different semantic table than frame 0")
    return dims, vox, table


def fuse_keyframes(frames, poses, keys, margin: float) -> GlobalMap:
    """Pass 1: warp each keyframe into the world map, writing only voxels that
    are still unassigned (first-wins), then sink every column so its lowest
    ground-role voxel sits at z=0 and mode-fill unassigned z=0 cells.

    First-wins never changes a column without an unassigned voxel, so each
    keyframe visits only the columns still open, and a column leaves the
    open list once it is filled. Map columns move as flat rows of Z bytes,
    one ``take`` and one write back per keyframe."""
    if len(frames) != len(poses):
        raise ValueError("frames and poses must pair up")
    if not keys:
        raise ValueError("empty keyframe set")
    dims, vox, table = _frame_geometry(frames)
    Z = dims[2]
    lo, (nx, ny) = _map_extent([poses[k] for k in keys], dims, vox, margin)
    labels = np.full((nx, ny, Z), table.unassigned_id, dtype=np.uint8)
    gmap = GlobalMap(labels, vox, Pose2(lo[0], lo[1], 0.0), table)
    columns = labels.reshape(nx * ny, Z)
    open_cells = np.arange(nx * ny, dtype=np.int64)  # still hold an unassigned voxel

    for k in keys:
        hit = _frame_columns(gmap, poses[k], frames[k], open_cells)
        if hit is None:
            continue
        row, src = hit
        cells = open_cells[row]
        dst = columns.take(cells, axis=0)
        np.copyto(dst, src, where=dst == table.unassigned_id)
        columns[cells] = dst
        open_cells = np.delete(open_cells, row[(dst != table.unassigned_id).all(axis=1)])

    _sink_columns(gmap, table)
    _mode_fill_ground(gmap, table)
    return gmap


def _sink_columns(gmap: GlobalMap, table) -> None:
    """Shift each (x, y) column down so its lowest ground-role voxel is at z=0,
    in place; a column without ground stays as it is.

    A comparison per ground id marks the ground voxels in one bool volume
    (a lookup indexed with the labels would cast them to 8-byte indices),
    and one ``argmax`` along z finds each column's lowest ground level dz.
    Only the columns with dz > 0 move, one group per distinct dz: a group's
    rows shift down by dz in one gather and write, and their dz top levels
    become unassigned. Index arrays hold
    one entry per moved column, not per voxel, so the pass stays within a
    few map sizes of memory even when every column moves."""
    labels = gmap.labels
    Y, Z = labels.shape[1:]
    ground = np.zeros(labels.shape, dtype=bool)
    for value in table.ground_ids:
        ground |= labels == value
    dz = ground.argmax(axis=2).ravel()  # flat (x, y); 0 for a column without ground
    del ground  # before the gathers below
    for d in np.unique(dz[dz > 0]):
        gx, gy = np.divmod(np.flatnonzero(dz == d), Y)
        labels[gx, gy, :Z - d] = labels[gx, gy, d:]
        labels[gx, gy, Z - d:] = table.unassigned_id


def _mode_fill_ground(gmap: GlobalMap, table) -> None:
    """Fill unassigned z=0 cells with the mode of their assigned 3x3 neighbors;
    ties break toward the lowest category id.

    Each category's neighbour count is a uint8 box sum, two shifted adds
    over the plane padded by one cell of the unassigned id, which no
    category matches. A hole with no assigned neighbour stays unassigned."""
    plane = gmap.labels[:, :, 0]
    holes = plane == table.unassigned_id
    if not holes.any():
        return
    padded = np.pad(plane, 1, constant_values=table.unassigned_id)
    best_count = np.zeros(plane.shape, dtype=np.uint8)
    best_label = np.full(plane.shape, table.unassigned_id, dtype=np.uint8)
    for cid in sorted(table.ids):
        hit = (padded == cid).view(np.uint8)
        rows = hit[:-2] + hit[1:-1] + hit[2:]
        count = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]  # at most 9
        better = count > best_count  # strict: earlier (lower) id wins ties
        np.copyto(best_count, count, where=better)
        best_label[better] = cid
    fill = holes & (best_count > 0)
    plane[fill] = best_label[fill]


def _tally_votes(gmap: GlobalMap, unassigned, frames, poses, non_keys, cids):
    """(C, n_holes) vote counts of the non-keyframes: row c for category
    ``cids[c]``, column k for the k-th True voxel of ``unassigned`` in C
    order. Category-major rows keep the winner's scans contiguous. Frames
    whose z levels, voxel size or semantic table differ from the map's
    raise a ValueError, since their label values are counted under
    ``gmap.table``.

    The hole columns are one sorted flat list, which ``_frame_columns``
    picks each frame's columns from; their positions in the list are the
    rows of ``column_holes``. A one-byte mask, assigned in the frame and a
    hole in the map, picks the voxels that can vote, and only those go
    through the label -> category and hole -> slot lookups. The category
    lookup has an entry per uint8 label value, set at the table's ids; the
    slot table keeps int32 hole indices; flat tally offsets are formed in
    int64 on the voters only.
    """
    dims, vox, table = _frame_geometry(frames)
    Z = unassigned.shape[2]
    if (dims[2], vox) != (Z, gmap.voxel_size):
        raise ValueError(f"frames have {dims[2]} z levels of {vox} m, "
                         f"the map {Z} of {gmap.voxel_size} m")
    if table != gmap.table:
        # every frame shares frame 0's table
        raise ValueError("frame 0 has a different semantic table than the map")
    hole_column = unassigned.any(axis=2)
    hole_cells = np.flatnonzero(hole_column)  # sorted flat (x, y); k-th hole column
    column_holes = unassigned[hole_column]  # (hole columns, Z)
    n_holes = int(np.count_nonzero(column_holes))
    slot = np.full(column_holes.size, -1, dtype=np.int32)  # flat (column, z) -> hole
    slot[column_holes.reshape(-1)] = np.arange(n_holes, dtype=np.int32)
    C = len(cids)
    category = np.full(256, -1, dtype=np.int16)  # uint8 label value -> tally row
    category[cids] = np.arange(C)
    votes = np.zeros(C * n_holes, dtype=np.min_scalar_type(len(non_keys)))

    unassigned_id = gmap.table.unassigned_id
    for t in non_keys:
        hit = _frame_columns(gmap, poses[t], frames[t], hole_cells)
        if hit is None:
            continue
        crow, src = hit
        cand = np.flatnonzero((src != unassigned_id) & column_holes.take(crow, axis=0))
        cls = category[src.reshape(-1)[cand]]
        ok = cls >= 0  # label values outside the table cast no vote
        cand, cls = cand[ok], cls[ok]
        row, z = np.divmod(cand, Z)
        hole = slot[crow[row] * np.int64(Z) + z]
        votes[cls * np.int64(n_holes) + hole] += 1
    return votes.reshape(C, n_holes)


def vote_inpaint(gmap: GlobalMap, frames, poses, non_keys, tau_vote: int) -> GlobalMap:
    """Pass 2: per-category indicator votes from warped non-keyframes fill the
    still-unassigned voxels; argmax wins if it reaches tau_vote, ties break
    toward the lowest category id. Pass-1 voxels are never modified.

    Votes go to a compact (C, n_holes) tally (``_tally_votes``), so memory
    scales with the holes, not with the map. A frame casts at most one vote
    per hole, because ``_frame_columns`` yields each hole column at most
    once, so a plain fancy increment counts exactly and no count exceeds
    ``len(non_keys)``: the tally takes the smallest unsigned dtype that
    holds that (uint8 up to 255 frames, uint16 up to 65 535), so it never
    wraps. The winner comes from a running maximum over the C category rows
    and a reverse pass that keeps the lowest category reaching it.
    """
    table = gmap.table
    out = gmap.labels.copy()
    unassigned = out == table.unassigned_id
    if not non_keys or not unassigned.any():
        return GlobalMap(out, gmap.voxel_size, gmap.origin, table)
    cids = sorted(table.ids)
    votes = _tally_votes(gmap, unassigned, frames, poses, non_keys, cids)
    best = votes[0].copy()
    for row in votes[1:]:
        np.maximum(best, row, out=best)
    filled = np.empty(len(best), dtype=np.uint8)
    for cid, row in reversed(list(zip(cids, votes))):
        np.putmask(filled, row == best, cid)
    filled[best < tau_vote] = table.unassigned_id
    out[unassigned] = filled
    return GlobalMap(out, gmap.voxel_size, gmap.origin, table)


def refine_morphology(gmap: GlobalMap, params: FusionParams) -> GlobalMap:
    """Pass 3: binary closing (3x3) on the sidewalk class at z=0 and removal of
    road connected components smaller than min_area."""
    table = gmap.table
    out = gmap.labels.copy()
    plane = out[:, :, 0]

    sidewalk = plane == table.sidewalk_id
    closed = scipy.ndimage.binary_closing(sidewalk, structure=np.ones((3, 3), dtype=bool))
    grown = closed & ~sidewalk
    # closing only ever adds pixels; fill them in where nothing else is assigned
    plane[grown & (plane == table.unassigned_id)] = table.sidewalk_id

    road = plane == table.road_id
    lab, n = scipy.ndimage.label(road, structure=np.ones((3, 3), dtype=bool))
    if n:
        areas = scipy.ndimage.sum_labels(np.ones_like(lab), lab, index=np.arange(1, n + 1))
        cell_area = gmap.voxel_size ** 2
        small = np.nonzero(areas * cell_area < params.min_area)[0] + 1
        if small.size:
            kill = np.isin(lab, small)
            plane[kill] = table.unassigned_id
    return GlobalMap(out, gmap.voxel_size, gmap.origin, table)


def fuse_sequence(frames, poses, params: FusionParams) -> GlobalMap:
    """Phases 1-4 over an ego-centric frame sequence, in the first frame's table."""
    keys = select_keyframes(poses, params.d_max)
    gmap = fuse_keyframes(frames, poses, keys, margin=params.margin)
    key_set = set(keys)
    non_keys = [i for i in range(len(frames)) if i not in key_set]
    gmap = vote_inpaint(gmap, frames, poses, non_keys, params.tau_vote)
    return refine_morphology(gmap, params)
