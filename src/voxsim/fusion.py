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
exact in-frame test, whose rotation takes each footprint row's terms
once, not once per cell. The columns come in row-major order, each map
cell at most once, and the frame's sources as flat rows of Z bytes, one
``take`` per frame. Phase 3 then looks up and counts only the voxels the
frame assigns, in a tally of one count per category and voxel of a hole
column, indexed by the column's place in the list and the level, so its
per-frame work follows the votes and its memory the hole columns, C bytes
per voxel of them, not each frame's footprint or the map. Every frame of
a sequence must share frame 0's dims, voxel size and semantic table; phase
2 builds its map under that table, and phase 3 checks that the frames fit
its map: the same z levels, voxel size and table. Phase 2's ground clean-up
finds every column's lowest ground level in one pass over the map (a
comparison per ground id and the lowest set bit of the column's words)
and shifts only the columns whose ground lies above z = 0. Its z = 0 mode
fill counts each category's neighbours as a uint8 box sum of shifted adds.
Phase 3 picks a winner only for the voxels whose best count reaches
``tau_vote``, and writes winners only into holes.

Column tests read words, not bytes: ``_words`` views a column's Z label
bytes (or bools) as the widest little-endian unsigned words that tile Z,
8, 4, 2 or 1 bytes, so a 16-level column is two 8-byte words. Whether a
column holds a hole, or a keyframe left it without one, is the OR of its
words (``_columns_any``): one whole-array operation per word, where
``any``/``all`` along z would reduce each short row on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _map_extent(poses, dims, vox: float, margin: float):
    """The map origin and (nx, ny) cell counts that hold the ego-centred
    crops at every pose, with ``margin`` meters around them."""
    X, Y = dims[0], dims[1]
    corners = np.array([[-X, -Y], [X, -Y], [-X, Y], [X, Y]]) / 2.0 * vox
    world = np.concatenate([p.transform_point(corners) for p in poses])
    lo = world.min(axis=0) - margin
    hi = world.max(axis=0) + margin
    # snap the origin to the voxel lattice so axis-aligned warps stay exact
    lo = np.floor(lo / vox) * vox
    return lo, tuple(np.ceil((hi - lo) / vox).astype(int).tolist())


def _words(rows):
    """``rows``, a bool or uint8 array with Z bytes along its last axis, as
    (..., Z // w) little-endian unsigned words of w bytes, w the widest of
    8, 4, 2 and 1 that divides Z: word j holds bytes j * w .. j * w + w - 1,
    byte i of it at bits 8 * i ... 8 * i + 7. A view where ``rows`` is
    C-contiguous. Returns (words, w)."""
    w = next(w for w in (8, 4, 2, 1) if rows.shape[-1] % w == 0)
    return np.ascontiguousarray(rows).view(np.uint8).view(f"<u{w}"), w


def _columns_any(mask):
    """``mask.any(axis=-1)`` of a bool array: each row of Z bytes is OR-ed
    as ``_words``, one whole-array operation per word of the row, where a
    reduction along a short last axis pays numpy's per-row cost. ``all`` of
    a row is ``~_columns_any(~row)``."""
    words, _ = _words(mask)
    acc = words[..., 0]
    if words.shape[-1] > 1:
        acc = acc | words[..., 1]
        for j in range(2, words.shape[-1]):
            acc |= words[..., j]
    return acc != 0


def _pull_back(gmap: GlobalMap, pose: Pose2, dims, gx, gy, counts=None):
    """(fx, fy, ok): the frame indices of map cells (gx, gy) and whether
    they fall inside the frame. Cell centres go through the inverse ego pose
    and ``floor``, the exact inverse of the crop sampling. With ``counts``,
    ``gx`` holds map rows, and row i the next ``counts[i]`` cells of ``gy``.

    The rotation is ``Pose2.transform_xy``'s in its order of operations: the
    row terms ``x + c * cx`` and ``y + s * cx`` once per entry of ``gx``,
    then ``- s * cy`` and ``+ c * cy`` per cell. Every step is elementwise,
    so a cell's answer does not depend on which other cells are pulled back
    with it, nor on whether its row comes once or once per cell."""
    vox = gmap.voxel_size
    X, Y = dims[0], dims[1]
    inv = pose.inverse()
    c, s = math.cos(inv.yaw), math.sin(inv.yaw)
    cx, cy = gmap.cell_center(gx, gy)
    ax, ay = inv.x + c * cx, inv.y + s * cx
    if counts is not None:
        ax, ay = np.repeat(ax, counts), np.repeat(ay, counts)
    fx = np.floor((ax - s * cy) / vox + X / 2.0).astype(np.int64)
    fy = np.floor((ay + c * cy) / vox + Y / 2.0).astype(np.int64)
    # a negative index reads as a uint64 above any frame size
    return fx, fy, (fx.view(np.uint64) < X) & (fy.view(np.uint64) < Y)


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
    the box misses the map.

    The box and the rows' frame coordinates come from the pose in scalar
    arithmetic, in map cells: the box is the frame rectangle's bounding box
    grown by a cell on every side. Along a map row both frame coordinates
    are linear in gy, so the frame rectangle grown by one voxel on every
    side cuts the row in one interval. The margins are far larger than the
    rounding of the exact pull-back, so the ranges are supersets:
    ``_pull_back`` still decides each cell.
    """
    X, Y = dims[0], dims[1]
    vox = gmap.voxel_size
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    px = (pose.x - gmap.origin.x) / vox  # frame centre in map cells
    py = (pose.y - gmap.origin.y) / vox
    hx = (abs(c) * X + abs(s) * Y) / 2.0 + 1.0  # box half-extents in cells
    hy = (abs(s) * X + abs(c) * Y) / 2.0 + 1.0
    GX, GY = gmap.dims[:2]
    x0, x1 = max(math.floor(px - hx), 0), min(math.ceil(px + hx), GX)
    y0, y1 = max(math.floor(py - hy), 0), min(math.ceil(py + hy), GY)
    if x1 <= x0 or y1 <= y0:
        return None
    rows = np.arange(x0, x1, dtype=np.int64)
    # frame coordinates (u, v) in voxels of cell (gx, gy): the centre's
    # offset (gx + 0.5 - px, gy + 0.5 - py) turned by -yaw, plus (X, Y) / 2;
    # one step in gy moves them by (s, c)
    dx = rows - (px - 0.5)
    ulo, uhi = _row_span(c * dx + (s * (0.5 - py) + X / 2.0), s, X)
    vlo, vhi = _row_span((c * (0.5 - py) + Y / 2.0) - s * dx, c, Y)
    jlo = np.clip(np.ceil(np.maximum(ulo, vlo)), y0, y1).astype(np.int64)
    jhi = np.clip(np.floor(np.minimum(uhi, vhi)) + 1, y0, y1).astype(np.int64)
    return rows, jlo, np.maximum(jhi, jlo)


def _frame_columns(gmap: GlobalMap, pose: Pose2, frame, cells):
    """(k, src) for every column of the sorted int64 list ``cells`` (flat map
    cells gx * GY + gy) that lies inside ``frame`` at ``pose``: ``cells[k]``
    are those columns in row-major order, each at most once, and ``src`` the
    frame's label columns there, one row of Z bytes each; None, without a
    read of the frame's labels, when there are none. Two binary searches per
    footprint row (``_footprint_rows``) pick the listed columns pulled back,
    and ``_pull_back`` takes each footprint row's terms once."""
    hit = _footprint_rows(gmap, pose, frame.dims)
    if hit is None:
        return None
    rows, jlo, jhi = hit
    base = rows * gmap.dims[1]  # flat cell of each row's gy = 0
    start = np.searchsorted(cells, base + jlo)
    counts = np.searchsorted(cells, base + jhi) - start
    # ragged ranges start[i] .. start[i] + counts[i], concatenated
    k = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    gy = cells[k] - np.repeat(base, counts)
    fx, fy, ok = _pull_back(gmap, pose, frame.dims, rows, gy, counts)
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
        open_cells = np.delete(open_cells, row[~_columns_any(dst == table.unassigned_id)])

    _sink_columns(gmap, table)
    _mode_fill_ground(gmap, table)
    return gmap


def _sink_columns(gmap: GlobalMap, table) -> None:
    """Shift each (x, y) column down so its lowest ground-role voxel is at z=0,
    in place; a column without ground stays as it is.

    A comparison per ground id marks the ground voxels in one bool volume
    (a lookup indexed with the labels would cast them to 8-byte indices).
    Each column's lowest ground level dz comes from its ``_words``, a few
    whole-plane operations per word: the lowest set bit of a word, isolated
    as ``word & -word``, is bit 8 * i of the word's byte i, so the bits
    below it count 8 * i; the lowest word with ground decides. Only the
    columns with dz > 0 move, one group per distinct dz: a group's rows
    shift down by dz in one gather and write, and their dz top levels become
    unassigned. The per-column arrays hold a word or less per column and
    index arrays one entry per moved column, so the pass stays within a few
    map sizes of memory even when every column moves."""
    labels = gmap.labels
    Y, Z = labels.shape[1:]
    ground = np.zeros(labels.shape, dtype=bool)
    for value in table.ground_ids:
        ground |= labels == value
    words, w = _words(ground.reshape(-1, Z))
    dz = np.zeros(len(words), dtype=np.min_scalar_type(Z))  # flat (x, y)
    for j in reversed(range(words.shape[1])):  # lower words overwrite higher
        word = words[:, j]
        low = np.negative(word)
        low &= word  # the lowest set bit, 0 for a word without ground
        hit = low != 0
        low -= 1
        byte = np.bitwise_count(low)
        byte >>= 3
        np.add(byte, j * w, out=dz, where=hit, dtype=dz.dtype)
    del ground, words, low, hit, byte  # before the gathers below
    for d in np.unique(dz[dz > 0]).tolist():
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


def _tally_votes(gmap: GlobalMap, hole_cells, frames, poses, non_keys, cids):
    """(C, n * Z) vote counts of the non-keyframes over the n map columns
    ``hole_cells`` (sorted flat map cells): row c counts category
    ``cids[c]``, entry i * Z + z level z of listed column i. Category-major
    rows keep the winner's scans contiguous. Frames whose z levels, voxel
    size or semantic table differ from the map's raise a ValueError, since
    their label values are counted under ``gmap.table``.

    ``_frame_columns`` picks each frame's columns from ``hole_cells`` and
    returns their positions in the list, so a voxel's entry is its column's
    position times Z plus its level, with no hole -> slot table. Every voxel
    of a listed column that the frame assigns votes, its pass-1 voxels too:
    their winners are never written back, and they spare a mask of the map's
    holes per frame. Only the voters go through the label -> offset lookup,
    which has an entry per uint8 label value, set at the table's ids to the
    start of their category's row, and -1 elsewhere; flat tally offsets are
    formed in int64 on the voters only.
    """
    dims, vox, table = _frame_geometry(frames)
    Z = gmap.labels.shape[2]
    if (dims[2], vox) != (Z, gmap.voxel_size):
        raise ValueError(f"frames have {dims[2]} z levels of {vox} m, "
                         f"the map {Z} of {gmap.voxel_size} m")
    if table != gmap.table:
        # every frame shares frame 0's table
        raise ValueError("frame 0 has a different semantic table than the map")
    C = len(cids)
    size = hole_cells.size * Z
    offset = np.full(256, -1, dtype=np.int64)  # uint8 label value -> row start
    offset[cids] = np.arange(C) * size
    votes = np.zeros(C * size, dtype=np.min_scalar_type(len(non_keys)))

    unassigned_id = gmap.table.unassigned_id
    for t in non_keys:
        hit = _frame_columns(gmap, poses[t], frames[t], hole_cells)
        if hit is None:
            continue
        crow, src = hit
        cand = np.flatnonzero(src != unassigned_id)
        at = offset[src.reshape(-1)[cand]]
        ok = at >= 0  # label values outside the table cast no vote
        cand, at = cand[ok], at[ok]
        # row r of src is listed column crow[r]: its voxels move by (crow[r] - r) * Z
        shift = crow - np.arange(crow.size)
        shift *= Z
        at += cand
        at += shift[cand // Z]
        votes[at] += 1
    return votes.reshape(C, size)


def vote_inpaint(gmap: GlobalMap, frames, poses, non_keys, tau_vote: int) -> GlobalMap:
    """Pass 2: per-category indicator votes from warped non-keyframes fill the
    still-unassigned voxels; argmax wins if it reaches tau_vote, ties break
    toward the lowest category id. Pass-1 voxels are never modified.

    Votes go to a (C, hole columns x Z) tally (``_tally_votes``), one count
    per category and voxel of a map column that holds a hole: C count bytes
    per such voxel, at most C times the map's bytes, and at most 1.5 times
    one count per hole plus an int32 hole -> slot table under the default
    six-category table. A frame casts at most one vote per voxel, because
    ``_frame_columns`` yields each column at most once, so a plain fancy
    increment counts exactly and no count exceeds ``len(non_keys)``: the
    tally takes the smallest unsigned dtype that holds that (uint8 up to 255
    frames, uint16 up to 65 535), so it never wraps. ``_vote_winners`` turns
    the tally into labels. The pass keeps no map-sized mask past the search
    for hole columns and copies the map only after the tally is freed; the
    winners go back only where the hole columns are unassigned, so their
    pass-1 voxels keep their labels.
    """
    table = gmap.table
    Z = gmap.labels.shape[2]
    columns = gmap.labels.reshape(-1, Z)
    hole_cells = np.flatnonzero(_columns_any(columns == table.unassigned_id))
    if not non_keys or not hole_cells.size:
        return GlobalMap(gmap.labels.copy(), gmap.voxel_size, gmap.origin, table)
    cids = sorted(table.ids)
    votes = _tally_votes(gmap, hole_cells, frames, poses, non_keys, cids)
    filled = _vote_winners(votes, cids, tau_vote, table.unassigned_id).reshape(-1, Z)
    del votes
    out = gmap.labels.copy()
    out_columns = out.reshape(-1, Z)
    before = out_columns.take(hole_cells, axis=0)
    np.copyto(filled, before, where=before != table.unassigned_id)
    out_columns[hole_cells] = filled
    return GlobalMap(out, gmap.voxel_size, gmap.origin, table)


def _vote_winners(votes, cids, tau_vote: int, unassigned_id: int):
    """uint8 label of each voxel, one per column of the (C, n) tally
    ``votes`` (row c counts category ``cids[c]``, ascending): the category
    with the most votes when that count reaches ``tau_vote``, the lowest one
    on ties, and ``unassigned_id`` below it. A running maximum over the rows
    gives each voxel's best count, and only the voxels whose best count
    reaches ``tau_vote`` go on: a reverse pass over their columns keeps the
    lowest category that reaches it."""
    best = votes[0].copy()
    for row in votes[1:]:
        np.maximum(best, row, out=best)
    voted = np.flatnonzero(best >= tau_vote)
    best = best[voted]
    winner = np.empty(len(voted), dtype=np.uint8)
    for cid, row in reversed(list(zip(cids, votes))):
        np.putmask(winner, row[voted] == best, cid)
    filled = np.full(votes.shape[1], unassigned_id, dtype=np.uint8)
    filled[voted] = winner
    return filled


def _close_3x3(mask: np.ndarray) -> np.ndarray:
    """``scipy.ndimage.binary_closing(mask, np.ones((3, 3)))`` bit for bit:
    the 3x3 square is a 3-cell segment along each axis, so the dilation and
    then the erosion each take one shifted OR (AND) per neighbour and axis,
    and the erosion reads the cells off the plane as False (scipy's
    ``border_value=0``), so it clears the plane's edge."""
    out = mask.copy()
    for op in (np.logical_or, np.logical_and):
        for along_y in (False, True):
            src = out.copy()
            view, src = (out.T, src.T) if along_y else (out, src)
            op(view[1:], src[:-1], out=view[1:])
            op(view[:-1], src[1:], out=view[:-1])
            if op is np.logical_and:
                view[0] = view[-1] = False
    return out


def _small_components(mask: np.ndarray, diagonal: bool, cell_area: float, min_area: float):
    """Cells of ``mask``'s connected components (8-connected when
    ``diagonal``, else 4-connected) whose area is under ``min_area``; None
    when no component is that small. ``scipy.ndimage.label`` with a bincount
    lookup is the reference, bit for bit.

    The components are found from the mask's runs along its rows (He, Chao
    and Suzuki's run-based labelling). One diff of the plane, padded with a
    clear column on each side, gives every run's start and stop. A run
    touches the runs of the next row whose column intervals overlap its own,
    widened by one column when ``diagonal``; those form one contiguous range
    of the row-major run list, found by two binary searches over keys
    ``row * (W + 2) + column`` that cannot reach a third row. Labels are
    unioned by hooking each touching pair's larger root onto the smaller and
    pointer jumping, until every touching pair shares a root. A component's
    area is the whole count of its runs' cells, and only the runs of small
    components are painted."""
    nx, ny = mask.shape
    padded = np.zeros((nx, ny + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    # edges on the (nx, ny + 1) grid: each row's runs open (+1) and close
    # (-1) in turn, so the flat nonzero positions alternate start and stop
    edges = np.flatnonzero(np.diff(padded, axis=1))
    starts, stops = edges[0::2], edges[1::2]
    row = starts // (ny + 1)
    start_key, stop_key = starts + row, stops + row
    # the next row's runs that touch each run stop after its start and
    # start before its stop, both widened by ``reach``
    reach = 1 if diagonal else 0
    first = np.searchsorted(stop_key, start_key + (ny + 2) - reach, side="right")
    count = np.searchsorted(start_key, stop_key + (ny + 2) + reach, side="left") - first
    a = np.repeat(np.arange(len(starts)), count)
    b = np.arange(len(a)) + np.repeat(first - (np.cumsum(count) - count), count)

    label = np.arange(len(starts))
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up

    cells = np.bincount(label, weights=stops - starts, minlength=len(starts)).astype(np.int64)
    small = (cells * cell_area < min_area)[label]
    if not small.any():
        return None
    paint = np.zeros((nx, ny + 1), dtype=np.int8)
    paint.flat[starts[small]] = 1
    paint.flat[stops[small]] = -1
    return np.cumsum(paint, axis=1, dtype=np.int8)[:, :ny].astype(bool)


def refine_morphology(gmap: GlobalMap, params: FusionParams) -> GlobalMap:
    """Pass 3 at z=0: binary closing (3x3) on the sidewalk class, removal of
    road components smaller than min_area, then a fill with road of the
    non-road components smaller than min_area, the holes in the road.

    Road components are 8-connected and holes 4-connected, the dual pair, so
    a hole is cut off from the rest of the non-road plane exactly when the
    road encloses it. The fill runs after the removal: a removed blob's cells
    join the non-road plane around them first, so the fill never restores a
    removed blob and the removal never takes back a filled hole. Both find
    their components from the plane's row runs (``_small_components``) and
    the closing is shifted array operations, so pass 3 loads no scipy
    submodule."""
    table = gmap.table
    out = gmap.labels.copy()
    plane = out[:, :, 0]

    sidewalk = plane == table.sidewalk_id
    grown = _close_3x3(sidewalk) & ~sidewalk
    # closing only ever adds pixels; fill them in where nothing else is assigned
    plane[grown & (plane == table.unassigned_id)] = table.sidewalk_id

    cell_area = gmap.voxel_size ** 2
    road = plane == table.road_id
    blobs = _small_components(road, True, cell_area, params.min_area)
    if blobs is not None:
        plane[blobs] = table.unassigned_id
        road &= ~blobs
    holes = _small_components(~road, False, cell_area, params.min_area)
    if holes is not None:
        plane[holes] = table.road_id
    return GlobalMap(out, gmap.voxel_size, gmap.origin, table)


def fuse_sequence(frames, poses, params: FusionParams) -> GlobalMap:
    """Phases 1-4 over an ego-centric frame sequence, in the first frame's table."""
    keys = select_keyframes(poses, params.d_max)
    gmap = fuse_keyframes(frames, poses, keys, margin=params.margin)
    key_set = set(keys)
    non_keys = [i for i in range(len(frames)) if i not in key_set]
    gmap = vote_inpaint(gmap, frames, poses, non_keys, params.tau_vote)
    return refine_morphology(gmap, params)
