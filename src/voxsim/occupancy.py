"""Semantic occupancy volumes, the category table (``ids_for``), world-to-cell
conversion (``GlobalMap.cell_of``/``cell_center``), setting rules, OCCG I/O
and the JSON input and output files (``load_json_input``, ``save_json``),
trajectory files among them (``load_trajectory``, ``save_trajectory``).

``GridFile`` is the one OCCG reader: opening one reads and checks the header
and the payload's length, and its ``labels`` are read from disk on each
access, so a sequence of frames can be passed around as files and held one
frame at a time. ``read_grid`` loads a whole file through it.
``write_grids`` writes a stream of grids, hashing and writing each one on a
writer thread while the caller makes the next."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
import struct
import sys
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2

ROLES = ("road", "sidewalk", "vehicle", "ground", "obstacle", "free", "other")
GROUND_ROLES = ("road", "sidewalk", "ground")


@dataclass(frozen=True)
class SemanticTable:
    """Ordered category table: (id, name, role) triples plus the unassigned sentinel.

    Labels are uint8, so construction refuses a category id or
    ``unassigned_id`` that is not an int in 0-255 (bools excluded): no
    table exists whose ids a label cannot hold."""

    entries: tuple  # of (id, name, role)
    unassigned_id: int = 0

    def __post_init__(self):
        for i in (*self.ids, self.unassigned_id):
            if type(i) is not int or not 0 <= i <= 255:
                raise ValueError(f"table id {i!r} is not an int in 0-255")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate category ids")
        if self.unassigned_id in self.ids:
            raise ValueError("unassigned_id reused by a category")
        for role in ("road", "sidewalk", "vehicle"):
            if len(self.ids_for(role)) != 1:
                raise ValueError(f"exactly one {role} category required")
        for _, _, role in self.entries:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}")

    def ids_for(self, *roles) -> tuple:
        """Ids of the categories with one of ``roles``, in table order."""
        return tuple(i for i, _, role in self.entries if role in roles)

    ids = property(lambda self: tuple(i for i, _, _ in self.entries))
    road_id = property(lambda self: self.ids_for("road")[0])
    sidewalk_id = property(lambda self: self.ids_for("sidewalk")[0])
    vehicle_id = property(lambda self: self.ids_for("vehicle")[0])
    ground_ids = property(lambda self: self.ids_for(*GROUND_ROLES))  # never empty: road

    def to_json(self):
        return {
            "entries": [{"id": i, "name": n, "role": r} for i, n, r in self.entries],
            "unassigned_id": self.unassigned_id,
        }

    @classmethod
    def from_json(cls, obj) -> "SemanticTable":
        entries = tuple((e["id"], e["name"], e["role"]) for e in obj["entries"])
        return cls(entries=entries, unassigned_id=obj["unassigned_id"])


def default_table() -> SemanticTable:
    """Minimal six-category table used by the test worlds and as CLI default."""
    return SemanticTable(
        entries=(
            (1, "road", "road"),
            (2, "sidewalk", "sidewalk"),
            (3, "vehicle", "vehicle"),
            (4, "terrain", "ground"),
            (5, "obstacle", "obstacle"),
            (6, "free", "free"),
        ),
        unassigned_id=0,
    )


DEFAULT_VOXEL_SIZE = 0.4
DEFAULT_CROP_DIMS = (200, 200, 16)


# --- settings: each params field states its range once ----------------------

@dataclass(frozen=True)
class Rule:
    """What a valid setting is: a test and its wording."""

    ok: Callable[[object], bool]
    text: str

    def check(self, name: str, value):
        if not self.ok(value):
            raise ValueError(f"{name} {value!r} must be {self.text}")
        return value


_FLOAT_MAX = sys.float_info.max


def _finite(v) -> bool:
    """The one test of a number read from a file or a config: a real that a
    finite float holds, bools excluded. An int/float comparison is exact and
    NaN compares False, so an int beyond float range fails here, where
    ``math.isfinite`` raises OverflowError. Only types other than int and
    float (a bool's type is neither), such as numpy scalars, take the far
    slower ``numbers.Real`` test."""
    if type(v) in (int, float):
        return abs(v) <= _FLOAT_MAX
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


FINITE = Rule(_finite, "a finite number")
POSITIVE = Rule(lambda v: FINITE.ok(v) and v > 0, "a finite number > 0")
NONNEGATIVE = Rule(lambda v: FINITE.ok(v) and v >= 0, "a finite number >= 0")


def at_least(n: int) -> Rule:
    """An int count of at least ``n`` that a finite float holds."""
    return Rule(lambda v: type(v) is int and v >= n and _finite(v), f"a finite int >= {n}")


def finite_points(name: str, value, min_len: int = 0) -> np.ndarray:
    """``value`` read from a file as an (N >= min_len, 2) float array: a list
    of [x, y] pairs whose coordinates pass FINITE. They are checked before
    the cast, which takes True, "1" and None and raises OverflowError on an
    int beyond float range."""
    if not all(map(FINITE.ok, itertools.chain.from_iterable(value))):
        raise ValueError(f"{name} coordinates must be finite numbers")
    pts = np.asarray(value, dtype=float)
    if value == []:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < min_len:
        raise ValueError(f"{name} must be an (N >= {min_len}, 2) array, not shape {pts.shape}")
    return pts


def positive_dims(dims, n=3) -> bool:
    """Whether ``dims`` is a list or tuple of ``n`` ints that pass ``at_least(1)``."""
    return (isinstance(dims, (list, tuple)) and len(dims) == n
            and all(map(at_least(1).ok, dims)))


DIMS = Rule(positive_dims, "three positive ints")


def setting(default, rule: Rule):
    """A dataclass field with ``default`` whose values must pass ``rule``."""
    return field(default=default, metadata={"rule": rule})


class Settings:
    """Base of the params dataclasses: construction checks every ``setting``."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "rule" in f.metadata:
                f.metadata["rule"].check(f.name, getattr(self, f.name))


@dataclass
class OccupancyGrid:
    """Dense semantic label volume, x-major (X, Y, Z), one byte per voxel."""

    labels: np.ndarray
    voxel_size: float = DEFAULT_VOXEL_SIZE
    origin: Pose2 = field(default_factory=Pose2)
    table: SemanticTable = field(default_factory=default_table)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 3:
            raise ValueError("labels must be a 3D volume")
        POSITIVE.check("voxel_size", self.voxel_size)

    @property
    def dims(self):
        return self.labels.shape


def _check_world_aligned(origin: Pose2) -> None:
    """A ValueError unless a global map's origin has yaw 0."""
    if origin.yaw != 0.0:
        raise ValueError(f"a global map's origin yaw must be 0, not {origin.yaw!r}")


class GlobalMap(OccupancyGrid):
    """World-anchored fused map; origin is the world position of voxel (0, 0, 0)
    and the axes are the world's (``cell_of``/``cell_center`` convert), so
    the origin's yaw must be 0."""

    def __post_init__(self):
        super().__post_init__()
        _check_world_aligned(self.origin)

    @property
    def extent(self):
        """((xmin, ymin), (xmax, ymax)) of the map footprint in world meters."""
        lo = np.array([self.origin.x, self.origin.y])
        hi = lo + np.array(self.dims[:2]) * self.voxel_size
        return lo, hi

    def cell_of(self, x, y):
        """Unclipped int64 indices (ix, iy) of the cells holding world points
        (x, y); floats or arrays, each index shaped like its coordinate."""
        return (self._floor_cells(x, self.origin.x).astype(np.int64),
                self._floor_cells(y, self.origin.y).astype(np.int64))

    def _floor_cells(self, v, origin, out=None):
        """``floor((v - origin) / voxel_size)`` as floats: the map's one copy
        of its cell rule. With ``out`` (a float array, ``v`` itself allowed)
        every step runs in place there; without it the result is new."""
        t = np.subtract(v, origin, out=out)
        t = np.divide(t, self.voxel_size, out=out)
        return np.floor(t, out=out)

    def cell_center(self, ix, iy):
        """World (x, y) of the centres of cells (ix, iy), shaped likewise."""
        vox = self.voxel_size
        return self.origin.x + (ix + 0.5) * vox, self.origin.y + (iy + 0.5) * vox


def crop(gmap: GlobalMap, pose: Pose2, out_dims=DEFAULT_CROP_DIMS) -> OccupancyGrid:
    """Ego-centered, yaw-aligned nearest-neighbor crop of a global map.

    Voxels sampled outside the map extent come back as the unassigned id.
    A frame costs one index pass and one gather: the footprint's flat map
    rows and its off-map mask are computed in place on the two float planes
    that ``Pose2.transform_xy`` returns, the rows' map columns are taken
    straight into the output (only their first ``min(Z, GZ)`` levels when
    the heights differ), and off-map rows, when there are any, are filled
    whole.
    """
    X, Y, Z = DIMS.check("out_dims", out_dims)
    vox = gmap.voxel_size
    GX, GY, GZ = gmap.dims
    uid = gmap.table.unassigned_id
    # Crop cell centers in the ego frame, ego at the crop center.
    lx = ((np.arange(X) + 0.5 - X / 2.0) * vox)[:, None]
    ly = ((np.arange(Y) + 0.5 - Y / 2.0) * vox)[None, :]
    # World points, then in place their map cells (exact integers as floats),
    # the off-map mask and the flat row ix * GY + iy; off-map cells read row 0.
    fx, fy = pose.transform_xy(lx, ly)
    gmap._floor_cells(fx, gmap.origin.x, out=fx)
    gmap._floor_cells(fy, gmap.origin.y, out=fy)
    off = fx < 0
    off |= fx >= GX
    off |= fy < 0
    off |= fy >= GY
    any_off = off.any()
    fx *= GY
    fx += fy
    if any_off:
        np.copyto(fx, 0.0, where=off)
    out = gmap.labels.reshape(GX * GY, GZ).take(fx.astype(np.intp).ravel(), axis=0)
    if Z != GZ:
        zcount = min(Z, GZ)
        full = np.full((X * Y, Z), uid, dtype=np.uint8)
        full[:, :zcount] = out[:, :zcount]
        out = full
    if any_off:
        # each row one Z-byte item, so an off-map row is one masked put
        row = np.dtype((np.void, Z))
        np.putmask(out.view(row), off, np.full(Z, uid, np.uint8).view(row))
    return OccupancyGrid(out.reshape(X, Y, Z), vox, pose, gmap.table)


# --- binary containers (OCCG here, HEATMAP1 in agents, FEATSET1 in metrics) --
#
# OCCG layout: 12-byte magic, u32 version, u64 JSON header length, JSON header
# (dims, voxel_size, origin, semantic table, global flag), raw label payload
# of exactly X*Y*Z bytes.

MAGIC = b"VOXSEMOCCGRID"[:12]
VERSION = 1


class GridFormatError(ValueError):
    """Malformed binary container (OCCG, HEATMAP1 or FEATSET1); carries the
    byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class InputFormatError(ValueError):
    """Malformed JSON input file (road graph, lanes or trajectory)."""


def load_json_input(path, parse):
    """Decode the JSON file at ``path`` and build the result with ``parse``.
    Undecodable JSON or a record ``parse`` cannot use (a missing key, a value
    of the wrong type) is an InputFormatError naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise InputFormatError(f"malformed {path}: {e!r}") from e


def load_trajectory(path) -> list:
    """The poses of a trajectory file, a JSON array of at least one
    {x, y, yaw} record, each value a finite number; record i is the pose of
    step i, and other keys (a ``t`` of older files) are ignored."""

    def parse(records):
        rows = [[FINITE.check(k, r[k]) for k in ("x", "y", "yaw")] for r in records]
        if not rows:
            raise ValueError("trajectory needs at least one sample")
        return [Pose2(*row) for row in rows]

    return load_json_input(path, parse)


def save_trajectory(poses, path) -> str:
    """Write ``poses`` as a trajectory file of {x, y, yaw} records; the
    file's sha256."""
    return save_json([{"x": p.x, "y": p.y, "yaw": p.yaw} for p in poses], path)


def write_hashed(path, *chunks) -> str:
    """Write the byte chunks to ``path`` in turn; the sha256 of what was
    written. Every file writer (OCCG, HEATMAP1, FEATSET1, JSON) calls it."""
    return _write_hashed(path, chunks)


def _write_hashed(path, chunks) -> str:
    """``write_hashed``'s body, which ``write_grids``' writer thread runs."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            h.update(chunk)
    return h.hexdigest()


def save_json(obj, path) -> str:
    """Write ``obj`` as compact JSON; the file's sha256. ``json.dumps`` takes
    the C encoder, which ``json.dump`` never does; the bytes are the same."""
    return write_hashed(path, json.dumps(obj).encode())


def read_container(data: bytes, magic: bytes, fields: str) -> tuple:
    """Check the magic at the start of a binary container and unpack the
    fixed fields that follow it (``fields`` is a ``struct`` format)."""
    if len(data) < len(magic) + struct.calcsize(fields):
        raise GridFormatError("file shorter than fixed header", len(data))
    if data[:len(magic)] != magic:
        raise GridFormatError("magic mismatch", 0)
    return struct.unpack_from(fields, data, len(magic))


def check_payload(length: int, offset: int, nbytes: int) -> None:
    """Raise unless the payload from ``offset`` to the end of the file,
    ``length`` bytes, is exactly ``nbytes`` long."""
    if length != nbytes:
        raise GridFormatError(f"payload length {length} != expected {nbytes}", offset)


def container_floats(data: bytes, offset: int, shape: tuple) -> np.ndarray:
    """The float32 payload from ``offset`` as floats of ``shape``, all finite."""
    check_payload(len(data) - offset, offset, 4 * math.prod(shape))
    values = np.frombuffer(data[offset:], dtype="<f4").reshape(shape)
    if not np.isfinite(values).all():
        raise GridFormatError("payload holds a value that is not finite", offset)
    return values.astype(float)


def _grid_chunks(grid: OccupancyGrid) -> tuple:
    """The byte chunks of ``grid``'s OCCG file: magic, version and header
    length, JSON header, and the labels themselves as the payload."""
    header = {
        "dims": list(grid.dims),
        "voxel_size": grid.voxel_size,
        "origin": {"x": grid.origin.x, "y": grid.origin.y, "yaw": grid.origin.yaw},
        "table": grid.table.to_json(),
        "global": isinstance(grid, GlobalMap),
    }
    blob = json.dumps(header).encode()
    return (MAGIC, struct.pack("<IQ", VERSION, len(blob)), blob,
            np.ascontiguousarray(grid.labels, dtype=np.uint8))


def write_grid(grid: OccupancyGrid, path) -> str:
    """Write ``grid`` as an OCCG file and return the file's sha256."""
    return write_hashed(path, *_grid_chunks(grid))


# Grids that ``write_grids`` has handed to its writer thread and whose digest
# it has not yet taken: at most one being written and one queued behind it.
WRITES_IN_FLIGHT = 2


def write_grids(pairs) -> dict:
    """Write each ``(grid, path)`` of the iterable ``pairs`` as an OCCG file;
    {file name: sha256}, the same bytes and digests as ``write_grid``.

    One writer thread hashes and writes grid i while ``pairs`` makes grid
    i + 1, with at most ``WRITES_IN_FLIGHT`` grids handed over and not yet
    written; a grid must not change once ``pairs`` has yielded it. A grid's
    bytes are let go only when its digest is taken, just before the next
    grid is handed over, so the memory a call holds does not depend on the
    writer's pace. The header bytes are made here, on the calling thread,
    and the writer thread runs only private code (``_write_hashed``), so a
    span recorder that wraps the public functions sees every call on one
    thread. The thread is joined before the call returns. After a failed
    write no queued write starts: the write then running ends, and that
    first error is raised as it was. An error raised by ``pairs`` is raised
    after the writes already started have ended."""
    digests, pending, failed = {}, deque(), threading.Event()
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="occg-writer")
    try:
        for grid, path in pairs:
            if len(pending) == WRITES_IN_FLIGHT:
                _take_digest(digests, pending)
            chunks = _grid_chunks(grid)
            pending.append((os.path.basename(path), chunks,
                            pool.submit(_write_unless_failed, failed, path, chunks)))
        while pending:
            _take_digest(digests, pending)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return digests


def _take_digest(digests: dict, pending: deque) -> None:
    """Wait for the oldest write of ``pending``, record its digest under its
    file name and let go of its bytes."""
    name, _chunks, done = pending.popleft()
    digests[name] = done.result()


def _write_unless_failed(failed: threading.Event, path, chunks):
    """A job of the writer thread: ``_write_hashed``, unless an earlier job
    of the same ``write_grids`` call has failed (then nothing is written)."""
    if failed.is_set():
        return None
    try:
        return _write_hashed(path, chunks)
    except BaseException:
        failed.set()
        raise


def _parse_header(blob: bytes):
    """Decoded and validated OCCG JSON header: (dims, voxel size, origin,
    table, global flag). The flag is a JSON bool, false when absent, and a
    global map's origin yaw is 0. Any failure is a GridFormatError at the
    header."""
    try:
        header = json.loads(blob)
        dims = header["dims"]
        if not (isinstance(dims, list) and len(dims) == 3 and all(map(at_least(0).ok, dims))):
            raise ValueError(f"dims {dims!r} are not three non-negative ints")
        vox = POSITIVE.check("voxel_size", header["voxel_size"])
        o = header["origin"]
        origin = Pose2(*(FINITE.check(f"origin.{k}", o[k]) for k in ("x", "y", "yaw")))
        table = SemanticTable.from_json(header["table"])
        is_global = header.get("global", False)
        if type(is_global) is not bool:
            raise ValueError(f"global {is_global!r} is not a JSON bool")
        if is_global:
            _check_world_aligned(origin)
        return dims, vox, origin, table, is_global
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise GridFormatError(f"bad JSON header: {e!r}", 24) from e


class GridFile:
    """An OCCG file opened lazily: construction reads and checks the header
    and the payload's length, and ``labels`` reads the payload from disk on
    every access, into a fresh array, and keeps nothing. A list of these
    stands in for a list of frames at the memory of one frame."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            version, hlen = read_container(fh.read(24), MAGIC, "<IQ")
            if version != VERSION:
                raise GridFormatError(f"unknown version {version}", 12)
            if size < 24 + hlen:  # before any read of hlen bytes
                raise GridFormatError("truncated JSON header", 24)
            dims, self.voxel_size, self.origin, self.table, self.is_global = (
                _parse_header(fh.read(hlen)))
        self.dims = tuple(dims)
        self._offset = 24 + hlen
        check_payload(size - self._offset, self._offset, math.prod(dims))

    @property
    def labels(self) -> np.ndarray:
        """The label volume, read from the file with one copy per byte."""
        labels = np.empty(self.dims, dtype=np.uint8)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            check_payload(fh.readinto(labels), self._offset, labels.size)
        return labels

    def load(self) -> OccupancyGrid:
        """The whole grid in memory, a GlobalMap when the file says global."""
        cls = GlobalMap if self.is_global else OccupancyGrid
        return cls(self.labels, self.voxel_size, self.origin, self.table)


def read_grid(path) -> OccupancyGrid:
    return GridFile(path).load()
