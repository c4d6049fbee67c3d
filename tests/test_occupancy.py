import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsim import occupancy
from voxsim.agents import AgentAsset, read_heatmap, write_heatmap
from voxsim.fusion import FusionParams
from voxsim.geometry import Pose2
from voxsim.lanes import LaneParams
from voxsim.metrics import read_features, write_features
from voxsim.occupancy import (DEFAULT_CROP_DIMS, MAGIC, VERSION, WRITES_IN_FLIGHT, GlobalMap,
                              GridFile, GridFormatError, OccupancyGrid, SemanticTable, crop,
                              default_table, read_grid, save_json, write_grid, write_grids)
from voxsim.simulation import IdmParams, SimParams
from voxsim.synthworld import WorldSpec
from voxsim.topology import TopologyParams

from conftest import assert_pinned, assert_pins

PARAMS_CLASSES = (FusionParams, TopologyParams, LaneParams, IdmParams, SimParams,
                  WorldSpec, AgentAsset)


class TestSettings:
    """Every number setting of every params class states its range, and
    every range rejects what is not a finite number."""

    @pytest.mark.parametrize("cls", PARAMS_CLASSES, ids=lambda c: c.__name__)
    def test_every_number_setting_has_a_rule(self, cls):
        for f in dataclasses.fields(cls):
            if f.type in ("float", "int", float, int) and f.name != "seed":
                assert "rule" in f.metadata, f"{cls.__name__}.{f.name} has no rule"

    @pytest.mark.parametrize("cls", PARAMS_CLASSES, ids=lambda c: c.__name__)
    def test_rules_reject_what_is_not_a_finite_number(self, cls):
        for f in dataclasses.fields(cls):
            if "rule" not in f.metadata:
                continue
            cls(**{f.name: f.default})
            for bad in (math.nan, math.inf, -math.inf, True, "x", 10 ** 400):
                with pytest.raises(ValueError, match=f"^{f.name} "):
                    cls(**{f.name: bad})

    def test_error_names_the_setting_and_its_range(self):
        with pytest.raises(ValueError, match=r"^d_max nan must be a finite number > 0$"):
            FusionParams(d_max=math.nan)
        with pytest.raises(ValueError, match=r"^blocks \(0, 1\) must be two positive ints$"):
            WorldSpec(blocks=[0, 1])


class TestSemanticTable:
    def test_default_roles(self):
        t = default_table()
        assert t.road_id == 1
        assert t.sidewalk_id == 2
        assert t.vehicle_id == 3
        assert set(t.ground_ids) == {1, 2, 4}
        assert t.unassigned_id == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SemanticTable(entries=((1, "a", "road"), (1, "b", "sidewalk"),
                                   (2, "c", "vehicle")))

    def test_unassigned_collision_rejected(self):
        with pytest.raises(ValueError):
            SemanticTable(entries=((0, "a", "road"), (1, "b", "sidewalk"),
                                   (2, "c", "vehicle")), unassigned_id=0)

    def test_missing_mandatory_role_rejected(self):
        with pytest.raises(ValueError):
            SemanticTable(entries=((1, "a", "road"), (2, "b", "sidewalk")))

    def test_json_round_trip(self):
        t = default_table()
        back = SemanticTable.from_json(t.to_json())
        assert back == t

    def test_ids_for_roles_in_table_order(self):
        t = SemanticTable(entries=((9, "lane", "road"), (4, "kerb", "sidewalk"),
                                   (7, "car", "vehicle"), (2, "grass", "ground"),
                                   (5, "air", "free"), (3, "sky", "free")))
        assert t.ids_for("free") == (5, 3)
        assert t.ids_for("free", "road") == (9, 5, 3)
        assert t.ids_for("obstacle") == ()
        assert t.ids_for() == ()
        assert (t.road_id, t.sidewalk_id, t.vehicle_id) == (9, 4, 7)
        assert t.ground_ids == (9, 4, 2)
        assert t.ids == (9, 4, 7, 2, 5, 3)


class TestGridIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 7, size=(20, 30, 8)).astype(np.uint8)
        g = OccupancyGrid(labels, 0.4, Pose2(1.0, -2.0, 0.25))
        path = tmp_path / "g.occg"
        write_grid(g, path)
        back = read_grid(path)
        assert np.array_equal(back.labels, labels)
        assert back.voxel_size == 0.4
        assert (back.origin.x, back.origin.y, back.origin.yaw) == (1.0, -2.0, 0.25)
        assert back.table == g.table
        assert not isinstance(back, GlobalMap)
        # identical bytes on rewrite
        path2 = tmp_path / "g2.occg"
        write_grid(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_global_flag_preserved(self, tmp_path):
        g = GlobalMap(np.zeros((4, 4, 2), dtype=np.uint8), 0.4, Pose2())
        path = tmp_path / "g.occg"
        write_grid(g, path)
        assert isinstance(read_grid(path), GlobalMap)

    @staticmethod
    def _write_header(path, **changes):
        """A 2x2x2 OCCG file whose JSON header is a valid frame header with
        ``changes`` applied; a key set to None is left out."""
        header = {"dims": [2, 2, 2], "voxel_size": 0.4,
                  "origin": {"x": 0.0, "y": 0.0, "yaw": 0.0},
                  "table": default_table().to_json(), "global": False, **changes}
        blob = json.dumps({k: v for k, v in header.items() if v is not None}).encode()
        path.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob + bytes(8))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, [True], {}],
                             ids=["string-false", "string-true", "zero", "one", "list",
                                  "object"])
    def test_global_flag_that_is_not_a_json_bool_is_a_header_error(self, tmp_path, flag):
        # any truthy flag used to load as a GlobalMap, "false" included
        path = tmp_path / "g.occg"
        self._write_header(path, **{"global": flag})
        with pytest.raises(GridFormatError, match="is not a JSON bool") as e:
            GridFile(path)
        assert e.value.offset == 24

    @pytest.mark.parametrize("flag, is_global", [(True, True), (False, False), (None, False)],
                             ids=["true", "false", "absent"])
    def test_global_flag_json_bool_or_absent_loads(self, tmp_path, flag, is_global):
        path = tmp_path / "g.occg"
        self._write_header(path, **{"global": flag})
        assert GridFile(path).is_global is is_global
        assert isinstance(read_grid(path), GlobalMap) is is_global

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.occg"
        path.write_bytes(b"X" * 100)
        with pytest.raises(GridFormatError) as e:
            read_grid(path)
        assert e.value.offset == 0

    def test_bad_version_offset(self, tmp_path):
        g = OccupancyGrid(np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "v.occg"
        write_grid(g, path)
        data = bytearray(path.read_bytes())
        data[12] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(GridFormatError) as e:
            read_grid(path)
        assert e.value.offset == 12

    def test_truncated_payload(self, tmp_path):
        g = OccupancyGrid(np.zeros((4, 4, 4), dtype=np.uint8))
        path = tmp_path / "t.occg"
        write_grid(g, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(GridFormatError):
            read_grid(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "s.occg"
        path.write_bytes(b"VOXSEMOCCGRI")
        with pytest.raises(GridFormatError):
            read_grid(path)

    @pytest.mark.parametrize("free_id, unassigned_id", [
        (300, 0), (-1, 0), ("7", 0), (6.0, 0), (False, 7), (6, 256), (6, -1),
    ], ids=["id-300", "id-minus-1", "id-string", "id-float", "id-bool",
            "unassigned-256", "unassigned-minus-1"])
    def test_table_id_no_uint8_label_can_hold_is_a_header_error(
            self, tmp_path, free_id, unassigned_id):
        # such a table used to load: topo ran on it, and fuse failed in the
        # stage on the uint8 conversion or on sorting a str among ints
        table = SemanticTable(entries=default_table().entries[:5]
                              + ((free_id, "free", "free"),), unassigned_id=unassigned_id)
        path = tmp_path / "t.occg"
        write_grid(OccupancyGrid(np.zeros((2, 2, 2), dtype=np.uint8), table=table), path)
        with pytest.raises(GridFormatError, match="is not an int in 0-255") as e:
            read_grid(path)
        assert e.value.offset == 24

    def test_table_ids_at_the_uint8_bounds_load(self, tmp_path):
        table = SemanticTable(entries=default_table().entries[:5] + ((255, "free", "free"),),
                              unassigned_id=0)
        path = tmp_path / "t.occg"
        write_grid(OccupancyGrid(np.zeros((2, 2, 2), dtype=np.uint8), table=table), path)
        assert read_grid(path).table == table

    def test_declared_dims_match_payload_accepted(self, tmp_path):
        g = OccupancyGrid(np.zeros(DEFAULT_CROP_DIMS, dtype=np.uint8))
        path = tmp_path / "full.occg"
        write_grid(g, path)
        assert read_grid(path).dims == DEFAULT_CROP_DIMS

    @pytest.mark.parametrize("make, contiguous", [
        (lambda labels: GlobalMap(labels, 0.4, Pose2(1.5, -2.0, 0.25)), True),
        (lambda labels: OccupancyGrid(labels[:, ::-1]), False),
    ], ids=["global-map", "strided-view"])
    def test_write_grid_returns_the_file_sha256(self, tmp_path, make, contiguous):
        grid = make(np.arange(24, dtype=np.uint8).reshape(2, 3, 4))
        assert grid.labels.flags.c_contiguous == contiguous
        path = tmp_path / "g.occg"
        assert write_grid(grid, path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(read_grid(path).labels, grid.labels)

    def test_save_json_returns_the_file_sha256(self, tmp_path):
        path = tmp_path / "o.json"
        digest = save_json({"a": [1, 2.5, "\u00e9"], "b": None}, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def _grids(n):
    """n small grids of different shapes and contents: a GlobalMap, frames
    and a strided view."""
    rng = np.random.default_rng(3)
    for i in range(n):
        labels = rng.integers(0, 7, size=(6 + i, 5, 4), dtype=np.uint8)
        if i % 3 == 0:
            yield GlobalMap(labels, 0.4, Pose2(1.5, -2.0, 0.25))
        else:
            yield OccupancyGrid(labels[:, ::-1] if i % 3 == 2 else labels,
                                0.2, Pose2(float(i), 0.5, -0.75))


class _WriteLog:
    """Stands in for ``occupancy._write_hashed``: records the file name of
    each write as it starts and ends, sleeps ``delay`` s before writing,
    and raises ``error`` instead of writing ``fail_on``."""

    def __init__(self, delay=0.0, fail_on=None, error=None):
        self.real = occupancy._write_hashed
        self.delay, self.fail_on, self.error = delay, fail_on, error
        self.started, self.ended = [], []

    def __call__(self, path, chunks):
        name = os.path.basename(path)
        self.started.append(name)
        try:
            time.sleep(self.delay)
            if name == self.fail_on:
                raise self.error
            return self.real(path, chunks)
        finally:
            self.ended.append(name)


class TestWriteGrids:
    """One writer thread hashes and writes each grid while the next one is
    made; bytes, digests and errors are those of writing in turn."""

    @staticmethod
    def _pairs(tmp_path, grids):
        for i, grid in enumerate(grids):
            yield grid, tmp_path / f"frame_{i:06d}.occg"

    def test_digests_are_those_of_the_files_and_of_write_grid(self, tmp_path):
        threads = threading.active_count()
        (tmp_path / "one").mkdir()
        digests = write_grids(self._pairs(tmp_path, _grids(7)))
        assert threading.active_count() == threads
        names = [f"frame_{i:06d}.occg" for i in range(7)]
        assert list(digests) == names
        for name, grid in zip(names, _grids(7)):
            on_disk = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digests[name] == on_disk == write_grid(grid, tmp_path / "one" / name)
        assert isinstance(read_grid(tmp_path / names[0]), GlobalMap)
        assert np.array_equal(read_grid(tmp_path / names[2]).labels,
                              list(_grids(3))[2].labels)

    def test_at_most_writes_in_flight_grids_are_handed_over(self, tmp_path, monkeypatch):
        log = _WriteLog(delay=0.005)
        monkeypatch.setattr(occupancy, "_write_hashed", log)
        in_flight = []

        def pairs():
            for i, pair in enumerate(self._pairs(tmp_path, _grids(8))):
                in_flight.append(i - len(log.ended))   # handed over, not written
                yield pair

        assert len(write_grids(pairs())) == 8
        assert max(in_flight) <= WRITES_IN_FLIGHT
        assert log.started == log.ended == [f"frame_{i:06d}.occg" for i in range(8)]

    def test_first_failed_write_is_raised_and_no_later_write_starts(self, tmp_path,
                                                                   monkeypatch):
        # slow writes, so that frame 3 is queued when frame 2 fails
        error = OSError(27, "File too large")
        log = _WriteLog(delay=0.02, fail_on="frame_000002.occg", error=error)
        monkeypatch.setattr(occupancy, "_write_hashed", log)
        threads = threading.active_count()
        with pytest.raises(OSError) as e:
            write_grids(self._pairs(tmp_path, _grids(8)))
        assert e.value is error
        assert threading.active_count() == threads
        assert log.started == log.ended == [f"frame_{i:06d}.occg" for i in range(3)]
        assert sorted(p.name for p in tmp_path.iterdir()) == log.started[:2]

    def test_error_of_the_caller_is_raised_after_started_writes_end(self, tmp_path,
                                                                  monkeypatch):
        log = _WriteLog(delay=0.05)
        monkeypatch.setattr(occupancy, "_write_hashed", log)
        error = ValueError("no next grid")

        def pairs():
            yield from self._pairs(tmp_path, _grids(3))
            raise error

        threads = threading.active_count()
        with pytest.raises(ValueError) as e:
            write_grids(pairs())
        assert e.value is error
        ended = list(log.ended)   # as the call returned
        assert threading.active_count() == threads
        assert ended == log.started
        assert ended == [f"frame_{i:06d}.occg" for i in range(len(ended))]
        assert sorted(p.name for p in tmp_path.iterdir()) == ended

    def test_concurrent_calls_under_fast_thread_switching(self, tmp_path):
        # three callers and their three writers on two cores, switching
        # threads every 10 us: each call's digests are still its own files'
        results = {}

        def call(k):
            (tmp_path / str(k)).mkdir()
            results[k] = write_grids(self._pairs(tmp_path / str(k), _grids(40)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        expected = {f"frame_{i:06d}.occg": write_grid(g, tmp_path / "ref.occg")
                    for i, g in enumerate(_grids(40))}
        assert results == {k: expected for k in range(3)}
        for k in range(3):
            assert all(hashlib.sha256((tmp_path / str(k) / name).read_bytes()).hexdigest()
                       == digest for name, digest in expected.items())

    def test_nothing_to_write(self, tmp_path):
        threads = threading.active_count()
        assert write_grids(iter(())) == {}
        assert threading.active_count() == threads


READERS = {"g.occg": read_grid, "h.hm": read_heatmap, "f.feat": read_features}


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Directory holding one small file of each binary container format."""
    d = tmp_path_factory.mktemp("containers")
    labels = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_grid(GlobalMap(labels, 0.4, Pose2(1.5, -2.0, 0.25)), d / "g.occg")
    write_heatmap(np.linspace(-1.0, 1.0, 12).reshape(3, 4), 0.4, d / "h.hm")
    write_features(np.arange(6.0).reshape(3, 2), d / "f.feat")
    return d


class TestContainers:
    def test_writer_bytes_pinned(self, containers):
        pins = {"g.occg": "containers/g.occg", "h.hm": "containers/h.hm",
                "f.feat": "containers/f.feat"}
        assert pins.keys() == READERS.keys()
        assert_pins({pin: hashlib.sha256((containers / name).read_bytes()).hexdigest()
                     for name, pin in pins.items()})

    def test_float_writers_return_the_file_sha256(self, tmp_path):
        # strided views, so the payload is made contiguous before the write
        h = np.linspace(-1.0, 1.0, 12).reshape(4, 3).T
        x = np.arange(12.0).reshape(2, 6)[:, ::2].T
        hm, feat = tmp_path / "h.hm", tmp_path / "f.feat"
        assert write_heatmap(h, 0.4, hm) == hashlib.sha256(hm.read_bytes()).hexdigest()
        assert write_features(x, feat) == hashlib.sha256(feat.read_bytes()).hexdigest()
        assert np.array_equal(read_heatmap(hm)[0], h.astype(np.float32))
        assert np.array_equal(read_features(feat), x)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_malformed_bytes_decode_or_raise_format_error(self, containers, data):
        name = data.draw(st.sampled_from(sorted(READERS)))
        blob = bytearray((containers / name).read_bytes())
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 255)), max_size=4))
        for pos, byte in edits:
            blob[pos] = byte
        blob = blob[:data.draw(st.integers(0, len(blob)))]
        path = containers / ("fuzz-" + name)
        path.write_bytes(bytes(blob))
        try:
            READERS[name](path)
        except GridFormatError:
            pass


def reference_crop_labels(gmap, pose, out_dims):
    """Crop labels by the two-index gather ``labels[ix, iy, :z]`` over the
    footprint cells inside the map. Kept as the equivalence reference."""
    X, Y, Z = out_dims
    vox = gmap.voxel_size
    xs = (np.arange(X) + 0.5 - X / 2.0) * vox
    ys = (np.arange(Y) + 0.5 - Y / 2.0) * vox
    lx, ly = np.meshgrid(xs, ys, indexing="ij")
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    wx = pose.x + c * lx - s * ly
    wy = pose.y + s * lx + c * ly
    ix = np.floor((wx - gmap.origin.x) / vox).astype(np.int64)
    iy = np.floor((wy - gmap.origin.y) / vox).astype(np.int64)
    inside = (ix >= 0) & (ix < gmap.dims[0]) & (iy >= 0) & (iy < gmap.dims[1])
    out = np.full((X, Y, Z), gmap.table.unassigned_id, dtype=np.uint8)
    zcount = min(Z, gmap.dims[2])
    out[inside, :zcount] = gmap.labels[ix[inside], iy[inside], :zcount]
    return out


class TestCrop:
    def test_axis_aligned_crop_is_slice(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 7, size=(60, 60, 4)).astype(np.uint8)
        gmap = GlobalMap(labels, 0.5, Pose2(0, 0, 0))
        # ego at the center of a 20x20 window starting at cell (10, 20)
        pose = Pose2((10 + 10) * 0.5, (20 + 10) * 0.5, 0.0)
        out = crop(gmap, pose, (20, 20, 4))
        assert np.array_equal(out.labels, labels[10:30, 20:40, :])

    def test_out_of_extent_unassigned(self):
        gmap = GlobalMap(np.ones((10, 10, 2), dtype=np.uint8), 0.5, Pose2())
        out = crop(gmap, Pose2(100.0, 100.0, 0.0), (8, 8, 2))
        assert (out.labels == gmap.table.unassigned_id).all()

    def test_rotated_crop_matches_rot90(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 7, size=(40, 40, 2)).astype(np.uint8)
        gmap = GlobalMap(labels, 0.5, Pose2())
        center = Pose2(20 * 0.5, 20 * 0.5, 0.0)
        straight = crop(gmap, center, (40, 40, 2)).labels
        rotated = crop(gmap, Pose2(center.x, center.y, math.pi / 2), (40, 40, 2)).labels
        assert np.array_equal(rotated, np.rot90(straight, k=-1, axes=(0, 1)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_two_index_gather(self, data):
        # maps of 1-12 cells a side and 1-6 high, anywhere; poses on, partly
        # off or wholly off the map; crops lower or higher than the map
        dims = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 12),
                                   st.integers(1, 6)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        labels = np.random.default_rng(seed).integers(0, 7, size=dims).astype(np.uint8)
        vox = data.draw(st.sampled_from([0.4, 0.5, 1.0]))
        coord = st.floats(-20.0, 20.0, allow_nan=False)
        gmap = GlobalMap(labels, vox, Pose2(data.draw(coord), data.draw(coord), 0.0))
        pose = Pose2(data.draw(coord), data.draw(coord),
                     data.draw(st.floats(-math.pi, math.pi)))
        out_dims = data.draw(st.tuples(st.integers(1, 10), st.integers(1, 10),
                                       st.integers(1, 8)))
        out = crop(gmap, pose, out_dims)
        assert out.labels.shape == out_dims
        assert np.array_equal(out.labels, reference_crop_labels(gmap, pose, out_dims))
        assert (out.voxel_size, out.origin, out.table) == (vox, pose, gmap.table)

    @pytest.mark.parametrize("gz, x, y, yaw, on_map", [
        (16, 20.0, 60.0, 0.9, "part"),       # heights equal, rows off the map
        (24, 60.0, 60.0, 2.0, "all"),        # crop lower than the map
        (8, 100.0, 30.0, -0.4, "part"),      # crop higher than the map
        (16, -200.0, 50.0, 0.3, "none"),     # wholly off the map
        (16, 121.0, -1.0, 0.785, "part"),    # across the map's (xmax, ymin) corner
    ], ids=["z-equal-off-map", "z-lower", "z-higher", "wholly-off", "corner"])
    def test_realistic_size_matches_two_index_gather(self, gz, x, y, yaw, on_map):
        # 200x200x16 crops of a 300x300 map (120 m a side) under an
        # unassigned id that no map voxel holds, so every filled voxel shows
        table = dataclasses.replace(default_table(), unassigned_id=200)
        labels = np.random.default_rng(gz).integers(1, 7, size=(300, 300, gz))
        gmap = GlobalMap(labels.astype(np.uint8), 0.4, Pose2(), table)
        pose = Pose2(x, y, yaw)
        out = crop(gmap, pose, (200, 200, 16)).labels
        ref = reference_crop_labels(gmap, pose, (200, 200, 16))
        assert np.array_equal(out, ref)
        share = (ref[:, :, 0] != 200).mean()
        assert {"all": share == 1.0, "none": share == 0.0, "part": 0 < share < 1}[on_map]

    # Beside its output the crop allocates two float planes (8 bytes a cell
    # each, reused in place for the cells and the flat rows), a bool mask
    # and the intp rows: 25 bytes a footprint cell, where separate cell,
    # index and fill arrays took 57.
    @pytest.mark.parametrize("pose, off_map", [(Pose2(300.0, 300.0, 0.7), False),
                                               (Pose2(20.0, 580.0, 2.2), True)],
                             ids=["on-map", "partly-off"])
    def test_peak_memory_is_the_output_and_32_bytes_a_cell(self, pose, off_map):
        gmap = GlobalMap(np.ones((1500, 1500, 16), dtype=np.uint8), 0.4, Pose2())
        tracemalloc.start()
        try:
            out = crop(gmap, pose, (200, 200, 16)).labels
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = 200 * 200
        assert (out == gmap.table.unassigned_id).any() == off_map
        assert peak < out.nbytes + 32 * cells, (peak - out.nbytes) / cells

    @pytest.mark.parametrize("pose, out_dims", [
        (Pose2(4.0, 4.0, 0.3), (8, 8, 4)),   # wholly on the map
        (Pose2(0.0, 0.0, 0.3), (8, 8, 4)),   # partly off the map
        (Pose2(4.0, 4.0, 0.3), (8, 8, 6)),   # higher than the map
    ], ids=["on-map", "off-map", "z-higher"])
    def test_table_ids_must_fit_a_label(self, pose, out_dims):
        # an in-memory table may hold an id no uint8 label can carry; the
        # crop names it at every pose instead of overflowing in the fill
        table = dataclasses.replace(default_table(), unassigned_id=300)
        gmap = GlobalMap(np.ones((20, 20, 4), dtype=np.uint8), 0.4, Pose2(), table)
        with pytest.raises(ValueError, match="table id 300 is not an int in 0-255"):
            crop(gmap, pose, out_dims)

    def test_cell_of(self):
        gmap = GlobalMap(np.zeros((10, 10, 2), dtype=np.uint8), 0.5,
                         Pose2(-2.0, 3.0, 0.0))
        assert gmap.cell_of(-2.0, 3.0) == (0, 0)
        assert gmap.cell_of(-1.74, 3.76) == (0, 1)

    def test_cell_of_and_cell_center_broadcast(self):
        gmap = GlobalMap(np.zeros((10, 10, 2), dtype=np.uint8), 0.5,
                         Pose2(-2.0, 3.0, 0.0))
        ix, iy = gmap.cell_of(np.array([[-2.0], [-2.6], [3.1]]),
                              np.array([3.0, 3.76, 2.9]))
        assert (ix.shape, iy.shape) == ((3, 1), (3,)) and ix.dtype == np.int64
        assert ix[:, 0].tolist() == [0, -2, 10]      # unclipped off the map
        assert iy.tolist() == [0, 1, -1]
        cx, cy = gmap.cell_center(np.arange(3)[:, None], np.arange(2)[None, :])
        assert np.broadcast(cx, cy).shape == (3, 2)
        assert cx[:, 0].tolist() == [-1.75, -1.25, -0.75]
        assert cy[0].tolist() == [3.25, 3.75]
        assert gmap.cell_of(*gmap.cell_center(7, 4)) == (7, 4)
        assert gmap.cell_center(1, 2) == (-1.25, 4.25)   # floats for scalars

    # Crop labels at rotated poses off the voxel lattice, hashed: the crop
    # shares its rotation with Pose2.transform_xy and its cell lookup with
    # GlobalMap.cell_of, so a change to either shows here bit for bit.
    def test_rotated_off_lattice_bytes_pinned(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 7, size=(60, 50, 4)).astype(np.uint8)
        gmap = GlobalMap(labels, 0.4, Pose2(-3.3, 2.1, 0.0))
        poses = [(5.13, 9.71, 0.3), (11.0, 4.2, -2.5), (-1.7, 14.9, math.pi / 3),
                 (20.2, 20.2, 1e-3), (7.77, 8.88, math.pi)]
        assert_pinned("crop/rotated-off-lattice",
                      [crop(gmap, Pose2(*pose), (37, 29, 5)).labels for pose in poses])

