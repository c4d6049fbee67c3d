import dataclasses
import errno
import functools
import hashlib
import inspect
import json
import math
import os
import resource
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxsim
from voxsim import occupancy
from voxsim.agents import LayoutEntry, encode_heatmap, write_heatmap
from voxsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_STAGE, ConfigError,
                        _from_config, main, run_fuse, run_lanes, run_pipeline, run_simulate,
                        run_synth, run_topo, stage_seed)
from voxsim.fusion import FusionParams
from voxsim.geometry import Pose2
from voxsim.lanes import LaneParams, load_lanes
from voxsim.metrics import fid, kid, miou, mmd, read_features, write_features
from voxsim.occupancy import (MAGIC, GlobalMap, GridFile, GridFormatError, InputFormatError,
                              OccupancyGrid, default_table, load_trajectory, read_grid,
                              write_grid)
from voxsim.simulation import IdmParams, SimParams
from voxsim.synthworld import WorldSpec, curve_trajectory
from voxsim.topology import TopologyParams, load_graph

from conftest import assert_pins, swapped_table, write_grid_with_table_ids


PIPELINE_CONFIG = {
    "synth": {
        "world": {"recipe": "straight", "extent": 60.0, "road_width": 9.6},
        "crop_dims": [120, 120, 16],
    },
    "simulate": {"horizon": 3},
}


# the pin of every PIPELINE_CONFIG artifact at seed 7, by (stage, artifact)
PIPELINE_PINS = {
    ("synth", "world"): "pipeline/synth/world",
    ("synth", "frames"): "pipeline/synth/frames",
    ("synth", "trajectory"): "pipeline/synth/trajectory",
    ("fuse", "map"): "pipeline/fuse/map",
    ("topo", "graph"): "pipeline/topo/graph",
    ("lanes", "lanes"): "pipeline/lanes/lanes",
    ("spawn", "agents"): "pipeline/spawn/agents",
    ("simulate", "frames"): "pipeline/simulate/frames",
    ("simulate", "run_manifest"): "pipeline/simulate/run_manifest",
}


def _pipeline_config(**sections):
    """PIPELINE_CONFIG with the keys of each given section replaced."""
    return {stage: {**PIPELINE_CONFIG.get(stage, {}), **sections.get(stage, {})}
            for stage in {*PIPELINE_CONFIG, *sections}}


def _run_pipeline(tmp_path, config, out_dir):
    """Artifact sha256 values by (stage, artifact) of a seed-7 pipeline run
    of ``config`` into ``out_dir``, and the stage names in order."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(cfg), "--seed", "7",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    manifest = json.loads((out_dir / "pipeline_manifest.json").read_text())
    hashes = {(s["stage"], name): art["sha256"]
              for s in manifest["stages"] for name, art in s["artifacts"].items()}
    return hashes, [s["stage"] for s in manifest["stages"]]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_poses(path, poses):
    """A trajectory file of (x, y, yaw) poses, one per second."""
    path.write_text(json.dumps([{"t": float(t), "x": x, "y": y, "yaw": yaw}
                                for t, (x, y, yaw) in enumerate(poses)]))


# every 2 m obstacle footprint in this world touches road or sidewalk
NO_OBSTACLE_FITS = {"recipe": "straight", "extent": 16.0, "obstacle_density": 10.0}


def _spawnable_world(tmp_path, valid_endpoints=(0,),
                     lane_points=((2.0, 10.0), (18.0, 10.0))):
    """map.occg, lanes.json and graph.json of a small all-road world: a
    20 m square map and one lane along y = 10 m."""
    labels = np.full((50, 50, 2), default_table().road_id, dtype=np.uint8)
    write_grid(GlobalMap(labels, 0.4, Pose2()), tmp_path / "map.occg")
    (tmp_path / "lanes.json").write_text(json.dumps([{
        "id": 0, "points": [list(p) for p in lane_points],
        "offset_index": 0, "source_segment": 0}]))
    (tmp_path / "graph.json").write_text(_graph_json(valid=list(valid_endpoints)))


def _graph_json(x=45, v=1, interior=((46, 25),), extra_anchors=(), extra_segments=(),
                cycle=((10, 10), (10, 11), (11, 11)), valid=(0,)):
    """graph.json text of anchors 0 at (x, 25) and 1 at (47, 25), then
    extra_anchors; a segment from anchor 0 to anchor v through the interior
    points, then one per (u, v, interior) of extra_segments; one pure cycle;
    and the valid endpoints."""
    return json.dumps({
        "anchors": [{"id": 0, "x": x, "y": 25}, {"id": 1, "x": 47, "y": 25}, *extra_anchors],
        "segments": [{"u": u, "v": w, "interior": [list(p) for p in inner]}
                     for u, w, inner in ((0, v, interior), *extra_segments)],
        "cycles": [[list(p) for p in cycle]],
        "valid_endpoints": list(valid)})


# graph.json as it was before segments: a node per skeleton pixel
PIXEL_GRAPH_JSON = json.dumps({
    "nodes": [{"id": 0, "x": 45, "y": 25}, {"id": 1, "x": 46, "y": 25}],
    "edges": [{"u": 0, "v": 1, "weight": 1.0}], "valid_endpoints": [0]})


def test_cli_import_leaves_networkx_out():
    src = str(Path(voxsim.__file__).resolve().parents[1])
    code = "import voxsim.cli, sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                   env={**os.environ, "PYTHONPATH": src})


# Imports every voxsim module, then runs synth, fuse and topo through
# cli.main, printing the scipy submodules loaded after each step as JSON
SCIPY_LOADS = """
import importlib, json, pkgutil, sys
import voxsim
for m in pkgutil.iter_modules(voxsim.__path__):
    importlib.import_module("voxsim." + m.name)
from voxsim.cli import main

def loaded():
    return [m for m in ("scipy.ndimage", "scipy.spatial", "scipy.interpolate", "scipy.sparse")
            if m in sys.modules]

spec, obstacles, out = sys.argv[1:]
steps = {"import": loaded()}
for stage, args in (("synth", ["--spec", spec, "--seed", "1", "--out", out]),
                    ("synth-obstacles", ["--spec", obstacles, "--seed", "1",
                                         "--out", out + "-obstacles"]),
                    ("fuse", ["--frames", out + "/frames", "--poses", out + "/trajectory.json",
                              "--out", out + "/map.occg"]),
                    ("topo", ["--map", out + "/map.occg", "--out", out + "/graph.json"])):
    assert main([stage.split("-")[0], *args]) == 0, stage
    steps[stage] = loaded()
print(json.dumps(steps))
"""


def test_each_scipy_submodule_loads_on_the_first_call_that_needs_it(tmp_path):
    src = str(Path(voxsim.__file__).resolve().parents[1])
    world = {"recipe": "grid", "extent": 80.0, "blocks": [2, 2]}
    spec, obstacles = tmp_path / "spec.json", tmp_path / "obstacles.json"
    spec.write_text(json.dumps({"world": world, "crop_dims": [80, 80, 8]}))
    # with obstacles, synth checks that a footprint fits off road first
    obstacles.write_text(json.dumps({"world": {**world, "obstacle_density": 2.0},
                                     "crop_dims": [80, 80, 8]}))
    proc = subprocess.run([sys.executable, "-c", SCIPY_LOADS, str(spec), str(obstacles),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, cwd=src,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    # each list is cumulative; scipy.spatial imports scipy.sparse itself,
    # and topo merges two junctions within reach on this map
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "synth": [], "synth-obstacles": [], "fuse": [],
        "topo": ["scipy.spatial", "scipy.sparse"]}


def test_a_frame_write_that_fails_exits_4_and_leaves_no_manifest(tmp_path):
    # the child's file-size limit is below one 120x120x16 frame, so the
    # first frame write fails on the writer thread
    src = str(Path(voxsim.__file__).resolve().parents[1])
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(PIPELINE_CONFIG))
    limit = 64 * 1024

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "voxsim.cli", "pipeline", "--config", str(cfg),
                           "--seed", "7", "--out-dir", str(out)], capture_output=True,
                          timeout=120, preexec_fn=limit_file_size,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == EXIT_IO, proc.stderr
    assert f"[Errno {errno.EFBIG}]".encode() in proc.stderr
    assert not (out / "pipeline_manifest.json").exists()


def test_synth_without_room_for_obstacles_exits_2(tmp_path):
    # the obstacle loop redraws until a footprint misses the road, so a
    # world with no such footprint used to hang here
    src = str(Path(voxsim.__file__).resolve().parents[1])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"world": NO_OBSTACLE_FITS}))
    proc = subprocess.run([sys.executable, "-m", "voxsim.cli", "synth", "--spec", str(spec),
                           "--out", str(tmp_path / "out")], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_CONFIG, proc.stderr


class TestStageSeed:
    def test_deterministic_and_stage_dependent(self):
        assert stage_seed(42, "fuse") == stage_seed(42, "fuse")
        assert stage_seed(42, "fuse") != stage_seed(42, "topo")
        assert stage_seed(42, "fuse") != stage_seed(43, "fuse")


class TestExitCodes:
    def test_metrics_vendi_ok(self, tmp_path, capsys):
        feat = tmp_path / "a.feat"
        write_features(np.random.default_rng(0).normal(size=(6, 3)), feat)
        assert main(["metrics", "vendi", "--a", str(feat)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "vendi" and out["value"] >= 1.0

    def test_metrics_missing_b_is_config_error(self, tmp_path):
        feat = tmp_path / "a.feat"
        write_features(np.ones((4, 2)), feat)
        assert main(["metrics", "mmd", "--a", str(feat)]) == EXIT_CONFIG

    @pytest.mark.parametrize("sigma", ["0", "nan", "inf", "-1"])
    def test_metrics_bad_sigma_is_config_error(self, tmp_path, sigma):
        feat = tmp_path / "a.feat"
        write_features(np.random.default_rng(0).normal(size=(6, 3)), feat)
        assert main(["metrics", "mmd", "--a", str(feat), "--b", str(feat),
                     "--sigma", sigma]) == EXIT_CONFIG

    @pytest.mark.parametrize("level", ["BASIC_FORMAT", "nonsense", ""])
    def test_log_level_that_is_no_level_name_is_config_error(self, tmp_path, capsys, level):
        # BASIC_FORMAT, a logging attribute but a format string, used to end
        # in a traceback, and any other name was read as WARNING
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", level, "topo", "--map", str(tmp_path / "m.occg"),
                  "--out", str(tmp_path / "g.json")])
        assert exc.value.code == EXIT_CONFIG
        assert "--log-level" in capsys.readouterr().err

    def test_log_level_names_any_case(self, tmp_path):
        assert main(["--log-level", "debug", "topo", "--map", str(tmp_path / "m.occg"),
                     "--out", str(tmp_path / "g.json")]) == EXIT_IO

    def test_missing_map_is_io_error(self, tmp_path):
        code = main(["topo", "--map", str(tmp_path / "nope.occg"),
                     "--out", str(tmp_path / "g.json")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("command, flag", [
        ("fuse", "--params"), ("synth", "--spec"), ("pipeline", "--config")])
    def test_missing_config_file_is_config_error(self, tmp_path, capsys, command, flag):
        # a missing input file is an i/o error (exit 4), a missing config
        # file a configuration error; fuse gets inputs it would fuse
        (tmp_path / "traj.json").write_text(json.dumps(
            [{"t": 0.0, "x": 10.0, "y": 10.0, "yaw": 0.0}]))
        (tmp_path / "frames").mkdir()
        write_grid(OccupancyGrid(np.full((20, 20, 4), default_table().road_id, dtype=np.uint8)),
                   tmp_path / "frames" / "frame_000000.occg")
        inputs = {"fuse": ["--frames", str(tmp_path / "frames"),
                           "--poses", str(tmp_path / "traj.json")]}.get(command, [])
        out_flag = "--out-dir" if command == "pipeline" else "--out"
        argv = [command, flag, str(tmp_path / "missing.json"), *inputs,
                out_flag, str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert "missing.json" in capsys.readouterr().err

    def test_corrupt_map_is_io_error(self, tmp_path):
        def occg(header, payload=b"\0" * 8):
            blob = header if isinstance(header, bytes) else json.dumps(header).encode()
            return MAGIC + struct.pack("<IQ", 1, len(blob)) + blob + payload

        header = {"dims": [2, 2, 2], "voxel_size": 0.4,
                  "origin": {"x": 0.0, "y": 0.0, "yaw": 0.0},
                  "table": default_table().to_json(), "global": True}
        maps = {
            "garbage": b"garbage" * 10,
            "bad JSON": occg(b"{not json"),
            "deeply nested JSON": occg(b"[" * 100000),
            "missing dims": occg({k: v for k, v in header.items() if k != "dims"}),
            "negative dims": occg({**header, "dims": [-2, -2, 2]}),
            "NaN origin": occg({**header, "origin": {"x": float("nan"), "y": 0.0, "yaw": 0.0}}),
            "negative voxel_size": occg({**header, "voxel_size": -0.4}),
            # ints beyond float range: exit 3 as an OverflowError
            "huge voxel_size": occg({**header, "voxel_size": 10 ** 400}),
            "huge origin": occg({**header, "origin": {"x": 10 ** 400, "y": 0.0, "yaw": 0.0}}),
            "bool origin": occg({**header, "origin": {"x": True, "y": 0.0, "yaw": 0.0}}),
            # used to load as a GlobalMap: any truthy flag counted as true
            "string global flag": occg({**header, "global": "false"}),
        }
        for name, data in maps.items():
            bad = tmp_path / "bad.occg"
            bad.write_bytes(data)
            code = main(["topo", "--map", str(bad),
                         "--out", str(tmp_path / "g.json")])
            assert code == EXIT_IO, name

        feat = tmp_path / "a.feat"
        write_features(np.ones((4, 2)), feat)
        feat.write_bytes(feat.read_bytes()[:12])
        assert main(["metrics", "vendi", "--a", str(feat)]) == EXIT_IO, "FEATSET1"
        # a feature that is not finite: mmd and kid printed NaN, vendi and
        # fid failed in the eigensolver
        good = tmp_path / "good.feat"
        write_features(np.random.default_rng(0).normal(size=(6, 3)), good)
        for value in (math.nan, math.inf):
            x = np.random.default_rng(1).normal(size=(6, 3))
            x[2, 1] = value
            write_features(x, feat)
            for metric in ("vendi", "mmd", "kid", "fid"):
                code = main(["metrics", metric, "--a", str(feat), "--b", str(good)])
                assert code == EXIT_IO, ("FEATSET1", value, metric)

        # a spawnable world, so that only the layout heatmap is at fault
        _spawnable_world(tmp_path)
        layout = tmp_path / "layout.hm"
        spawn = ["spawn", "--map", str(tmp_path / "map.occg"),
                 "--lanes", str(tmp_path / "lanes.json"),
                 "--graph", str(tmp_path / "graph.json"),
                 "--layout", str(layout), "--out", str(tmp_path / "agents.json")]
        write_heatmap(np.zeros((4, 4)), 0.4, layout)
        layout.write_bytes(layout.read_bytes()[:-5])
        assert main(spawn) == EXIT_IO, "HEATMAP1"
        # a cell that is not finite used to decode into a phantom vehicle
        for value in (math.nan, -math.inf):
            h = np.zeros((100, 100))
            h[50, 50] = value
            write_heatmap(h, 0.4, layout)
            assert main(spawn) == EXIT_IO, ("HEATMAP1", value)

    @pytest.mark.parametrize("command", ["topo", "lanes", "spawn", "simulate"])
    @pytest.mark.parametrize("grid", ["synth-frame", "rotated-global-map"])
    def test_map_that_is_not_world_aligned_is_io_error(self, tmp_path, capsys, command, grid):
        # a synth frame used to give topo a graph in its own pixels (exit 0)
        # and lanes and spawn a stage failure (exit 3); a global map with a
        # rotated origin loaded, and every stage ignored its yaw (exit 0)
        _spawnable_world(tmp_path)
        _write_poses(tmp_path / "traj.json", [(10.0, 10.0, 0.0)])
        path = tmp_path / "map.occg"
        if grid == "synth-frame":
            write_grid(OccupancyGrid(read_grid(path).labels, 0.4, Pose2(10.0, 10.0, 0.0)), path)
        else:
            data = path.read_bytes()
            assert data.count(b'"yaw": 0.0') == 1
            path.write_bytes(data.replace(b'"yaw": 0.0', b'"yaw": 0.7'))
        inputs = {"lanes": ["--graph"], "spawn": ["--lanes", "--graph"],
                  "simulate": ["--lanes", "--graph", "--poses"]}.get(command, [])
        files = {"--lanes": "lanes.json", "--graph": "graph.json", "--poses": "traj.json"}
        argv = [command, "--map", str(path), *(a for flag in inputs
                                                 for a in (flag, str(tmp_path / files[flag]))),
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_IO
        assert ("does not say global" if grid == "synth-frame" else "yaw must be 0") \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_json_input_is_io_error(self, tmp_path):
        _spawnable_world(tmp_path)
        (tmp_path / "traj.json").write_text(json.dumps(
            [{"t": 0.0, "x": 10.0, "y": 10.0, "yaw": 0.0}]))
        world = {"map": tmp_path / "map.occg", "lanes": tmp_path / "lanes.json",
                 "graph": tmp_path / "graph.json", "poses": tmp_path / "traj.json"}
        # anchor 2 at an interior point of the first segment, with a segment
        # of its own
        shared_point = dict(extra_anchors=[{"id": 2, "x": 46, "y": 25},
                                           {"id": 3, "x": 46, "y": 27}],
                            extra_segments=[(2, 3, [(46, 26)])])
        cases = [
            ("lanes", "graph", "{not json"),
            ("lanes", "graph", "[" * 100000),
            ("lanes", "graph", json.dumps({"anchors": [{"id": 0}], "segments": [],
                                           "cycles": [], "valid_endpoints": []})),
            ("lanes", "graph", json.dumps({"anchors": 5, "segments": [], "cycles": [],
                                           "valid_endpoints": []})),
            # the per-pixel graph.json of earlier versions is not read
            ("lanes", "graph", PIXEL_GRAPH_JSON),
            ("spawn", "graph", PIXEL_GRAPH_JSON),
            # graph coordinates that are not finite numbers, a segment from
            # an anchor to itself and a repeated anchor id
            ("lanes", "graph", _graph_json(x="a")),
            ("spawn", "graph", _graph_json(x="a")),
            ("lanes", "graph", _graph_json(x=True)),
            ("lanes", "graph", _graph_json(interior=[("w", 25)])),
            ("lanes", "graph", _graph_json(interior=[(float("nan"), 25)])),
            ("lanes", "graph", _graph_json(interior=[(46, 25, 0)])),
            ("lanes", "graph", _graph_json(cycle=[(10, 10), (10, None), (11, 11)])),
            ("spawn", "graph", _graph_json(x=10 ** 400)),
            ("lanes", "graph", _graph_json(v=0, interior=())),
            ("spawn", "graph", _graph_json(extra_anchors=[{"id": 0, "x": 47, "y": 25}])),
            # a segment whose end is no anchor id
            ("lanes", "graph", _graph_json(v=7)),
            ("spawn", "graph", _graph_json(v=7)),
            ("lanes", "graph", _graph_json(v=1.0)),
            # one point in two places, an edge given twice and a cycle of two
            # points
            ("lanes", "graph", _graph_json(**shared_point)),
            ("spawn", "graph", _graph_json(**shared_point)),
            ("lanes", "graph", _graph_json(interior=(), extra_segments=[(0, 1, [])])),
            ("spawn", "graph", _graph_json(interior=(), extra_segments=[(1, 0, [])])),
            ("lanes", "graph", _graph_json(cycle=[(10, 10), (10, 11)])),
            # valid endpoints that are not anchors of degree 1, listed once
            ("spawn", "graph", _graph_json(valid=[0, 0])),
            ("spawn", "graph", _graph_json(valid=[2], extra_anchors=[{"id": 2, "x": 5,
                                                                      "y": 5}])),
            ("spawn", "graph", _graph_json(valid=[True])),
            ("spawn", "lanes", "[{}]"),
            ("spawn", "lanes", json.dumps([{"points": "abc", "offset_index": 0,
                                            "source_segment": 0}])),
            # lane points that are not a finite (N >= 1, 2) array
            ("spawn", "lanes", json.dumps([{"points": [], "offset_index": 0,
                                            "source_segment": 0}])),
            ("spawn", "lanes", json.dumps([{"points": [[1.0, 2.0, 3.0]],
                                            "offset_index": 0, "source_segment": 0}])),
            ("spawn", "lanes", json.dumps([{"points": [[1.0, float("nan")]],
                                            "offset_index": 0, "source_segment": 0}])),
            # an int beyond float range (exit 3 as an OverflowError) and lane
            # ids that are not ints >= 0 (exit 0)
            ("spawn", "lanes", json.dumps([{"points": [[1.0, 10 ** 400]],
                                            "offset_index": 0, "source_segment": 0}])),
            ("spawn", "lanes", json.dumps([{"points": [[2.0, 10.0], [18.0, 10.0]],
                                            "offset_index": 0, "source_segment": "x"}])),
            ("spawn", "lanes", json.dumps([{"points": [[2.0, 10.0], [18.0, 10.0]],
                                            "offset_index": None, "source_segment": 0}])),
            ("simulate", "poses", "{bad"),
            ("simulate", "poses", json.dumps([{"t": 0.0, "x": "a", "y": 0.0,
                                               "yaw": 0.0}])),
            # a coordinate beyond float range (exit 3)
            ("simulate", "poses", json.dumps([{"t": 0.0, "x": 10 ** 400, "y": 10.0,
                                               "yaw": 0.0}])),
        ]
        for command, flag, text in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            paths = {**world, flag: bad}
            argv = [command, "--map", str(paths["map"]), "--graph", str(paths["graph"])]
            if command != "lanes":
                argv += ["--lanes", str(paths["lanes"])]
            if command == "simulate":
                argv += ["--poses", str(paths["poses"])]
            argv += ["--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_IO, (command, flag, text[:40])

    def test_bad_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command, flag, text", [
        ("simulate", "--params", json.dumps({"dt": -1})),
        ("simulate", "--params", json.dumps({"bogus": 1})),
        ("simulate", "--params", json.dumps({"idm": {"v0": -1}})),
        ("topo", "--params", json.dumps({"w_lane": -1})),
        ("topo", "--params", "[" * 100000),
        ("topo", "--params", b'{"w_lane": "\xff\xfe"}'),
        ("lanes", "--params", json.dumps({"epsilon": 9.0})),
        ("synth", "--spec", json.dumps({"world": {"recipe": "bogus"}})),
        ("synth", "--spec", json.dumps({"world": {"bogus": 1}})),
        # valid JSON that is not an object, at the top or as a section
        ("simulate", "--params", "[1]"),
        ("simulate", "--params", json.dumps({"idm": [1]})),
        ("synth", "--spec", "[1]"),
        ("synth", "--spec", json.dumps({"world": [1]})),
        ("synth", "--spec", json.dumps({"trajectory": [1]})),
        ("fuse", "--params", "[1]"),
        ("topo", "--params", "[1]"),
        ("lanes", "--params", "[1]"),
        ("pipeline", "--config", "[1]"),
        ("pipeline", "--config", json.dumps({"synth": [1]})),
        ("pipeline", "--config", json.dumps({"fuse": [1]})),
        ("pipeline", "--config", json.dumps({"topo": [1]})),
        ("pipeline", "--config", json.dumps({"lanes": [1]})),
        ("pipeline", "--config", json.dumps({"simulate": [1]})),
        # values that used to get past the boundary and fail in the stage
        ("simulate", "--params", json.dumps({"fov_dims": [0, 0, 16]})),
        ("simulate", "--params", json.dumps({"fov_dims": [-10, 200, 16]})),
        ("synth", "--spec", json.dumps({"crop_dims": [0, 0, 16]})),
        ("synth", "--spec", json.dumps({"crop_dims": "abc"})),
        ("synth", "--spec", json.dumps({"noise": "x"})),
        ("synth", "--spec", json.dumps({"noise": -1})),
        ("synth", "--spec", json.dumps({"trajectory": {"step": 0}})),
        ("synth", "--spec", json.dumps({"trajectory": {"step": "a"}})),
        ("synth", "--spec", json.dumps({"world": {"z_dim": 0}})),
        ("synth", "--spec", json.dumps({"trajectory": {"path": 5}})),
        ("synth", "--spec", json.dumps({"world": {"lane_width": 3.6}})),
        ("synth", "--spec", json.dumps({"world": {"recipe": "grid", "blocks": [0, 0]}})),
        ("synth", "--spec", json.dumps({"world": {"recipe": "grid", "blocks": "ab"}})),
        ("synth", "--spec", json.dumps({"world": {"voxel_size": 500.0}})),
        ("simulate", "--params", json.dumps({"horizon": 2.5})),
        ("simulate", "--params", json.dumps({"speed_sigma": -1})),
        ("lanes", "--params", json.dumps({"min_segment_pts": "x"})),
        ("lanes", "--params", json.dumps({"min_segment_pts": 9})),
        ("lanes", "--params", json.dumps({"min_lane_samples": 0})),
        ("synth", "--spec", json.dumps({"world": {"extent": math.inf}})),
        ("synth", "--spec", json.dumps({"world": {"radius": math.nan}})),
        ("synth", "--spec", json.dumps({"world": {"voxel_size": 1e-320}})),
        ("synth", "--spec", json.dumps({"world": {"sidewalk_width": -1.0}})),
        ("synth", "--spec", json.dumps({"world": {"obstacle_density": -1.0}})),
        ("synth", "--spec", json.dumps({"world": {"obstacle_density": 0.5,
                                                  "obstacle_height": -2.0}})),
        ("synth", "--spec", json.dumps({"world": NO_OBSTACLE_FITS})),
        ("pipeline", "--config", json.dumps({"synth": {"world": NO_OBSTACLE_FITS}})),
        # NaN, infinity and out-of-range values that ran the stage, with a
        # failure or a wrong result
        ("topo", "--params", json.dumps({"w_lane": math.nan})),
        ("topo", "--params", json.dumps({"tau_obs": math.nan})),
        ("topo", "--params", json.dumps({"probe_length": math.inf})),
        ("lanes", "--params", json.dumps({"epsilon": math.nan})),
        ("lanes", "--params", json.dumps({"ds_step": math.nan})),
        ("fuse", "--params", json.dumps({"d_max": math.nan})),
        ("fuse", "--params", json.dumps({"d_max": math.inf})),
        ("fuse", "--params", json.dumps({"d_max": 10 ** 400})),
        ("fuse", "--params", json.dumps({"margin": -50})),
        ("fuse", "--params", json.dumps({"tau_vote": math.nan})),
        ("fuse", "--params", json.dumps({"tau_vote": 2.5})),
        ("fuse", "--params", json.dumps({"min_area": math.nan})),
        ("simulate", "--params", json.dumps({"dt": math.inf})),
        ("simulate", "--params", json.dumps({"d_lc": math.nan})),
        ("simulate", "--params", json.dumps({"speed_mu": math.nan})),
        ("simulate", "--params", json.dumps({"idm": {"v0": math.nan}})),
        ("simulate", "--params", json.dumps({"lc_cooldown_steps": 2.5})),
    ], ids=["dt", "sim-key", "idm", "w_lane", "nested", "not-utf8", "epsilon",
            "recipe", "world-key", "simulate-list", "idm-list", "synth-list",
            "world-list", "trajectory-list", "fuse-list", "topo-list",
            "lanes-list", "pipeline-list", "pipeline-synth-list",
            "pipeline-fuse-list", "pipeline-topo-list", "pipeline-lanes-list",
            "pipeline-simulate-list", "fov-zero", "fov-negative", "crop-zero",
            "crop-str", "noise-str", "noise-negative", "step-zero", "step-str",
            "z_dim-zero", "path-int", "world-lane_width", "blocks-zero",
            "blocks-str", "voxel-too-large", "horizon-float",
            "speed_sigma-negative", "min_segment_pts-str", "min_segment_pts-small",
            "min_lane_samples-zero", "extent-inf", "radius-nan", "voxel-tiny",
            "sidewalk-negative", "density-negative", "obstacle_height-negative",
            "no-obstacle-fits", "pipeline-no-obstacle-fits", "w_lane-nan",
            "tau_obs-nan", "probe_length-inf", "epsilon-nan", "ds_step-nan",
            "d_max-nan", "d_max-inf", "d_max-huge", "margin-negative", "tau_vote-nan",
            "tau_vote-float", "min_area-nan", "dt-inf", "d_lc-nan", "speed_mu-nan",
            "idm-v0-nan", "lc_cooldown_steps-float"])
    def test_bad_params_is_config_error(self, tmp_path, command, flag, text):
        _spawnable_world(tmp_path)
        (tmp_path / "traj.json").write_text(json.dumps(
            [{"t": 0.0, "x": 10.0, "y": 10.0, "yaw": 0.0}]))
        # one all-road frame at that pose, so that fuse runs on good inputs
        (tmp_path / "frames").mkdir()
        write_grid(OccupancyGrid(read_grid(tmp_path / "map.occg").labels[:20, :20]),
                   tmp_path / "frames" / "frame_000000.occg")
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        inputs = {"topo": ["--map"], "lanes": ["--map", "--graph"], "synth": [],
                  "simulate": ["--map", "--lanes", "--graph", "--poses"],
                  "fuse": ["--frames", "--poses"], "pipeline": []}[command]
        files = {"--map": "map.occg", "--lanes": "lanes.json",
                 "--graph": "graph.json", "--poses": "traj.json",
                 "--frames": "frames"}
        out_flag = "--out-dir" if command == "pipeline" else "--out"
        argv = [command, flag, str(bad), out_flag, str(tmp_path / "out")]
        for opt in inputs:
            argv += [opt, str(tmp_path / files[opt])]
        assert main(argv) == EXIT_CONFIG

    # each of these used to run, the unknown key ignored or the world seed
    # replaced by --seed (simulate refuses a seed in its params)
    @pytest.mark.parametrize("command, flag, cfg, key", [
        ("synth", "--spec", {"crop_dim": [40, 40, 4]}, "crop_dim"),
        ("synth", "--spec", {"trajectory": {"stpe": 5.0}}, "stpe"),
        ("pipeline", "--config", {"simulation": {"horizon": 3}}, "simulation"),
        ("synth", "--spec", {"world": {"seed": 5}}, "seed"),
    ], ids=["synth", "trajectory", "pipeline", "world-seed"])
    def test_key_no_stage_takes_is_config_error(self, tmp_path, capsys, command, flag,
                                                cfg, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out_flag = "--out-dir" if command == "pipeline" else "--out"
        assert main([command, flag, str(bad), out_flag, str(tmp_path / "out")]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_frames_dir_is_config_error(self, tmp_path):
        (tmp_path / "frames").mkdir()
        code = main(["fuse", "--frames", str(tmp_path / "frames"),
                     "--poses", str(tmp_path / "traj.json"),
                     "--out", str(tmp_path / "map.occg")])
        assert code == EXIT_CONFIG

    def test_frames_of_mixed_dims_are_a_stage_failure(self, tmp_path, capsys):
        # frame 0 is 30 x 30 x 4 and the five after it 20 x 20 x 4
        (tmp_path / "frames").mkdir()
        table = default_table()
        for i in range(6):
            shape = (30, 30, 4) if i == 0 else (20, 20, 4)
            write_grid(OccupancyGrid(np.full(shape, table.road_id, dtype=np.uint8)),
                       tmp_path / "frames" / f"frame_{i:06d}.occg")
        (tmp_path / "traj.json").write_text(json.dumps(
            [{"t": float(i), "x": 4.0, "y": 4.0, "yaw": 0.0} for i in range(6)]))
        code = main(["fuse", "--frames", str(tmp_path / "frames"),
                     "--poses", str(tmp_path / "traj.json"),
                     "--out", str(tmp_path / "map.occg")])
        assert code == EXIT_STAGE
        assert ("frame 1 has dims (20, 20, 4), frame 0 has (30, 30, 4)"
                in capsys.readouterr().err)
        assert not (tmp_path / "map.occg").exists()

    def test_frames_under_another_table_are_a_stage_failure(self, tmp_path, capsys):
        # frames 4 and 5 swap the road and sidewalk ids, so their label
        # values would be read under the wrong categories
        (tmp_path / "frames").mkdir()
        table = default_table()
        for i in range(6):
            write_grid(OccupancyGrid(np.full((20, 20, 4), table.road_id, dtype=np.uint8),
                                     table=swapped_table() if i >= 4 else table),
                       tmp_path / "frames" / f"frame_{i:06d}.occg")
        _write_poses(tmp_path / "traj.json", [(4.0, 4.0, 0.0)] * 6)
        code = main(["fuse", "--frames", str(tmp_path / "frames"),
                     "--poses", str(tmp_path / "traj.json"),
                     "--out", str(tmp_path / "map.occg")])
        assert code == EXIT_STAGE
        assert ("frame 4 has a different semantic table than frame 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "map.occg").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda data: b"garbage" * 10,
        lambda data: data[:24] + b"#" + data[25:],
        lambda data: data[:-1],
        lambda data: data + b"\0",
    ], ids=["garbage", "bad-json-header", "truncated-payload", "trailing-byte"])
    def test_corrupt_frame_is_io_error(self, tmp_path, corrupt):
        # frames are read lazily during fusion, but every file is checked
        # when the directory is opened: one bad vote frame fails the run
        # before any map is written
        frames = tmp_path / "frames"
        frames.mkdir()
        road = np.full((20, 20, 4), default_table().road_id, dtype=np.uint8)
        for i in range(4):
            write_grid(OccupancyGrid(road), frames / f"frame_{i:06d}.occg")
        bad = frames / "frame_000002.occg"
        bad.write_bytes(corrupt(bad.read_bytes()))
        with pytest.raises(GridFormatError):
            GridFile(bad)   # the check runs on opening, not on the first read
        _write_poses(tmp_path / "traj.json", [(4.0, 4.0, 0.0)] * 4)
        code = main(["fuse", "--frames", str(frames), "--poses", str(tmp_path / "traj.json"),
                     "--out", str(tmp_path / "map.occg")])
        assert code == EXIT_IO
        assert not (tmp_path / "map.occg").exists()

    @pytest.mark.parametrize("command", ["topo", "fuse"])
    @pytest.mark.parametrize("free_id", [300, -1, "7"])
    def test_table_id_no_uint8_label_can_hold_is_io_error(self, tmp_path, capsys,
                                                           command, free_id):
        # topo used to run on such a map (exit 0), and fuse failed in the
        # stage (exit 3) on the uint8 conversion or on sorting a str among ints
        labels = np.full((20, 20, 4), default_table().road_id, dtype=np.uint8)
        if command == "topo":
            write_grid_with_table_ids(tmp_path / "map.occg", labels, free_id, is_global=True)
            argv = ["topo", "--map", str(tmp_path / "map.occg"),
                    "--out", str(tmp_path / "graph.json")]
        else:
            (tmp_path / "frames").mkdir()
            for i in range(4):
                write_grid_with_table_ids(tmp_path / "frames" / f"frame_{i:06d}.occg",
                                          labels, free_id)
            _write_poses(tmp_path / "traj.json", [(4.0 + 12.0 * i, 4.0, 0.0) for i in range(4)])
            argv = ["fuse", "--frames", str(tmp_path / "frames"),
                    "--poses", str(tmp_path / "traj.json"),
                    "--out", str(tmp_path / "map.occg")]
        assert main(argv) == EXIT_IO
        assert "is not an int in 0-255" in capsys.readouterr().err
        assert not Path(argv[-1]).exists()

    def test_no_valid_endpoints_is_config_error(self, tmp_path):
        _spawnable_world(tmp_path, valid_endpoints=())
        (tmp_path / "traj.json").write_text(json.dumps(
            [{"t": 0.0, "x": 10.0, "y": 10.0, "yaw": 0.0}]))
        world = ["--map", str(tmp_path / "map.occg"),
                 "--lanes", str(tmp_path / "lanes.json"),
                 "--graph", str(tmp_path / "graph.json")]
        assert main(["spawn", *world, "--out", str(tmp_path / "agents.json")]) == EXIT_CONFIG
        assert main(["simulate", *world, "--poses", str(tmp_path / "traj.json"),
                     "--out", str(tmp_path / "rollout")]) == EXIT_CONFIG



# what no reader may take for a number: ints beyond float range, NaN, the
# infinities, a bool, a numeric string, null and a list
NOT_NUMBERS = (10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, True, "1", None, [1])


def _numeric_leaves(obj, path=()):
    """Paths to the int and float leaves (bools excluded) of decoded JSON."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for k, v in items for p in _numeric_leaves(v, path + (k,))]
    return [path] if type(obj) in (int, float) else []


def _replaced(obj, path, value):
    """A copy of decoded JSON ``obj`` with the leaf at ``path`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return obj


# (class, valid config, fixed keywords) of each section the CLI builds with
# ``_from_config``; the config holds every ruled field's default
_CONFIGS = [(cls, json.loads(json.dumps({f.name: f.default for f in dataclasses.fields(cls)
                                         if "rule" in f.metadata})), fixed)
            for cls, fixed in ((FusionParams, {}), (TopologyParams, {}), (LaneParams, {}),
                               (IdmParams, {}), (SimParams, {"idm": IdmParams(), "seed": 0}),
                               (WorldSpec, {"seed": 0}))]


_OCCG_HEADER = {"dims": [2, 2, 2], "voxel_size": 0.4,
                "origin": {"x": 1.0, "y": 2.0, "yaw": 0.0},
                "table": default_table().to_json(), "global": True}
# (reader, valid decoded input, the error a malformed one raises)
_READERS = {
    "graph": (load_graph, json.loads(_graph_json()), InputFormatError),
    "lanes": (load_lanes, [{"points": [[2.0, 10.0], [18.0, 10]], "offset_index": 1,
                            "source_segment": 2}], InputFormatError),
    "trajectory": (load_trajectory, [{"x": 10.0, "y": 10.0, "yaw": 0.0},
                                     {"x": 12, "y": 10.0, "yaw": 0.1}],
                   InputFormatError),
    "occg": (GridFile, _OCCG_HEADER, GridFormatError),
}
_READER_LEAVES = [(name, path) for name, (_, obj, _) in _READERS.items()
                  for path in _numeric_leaves(obj)]
_CONFIG_LEAVES = [(i, path) for i, (_, cfg, _) in enumerate(_CONFIGS)
                  for path in _numeric_leaves(cfg)]


def _write_input(name, obj, path):
    if name == "occg":
        header = json.dumps(obj).encode()
        path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(header)) + header + b"\0" * 8)
    else:
        path.write_text(json.dumps(obj))


class TestEveryNumberReadIsChecked:
    """North-star invariant: every malformed input maps to its documented
    error. One numeric leaf of a valid graph, lanes file, trajectory, OCCG
    header or params config, set to what is not a number a finite float
    holds, makes the reader raise its format error (exit 4) and the config
    a ConfigError (exit 2), and nothing else."""

    def test_the_valid_inputs_load(self, tmp_path):
        for name, (read, obj, _) in _READERS.items():
            _write_input(name, obj, tmp_path / name)
            read(tmp_path / name)
        for cls, cfg, fixed in _CONFIGS:
            _from_config(cls, cfg, **fixed)

    @settings(max_examples=300, deadline=None)
    @given(leaf=st.sampled_from(_READER_LEAVES), bad=st.sampled_from(NOT_NUMBERS))
    def test_a_reader_rejects_a_leaf_that_is_not_a_number(self, tmp_path_factory, leaf, bad):
        name, path = leaf
        read, obj, error = _READERS[name]
        file = tmp_path_factory.mktemp("leaf") / name
        _write_input(name, _replaced(obj, path, bad), file)
        with pytest.raises(error):
            read(file)

    @settings(max_examples=300, deadline=None)
    @given(leaf=st.sampled_from(_CONFIG_LEAVES), bad=st.sampled_from(NOT_NUMBERS))
    def test_a_config_rejects_a_leaf_that_is_not_a_number(self, leaf, bad):
        i, path = leaf
        cls, cfg, fixed = _CONFIGS[i]
        with pytest.raises(ConfigError):
            _from_config(cls, _replaced(cfg, path, bad), **fixed)


def _fid_report(x, y):
    value, flagged = fid(x, y)
    return {"value": value, "singular_covariance": flagged}


class TestMetricsCommand:
    @pytest.mark.parametrize("args, library, n_a", [
        (["mmd"], lambda x, y: {"value": mmd(x, y)}, 12),
        (["mmd", "--sigma", "2.5"], lambda x, y: {"value": mmd(x, y, sigma=2.5)}, 12),
        (["kid"], lambda x, y: {"value": kid(x, y)}, 12),
        (["fid"], _fid_report, 12),
        (["fid"], _fid_report, 3),     # 3 samples of 4 features: singular covariance
    ], ids=["mmd", "mmd-sigma", "kid", "fid", "fid-singular"])
    def test_reports_the_library_value(self, tmp_path, capsys, args, library, n_a):
        rng = np.random.default_rng(5)
        a, b = tmp_path / "a.feat", tmp_path / "b.feat"
        write_features(rng.normal(size=(n_a, 4)), a)
        write_features(rng.normal(0.5, 1.0, size=(9, 4)), b)
        assert main(["metrics", args[0], "--a", str(a), "--b", str(b), *args[1:]]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"metric": args[0], **library(read_features(a), read_features(b))}
        if args[0] == "fid":
            assert report["singular_covariance"] == (n_a == 3)

    def test_mmd_refuses_the_removed_kernel_flag(self, tmp_path, capsys):
        # mmd takes the Gaussian kernel alone; the polynomial MMD is kid
        feat = tmp_path / "a.feat"
        write_features(np.random.default_rng(0).normal(size=(6, 3)), feat)
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "mmd", "--a", str(feat), "--b", str(feat),
                  "--kernel", "polynomial"])
        assert exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("metric", ["mmd", "kid", "fid"])
    @pytest.mark.parametrize("shape_a, shape_b", [((6, 0), (6, 0)), ((6, 4), (6, 5))],
                             ids=["zero-width", "widths-differ"])
    def test_feature_sets_that_do_not_match_are_a_stage_failure(self, tmp_path, capsys,
                                                                 metric, shape_a, shape_b):
        # two 6 x 0 sets used to print kid's NaN (not JSON) and a 0.0 for
        # mmd and fid, with exit 0
        a, b = tmp_path / "a.feat", tmp_path / "b.feat"
        rng = np.random.default_rng(0)
        write_features(rng.normal(size=shape_a), a)
        write_features(rng.normal(size=shape_b), b)
        assert main(["metrics", metric, "--a", str(a), "--b", str(b)]) == EXIT_STAGE
        out, err = capsys.readouterr()
        assert out == "" and f"{shape_a}" in err and f"{shape_b}" in err

    @staticmethod
    def _diversity(tmp_path, capsys, a, b, table_b=default_table()):
        """Exit code and printed report of ``metrics diversity`` on the
        label volumes ``a`` and ``b`` written as maps, ``a`` under the
        default table and ``b`` under ``table_b``."""
        paths = [tmp_path / "a.occg", tmp_path / "b.occg"]
        for labels, path, table in zip((a, b), paths, (default_table(), table_b)):
            write_grid(GlobalMap(labels, 0.4, Pose2(), table), path)
        code = main(["metrics", "diversity", "--a", str(paths[0]), "--b", str(paths[1])])
        out = capsys.readouterr().out
        return code, json.loads(out) if code == EXIT_OK else None

    def test_diversity_of_a_map_with_itself_is_zero(self, tmp_path, capsys):
        # the command used to read --a as a FEATSET1 file and exit 4
        labels = np.full((20, 20, 4), default_table().road_id, dtype=np.uint8)
        labels[:5, :, 0] = default_table().sidewalk_id
        code, report = self._diversity(tmp_path, capsys, labels, labels)
        assert code == EXIT_OK
        assert report == {"metric": "diversity", "value": 0.0}

    def test_diversity_is_one_minus_the_miou(self, tmp_path, capsys):
        t = default_table()
        a = np.full((20, 20, 4), t.road_id, dtype=np.uint8)
        b = a.copy()
        b[:7, :, :2] = t.sidewalk_id
        b[15:, 3:9, 0] = t.vehicle_id
        code, report = self._diversity(tmp_path, capsys, a, b)
        assert code == EXIT_OK
        assert report == {"metric": "diversity", "value": 1 - miou(a, b, t.ids)[1]}
        assert 0 < report["value"] < 1

    def test_diversity_of_maps_with_different_dims_is_a_stage_failure(self, tmp_path,
                                                                       capsys):
        road = default_table().road_id
        code, _ = self._diversity(tmp_path, capsys,
                                  np.full((20, 20, 4), road, dtype=np.uint8),
                                  np.full((20, 21, 4), road, dtype=np.uint8))
        assert code == EXIT_STAGE

    def test_diversity_of_maps_with_different_tables_is_a_stage_failure(self, tmp_path,
                                                                         capsys):
        # ids 1 and 2 are road and sidewalk in one map and the reverse in the
        # other: by raw label value the two would read as identical
        labels = np.ones((20, 20, 4), dtype=np.uint8)
        labels[:5, :, 0] = 2
        code, _ = self._diversity(tmp_path, capsys, labels, labels, swapped_table())
        assert code == EXIT_STAGE


class TestSynth:
    WORLD = {"recipe": "curve", "extent": 60.0, "radius": 20.0, "road_width": 6.0}

    @pytest.mark.parametrize("trajectory, step", [({}, 3.0), ({"step": 5.0}, 5.0)],
                             ids=["default-step", "step"])
    def test_curve_recipe_samples_the_arc(self, tmp_path, capsys, trajectory, step):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"world": self.WORLD, "trajectory": trajectory,
                                    "crop_dims": [40, 40, 4]}))
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        expect = curve_trajectory(WorldSpec(**self.WORLD), step=step)
        poses = load_trajectory(out / "trajectory.json")
        assert np.allclose([(p.x, p.y, p.yaw) for p in poses],
                           [(p.x, p.y, p.yaw) for p in expect], rtol=0, atol=1e-12)
        frames = sorted((out / "frames").glob("frame_*.occg"))
        assert len(frames) == len(expect)
        first = read_grid(frames[0])
        assert first.dims == (40, 40, 4) and first.origin == expect[0]


class TestSpawnFromLayout:
    # (cell x, cell y, static) of a 200 x 200 heatmap at 0.4 m per cell,
    # centred on the map centre (10, 10): cell (c, c') lies at world
    # (0.4 c - 29.8, 0.4 c' - 29.8)
    SNAPPABLE = [(80, 99, False), (95, 100, False), (110, 99, True),
                 (88, 105, True)]
    OFF_ROAD = [(100, 150, False), (30, 99, True)]   # > 5 m from the lane

    def test_valid_heatmap(self, tmp_path):
        _spawnable_world(tmp_path,
                         lane_points=[(x, 10.0) for x in np.arange(2.0, 18.5, 0.5)])
        layout = tmp_path / "layout.hm"
        cells = self.SNAPPABLE + self.OFF_ROAD
        write_heatmap(encode_heatmap(
            [LayoutEntry((cx + 0.5) * 0.4, (cy + 0.5) * 0.4, static)
             for cx, cy, static in cells], 0.4), 0.4, layout)
        world = ["--map", str(tmp_path / "map.occg"),
                 "--lanes", str(tmp_path / "lanes.json"),
                 "--graph", str(tmp_path / "graph.json"), "--layout", str(layout)]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["spawn", *world, "--seed", "3", "--out", str(out)]) == EXIT_OK
        agents = json.loads(outs[0].read_text())
        assert len(agents) == len(self.SNAPPABLE) + 1
        assert sum(a["is_ego"] for a in agents) == 1
        static = [a for a in agents if a["static"]]
        assert len(static) == sum(s for _, _, s in self.SNAPPABLE)
        assert all(a["speed"] == 0.0 for a in static)
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestPipeline:
    def test_end_to_end_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        hashes, stages = _run_pipeline(tmp_path, PIPELINE_CONFIG, out_dir)
        assert stages == ["synth", "fuse", "topo", "lanes", "spawn", "simulate"]
        assert hashes.keys() == PIPELINE_PINS.keys()
        assert_pins({PIPELINE_PINS[key]: digest for key, digest in hashes.items()})
        assert (out_dir / "map.occg").exists()
        assert (out_dir / "lanes.json").exists()
        assert (out_dir / "rollout" / "run_manifest.json").exists()

    def test_trajectory_times_do_not_move_the_fused_map(self, tmp_path, capsys):
        # record i is the pose of step i: a file with times of any spacing,
        # and one with none, fuse to the map of the pipeline's own trajectory
        out_dir = tmp_path / "out"
        _run_pipeline(tmp_path, PIPELINE_CONFIG, out_dir)
        records = json.loads((out_dir / "trajectory.json").read_text())
        timed, untimed = tmp_path / "timed.json", tmp_path / "untimed.json"
        timed.write_text(json.dumps([{"t": 7.5 * i * i + 0.001 * i, **r}
                                     for i, r in enumerate(records)]))
        untimed.write_text(json.dumps([{k: r[k] for k in ("x", "y", "yaw")}
                                       for r in records]))
        for poses in (timed, untimed):
            fused = tmp_path / f"{poses.stem}.occg"
            assert main(["fuse", "--frames", str(out_dir / "frames"), "--poses", str(poses),
                         "--out", str(fused)]) == EXIT_OK
            assert fused.read_bytes() == (out_dir / "map.occg").read_bytes(), poses.stem

    @pytest.mark.parametrize("before, after, stray", [
        # 12 synth frames, then 6: fusion used to find 12 frames for 6 poses
        ({}, {"synth": {"trajectory": {"step": 6.4}}}, ()),
        # 6 rollout frames, then 3: frames 3-5 used to stay in the rollout
        ({"simulate": {"horizon": 6}}, {"simulate": {"horizon": 3}}, ()),
        # files no stage wrote: the directory digests used to hash them too
        ({}, {}, ("frames/notes.txt", "rollout/sub/frame_000000.occg")),
    ], ids=["fewer-poses", "shorter-horizon", "stray-files"])
    def test_rerun_into_used_dir_matches_fresh_dir(self, tmp_path, capsys, before, after,
                                                   stray):
        used = tmp_path / "used"
        _run_pipeline(tmp_path, _pipeline_config(**before), used)
        for name in stray:
            (used / name).parent.mkdir(exist_ok=True)
            (used / name).write_bytes(b"left over")
        rerun, _ = _run_pipeline(tmp_path, _pipeline_config(**after), used)
        fresh, _ = _run_pipeline(tmp_path, _pipeline_config(**after), tmp_path / "fresh")
        assert rerun == fresh
        assert all((used / name).read_bytes() == b"left over" for name in stray)

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        _run_pipeline(tmp_path, PIPELINE_CONFIG, out_dir)
        cfg = tmp_path / "plus.json"
        cfg.write_text(json.dumps(_pipeline_config(synth={
            "world": {"recipe": "plus", "extent": 60.0, "road_width": 14.4}})))
        assert main(["pipeline", "--config", str(cfg), "--seed", "7",
                     "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert "no valid endpoints" in capsys.readouterr().err
        assert not (out_dir / "pipeline_manifest.json").exists()

    def test_recorded_digests_are_those_of_the_files_written(self, tmp_path):
        out_dir = tmp_path / "out"
        manifest = run_pipeline(PIPELINE_CONFIG, 7, out_dir)
        assert json.loads((out_dir / "pipeline_manifest.json").read_text()) == manifest
        n_poses = len(load_trajectory(out_dir / "trajectory.json"))
        horizon = PIPELINE_CONFIG["simulate"]["horizon"]
        written = {out_dir / "frames": [f"frame_{i:06d}.occg" for i in range(n_poses)],
                   out_dir / "rollout": [*(f"frame_{i:06d}.occg" for i in range(horizon)),
                                         "run_manifest.json"]}
        for stage in manifest["stages"]:
            for name, artifact in stage["artifacts"].items():
                path = Path(artifact["path"])
                if path.is_dir():
                    assert sorted(f.name for f in path.iterdir()) == written[path]
                    fold = hashlib.sha256()
                    for f in written[path]:
                        fold.update(f.encode() + bytes.fromhex(_sha256(path / f)))
                    expected = fold.hexdigest()
                else:
                    expected = _sha256(path)
                assert artifact["sha256"] == expected, (stage["stage"], name)

    def test_even_block_grid(self, tmp_path, capsys):
        # two road rows, so none runs along y = extent/2: the ego path must
        # follow a road row to snap onto the lane network
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"synth": {"world": {"recipe": "grid", "extent": 160.0, "blocks": [2, 2]}}}))
        assert main(["pipeline", "--config", str(cfg), "--seed", "7",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_OK

    def test_stage_chaining_via_subcommands(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(PIPELINE_CONFIG["synth"]))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec), "--out", str(out),
                     "--seed", "1"]) == EXIT_OK
        capsys.readouterr()
        gmap, graph = str(tmp_path / "map.occg"), str(tmp_path / "graph.json")
        for argv, name, path in [
            (["fuse", "--frames", str(out / "frames"), "--poses", str(out / "trajectory.json")],
             "map", gmap),
            (["topo", "--map", gmap], "graph", graph),
            (["lanes", "--map", gmap, "--graph", graph], "lanes", str(tmp_path / "lanes.json")),
        ]:
            assert main([*argv, "--out", path]) == EXIT_OK
            # each subcommand prints the record it returns
            printed = json.loads(capsys.readouterr().out)
            assert printed == {name: {"path": path, "sha256": _sha256(path)}}
        lanes = json.loads((tmp_path / "lanes.json").read_text())
        assert len(lanes) >= 1


class TestStreaming:
    """synth, fuse and simulate hold a fixed number of frames: over a fixed
    map, the traced peak of 4N frames exceeds that of N by less than one
    frame."""

    CROP = (120, 120, 16)   # synth and fuse frames
    FOV = (200, 200, 16)    # simulate frames (the SimParams default)

    @staticmethod
    def _peak(stage, *args) -> int:
        tracemalloc.start()
        try:
            stage(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _peaks(self, out: Path, n: int) -> dict:
        """Traced peaks of the three stages over n frames at one repeated
        pose on the road, so that the fused map's extent is fixed."""
        out.mkdir()
        _write_poses(out / "path.json", [(30.0, 30.0, 0.0)] * n)
        spec = {"world": PIPELINE_CONFIG["synth"]["world"], "crop_dims": list(self.CROP),
                "trajectory": {"path": str(out / "path.json")}}
        traj = out / "trajectory.json"
        peaks = {"synth": self._peak(run_synth, spec, 7, out),
                 "fuse": self._peak(run_fuse, out / "frames", traj, {}, out / "map.occg")}
        # the ground-truth world as the map: its lanes do not depend on n
        run_topo(out / "world.occg", {}, out / "graph.json")
        run_lanes(out / "world.occg", out / "graph.json", {}, out / "lanes.json")
        peaks["simulate"] = self._peak(
            run_simulate, out / "world.occg", out / "lanes.json", out / "graph.json", traj,
            {"horizon": n}, 7, "procedural", out / "rollout")
        assert len(list((out / "rollout").glob("frame_*.occg"))) == n
        return peaks

    def test_peak_memory_does_not_grow_with_frame_count(self, tmp_path, monkeypatch):
        # Nor do the strings the stages intern: a new string in the
        # interpreter's intern table can make it rebuild (about 2 MB), and a
        # rebuild inside a traced stage counts in its peak.
        interned = []
        intern = sys.intern

        def counting_intern(s):
            if tracemalloc.is_tracing():
                interned.append(s)
            return intern(s)

        monkeypatch.setattr(sys, "intern", counting_intern)
        few = self._peaks(tmp_path / "few", 3)
        few_interned = len(interned)
        many = self._peaks(tmp_path / "many", 12)
        assert len(interned) - few_interned == few_interned
        frame_bytes = {"synth": math.prod(self.CROP), "fuse": math.prod(self.CROP),
                       "simulate": math.prod(self.FOV)}
        for stage, nbytes in frame_bytes.items():
            assert many[stage] - few[stage] < nbytes, (stage, few[stage], many[stage])


def _record_calling_threads(monkeypatch, module, calls: list):
    """Wrap each public function of ``module``, and each public method of
    its classes, wherever a voxsim module holds it, so that every call
    appends (name, calling thread) to ``calls``."""
    wrapped = {}

    def recorder(fn):
        @functools.wraps(fn)
        def record(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return record

    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found = [(module, name, obj)]
        elif inspect.isclass(obj):
            found = [(obj, m, f) for m, f in vars(obj).items()
                     if not m.startswith("_") and inspect.isfunction(f)]
        else:
            found = []
        for owner, attr, fn in found:
            wrapped[id(fn)] = recorder(fn)
            monkeypatch.setattr(owner, attr, wrapped[id(fn)])
    for mod in [m for n, m in sys.modules.items() if n.startswith("voxsim.")]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and mod is not module:
                monkeypatch.setattr(mod, attr, wrapped[id(obj)])


class TestWriterThread:
    """Frames are hashed and written on a writer thread that runs only
    private code: every call of a public occupancy function comes from the
    calling thread. ``bench/tracing.py`` keeps one span stack and relies on
    this."""

    def test_public_occupancy_calls_come_from_the_main_thread(self, tmp_path, monkeypatch):
        calls = []
        _record_calling_threads(monkeypatch, occupancy, calls)
        spec = {**PIPELINE_CONFIG["synth"], "trajectory": {"step": 6.4}}
        run_synth(spec, 7, tmp_path)
        world, graph, lanes = (tmp_path / n for n in ("world.occg", "graph.json", "lanes.json"))
        run_topo(world, {}, graph)
        run_lanes(world, graph, {}, lanes)
        run_simulate(world, lanes, graph, tmp_path / "trajectory.json", {"horizon": 3}, 7,
                     "procedural", tmp_path / "rollout")
        assert len(list((tmp_path / "rollout").glob("frame_*.occg"))) == 3
        assert {"write_grids", "write_hashed", "crop", "to_json"} <= {n for n, _ in calls}
        assert {t for _, t in calls} == {threading.main_thread()}
