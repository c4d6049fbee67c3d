"""Command-line entry point chaining the pipeline stages.

Subcommands mirror the stages: synth, fuse, topo, lanes, spawn, simulate,
metrics, and a pipeline command running all of them end to end with a single
root seed. Exit codes: 0 success, 2 config error, 3 stage failure, 4 I/O
or input format error.

Each stage returns and prints ``{name: {"path", "sha256"}}`` for what it
wrote, hashed as written; ``pipeline_manifest.json`` lists these records and
exists only for a run that finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import agents as agents_mod
from . import fusion as fusion_mod
from . import lanes as lanes_mod
from . import metrics as metrics_mod
from . import occupancy, synthworld, topology
from .geometry import Pose2, Trajectory, load_trajectory, save_trajectory
from .simulation import SimParams, IdmParams, Simulator

log = logging.getLogger("voxsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


def stage_seed(root_seed: int, stage: str) -> int:
    """Deterministic per-stage sub-seed: stage reordering cannot leak RNG
    state between stages."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _from_config(make, cfg, **fixed):
    """make(**cfg, **fixed) for a params or spec class, with an unknown key
    or an out-of-range value raised as a ConfigError."""
    try:
        return make(**cfg, **fixed)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{make.__name__}: {e}") from e


def _section(cfg: dict, key: str) -> dict:
    """The ``key`` section of a config, {} when absent; a section that is
    not a JSON object is a ConfigError."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, "
                          f"not {type(section).__name__}")
    return section


def _config_value(cfg: dict, key: str, default, rule: occupancy.Rule):
    """cfg[key] (``default`` when absent), a ConfigError unless it passes ``rule``."""
    try:
        return rule.check(key, cfg.get(key, default))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _artifact(path, sha256: str) -> dict:
    """A stage's record of one artifact it wrote."""
    return {"path": str(path), "sha256": sha256}


def _directory_artifact(path, digests: dict) -> dict:
    """The record of a directory artifact from the sha256 of each file the
    stage wrote into it, by file name: the digest folds each name and raw
    digest in name order, so files the stage did not write never count."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(name.encode())
        h.update(bytes.fromhex(digests[name]))
    return _artifact(path, h.hexdigest())


def _frame_path(frames_dir, i: int) -> str:
    """Frame i's file under ``frames_dir``, as a str: pathlib interns each
    path part it parses, so a ``Path`` per frame would intern each frame's
    name and free it again, and the interpreter's intern table rebuilds
    itself (about 2 MB) every so often under that churn."""
    return os.path.join(frames_dir, f"frame_{i:06d}.occg")


def _fresh_frames_dir(frames_dir: Path) -> Path:
    """``frames_dir``, created if missing, with the frame files of an
    earlier run into it deleted: a stage writes its frames as they are
    made, and a shorter run must not leave the old tail behind."""
    frames_dir.mkdir(parents=True, exist_ok=True)
    for old in frames_dir.glob("frame_*.occg"):
        old.unlink()
    return frames_dir


# --- stage implementations --------------------------------------------------

def run_synth(cfg: dict, seed: int, out_dir: Path) -> dict:
    spec = _from_config(synthworld.WorldSpec,
                        {**_section(cfg, "world"), "seed": seed % (2 ** 31)})
    traj_cfg = _section(cfg, "trajectory")
    crop_dims = _config_value(cfg, "crop_dims", occupancy.DEFAULT_CROP_DIMS, occupancy.DIMS)
    noise = _config_value(cfg, "noise", 0.0, occupancy.Rule(
        lambda v: occupancy.NONNEGATIVE.ok(v) and v <= 1, "a number in [0, 1]"))
    step = _config_value(traj_cfg, "step", 3.0 if spec.recipe == "curve" else 3.2,
                         occupancy.POSITIVE)
    path = _config_value(traj_cfg, "path", None, occupancy.Rule(
        lambda v: v is None or isinstance(v, str), "a file path"))
    try:
        world = synthworld.generate_world(spec)
    except ValueError as e:  # a spec no world can be built from
        raise ConfigError(f"world: {e}") from e
    if path is not None:
        poses = load_trajectory(path).poses
    elif spec.recipe == "curve":
        poses = synthworld.curve_trajectory(spec, step=step)
    else:
        poses = synthworld.straight_trajectory(spec, step=step)
    frames = synthworld.iter_frames(world, poses, crop_dims=tuple(crop_dims),
                                    noise=noise, seed=seed % (2 ** 31))
    frames_dir = _fresh_frames_dir(out_dir / "frames")
    digests = occupancy.write_grids((f, _frame_path(frames_dir, i))
                                    for i, f in enumerate(frames))
    world_path, traj_path = out_dir / "world.occg", out_dir / "trajectory.json"
    traj = Trajectory(tuple((float(i), p) for i, p in enumerate(poses)))
    return {"world": _artifact(world_path, occupancy.write_grid(world, world_path)),
            "frames": _directory_artifact(frames_dir, digests),
            "trajectory": _artifact(traj_path, save_trajectory(traj, traj_path))}


def _load_frames(frames_dir: Path):
    """The frames under ``frames_dir`` in file-name order, each a GridFile
    whose header has been checked; fusion reads their labels as it goes."""
    paths = sorted(Path(frames_dir).glob("frame_*.occg"))
    if not paths:
        raise ConfigError(f"no frames found under {frames_dir}")
    return [occupancy.GridFile(p) for p in paths]


def run_fuse(frames_dir, traj_path, params_cfg: dict, out_path: Path) -> dict:
    frames = _load_frames(frames_dir)
    poses = load_trajectory(traj_path).poses
    params = _from_config(fusion_mod.FusionParams, params_cfg)
    gmap = fusion_mod.fuse_sequence(frames, poses, params)
    return {"map": _artifact(out_path, occupancy.write_grid(gmap, out_path))}


def run_topo(map_path, params_cfg: dict, out_path: Path) -> dict:
    gmap = occupancy.read_grid(map_path)
    params = _from_config(topology.TopologyParams, params_cfg)
    g, valid = topology.extract_topology(gmap, params)
    return {"graph": _artifact(out_path, topology.save_graph(g, valid, out_path))}


def run_lanes(map_path, graph_path, params_cfg: dict, out_path: Path) -> dict:
    gmap = occupancy.read_grid(map_path)
    g, _ = topology.load_graph(graph_path)
    params = _from_config(lanes_mod.LaneParams, params_cfg)
    lanes = lanes_mod.extract_lanes(gmap, g, params)
    return {"lanes": _artifact(out_path, lanes_mod.save_lanes(lanes, out_path))}


def _endpoints_to_world(gmap, valid_px):
    """World (x, y) of the centres of the endpoint pixels, as a list of pairs."""
    return [gmap.cell_center(x, y) for x, y in valid_px]


def _build_sim(map_path, lanes_path, graph_path, layout, params: SimParams,
               ego_path=None) -> Simulator:
    """The simulator spawn and simulate share: map, lanes and valid endpoints
    loaded and the layout source picked. Without an ego path the map centre
    is the one recorded pose."""
    gmap = occupancy.read_grid(map_path)
    lanes = lanes_mod.load_lanes(lanes_path)
    _, valid_px = topology.load_graph(graph_path)
    if not valid_px:
        raise ConfigError("graph has no valid endpoints to route toward")
    if ego_path is None:
        lo, hi = gmap.extent
        ego_path = [Pose2(float((lo[0] + hi[0]) / 2), float((lo[1] + hi[1]) / 2), 0.0)]
    source = None if layout == "procedural" else agents_mod.FileLayoutSource(layout)
    return Simulator(gmap, lanes, _endpoints_to_world(gmap, valid_px), ego_path,
                     params, layout_source=source)


def run_spawn(map_path, lanes_path, graph_path, layout, seed, out_path: Path) -> dict:
    sim = _build_sim(map_path, lanes_path, graph_path, layout,
                     SimParams(seed=seed % (2 ** 31)))
    spawned = sim.spawn(sim.ego_path[0], True)
    out = [{"x": float(a.position[0]), "y": float(a.position[1]),
            "yaw": a.yaw, "speed": a.speed, "static": a.static,
            "is_ego": a.is_ego,
            "route": a.route.tolist(), "target": np.asarray(a.target).tolist()}
           for a in spawned]
    return {"agents": _artifact(out_path, occupancy.save_json(out, out_path))}


def run_simulate(map_path, lanes_path, graph_path, traj_path, params_cfg,
                 seed, layout, out_dir: Path) -> dict:
    idm = _from_config(IdmParams, _section(params_cfg, "idm"))
    params_cfg = {k: v for k, v in params_cfg.items() if k != "idm"}
    params = _from_config(SimParams, params_cfg, idm=idm, seed=seed % (2 ** 31))
    sim = _build_sim(map_path, lanes_path, graph_path, layout, params,
                     load_trajectory(traj_path).poses)
    _fresh_frames_dir(out_dir)
    logbook = []

    def frames():
        for i, (frame, entry) in enumerate(sim.iter_steps(ego_pose_index=0)):
            logbook.append(entry)
            yield frame, _frame_path(out_dir, i)

    digests = occupancy.write_grids(frames())
    manifest_path = out_dir / "run_manifest.json"
    digests[manifest_path.name] = occupancy.save_json({"steps": logbook}, manifest_path)
    return {"frames": _directory_artifact(out_dir, digests),
            "run_manifest": _artifact(manifest_path, digests[manifest_path.name])}


def run_metrics(args) -> dict:
    sigma = _config_value(vars(args), "sigma", None, occupancy.POSITIVE)
    a = metrics_mod.read_features(args.a)
    report = {"metric": args.metric}
    if args.metric == "vendi":
        report["value"] = metrics_mod.vendi(a)
    elif args.metric in ("mmd", "kid", "fid"):
        if not args.b:
            raise ConfigError(f"{args.metric} needs --b")
        b = metrics_mod.read_features(args.b)
        if args.metric == "mmd":
            report["value"] = metrics_mod.mmd(a, b, kernel=args.kernel, sigma=sigma)
        elif args.metric == "kid":
            report["value"] = metrics_mod.kid(a, b)
        else:
            value, flagged = metrics_mod.fid(a, b)
            report["value"] = value
            report["singular_covariance"] = flagged
    elif args.metric == "diversity":
        if not args.b:
            raise ConfigError("diversity needs --b")
        ga = occupancy.read_grid(args.a)
        gb = occupancy.read_grid(args.b)
        _, m = metrics_mod.miou(ga, gb, ga.table.ids)
        report["value"] = 1.0 - m
    else:
        raise ConfigError(f"unknown metric {args.metric}")
    return report


# --- pipeline ---------------------------------------------------------------

def run_pipeline(config: dict, root_seed: int, out_dir: Path) -> dict:
    synth_cfg, fuse_cfg, topo_cfg, lanes_cfg, sim_cfg = (
        _section(config, stage) for stage in ("synth", "fuse", "topo", "lanes", "simulate"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "pipeline_manifest.json"
    manifest_path.unlink(missing_ok=True)  # a manifest is only ever a finished run's
    traj, gmap, graph, lanes = (out_dir / name for name in (
        "trajectory.json", "map.occg", "graph.json", "lanes.json"))
    stages = {
        "synth": run_synth(synth_cfg, stage_seed(root_seed, "synth"), out_dir),
        "fuse": run_fuse(out_dir / "frames", traj, fuse_cfg, gmap),
        "topo": run_topo(gmap, topo_cfg, graph),
        "lanes": run_lanes(gmap, graph, lanes_cfg, lanes),
        "spawn": run_spawn(gmap, lanes, graph, "procedural", stage_seed(root_seed, "spawn"),
                           out_dir / "agents.json"),
        "simulate": run_simulate(gmap, lanes, graph, traj, sim_cfg,
                                 stage_seed(root_seed, "simulate"), "procedural",
                                 out_dir / "rollout"),
    }
    manifest = {"seed": root_seed, "stages": [{"stage": stage, "artifacts": artifacts}
                                              for stage, artifacts in stages.items()]}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="voxsim")
    ap.add_argument("--log-level", default="WARNING")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world and frames")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fuse", help="fuse ego frames into a global map")
    p.add_argument("--frames", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("topo", help="extract the road graph")
    p.add_argument("--map", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lanes", help="extract vectorized lanes")
    p.add_argument("--map", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spawn", help="spawn agents on the lane network")
    p.add_argument("--map", required=True)
    p.add_argument("--lanes", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--layout", default="procedural")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run the closed-loop engine")
    p.add_argument("--map", required=True)
    p.add_argument("--lanes", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--layout", default="procedural")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="evaluate realism/diversity metrics")
    p.add_argument("metric", choices=["vendi", "mmd", "kid", "fid", "diversity"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--kernel", default="gaussian", choices=["gaussian", "polynomial"])
    p.add_argument("--sigma", type=float, default=1.0)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    return ap


def _load_json(path) -> dict:
    """The JSON object in a config file, {} without a file. A missing file,
    undecodable JSON or a top level that is not an object is a ConfigError."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(str(e))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as e:
        raise ConfigError(f"bad JSON in {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        if args.command == "synth":
            result = run_synth(_load_json(args.spec), args.seed, Path(args.out))
        elif args.command == "fuse":
            result = run_fuse(args.frames, args.poses, _load_json(args.params),
                              Path(args.out))
        elif args.command == "topo":
            result = run_topo(args.map, _load_json(args.params), Path(args.out))
        elif args.command == "lanes":
            result = run_lanes(args.map, args.graph, _load_json(args.params),
                               Path(args.out))
        elif args.command == "spawn":
            result = run_spawn(args.map, args.lanes, args.graph, args.layout,
                               args.seed, Path(args.out))
        elif args.command == "simulate":
            result = run_simulate(args.map, args.lanes, args.graph, args.poses,
                                  _load_json(args.params), args.seed,
                                  args.layout, Path(args.out))
        elif args.command == "metrics":
            result = run_metrics(args)
        elif args.command == "pipeline":
            result = run_pipeline(_load_json(args.config), args.seed,
                                  Path(args.out_dir))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError, occupancy.GridFormatError,
            occupancy.InputFormatError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        print(f"stage failure ({args.command}): {e}", file=sys.stderr)
        return EXIT_STAGE
    json.dump(result, sys.stdout, indent=2, default=str)
    print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
