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
from .geometry import Pose2
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


def _known_keys(cfg: dict, known, where: str) -> None:
    """A ConfigError naming the first key of ``cfg`` that is not in ``known``."""
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")


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
    _known_keys(cfg, ("world", "crop_dims", "noise", "trajectory"), "the synth spec")
    spec = _from_config(synthworld.WorldSpec, _section(cfg, "world"), seed=seed % (2 ** 31))
    traj_cfg = _section(cfg, "trajectory")
    _known_keys(traj_cfg, ("step", "path"), "trajectory")
    crop_dims = _config_value(cfg, "crop_dims", occupancy.DEFAULT_CROP_DIMS, occupancy.DIMS)
    noise = _config_value(cfg, "noise", 0.0, occupancy.Rule(
        lambda v: occupancy.NONNEGATIVE.ok(v) and v <= 1, "a number in [0, 1]"))
    # the trajectory function's own default step, unless the spec gives one
    step = ({"step": _config_value(traj_cfg, "step", None, occupancy.POSITIVE)}
            if "step" in traj_cfg else {})
    path = _config_value(traj_cfg, "path", None, occupancy.Rule(
        lambda v: v is None or isinstance(v, str), "a file path"))
    try:
        world = synthworld.generate_world(spec)
    except ValueError as e:  # a spec no world can be built from
        raise ConfigError(f"world: {e}") from e
    if path is not None:
        poses = occupancy.load_trajectory(path)
    elif spec.recipe == "curve":
        poses = synthworld.curve_trajectory(spec, **step)
    else:
        poses = synthworld.straight_trajectory(spec, **step)
    frames = synthworld.iter_frames(world, poses, crop_dims=tuple(crop_dims),
                                    noise=noise, seed=seed % (2 ** 31))
    frames_dir = _fresh_frames_dir(out_dir / "frames")
    digests = occupancy.write_grids((f, _frame_path(frames_dir, i))
                                    for i, f in enumerate(frames))
    world_path, traj_path = out_dir / "world.occg", out_dir / "trajectory.json"
    return {"world": _artifact(world_path, occupancy.write_grid(world, world_path)),
            "frames": _directory_artifact(frames_dir, digests),
            "trajectory": _artifact(traj_path, occupancy.save_trajectory(poses, traj_path))}


def _load_frames(frames_dir: Path):
    """The frames under ``frames_dir`` in file-name order, each a GridFile
    whose header has been checked; fusion reads their labels as it goes."""
    paths = sorted(Path(frames_dir).glob("frame_*.occg"))
    if not paths:
        raise ConfigError(f"no frames found under {frames_dir}")
    return [occupancy.GridFile(p) for p in paths]


def run_fuse(frames_dir, traj_path, params_cfg: dict, out_path: Path) -> dict:
    frames = _load_frames(frames_dir)
    poses = occupancy.load_trajectory(traj_path)
    params = _from_config(fusion_mod.FusionParams, params_cfg)
    gmap = fusion_mod.fuse_sequence(frames, poses, params)
    return {"map": _artifact(out_path, occupancy.write_grid(gmap, out_path))}


def _read_map(path) -> occupancy.GlobalMap:
    """The world-aligned global map in the OCCG file at ``path``; any other
    grid, a synth frame say, is a GridFormatError."""
    gmap = occupancy.read_grid(path)
    if not isinstance(gmap, occupancy.GlobalMap):
        raise occupancy.GridFormatError(f"{path} is a frame: its header does not say global", 24)
    return gmap


def run_topo(map_path, params_cfg: dict, out_path: Path) -> dict:
    gmap = _read_map(map_path)
    params = _from_config(topology.TopologyParams, params_cfg)
    g, valid = topology.extract_topology(gmap, params)
    return {"graph": _artifact(out_path, topology.save_graph(g, valid, out_path))}


def run_lanes(map_path, graph_path, params_cfg: dict, out_path: Path) -> dict:
    gmap = _read_map(map_path)
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
    gmap = _read_map(map_path)
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
    out = [{**a.record, "static": a.static, "is_ego": a.is_ego,
            "route": a.route.tolist(), "target": np.asarray(a.target).tolist()}
           for a in spawned]
    return {"agents": _artifact(out_path, occupancy.save_json(out, out_path))}


def run_simulate(map_path, lanes_path, graph_path, traj_path, params_cfg,
                 seed, layout, out_dir: Path) -> dict:
    idm = _from_config(IdmParams, _section(params_cfg, "idm"))
    params_cfg = {k: v for k, v in params_cfg.items() if k != "idm"}
    params = _from_config(SimParams, params_cfg, idm=idm, seed=seed % (2 ** 31))
    sim = _build_sim(map_path, lanes_path, graph_path, layout, params,
                     occupancy.load_trajectory(traj_path))
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
    """Vendi of the FEATSET1 file ``--a``; MMD, KID or FID between the
    FEATSET1 files ``--a`` and ``--b``; or the diversity of the OCCG maps
    ``--a`` and ``--b``, one minus their mIoU over ``--a``'s categories."""
    sigma = _config_value(vars(args), "sigma", None, occupancy.POSITIVE)
    if args.metric != "vendi" and not args.b:
        raise ConfigError(f"{args.metric} needs --b")
    report = {"metric": args.metric}
    if args.metric == "diversity":
        ga, gb = occupancy.read_grid(args.a), occupancy.read_grid(args.b)
        report["value"] = metrics_mod.pairwise_diversity([[ga], [gb]], ga.table.ids)[1]
    elif args.metric == "vendi":
        report["value"] = metrics_mod.vendi(metrics_mod.read_features(args.a))
    else:
        a, b = metrics_mod.read_features(args.a), metrics_mod.read_features(args.b)
        if args.metric == "mmd":
            report["value"] = metrics_mod.mmd(a, b, sigma)
        elif args.metric == "kid":
            report["value"] = metrics_mod.kid(a, b)
        else:
            value, flagged = metrics_mod.fid(a, b)
            report["value"] = value
            report["singular_covariance"] = flagged
    return report


# --- pipeline ---------------------------------------------------------------

def run_pipeline(config: dict, root_seed: int, out_dir: Path) -> dict:
    names = ("synth", "fuse", "topo", "lanes", "simulate")
    _known_keys(config, names, "the pipeline config")
    synth_cfg, fuse_cfg, topo_cfg, lanes_cfg, sim_cfg = (_section(config, n) for n in names)
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
    ap.add_argument("--log-level", default="WARNING", type=str.upper,
                    choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = ap.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    tuned = argparse.ArgumentParser(add_help=False)
    tuned.add_argument("--params", default=None)
    placed = argparse.ArgumentParser(add_help=False, parents=[seeded])
    placed.add_argument("--layout", default="procedural")

    def stage(name, help, required, parents, run):
        """Subcommand ``name`` with the flags ``required`` and those of
        ``parents``; ``run`` turns its parsed flags into the stage's record
        and looks each run_* up when called, so a wrapped one is the one run."""
        p = sub.add_parser(name, help=help, parents=parents)
        for flag in required:
            p.add_argument(f"--{flag}", required=True)
        p.set_defaults(run=run)
        return p

    stage("synth", "generate a synthetic world and frames", ["spec", "out"], [seeded],
          lambda a: run_synth(_load_json(a.spec), a.seed, Path(a.out)))
    stage("fuse", "fuse ego frames into a global map", ["frames", "poses", "out"], [tuned],
          lambda a: run_fuse(a.frames, a.poses, _load_json(a.params), Path(a.out)))
    stage("topo", "extract the road graph", ["map", "out"], [tuned],
          lambda a: run_topo(a.map, _load_json(a.params), Path(a.out)))
    stage("lanes", "extract vectorized lanes", ["map", "graph", "out"], [tuned],
          lambda a: run_lanes(a.map, a.graph, _load_json(a.params), Path(a.out)))
    stage("spawn", "spawn agents on the lane network", ["map", "lanes", "graph", "out"],
          [placed], lambda a: run_spawn(a.map, a.lanes, a.graph, a.layout, a.seed,
                                        Path(a.out)))
    stage("simulate", "run the closed-loop engine",
          ["map", "lanes", "graph", "poses", "out"], [placed, tuned],
          lambda a: run_simulate(a.map, a.lanes, a.graph, a.poses, _load_json(a.params),
                                 a.seed, a.layout, Path(a.out)))
    p = stage("metrics", "evaluate realism/diversity metrics", ["a"], [],
              lambda a: run_metrics(a))
    p.add_argument("metric", choices=["vendi", "mmd", "kid", "fid", "diversity"])
    p.add_argument("--b", default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    stage("pipeline", "run all stages end to end", ["config", "out-dir"], [seeded],
          lambda a: run_pipeline(_load_json(a.config), a.seed, Path(a.out_dir)))
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
    logging.basicConfig(level=args.log_level)
    try:
        result = args.run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, occupancy.GridFormatError, occupancy.InputFormatError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        print(f"stage failure ({args.command}): {e}", file=sys.stderr)
        return EXIT_STAGE
    json.dump(result, sys.stdout, indent=2)
    print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
