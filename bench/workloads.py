"""The benchmark's three workloads.

Each workload has a set-up (untimed inputs), a round (the timed work plus
the output checks) and a summary of its rounds. A round holds one or more
operations; an operation fails if it raises or if a check on its output
fails, and ``error_rate`` is failed / attempted operations.

- fuse-arc: one operation is one ``fuse_sequence`` over rotated poses with
  label noise.
- city-pipeline: one operation is one ``cli.run_pipeline`` on a 3x3-block
  grid world.
- city-sim: a round builds the lane network (phase A) and then runs a fixed
  plan of rollouts (phase B); one operation is one rollout.

The program is reached only through module attributes (``fusion.fuse_sequence``
and so on) so that a traced round sees the same wrappers the program's own
callers do.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxsim import cli, fusion, lanes, occupancy, simulation, synthworld, topology

# Bound before a tracer is installed, so that the harness's own checks never
# record spans.
_boxes_overlap = simulation.boxes_overlap
_read_grid = occupancy.read_grid
_snapshot_state = simulation.snapshot_state

FUSE_ARC_NOISE = 0.02

# fuse-arc map_agreement floor. Measured on the commit that added the
# benchmark: 0.98436-0.98458 over seeds 0-2. The smoke input measured 0.9856.
AGREEMENT_FLOOR = 0.98
SMOKE_AGREEMENT_FLOOR = 0.95

STALL_SPEED = 0.1  # m/s; an active agent slower than this counts as stalled

# city-sim edge rollouts: ego start index below EDGE_STARTS, route at most
# EDGE_ROUTE_M, found within EDGE_PROBES seeds (p ~ 1/5 per seed: the ego's
# target is one of 5 valid endpoints, one of them on its own road).
EDGE_STARTS = 4
EDGE_ROUTE_M = 20.0
EDGE_PROBES = 60


@dataclass
class Op:
    """One operation's outcome."""
    ok: bool
    digest: str = ""
    error: str = ""
    info: dict = field(default_factory=dict)


@dataclass
class Round:
    timed_s: float                 # seconds inside the timed calls only
    ops: list
    traced: bool = False
    info: dict = field(default_factory=dict)
    span: tuple = (0.0, 0.0)       # perf_counter at the start and end of the timed calls


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _grid_digest(grid) -> str:
    o = grid.origin
    return _sha(repr((grid.dims, grid.voxel_size, o.x, o.y, o.yaw)),
                np.ascontiguousarray(grid.labels).tobytes())


def map_agreement(fused, world) -> float:
    """Fraction of voxels assigned in the fused map, inside the world's
    footprint, whose label equals the lattice-aligned ground truth."""
    vox = world.voxel_size
    off = np.round(np.array([fused.origin.x, fused.origin.y]) / vox).astype(int)
    lo = np.maximum(off, 0)
    hi = np.minimum(off + np.array(fused.dims[:2]), world.dims[:2])
    sub = fused.labels[lo[0] - off[0]:hi[0] - off[0], lo[1] - off[1]:hi[1] - off[1], :]
    truth = world.labels[lo[0]:hi[0], lo[1]:hi[1], :]
    assigned = sub != world.table.unassigned_id
    return float((sub[assigned] == truth[assigned]).mean()) if assigned.any() else 0.0


def _failure(exc: BaseException) -> Op:
    return Op(False, error=f"{type(exc).__name__}: {exc}")


def _mark_repeats(rounds):
    """Every operation must reproduce the digest of the same operation in
    the first round: same inputs, same seed, so the same output."""
    first = [op.digest if op.ok else None for op in rounds[0].ops]
    for r in rounds[1:]:
        for op, want in zip(r.ops, first):
            if op.ok and want is not None and op.digest != want:
                op.ok = False
                op.error = f"digest {op.digest[:12]} differs from first round {want[:12]}"


# --- fuse-arc ---------------------------------------------------------------

class FuseArc:
    """Vote-heavy fusion: rotated poses on a quarter arc give few keyframes,
    so most of the map is left to the vote pass. Label noise makes
    map_agreement sensitive to how votes are counted."""

    min_rounds = 2   # a median of at least two fusions

    def __init__(self, smoke: bool):
        if smoke:
            self.spec = synthworld.WorldSpec(recipe="curve", extent=60.0, radius=20.0)
            self.n_poses, self.crop_dims, self.floor = 24, (100, 100, 16), SMOKE_AGREEMENT_FLOOR
        else:
            self.spec = synthworld.WorldSpec(recipe="curve", extent=120.0, radius=40.0)
            self.n_poses, self.crop_dims, self.floor = 120, (200, 200, 16), AGREEMENT_FLOOR

    def setup(self, seed: int) -> dict:
        world = synthworld.generate_world(self.spec)
        poses = synthworld.curve_trajectory(self.spec, step=0.42)[:self.n_poses]
        frames = synthworld.sample_frames(world, poses, crop_dims=self.crop_dims,
                                          noise=FUSE_ARC_NOISE, seed=seed)
        return {"world": world, "poses": poses, "frames": frames}

    def round(self, ctx: dict) -> Round:
        t0 = time.perf_counter()
        try:
            fused = fusion.fuse_sequence(ctx["frames"], ctx["poses"], fusion.FusionParams())
        except Exception as exc:  # an operation that raises is a failed operation
            return Round(time.perf_counter() - t0, [_failure(exc)])
        t1 = time.perf_counter()
        agree = map_agreement(fused, ctx["world"])
        op = Op(agree >= self.floor, _grid_digest(fused))
        if not op.ok:
            op.error = f"map_agreement {agree:.5f} below floor {self.floor}"
        return Round(t1 - t0, [op], info={"map_agreement": agree}, span=(t0, t1))

    def summarize(self, ctx, rounds, correct) -> dict:
        _mark_repeats(rounds)
        timed = [r for r in rounds if not r.traced]
        fuse_s = statistics.median(correct(r.timed_s, *r.span) for r in timed)
        wall_s = statistics.median(r.timed_s for r in timed)
        n = len(ctx["poses"])
        agree = [r.info["map_agreement"] for r in rounds if "map_agreement" in r.info]
        return {
            "build_s": (fuse_s, "s"),
            "work_per_s": (n / fuse_s, "1/s"),
            "fuse_s": (fuse_s, "s"),
            "fuse_frames_per_s": (n / fuse_s, "1/s"),
            "fuse_wall_s": (wall_s, "s"),
            "map_agreement": (min(agree) if agree else 0.0, "ratio"),
            "fusions_timed": (len(timed), "count"),
        }


# --- city-pipeline ----------------------------------------------------------

class CityPipeline:
    """The user-facing command end to end: synth, fuse, topo, lanes, spawn,
    simulate, with OCCG/JSON writes and reads and sha256 hashing. Fusion
    sees axis-aligned frames with a keyframe every 4th pose."""

    min_rounds = 2   # the manifest must repeat across same-seed runs

    def __init__(self, smoke: bool, work_dir: Path):
        if smoke:
            world = {"recipe": "grid", "extent": 120.0, "blocks": [1, 1]}
            self.config = {"synth": {"world": world, "crop_dims": [100, 100, 16]},
                           "simulate": {"horizon": 3, "fov_dims": [100, 100, 16]}}
        else:
            world = {"recipe": "grid", "extent": 400.0, "blocks": [3, 3]}
            self.config = {"synth": {"world": world}, "simulate": {"horizon": 40}}
        self.spec = synthworld.WorldSpec.from_json(world)
        self.work_dir = work_dir

    def setup(self, seed: int) -> dict:
        # The ground truth for map_agreement; the pipeline builds its own.
        world = synthworld.generate_world(self.spec)
        n_frames = len(synthworld.straight_trajectory(self.spec))
        return {"world": world, "seed": seed, "n_frames": n_frames, "runs": 0}

    def round(self, ctx: dict) -> Round:
        out = self.work_dir / f"run{ctx['runs']}"
        ctx["runs"] += 1
        shutil.rmtree(out, ignore_errors=True)   # left over from a killed run
        t0 = time.perf_counter()
        try:
            manifest = cli.run_pipeline(copy.deepcopy(self.config), ctx["seed"], out)
        except Exception as exc:
            shutil.rmtree(out, ignore_errors=True)
            return Round(time.perf_counter() - t0, [_failure(exc)])
        t1 = time.perf_counter()
        hashes = sorted((s["stage"], name, a["sha256"])
                        for s in manifest["stages"] for name, a in s["artifacts"].items())
        agree = map_agreement(_read_grid(out / "map.occg"), ctx["world"])
        shutil.rmtree(out)
        return Round(t1 - t0, [Op(True, _sha(json.dumps(hashes)))],
                     info={"map_agreement": agree, "artifact_sha256": hashes},
                     span=(t0, t1))

    def summarize(self, ctx, rounds, correct) -> dict:
        _mark_repeats(rounds)
        timed = [r for r in rounds if not r.traced]
        pipeline_s = statistics.median(correct(r.timed_s, *r.span) for r in timed)
        wall_s = statistics.median(r.timed_s for r in timed)
        agree = [r.info["map_agreement"] for r in rounds if "map_agreement" in r.info]
        return {
            "build_s": (pipeline_s, "s"),
            "work_per_s": (ctx["n_frames"] / pipeline_s, "1/s"),
            "pipeline_s": (pipeline_s, "s"),
            "pipeline_frames_per_s": (ctx["n_frames"] / pipeline_s, "1/s"),
            "pipeline_wall_s": (wall_s, "s"),
            "map_agreement": (min(agree) if agree else 0.0, "ratio"),
            "pipelines_timed": (len(timed), "count"),
        }


# --- city-sim ---------------------------------------------------------------

class CitySim:
    """Topology, lanes, routing, spawning and the agent loop on a ground-
    truth 5x5-block city standing in for a fused map; no fusion.

    Phase A (timed): extract_topology -> extract_lanes -> Simulator.
    Phase B (timed): a fixed plan of rollouts with default SimParams, seeds
    and ego start indices drawn from the workload seed. A rollout's cost
    differs up to 10x with the ego's start and seed, so every run holds the
    same mix:

    - edge rollouts start the ego within EDGE_STARTS poses of the map's left
      edge, where all valid endpoints lie. Their seed is drawn until the
      ego's route is at most EDGE_ROUTE_M long (probed with an untimed
      ``init_state`` after the first phase A), so the ego can finish its
      route, go inactive and keep triggering respawns;
    - interior rollouts take one start index from each of ``n_interior``
      equal strata of the rest of the recorded ego path; these egos crawl or
      stall in traffic, and the far ones route across the whole city.

    A run has at least two rounds of the same plan, so every rollout runs
    twice; an operation fails if its repeat does not reproduce its snapshots
    and rendered frames bit for bit.
    """

    min_rounds = 2   # a median of two phase A builds, and the plan run twice

    def __init__(self, smoke: bool):
        if smoke:
            self.spec = synthworld.WorldSpec(recipe="grid", extent=200.0, blocks=(1, 1))
            self.n_edge, self.n_interior = 1, 1
            self.sim_params = simulation.SimParams(horizon=4)
        else:
            self.spec = synthworld.WorldSpec(recipe="grid", extent=600.0, blocks=(5, 5))
            self.n_edge, self.n_interior = 3, 8
            self.sim_params = simulation.SimParams()

    def setup(self, seed: int) -> dict:
        world = synthworld.generate_world(self.spec)
        path = synthworld.straight_trajectory(self.spec)
        rng = np.random.default_rng(seed)
        # (seed, start); an edge rollout's seed is None until probed
        plan = [(None, int(rng.integers(0, EDGE_STARTS))) for _ in range(self.n_edge)]
        edges = np.linspace(EDGE_STARTS, len(path), self.n_interior + 1).astype(int)
        plan += [(int(rng.integers(0, 2 ** 31)), int(rng.integers(lo, hi)))
                 for lo, hi in zip(edges[:-1], edges[1:])]
        return {"world": world, "path": path, "plan": plan,
                "probe_seed": int(rng.integers(0, 2 ** 31))}

    def _probe_edge_seeds(self, ctx, sim):
        """Fix each edge rollout's seed: the first seed, from a stream drawn
        from the workload seed, whose ego route is at most EDGE_ROUTE_M."""
        rng = np.random.default_rng(ctx["probe_seed"])
        plan, probes = [], 0
        for seed, start in ctx["plan"]:
            for _ in range(EDGE_PROBES if seed is None else 0):
                seed = int(rng.integers(0, 2 ** 31))
                sim.rng = np.random.default_rng(seed)
                probes += 1
                if _route_length(sim.init_state(start).ego.route) <= EDGE_ROUTE_M:
                    break
            plan.append((seed, start))
        ctx["plan"], ctx["edge_probes"] = plan, probes

    def round(self, ctx: dict) -> Round:
        world = ctx["world"]
        t0 = time.perf_counter()
        g, valid = topology.extract_topology(world)
        lane_set = lanes.extract_lanes(world, g)
        sim = simulation.Simulator(world, lane_set, cli._endpoints_to_world(world, valid),
                                   ctx["path"], self.sim_params)
        t1 = time.perf_counter()
        lanegraph_s = t1 - t0
        phase_a = _sha(json.dumps(sorted(map(list, valid))),
                       *[np.ascontiguousarray(l.points).tobytes() for l in lane_set])
        info = {"lanegraph_s": lanegraph_s, "lanegraph_span": (t0, t1),
                "phase_a_digest": phase_a,
                "valid_endpoints": len(valid),
                "leaves": sum(1 for n in g.nodes if g.degree(n) == 1),
                "lanes": len(lane_set), **_rollout_counters()}
        if ctx.get("edge_probes") is None:
            self._probe_edge_seeds(ctx, sim)
        ops = []
        t2 = time.perf_counter()
        for seed, start in ctx["plan"]:
            try:
                ops.append(self._rollout(sim, seed, start, info))
            except Exception as exc:
                ops.append(_failure(exc))
        # the rollouts' timed calls lie inside this span, with the checks between them
        info["rollout_span"] = (t2, time.perf_counter())
        return Round(lanegraph_s + info["rollout_s"], ops, info=info, span=(t0, t2))

    def _rollout(self, sim, seed, start, info) -> Op:
        # Reseeding the simulator's generator is what constructing it with
        # SimParams(seed=seed) does; the lane network is built once, in phase A.
        sim.rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        state = sim.init_state(start)
        timed = time.perf_counter() - t0
        digest = hashlib.sha256()
        problems = []
        lo, hi = sim.gmap.extent
        updates0 = info["agent_updates"]
        for _ in range(sim.params.horizon):
            idle = {id(a) for a in state.agents if a.static or not a.active}
            before = {id(a) for a in state.agents}
            ego_done = not state.ego.active
            t0 = time.perf_counter()
            frame = sim.step(state)
            dt = time.perf_counter() - t0
            timed += dt
            info["step_s"].append(dt)
            # agents that agent_step moved this step
            info["agent_updates"] += sum(1 for a in state.agents if id(a) not in idle
                                         and not a.static)
            if ego_done and any(id(a) not in before for a in state.agents):
                info["spawns_after_ego_done"] += 1
            info["overlap_pairs"] += _overlap_pairs(state.agents)
            snap = _snapshot_state(state)
            digest.update(json.dumps(snap, sort_keys=True).encode())
            digest.update(frame.labels.tobytes())
            problems += _snapshot_problems(snap, lo, hi)
        info["rollout_s"] += timed
        stalled = state.ego.active and state.ego.speed < STALL_SPEED
        info["stalled_egos"] += stalled
        info["egos_done"] += not state.ego.active
        record = {"seed": seed, "start": start, "timed_s": timed,
                  "agent_updates": info["agent_updates"] - updates0,
                  "agents_end": len(state.agents), "ego_stalled": stalled,
                  "ego_done": not state.ego.active}
        return Op(not problems, digest.hexdigest(), "; ".join(problems[:3]), record)

    def summarize(self, ctx, rounds, correct) -> dict:
        _mark_repeats(rounds)
        for r in rounds[1:]:
            if r.info["phase_a_digest"] != rounds[0].info["phase_a_digest"]:
                for op in r.ops:
                    op.ok, op.error = False, "phase A output differs from first round"
        plain = [r for r in rounds if not r.traced]
        lanegraph_s = statistics.median(correct(r.info["lanegraph_s"], *r.info["lanegraph_span"])
                                        for r in plain)
        updates = sum(r.info["agent_updates"] for r in plain)
        rollout_s = sum(correct(r.info["rollout_s"], *r.info["rollout_span"]) for r in plain)
        rollout_wall_s = sum(r.info["rollout_s"] for r in plain)
        steps = [s for r in plain for s in r.info["step_s"]]
        p = np.percentile(np.asarray(steps) * 1000.0, [50, 95])
        per_round = lambda key: statistics.mean(r.info[key] for r in rounds)
        return {
            "build_s": (lanegraph_s, "s"),
            "work_per_s": (updates / rollout_s, "1/s"),
            "lanegraph_s": (lanegraph_s, "s"),
            "sim_agent_steps_per_s": (updates / rollout_s, "1/s"),
            "lanegraph_wall_s": (statistics.median(r.info["lanegraph_s"] for r in plain), "s"),
            "sim_agent_steps_per_wall_s": (updates / rollout_wall_s, "1/s"),
            "step_p50_ms": (float(p[0]), "ms"),
            "step_p95_ms": (float(p[1]), "ms"),
            "step_samples": (len(steps), "count"),
            "overlap_pairs_per_step": (
                sum(r.info["overlap_pairs"] for r in rounds)
                / max(sum(len(r.info["step_s"]) for r in rounds), 1), "count"),
            "valid_endpoints": (rounds[0].info["valid_endpoints"], "count"),
            "leaves": (rounds[0].info["leaves"], "count"),
            "stalled_egos": (per_round("stalled_egos"), "count"),
            "egos_done": (per_round("egos_done"), "count"),
            "spawns_after_ego_done": (per_round("spawns_after_ego_done"), "count"),
            "rollouts_per_round": (len(ctx["plan"]), "count"),
            "edge_probes": (ctx["edge_probes"], "count"),
        }


def _rollout_counters() -> dict:
    return {"step_s": [], "rollout_s": 0.0, "agent_updates": 0, "overlap_pairs": 0,
            "stalled_egos": 0, "egos_done": 0, "spawns_after_ego_done": 0}


def _overlap_pairs(agents) -> int:
    """Pairs of agent boxes that intersect (simulation.boxes_overlap), after
    a centre-distance prefilter that cannot drop an overlapping pair."""
    if len(agents) < 2:
        return 0
    pos = np.array([a.position for a in agents])
    reach = np.array([math.hypot(a.asset.length, a.asset.width) / 2.0 for a in agents])
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    ii, jj = np.nonzero(np.triu(d <= reach[:, None] + reach[None, :], k=1))
    return sum(1 for i, j in zip(ii, jj) if _boxes_overlap(agents[i], agents[j]))


def _route_length(route) -> float:
    return float(np.linalg.norm(np.diff(route, axis=0), axis=1).sum())


def _snapshot_problems(snap, lo, hi):
    out = []
    for a in [snap["ego"], *snap["agents"]]:
        x, y, v = a["x"], a["y"], a["speed"]
        if not (math.isfinite(x) and math.isfinite(y)):
            out.append(f"step {snap['step']}: non-finite position")
        elif not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]):
            out.append(f"step {snap['step']}: position ({x:.1f}, {y:.1f}) outside the map")
        if not v >= 0.0:
            out.append(f"step {snap['step']}: speed {v}")
    return out


def make(name: str, smoke: bool, out_dir: Path):
    if name == "fuse-arc":
        return FuseArc(smoke)
    if name == "city-pipeline":
        return CityPipeline(smoke, out_dir / "pipeline-work")
    if name == "city-sim":
        return CitySim(smoke)
    raise ValueError(f"unknown workload {name!r}")

