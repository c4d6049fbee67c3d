"""Span recorder that wraps voxsim's public layer functions from outside.

Each public function of a layer module, and each public method of a class
defined there, is replaced by a wrapper at every place a caller looks it up:
the defining module, every voxsim module that imported it by name
(``crop`` and ``astar`` live in several namespaces), and the class for
methods. The program itself is not edited.

A span holds (name, start, end, parent span, operation id). Spans stay in
memory and are written out once, when the run ends. A span's self time is
its duration minus the durations of its direct children; the process is
single-threaded, so children nest strictly inside their parent.

Counters are taken at the same boundaries as the spans: a hook sees a
call's arguments and result and adds to named counts (voxels filled by the
vote pass, leaves seen by the endpoint filter, failed A* searches, ...).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# Layers that get spans. ``geometry`` and ``metrics`` are left out: no
# workload calls them on its hot path (``fuse_sequence`` does not call
# ``warp_grid`` or ``visibility_mask``).
LAYERS = ("synthworld", "occupancy", "fusion", "topology", "lanes", "routing",
          "agents", "simulation", "cli")


def _unassigned(grid) -> int:
    return int((grid.labels == grid.table.unassigned_id).sum())


def _hook_fuse_keyframes(c, args, kwargs, out):
    c["fusion.keyframes"] += len(args[2])
    c["fusion.pass1_voxels"] += out.labels.size
    c["fusion.pass1_unassigned"] += _unassigned(out)


def _hook_vote_inpaint(c, args, kwargs, out):
    gmap = args[0]
    before = _unassigned(gmap)
    c["fusion.vote_candidates"] += before
    c["fusion.vote_filled_voxels"] += before - _unassigned(out)
    # the dense (X, Y, Z, C) uint16 tally vote_inpaint allocates
    c["fusion.vote_tensor_bytes"] += gmap.labels.size * len(gmap.table.ids) * 2


def _hook_write_grid(c, args, kwargs, out):
    grid = args[0]
    c["occupancy.write_grid.bytes"] += grid.labels.size


def _hook_read_grid(c, args, kwargs, out):
    c["occupancy.read_grid.bytes"] += out.labels.size


def _hook_skeletonize(c, args, kwargs, out):
    c["topology.skeleton_px"] += int(out.sum())


def _hook_clean_graph(c, args, kwargs, out):
    c["topology.nodes"] += out.number_of_nodes()


def _hook_filter_endpoints(c, args, kwargs, out):
    g = args[0]
    c["topology.leaves"] += sum(1 for n in g.nodes if g.degree(n) == 1)
    c["topology.valid_endpoints"] += len(out)


def _hook_resolve_overlaps(c, args, kwargs, out):
    c["lanes.candidates"] += len(args[0])
    c["lanes.final"] += len(out)


def _hook_astar(c, args, kwargs, out):
    if out is None:
        c["routing.astar.fail"] += 1


def _hook_layout_sample(c, args, kwargs, out):
    c["agents.proposed"] += len(out)


def _hook_spawn_agents(c, args, kwargs, out):
    if args[1]:  # b_ego: the anchor itself is proposed as the ego
        c["agents.proposed"] += 1
    c["agents.spawned"] += len(out)


def _hook_maybe_lane_change(c, args, kwargs, out):
    if out:
        c["simulation.lane_changes"] += 1


def _hook_agent_step(c, args, kwargs, out):
    state = args[1]
    c["simulation.stalled_agent_steps"] += sum(
        1 for a in state.agents if a.active and not a.static and a.speed < 0.1)


def _hook_step(c, args, kwargs, out):
    n = len(args[1].agents)
    c["simulation.steps"] += 1
    c["simulation.agents_sum"] += n
    c["simulation.agents_max"] = max(c["simulation.agents_max"], n)


HOOKS = {
    "fusion.fuse_keyframes": _hook_fuse_keyframes,
    "fusion.vote_inpaint": _hook_vote_inpaint,
    "occupancy.write_grid": _hook_write_grid,
    "occupancy.read_grid": _hook_read_grid,
    "topology.skeletonize": _hook_skeletonize,
    "topology.clean_graph": _hook_clean_graph,
    "topology.filter_endpoints": _hook_filter_endpoints,
    "lanes.resolve_overlaps": _hook_resolve_overlaps,
    "routing.astar": _hook_astar,
    "agents.sample": _hook_layout_sample,
    "agents.spawn_agents": _hook_spawn_agents,
    "simulation.maybe_lane_change": _hook_maybe_lane_change,
    "simulation.agent_step": _hook_agent_step,
    "simulation.step": _hook_step,
}


def _public_functions(module):
    """(owner, attribute, function, span name) for the module's own public
    functions and the public plain methods of its own classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(meth):
                    found.append((obj, mname, meth, f"{layer}.{mname}"))
    return found


class Tracer:
    """Installs span-recording wrappers into voxsim and collects spans."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.spans = []            # [name id, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op id -> counts
        self.op = -1
        self._stack = []
        self._patches = []         # (namespace, attribute, original)

    def _wrap(self, fn, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer.op], args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"voxsim.{layer}"] for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for owner, attr, fn, name in _public_functions(module):
                wrapped[id(fn)] = self._wrap(fn, name)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped[id(fn)])
        # names imported into other modules (``from .occupancy import crop``)
        for module in [m for n, m in sys.modules.items()
                       if n == "voxsim" or n.startswith("voxsim.")]:
            for attr, obj in list(vars(module).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, w)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stats_by_op(self):
        """op id -> span name -> {"calls", "s" (total), "self_s"}."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(dict)
        for i, (nid, t0, t1, parent, op) in enumerate(self.spans):
            rec = out[op].setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[i]
        return out

    def write(self, path):
        """Write every span, gzip-compressed JSON, columns as in ``spans``."""
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)


# Per-layer metrics read from spans: (metric, span name, field): the
# functions in bench/README.md's layer table, plus the parents their shares
# are read against.
SPAN_METRICS = [
    ("fusion.fuse_sequence.s", "fusion.fuse_sequence", "s"),
    ("fusion.fuse_keyframes.s", "fusion.fuse_keyframes", "s"),
    ("fusion.vote_inpaint.s", "fusion.vote_inpaint", "s"),
    ("fusion.vote_inpaint.self_s", "fusion.vote_inpaint", "self_s"),
    ("fusion.refine_morphology.s", "fusion.refine_morphology", "s"),
    ("occupancy.crop.calls", "occupancy.crop", "calls"),
    ("occupancy.crop.s", "occupancy.crop", "s"),
    ("occupancy.write_grid.s", "occupancy.write_grid", "s"),
    ("occupancy.read_grid.s", "occupancy.read_grid", "s"),
    ("synthworld.generate_world.s", "synthworld.generate_world", "s"),
    ("synthworld.sample_frames.s", "synthworld.sample_frames", "s"),
    ("synthworld.sample_frames.self_s", "synthworld.sample_frames", "self_s"),
    ("topology.extract_topology.s", "topology.extract_topology", "s"),
    ("topology.skeletonize.s", "topology.skeletonize", "s"),
    ("topology.build_graph.s", "topology.build_graph", "s"),
    ("topology.clean_graph.s", "topology.clean_graph", "s"),
    ("topology.filter_endpoints.s", "topology.filter_endpoints", "s"),
    ("lanes.extract_lanes.s", "lanes.extract_lanes", "s"),
    ("lanes.extract_lanes.self_s", "lanes.extract_lanes", "self_s"),
    ("lanes.resolve_overlaps.s", "lanes.resolve_overlaps", "s"),
    ("routing.build_route_network.s", "routing.build_route_network", "s"),
    ("routing.astar.calls", "routing.astar", "calls"),
    ("routing.astar.s", "routing.astar", "s"),
    ("agents.spawn_agents.calls", "agents.spawn_agents", "calls"),
    ("agents.spawn_agents.s", "agents.spawn_agents", "s"),
    ("agents.spawn_agents.self_s", "agents.spawn_agents", "self_s"),
    ("simulation.init_state.s", "simulation.init_state", "s"),
    ("simulation.step.s", "simulation.step", "s"),
    ("simulation.rolling_update.s", "simulation.rolling_update", "s"),
    ("simulation.agent_step.s", "simulation.agent_step", "s"),
    ("simulation.agent_step.self_s", "simulation.agent_step", "self_s"),
    ("simulation.render.s", "simulation.render", "s"),
    ("simulation.render.self_s", "simulation.render", "self_s"),
    ("simulation.select_leader.calls", "simulation.select_leader", "calls"),
    ("simulation.select_leader.s", "simulation.select_leader", "s"),
    ("simulation.maybe_lane_change.calls", "simulation.maybe_lane_change", "calls"),
    ("simulation.advance_along_route.s", "simulation.advance_along_route", "s"),
    ("cli.run_pipeline.s", "cli.run_pipeline", "s"),
    ("cli.run_synth.s", "cli.run_synth", "s"),
    ("cli.run_fuse.s", "cli.run_fuse", "s"),
    ("cli.run_topo.s", "cli.run_topo", "s"),
    ("cli.run_lanes.s", "cli.run_lanes", "s"),
    ("cli.run_spawn.s", "cli.run_spawn", "s"),
    ("cli.run_simulate.s", "cli.run_simulate", "s"),
]

# Per-layer metrics read from hook counters: (metric, counter, unit).
COUNT_METRICS = [
    ("fusion.keyframes", "fusion.keyframes", "count"),
    ("fusion.vote_filled_voxels", "fusion.vote_filled_voxels", "count"),
    ("fusion.vote_tensor_bytes", "fusion.vote_tensor_bytes", "B"),
    ("occupancy.write_grid.bytes", "occupancy.write_grid.bytes", "B"),
    ("occupancy.read_grid.bytes", "occupancy.read_grid.bytes", "B"),
    ("topology.skeleton_px", "topology.skeleton_px", "count"),
    ("topology.nodes", "topology.nodes", "count"),
    ("topology.leaves", "topology.leaves", "count"),
    ("topology.valid_endpoints", "topology.valid_endpoints", "count"),
    ("lanes.candidates", "lanes.candidates", "count"),
    ("lanes.final", "lanes.final", "count"),
    ("routing.astar.fail", "routing.astar.fail", "count"),
    ("agents.proposed", "agents.proposed", "count"),
    ("agents.spawned", "agents.spawned", "count"),
    ("simulation.lane_changes", "simulation.lane_changes", "count"),
    ("simulation.stalled_agent_steps", "simulation.stalled_agent_steps", "count"),
]

# Ratios of two counters: (metric, numerator, denominator, unit); 0 when
# the workload never reaches the boundary (denominator 0).
RATIO_METRICS = [
    ("fusion.unassigned_frac_pass1", "fusion.pass1_unassigned", "fusion.pass1_voxels", "ratio"),
    ("fusion.vote_fill_ratio", "fusion.vote_filled_voxels", "fusion.vote_candidates", "ratio"),
    ("topology.endpoint_valid_ratio", "topology.valid_endpoints", "topology.leaves", "ratio"),
    ("lanes.keep_ratio", "lanes.final", "lanes.candidates", "ratio"),
    ("agents.spawn_ratio", "agents.spawned", "agents.proposed", "ratio"),
    ("simulation.agents_mean", "simulation.agents_sum", "simulation.steps", "count"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_ops) -> dict:
    """metric -> (value, unit). Each value is the traced set-up (op id -1)
    plus the mean over the traced operations, so a layer that runs only in
    set-up (world generation on city-sim) still shows."""
    by_op = tracer.stats_by_op()
    n = max(len(traced_ops), 1)

    def span(name, field):
        setup = by_op.get(-1, {}).get(name, {}).get(field, 0)
        return setup + sum(by_op.get(op, {}).get(name, {}).get(field, 0)
                           for op in traced_ops) / n

    def count(key):
        setup = tracer.counts[-1].get(key, 0)
        return setup + sum(tracer.counts[op].get(key, 0) for op in traced_ops) / n

    out = {}
    for metric, name, field in SPAN_METRICS:
        out[metric] = (span(name, field), "count" if field == "calls" else "s")
    for metric, key, unit in COUNT_METRICS:
        out[metric] = (count(key), unit)
    for metric, num, den, unit in RATIO_METRICS:
        out[metric] = (_ratio(count(num), count(den)), unit)
    out["simulation.agents_max"] = (
        max([tracer.counts[op].get("simulation.agents_max", 0) for op in traced_ops]
            or [0]), "count")
    out["fusion.vote_self_share"] = (
        _ratio(span("fusion.vote_inpaint", "self_s"), span("fusion.fuse_sequence", "s")),
        "ratio")
    hot = sum(span(name, "self_s") for name in
              ("simulation.select_leader", "simulation.render", "routing.astar"))
    out["simulation.hot_self_share"] = (
        _ratio(hot, span("simulation.init_state", "s") + span("simulation.step", "s")),
        "ratio")
    spans_per_op = [sum(r["calls"] for r in by_op.get(op, {}).values()) for op in traced_ops]
    out["trace.spans"] = (_ratio(sum(spans_per_op), len(traced_ops)), "count")
    return out
