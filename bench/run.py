"""voxsim benchmark harness.

    python3 bench/run.py --workload fuse-arc --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh child process with BLAS/OpenMP thread counts
pinned to 1, so ``peak_rss_mb`` is that workload's own high-water mark. The
child imports voxsim from ``src/`` of the checkout this file sits in and
nothing else. The parent prints every metric by name with its unit, writes
the full result (environment, digests, per-operation records) under
``bench/out/``, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.

Timing: set-up runs at least three times and for at least two seconds (once
when tracing), and ``setup_s`` is the median. Rounds of the workload's timed
work then repeat until ``--seconds`` have passed and the workload's minimum
number of rounds is reached. With ``--trace 0`` every gated time is
corrected for the machine's speed while it was measured (see ``speed.py``);
the wall times are printed beside them. With ``--trace 1`` rounds alternate
untraced and traced, times are wall times, and the untraced rounds are the
reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    "OCCSIM_THREADS")}
# numpy asks for transparent huge pages for large arrays; how many a process
# gets depends on how fragmented the host's memory is, and fusion's run time
# with it, so the child asks for none.
MEMORY_PINS = {"NUMPY_MADVISE_HUGEPAGE": "0"}

# Set-up repeats until both are reached; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
WORKLOADS = ("fuse-arc", "city-pipeline", "city-sim")


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json says a run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --- child: one workload in this process ------------------------------------

def _import_voxsim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import voxsim
    if Path(voxsim.__file__).resolve().parent != src / "voxsim":
        raise ImportError(f"voxsim imported from {voxsim.__file__}, not {src}")


def run_child(args) -> dict:
    _import_voxsim()
    import speed
    import workloads

    wl = workloads.make(args.workload, args.smoke, OUT)
    if args.trace:
        return measure(args, wl, speed.uncorrected)
    with speed.Speedometer() as meter:
        result = measure(args, wl, meter.corrected)
    result["metrics"]["speed_probe_ms"] = (meter.median_probe_s() * 1000.0, "ms")
    result["metrics"]["speed_probes"] = (len(meter.durations), "count")
    return result


def measure(args, wl, correct) -> dict:
    """Set up and run rounds, traced with ``--trace 1``;
    ``correct(seconds, t0, t1)`` turns a time measured inside [t0, t1] into
    a gated one."""
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer:
            t0 = time.perf_counter()
            ctx = wl.setup(args.seed)
            setup_spans = [(t0, time.perf_counter())]
    else:
        setup_spans = []
        while (len(setup_spans) < SETUP_MIN_REPEATS
               or sum(t1 - t0 for t0, t1 in setup_spans) < SETUP_MIN_SECONDS):
            ctx = None                   # free the previous set-up first
            t0 = time.perf_counter()
            ctx = wl.setup(args.seed)
            setup_spans.append((t0, time.perf_counter()))

    min_rounds = max(wl.min_rounds, 2 if args.trace else 1)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.op = len(rounds)
            with tracer:
                r = wl.round(ctx)
        else:
            r = wl.round(ctx)
        r.traced = traced
        rounds.append(r)

    summary = wl.summarize(ctx, rounds, correct)
    ops = [op for r in rounds for op in r.ops]
    failed = sum(1 for op in ops if not op.ok)
    setup_times = [correct(t1 - t0, t0, t1) for t0, t1 in setup_spans]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "setup_wall_s": (statistics.median(t1 - t0 for t0, t1 in setup_spans), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_rate": (failed / len(ops), "ratio"),
        **summary,
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "attempted": len(ops), "failed": failed,
        "setup_spans": setup_spans,
        "setup_times_s": setup_times,
        "rounds": [{"timed_s": r.timed_s, "span": r.span, "traced": r.traced,
                    "ops": [vars(op) for op in r.ops],
                    "info": {k: v for k, v in r.info.items() if k != "step_s"}}
                   for r in rounds],
        "metrics": metrics,
    }
    if tracer:
        traced_ops = [i for i, r in enumerate(rounds) if r.traced]
        layer = tracing.layer_metrics(tracer, traced_ops)
        plain = [r.timed_s for r in rounds if not r.traced]
        traced = [r.timed_s for r in rounds if r.traced]
        overhead = statistics.median(traced) - statistics.median(plain)
        layer["trace.overhead_s"] = (overhead, "s")
        layer["trace.overhead_ratio"] = (overhead / statistics.median(plain), "ratio")
        # workload-level quality counts, carried into the traced run's report
        for key, name, unit in (("fusion.map_agreement", "map_agreement", "ratio"),
                                ("simulation.overlap_pairs_per_step",
                                 "overlap_pairs_per_step", "count"),
                                ("simulation.stalled_egos", "stalled_egos", "count"),
                                ("simulation.egos_done", "egos_done", "count"),
                                ("simulation.spawns_after_ego_done",
                                 "spawns_after_ego_done", "count")):
            layer[key] = summary.get(name, (0.0, unit))
        result["layer_metrics"] = layer
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


# --- parent: environment, child process, report -----------------------------

def environment() -> dict:
    versions = {}
    for mod in ("numpy", "scipy", "networkx"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:   # not an enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode())
        src.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "thread_pins": THREAD_PINS,
        "memory_pins": MEMORY_PINS,
        "machine": platform.machine(),
    }


def run_workload(args, workload: str) -> dict:
    """Run one workload in a fresh child process; return its result."""
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"child-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_PINS, **MEMORY_PINS}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.exists():
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def report(result: dict, declared: dict) -> dict:
    """Print every metric with its unit; return the declared ones."""
    name, trace = result["workload"], result["trace"]
    print(f"== {name}  seed {result['seed']}  trace {trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    shown = result["layer_metrics"] if trace else result["metrics"]
    if trace:
        shown = {**shown, "error_rate": result["metrics"]["error_rate"]}
    for metric, (value, unit) in sorted(shown.items()):
        flag = "" if metric in declared else "  (printed, not gated)"
        print(f"  {metric:<40} {value:>16.6g} {unit}{flag}")
    for r in result["rounds"]:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"  FAILED: {op['error']}")
    out = {}
    for metric, unit in declared.items():
        value, got_unit = shown[metric]
        if got_unit != unit:
            raise SystemExit(f"{metric}: unit {got_unit!r} != declared {unit!r}")
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="fuse-arc, city-pipeline, city-sim, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs that finish in seconds (for the benchmark's own test)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        result = run_child(args)
        Path(args.result).write_text(json.dumps(result, default=float))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if not (ROOT / "src" / "voxsim").is_dir():
        print(f"no voxsim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    env = environment()
    print(f"environment: {json.dumps(env)}")
    results = [run_workload(args, name) for name in names]

    metrics, attempted, failed = {}, 0, 0
    for result in results:
        result["environment"] = env
        path = OUT / "results" / (f"{result['workload']}-seed{args.seed}-trace{args.trace}"
                                  f"{'-smoke' if args.smoke else ''}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=1))
        gated = report(result, declared)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in gated.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
