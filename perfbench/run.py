#!/usr/bin/env python3
"""tiltlab benchmark: four single-client closed-loop workloads in one process.

    python3 perfbench/run.py --workload sharp-dense --seed 1 --seconds 30 --trace 0

A workload's setup (perfbench/workloads.py) turns the seed into a fixed
list of requests, one pass.  The client sends each request when the last
one has returned, and checks every result against a known answer.

--trace 0 repeats passes for --seconds, untraced, and reports the
end-to-end metrics.  Times are in reference seconds (perfbench/hostspeed.py):
wall time corrected for the shared host's speed, which a fixed loop of the
benchmark's own, timed every 20 ms during the run, tracks.  The raw wall
times and the host's speed are printed beside them.
  wall_s          median time of one pass: its requests back to back
                  (the answer checks between requests are not counted)
  verdict_p50_ms  median latency of one request: each request of the pass
                  takes its median latency over the run's passes, and this
                  is the median of those
  setup_s         median over SETUP_PROBES fresh interpreters of importing
                  tiltlab and building the workload's towers and inputs
  peak_rss_mb     peak resident memory of this process
verdict_p90_ms (only where at least 10 latencies lie beyond it) and
failed_ratio are printed with them but are not in the result line: the
first exists only on workloads with 100 or more requests per run and
the second is 0 whenever the code is correct.

--trace 1 runs two untraced passes, then the same pass with every public
tiltlab entry point wrapped (perfbench/spans.py), and reports per-layer
self times, exact work counters, the kernel timings of
perfbench/kernels.py and trace.overhead_ratio.  Spans are written to
perfbench/out/ as gzip'd CSV.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 2 means the benchmark could not run at all.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import program
from hostspeed import HostSpeed

OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 11
MIN_PASSES = 2
P90_TAIL = 10


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


class Tally:
    """Requests attempted and failed, with the first failure's story."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def fail(self, label, why):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{label}: {why}"


def run_pass(requests, tally, tracer=None, speed=None):
    """Send every request once, in order; return the pass's latencies.

    With a HostSpeed, each latency is a pair: wall seconds and reference
    seconds.
    """
    latencies = []

    def record(t0):
        elapsed = perf_counter() - t0
        latencies.append(elapsed if speed is None else (elapsed, speed.scaled(elapsed, mark)))

    for i, req in enumerate(requests):
        tally.attempted += 1
        mark = speed.mark() if speed is not None else None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = req.call()
            else:
                with tracer.request(i):
                    result = req.call()
        except Exception:  # a raising request is a failed request
            record(t0)
            tally.fail(req.label, traceback.format_exc())
            continue
        record(t0)
        if tracer is not None:
            tracer.recording = False
        try:
            if not req.check(result):
                tally.fail(req.label, "result differs from the known answer")
        except Exception:
            tally.fail(req.label, "check raised\n" + traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.recording = True
    return latencies


def probe_setup(workload, seed):
    """Setup time in fresh interpreters: import tiltlab, build the workload.

    Returns (wall seconds, reference seconds) per interpreter.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           f"--seed={seed}", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(tuple(float(x) for x in done.stdout.split()[-2:]))
    return samples


def setup_probe(args):
    from workloads import WORKLOADS

    speed = HostSpeed()
    speed.settle()
    t0 = perf_counter()
    program.check_import()
    WORKLOADS[args.workload](args.seed)
    elapsed = perf_counter() - t0
    speed.settle()
    print(repr(elapsed), repr(speed.scaled_by_all(elapsed)))
    return 0


def end_to_end(args, requests, tally):
    setup = probe_setup(args.workload, args.seed)
    raw_walls, walls, latencies, per_pass = [], [], [], []
    t_start = perf_counter()
    with HostSpeed() as speed:
        while True:
            pairs = run_pass(requests, tally, speed=speed)
            lat = [ref for _, ref in pairs]
            raw_walls.append(sum(wall for wall, _ in pairs))
            walls.append(sum(lat))
            latencies += lat
            per_pass.append(lat)
            elapsed = perf_counter() - t_start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(raw_walls) > args.seconds:
                break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "verdict_p50_ms": (
            statistics.median(statistics.median(col) for col in zip(*per_pass)) * 1e3,
            "ms"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else None
    beyond = sum(1 for x in latencies if p90 is not None and x > p90)
    notes = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(wall for wall, _ in setup),
        "host_speed": speed.speed(),
        "host_loops": len(speed.loop_s),
        "requests": len(latencies),
        "setup_samples_s": setup,
        "failed_ratio": tally.failed / tally.attempted,
        "verdict_p90_ms": p90 * 1e3 if beyond >= P90_TAIL else None,
        "verdict_p90_beyond": beyond,
        "latencies_s": per_pass,
    }
    return metrics, notes


def traced_pass(requests, tally):
    """One pass with the tiltlab entry points wrapped; (tracer, pass wall)."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wall = sum(run_pass(requests, tally, tracer))
    finally:
        tracer.uninstall()
    return tracer, wall


def layer_metrics(a):
    """Per-layer metrics from Tracer.analyse(), as {name: (value, unit)}."""
    from spans import LAYERS

    by, ex = a["by_name"], a["extras"]

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(by.get(n, {}).get("self_s", 0.0) for n in names)

    def extra(name, i):
        return ex.get(name, [0, 0])[i]

    ring_muls = calls("core.mul")
    kernel_calls = calls("backend.eisenstein_mul") + calls("backend.window_mul")
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for k in ("eisenstein_mul", "window_mul"):
        put(f"backend.{k}.calls", calls(f"backend.{k}"), "count")
        put(f"backend.{k}.coeff_volume", extra(f"backend.{k}", 0), "count")
        if k == "eisenstein_mul":
            put(f"backend.{k}.packed_bytes", extra(f"backend.{k}", 1), "B")
        put(f"backend.{k}.self_s", self_s(f"backend.{k}"), "s")
    for k in ("mul", "add", "reduce_mod_ideal", "pow", "invert"):
        put(f"core.{k}.calls", calls(f"core.{k}"), "count")
        put(f"core.{k}.self_s", self_s(f"core.{k}"), "s")
    put("core.mul.dense_share", kernel_calls / ring_muls if ring_muls else 0.0, "ratio")
    put("core.invert.muls", a["invert_muls"], "count")
    for k in ("maps", "check_axioms"):
        put(f"towers.{k}.calls", calls(f"towers.{k}"), "count")
        put(f"towers.{k}.self_s", self_s(f"towers.{k}"), "s")
    put("towers.build_tower.calls", calls("towers.build_tower"), "count")
    put("tilts.small_tilt.calls", calls("tilts.small_tilt"), "count")
    put("tilts.small_tilt.self_s", self_s("tilts.small_tilt"), "s")
    sharps = calls("monoidal.sharp")
    put("monoidal.sharp.calls", sharps, "count")
    put("monoidal.sharp.self_s", self_s("monoidal.sharp"), "s")
    put("monoidal.sharp.pows_per_call", a["sharp_pows"] / sharps if sharps else 0.0, "ratio")
    put("monoidal.checks.self_s", self_s("monoidal.checks"), "s")
    put("closure.check_root_closed.calls", calls("closure.check_root_closed"), "count")
    put("closure.check_root_closed.candidates", extra("closure.check_root_closed", 0), "count")
    put("closure.check_root_closed.self_s", self_s("closure.check_root_closed"), "s")
    put("closure.is_cartesian_mod_f.calls", calls("closure.is_cartesian_mod_f"), "count")
    put("closure.is_cartesian_mod_f.self_s", self_s("closure.is_cartesian_mod_f"), "s")
    put("linalg.calls", calls("linalg"), "count")
    put("linalg.self_s", self_s("linalg"), "s")
    put("ramified.delta_table.calls", calls("ramified.delta_table"), "count")
    put("ramified.assemble_perfectoid.calls", calls("ramified.assemble_perfectoid"), "count")
    put("ramified.assemble_perfectoid.self_s", self_s("ramified.assemble_perfectoid"), "s")
    put("parallel.pmap.calls", calls("parallel.pmap"), "count")
    put("parallel.pmap.wait_s", a["pmap_wait_s"], "s")
    put("battery.run_battery.self_s", self_s("battery.run_battery"), "s")
    put("cli.self_s", self_s("cli.run"), "s")
    for layer in LAYERS:
        names = [n for n in by if n.split(".")[0] == layer]
        put(f"layer.{layer}.self_s", self_s(*names), "s")
    put("trace.wall_s", a["wall_s"], "s")
    put("trace.spans", a["spans"], "count")
    return m


def per_layer(args, requests, tally):
    import kernels

    run_pass(requests, tally)  # warm-up: the first pass pays for allocator growth
    untraced = sum(run_pass(requests, tally))
    kernel_times = kernels.measure(kernels.selected(), args.seed)
    tracer, traced = traced_pass(requests, tally)
    m = layer_metrics(tracer.analyse())
    m["trace.overhead_ratio"] = (traced / untraced, "ratio")
    for (kernel, size), (median, spread) in kernel_times.items():
        m[f"kernel.{kernel}.{size}.median_us"] = (median * 1e6, "us")
        m[f"kernel.{kernel}.{size}.iqr_share"] = (spread, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    notes = {"untraced_wall_s": untraced, "skipped_targets": tracer.skipped}
    return m, notes


def main(argv=None):
    args = parse_args(argv)
    try:
        program.prepare()
        if args.setup_probe:
            return setup_probe(args)
        program.check_import()
    except (program.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot load tiltlab: {exc}", file=sys.stderr)
        return 2
    env = program.environment()
    if env["backend"] != "python":
        print(f"perfbench: expected the Python kernels, got {env['backend']}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    requests = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(args, requests, tally)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':<44} {notes['failed_ratio']:>16.6g} "
              f"({tally.failed}/{tally.attempted})")
        if notes["verdict_p90_ms"] is None:
            print(f"  verdict_p90_ms not reported: {notes['requests']} requests, "
                  f"{notes['verdict_p90_beyond']} beyond p90 (needs {P90_TAIL})")
        else:
            print(f"  {'verdict_p90_ms':<44} {notes['verdict_p90_ms']:>16.6g} ms "
                  f"({notes['requests']} requests)")
        print(f"  raw wall time: pass {notes['raw_wall_s']:.6g} s, setup "
              f"{notes['raw_setup_s']:.6g} s; host speed {notes['host_speed']:.3f} "
              f"of reference ({notes['host_loops']} loops)")
    if tally.first_failure:
        print("first failure: " + tally.first_failure, file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
