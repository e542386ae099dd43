"""Checks of the benchmark itself.  Run after changing anything in perfbench/:

    python3 perfbench/selfcheck.py

It checks that
- two traced passes at one seed give identical work counters;
- axioms-sparse makes no kernel call, and the kernels hold most of the
  traced time of sharp-dense;
- per-layer self times add up to the traced wall time;
- verdicts stay correct under tracing, and uninstalling restores tiltlab;
- the host-speed loop runs during a request, and leaving HostSpeed
  restores the SIGALRM handler and stops the timer;
- run.py reports exactly the metrics BENCHMARK.json declares;
- without the tiltlab sources, run.py exits with status 2 and prints no result.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import program
import run

HERE = Path(__file__).resolve().parent
# Short request lists keep the check fast; counters are exact at any length.
SHORT = {"sharp-dense": 4, "axioms-sparse": 2, "closure-exact": 3}
SEED = 11


def counters(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}


def traced(workload):
    from workloads import WORKLOADS

    requests = WORKLOADS[workload](SEED)[: SHORT[workload]]
    tally = run.Tally()
    tracer, wall = run.traced_pass(requests, tally)
    assert tally.failed == 0, tally.first_failure
    assert tracer.skipped == [], tracer.skipped
    metrics = run.layer_metrics(tracer.analyse())
    layers = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
    trace_wall = metrics["trace.wall_s"][0]
    assert abs(layers - trace_wall) <= 1e-9 * max(1.0, trace_wall), (layers, trace_wall)
    assert trace_wall <= wall, (trace_wall, wall)
    return metrics


def check_counters():
    for workload in SHORT:
        first, second = traced(workload), traced(workload)
        assert counters(first) == counters(second), workload
        if workload == "axioms-sparse":
            assert first["backend.eisenstein_mul.calls"][0] == 0
            assert first["backend.window_mul.calls"][0] == 0
            assert first["layer.backend.self_s"][0] == 0.0
        if workload == "sharp-dense":
            share = first["layer.backend.self_s"][0] / first["trace.wall_s"][0]
            assert share > 0.5, share
        print(f"ok  {workload}: counters repeat, self times add up")


def check_uninstall():
    from tiltlab import core, monoidal

    before = (monoidal.sharp, core.LayerElem.__dict__["__mul__"])
    traced("sharp-dense")
    assert (monoidal.sharp, core.LayerElem.__dict__["__mul__"]) == before
    print("ok  uninstall restores the wrapped entry points")


def check_host_speed():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        mark = speed.mark()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            hostspeed._loop()
        elapsed = perf_counter() - t0
        scaled = speed.scaled(elapsed, mark)
    assert len(speed.loop_s) > hostspeed.SETTLE + 5, len(speed.loop_s)
    assert 0 < scaled < elapsed * 10 * hostspeed.REFERENCE_S / min(speed.loop_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    print(f"ok  host speed: {len(speed.loop_s)} loops, {elapsed:.3f} s -> {scaled:.3f} "
          "reference s, timer stopped")


def result_line(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_declared_metrics():
    declared = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = result_line(
            [sys.executable, "perfbench/run.py", "--workload", "sharp-dense",
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
            program.ROOT,
        )
        assert code == 0 and result is not None, code
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert got == want, set(got) ^ set(want)
        print(f"ok  --trace {trace} reports exactly the declared {key} metrics")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(program.ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, result = result_line(
            [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            bare,
        )
        assert code != 0 and result is None, code
    finally:
        shutil.rmtree(bare)
    print("ok  without tiltlab sources: exit status", code, "and no result")


def main():
    program.prepare()
    program.check_import()
    check_counters()
    check_uninstall()
    check_host_speed()
    check_declared_metrics()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
