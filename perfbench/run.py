"""Benchmark of birkhofflab: one workload per run, or all of them.

    python3 perfbench/run.py --workload audit-prolate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  A run makes its inputs
from ``--seed``, repeats the workload's operation one at a time until the
next one would end after ``--seconds`` (at least one operation), checks every
output against closed-form oracles, and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones below; with
``--trace 1`` the functions of each layer are wrapped from outside and the
metrics are the per-layer ones of ``layertrace.LAYER_METRICS``.  The exit
code is 0 when every output was correct, 1 when one was not, and 2 when the
package source is missing.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("audit-prolate", "audit-oblate", "strip-maps")
# Times are rescaled to the reference host speed (speedprobe.py).
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
# Per-run diagnostics reported with the per-layer metrics: not gated.
# run.wall_ref_s is wall_ref_s under tracing; the difference is the tracing
# overhead.  run.wall_s and run.cpu_s are not rescaled.
RUN_METRICS = {"run.wall_ref_s": "s", "run.wall_s": "s", "run.cpu_s": "s",
               "run.map_p50_ms": "ms", "run.map_p90_ms": "ms",
               "run.map_samples": "count"}
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 7
# Each times the import and the inputs between two bursts of speed probes.
SETUP = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import speedprobe
def burst():
    return [speedprobe.probe_seconds() for _ in range(25)]
before = burst()
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
seconds = time.perf_counter() - t0
print(speedprobe.rescale(seconds, before + burst()))
"""


def setup_seconds(workload, seed):
    """Import the package and build the inputs in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP, str(SRC), str(BENCH), workload,
         str(seed)], check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def import_workloads():
    sys.path[:0] = [str(SRC), str(BENCH)]
    import birkhofflab
    if Path(birkhofflab.__file__).resolve().parent != SRC / "birkhofflab":
        raise ImportError(f"birkhofflab imported from {birkhofflab.__file__}")
    import workloads
    return workloads


def percentile_ms(values, q):
    return 1e3 * statistics.quantiles(values, n=100)[q - 1] \
        if len(values) > 1 else 1e3 * values[0]


def run_workload(name, seed, seconds, trace):
    if not trace:
        setup = statistics.median(setup_seconds(name, seed)
                                  for _ in range(SETUP_RUNS))
    workloads = import_workloads()
    import speedprobe
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
    ops, rescaled, cpus, laps, per_op = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        if trace:
            with tracer, speedprobe.SpeedProbe() as probe:
                op, _ = wl.run_op(inputs)
            per_op.append(layertrace.op_metrics(tracer.take()))
        else:
            with speedprobe.SpeedProbe() as probe:
                op, _ = wl.run_op(inputs)
        cpus.append(time.process_time() - c0)
        ops.append(op)
        rescaled.append(probe.rescale(op.seconds))
        laps.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break
    items = [it for op in ops for it in op.items]
    failed = [it for it in items if it.fails]
    for it in failed[:5]:
        print("check failed: " + "; ".join(it.fails), file=sys.stderr)
    wall = statistics.median(rescaled)
    if trace:
        maps = ([it.seconds for it in items] if name == "strip-maps"
                else [])
        values = layertrace.median_metrics(per_op)
        values.update({
            "run.wall_ref_s": wall,
            "run.wall_s": statistics.median(op.seconds for op in ops),
            "run.cpu_s": statistics.median(cpus),
            "run.map_p50_ms": percentile_ms(maps, 50) if maps else 0.0,
            "run.map_p90_ms": percentile_ms(maps, 90) if maps else 0.0,
            "run.map_samples": len(maps)})
        units = {**layertrace.LAYER_METRICS, **RUN_METRICS}
    else:
        values = {
            "setup_s": setup,
            "wall_ref_s": wall,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    return {"correct": not failed, "attempted": len(items),
            "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def run_all(seed, seconds, trace):
    """Every workload in its own process; a table, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with "
                               f"{out.returncode}")
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "birkhofflab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        res = run_all(args.seed, args.seconds, args.trace)
    else:
        res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
