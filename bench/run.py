"""Run the repository benchmark.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload serve_steady --seed 7 --seconds 15
    python3 bench/run.py --workload fleet_chaos --trace 1 --trace-out t.json
    python3 bench/run.py --smoke --out smoke.json         # tiny sizes

Run it from anywhere; it finds ``src/`` next to its own directory.  Each
workload runs in fresh child processes, one at a time.  A child times its
set-up (importing ``repro`` and one minimal call of the workload), then
measured repetitions at full size until the run's ``--seconds`` are spent.
Three children give three set-up samples per run; the first child always
measures at least one repetition.  Each set-up and repetition is reported
at a reference host speed sampled while it runs (``common.HostClock``).

Every repetition's outputs are checked (request conservation, stage
shares, ``fig12`` correctness, chaos actually injected and recovered) and
reduced to a sha256 digest that must be identical across repetitions and
processes.  ``--trace 1`` instead runs one untraced child for reference
and one traced child whose layer wrappers (``layers.py``) give the
per-layer metrics; the traced digest must equal the untraced one.

The last line of standard output for each workload is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common
import layers
import workloads

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src"
#: Set-up samples per untraced run.
CHILDREN = 3
#: Every workload's children must finish within this many seconds.
WORKLOAD_DEADLINE_S = 170.0
DEV_SEED = 2023


class BenchError(RuntimeError):
    """A child process failed or overran; the run prints no result."""


# --------------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------------- #
def child(args: argparse.Namespace) -> None:
    workload = workloads.WORKLOADS[args.child]
    size = "smoke" if args.smoke else "full"
    clock = common.HostClock()
    _, setup_s, setup_speed = clock.measure(lambda: workload.run(args.seed, "prime"))

    record: Dict[str, Any] = {"setup_s": setup_s, "setup_speed": setup_speed,
                              "walls": [], "speeds": [], "digests": [], "failures": []}
    result = None
    if args.trace:
        profiler = layers.Profiler(clock.now)
        layers.install(profiler)
        outcome, wall, speed = clock.measure(
            profiler.root(lambda: workload.run(args.seed, size)))
        result = add_repetition(record, workload, outcome, wall, speed)
        record["failures"][-1] += layers.self_check(profiler, wall, workload.layers)
        record["layers"] = layers.layer_metrics(profiler, result.items, result.counters)
        record["spans"] = profiler.spans
    while not args.trace and (len(record["walls"]) < args.min_reps
                              or sum(record["walls"]) < args.budget):
        outcome, wall, speed = clock.measure(lambda: workload.run(args.seed, size))
        result = add_repetition(record, workload, outcome, wall, speed)
        del outcome  # before the next repetition allocates its own
    if result is not None:
        record.update(items=result.items, sim=result.sim, notes=result.notes)
    print(json.dumps(record))


def add_repetition(record: Dict[str, Any], workload: workloads.Workload,
                   outcome: Any, wall: float, speed: float) -> workloads.Result:
    """Check one repetition's outputs and append it to ``record``."""
    result = workload.reduce(outcome)
    if not record["walls"]:
        # Peak after set-up and one repetition, whatever the child's
        # repetition count, so every child measures the same thing.
        record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["walls"].append(wall)
    record["speeds"].append(speed)
    record["digests"].append(workloads.digest(result.digest_material))
    record["failures"].append(list(result.failures))
    return result


# --------------------------------------------------------------------------- #
# Parent process
# --------------------------------------------------------------------------- #
def run_child(workload: str, args: argparse.Namespace, budget: float,
              min_reps: int, trace: bool, deadline: float) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", workload, "--seed", str(args.seed),
               "--budget", repr(budget), "--min-reps", str(min_reps),
               "--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child overran the {WORKLOAD_DEADLINE_S:.0f} s "
                         "deadline and was killed") from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload's children; returns its report."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    # A traced run needs only an untraced reference, on half the seconds.
    children = 1 if args.smoke or args.trace else CHILDREN
    seconds = 0.0 if args.smoke else args.seconds / (2 if args.trace else 1)
    records: List[Dict[str, Any]] = []
    measured = 0.0
    for index in range(children):
        budget = max(0.0, seconds * (index + 1) / children - measured)
        records.append(run_child(workload, args, budget, int(index == 0),
                                 trace=False, deadline=deadline))
        measured += sum(records[-1]["walls"])
    traced = (run_child(workload, args, 0.0, 1, trace=True, deadline=deadline)
              if args.trace else None)
    return build_report(records, traced)


def build_report(records: List[Dict[str, Any]],
                 traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Merge the children's records: checks, digests, host-time samples
    at the reference speed and, for a traced run, the layer metrics."""
    measured = [record for record in records if record["walls"]]
    walls = [wall for record in measured for wall in record["walls"]]
    speeds = [speed for record in measured for speed in record["speeds"]]
    reps = [(digest, failures) for record in records + [traced] if record
            for digest, failures in zip(record["digests"], record["failures"])]
    reference = reps[0][0]
    failed = 0
    problems: List[str] = []
    for digest, failures in reps:
        if digest != reference:
            failures = failures + [f"digest {digest} differs from {reference}"]
        failed += bool(failures)
        problems += failures
    items = measured[0]["items"]
    setups = [record["setup_s"] for record in records]
    reference_walls = [wall * speed for wall, speed in zip(walls, speeds)]
    samples = {
        "setup_s": [record["setup_s"] * record["setup_speed"] for record in records],
        "wall_s": reference_walls,
        "sim_req_per_s": [items / wall for wall in reference_walls],
        "peak_rss_mb": [record["rss_mb"] for record in measured],
    }
    report: Dict[str, Any] = {
        "attempted": len(reps), "failed": failed, "problems": problems,
        "digest": reference, "items": items, "sim": measured[0]["sim"],
        "notes": measured[0]["notes"], "samples": samples,
        "metrics": {name: common.summarize(values)
                    for name, values in samples.items()},
        "host_speed": statistics.median(speeds), "host_speeds": speeds,
        "raw": {"setup_s": common.summarize(setups),
                "wall_s": common.summarize(walls)},
    }
    if traced is not None:
        traced_speed = traced["speeds"][0]
        report["traced_wall_s"] = traced["walls"][0] * traced_speed
        layer_values = {}
        for metric in common.PER_LAYER:
            value = traced["layers"][metric.name]
            if metric.unit == "s":
                value *= traced_speed
            elif metric.unit == "1/s":
                value /= traced_speed
            layer_values[metric.name] = value
        layer_values["bench.trace_overhead"] = (
            report["traced_wall_s"] / report["metrics"]["wall_s"]["value"] - 1.0)
        report["layers"] = layer_values
        report["spans"] = traced["spans"]
    return report


def result_line(report: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's last line for one workload."""
    if trace:
        metrics = {metric.name: {"value": report["layers"][metric.name],
                                 "unit": metric.unit}
                   for metric in common.PER_LAYER}
    else:
        metrics = {metric.name: {"value": report["metrics"][metric.name]["value"],
                                 "unit": metric.unit}
                   for metric in common.END_TO_END}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(workload: str, report: Dict[str, Any], args: argparse.Namespace) -> None:
    runs = report["metrics"]["setup_s"]["n"]
    print(f"== {workload}  seed {args.seed}  "
          f"{report['metrics']['wall_s']['n']} repetition(s) in {runs} process(es)")
    for metric in common.END_TO_END:
        stats = report["metrics"][metric.name]
        print(f"  {metric.name:<16} {stats['value']:>14.6g} {metric.unit:<6}"
              f" median of {stats['n']}, quartiles {stats['q1']:.6g} .. {stats['q3']:.6g}")
    print(f"  host speed       {report['host_speed']:>14.4f} x reference; raw medians "
          f"setup {report['raw']['setup_s']['value']:.4g} s, "
          f"wall {report['raw']['wall_s']['value']:.4g} s")
    for name, value in report["sim"].items():
        print(f"  {name:<16} {value!r:>14} {common.METRICS[name].unit:<6} exact")
    for note in report["notes"]:
        print(f"  {note}")
    print(f"  digest           sha256:{report['digest']}")
    print(f"  checks           {report['attempted']} attempted, {report['failed']} failed")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if args.trace:
        for metric in common.PER_LAYER:
            print(f"  {metric.name:<44} {report['layers'][metric.name]:>14.6g} {metric.unit}")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"workload seed ({DEV_SEED} for development, 7 held out)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", help="write the traced spans as a Chrome trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one repetition, for testing the benchmark")
    parser.add_argument("--out", help="write every sample and digest as JSON (for compare.py)")
    # Internal: the child-process side.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--min-reps", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.child:
        child(args)
        return 0
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    reports: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            reports[name] = measure(name, args)
            print_report(name, reports[name], args)
            print(json.dumps(result_line(reports[name], bool(args.trace))), flush=True)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(layers.chrome_trace(
                {name: report.pop("spans") for name, report in reports.items()}), handle)
    if args.out:
        for report in reports.values():
            report.pop("spans", None)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "smoke": args.smoke, "trace": args.trace,
                       "workloads": reports}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
