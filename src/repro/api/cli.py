"""``python -m repro`` — the experiment command line.

Subcommands:

* ``list``   — show every registered experiment (name, cells, tags, title);
* ``run``    — run one experiment and print a table (or ``--json``/``--csv``);
* ``report`` — run and print the measured table plus the paper-vs-measured
  deviation report;
* ``sweep``  — run with overridden parameter axes and optionally pivot the
  result into a wide table (``--pivot index columns values``);
* ``perf``   — run the kernel/channel/NoC/energy microbenchmarks and write
  ``BENCH_kernel.json``; see ``docs/performance.md``;
* ``trace``  — re-run an experiment's canonical point with the
  :mod:`repro.obs` tracer attached and write a deterministic Chrome
  trace-event JSON (load it at https://ui.perfetto.dev); see
  ``docs/observability.md``;
* ``alerts`` — run one telemetry-observed chaos fleet and print the typed
  alert log plus its detection scores against the injected fault
  schedule; see ``docs/alerting.md``;
* ``trend``  — fold ``BENCH_*.json`` perf reports into a single
  calibration-normalized performance trend table; see
  ``docs/performance.md``.

Parameters are passed as repeated ``-p name=value`` flags; comma-separated
values sweep an axis (``-p fpga_mhz=100,200,500``).  ``--cache DIR`` enables
on-disk result caching, ``--executor process --workers N`` fans cells out
across processes (``--workers N`` alone implies the process executor); one
pool is created per invocation and reused across every grid cell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import perf
from repro.analysis.reporting import format_table
from repro.api.registry import get_experiment, list_experiments
from repro.api.results import ResultSet
from repro.api.runner import EXECUTORS, Runner


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_value(text: str) -> Any:
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",") if part != ""]
    return _parse_scalar(text)


def parse_params(items: Optional[Sequence[str]]) -> Dict[str, Any]:
    """Parse repeated ``-p name=value`` flags into an overrides mapping."""
    params: Dict[str, Any] = {}
    for item in items or ():
        name, separator, value = item.partition("=")
        if not separator or not name or not value:
            raise SystemExit(f"error: bad parameter {item!r}; expected name=value")
        params[name] = _parse_value(value)
    return params


def _make_runner(args: argparse.Namespace) -> Runner:
    executor = args.executor
    if args.workers is not None and executor == "serial":
        # `--workers N` alone is an unambiguous ask for parallelism; don't
        # make the user also spell `--executor process`.
        executor = "process"
    return Runner(executor=executor, workers=args.workers,
                  cache_dir=args.cache, seed=args.seed)


def _run(args: argparse.Namespace) -> ResultSet:
    overrides = parse_params(args.param)
    with _make_runner(args) as runner:
        return runner.run(args.experiment, use_cache=not args.no_cache, **overrides)


def _emit(results: ResultSet, args: argparse.Namespace) -> None:
    if args.out:
        if args.out.endswith(".csv") or args.csv:
            results.to_csv(args.out)
        else:
            results.to_json(args.out)
        print(f"wrote {len(results)} rows to {args.out}", file=sys.stderr)
        return
    if args.json:
        print(results.to_json())
    elif args.csv:
        print(results.to_csv(), end="")
    else:
        spec = get_experiment(results.experiment)
        print(results.to_table(title=spec.title or results.experiment))
        for key, value in results.summary.items():
            print(f"{key}: {value}")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments(tag=args.tag)
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    print(format_table(
        ["Experiment", "Cells", "Tags", "Title"],
        [[spec.name, spec.num_cells(), ",".join(spec.tags), spec.title]
         for spec in specs],
        title="Registered experiments",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    results = _run(args)
    _emit(results, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = _run(args)
    spec = get_experiment(results.experiment)
    print(results.to_table(title=spec.title or results.experiment))
    for key, value in results.summary.items():
        print(f"{key}: {value}")
    deviations = results.deviations()
    if deviations:
        print()
        print(results.deviation_table())
    else:
        print("\n(no paper_* columns to compare against)")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    out_path = args.out or perf.BENCH_FILENAME
    progress = None if args.json else (lambda line: print(line, file=sys.stderr))
    report = perf.run_suite(perf.SUITE, quick=args.quick, progress=progress)
    perf.write_report(report, out_path)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_table(
            ["Benchmark", "Value", "Unit", "Direction"],
            [[bench["name"], format(bench["value"], ",.6g"), bench["unit"],
              bench["direction"]] for bench in report["benchmarks"]],
            title=f"Performance suite ({report['mode']} mode)",
        ))
        print(f"wrote {out_path}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    # Lazy import, same rationale as cmd_perf: `repro list` stays light.
    from repro.obs.experiments import DEFAULT_SEED, trace_experiment

    overrides = parse_params(args.param)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    tracer = trace_experiment(args.experiment, seed=seed, overrides=overrides)
    payload = tracer.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
        print(f"wrote {tracer.event_count} events to {args.out} "
              f"(load at https://ui.perfetto.dev)", file=sys.stderr)
    else:
        print(payload, end="")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    # Lazy import, same rationale as cmd_perf: `repro list` stays light.
    from repro.obs.alerting import DEFAULT_SEED, alerts_report

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = alerts_report(fault=args.fault, control=args.control,
                           fault_rate=args.fault_rate, seed=seed)
    if args.json or args.out:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(payload)
            print(f"wrote {len(report['alerts'])} alert events to {args.out}",
                  file=sys.stderr)
        else:
            print(payload)
        return 0
    print(format_table(
        ["t_ps", "Rule", "Family", "Node", "Event", "Severity", "Value"],
        [[event["t_ps"], event["rule"], event["family"], event["node_id"],
          event["event"], event["severity"], format(event["value"], ".4g")]
         for event in report["alerts"]],
        title=f"Alert log ({args.fault} / {args.control}; "
              f"{report['windows']} telemetry windows)",
    ))
    score = report["score"]
    print(f"faults: {score['faults']}  detected: {score['detected']}  "
          f"recall: {score['recall']:.3f}  precision: {score['precision']:.3f}  "
          f"false alarms: {score['false_alarms']}")
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    # Lazy import: the trend tool only needs the perf report schema.
    from repro.perf.trend import format_trend, load_reports, trend_report

    reports = load_reports(args.reports)
    trend = trend_report(reports, baseline_path=args.baseline_report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(trend, indent=2, sort_keys=True))
        print(f"wrote trend over {len(trend['reports'])} reports to {args.out}",
              file=sys.stderr)
    if args.json and not args.out:
        print(json.dumps(trend, indent=2, sort_keys=True))
    elif not args.out or args.verbose:
        print(format_trend(trend))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    results = _run(args)
    if args.pivot:
        index, columns, values = args.pivot
        headers, rows = results.pivot(index, columns, values)
        print(format_table(headers, rows,
                           title=f"{results.experiment}: {values} by {index} x {columns}"))
    else:
        _emit(results, args)
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the Duet reproduction's experiments (tables and figures).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_list = subparsers.add_parser("list", help="list registered experiments")
    p_list.add_argument("--tag", help="only experiments carrying this tag")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(func=cmd_list)

    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("experiment", help="experiment name (see `repro list`)")
    run_options.add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                             help="override a grid axis or fixed parameter; "
                                  "comma-separate values to sweep an axis")
    run_options.add_argument("--executor", choices=EXECUTORS, default="serial")
    run_options.add_argument("--workers", type=int, default=None,
                             help="process-pool size; implies --executor process "
                                  "when given on its own")
    run_options.add_argument("--cache", metavar="DIR", default=None,
                             help="enable on-disk JSON result caching in DIR")
    run_options.add_argument("--no-cache", action="store_true",
                             help="ignore cached results even when --cache is set")
    run_options.add_argument("--seed", type=int, default=None,
                             help="override the experiment seed")
    output_format = run_options.add_mutually_exclusive_group()
    output_format.add_argument("--json", action="store_true", help="emit JSON")
    output_format.add_argument("--csv", action="store_true", help="emit CSV")
    run_options.add_argument("--out", metavar="FILE",
                             help="write results to FILE (.csv for CSV, else JSON)")

    p_run = subparsers.add_parser("run", parents=[run_options],
                                  help="run one experiment")
    p_run.set_defaults(func=cmd_run)

    p_report = subparsers.add_parser("report", parents=[run_options],
                                     help="run and compare against the paper's numbers")
    p_report.set_defaults(func=cmd_report)

    p_sweep = subparsers.add_parser("sweep", parents=[run_options],
                                    help="run a parameter sweep (optionally pivoted)")
    p_sweep.add_argument("--pivot", nargs=3, metavar=("INDEX", "COLUMNS", "VALUES"),
                         help="pivot the rows into a wide table")
    p_sweep.set_defaults(func=cmd_sweep)

    p_perf = subparsers.add_parser(
        "perf", help="run the performance suite and write BENCH_kernel.json")
    p_perf.add_argument("--quick", action="store_true",
                        help="reduced sizes/repeats (CI smoke mode)")
    p_perf.add_argument("--out", metavar="FILE", default=None,
                        help="report path (default: BENCH_kernel.json)")
    p_perf.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    p_perf.set_defaults(func=cmd_perf)

    p_trace = subparsers.add_parser(
        "trace", help="record a Chrome trace of one experiment's run")
    p_trace.add_argument("experiment",
                        help="traceable experiment name (serve_policy, "
                             "reconfig, chaos, fleet_scaling, "
                             "latency_decomposition, ...)")
    p_trace.add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                        help="override a driver parameter "
                             "(policy, duration_us, regions, fault_rate, ...)")
    p_trace.add_argument("--seed", type=int, default=None,
                        help="override the trace run's seed")
    p_trace.add_argument("--out", metavar="FILE", default=None,
                        help="write the trace JSON to FILE (default: stdout)")
    p_trace.set_defaults(func=cmd_trace)

    p_alerts = subparsers.add_parser(
        "alerts", help="run one telemetry-observed chaos fleet and print the "
                       "typed alert log plus its ground-truth scores")
    p_alerts.add_argument("--fault", default="kill",
                          choices=("none", "kill", "seu", "link"),
                          help="injected fault family (default: kill)")
    p_alerts.add_argument("--control", default="alerts",
                          choices=("omniscient", "alerts"),
                          help="chaos control mode (default: alerts)")
    p_alerts.add_argument("--fault-rate", type=float, default=2.0,
                          help="background rate for seu/link families")
    p_alerts.add_argument("--seed", type=int, default=None,
                          help="override the run's seed")
    p_alerts.add_argument("--json", action="store_true",
                          help="emit the full report (log + truth + scores) "
                               "as JSON")
    p_alerts.add_argument("--out", metavar="FILE", default=None,
                          help="write the JSON report to FILE")
    p_alerts.set_defaults(func=cmd_alerts)

    p_trend = subparsers.add_parser(
        "trend", help="fold BENCH_*.json perf reports into one "
                      "calibration-normalized trend table")
    p_trend.add_argument("reports", nargs="+", metavar="BENCH.json",
                         help="perf reports, oldest first (e.g. "
                              "BENCH_kernel.json bench-current.json)")
    p_trend.add_argument("--baseline-report", default=None, metavar="FILE",
                         help="report whose values anchor every ratio "
                              "(default: each benchmark's first appearance)")
    p_trend.add_argument("--json", action="store_true",
                         help="emit the trend as JSON instead of a table")
    p_trend.add_argument("--out", metavar="FILE", default=None,
                         help="write the trend JSON to FILE")
    p_trend.add_argument("--verbose", action="store_true",
                         help="also print the table when --out is given")
    p_trend.set_defaults(func=cmd_trend)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; not an error.  Detach stdout so the
        # interpreter shutdown doesn't complain about the closed pipe.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115
        return 0
    except KeyError as error:
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
