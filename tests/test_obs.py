"""Tests for ``repro.obs``: tracer nesting/ordering invariants (Hypothesis
over arbitrary begin/end sequences), the deterministic Chrome-trace export
and its pinned golden, the hooks-off ≡ hooks-on bit-identity contract, the
unified metrics registry (serial ≡ process fleet merge), ``cdf_points``,
and the ``latency_decomposition`` acceptance pins."""

import copy
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import cli
from repro.api.registry import get_experiment, list_experiments
from repro.api.results import ResultSet
from repro.api.runner import Runner, trace_experiment
from repro.fleet.cluster import FleetConfig, run_fleet
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs import (
    ALL_TENANTS,
    STAGES,
    MetricsSnapshot,
    Tracer,
    cdf_points,
    decompose_rows,
)
from repro.obs.decompose import request_stages
from repro.obs.experiments import (
    latency_decomposition_cell,
    latency_decomposition_summary,
)
from repro.serve import POLICY_KINDS
from repro.serve.experiments import run_serve
from repro.sim.stats import fraction_at

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The tiny pinned run behind the trace golden.  Regenerate after an
#: intentional hook change with:
#:   PYTHONPATH=src python -c "
#:   from tests.test_obs import tiny_traced_run
#:   open('tests/data/obs_trace_golden.json', 'w').write(
#:       tiny_traced_run().to_json())"
TINY = dict(tenant_mix="duo", arrival_rate_krps=250.0, duration_us=100.0)


def tiny_traced_run() -> Tracer:
    tracer = Tracer()
    run_serve("affinity", tracer=tracer, **TINY)
    return tracer


# --------------------------------------------------------------------------- #
# Tracer recording surface
# --------------------------------------------------------------------------- #
def test_complete_rejects_negative_duration():
    tracer = Tracer()
    with pytest.raises(ValueError, match="negative duration"):
        tracer.complete("x", "fabric0", 10, -1)


def test_begin_end_is_lifo_and_merges_args():
    tracer = Tracer()
    tracer.begin("outer", "fabric0", 0, args={"t": "alpha"})
    tracer.begin("inner", "fabric0", 5)
    inner = tracer.end("fabric0", 7)
    outer = tracer.end("fabric0", 12, args={"id": 3})
    assert (inner.name, inner.start_ps, inner.dur_ps) == ("inner", 5, 2)
    assert (outer.name, outer.start_ps, outer.dur_ps) == ("outer", 0, 12)
    assert outer.args == {"t": "alpha", "id": 3}
    assert tracer.open_depth("fabric0") == 0


def test_end_with_no_open_span_raises():
    tracer = Tracer()
    with pytest.raises(ValueError, match="no open span"):
        tracer.end("fabric0", 5)


def test_end_before_start_raises_and_keeps_the_span_open():
    tracer = Tracer()
    tracer.begin("s", "fabric0", 100)
    with pytest.raises(ValueError, match="before its start"):
        tracer.end("fabric0", 50)
    # The failed end() must not have consumed the open span.
    assert tracer.open_depth("fabric0") == 1
    assert tracer.end("fabric0", 150).dur_ps == 50


def test_tracks_are_isolated_per_pid():
    tracer = Tracer()
    tracer.begin("a", "fabric0", 0, pid=1)
    tracer.begin("b", "fabric0", 2, pid=2)
    assert tracer.open_depth("fabric0", pid=1) == 1
    assert tracer.end("fabric0", 9, pid=2).name == "b"
    assert tracer.end("fabric0", 10, pid=1).name == "a"


def test_process_names_label_string_pids_as_themselves():
    def names(tracer):
        return {event["pid"]: event["args"]["name"]
                for event in json.loads(tracer.to_json())["traceEvents"]
                if event["name"] == "process_name"}

    serve = Tracer()
    serve.instant("tick", "fabric0", 0)
    serve.instant("tick", "fabric0", 0, pid=3)
    assert names(serve) == {0: "node0", 3: "node3"}
    fleet = Tracer()
    fleet.instant("epoch", "epochs", 0, pid="node0")
    fleet.instant("failover", "chaos", 0, pid="fleet.ctrl")
    assert names(fleet) == {"node0": "node0", "fleet.ctrl": "fleet.ctrl"}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["begin", "end"]),
                          st.sampled_from(["a", "b"]),
                          st.integers(min_value=0, max_value=5)),
                max_size=40))
def test_begin_end_sequences_keep_nesting_and_ordering_invariants(ops):
    """Arbitrary begin/end sequences with monotonic timestamps: spans on a
    track are always properly nested (contained or disjoint, never partially
    overlapping), sequence numbers follow record order, and the export is
    sorted by timestamp."""
    tracer = Tracer()
    now = 0
    depth = {"a": 0, "b": 0}
    for op, tid, advance in ops:
        now += advance
        if op == "begin":
            tracer.begin(f"s{now}", tid, now)
            depth[tid] += 1
        elif depth[tid] > 0:
            tracer.end(tid, now)
            depth[tid] -= 1
        else:
            with pytest.raises(ValueError):
                tracer.end(tid, now)
    for tid in ("a", "b"):
        while depth[tid]:
            now += 1
            tracer.end(tid, now)
            depth[tid] -= 1
        assert tracer.open_depth(tid) == 0
    spans = tracer.spans
    assert [span.seq for span in spans] == sorted(span.seq for span in spans)
    for tid in ("a", "b"):
        track = [span for span in spans if span.tid == tid]
        for index, first in enumerate(track):
            for second in track[index + 1:]:
                a0, a1 = first.start_ps, first.start_ps + first.dur_ps
                b0, b1 = second.start_ps, second.start_ps + second.dur_ps
                assert (a1 <= b0 or b1 <= a0
                        or (a0 <= b0 and b1 <= a1)
                        or (b0 <= a0 and a1 <= b1)), "partial overlap"
    body = [event for event in json.loads(tracer.to_json())["traceEvents"]
            if event["ph"] != "M"]
    keys = [(event["ts"], event["pid"], event["tid"]) for event in body]
    assert keys == sorted(keys)


def test_track_ids_assigned_by_sorted_label_not_insertion_order():
    tracer = Tracer()
    tracer.instant("x", "zeta", 0)
    tracer.instant("y", "alpha", 1)
    names = {event["tid"]: event["args"]["name"]
             for event in json.loads(tracer.to_json())["traceEvents"]
             if event["ph"] == "M" and event["name"] == "thread_name"}
    assert names == {1: "alpha", 2: "zeta"}


# --------------------------------------------------------------------------- #
# Deterministic export + golden
# --------------------------------------------------------------------------- #
def test_tiny_serve_trace_matches_golden():
    """Byte-level pin of the whole pipeline: hook placement, timestamps,
    track-id assignment and serialization.  If this moved and the change
    was intentional, regenerate (see the TINY comment above)."""
    with open(os.path.join(DATA_DIR, "obs_trace_golden.json")) as handle:
        golden = handle.read()
    assert tiny_traced_run().to_json() == golden


def test_trace_json_is_byte_identical_across_runs():
    assert tiny_traced_run().to_json() == tiny_traced_run().to_json()


def test_trace_json_is_perfetto_shaped():
    trace = json.loads(tiny_traced_run().to_json())
    assert trace["otherData"] == {"clock": "sim-ps"}
    events = trace["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "X", "i"}
    for event in events:
        assert isinstance(event["ts" if event["ph"] != "M" else "tid"], int)
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"


def test_trace_bytes_are_pythonhashseed_independent():
    """No hash()-ordered structure may leak into the export: three
    interpreters with different string-hash randomization must emit the
    same bytes."""
    script = (
        "import sys\n"
        "from repro.api.runner import trace_experiment\n"
        "tracer = trace_experiment('serve_policy',\n"
        "                          overrides={'duration_us': 200.0})\n"
        "sys.stdout.write(tracer.to_json())\n"
    )
    outputs = []
    for hashseed in ("0", "1", "31337"):
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"),
                   PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              cwd=REPO_ROOT, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


# --------------------------------------------------------------------------- #
# Byte-identity oracle: to_json() is json.dumps of the reference event dicts
# --------------------------------------------------------------------------- #
def reference_chrome_trace(tracer: Tracer) -> dict:
    """The Chrome trace-event dict ``to_json`` must serialize to: metadata
    first (process names by sorted pid, thread names by sorted track),
    then every span and instant sorted by ``(ts, pid, tid_id, seq)``."""
    labels = sorted({(s.pid, s.tid) for s in tracer.spans}
                    | {(i.pid, i.tid) for i in tracer.instants})
    ids, next_id = {}, {}
    for pid, tid in labels:
        next_id[pid] = next_id.get(pid, 0) + 1
        ids[(pid, tid)] = next_id[pid]
    events = []
    for pid in sorted({pid for pid, _ in ids}):
        label = pid if isinstance(pid, str) else f"node{pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for (pid, tid), tid_id in sorted(ids.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid_id, "args": {"name": tid}})
    body = []
    for span in tracer.spans:
        tid_id = ids[(span.pid, span.tid)]
        event = {"ph": "X", "name": span.name, "cat": span.cat or "span",
                 "pid": span.pid, "tid": tid_id,
                 "ts": span.start_ps, "dur": span.dur_ps}
        if span.args:
            event["args"] = span.args
        body.append((span.start_ps, span.pid, tid_id, span.seq, event))
    for inst in tracer.instants:
        tid_id = ids[(inst.pid, inst.tid)]
        event = {"ph": "i", "s": "t", "name": inst.name,
                 "cat": inst.cat or "instant",
                 "pid": inst.pid, "tid": tid_id, "ts": inst.ts_ps}
        if inst.args:
            event["args"] = inst.args
        body.append((inst.ts_ps, inst.pid, tid_id, inst.seq, event))
    body.sort(key=lambda item: item[:4])
    events.extend(event for *_, event in body)
    return {"displayTimeUnit": "ns", "otherData": {"clock": "sim-ps"},
            "traceEvents": events}


def reference_json(tracer: Tracer) -> str:
    return json.dumps(reference_chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":")) + "\n"


#: Names, tracks and string values: non-ASCII, quotes, backslashes,
#: control characters and the empty string.
_TEXT = st.one_of(st.sampled_from(["", "queue", "fabric0/sort64", 'q"uote',
                                   "back\\slash", "tab\tnl\n", "é", "日本",
                                   " ", "emoji\U0001F600"]),
                  st.text(max_size=6))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    st.floats(), _TEXT)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=6)
#: Fast-path dicts (str keys, exact str/int values) and every fallback
#: shape: floats, bools, None, lists, nested dicts and non-str keys (one
#: key type per dict — json.dumps cannot sort mixed key types).
_STR_KEYED_ARGS = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(_TEXT, st.one_of(_TEXT, st.integers(-10**6, 10**6)),
                    max_size=4),
    st.dictionaries(_TEXT, _VALUE, max_size=4),
)
_ARGS = st.one_of(
    _STR_KEYED_ARGS,
    st.dictionaries(st.integers(-20, 20), _VALUE, min_size=1, max_size=3),
    st.dictionaries(st.floats(allow_nan=False), _SCALAR, min_size=1,
                    max_size=3),
    st.dictionaries(st.booleans(), _SCALAR, min_size=1, max_size=2),
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["complete", "instant", "begin_end"]),
              _TEXT,                                  # name
              st.sampled_from(["", "serve", "reconfig", "chaos", 'c"\\é']),
              st.integers(0, 3),                      # track index
              st.integers(0, 2),                      # pid index
              # ts: ties are common; floats take the generic encoder
              st.one_of(st.integers(0, 4), st.sampled_from([1.5, 2.0])),
              st.integers(0, 2),                      # duration, 0 included
              _ARGS, _STR_KEYED_ARGS),
    max_size=30)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS,
       pids=st.sampled_from([(0, 1, 7), ("node0", "fleet.ctrl", 'n"\\ö')]),
       tracks=st.lists(_TEXT, min_size=4, max_size=4))
def test_to_json_is_byte_identical_to_json_dumps_of_the_reference(
        ops, pids, tracks):
    tracer = Tracer(default_pid=pids[0])
    for op, name, cat, track, pid, ts, dur, args, more in ops:
        tid, pid = tracks[track], pids[pid]
        if op == "complete":
            tracer.complete(name, tid, ts, dur, cat=cat, pid=pid, args=args)
        elif op == "instant":
            tracer.instant(name, tid, ts, cat=cat, pid=pid, args=args)
        else:
            # begin/end merges the end's args over the begin's (str keys
            # on both sides: a merged dict must stay sortable).
            if args and not all(isinstance(key, str) for key in args):
                args = None
            tracer.begin(name, tid, ts, cat=cat, pid=pid, args=args)
            tracer.end(tid, ts + dur, pid=pid, args=more)
    assert tracer.to_json() == reference_json(tracer)


def test_to_json_of_an_empty_tracer_matches_the_reference():
    tracer = Tracer()
    assert tracer.to_json() == reference_json(tracer)
    assert json.loads(tracer.to_json())["traceEvents"] == []


#: One shrunk cell per traceable experiment (short serve windows, small
#: fleets); traceable means the cell takes a ``tracer`` parameter.
SHRUNK = {
    "serve_policy": {"duration_us": 200.0},
    "serve_energy": {"duration_us": 200.0},
    "reconfig": {"regions": 4, "duration_us": 200.0},
    "chaos": {"nodes": 2, "epochs": 2, "epoch_us": 200.0, "fault_rate": 3.0,
              "recovery": True},
    "fleet_scaling": {"nodes": 2, "epoch_us": 100.0},
    "latency_decomposition": {"duration_us": 300.0, "fault_rate": 2.0},
}
TRACEABLE = [spec.name for spec in list_experiments()
             if "tracer" in inspect.signature(spec.cell).parameters]


def test_to_json_matches_the_reference_on_every_trace_driver():
    tracers = [tiny_traced_run(),
               trace_experiment("latency_decomposition",
                                overrides={"duration_us": 300.0,
                                           "fault_rate": 4.0}),
               trace_experiment("chaos", overrides=SHRUNK["chaos"]),
               trace_experiment("reconfig", overrides={"regions": 4,
                                                       "duration_us": 200.0})]
    for tracer in tracers:
        assert tracer.to_json() == reference_json(tracer)


def test_trace_experiment_rejects_unknown_names():
    with pytest.raises(KeyError, match="cannot be traced"):
        trace_experiment("fig9")


def test_trace_experiment_covers_every_layer():
    """Each traceable cell records events from its subsystem's hooks."""
    faulty = trace_experiment("latency_decomposition",
                              overrides={"duration_us": 400.0,
                                         "fault_rate": 4.0})
    assert any(inst.name.startswith("fault_") for inst in faulty.instants)
    fleet = trace_experiment("chaos", overrides={"nodes": 2, "epochs": 2,
                                                 "epoch_us": 200.0})
    assert {span.name for span in fleet.spans} == {"epoch0", "epoch1"}
    regional = trace_experiment("reconfig", overrides={"regions": 4,
                                                       "duration_us": 200.0})
    assert any("/" in span.tid for span in regional.spans)


def test_the_traceable_experiments_are_the_serving_and_fleet_cells():
    assert sorted(TRACEABLE) == sorted(SHRUNK)


@pytest.mark.parametrize("name", TRACEABLE)
def test_a_tracer_never_moves_a_registered_cells_rows(name):
    """Tracer on ≡ off, cell by cell: ``repro trace`` records exactly the
    run ``repro run`` measures at the same point."""
    spec = get_experiment(name)
    params = spec.cells(SHRUNK[name])[0]
    tracer = Tracer()
    assert spec.cell(tracer=tracer, **params) == spec.cell(**params)
    assert tracer.event_count > 0


@pytest.mark.parametrize("argv, message", [
    (["trace", "serve_policy", "-p", "duraton_us=1"],
     "has no parameters ['duraton_us']; valid parameters: ['policy', "),
    (["trace", "fig9"], "cannot be traced; traceable experiments: chaos"),
    (["trace", "serve_policy", "-p", "policy=fcfs,affinity"],
     "a trace is one run"),
], ids=["typo", "untraceable", "swept"])
def test_trace_cli_exits_2_with_one_line(argv, message, capsys):
    """The same exit-2 path ``repro run`` takes: no traceback."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


# --------------------------------------------------------------------------- #
# Hooks are free when off and invisible when on
# --------------------------------------------------------------------------- #
def test_tracing_never_perturbs_results():
    """The entire hook layer is behind ``if tracer is not None`` *reads* —
    attaching a tracer must not move a single byte of the result rows, in
    whole-fabric, region and chaos modes."""
    from repro.chaos.inject import ChaosConfig
    from repro.obs.experiments import noise_schedule

    for kwargs in (
        dict(duration_us=300.0),
        dict(duration_us=300.0, regions=4),
        dict(duration_us=300.0,
             chaos=ChaosConfig(noise_schedule(4.0))),
    ):
        plain = run_serve("affinity", **kwargs)
        traced = run_serve("affinity", tracer=Tracer(), **kwargs)
        assert plain["rows"] == traced["rows"], kwargs


@pytest.mark.parametrize("regions", [1, 4])
@pytest.mark.parametrize("noisy", [False, True])
def test_every_transfer_is_one_program_span_and_one_reconfiguration(
        regions, noisy):
    """Each traced ``xfer`` span on ``fabricN.ctrl`` pairs with one
    ``program`` span on that fabric's track, with the same start and
    duration, and there are as many as the scheduler counted
    reconfigurations: a transfer the integrity check trips records
    neither."""
    from collections import Counter

    from repro.chaos.inject import ChaosConfig
    from repro.obs.experiments import noise_schedule

    tracer = Tracer()
    outcome = run_serve(
        "affinity", tenant_mix="quad", arrival_rate_krps=300.0,
        regions=regions, tracer=tracer,
        chaos=ChaosConfig(noise_schedule(4.0)) if noisy else None)
    transfers = Counter(
        (span.tid[:-len(".ctrl")], span.start_ps, span.dur_ps)
        for span in tracer.spans if span.name == "xfer")
    programs = Counter(
        (span.tid.split("/")[0], span.start_ps, span.dur_ps)
        for span in tracer.spans if span.name == "program")
    assert all(span.tid.endswith(".ctrl")
               for span in tracer.spans if span.name == "xfer")
    assert transfers == programs
    reconfigurations = outcome["scheduler"].fabric_totals()["reconfigurations"]
    assert sum(transfers.values()) == reconfigurations > 0


@settings(max_examples=20, deadline=None)
@given(mix=st.sampled_from(["duo", "quad"]), regions=st.sampled_from([1, 2, 4]),
       policy=st.sampled_from(POLICY_KINDS),
       rate=st.sampled_from([50.0, 150.0, 300.0, 450.0]),
       duration=st.sampled_from([50.0, 150.0, 300.0]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_tracer_and_telemetry_on_never_change_rows_or_metrics(
        mix, regions, policy, rate, duration, seed):
    """The law "tracer/monitor on ≡ off" over random small deployments;
    the trace they record exports as ``json.dumps`` would write it and
    decomposes into stage shares that sum to 1."""
    kwargs = dict(tenant_mix=mix, regions=regions, arrival_rate_krps=rate,
                  duration_us=duration, seed=seed)
    plain = run_serve(policy, **kwargs)
    tracer = Tracer()
    observed = run_serve(policy, tracer=tracer, telemetry_window_us=50.0,
                         **kwargs)
    assert observed["rows"] == plain["rows"]
    assert observed["metrics"].as_dict() == plain["metrics"].as_dict()
    assert tracer.to_json() == reference_json(tracer)
    for row in decompose_rows(tracer):
        shares = sum(row[f"{stage}_share"] for stage in STAGES)
        assert abs(shares - 1.0) <= 1e-9, row


def test_request_records_share_read_only_args_and_export_in_little_memory():
    """A request's records pass one args object (``program`` spans add the
    design, so they carry their own), the export and the decomposition
    never write it, and ``to_json`` allocates at most 2.5× the document:
    no copy of the event texts outlives the document's assembly."""
    tracer = Tracer()
    run_serve("affinity", tenant_mix="quad", arrival_rate_krps=300.0,
              duration_us=20_000.0, regions=4, tracer=tracer)
    records = tracer.spans + tracer.instants
    shared = {}
    programs = []
    for record in records:
        args = record.args
        if not args or "id" not in args:
            continue
        if record.name == "program":
            programs.append(args)
        else:
            assert shared.setdefault((args["t"], args["id"]), args) is args
    assert len(shared) > 5_000
    assert all(set(args) == {"t", "id"} for args in shared.values())
    for args in programs:
        assert args["design"] and args["regions"]
        assert shared[(args["t"], args["id"])].items() <= args.items()
    before = copy.deepcopy([record.args for record in records])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        document = tracer.to_json()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(document), peak / len(document)
    decompose_rows(tracer)
    assert [record.args for record in records] == before


def test_fleet_tracer_records_epochs_without_perturbing_rows():
    config = FleetConfig(nodes=2, epochs=2, epoch_us=200.0)
    plain = run_fleet(config, FLEET_TENANTS, total_rate_rps=200_000.0)
    tracer = Tracer()
    traced = run_fleet(config, FLEET_TENANTS, total_rate_rps=200_000.0,
                       tracer=tracer)
    assert plain.rows == traced.rows
    assert {span.pid for span in tracer.spans} == {"node0", "node1"}
    assert traced.metrics is not None


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
def test_snapshot_merge_semantics_and_round_trip():
    left = MetricsSnapshot(counters={"a": 1, "b": 2}, gauges={"g": 1.0},
                           histograms={"h": [1.0]}, series={"s": [(0.0, 1.0)]})
    right = MetricsSnapshot(counters={"b": 3, "c": 4}, gauges={"g": 0.5,
                                                              "k": 2.0},
                            histograms={"h": [2.0], "j": [9.0]},
                            series={"s": [(1.0, 0.0)]})
    merged = MetricsSnapshot.merged((left, right))
    assert merged.counters == {"a": 1, "b": 5, "c": 4}
    assert merged.gauges == {"g": 1.0, "k": 2.0}  # max, not last-write
    assert merged.histograms == {"h": [1.0, 2.0], "j": [9.0]}
    assert merged.series == {"s": [(0.0, 1.0), (1.0, 0.0)]}
    assert MetricsSnapshot.from_dict(merged.as_dict()) == merged
    # And the dict form survives an actual JSON round trip (node reports).
    rehydrated = MetricsSnapshot.from_dict(
        json.loads(json.dumps(merged.as_dict())))
    assert rehydrated == merged


def test_serve_outcome_carries_a_unified_snapshot():
    outcome = run_serve("affinity", duration_us=300.0)
    snapshot = outcome["metrics"]
    aggregate = next(row for row in outcome["rows"]
                     if row["tenant"] == "__all__")
    assert sum(map(len, snapshot.histograms.values())) == aggregate["completed"]
    assert snapshot.counters["faults_injected"] == 0
    assert "queue_depth" in snapshot.series


def test_fleet_metrics_merge_is_serial_process_bit_identical():
    """The fleet's metrics are the node reports' snapshots folded one by
    one in ``(epoch, node_id)`` order: counters add and every latency
    sample survives the merge."""
    outcome = run_fleet(FleetConfig(nodes=2, epochs=2, epoch_us=200.0),
                        tenants=FLEET_TENANTS, total_rate_rps=200_000.0,
                        seed=7)
    folded = MetricsSnapshot()
    for report in sorted(outcome.reports,
                         key=lambda r: (r["epoch"], r["node_id"])):
        folded.merge(MetricsSnapshot.from_dict(report["metrics"]))
    assert outcome.metrics == folded
    aggregate = next(row for row in outcome.rows if row["tenant"] == "__all__")
    assert sum(map(len, folded.histograms.values())) == aggregate["completed"] > 0


# --------------------------------------------------------------------------- #
# Deep-tail SLO columns (p99.9 / max)
# --------------------------------------------------------------------------- #
def test_slo_rows_carry_the_deep_tail():
    rows = run_serve("affinity", duration_us=300.0)["rows"]
    for row in rows:
        assert row["p99_latency_us"] <= row["p999_latency_us"]
        assert row["p999_latency_us"] <= row["max_latency_us"]
    aggregate = next(row for row in rows if row["tenant"] == "__all__")
    assert aggregate["max_latency_us"] == max(
        row["max_latency_us"] for row in rows)


# --------------------------------------------------------------------------- #
# cdf_points
# --------------------------------------------------------------------------- #
def test_cdf_points_handles_empty_ragged_and_duplicates():
    assert cdf_points([]) == []
    assert cdf_points(["x", None, True]) == []
    points = cdf_points([3.0, 1.0, "bad", 1.0, None, 2.0])
    assert points == [(1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]
    values = [point[0] for point in points]
    assert values == sorted(set(values))
    assert points[-1][1] == 1.0


def test_fraction_at_reads_the_step_function():
    points = cdf_points([1.0, 1.0, 2.0, 4.0])
    assert fraction_at(points, 0.5) == 0.0
    assert fraction_at(points, 1.0) == 0.5
    assert fraction_at(points, 3.0) == 0.75
    assert fraction_at(points, 100.0) == 1.0
    assert fraction_at([], 1.0) == 0.0


def test_resultset_cdf_matches_percentile_filtering():
    results = ResultSet("t", [{"v": 2.0}, {"v": 1.0}, {"w": 9.0},
                              {"v": "bad"}, {"v": True}, {"v": 2.0}])
    assert cdf_points([row.get("v") for row in results.rows]) == [(1.0, 1 / 3), (2.0, 1.0)]
    assert results.percentile("v", 1 / 3) == 1.0
    assert results.percentile("v", 1.0) == 2.0
    assert cdf_points([row.get("missing") for row in results.rows]) == []
    assert results.percentile("missing", 0.5) is None


# --------------------------------------------------------------------------- #
# latency_decomposition acceptance pins
# --------------------------------------------------------------------------- #
def test_decomposition_shares_sum_to_one_and_match_the_scheduler():
    """The pinned duo/affinity point: stage shares sum to 1.0 ± 1e-9 for
    every row, and the trace-derived reconfig-transfer share agrees with
    the scheduler's own ``reconfig_overhead`` accounting — two independent
    code paths, one number."""
    rows = latency_decomposition_cell("affinity")
    assert [row["tenant"] for row in rows] == [ALL_TENANTS, "alpha", "beta"]
    for row in rows:
        share_sum = sum(row[f"{stage}_share"] for stage in STAGES)
        assert abs(share_sum - 1.0) <= 1e-9
    aggregate = rows[0]
    assert aggregate["requests"] > 0
    trace_share = (aggregate["program_us"]
                   / (aggregate["program_us"] + aggregate["service_us"]))
    assert trace_share == pytest.approx(aggregate["reconfig_overhead"],
                                        rel=1e-6)


def test_decomposition_program_share_consistent_with_the_region_pin():
    """PR 8 pinned regions=4 affinity at ≤ 0.5× whole-fabric reconfig
    overhead; the trace-derived decomposition must tell the same story."""
    def transfer_share(rows):
        aggregate = rows[0]
        return (aggregate["program_us"]
                / (aggregate["program_us"] + aggregate["service_us"]))

    whole = latency_decomposition_cell("affinity", regions=1)
    regional = latency_decomposition_cell("affinity", regions=4)
    assert transfer_share(whole) > 0
    assert transfer_share(regional) <= 0.5 * transfer_share(whole)


def test_decomposition_under_faults_still_sums_to_one():
    rows = latency_decomposition_cell("affinity", fault_rate=4.0,
                                      duration_us=800.0)
    for row in rows:
        share_sum = sum(row[f"{stage}_share"] for stage in STAGES)
        assert abs(share_sum - 1.0) <= 1e-9


def test_decomposition_summary_reports_every_point():
    rows = latency_decomposition_cell("fcfs", duration_us=400.0)
    summary = latency_decomposition_summary(rows)
    assert summary["queue_share[fcfs/r1@rate0]"] > 0
    assert 0.0 <= summary["share_under_2x_p50[fcfs/r1@rate0]"] <= 1.0


def test_request_stages_excludes_incomplete_requests():
    tracer = tiny_traced_run()
    stages = request_stages(tracer)
    completed = {(inst.args["t"], inst.args["id"])
                 for inst in tracer.instants if inst.name == "complete"}
    assert set(stages) == completed
    for entry in stages.values():
        assert entry["latency_ps"] >= 0
        assert entry["blackout_ps"] >= 0


def test_latency_decomposition_registered_serial_matches_process():
    spec = get_experiment("latency_decomposition")
    assert spec.num_cells() == 8
    overrides = dict(policy=("affinity",), regions=(1,), fault_rate=(0.0,),
                     duration_us=600.0)
    serial = Runner().run("latency_decomposition", **overrides)
    parallel = Runner(executor="process", workers=2).run(
        "latency_decomposition", **overrides)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary
