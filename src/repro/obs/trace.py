"""Request-lifecycle tracing on the simulated timeline.

A :class:`Tracer` records *spans* (an interval with a start and a
duration) and *instants* (a point event) stamped with the kernel's
integer-picosecond clock (``Simulator.now_ps``).  It is built to sit on
the serving hot path behind ``if tracer is not None`` checks, so the
recording side is deliberately spartan: slotted, no per-event object
graphs, just tuples appended to flat lists.

Two recording styles exist:

* :meth:`Tracer.complete` — the hot path.  The caller already knows both
  endpoints (it bracketed a ``yield from``), so one call records the
  whole span.
* :meth:`Tracer.begin` / :meth:`Tracer.end` — a per-track LIFO stack for
  callers that cannot carry the start timestamp across the code that
  runs in between.  ``end`` closes the innermost open span on that
  track, which is what makes nesting a structural guarantee rather than
  a convention (see ``tests/test_obs.py``).

Export is :meth:`Tracer.to_json`: the Chrome trace-event format
(``ph: "X"`` complete events, ``ph: "i"`` instants, ``ph: "M"``
process/thread-name metadata), loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Timestamps are
emitted as the raw integer simulated picoseconds — viewers label the axis
"us", so read 1 displayed microsecond as 1 simulated picosecond (the
trace carries ``otherData.clock: "sim-ps"`` as a reminder).  The JSON is
fully deterministic: integer timestamps, a global sequence number
breaking sort ties, track ids assigned by sorted label (never
``hash()``/``id()``), and the bytes ``json.dumps(sort_keys=True)`` would
write, assembled directly as text — two runs at the same seed produce
byte-identical files.

Memory: a record holds its ``args`` object as given, never a copy, so
**args are read-only once recorded** — neither the export nor
:mod:`repro.obs.decompose` writes them, and no caller may.  That is what
lets :class:`RequestTrace` pass one ``{"t", "id"}`` dict for all of a
request's records.  On the quad-mix, 4-region serving workload a traced
request holds ~0.9 KB of records (~1.6 KB when every record had its
own args dict and region track string), and :meth:`Tracer.to_json`
peaks at ~2.2× the document it returns (3.3× when it held every event
text and its sort tuple beside the document).

Track convention across the repo's hooks (see ``docs/observability.md``):
``pid`` is the fleet node (0 for single-node serve runs), ``tid`` is the
fabric (``fabric0``), the design track in region mode
(``fabric0/<design>``), the control hub (``fabric0.ctrl``), the
admission queue (``queue``) or the chaos injector (``chaos``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Tuple


#: The generic encoder behind every fragment the fast paths do not cover;
#: the same settings ``json.dumps(sort_keys=True, separators=(",", ":"))``
#: uses, so its output is what that call would write.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
_string = json.encoder.encode_basestring_ascii
#: Event texts joined per chunk by :meth:`Tracer.to_json`.
_CHUNK = 4096


class Span(NamedTuple):
    """One closed interval on a track (all times in integer sim-ps)."""

    pid: int
    tid: str
    name: str
    cat: str
    start_ps: int
    dur_ps: int
    args: Optional[Dict[str, Any]]
    seq: int


class Instant(NamedTuple):
    """One point event on a track."""

    pid: int
    tid: str
    name: str
    cat: str
    ts_ps: int
    args: Optional[Dict[str, Any]]
    seq: int


class Tracer:
    """Allocation-light span/instant recorder on the integer-ps timeline."""

    __slots__ = ("default_pid", "_spans", "_instants", "_stacks", "_seq")

    def __init__(self, default_pid: int = 0) -> None:
        self.default_pid = default_pid
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        #: (pid, tid) -> stack of open (name, cat, start_ps, args).
        self._stacks: Dict[Tuple[int, str], List[Tuple[str, str, int, Optional[dict]]]] = {}
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def complete(self, name: str, tid: str, start_ps: int, dur_ps: int,
                 cat: str = "", pid: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a whole span at once (the hot-path entry point)."""
        if dur_ps < 0:
            raise ValueError(f"span {name!r} has negative duration {dur_ps}")
        self._spans.append(Span(self.default_pid if pid is None else pid,
                                tid, name, cat, start_ps, dur_ps, args, self._seq))
        self._seq += 1

    def begin(self, name: str, tid: str, ts_ps: int, cat: str = "",
              pid: Optional[int] = None,
              args: Optional[Dict[str, Any]] = None) -> None:
        """Open a span on ``(pid, tid)``; close it with :meth:`end`."""
        key = (self.default_pid if pid is None else pid, tid)
        self._stacks.setdefault(key, []).append((name, cat, ts_ps, args))

    def end(self, tid: str, ts_ps: int, pid: Optional[int] = None,
            args: Optional[Dict[str, Any]] = None) -> Span:
        """Close the innermost open span on ``(pid, tid)`` (LIFO)."""
        key = (self.default_pid if pid is None else pid, tid)
        stack = self._stacks.get(key)
        if not stack:
            raise ValueError(f"end() on track {key} with no open span")
        name, cat, start_ps, begin_args = stack.pop()
        if ts_ps < start_ps:
            stack.append((name, cat, start_ps, begin_args))
            raise ValueError(
                f"span {name!r} on track {key} ends at {ts_ps} before its "
                f"start {start_ps}")
        merged = begin_args
        if args:
            merged = dict(begin_args) if begin_args else {}
            merged.update(args)
        span = Span(key[0], tid, name, cat, start_ps, ts_ps - start_ps,
                    merged, self._seq)
        self._seq += 1
        self._spans.append(span)
        return span

    def instant(self, name: str, tid: str, ts_ps: int, cat: str = "",
                pid: Optional[int] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        self._instants.append(Instant(self.default_pid if pid is None else pid,
                                      tid, name, cat, ts_ps, args, self._seq))
        self._seq += 1

    # ------------------------------------------------------------------ #
    # Introspection (tests, decompose)
    # ------------------------------------------------------------------ #
    def open_depth(self, tid: str, pid: Optional[int] = None) -> int:
        key = (self.default_pid if pid is None else pid, tid)
        return len(self._stacks.get(key, ()))

    @property
    def spans(self) -> Tuple[Span, ...]:
        return tuple(self._spans)

    @property
    def instants(self) -> Tuple[Instant, ...]:
        return tuple(self._instants)

    @property
    def event_count(self) -> int:
        return len(self._spans) + len(self._instants)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def _track_ids(self) -> Dict[Tuple[int, str], int]:
        """Integer thread ids per pid, assigned by sorted label.

        Chrome trace tids must be integers; sorting the labels makes the
        assignment a pure function of the recorded set — no ``hash()``,
        no insertion-order dependence.
        """
        labels = sorted({(s.pid, s.tid) for s in self._spans}
                        | {(i.pid, i.tid) for i in self._instants})
        ids: Dict[Tuple[int, str], int] = {}
        next_id: Dict[int, int] = {}
        for pid, tid in labels:
            next_id[pid] = next_id.get(pid, 0) + 1
            ids[(pid, tid)] = next_id[pid]
        return ids

    def to_json(self) -> str:
        """Deterministic serialization: byte-identical for identical runs.

        The Chrome trace-event document exactly as ``json.dumps(...,
        sort_keys=True, separators=(",", ":"))`` would write it, assembled
        as text: metadata events first (process names by sorted pid,
        thread names by sorted track), then every span and instant in
        ``(ts, pid, tid_id, seq)`` order.  The records are sorted first,
        on light ``(ts, track rank, seq)`` keys that are gone before any
        text exists; the event texts are then written in that order and
        joined per :data:`_CHUNK`, so at most one chunk of them lives
        beside the document.  Each event's fixed fields are encoded once
        per ``(pid, tid, name, cat)``, and its ``args`` once per run of
        events that share the object.  ``tests/test_obs.py`` checks the
        bytes against ``json.dumps`` of the event dicts.
        """
        ids = self._track_ids()
        chunk: List[str] = []
        for pid in sorted({pid for pid, _ in ids}):
            # Fleet pids are already labels ("node0", "fleet.ctrl").
            label = pid if isinstance(pid, str) else f"node{pid}"
            chunk.append(f',{{"args":{{"name":{_encode(label)}}},'
                         f'"name":"process_name","ph":"M",'
                         f'"pid":{_encode(pid)},"tid":0}}')
        tracks: Dict[Tuple[int, str], Tuple[int, str]] = {}
        for (pid, tid), tid_id in sorted(ids.items()):
            pid_json = _encode(pid)
            chunk.append(f',{{"args":{{"name":{_encode(tid)}}},'
                         f'"name":"thread_name","ph":"M",'
                         f'"pid":{pid_json},"tid":{tid_id}}}')
            tracks[(pid, tid)] = (tid_id, pid_json)
        if chunk:
            # No comma before the first event: a recorded event always
            # brings a metadata event before it.
            chunk[0] = chunk[0][1:]
        # Track ids follow sorted labels, so a track's rank in that order
        # sorts as (pid, tid_id) does; seq is unique, so no key ties.
        rank = {track: index for index, track in enumerate(sorted(ids))}
        records: List[Any] = self._spans + self._instants
        records.sort(key=lambda record: (record[4], rank[record[0], record[1]],
                                         record[-1]))
        layouts: Dict[Tuple[Any, ...], Optional[Tuple[Tuple[str, str], ...]]] = {}
        heads: Dict[Tuple[int, str, str, str], Tuple[str, str]] = {}
        marks: Dict[Tuple[int, str, str, str], str] = {}
        parts = ['{"displayTimeUnit":"ns","otherData":{"clock":"sim-ps"},'
                 '"traceEvents":[']
        write = chunk.append
        # A request's records share one args object and mostly sort next
        # to each other: the previous event's encoding is reused for it.
        last_args: Any = None
        field = ""
        # Exact-int timestamps print as themselves, as json.dumps would.
        for record in records:
            args = record.args
            if args is not last_args:
                last_args = args
                field = _args_field(args, layouts) if args else ""
            if record.__class__ is Span:
                pid, tid, name, cat, start_ps, dur_ps, _, _ = record
                head = heads.get((pid, tid, name, cat))
                if head is None:
                    tid_id, pid_json = tracks[(pid, tid)]
                    head = heads[(pid, tid, name, cat)] = (
                        f'"cat":{_encode(cat or "span")},"dur":',
                        f',"name":{_encode(name)},"ph":"X","pid":{pid_json},'
                        f'"tid":{tid_id},"ts":')
                write(f',{{{field}{head[0]}'
                      f'{dur_ps if dur_ps.__class__ is int else _encode(dur_ps)}'
                      f'{head[1]}'
                      f'{start_ps if start_ps.__class__ is int else _encode(start_ps)}}}')
            else:
                pid, tid, name, cat, ts_ps, _, _ = record
                head = marks.get((pid, tid, name, cat))
                if head is None:
                    tid_id, pid_json = tracks[(pid, tid)]
                    head = marks[(pid, tid, name, cat)] = (
                        f'"cat":{_encode(cat or "instant")},'
                        f'"name":{_encode(name)},"ph":"i","pid":{pid_json},'
                        f'"s":"t","tid":{tid_id},"ts":')
                write(f',{{{field}{head}'
                      f'{ts_ps if ts_ps.__class__ is int else _encode(ts_ps)}}}')
            if len(chunk) == _CHUNK:
                # Event texts live only until their chunk is joined.
                parts.append("".join(chunk))
                chunk.clear()
        del records
        parts.append("".join(chunk))
        parts.append(']}\n')
        return "".join(parts)


def _args_layout(keys: Tuple[Any, ...]) -> Optional[Tuple[Tuple[str, str], ...]]:
    """``(('"args":{"a":', "a"), (',"b":', "b"), ...)`` in sorted key
    order, or ``None`` when a key is not exactly ``str``."""
    if any(key.__class__ is not str for key in keys):
        return None
    return tuple(((',' if index else '"args":{') + _string(key) + ":", key)
                 for index, key in enumerate(sorted(keys)))


def _args_field(args: Dict[Any, Any],
                layouts: Dict[Tuple[Any, ...], Any]) -> str:
    """``"args":{...},`` with keys sorted; ``str`` keys holding exactly
    ``str`` or ``int`` values (not ``bool``) skip the generic encoder.
    ``layouts`` memoises :func:`_args_layout` per key tuple: a trace
    reuses a handful of key sets."""
    keys = tuple(args)
    layout = layouts.get(keys, ())
    if layout == ():
        layout = layouts[keys] = _args_layout(keys)
    if layout is not None:
        parts = []
        for prefix, key in layout:
            value = args[key]
            if value.__class__ is str:
                parts.append(prefix + _string(value))
            elif value.__class__ is int:
                parts.append(prefix + int.__repr__(value))
            else:
                break
        else:
            parts.append("},")
            return "".join(parts)
    return f'"args":{_encode(args)},'


class LifecycleSubscriber:
    """One subscriber to a serving deployment's request-lifecycle events.

    :class:`~repro.serve.scheduler.FabricScheduler` emits each event once
    to its ``hooks``, in order: telemetry, SLO monitor, request trace.
    Every event is a no-op here; a subscriber overrides what it observes
    and must never yield, create sim events or write scheduler state.
    """

    def on_submit(self, request, queue_depth: int) -> None:
        """``request`` was admitted; ``queue_depth`` now includes it."""

    def on_shed(self, request) -> None:
        """Admission shed ``request`` (queue full or closed)."""

    def on_dequeue(self, request, queue_depth: int, fabric) -> None:
        """A worker of ``fabric`` took ``request`` off the queue."""

    def on_complete(self, request, fabric=None) -> None:
        """``request`` finished its service on ``fabric``."""

    def on_lost(self, request) -> None:
        """The fabric serving ``request`` died under it."""

    def on_replay(self, request, queue_depth: int) -> None:
        """A request a fault lost is queued again."""

    def on_fault_shed(self, request) -> None:
        """An admitted ``request`` was shed because of a fault."""

    def on_fault(self, time_ns: float) -> None:
        """A fault was injected at ``time_ns``."""

    def on_scrub(self, fabric, design: str, start_ps: int) -> None:
        """``fabric`` scrubbed ``design``'s corrupt image since ``start_ps``."""

    def on_heal(self, fabric, reason: str) -> None:
        """``fabric``, dead since ``fabric.fail_time_ps``, came back."""


class RequestTrace(LifecycleSubscriber):
    """Records a serving deployment's request lifecycle into a :class:`Tracer`.

    Subscribed by a :class:`FabricScheduler` built with a tracer, and
    called by its fabrics for the ``program`` and ``service`` spans.  It
    owns the tracing-only state: each request's latest *ready* instant
    (admission or replay), each in-flight request's args and the track
    naming — ``fabric0`` on the whole-fabric path, ``fabric0/<design>``
    in region mode, built once per (fabric, design).

    A request's records share one ``{"t": tenant, "id": request_id}``
    dict, created at its first event and dropped here at its last
    (``complete``, ``shed`` or ``fault_shed``); only ``program`` spans,
    which add the design, carry their own.  The shared dict is read-only:
    the export and :mod:`repro.obs.decompose` only read it.
    """

    def __init__(self, tracer: Tracer, sim) -> None:
        self.tracer = tracer
        self.sim = sim
        #: Ready timestamps (sim-ps) keyed by ``(tenant, request_id)``.
        self._ready: Dict[Tuple[str, int], int] = {}
        #: The shared args of each request in flight, same keys.
        self._live: Dict[Tuple[str, int], Dict[str, Any]] = {}
        #: Region-mode track names keyed by ``(fabric name, design)``.
        self._tracks: Dict[Tuple[str, str], str] = {}

    def track(self, fabric, request) -> str:
        if fabric.allocator is None:
            return fabric.name
        key = (fabric.name, request.accelerator)
        track = self._tracks.get(key)
        if track is None:
            track = self._tracks[key] = f"{fabric.name}/{request.accelerator}"
        return track

    def _args(self, request, last: bool = False) -> Dict[str, Any]:
        """``request``'s shared args; ``last`` forgets them after this."""
        key = (request.tenant, request.request_id)
        args = self._live.pop(key, None) if last else self._live.get(key)
        if args is None:
            args = {"t": request.tenant, "id": request.request_id}
            if not last:
                self._live[key] = args
        return args

    def _instant(self, name: str, tid: str, request, cat: str,
                 ready: bool = False, last: bool = False) -> None:
        now_ps = self.sim.now_ps
        if ready:
            self._ready[(request.tenant, request.request_id)] = now_ps
        self.tracer.instant(name, tid, now_ps, cat=cat,
                            args=self._args(request, last))

    def on_submit(self, request, queue_depth: int) -> None:
        self._instant("arrive", "queue", request, "serve", ready=True)

    def on_shed(self, request) -> None:
        self._instant("shed", "queue", request, "serve", last=True)

    def on_dequeue(self, request, queue_depth: int, fabric) -> None:
        # The queue span starts at the *latest* ready instant, so a
        # replayed request's span covers only its current wait — the
        # earlier, wasted wait is part of the blackout residual.
        now_ps = self.sim.now_ps
        ready_ps = self._ready.pop((request.tenant, request.request_id), now_ps)
        self.tracer.complete(
            "queue", self.track(fabric, request), ready_ps, now_ps - ready_ps,
            cat="serve", args=self._args(request))

    def program(self, fabric, request, start_ps: int,
                regions: Optional[Tuple[int, ...]] = None) -> None:
        """``fabric`` (re)programmed ``request``'s design since ``start_ps``;
        in region mode ``regions`` is the span it transferred."""
        args: Dict[str, Any] = {"t": request.tenant, "id": request.request_id,
                                "design": request.accelerator}
        if regions is not None:
            args["regions"] = list(regions)
        self.tracer.complete(
            "program", self.track(fabric, request), start_ps,
            self.sim.now_ps - start_ps, cat="reconfig", args=args)

    def service(self, fabric, request, start_ps: int) -> None:
        """``fabric`` served ``request`` since ``start_ps``."""
        self.tracer.complete(
            "service", self.track(fabric, request), start_ps,
            self.sim.now_ps - start_ps, cat="serve", args=self._args(request))

    def on_complete(self, request, fabric=None) -> None:
        self._instant("complete", self.track(fabric, request), request, "serve",
                      last=True)

    def on_lost(self, request) -> None:
        self._instant("lost", "queue", request, "chaos")

    def on_replay(self, request, queue_depth: int) -> None:
        self._instant("replay", "queue", request, "chaos", ready=True)

    def on_fault_shed(self, request) -> None:
        self._instant("fault_shed", "queue", request, "chaos", last=True)

    def on_scrub(self, fabric, design: str, start_ps: int) -> None:
        self.tracer.complete(
            "seu_scrub", fabric.name, start_ps, self.sim.now_ps - start_ps,
            cat="chaos", args={"design": design})

    def on_heal(self, fabric, reason: str) -> None:
        # One failover span per outage: from the kill to the heal.
        self.tracer.complete(
            "failover", fabric.name, fabric.fail_time_ps,
            self.sim.now_ps - fabric.fail_time_ps, cat="chaos",
            args={"reason": reason})
