"""In-memory spans for the traced run, written out as Chrome trace events.

Spans are recorded by the benchmark's own code around each call into a
layer of the program (the client, and wrappers installed in the daemon's
host process); the program itself is not modified.  Every timestamp is
``time.perf_counter_ns()``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable between the benchmark and the daemon process.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional

from perfbench import measure


#: the per-request span tree of a daemon request: name -> parent name
SPAN_PARENT = {
    "serve.daemon.service": "client.request",
    "serve.frontend.queue": "serve.daemon.service",
    "serve.pool.run_batch": "serve.daemon.service",
    "runtime.server.online": "serve.pool.run_batch",
    "crypto.compute": "runtime.server.online",
}
#: breakdown metric -> span whose self time it is
BREAKDOWN = {
    "daemon.overhead_ms": "client.request",
    "unattributed_ms": "serve.daemon.service",
    "frontend.queue_wait_ms": "serve.frontend.queue",
    "pool.dispatch_ms": "serve.pool.run_batch",
    "server.wire_wait_ms_per_job": "runtime.server.online",
    "server.cpu_ms_per_job": "crypto.compute",
}


class SpanRecorder:
    """Keeps spans (name, start, end, parent, request id) in memory."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def record(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        **args,
    ) -> int:
        """Store one finished span and return its id."""
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            self.spans.append({
                "id": span_id,
                "name": name,
                "start": int(start),
                "end": int(end),
                "parent": parent,
                "rid": rid,
                "process": self.process,
                "args": args,
            })
        return span_id


def write_chrome_trace(spans: List[dict], path: str) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto as is).

    One track per request id within each process, so every request's spans
    nest on their own row.
    """
    processes: Dict[str, int] = {}
    origin = min((span["start"] for span in spans), default=0)
    events = []
    for span in spans:
        pid = processes.setdefault(span["process"], len(processes) + 1)
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": (span["start"] - origin) / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "pid": pid,
            "tid": span["rid"] if span["rid"] is not None else 0,
            "args": span["args"],
        })
    for name, pid in processes.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "args": {"name": name},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def request_trees(spans: List[dict]) -> List[dict]:
    """Link each request's spans into one tree by name (see SPAN_PARENT).

    Returns copies with fresh ids.  A request split over several jobs keeps
    only the job that finished last, the one that completed it, so its
    self times sum to its latency.  Requests without both a client span and
    a daemon service span (untraced or failed) are dropped.
    """
    by_request: Dict[Optional[int], Dict[str, List[dict]]] = {}
    for span in spans:
        by_request.setdefault(span["rid"], {}).setdefault(span["name"], []).append(span)
    linked: List[dict] = []
    for named in by_request.values():
        if "client.request" not in named or "serve.daemon.service" not in named:
            continue
        jobs = named.get("serve.pool.run_batch", [])
        last = max(jobs, key=lambda s: s["end"])["args"]["job"] if jobs else None
        tree = {}
        for name, group in named.items():
            mine = [s for s in group if s["args"].get("job", last) == last]
            if mine:
                tree[name] = dict(mine[0], id=len(linked) + len(tree) + 1)
        for name, span in tree.items():
            parent = tree.get(SPAN_PARENT.get(name))
            span["parent"] = parent["id"] if parent else None
            linked.append(span)
    return linked


def breakdown_means(spans: List[dict]) -> Dict[str, float]:
    """Mean client latency split into per-layer self times, ms per request."""
    own = measure.self_times(spans)
    requests = [s for s in spans if s["name"] == "client.request"]
    if not requests:
        raise RuntimeError("the traced phase answered no request")
    totals = {name: 0.0 for name in BREAKDOWN}
    for metric_name, span_name in BREAKDOWN.items():
        totals[metric_name] = sum(
            own[s["id"]] for s in spans if s["name"] == span_name
        ) / 1e6 / len(requests)
    totals["client.mean_ms"] = measure.mean(
        [(s["end"] - s["start"]) / 1e6 for s in requests]
    )
    return totals
