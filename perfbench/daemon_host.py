"""The daemon's own process: boots a ``ServingDaemon`` for one workload.

Run by ``perfbench/run.py`` as ``python3 perfbench/daemon_host.py
<workload> <seed>``.  It prints ``READY <port>`` once ``pool.warm_up()`` is
done, then reads commands on stdin:

- ``trace on``: wrap the daemon's layer entry points with span recording;
- ``trace off``: put the unwrapped entry points back (spans are kept);
- ``quit``: shut the daemon down, print ``SPANS <json>`` and exit.

End of input counts as ``quit``, so the daemon never outlives the benchmark.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from typing import Callable

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from repro.serve import ServingDaemon  # noqa: E402

from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, build_servable  # noqa: E402

_REQUEST = contextvars.ContextVar("request_id", default=None)


def install_tracing(daemon, recorder: SpanRecorder) -> Callable[[], None]:
    """Record spans around the daemon's calls into admission, frontend and pool.

    Only instance attributes are replaced, and the returned function puts
    the originals back; the program's code is unchanged.  Spans carry the
    client's request id, so the benchmark can stitch them under its own
    client spans.
    """
    pool = daemon.pool
    frontend = pool.frontend
    owners = {}  # id(query future) -> request id
    dispatched = {}  # id(coalesced batch) -> when the frontend handed it off
    job = threading.local()

    submit_request = daemon._do_submit

    async def do_submit(conn, request, queries):
        token = _REQUEST.set(request.get("id"))
        try:
            await submit_request(conn, request, queries)
        finally:
            _REQUEST.reset(token)

    release = daemon.admission.release

    def release_traced(model, count, service_seconds=None):
        end = time.perf_counter_ns()
        release(model, count, service_seconds=service_seconds)
        if service_seconds is not None:
            start = end - int(service_seconds * 1e9)
            recorder.record("serve.daemon.service", start, end, rid=_REQUEST.get())

    submit_many = pool.submit_many

    def submit_many_traced(model, queries):
        futures = submit_many(model, queries)
        for future in futures:
            owners[id(future)] = _REQUEST.get()
        return futures

    run_on_shard = pool._run_on_shard

    def run_on_shard_traced(model, spec, inputs):
        result = run_on_shard(model, spec, inputs)
        job.last = {
            "end": time.perf_counter_ns(),
            "online_ns": int(result.online_seconds * 1e9),
            "cpu_ns": int(result.cpu_time_ns),
            "seed": int(result.seed),
            "shard": int(result.shard),
            "batch": int(result.batch_size),
        }
        return result

    dispatch_batch = frontend._dispatch_batch

    def dispatch_batch_traced(model, batch):
        dispatched[id(batch)] = time.perf_counter_ns()
        dispatch_batch(model, batch)

    execute_batch = frontend._execute_batch

    def execute_batch_traced(model, batch):
        # waiting for a free shard after the hand-off is the pool's time
        start = dispatched.pop(id(batch), None) or time.perf_counter_ns()
        queued = {}  # request id -> earliest submit time of its queries here
        for item in batch:
            rid = owners.pop(id(item.future), None)
            submitted = int(item.submitted_at * 1e9)
            queued[rid] = min(queued.get(rid, submitted), submitted)
        job.last = None
        execute_batch(model, batch)
        ran = job.last
        if ran is None:
            return  # the batch failed; the client sees the error
        online_start = ran["end"] - ran["online_ns"]
        key = {"job": ran["seed"], "batch": ran["batch"], "shard": ran["shard"]}
        for rid, submitted in queued.items():
            recorder.record("serve.frontend.queue", submitted, start, rid=rid, **key)
            recorder.record("serve.pool.run_batch", start, ran["end"], rid=rid, **key)
            recorder.record("runtime.server.online", online_start, ran["end"], rid=rid, **key)
            recorder.record(
                "crypto.compute", online_start, online_start + ran["cpu_ns"], rid=rid, **key
            )

    wrapped = (
        (daemon, "_do_submit", do_submit, submit_request),
        (daemon.admission, "release", release_traced, release),
        (pool, "submit_many", submit_many_traced, submit_many),
        (pool, "_run_on_shard", run_on_shard_traced, run_on_shard),
        (frontend, "_dispatch_batch", dispatch_batch_traced, dispatch_batch),
        (frontend, "_execute_batch", execute_batch_traced, execute_batch),
    )
    for owner, name, wrapper, _ in wrapped:
        setattr(owner, name, wrapper)

    def uninstall() -> None:
        for owner, name, _, original in wrapped:
            setattr(owner, name, original)

    return uninstall


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    servable, _ = build_servable(workload.model, workload.polynomial)
    recorder = SpanRecorder("daemon")
    uninstall = None
    with ServingDaemon(
        {workload.model: servable},
        num_shards=workload.shards,
        seed=seed,
    ) as daemon:
        daemon.pool.warm_up()
        print(f"READY {daemon.port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                if uninstall is None:
                    uninstall = install_tracing(daemon, recorder)
                print("OK", flush=True)
            elif command == "trace off":
                if uninstall is not None:
                    uninstall()
                    uninstall = None
                print("OK", flush=True)
            elif command == "quit":
                break
    print("SPANS " + json.dumps(recorder.spans), flush=True)


if __name__ == "__main__":
    main()
