"""The repository's benchmark: one command, every end-to-end metric, checked.

    python3 perfbench/run.py --workload poly-small --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes a traced run instead and prints every per-layer metric
(see ``perfbench/per_layer.json``), writing the spans as Chrome trace-event
JSON under ``perfbench/out/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a replayed reply does not match bit for bit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from repro.crypto import make_context  # noqa: E402
from repro.crypto.secure_model import SecureInferenceEngine  # noqa: E402
from repro.serve import DaemonClient  # noqa: E402
from repro.serve.daemon import http_get  # noqa: E402

from perfbench import measure, verify  # noqa: E402
from perfbench.host import StealMonitor, cpu_times  # noqa: E402
from perfbench.loadgen import LoadGenerator  # noqa: E402
from perfbench.spans import (  # noqa: E402
    SpanRecorder,
    breakdown_means,
    request_trees,
    write_chrome_trace,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    DaemonWorkload,
    InprocWorkload,
    build_servable,
    closed_loop_requests,
    open_loop_schedule,
    query_batch,
)

#: set-ups timed per run; setup_s is their median
SETUPS = 9
#: replies replayed in process per run
REPLAYS = 8
#: samples p95 needs to have ten beyond it
TAIL_SAMPLES = measure.samples_needed(95)
#: a traced run alternates this many untraced and traced slices of its window
TRACE_SLICES = 6
#: untimed open-loop traffic a daemon serves before its timed window
WARMUP_S = 2.0
HOST = "127.0.0.1"
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# --------------------------------------------------------------------------- #
# The daemon in its own process
# --------------------------------------------------------------------------- #
class DaemonProcess:
    """``perfbench/daemon_host.py`` in a child process; timed until it answers."""

    def __init__(self, workload: DaemonWorkload, seed: int, first_query: np.ndarray) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "daemon_host.py"),
             workload.name, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            ready = self._line(120.0)
            if not ready.startswith("READY "):
                raise RuntimeError(f"daemon host said {ready!r}")
            self.port = int(ready.split()[1])
            health = http_get(HOST, self.port, "/healthz")
            if health["status"] != "ok":
                raise RuntimeError(f"/healthz after warm-up: {health}")
            with DaemonClient(HOST, self.port) as client:
                client.infer(workload.model, first_query)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _line(self, timeout: float) -> str:
        line = self._lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"daemon host exited with code {self.proc.wait()}")
        return line

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def set_tracing(self, on: bool) -> None:
        self.command("trace on" if on else "trace off")
        if self._line(30.0) != "OK":
            raise RuntimeError("daemon host did not confirm tracing")

    def stats(self) -> dict:
        return http_get(HOST, self.port, "/stats")

    def rss_mb(self) -> float:
        """Resident memory of the daemon process and all its descendants."""
        return sum(_rss_kb(pid) for pid in _process_tree(self.proc.pid)) / 1024.0

    def stop(self) -> List[dict]:
        """Shut the daemon down, wait for it, and return its spans."""
        spans: List[dict] = []
        try:
            if self.proc.poll() is None:
                self.command("quit")
                self.proc.stdin.close()
                while True:
                    line = self._line(120.0)
                    if line.startswith("SPANS "):
                        spans = json.loads(line[len("SPANS "):])
                        break
        except (RuntimeError, queue.Empty, BrokenPipeError):
            pass
        finally:
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=10.0)
        return spans


def _process_tree(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, []))
    return tree


def _rss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _delta(after: dict, before: dict, key: str) -> float:
    return after[key] - before[key]


# --------------------------------------------------------------------------- #
# Daemon workloads
# --------------------------------------------------------------------------- #
def run_daemon(workload: DaemonWorkload, seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    servable, net = build_servable(workload.model, workload.polynomial)
    spec = servable.spec
    # the open loop sends at least TAIL_SAMPLES requests at the offered rate
    open_s = max(seconds * workload.open_share, TAIL_SAMPLES / workload.rate_per_s)
    closed_s = seconds * (1.0 - workload.open_share)
    warmup = open_loop_schedule(workload, spec, WARMUP_S, rng)
    schedule = open_loop_schedule(workload, spec, open_s, rng)
    closed_requests = closed_loop_requests(spec, 64, rng)
    first_query = query_batch(rng, spec, 1)
    print(f"workload={workload.name} seed={seed} offered_rate={workload.rate_per_s} req/s "
          f"warmup_s={WARMUP_S:.1f} open_requests={len(schedule)} open_s={open_s:.1f} "
          f"closed_clients={workload.clients} closed_s={closed_s:.1f}")

    daemon = DaemonProcess(workload, seed, first_query)
    setups = [daemon.setup_s]
    generator = LoadGenerator(HOST, daemon.port, workload.model, workload.clients)
    try:
        # untimed traffic first, so the timed window starts on a daemon that
        # has already served at the offered rate
        asyncio.run(generator.open_loop(warmup, "warmup", WARMUP_S + 120.0))
        before = daemon.stats()
        started = time.perf_counter()
        open_timeout = open_s + 120.0
        # the generator's own garbage collection stays out of the timed window
        gc.disable()
        with StealMonitor() as steal:
            if trace:
                # traced and untraced slices alternate, the seed choosing which
                # comes first, so trace.overhead_pct is not the drift of a run
                width = open_s / TRACE_SLICES
                for index in range(TRACE_SLICES):
                    traced = (index + seed) % 2 == 1
                    part = [(t - index * width, q) for t, q in schedule
                            if index * width <= t < (index + 1) * width]
                    daemon.set_tracing(traced)
                    asyncio.run(generator.open_loop(
                        part, "open" if traced else "open-untraced", open_timeout))
                daemon.set_tracing(False)
            else:
                asyncio.run(generator.open_loop(schedule, "open", open_timeout))
        closed_s = asyncio.run(generator.closed_loop(closed_requests, closed_s, "closed"))
        elapsed = time.perf_counter() - started
        after = daemon.stats()
        rss = daemon.rss_mb()
    finally:
        gc.enable()
        host_spans = daemon.stop()
    # the other set-ups come after the timed window, so their burst of
    # process spawns cannot spill into it
    for _ in range(0 if trace else SETUPS - 1):
        probe = DaemonProcess(workload, seed, first_query)
        setups.append(probe.setup_s)
        probe.stop()

    outcomes = generator.outcomes
    answered = [o for o in outcomes if o.ok]
    replay = verify.replay_sample(
        spec, servable.weights, answered, REPLAYS, np.random.default_rng(seed)
    )
    fidelity = verify.fidelity(
        net,
        np.concatenate([o.queries for o in answered]),
        np.concatenate([o.logits for o in answered]),
    )
    errors = sum(not o.ok for o in outcomes)
    failed = errors + replay.mismatches
    result = {
        "correct": replay.mismatches == 0,
        "attempted": len(outcomes),
        "failed": failed,
    }
    opened = [o for o in outcomes if o.phase.startswith("open")]
    closed = [o for o in outcomes if o.phase == "closed"]
    closed_ms = [o.latency_ms for o in closed if o.ok]
    print(f"requests: open={len(opened)} closed={len(closed)} errors={errors} "
          f"replayed={replay.jobs} mismatches={replay.mismatches} "
          f"closed_p50_ms={measure.percentile(closed_ms, 50):.1f} "
          f"closed_p95_ms={measure.percentile(closed_ms, 95):.1f}")
    # open-loop percentiles leave out the requests due while the hypervisor
    # stole a vCPU, judged from the time each was due to its latency limit
    free = measure.steal_free(
        [o.due for o in opened], steal.stolen, int(workload.latency_limit_ms * 1e6)
    )
    everything = [o.latency_ms for o in opened if o.ok]
    print(f"open loop: {sum(free)} of {len(opened)} requests steal-free; "
          f"over all {len(everything)} answered "
          f"p50_ms={measure.percentile(everything, 50):.1f} "
          f"p95_ms={measure.percentile(everything, 95):.1f}")

    if not trace:
        latencies = [o.latency_ms for o, ok in zip(opened, free) if ok and o.ok]
        result["metrics"] = {
            "setup_s": metric(statistics.median(setups), "s"),
            "latency_p50_ms": metric(measure.percentile(latencies, 50), "ms"),
            "latency_p95_ms": metric(measure.tail_percentile(latencies, 95), "ms"),
            "goodput_qps": metric(measure.goodput(
                [(len(o.queries), o.latency_ms) for o in closed],
                workload.latency_limit_ms, closed_s,
            ), "queries/s"),
            "throughput_qps": metric(
                sum(len(o.queries) for o in closed if o.ok) / closed_s, "queries/s"
            ),
            "success_ratio": metric(1.0 - failed / len(outcomes), "ratio"),
            "argmax_agreement": metric(fidelity.agreement, "ratio"),
            "rss_mb": metric(rss, "MB"),
        }
        return result

    # -- traced run: stitch client and daemon spans per request -------------- #
    recorder = SpanRecorder("client")
    for o in outcomes:
        if o.phase == "open" and o.ok:
            recorder.record("client.request", o.sent, o.done, rid=o.rid)
    spans = request_trees(recorder.spans + host_spans)
    write_trace(spans, workload.name, seed)
    breakdown = breakdown_means(spans)

    jobs = _delta(after["pool"], before["pool"], "jobs_executed")
    admission_b, admission_a = before["admission"], after["admission"]
    decisions = (admission_a["jobs_admitted"] + admission_a["jobs_shed"]
                 - admission_b["jobs_admitted"] - admission_b["jobs_shed"])
    frontend_b, frontend_a = before["pool"]["frontend"], after["pool"]["frontend"]
    hits = _delta(after["pool"], before["pool"], "pool_hits")
    misses = _delta(after["pool"], before["pool"], "pool_misses")
    busy = sum(
        after["pool"]["per_shard"][k]["busy_seconds"]
        - before["pool"]["per_shard"].get(k, {"busy_seconds": 0.0})["busy_seconds"]
        for k in after["pool"]["per_shard"]
    )
    p50 = {
        phase: measure.percentile([o.latency_ms for o in opened if o.ok and o.phase == phase], 50)
        for phase in ("open-untraced", "open")
    }
    metrics = {name: metric(value, "ms") for name, value in breakdown.items()}
    metrics.update({
        "admission.shed_ratio": metric(measure.ratio(
            _delta(admission_a, admission_b, "jobs_shed"), decisions), "ratio"),
        "admission.queue_depth_p95": metric(admission_a["queue_depth_p95"], "count"),
        "admission.ewma_service_ms": metric(admission_a["ewma_service_ms"], "ms"),
        "admission.requests": metric(decisions, "count"),
        "frontend.mean_batch_size": metric(measure.ratio(
            _delta(frontend_a, frontend_b, "queries_completed"),
            _delta(frontend_a, frontend_b, "batches_dispatched")), "queries"),
        "pool.job_ms": metric(1e3 * measure.ratio(busy, jobs), "ms"),
        "pool.busy_ratio": metric(busy / (elapsed * workload.shards), "ratio"),
        "pool.jobs_retried": metric(_delta(after["pool"], before["pool"], "jobs_retried"), "count"),
        "pool.jobs": metric(jobs, "count"),
        "offline.pool_hit_rate": metric(measure.hit_rate(hits, misses), "ratio"),
        "offline.pool_lookups": metric(hits + misses, "count"),
        "transport.payload_bytes_per_query": metric(measure.ratio(
            _delta(after["pool"], before["pool"], "payload_bytes"),
            _delta(after["pool"], before["pool"], "queries_served")), "bytes"),
        "transport.codec_ms": metric(measure.mean([o.codec_ns / 1e6 for o in answered]), "ms"),
        "compute.fused_kernel_calls": metric(measure.ratio(
            _delta(after["pool"], before["pool"], "fused_kernel_calls"), jobs), "count"),
        "generator.late_p95_ms": metric(
            measure.tail_percentile([(o.sent - o.due) / 1e6 for o in opened], 95), "ms"),
        "trace.overhead_pct": metric(
            100.0 * (p50["open"] - p50["open-untraced"]) / p50["open-untraced"], "%"),
    })
    metrics.update(replay_metrics(replay, fidelity))
    result["metrics"] = metrics
    return result


def replay_metrics(replay: verify.Replay, fidelity: verify.Fidelity) -> Dict[str, dict]:
    metrics = {
        "offline.preprocess_ms": metric(measure.mean(replay.preprocess_ms), "ms"),
        "plan.online_rounds": metric(measure.mean(replay.online_rounds), "count"),
        "plan.compile_ms": metric(measure.mean(replay.compile_ms), "ms"),
        "fidelity.logit_max_abs_err": metric(fidelity.max_abs_err, "logit"),
    }
    for kind, values in replay.compute_ms.items():
        metrics[f"compute.{kind}_ms"] = metric(measure.mean(values), "ms")
    return metrics


def write_trace(spans: List[dict], workload: str, seed: int) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.json")
    write_chrome_trace(spans, path)
    print(f"trace: {os.path.relpath(path, ROOT)}")


# --------------------------------------------------------------------------- #
# In-process workload
# --------------------------------------------------------------------------- #
def run_inproc(workload: InprocWorkload, seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    models = [build_servable(name, polynomial=False) for name in workload.models]
    inputs = [
        [query_batch(rng, servable.spec, workload.batch) for _ in range(16)]
        for servable, _ in models
    ]
    print(f"workload={workload.name} seed={seed} models={','.join(workload.models)} "
          f"batch={workload.batch} closed loop, one thread")

    setups, plans = [], []
    for _ in range(1 if trace else SETUPS):
        started = time.perf_counter()
        plans = []
        for servable, _ in models:
            engine = SecureInferenceEngine(make_context(seed=seed))
            plan = engine.compile(servable.spec, batch_size=workload.batch, lower=True)
            engine.preprocess(plan)
            plans.append(plan)
        setups.append(time.perf_counter() - started)

    batches = []
    recorder = SpanRecorder("benchmark")

    # p95 needs 200 samples: a slower program runs longer rather than
    # reporting a tail it cannot support.  A traced run traces every other
    # round over the models, the seed choosing which, so trace.overhead_pct
    # compares rounds interleaved in time.
    started = time.perf_counter()
    rounds = 0
    while time.perf_counter() - started < seconds or len(batches) < TAIL_SAMPLES:
        traced = trace and (rounds + seed) % 2 == 1
        rounds += 1
        for index, (servable, _) in enumerate(models):
            x = inputs[index][len(batches) % len(inputs[index])]
            job_seed = seed * 1_000_003 + len(batches)
            t0 = time.perf_counter_ns()
            engine = SecureInferenceEngine(make_context(seed=job_seed))
            pool = engine.preprocess(plans[index])
            t1 = time.perf_counter_ns()
            res = engine.execute(plans[index], servable.weights, x, pool=pool)
            t2 = time.perf_counter_ns()
            batches.append({
                "model": index, "queries": x, "seed": job_seed, "result": res,
                "latency_ms": (t2 - t0) / 1e6, "traced": traced,
            })
            if traced:
                rid = len(batches)
                root = recorder.record("inproc.batch", t0, t2, rid=rid,
                                       model=servable.spec.name)
                recorder.record("offline.preprocess", t0, t1, parent=root, rid=rid)
                run = recorder.record("crypto.execute", t1, t2, parent=root, rid=rid)
                recorder.record("crypto.compute", t1, t1 + res.cpu_time_ns,
                                parent=run, rid=rid)
    elapsed = time.perf_counter() - started
    rss = _rss_kb(os.getpid()) / 1024.0

    # -- correctness: replay a sample at the batches' seeds; plaintext argmax - #
    replay = verify.Replay()
    picks = np.random.default_rng(seed).choice(len(batches), size=REPLAYS, replace=False)
    for index in sorted(picks):
        batch = batches[index]
        servable = models[batch["model"]][0]
        again = verify.run_job(servable.spec, servable.weights, batch["queries"],
                               batch["seed"], replay)
        if not np.array_equal(again.logits, batch["result"].logits):
            replay.mismatches += 1
    agree, worst, total = 0.0, 0.0, 0
    for index, (_, net) in enumerate(models):
        mine = [b for b in batches if b["model"] == index]
        f = verify.fidelity(net, np.concatenate([b["queries"] for b in mine]),
                            np.concatenate([b["result"].logits for b in mine]))
        count = len(mine) * workload.batch
        agree += f.agreement * count
        worst = max(worst, f.max_abs_err)
        total += count
    fidelity = verify.Fidelity(agree / total, worst)
    result = {
        "correct": replay.mismatches == 0,
        "attempted": len(batches),
        "failed": replay.mismatches,
    }
    print(f"batches={len(batches)} replayed={replay.jobs} mismatches={replay.mismatches}")

    measured = [b for b in batches if b["traced"] == trace]
    queries = workload.batch * len(measured)
    if not trace:
        latencies = [b["latency_ms"] for b in measured]
        result["metrics"] = {
            "setup_s": metric(statistics.median(setups), "s"),
            "latency_p50_ms": metric(measure.percentile(latencies, 50), "ms"),
            "latency_p95_ms": metric(measure.tail_percentile(latencies, 95), "ms"),
            "goodput_qps": metric(sum(
                measure.goodput([(workload.batch, b["latency_ms"]) for b in measured
                                 if b["model"] == index], limit, elapsed)
                for index, limit in enumerate(workload.latency_limits_ms)
            ), "queries/s"),
            "throughput_qps": metric(queries / elapsed, "queries/s"),
            "success_ratio": metric(1.0 - result["failed"] / len(batches), "ratio"),
            "argmax_agreement": metric(fidelity.agreement, "ratio"),
            "rss_mb": metric(rss, "MB"),
        }
        return result

    write_trace(recorder.spans, workload.name, seed)
    own = measure.self_times(recorder.spans)

    def self_ms(name: str) -> float:
        """Mean self time per batch of the spans called ``name``."""
        spans = [s for s in recorder.spans if s["name"] == name]
        return sum(own[s["id"]] for s in spans) / 1e6 / len(measured)

    p50 = {
        traced: measure.percentile(
            [b["latency_ms"] for b in batches if b["traced"] == traced], 50)
        for traced in (False, True)
    }
    compute = verify.Replay()
    for b in measured:
        compute.add_compute(models[b["model"]][0].spec, b["result"].per_op_cpu_ns)
    metrics = replay_metrics(replay, fidelity)
    metrics.update({
        # the batch's time: preprocess + protocol compute + the rest of execute
        "client.mean_ms": metric(measure.mean([b["latency_ms"] for b in measured]), "ms"),
        "offline.preprocess_ms": metric(self_ms("offline.preprocess"), "ms"),
        "server.cpu_ms_per_job": metric(self_ms("crypto.compute"), "ms"),
        "unattributed_ms": metric(self_ms("crypto.execute") + self_ms("inproc.batch"), "ms"),
        # every batch generates its randomness cold, on the blocking path
        "offline.pool_hit_rate": metric(measure.hit_rate(0, len(measured)), "ratio"),
        "offline.pool_lookups": metric(len(measured), "count"),
        "transport.payload_bytes_per_query": metric(measure.mean(
            [b["result"].communication_bytes / workload.batch for b in measured]), "bytes"),
        "plan.online_rounds": metric(measure.mean(
            [b["result"].communication_rounds for b in measured]), "count"),
        "compute.fused_kernel_calls": metric(measure.mean(
            [b["result"].fused_kernel_calls for b in measured]), "count"),
        "trace.overhead_pct": metric(100.0 * (p50[True] - p50[False]) / p50[False], "%"),
    })
    for kind, values in compute.compute_ms.items():
        metrics[f"compute.{kind}_ms"] = metric(measure.mean(values), "ms")
    result["metrics"] = metrics
    return result


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inproc = isinstance(workload, InprocWorkload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in declared}
    run = run_inproc if inproc else run_daemon
    ticks = cpu_times()
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    # time the hypervisor ran someone else on this machine's CPUs: runs with
    # much steal are slower for reasons outside the program
    used = [after - before for before, after in zip(ticks, cpu_times())]
    print(f"host cpu: steal={100.0 * used[7] / max(sum(used), 1):.1f}% "
          f"idle={100.0 * used[3] / max(sum(used), 1):.1f}%")

    if inproc and args.trace:
        # the layers the in-process workload bypasses (serve.*, runtime.*,
        # the generator) read zero
        for name, unit in expected.items():
            result["metrics"].setdefault(name, metric(0.0, unit))
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if printed != expected:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(printed.items()) ^ set(expected.items()))}"
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
