"""Persistent party server: one long-lived process per party, many jobs.

The PR-2 runtime (:mod:`repro.runtime.twoprocess`) spawns two fresh OS
processes and a fresh TCP connection *per inference* — correct, but every
request pays process start-up, plan compilation, connection establishment
and the whole offline phase.  This module keeps a party alive across
requests:

- :func:`run_party_server` is the process entry point.  It opens the
  inter-party :class:`~repro.crypto.transport.Transport` **once**, then
  executes a stream of :class:`JobRequest` messages (received over the
  driver's control pipe) against the persistent connection, answering each
  with a :class:`JobReport`.
- Correlated randomness is **pre-provisioned**: a background provisioner
  thread keeps a buffer of party-restricted
  :class:`~repro.crypto.dealer.RandomnessPool`\\ s per ``(model, batch)``
  key, refilled whenever it drops below a low-water mark, so the online
  path of a warm server performs zero dealer generation calls.
- Job seeds are **deterministic**: :func:`derive_job_seed` maps
  ``(base_seed, model, batch, counter)`` to the session seed, so the
  dispatcher (which secret-shares the query), both party servers (which
  regenerate the dealer stream) and any verifier (which replays the job on
  the in-process engine) all agree without communicating — each job stays
  bit-identical to ``SecureInferenceEngine.execute`` at the same seed.

Session framing over the persistent connection: before each job the
parties exchange a control frame carrying ``(job id, model, batch,
counter)`` and refuse to proceed on a mismatch, so a desynchronized
dispatcher fails loudly instead of mixing share-worlds.  Control bytes are
accounted separately from protocol payload, which keeps the per-job
payload deltas equal to the plan manifest's prediction — verified after
every job, exactly as in the one-shot runtime.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool, TrustedDealer
from repro.crypto.passes import serving_plan
from repro.crypto.plan import compile_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.transport import (
    FaultPlan,
    FaultyTransport,
    TcpListener,
    TransportEndpoint,
)
from repro.models.specs import ModelSpec
from repro.runtime.party import (
    execute_plan_as_party,
    verify_against_plan,
)

#: buffered pools per (model, batch) key below which the provisioner refills
DEFAULT_LOW_WATER = 1
#: target buffer depth the provisioner refills up to
DEFAULT_HIGH_WATER = 3


def derive_job_seed(base_seed: int, model: str, batch_size: int, counter: int) -> int:
    """Deterministic session seed of the ``counter``-th job of a plan key.

    Pure arithmetic on stable inputs: the dispatcher, both party servers and
    any out-of-band verifier compute the same seed without coordination.
    """
    digest = zlib.crc32(f"{model}:{batch_size}:{counter}".encode("utf-8"))
    return (int(base_seed) * 1_000_003 + digest) % (2**31 - 1)


# --------------------------------------------------------------------------- #
# Control-pipe messages (driver <-> party server process)
# --------------------------------------------------------------------------- #


@dataclass
class ServerConfig:
    """Everything a party server needs to boot, sent once over the pipe.

    ``coalesce_rounds`` selects the serving plan (round-coalescing and
    kernel-lowered, the default) or the sequential reference execution for
    every plan the server compiles; both parties receive the same config,
    so they always agree.
    """

    base_seed: int
    models: Dict[str, ModelSpec]
    weights: Dict[str, Dict[str, Dict[str, np.ndarray]]]
    warm_batch_sizes: Tuple[int, ...] = ()
    provision_pools: int = 0
    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER
    ring: FixedPointRing = DEFAULT_RING
    verify: bool = True
    coalesce_rounds: bool = True
    #: per-party link shaping / scripted fault schedules: the party's
    #: transport is wrapped in a :class:`FaultyTransport` right after the
    #: connection opens.  ``None`` (or a missing party key) means a clean
    #: link.  Chaos tests and shaped-link benchmarks ride through here.
    fault_plans: Optional[Dict[int, FaultPlan]] = None
    #: (host, port) of a randomness-factory server.  When set, pool
    #: provisioning *fetches* party-restricted buffers from the factory's
    #: inventory instead of generating locally; any factory failure falls
    #: back to local cold generation at the identical seed, so logits stay
    #: bit-for-bit unchanged either way.
    factory_address: Optional[Tuple[str, int]] = None
    #: job seeds to announce ahead to the factory on each refill, so the
    #: producer pre-generates bundles before the servers ask (0 = reactive)
    factory_announce_ahead: int = 4
    #: seconds between liveness frames the server emits over the driver's
    #: control pipe (a background thread, so heartbeats keep flowing while a
    #: job computes or waits on the wire).  ``0`` disables emission — the
    #: driver then falls back to its hard pipe/timeout detection only.
    heartbeat_interval: float = 1.0


@dataclass
class JobRequest:
    """One inference job: executed by both parties in lock-step."""

    job_id: int
    model: str
    batch_size: int
    counter: int
    input_share: np.ndarray
    #: explicit session seed for deterministic replay.  ``None`` (the
    #: normal path) derives the seed from the server's own base seed via
    #: :func:`derive_job_seed`; a retry of a job that first ran on a dead
    #: shard pins the original seed so the recovered logits stay
    #: bit-identical to the fault-free run.
    seed: Optional[int] = None


class JobValidationError(ValueError):
    """A job rejected *before* any frame crossed the wire.

    Validation runs on deterministic inputs (both parties hold identically
    shaped shares and the same model registry), so both parties reject the
    same jobs — the session stays in sync and the server keeps serving.
    """


@dataclass
class JobFailed:
    """Job-scoped failure reply: the job was rejected, the server lives on."""

    job_id: int
    error: str


@dataclass
class JobReport:
    """A party's answer to one :class:`JobRequest`."""

    job_id: int
    party: int
    logit_share: np.ndarray
    communication_bytes: int
    communication_rounds: int
    payload_bytes_sent: int
    payload_bytes_received: int
    online_seconds: float
    pool_hit: bool
    pool_buffered: int
    seed: int
    #: OS pid of the serving process — every job of a shard must report the
    #: same two pids, the falsifiable form of "zero per-request spawns"
    pid: int = 0
    #: frame-format-v1 equivalent of ``communication_bytes`` — lets the
    #: serving dashboards compute the packed wire format's bytes_saved_pct
    unpacked_payload_bytes: int = 0
    #: local-compute time of the job's online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the job (0 without kernel lowering)
    fused_kernel_calls: int = 0


@dataclass
class ProvisionRequest:
    """Warm-up command: buffer ``count`` pools for ``(model, batch_size)``."""

    model: str
    batch_size: int
    count: int


@dataclass
class ProvisionReport:
    """Answer to a :class:`ProvisionRequest`: buffer depth after refill."""

    model: str
    batch_size: int
    buffered: int
    provision_seconds: float
    #: lifetime pools this party fetched from the factory inventory
    pools_from_factory: int = 0
    #: lifetime factory fetches that failed over to local cold generation
    factory_fallbacks: int = 0
    #: factory inventory depth as of the last successful fetch (-1 = never)
    factory_inventory_depth: int = -1


@dataclass
class Heartbeat:
    """One liveness frame a party server emits over the control pipe.

    Emitted by a background thread at ``ServerConfig.heartbeat_interval``,
    *including* while a job is executing or blocked on the inter-party
    wire — so the driver can distinguish "slow but alive" from "wedged".
    The snapshot it carries is what a heartbeat-miss diagnostic needs:
    when the party was last seen, which job it was inside, and how far
    through the round schedule it had come.
    """

    party: int
    pid: int
    #: wall-clock ``time.time()`` at emission (the last-seen timestamp a
    #: heartbeat-miss error reports)
    timestamp: float
    jobs_executed: int
    #: job id currently executing on this party (``None`` between jobs)
    job_id: Optional[int] = None
    #: round frames this party has sent over the inter-party transport so
    #: far — a monotone progress cursor through the job's round schedule
    round_index: int = 0


@dataclass
class ShutdownRequest:
    """Ask the server to run the graceful wire shutdown and exit."""


@dataclass
class ServerStats:
    """Lifetime counters a server sends back right before exiting."""

    party: int
    jobs_executed: int
    pool_hits: int
    pool_misses: int
    pools_provisioned: int
    plans_compiled: int
    control_bytes_sent: int
    control_bytes_received: int
    payload_bytes_sent: int
    payload_bytes_received: int
    #: summed online-phase seconds across all jobs (this party's view)
    online_seconds: float = 0.0
    #: summed local-compute nanoseconds across all jobs (this party's view)
    cpu_time_ns: int = 0
    #: summed fused-kernel invocations across all jobs
    fused_kernel_calls: int = 0
    #: pools fetched from the randomness factory's inventory
    pools_from_factory: int = 0
    #: factory fetches that failed over to local cold generation
    factory_fallbacks: int = 0
    #: factory inventory depth for this server's hottest manifest, as of
    #: the last successful fetch (-1 = never fetched)
    factory_inventory_depth: int = -1


# --------------------------------------------------------------------------- #
# Server internals
# --------------------------------------------------------------------------- #


@dataclass
class _PlanEntry:
    #: the executed artifact: a LoweredPlan (coalesce_rounds) or a bare
    #: InferencePlan (sequential reference mode)
    plan: object
    #: FIFO of (counter, party-restricted pool); counters strictly increase
    pools: Deque[Tuple[int, RandomnessPool]] = field(default_factory=deque)
    next_counter: int = 0
    #: the plan's preprocessing manifest (cached — factory fetches and
    #: announcements reuse its content hash and grouped requests)
    manifest: object = None


class PartyServer:
    """The in-process half of :func:`run_party_server` (testable directly).

    Holds the persistent transport + channel, the compiled-plan cache, the
    randomness buffers and the background provisioner for one party.
    """

    def __init__(self, party: int, transport, config: ServerConfig) -> None:
        self.party = party
        self.transport = transport
        self.config = config
        self.ring = config.ring
        self.channel = PartyChannel(transport, party, ring=config.ring)
        self.stats = ServerStats(
            party=party,
            jobs_executed=0,
            pool_hits=0,
            pool_misses=0,
            pools_provisioned=0,
            plans_compiled=0,
            control_bytes_sent=0,
            control_bytes_received=0,
            payload_bytes_sent=0,
            payload_bytes_received=0,
        )
        self._entries: Dict[Tuple[str, int], _PlanEntry] = {}
        #: job id currently executing (``None`` between jobs) — read by the
        #: heartbeat thread without the lock (GIL-atomic attribute load)
        self.current_job_id: Optional[int] = None
        self._lock = threading.Lock()
        self._refill = threading.Condition(self._lock)
        self._closing = False
        self._provisioner: Optional[threading.Thread] = None
        self._factory = None
        self._factory_unavailable = False

    # -- plan / pool management --------------------------------------------- #
    def _entry(self, model: str, batch_size: int) -> _PlanEntry:
        key = (model, batch_size)
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None:
            return entry
        spec = self.config.models.get(model)
        if spec is None:
            raise KeyError(
                f"party {self.party}: unknown model {model!r}; "
                f"registered: {sorted(self.config.models)}"
            )
        if self.config.coalesce_rounds:
            plan = serving_plan(spec, batch_size, self.ring)
        else:
            plan = compile_plan(spec, batch_size=batch_size, ring=self.ring)
        manifest = getattr(plan, "manifest", None)
        with self._lock:
            entry = self._entries.setdefault(key, _PlanEntry(plan=plan, manifest=manifest))
            if entry.plan is plan:
                self.stats.plans_compiled += 1
        return entry

    # -- factory provisioning ------------------------------------------------- #
    def _factory_client(self):
        """The (lazily connected) randomness-factory client, if configured.

        A connection or session failure permanently reverts this server to
        local cold generation — correctness is unaffected because both
        paths generate from the identical per-seed substreams.
        """
        address = getattr(self.config, "factory_address", None)
        if address is None or self._factory_unavailable:
            return None
        if self._factory is None:
            from repro.offline.factory import FactoryClient

            try:
                self._factory = FactoryClient(tuple(address), retries=3)
            except (ConnectionError, OSError):
                self._factory_unavailable = True
                with self._lock:
                    self.stats.factory_fallbacks += 1
                return None
        return self._factory

    def _drop_factory(self) -> None:
        client, self._factory = self._factory, None
        self._factory_unavailable = True
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def _pool_at_seed(self, entry: _PlanEntry, seed: int) -> RandomnessPool:
        """The party-restricted pool of one session seed.

        Tries the factory inventory first (streamed, pre-generated), then
        falls back to local cold generation — the fetched buffers are
        bit-identical to what the dealer generates here, so the fallback
        changes latency only, never logits.
        """
        client = self._factory_client()
        if client is not None and entry.manifest is not None:
            try:
                pool = client.fetch_pool(entry.manifest, seed, party=self.party)
                with self._lock:
                    self.stats.pools_from_factory += 1
                    if client.last_inventory_depth is not None:
                        self.stats.factory_inventory_depth = client.last_inventory_depth
                return pool
            except Exception:
                with self._lock:
                    self.stats.factory_fallbacks += 1
                self._drop_factory()
        dealer = TrustedDealer(ring=self.ring, seed=seed)
        return dealer.preprocess(entry.plan).restrict_to_party(self.party)

    def _announce_ahead(self, entry: _PlanEntry, model: str, batch_size: int) -> None:
        """Advertise the next job seeds so the factory can run ahead."""
        ahead = getattr(self.config, "factory_announce_ahead", 0)
        client = self._factory_client()
        if ahead <= 0 or client is None or entry.manifest is None or self.party != 0:
            # one announcing party suffices — both servers derive the same
            # seeds, and the factory spools one shared bundle per seed
            return
        with self._lock:
            start = entry.next_counter
        seeds = [
            derive_job_seed(self.config.base_seed, model, batch_size, start + offset)
            for offset in range(ahead)
        ]
        try:
            client.announce(entry.manifest, seeds)
        except Exception:
            with self._lock:
                self.stats.factory_fallbacks += 1
            self._drop_factory()

    def _generate_pool(self, model: str, batch_size: int, counter: int, plan) -> RandomnessPool:
        seed = derive_job_seed(self.config.base_seed, model, batch_size, counter)
        key = (model, batch_size)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or entry.plan is not plan:
            entry = _PlanEntry(plan=plan, manifest=getattr(plan, "manifest", None))
        return self._pool_at_seed(entry, seed)

    def provision(self, model: str, batch_size: int, count: int) -> int:
        """Buffer ``count`` additional pools for a key; returns buffer depth."""
        entry = self._entry(model, batch_size)
        for _ in range(max(count, 0)):
            with self._lock:
                counter = entry.next_counter
                entry.next_counter += 1
            seed = derive_job_seed(self.config.base_seed, model, batch_size, counter)
            pool = self._pool_at_seed(entry, seed)
            with self._lock:
                entry.pools.append((counter, pool))
                self.stats.pools_provisioned += 1
        self._announce_ahead(entry, model, batch_size)
        # a pipe-driven warm-up may have just *created* a key; wake the
        # provisioner so it can judge the new key against the low-water mark
        self.notify_provisioner()
        with self._lock:
            return len(entry.pools)

    def _acquire_pool(self, entry: _PlanEntry, model: str, batch_size: int, counter: int) -> Tuple[RandomnessPool, bool]:
        """The pool for job ``counter``: buffered (hit) or generated (miss).

        Concurrent provisioners (pipe-loop warm-up vs. background refill)
        may append out of counter order, so the buffer is scanned for the
        exact counter rather than trusting FIFO order; entries older than
        the job are stale (that job was already served cold) and dropped.
        """
        with self._lock:
            pool = None
            for buffered_counter, buffered_pool in entry.pools:
                if buffered_counter == counter:
                    pool = buffered_pool
                    break
            entry.pools = deque(
                item for item in entry.pools if item[0] > counter
            )
            hit = pool is not None
            if hit:
                self.stats.pool_hits += 1
            entry.next_counter = max(entry.next_counter, counter + 1)
        if pool is None:
            pool = self._generate_pool(model, batch_size, counter, entry.plan)
            with self._lock:
                self.stats.pool_misses += 1
        return pool, hit

    # -- background provisioner --------------------------------------------- #
    def start_provisioner(self) -> None:
        if self.config.provision_pools <= 0:
            return
        self._provisioner = threading.Thread(
            target=self._provision_loop,
            name=f"party{self.party}-provisioner",
            daemon=True,
        )
        self._provisioner.start()

    def _provision_loop(self) -> None:
        while True:
            with self._refill:
                if self._closing:
                    return
                keys = [
                    key
                    for key, entry in self._entries.items()
                    if len(entry.pools) < self.config.low_water
                ]
                if not keys:
                    # deficit check and wait share the lock, so a job's
                    # notify cannot be lost — an idle server sleeps here
                    # indefinitely instead of busy-polling
                    self._refill.wait()
                    continue
            for model, batch_size in keys:
                with self._lock:
                    if self._closing:
                        return
                    entry = self._entries[(model, batch_size)]
                    deficit = self.config.high_water - len(entry.pools)
                self.provision(model, batch_size, deficit)

    def notify_provisioner(self) -> None:
        with self._refill:
            self._refill.notify_all()

    # -- job execution -------------------------------------------------------- #
    def _sync_job_header(self, request: JobRequest) -> None:
        """Exchange and cross-check the job header over the wire.

        Party 0 announces, party 1 verifies: a dispatcher that fed the two
        pipes different job streams is caught before any share crosses the
        wire for the wrong session.
        """
        header = {
            "job": request.job_id,
            "model": request.model,
            "batch": request.batch_size,
            "counter": request.counter,
            "seed": request.seed,
        }
        if self.party == 0:
            self.transport.send_control(json.dumps(header).encode("utf-8"))
        else:
            announced = self.transport.recv_control()
            if announced is None:
                raise ConnectionError(
                    "peer shut the session down while a job was pending"
                )
            peer_header = json.loads(announced.decode("utf-8"))
            if peer_header != header:
                raise RuntimeError(
                    f"party 1: job desync — peer announced {peer_header}, "
                    f"local pipe delivered {header}"
                )

    def execute_job(self, request: JobRequest) -> JobReport:
        # Everything up to _sync_job_header is pre-wire validation: it sees
        # only deterministic inputs, so a rejection here is job-scoped
        # (JobValidationError) — both parties reject identically, no frame
        # has been sent, and the persistent session stays usable.
        try:
            entry = self._entry(request.model, request.batch_size)
        except KeyError as exc:
            raise JobValidationError(str(exc)) from exc
        if tuple(np.asarray(request.input_share).shape) != entry.plan.input_shape:
            raise JobValidationError(
                f"plan {request.model!r} (batch {request.batch_size}) expects "
                f"an input share of shape {entry.plan.input_shape}, got "
                f"{np.asarray(request.input_share).shape}"
            )
        derived = derive_job_seed(
            self.config.base_seed, request.model, request.batch_size, request.counter
        )
        seed = derived if request.seed is None else int(request.seed)
        self._sync_job_header(request)
        if seed == derived:
            pool, hit = self._acquire_pool(
                entry, request.model, request.batch_size, request.counter
            )
        else:
            # A replay pinned to another shard generation's seed: the
            # buffered pools of this server (keyed by counter under *its*
            # base seed) don't apply — obtain the exact pool at the pinned
            # seed (factory inventory or local cold generation; both yield
            # the identical dealer stream bit-for-bit).
            pool = self._pool_at_seed(entry, seed)
            hit = False
            with self._lock:
                self.stats.pool_misses += 1
                entry.next_counter = max(entry.next_counter, request.counter + 1)
        start = time.perf_counter()
        ctx = TwoPartyContext(ring=self.ring, seed=seed, channel=self.channel)
        before = self.transport.stats.snapshot()
        self.current_job_id = request.job_id
        try:
            execution = execute_plan_as_party(
                ctx,
                self.party,
                entry.plan,
                self.config.weights[request.model],
                request.input_share,
                pool=pool,
            )
        finally:
            self.current_job_id = None
        delta = self.transport.stats.since(before)
        online_seconds = time.perf_counter() - start

        if self.config.verify:
            # the one-shot runtime's verifier, fed with this job's wire
            # delta — the control frames of the session layer are excluded
            # from the payload counters, so the check stays exact even on a
            # connection multiplexing many jobs
            try:
                verify_against_plan(entry.plan, execution, delta)
            except RuntimeError as exc:
                raise RuntimeError(f"job {request.job_id}: {exc}") from exc

        with self._lock:
            self.stats.jobs_executed += 1
            self.stats.online_seconds += online_seconds
            self.stats.cpu_time_ns += execution.cpu_time_ns
            self.stats.fused_kernel_calls += execution.fused_kernel_calls
            buffered = len(entry.pools)
        self.notify_provisioner()
        return JobReport(
            job_id=request.job_id,
            party=self.party,
            logit_share=execution.logit_share,
            communication_bytes=execution.communication_bytes,
            communication_rounds=execution.communication_rounds,
            payload_bytes_sent=delta.payload_bytes_sent,
            payload_bytes_received=delta.payload_bytes_received,
            online_seconds=online_seconds,
            pool_hit=hit,
            pool_buffered=buffered,
            seed=seed,
            pid=os.getpid(),
            unpacked_payload_bytes=execution.unpacked_bytes,
            cpu_time_ns=execution.cpu_time_ns,
            fused_kernel_calls=execution.fused_kernel_calls,
        )

    # -- lifecycle ------------------------------------------------------------ #
    def warm_up(self) -> None:
        """Compile plans and buffer pools for the configured warm keys."""
        for model in self.config.models:
            for batch_size in self.config.warm_batch_sizes:
                self._entry(model, batch_size)
                if self.config.provision_pools > 0:
                    self.provision(model, batch_size, self.config.provision_pools)

    def shutdown(self) -> ServerStats:
        """Graceful end of session: wire handshake, stop the provisioner."""
        with self._refill:
            self._closing = True
            self._refill.notify_all()
        if self._provisioner is not None:
            self._provisioner.join(timeout=10.0)
        if self._factory is not None:
            try:
                self._factory.close()
            except Exception:
                pass
            self._factory = None
        if self.party == 0:
            self.transport.send_shutdown()
        else:
            goodbye = self.transport.recv_control()
            if goodbye is not None:
                raise RuntimeError(
                    "party 1: expected the shutdown handshake, got a control "
                    f"message of {len(goodbye)} bytes"
                )
        wire = self.transport.stats
        self.stats.control_bytes_sent = wire.control_bytes_sent
        self.stats.control_bytes_received = wire.control_bytes_received
        self.stats.payload_bytes_sent = wire.payload_bytes_sent
        self.stats.payload_bytes_received = wire.payload_bytes_received
        return self.stats


class _PipeSender:
    """Serializes control-pipe sends between the serving loop and the
    heartbeat thread (``multiprocessing.Connection`` is not re-entrant)."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def send(self, message) -> None:
        with self._lock:
            self._conn.send(message)


def _start_heartbeat_thread(
    sender: _PipeSender, server: "PartyServer", interval: float
) -> threading.Event:
    """Emit :class:`Heartbeat` frames over the pipe until the event is set.

    Runs as a daemon thread beside the serving loop, so liveness frames
    keep flowing while a job computes or blocks on the inter-party wire —
    a wedged (but scheduled) process keeps heartbeating; a SIGSTOPped or
    dead one goes silent, which is exactly the signal the supervisor needs.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval):
            try:
                sender.send(
                    Heartbeat(
                        party=server.party,
                        pid=os.getpid(),
                        timestamp=time.time(),
                        jobs_executed=server.stats.jobs_executed,
                        job_id=server.current_job_id,
                        round_index=server.transport.stats.round_frames_sent,
                    )
                )
            except (BrokenPipeError, OSError, ValueError):
                return  # driver went away; the serving loop will notice too

    thread = threading.Thread(
        target=_beat, name=f"party{server.party}-heartbeat", daemon=True
    )
    thread.start()
    return stop


def run_party_server(
    conn,
    party: int,
    host: str,
    port: int,
    timeout: float = 300.0,
    link_latency: float = 0.0,
) -> None:
    """Entry point for one persistent party process.

    Protocol over the control pipe: first a :class:`ServerConfig`, then any
    stream of :class:`JobRequest` / :class:`ProvisionRequest` messages, each
    answered in order; finally a :class:`ShutdownRequest`, answered with the
    lifetime :class:`ServerStats`.  The inter-party transport is opened once
    and reused for every job — a warm server spawns no processes and opens
    no connections on the serving path.

    With ``port <= 0`` party 0 binds an ephemeral port and announces the
    kernel-assigned number over the pipe (``("bound-port", port)``) right
    after receiving the config, *before* accepting — the pool driver reads
    it and only then boots party 1, so no free-then-bind race exists.
    """
    transport = None
    sender = _PipeSender(conn)
    heartbeat_stop: Optional[threading.Event] = None
    try:
        config: ServerConfig = conn.recv()
        listener = None
        if party == 0 and port <= 0:
            listener = TcpListener(host=host, port=0)
            sender.send(("bound-port", listener.port))
            port = listener.port
        endpoint = TransportEndpoint(
            party=party,
            host=host,
            port=port,
            timeout=timeout,
            link_latency=link_latency,
            listener=listener,
        )
        transport = endpoint.open()
        plan = (getattr(config, "fault_plans", None) or {}).get(party)
        if plan is not None:
            # chaos/shaping harness: the wrapper owns the WireStats the
            # server accounts against, so payload==manifest stays exact
            transport = FaultyTransport(transport, plan)
        server = PartyServer(party, transport, config)
        server.warm_up()
        server.start_provisioner()
        sender.send("ready")
        interval = getattr(config, "heartbeat_interval", 0.0) or 0.0
        if interval > 0:
            heartbeat_stop = _start_heartbeat_thread(sender, server, interval)
        while True:
            message = conn.recv()
            if isinstance(message, ShutdownRequest):
                sender.send(server.shutdown())
                break
            if isinstance(message, ProvisionRequest):
                start = time.perf_counter()
                buffered = server.provision(
                    message.model, message.batch_size, message.count
                )
                sender.send(
                    ProvisionReport(
                        model=message.model,
                        batch_size=message.batch_size,
                        buffered=buffered,
                        provision_seconds=time.perf_counter() - start,
                        pools_from_factory=server.stats.pools_from_factory,
                        factory_fallbacks=server.stats.factory_fallbacks,
                        factory_inventory_depth=server.stats.factory_inventory_depth,
                    )
                )
            elif isinstance(message, JobRequest):
                try:
                    sender.send(server.execute_job(message))
                except JobValidationError as exc:
                    # rejected pre-wire on both parties: answer and keep
                    # serving — only post-wire failures are process-fatal
                    sender.send(JobFailed(job_id=message.job_id, error=str(exc)))
            else:
                raise TypeError(
                    f"party {party}: unexpected control message "
                    f"{type(message).__name__}"
                )
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:  # surface the failure to the driver, then re-raise
        try:
            sender.send(exc)
        except Exception:
            pass
        raise
    finally:
        if heartbeat_stop is not None:
            heartbeat_stop.set()
        if transport is not None:
            transport.close()
        conn.close()
