"""Batching request frontend for the secure-inference runtime.

Clients submit queries; a dispatcher thread stacks queued queries for the
same model into one batch of at most ``max_batch`` and runs a single plan
execution against a cached plan + pre-provisioned randomness pool.  Each
query resolves to its own :class:`ServedResult` future.

Dispatch is work-conserving: a batch leaves the queue the moment the
backend has a free slot, so a query that arrives at an idle backend runs
at once.  Queries coalesce only while every slot is busy, and the batch
that forms behind the busy slots runs as soon as one frees up.  A stack
submitted by :meth:`BatchingFrontend.submit_many` is queued as one group
that is never split across batches unless it exceeds ``max_batch`` (then
it is cut into ``max_batch`` chunks).  Batching is the amortization lever
of the plan runtime (one communication round trip per protocol op
regardless of batch size); :mod:`benchmarks.bench_serving_throughput`
measures it.

Execution is pluggable: queueing, future bookkeeping and statistics live
here, while three overridable hooks let backends swap in without touching
the queueing logic: :meth:`BatchingFrontend._capacity` (how many batches
may run at once: 1 by default, the live shard count in the pool),
:meth:`BatchingFrontend._dispatch_batch` (where a batch runs: inline by
default, handed to a shard by :mod:`repro.serve.pool`) and
:meth:`BatchingFrontend._run_batch` (how it runs: the in-process engine by
default, a persistent worker pair in the pool).

Invariants:

- every submitted query resolves exactly once — with a
  :class:`ServedResult` or with the exception that killed its batch; a
  backend failure never wedges a client future;
- a query accepted by :meth:`BatchingFrontend.submit` is dispatched even if
  :meth:`BatchingFrontend.close` races with it (the closed check and the
  enqueue are atomic w.r.t. the shutdown drain);
- statistics are updated under one lock and are safe against concurrent
  batch completions from asynchronous backends.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.context import make_context
from repro.crypto.ring import FixedPointRing
from repro.crypto.secure_model import SecureInferenceEngine
from repro.serve.cache import PlanPoolCache, ServableModel


@dataclass
class ServedResult:
    """What one client query resolves to."""

    logits: np.ndarray
    predicted_class: int
    model: str
    batch_size: int
    latency_seconds: float
    online_bytes_per_query: float
    #: which worker shard executed the batch (None on the in-process backend)
    shard: Optional[int] = None
    #: session seed of the executing job — replaying the in-process engine at
    #: this seed reproduces the logits bit for bit (None on the in-process
    #: backend, whose engine seed is fixed at construction)
    job_seed: Optional[int] = None


@dataclass
class BatchOutcome:
    """What one backend execution of a coalesced batch returns."""

    logits: np.ndarray
    online_bytes_per_query: float
    shard: Optional[int] = None
    job_seed: Optional[int] = None


class PoolShutdown(RuntimeError):
    """The serving stack shut down while this query was still pending.

    Raised into client futures that would otherwise hang when shards die
    during a drain (or the pool closes mid-flight).  Carries enough to
    diagnose *where* the query was stuck: its position among the queries
    abandoned by the same shutdown and how long it had been waiting.
    """

    def __init__(
        self,
        message: str,
        queue_position: int = -1,
        elapsed_seconds: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.queue_position = queue_position
        self.elapsed_seconds = elapsed_seconds


#: latency samples kept for percentile computation (a sliding window, so a
#: long-lived frontend under heavy traffic stays O(1) in memory)
LATENCY_WINDOW = 100_000


@dataclass
class ServingStats:
    """Aggregate counters and latency percentiles of a frontend's lifetime.

    Percentiles are computed over the most recent :data:`LATENCY_WINDOW`
    completed queries; the counters cover the whole lifetime.
    """

    queries_completed: int = 0
    queries_failed: int = 0
    batches_dispatched: int = 0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    latencies_seconds: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    first_submit: Optional[float] = None
    last_complete: Optional[float] = None

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_dispatched:
            return 0.0
        return self.queries_completed / self.batches_dispatched

    def latency_percentile_ms(self, percentile: float) -> float:
        if not self.latencies_seconds:
            return 0.0
        return 1e3 * float(np.percentile(self.latencies_seconds, percentile))

    @property
    def queries_per_second(self) -> float:
        if (
            self.first_submit is None
            or self.last_complete is None
            or self.last_complete <= self.first_submit
        ):
            return 0.0
        return self.queries_completed / (self.last_complete - self.first_submit)

    def snapshot(self) -> Dict[str, object]:
        return {
            "queries_completed": self.queries_completed,
            "queries_failed": self.queries_failed,
            "batches_dispatched": self.batches_dispatched,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": dict(sorted(self.batch_size_histogram.items())),
            "p50_latency_ms": self.latency_percentile_ms(50),
            "p95_latency_ms": self.latency_percentile_ms(95),
            "queries_per_second": self.queries_per_second,
        }


@dataclass
class _PendingQuery:
    model: str
    query: np.ndarray
    future: "Future[ServedResult]"
    submitted_at: float


class BatchingFrontend:
    """Work-conserving request queue in front of the compiled-plan engine.

    Args:
        models: the deployable model zoo, keyed by the name clients use.
        max_batch: hard cap on queries coalesced into one plan execution.
        provision_pools: pools to pre-generate per model at ``max_batch``
            (and at batch size 1) during startup, off the serving path.
        seed: session seed for the serving context and dealer.
        ring: fixed-point ring of the deployment.
    """

    def __init__(
        self,
        models: Dict[str, ServableModel],
        max_batch: int = 8,
        provision_pools: int = 0,
        seed: int = 0,
        ring: Optional[FixedPointRing] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.models = dict(models)
        self.max_batch = max_batch
        # Engine and cache are built on first use: a subclass that overrides
        # _run_batch with a remote backend (the shard pool) never constructs
        # the in-process engine/dealer at all.
        self._ring = ring
        self._seed = seed
        self._engine: Optional[SecureInferenceEngine] = None
        self._cache: Optional[PlanPoolCache] = None
        self.stats = ServingStats()
        self._stats_lock = threading.Lock()
        # One condition guards the queued groups, the closed flag, the count
        # of batches in flight and the unresolved queries.  The dispatcher
        # waits on it for a submit, a batch completion, a capacity change or
        # close(); close() waits on it for the drain.
        self._cond = threading.Condition()
        self._pending: List[List[_PendingQuery]] = []
        self._batches_in_flight = 0
        # Every accepted query lives here until its future resolves, so
        # close() can fail stragglers promptly instead of leaving them to
        # hang when shards die during the drain.
        self._unresolved: Dict[int, _PendingQuery] = {}
        self._closed = False
        if provision_pools:
            for servable in self.models.values():
                self.cache.provision(servable.spec, self.max_batch, provision_pools)
                self.cache.provision(servable.spec, 1, provision_pools)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    @property
    def engine(self) -> SecureInferenceEngine:
        """The in-process execution engine (built on first use)."""
        if self._engine is None:
            self._engine = SecureInferenceEngine(
                make_context(ring=self._ring, seed=self._seed)
            )
        return self._engine

    @property
    def cache(self) -> PlanPoolCache:
        """The plan/pool cache of the in-process backend (built on first use)."""
        if self._cache is None:
            self._cache = PlanPoolCache(ring=self.engine.ctx.ring, seed=self._seed + 1)
        return self._cache

    def stats_snapshot(self) -> Dict[str, object]:
        """A consistent copy of the serving stats (safe against concurrent
        batch completions from asynchronous backends)."""
        with self._stats_lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def submit(self, model: str, query: np.ndarray) -> "Future[ServedResult]":
        """Enqueue one query (CHW, no batch dimension); returns a future."""
        return self.submit_many(model, np.asarray(query)[None])[0]

    def submit_many(
        self, model: str, queries: np.ndarray
    ) -> List["Future[ServedResult]"]:
        """Enqueue a stack of queries (NCHW) as one group; one future each.

        The group is queued atomically: it runs in one batch (possibly
        alongside other groups) unless it is larger than ``max_batch``, in
        which case it is cut into chunks of ``max_batch``.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        queries = self.check_stack(model, queries)
        now = time.perf_counter()
        with self._stats_lock:
            if self.stats.first_submit is None:
                self.stats.first_submit = now
        items = [_PendingQuery(model, query, Future(), now) for query in queries]
        # The closed check and the enqueue are atomic w.r.t. close(), so a
        # query can never land in the queue after the shutdown drain.
        with self._cond:
            if self._closed:
                raise RuntimeError("frontend is closed")
            for item in items:
                self._unresolved[id(item)] = item
            for start in range(0, len(items), self.max_batch):
                self._pending.append(items[start : start + self.max_batch])
            self._cond.notify_all()
        return [item.future for item in items]

    def check_stack(self, model: str, queries: np.ndarray) -> np.ndarray:
        """The stack as float64 if it can be served; raises ``KeyError`` for
        an unknown model and ``ValueError`` for an empty or misshapen stack."""
        servable = self.models.get(model)
        if servable is None:
            raise KeyError(
                f"unknown model {model!r}; deployed: {sorted(self.models)}"
            )
        queries = np.asarray(queries, dtype=np.float64)
        spec = servable.spec
        expected = (spec.in_channels, spec.input_size, spec.input_size)
        if queries.ndim != 4 or queries.shape[0] < 1 or queries.shape[1:] != expected:
            raise ValueError(
                f"model {model!r} expects a query of shape {expected}, "
                f"got a stack of shape {queries.shape}"
            )
        return queries

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queue, stop the dispatcher and reject new submissions.

        Every future accepted before the close resolves — normally if the
        drain completes within ``timeout``, otherwise with a diagnosable
        :class:`PoolShutdown` (queue position + elapsed wait) rather than
        hanging forever on a backend that died mid-drain.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        self._dispatcher.join(timeout=timeout)
        # Batches handed off to an asynchronous backend may still be
        # executing legitimately; give the drain the rest of the budget,
        # then fail whatever is left promptly.
        with self._cond:
            drained = self._cond.wait_for(
                lambda: not self._unresolved,
                timeout=max(deadline - time.monotonic(), 0.0),
            )
        if not drained:
            self._fail_stragglers()

    def capacity_changed(self) -> None:
        """Wake the dispatcher: the backend may have gained a free slot."""
        with self._cond:
            self._cond.notify_all()

    def _fail_stragglers(self) -> None:
        with self._cond:
            stragglers = sorted(
                self._unresolved.values(), key=lambda item: item.submitted_at
            )
            self._unresolved.clear()
            # what is still queued is failed here; the dispatcher then exits
            self._pending.clear()
            self._cond.notify_all()
        now = time.perf_counter()
        failed = 0
        for position, item in enumerate(stragglers):
            elapsed = now - item.submitted_at
            failed += _resolve(
                item.future,
                exception=PoolShutdown(
                    f"frontend shut down with the query still pending "
                    f"(queue position {position}, waited {elapsed:.1f}s)",
                    queue_position=position,
                    elapsed_seconds=elapsed,
                ),
            )
        if failed:
            with self._stats_lock:
                self.stats.queries_failed += failed

    def __enter__(self) -> "BatchingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(self._can_dispatch)
                if not self._pending:
                    return  # closed and drained
                model, batch = self._take_batch()
                self._batches_in_flight += 1
            self._dispatch_batch(model, batch)

    def _can_dispatch(self) -> bool:
        if self._pending:
            return self._batches_in_flight < self._capacity()
        return self._closed

    def _take_batch(self) -> Tuple[str, List[_PendingQuery]]:
        """Pop the oldest group plus the later groups of its model that fit.

        Groups of one model are packed in FIFO order until the next one
        would overflow ``max_batch``; other models' groups keep their place.
        """
        model = self._pending[0][0].model
        batch: List[_PendingQuery] = []
        kept: List[List[_PendingQuery]] = []
        for index, group in enumerate(self._pending):
            if group[0].model != model:
                kept.append(group)
            elif len(batch) + len(group) <= self.max_batch:
                batch.extend(group)
            else:
                kept.extend(self._pending[index:])
                break
        self._pending = kept
        return model, batch

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _capacity(self) -> int:
        """How many batches the backend can run at once.

        The default runs each batch inline on the dispatcher thread, so one;
        the shard pool overrides this with its live shard count.
        """
        return 1

    def _dispatch_batch(self, model: str, batch: List[_PendingQuery]) -> None:
        """Where a coalesced batch runs.

        The default executes inline on the dispatcher thread; an
        asynchronous backend (the shard pool) overrides this to hand the
        batch off so dispatching continues while shards work.
        """
        self._execute_batch(model, batch)

    def _run_batch(
        self, model: str, servable: ServableModel, inputs: np.ndarray
    ) -> BatchOutcome:
        """How a coalesced batch runs: one plan execution on the backend.

        The default is the in-process compiled engine against the plan/pool
        cache; :class:`repro.serve.pool.ShardedServingPool` overrides this
        to route the batch to a persistent two-process worker pair.
        """
        batch_size = int(inputs.shape[0])
        plan = self.cache.plan(servable.spec, batch_size)
        pool = self.cache.acquire_pool(servable.spec, batch_size)
        result = self.engine.execute(plan, servable.weights, inputs, pool=pool)
        return BatchOutcome(
            logits=result.logits,
            online_bytes_per_query=result.online_bytes_per_query,
        )

    def _execute_batch(self, model: str, batch: List[_PendingQuery]) -> None:
        try:
            servable = self.models[model]
            batch_size = len(batch)
            try:
                inputs = np.stack([item.query for item in batch])
                outcome = self._run_batch(model, servable, inputs)
            except Exception as exc:
                with self._stats_lock:
                    self.stats.queries_failed += len(batch)
                for position, item in enumerate(batch):
                    err = exc
                    if isinstance(exc, PoolShutdown) and exc.queue_position < 0:
                        # enrich the pool-level shutdown with this query's view
                        err = PoolShutdown(
                            str(exc),
                            queue_position=position,
                            elapsed_seconds=time.perf_counter() - item.submitted_at,
                        )
                    _resolve(item.future, exception=err)
                return
            done = time.perf_counter()
            predictions = outcome.logits.argmax(axis=1)
            with self._stats_lock:
                self.stats.batches_dispatched += 1
                self.stats.queries_completed += batch_size
                self.stats.batch_size_histogram[batch_size] = (
                    self.stats.batch_size_histogram.get(batch_size, 0) + 1
                )
                self.stats.last_complete = done
                for item in batch:
                    self.stats.latencies_seconds.append(done - item.submitted_at)
            for row, item in enumerate(batch):
                _resolve(
                    item.future,
                    result=ServedResult(
                        logits=outcome.logits[row],
                        predicted_class=int(predictions[row]),
                        model=model,
                        batch_size=batch_size,
                        latency_seconds=done - item.submitted_at,
                        online_bytes_per_query=outcome.online_bytes_per_query,
                        shard=outcome.shard,
                        job_seed=outcome.job_seed,
                    ),
                )
        finally:
            with self._cond:
                for item in batch:
                    self._unresolved.pop(id(item), None)
                self._batches_in_flight -= 1
                self._cond.notify_all()


def _resolve(future: "Future[ServedResult]", result=None, exception=None) -> bool:
    """Resolve a future without letting a client-side cancel() (or any other
    already-settled state) kill the dispatcher thread.  Returns whether this
    call actually settled the future."""
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
        return True
    except InvalidStateError:
        return False
