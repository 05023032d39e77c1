"""Tests for the batched serving frontend and the plan/pool cache."""

from __future__ import annotations

import queue
import sys
import threading

import numpy as np
import pytest

from repro.crypto.dealer import PreprocessingExhausted
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny
from repro.serve import BatchingFrontend, PlanPoolCache, ServableModel
from repro.serve.frontend import BatchOutcome


@pytest.fixture(scope="module")
def servable():
    from repro.nn.tensor import Tensor

    spec = vgg_tiny(input_size=8).with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, 3, 8, 8))))
    net.eval()
    return ServableModel(spec, export_layer_weights(net)), net


class TestPlanPoolCache:
    def test_plan_compiled_once_per_key(self, servable):
        model, _ = servable
        cache = PlanPoolCache(seed=0)
        first = cache.plan(model.spec, 2)
        second = cache.plan(model.spec, 2)
        assert first is second
        assert cache.stats.plans_compiled == 1
        cache.plan(model.spec, 4)
        assert cache.stats.plans_compiled == 2

    def test_provisioned_pools_are_served_before_cold_generation(self, servable):
        model, _ = servable
        cache = PlanPoolCache(seed=0)
        assert cache.provision(model.spec, 1, count=2) == 2
        cache.acquire_pool(model.spec, 1)
        cache.acquire_pool(model.spec, 1)
        assert cache.stats.cold_pool_misses == 0
        cache.acquire_pool(model.spec, 1)  # buffer empty -> cold generation
        assert cache.stats.cold_pool_misses == 1
        assert cache.stats.pools_served == 3

    def test_acquired_pool_funds_exactly_one_execution(self, servable):
        from repro.crypto import make_context
        from repro.crypto.secure_model import SecureInferenceEngine

        model, _ = servable
        cache = PlanPoolCache(seed=0)
        plan = cache.plan(model.spec, 1)
        pool = cache.acquire_pool(model.spec, 1)
        engine = SecureInferenceEngine(make_context(seed=1))
        x = np.zeros((1, 3, 8, 8))
        engine.execute(plan, model.weights, x, pool=pool)
        assert pool.remaining == 0
        with pytest.raises(PreprocessingExhausted):
            engine.execute(plan, model.weights, x, pool=pool)


class GatedFrontend(BatchingFrontend):
    """A backend whose batches block on ``gate``: dispatch without timing.

    Each batch's first-pixel values are put on ``started`` as it enters
    ``_run_batch``, then the batch waits for ``gate`` and returns logits
    that carry those values, so tests see exactly which queries ran together.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.gate = threading.Event()
        self.started: "queue.Queue[tuple]" = queue.Queue()
        super().__init__(*args, **kwargs)

    def _run_batch(self, model, servable, inputs):
        self.started.put(tuple(inputs[:, 0, 0, 0]))
        assert self.gate.wait(timeout=60)
        return BatchOutcome(
            logits=np.repeat(inputs[:, :1, 0, 0], 10, axis=1),
            online_bytes_per_query=0.0,
        )


def _tagged(*values):
    """Queries whose first pixel is ``value``: identifiable in a batch."""
    queries = np.zeros((len(values), 3, 8, 8))
    queries[:, 0, 0, 0] = values
    return queries


class TestBatchingFrontend:
    def test_queries_coalesce_into_one_batch(self, servable):
        model, net = servable
        from repro.nn.tensor import Tensor

        queries = np.random.default_rng(3).normal(size=(4, 3, 8, 8))
        plaintext = net(Tensor(queries)).data.argmax(1)
        with BatchingFrontend(
            {"m": model}, max_batch=4, provision_pools=1
        ) as frontend:
            futures = frontend.submit_many("m", queries)
            results = [future.result(timeout=120) for future in futures]
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        assert frontend.stats.batches_dispatched == 1
        assert frontend.stats.batch_size_histogram == {4: 1}
        np.testing.assert_array_equal(
            np.array([r.predicted_class for r in results]), plaintext
        )

    def test_max_batch_caps_coalescing(self, servable):
        model, _ = servable
        queries = np.random.default_rng(1).normal(size=(5, 3, 8, 8))
        with BatchingFrontend({"m": model}, max_batch=2) as frontend:
            futures = frontend.submit_many("m", queries)
            results = [future.result(timeout=120) for future in futures]
        assert [r.batch_size for r in results] == [2, 2, 2, 2, 1]
        assert frontend.stats.queries_completed == 5
        assert frontend.stats.batch_size_histogram == {1: 1, 2: 2}

    def test_stats_percentiles_and_qps(self, servable):
        model, _ = servable
        queries = np.random.default_rng(2).normal(size=(3, 3, 8, 8))
        with BatchingFrontend({"m": model}, max_batch=4) as frontend:
            for future in frontend.submit_many("m", queries):
                future.result(timeout=120)
        snapshot = frontend.stats.snapshot()
        assert snapshot["queries_completed"] == 3
        assert snapshot["p95_latency_ms"] >= snapshot["p50_latency_ms"] > 0
        assert snapshot["queries_per_second"] > 0

    def test_unknown_model_rejected_at_submit(self, servable):
        model, _ = servable
        with BatchingFrontend({"m": model}, max_batch=2) as frontend:
            with pytest.raises(KeyError, match="unknown model"):
                frontend.submit("nope", np.zeros((3, 8, 8)))

    def test_wrong_query_shape_rejected_at_submit(self, servable):
        model, _ = servable
        with BatchingFrontend({"m": model}, max_batch=2) as frontend:
            with pytest.raises(ValueError, match="expects a query of shape"):
                frontend.submit("m", np.zeros((3, 4, 4)))
            with pytest.raises(ValueError, match="expects a query of shape"):
                frontend.submit_many("m", np.zeros((3, 8, 8)))

    def test_submit_after_close_raises(self, servable):
        model, _ = servable
        frontend = BatchingFrontend({"m": model}, max_batch=2)
        frontend.close()
        frontend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit("m", np.zeros((3, 8, 8)))

    def test_close_flushes_partial_batches(self, servable):
        """Queries still queued at shutdown are served, not dropped."""
        model, _ = servable
        frontend = GatedFrontend({"m": model}, max_batch=64)
        first = frontend.submit("m", _tagged(1.0)[0])
        assert frontend.started.get(timeout=5) == (1.0,)
        queued = frontend.submit_many("m", _tagged(2.0, 3.0))
        closer = threading.Thread(target=frontend.close, daemon=True)
        closer.start()
        frontend.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert first.result(timeout=5).batch_size == 1
        assert [f.result(timeout=5).batch_size for f in queued] == [2, 2]

    def test_cancelled_future_does_not_kill_the_dispatcher(self, servable):
        """A client cancelling a queued future must not break the batch."""
        model, _ = servable
        with GatedFrontend({"m": model}, max_batch=4) as frontend:
            frontend.submit("m", _tagged(0.0)[0])
            frontend.started.get(timeout=5)
            futures = frontend.submit_many("m", _tagged(1.0, 2.0, 3.0))
            assert futures[1].cancel()  # still queued -> cancel succeeds
            frontend.gate.set()
            others = [futures[0].result(timeout=30), futures[2].result(timeout=30)]
            assert all(r.batch_size == 3 for r in others)
            assert futures[1].cancelled()
            # the dispatcher thread survived and keeps serving
            assert frontend.submit("m", _tagged(4.0)[0]).result(timeout=30)
        assert frontend.stats.batches_dispatched == 3

    def test_two_models_route_independently(self, servable):
        model, _ = servable
        other = ServableModel(
            vgg_tiny(input_size=8).with_all_polynomial(), model.weights
        )
        queries = np.random.default_rng(6).normal(size=(2, 3, 8, 8))
        with BatchingFrontend({"a": model, "b": other}, max_batch=4) as frontend:
            fa = frontend.submit("a", queries[0])
            fb = frontend.submit("b", queries[1])
            assert fa.result(timeout=120).model == "a"
            assert fb.result(timeout=120).model == "b"


class TestWorkConservingDispatch:
    def test_queries_queued_while_busy_run_as_one_batch(self, servable):
        model, _ = servable
        with GatedFrontend({"m": model}, max_batch=8) as frontend:
            first = frontend.submit("m", _tagged(1.0)[0])
            # a lone query on an idle backend runs at once, alone
            assert frontend.started.get(timeout=5) == (1.0,)
            later = [frontend.submit("m", q) for q in _tagged(2.0, 3.0, 4.0)]
            frontend.gate.set()
            assert frontend.started.get(timeout=5) == (2.0, 3.0, 4.0)
            assert first.result(timeout=5).batch_size == 1
            assert [f.result(timeout=5).batch_size for f in later] == [3, 3, 3]

    def test_groups_pack_whole_in_fifo_order(self, servable):
        model, _ = servable
        with GatedFrontend({"m": model}, max_batch=4) as frontend:
            frontend.submit("m", _tagged(0.0)[0])
            frontend.started.get(timeout=5)
            frontend.submit_many("m", _tagged(1.0, 2.0, 3.0))
            frontend.submit_many("m", _tagged(4.0, 5.0))
            frontend.submit("m", _tagged(6.0)[0])
            frontend.gate.set()
            # the 2-group would overflow the 3-group's batch: it waits, whole
            assert frontend.started.get(timeout=5) == (1.0, 2.0, 3.0)
            assert frontend.started.get(timeout=5) == (4.0, 5.0, 6.0)

    def test_submit_many_is_one_batch_despite_concurrent_submitters(self, servable):
        """Stress: more submitter threads than cores and a short switch
        interval; every group stays whole and every query is counted once."""
        model, _ = servable
        stop = threading.Event()
        trickled = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with GatedFrontend({"m": model}, max_batch=4) as frontend:
                frontend.gate.set()

                def trickle() -> None:
                    count = 0
                    while not stop.is_set():
                        frontend.submit("m", _tagged(-1.0)[0]).result(timeout=30)
                        count += 1
                    trickled.append(count)

                submitters = [
                    threading.Thread(target=trickle, daemon=True) for _ in range(4)
                ]
                for submitter in submitters:
                    submitter.start()
                try:
                    for group in range(20):
                        values = [float(10 * group + k) for k in range(1, 4)]
                        futures = frontend.submit_many("m", _tagged(*values))
                        for future in futures:
                            future.result(timeout=30)
                finally:
                    stop.set()
                    for submitter in submitters:
                        submitter.join(timeout=30)
                assert not any(submitter.is_alive() for submitter in submitters)
        finally:
            sys.setswitchinterval(interval)
        assert frontend.stats.queries_completed == 60 + sum(trickled)
        assert frontend._batches_in_flight == 0 and not frontend._unresolved
        batches = []
        while not frontend.started.empty():
            batches.append(frontend.started.get())
        for group in range(20):
            values = {float(10 * group + k) for k in range(1, 4)}
            holding = [b for b in batches if values & set(b)]
            assert len(holding) == 1 and values <= set(holding[0])

    def test_group_larger_than_max_batch_is_split_into_chunks(self, servable):
        model, _ = servable
        with GatedFrontend({"m": model}, max_batch=4) as frontend:
            frontend.gate.set()
            futures = frontend.submit_many("m", _tagged(*range(1, 11)))
            sizes = [f.result(timeout=30).batch_size for f in futures]
        assert sizes == [4] * 8 + [2] * 2
        assert frontend.stats.batch_size_histogram == {4: 2, 2: 1}
