"""Tests for the benchmark's own arithmetic and its metric declarations."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from perfbench import measure
from perfbench.spans import BREAKDOWN, breakdown_means, request_trees

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_p95_needs_ten_samples_beyond_it():
    assert measure.samples_needed(95) == 200
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(199, 95) == 9
    samples = list(np.random.default_rng(0).exponential(size=200))
    assert measure.tail_percentile(samples, 95) == pytest.approx(np.percentile(samples, 95))
    with pytest.raises(ValueError, match="only 9 beyond"):
        measure.tail_percentile(samples[:199], 95)


def test_percentile_matches_numpy_interpolation():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 25, 50, 90, 100):
        assert measure.percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def _span(span_id, start, end, parent=None, name="x"):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 40, parent=1),
        _span(3, 30, 60, parent=1),  # overlaps the first child by 10
        _span(4, 90, 120, parent=1),  # runs past its parent by 20
    ]
    own = measure.self_times(spans)
    # covered: [10, 60) and [90, 100) = 60 of the parent's 100
    assert own == {1: 40, 2: 30, 3: 30, 4: 30}


def test_self_times_of_a_tree_sum_to_the_root():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 90, parent=1),
        _span(3, 10, 30, parent=2),
        _span(4, 30, 85, parent=2),
        _span(5, 40, 85, parent=4),
    ]
    assert sum(measure.self_times(spans).values()) == 100


def test_goodput_counts_sheds_and_failures_as_misses():
    outcomes = [(1, 10.0), (2, None), (1, 200.0), (4, 50.0), (3, None)]
    # within 100 ms: 1 + 4 queries; the shed/failed (None) and the late one miss
    assert measure.goodput(outcomes, limit_ms=100.0, seconds=2.0) == pytest.approx(2.5)
    assert measure.goodput([(2, None)], limit_ms=100.0, seconds=1.0) == 0.0
    with pytest.raises(ValueError):
        measure.goodput(outcomes, limit_ms=100.0, seconds=0.0)


def test_hit_rate_with_no_lookups_is_zero():
    assert measure.hit_rate(0, 0) == 0.0
    assert measure.hit_rate(3, 1) == 0.75
    assert measure.hit_rate(0, 5) == 0.0


def test_steal_free_looks_at_the_window_after_the_due_time():
    stolen = [(100, 150), (400, 450)]
    dues = [0, 40, 60, 150, 200, 300, 449, 450, 500]
    # horizon 50: [due, due + 50] must miss both stolen intervals
    assert measure.steal_free(dues, stolen, 50) == [
        True, True, False, True, True, True, False, True, True,
    ]
    assert measure.steal_free(dues, [], 50) == [True] * len(dues)


def _traced(name, start, end, rid, process="daemon", **args):
    return {"id": 0, "name": name, "start": start, "end": end, "parent": None,
            "rid": rid, "process": process, "args": args}


def test_breakdown_sums_to_mean_client_latency():
    spans = []
    for rid, shift in ((1, 0), (2, 1000)):
        spans += [
            _traced("client.request", shift, shift + 100, rid, process="client"),
            _traced("serve.daemon.service", shift + 10, shift + 90, rid),
            _traced("serve.frontend.queue", shift + 10, shift + 30, rid, job=rid),
            _traced("serve.pool.run_batch", shift + 30, shift + 85, rid, job=rid),
            _traced("runtime.server.online", shift + 40, shift + 85, rid, job=rid),
            _traced("crypto.compute", shift + 40, shift + 60, rid, job=rid),
        ]
    # an untraced request's daemon spans are dropped
    spans.append(_traced("serve.daemon.service", 0, 50, 3))
    means = breakdown_means(request_trees(spans))
    ns = {
        "daemon.overhead_ms": 20, "unattributed_ms": 5, "frontend.queue_wait_ms": 20,
        "pool.dispatch_ms": 10, "server.wire_wait_ms_per_job": 25, "server.cpu_ms_per_job": 20,
    }
    for name, value in ns.items():
        assert means[name] == pytest.approx(value / 1e6)
    assert sum(means[name] for name in BREAKDOWN) == pytest.approx(means["client.mean_ms"])


def test_split_request_keeps_the_job_that_finished_last():
    spans = [
        _traced("client.request", 0, 100, 1, process="client"),
        _traced("serve.daemon.service", 5, 95, 1),
        _traced("serve.frontend.queue", 5, 10, 1, job=7),
        _traced("serve.pool.run_batch", 10, 50, 1, job=7),
        _traced("serve.frontend.queue", 6, 20, 1, job=8),
        _traced("serve.pool.run_batch", 20, 90, 1, job=8),
    ]
    tree = request_trees(spans)
    assert {s["args"].get("job") for s in tree} == {None, 8}
    means = breakdown_means(tree)
    assert sum(means[name] for name in BREAKDOWN) == pytest.approx(means["client.mean_ms"])


def test_per_layer_map_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "per_layer.json"), encoding="utf-8") as handle:
        mapping = json.load(handle)["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(mapping)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for name, entry in mapping.items():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in end_to_end, (name, target)
            assert not workload or workload in workloads, (name, target)
