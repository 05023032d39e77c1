"""Workload definitions, deterministic models and seeded inputs.

Each workload's reason for existing is recorded in ``BENCHMARK.json``; the
numbers that shape its traffic live here.  Everything a run sends is
generated from ``--seed`` before the timed window opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.models import build_model, export_layer_weights, get_backbone
from repro.models.specs import ModelSpec
from repro.nn.tensor import Tensor
from repro.serve import ServableModel
from repro.utils import seed_everything

INPUT_SIZE = 8


@dataclass(frozen=True)
class DaemonWorkload:
    """1-query requests against a ``ServingDaemon`` in its own process."""

    name: str
    model: str
    polynomial: bool
    shards: int
    #: open-loop arrival rate, requests per second
    rate_per_s: float
    #: share of the run spent in the open-loop phase; the closed loop gets the rest
    open_share: float
    #: goodput counts queries answered within this many milliseconds
    latency_limit_ms: float
    #: closed-loop clients (at most nproc)
    clients: int = 2


@dataclass(frozen=True)
class InprocWorkload:
    """``SecureInferenceEngine`` alone: no daemon, no processes, no wire."""

    name: str
    models: Tuple[str, ...]
    batch: int
    #: goodput counts a batch of ``models[i]`` answered within ``latency_limits_ms[i]``
    latency_limits_ms: Tuple[float, ...]


WORKLOADS = {
    w.name: w
    for w in (
        DaemonWorkload(
            name="poly-small",
            model="vgg-tiny",
            polynomial=True,
            shards=1,
            # half the 40 req/s first tried, so the shard is mostly idle
            # (busy ~25%) and p95 is service time rather than queueing
            rate_per_s=20.0,
            # 700 open-loop requests in a 50 s run; the closed loop gets
            # 15 s, as goodput over 8 s spread by 10% between seeds
            open_share=0.7,
            # 2.5 times the closed loop's p95 on a quiet 2-vCPU host (20 ms)
            latency_limit_ms=50.0,
        ),
        InprocWorkload(
            name="inproc-batch",
            models=("vgg-tiny", "resnet-tiny", "mobilenetv2-tiny"),
            batch=4,
            # twice each model's per-batch p95 on a quiet 2-vCPU host
            # (40, 38 and 261 ms)
            latency_limits_ms=(80.0, 80.0, 520.0),
        ),
    )
}


def build_servable(model: str, polynomial: bool):
    """The deployed model and its plaintext twin, identical in every process.

    Weights come from a fixed seed, and two forward passes move the batch
    norm statistics off their initial values before export.
    """
    spec = get_backbone(model, input_size=INPUT_SIZE)
    if polynomial:
        spec = spec.with_all_polynomial()
    seed_everything(1)
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, INPUT_SIZE, INPUT_SIZE))))
    net.eval()
    return ServableModel(spec, export_layer_weights(net)), net


def plaintext_logits(net, queries: np.ndarray) -> np.ndarray:
    return np.asarray(net(Tensor(queries)).data)


def query_batch(rng: np.random.Generator, spec: ModelSpec, count: int) -> np.ndarray:
    return rng.normal(size=(count, spec.in_channels, spec.input_size, spec.input_size))


def open_loop_schedule(
    workload: DaemonWorkload, spec: ModelSpec, seconds: float, rng: np.random.Generator
) -> List[Tuple[float, np.ndarray]]:
    """Arrivals at a fixed rate over ``seconds``: (offset from phase start, queries).

    Evenly spaced from a seeded phase.  Poisson arrivals were tried first:
    with 200 requests per run, where their bursts fell decided p95, which
    then spread by 15-38% between seeds.  Even spacing keeps the queueing
    that service-time variation causes and drops the sampling noise.
    """
    count = int(np.ceil(workload.rate_per_s * seconds - 1e-9))
    offsets = (np.arange(count) + rng.uniform()) / workload.rate_per_s
    return [(float(offset), query_batch(rng, spec, 1)) for offset in offsets]


def closed_loop_requests(
    spec: ModelSpec, count: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """A pool of 1-query requests the closed-loop clients cycle through."""
    return [query_batch(rng, spec, 1) for _ in range(count)]
