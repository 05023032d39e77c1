"""Correctness checks, run after the timed window.

- Replay: an accepted reply is re-executed in-process at its job seed and
  must match bit for bit.
- Fidelity: secure argmax against the plaintext model's forward pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.specs import ModelSpec

from perfbench.workloads import plaintext_logits

COMPUTE_KINDS = ("relu", "maxpool", "x2act", "conv", "linear")


@dataclass
class Replay:
    """In-process executions of sampled jobs, with what they cost."""

    mismatches: int = 0
    jobs: int = 0
    compile_ms: List[float] = field(default_factory=list)
    preprocess_ms: List[float] = field(default_factory=list)
    online_rounds: List[int] = field(default_factory=list)
    compute_ms: Dict[str, List[float]] = field(default_factory=dict)

    def add_compute(self, spec: ModelSpec, per_op_cpu_ns: Dict[str, int]) -> None:
        per_kind = kind_compute_ms(spec, per_op_cpu_ns)
        for kind, value in per_kind.items():
            self.compute_ms.setdefault(kind, []).append(value)


def kind_compute_ms(spec: ModelSpec, per_op_cpu_ns: Dict[str, int]) -> Dict[str, float]:
    """Group one execution's per-op CPU time by layer kind, in ms."""
    totals = {kind: 0.0 for kind in COMPUTE_KINDS + ("other",)}
    for name, ns in per_op_cpu_ns.items():
        kind = spec.layer(name).kind
        key = kind.value if kind.value in COMPUTE_KINDS else "other"
        totals[key] += ns / 1e6
    return totals


def run_job(spec: ModelSpec, weights, queries: np.ndarray, seed: int, replay: Replay):
    """Compile, preprocess and execute one job at ``seed``; note its costs."""
    engine = SecureInferenceEngine(make_context(seed=seed))
    started = time.perf_counter()
    plan = engine.compile(spec, batch_size=len(queries), lower=True)
    compiled = time.perf_counter()
    pool = engine.preprocess(plan)
    preprocessed = time.perf_counter()
    result = engine.execute(plan, weights, queries, pool=pool)
    replay.jobs += 1
    replay.compile_ms.append(1e3 * (compiled - started))
    replay.preprocess_ms.append(1e3 * (preprocessed - compiled))
    replay.online_rounds.append(result.communication_rounds)
    replay.add_compute(spec, result.per_op_cpu_ns)
    return result


def self_contained(outcomes: Sequence) -> List:
    """Answered requests that were alone in their job.

    Replaying needs the job's exact rows in order; a request whose queries
    all ran in one job that held nothing else is such a job.
    """
    rows_per_seed: Dict[int, int] = {}
    for outcome in outcomes:
        for seed in outcome.job_seeds:
            rows_per_seed[seed] = rows_per_seed.get(seed, 0) + 1
    alone = []
    for outcome in outcomes:
        seeds = set(outcome.job_seeds)
        if len(seeds) == 1:
            (seed,) = seeds
            if rows_per_seed[seed] == len(outcome.job_seeds):
                alone.append(outcome)
    return alone


def replay_sample(
    spec: ModelSpec, weights, answered: Sequence, sample: int, rng: np.random.Generator
) -> Replay:
    """Replay up to ``sample`` self-contained replies; count mismatches."""
    replay = Replay()
    candidates = self_contained(answered)
    if not candidates:
        raise RuntimeError("no reply ran alone in its job, so none can be replayed")
    picks = rng.choice(len(candidates), size=min(sample, len(candidates)), replace=False)
    for index in sorted(picks):
        outcome = candidates[index]
        result = run_job(spec, weights, outcome.queries, outcome.job_seeds[0], replay)
        if not np.array_equal(result.logits, outcome.logits):
            replay.mismatches += 1
    return replay


@dataclass
class Fidelity:
    agreement: float
    max_abs_err: float


def fidelity(net, queries: np.ndarray, secure_logits: np.ndarray) -> Fidelity:
    """Secure logits against the plaintext model on the same queries."""
    plain = plaintext_logits(net, queries)
    agree = float(np.mean(plain.argmax(axis=1) == secure_logits.argmax(axis=1)))
    return Fidelity(agree, float(np.max(np.abs(plain - secure_logits))))
