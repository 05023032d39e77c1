"""Plan and randomness-pool cache keyed by ``(model, batch_size)``.

Compiling a plan is pure CPU work and a randomness pool is single-use
correlated randomness: a serving deployment therefore keeps compiled plans
forever and maintains a buffer of pre-provisioned pools per (model, batch
size) that an offline provisioner refills.  A dispatch that finds the buffer
empty falls back to generating a pool on the spot — correct but paying
offline latency on the serving path, which the cache counts as a *cold
miss* so operators can size provisioning.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.crypto.dealer import RandomnessPool, TrustedDealer
from repro.crypto.passes import serving_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.models.specs import ModelSpec


@dataclass
class ServableModel:
    """A deployable model: its layer spec and exported layer weights."""

    spec: ModelSpec
    weights: Dict[str, Dict[str, np.ndarray]]


@dataclass
class CacheStats:
    """Counters describing how well provisioning kept up with traffic."""

    plans_compiled: int = 0
    pools_provisioned: int = 0
    pools_served: int = 0
    cold_pool_misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "plans_compiled": self.plans_compiled,
            "pools_provisioned": self.pools_provisioned,
            "pools_served": self.pools_served,
            "cold_pool_misses": self.cold_pool_misses,
        }


class PlanPoolCache:
    """Compiled plans + pre-provisioned randomness pools per (model, batch).

    Thread-safe: the serving dispatcher and an offline provisioner thread
    may call into the cache concurrently.
    """

    def __init__(
        self,
        ring: Optional[FixedPointRing] = None,
        seed: int = 0,
    ) -> None:
        self.ring = ring or DEFAULT_RING
        self.dealer = TrustedDealer(ring=self.ring, seed=seed)
        self.stats = CacheStats()
        self._plans: Dict[Tuple[str, int], object] = {}
        self._pools: Dict[Tuple[str, int], Deque[RandomnessPool]] = {}
        self._lock = threading.Lock()

    def plan(self, spec: ModelSpec, batch_size: int):
        """The serving plan for ``(spec.name, batch_size)``; compiles once.

        The cached artifact is the round-coalescing, kernel-lowered
        :class:`~repro.crypto.passes.LoweredPlan` of
        :func:`repro.crypto.passes.serving_plan`.
        """
        key = (spec.name, batch_size)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = serving_plan(spec, batch_size, self.ring)
                self._plans[key] = plan
                self.stats.plans_compiled += 1
            return plan

    def provision(self, spec: ModelSpec, batch_size: int, count: int = 1) -> int:
        """Pre-generate ``count`` pools for ``(spec.name, batch_size)``.

        Meant to run off the serving path (startup or a background refill
        thread).  Returns the number of pools now buffered for that key.
        """
        plan = self.plan(spec, batch_size)
        manifest = plan.manifest
        pools = []
        for _ in range(count):
            # Dealer access is serialized; generation dominates, so hold the
            # lock only around the shared dealer RNG.
            with self._lock:
                pools.append(self.dealer.preprocess(manifest))
                self.stats.pools_provisioned += 1
        key = (spec.name, batch_size)
        with self._lock:
            bucket = self._pools.setdefault(key, deque())
            bucket.extend(pools)
            return len(bucket)

    def acquire_pool(self, spec: ModelSpec, batch_size: int) -> RandomnessPool:
        """Pop a provisioned pool, or generate one cold (counted as a miss)."""
        plan = self.plan(spec, batch_size)
        key = (spec.name, batch_size)
        with self._lock:
            bucket = self._pools.get(key)
            if bucket:
                self.stats.pools_served += 1
                return bucket.popleft()
            self.stats.cold_pool_misses += 1
            self.stats.pools_served += 1
            return self.dealer.preprocess(plan.manifest)

    def buffered_pools(self, model_name: str, batch_size: int) -> int:
        with self._lock:
            return len(self._pools.get((model_name, batch_size), ()))
