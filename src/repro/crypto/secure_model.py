"""End-to-end 2PC private inference over a derived PASNet architecture.

The :class:`SecureInferenceEngine` executes a model specification under
simulated 2PC in one of two modes, both driven by the one online executor
(:func:`repro.crypto.scheduler.run_plan`), which dispatches every layer
through the protocol registry (:mod:`repro.crypto.protocols.registry`):

- **interpretive** (:meth:`SecureInferenceEngine.run`): walk the spec layer
  by layer, pulling correlated randomness lazily from the live
  :class:`~repro.crypto.dealer.TrustedDealer` — the simple single-query
  path, kept as the reference semantics;
- **compiled** (:meth:`compile` → :meth:`preprocess` → :meth:`execute`):
  lower the spec into an :class:`~repro.crypto.plan.InferencePlan` once,
  pre-generate *all* correlated randomness from the plan's preprocessing
  manifest in an offline phase, then run the low-latency online phase —
  batched over N client queries — against the resulting randomness pool
  with **zero** dealer generation calls.  This is the executable
  counterpart of the paper's offline/online deployment split (Fig. 3) and
  amortizes both compilation and preprocessing across batched traffic.

Because the manifest preserves randomness-consumption order, the two modes
are bit-identical: same logits, same communication log.

The client secret-shares its query between the two servers; the model
weights live with the model vendor (server 0) and are therefore evaluated
with the "public weight" protocol variants (no weight-sharing triples), which
matches Delphi-style deployments and the paper's latency model where weight
transfers are not part of the online communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.crypto.context import TwoPartyContext, make_context
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.passes import optimize_plan, serving_plan
from repro.crypto.plan import PreprocessingManifest, compile_plan
from repro.crypto.scheduler import OnlineExecution, run_plan
from repro.crypto.sharing import reconstruct, share
from repro.models.specs import ModelSpec


@dataclass
class SecureInferenceResult:
    """Outputs of a private-inference run.

    ``communication_bytes`` / ``communication_rounds`` cover the **online**
    phase only; for compiled runs the offline cost is reported separately as
    the randomness material volume and the per-kind element counts.
    """

    logits: np.ndarray
    communication_bytes: int
    communication_rounds: int
    per_layer_bytes: Dict[str, int] = field(default_factory=dict)
    batch_size: int = 1
    offline_material_bytes: int = 0
    offline_triple_elements: int = 0
    offline_square_pair_elements: int = 0
    offline_bit_triple_elements: int = 0
    offline_dabit_elements: int = 0
    #: frame-format-v1 equivalent of ``communication_bytes`` (no sub-byte
    #: packing) — what the same execution would have shipped before the
    #: packed wire format
    communication_unpacked_bytes: int = 0
    #: local-compute time of the online phase (protocol handler time, wire
    #: waits excluded), summed over ops
    cpu_time_ns: int = 0
    #: per-op local-compute attribution of ``cpu_time_ns``
    per_op_cpu_ns: Dict[str, int] = field(default_factory=dict)
    #: fused-kernel invocations (0 on the reference, un-lowered path)
    fused_kernel_calls: int = 0

    @property
    def online_bytes_per_query(self) -> float:
        return self.communication_bytes / max(self.batch_size, 1)

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of online payload the packed wire format saves (0-100)."""
        return _bytes_saved_pct(
            self.communication_bytes, self.communication_unpacked_bytes
        )


class SecureInferenceEngine:
    """Runs a :class:`repro.models.specs.ModelSpec` under simulated 2PC."""

    def __init__(self, ctx: Optional[TwoPartyContext] = None) -> None:
        self.ctx = ctx or make_context()

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def compile(
        self,
        spec: ModelSpec,
        batch_size: int = 1,
        optimize: bool = False,
        lower: bool = False,
    ):
        """Lower ``spec`` into a plan for this engine's ring and batch size.

        With ``optimize=True`` the optimizer pass pipeline
        (:func:`repro.crypto.passes.optimize_plan`) runs on the compiled
        graph and a :class:`~repro.crypto.passes.ScheduledPlan` is returned;
        executing it coalesces independent openings into shared rounds.
        ``lower=True`` (implies ``optimize``) additionally binds the schedule
        to the fused local-compute kernels, returning the
        :class:`~repro.crypto.passes.LoweredPlan` every serving path runs
        (:func:`repro.crypto.passes.serving_plan`) — same wire behavior,
        bit-identical logits, fewer numpy passes per op.
        """
        if lower:
            return serving_plan(spec, batch_size, self.ctx.ring)
        plan = compile_plan(spec, batch_size=batch_size, ring=self.ctx.ring)
        return optimize_plan(plan) if optimize else plan

    def preprocess(self, plan) -> RandomnessPool:
        """Generate the plan's correlated randomness from the live dealer."""
        return self.ctx.dealer.preprocess(plan)

    # ------------------------------------------------------------------ #
    # Online phase (compiled)
    # ------------------------------------------------------------------ #
    def execute(
        self,
        plan,
        weights: Dict[str, Dict[str, np.ndarray]],
        inputs: np.ndarray,
        pool: Optional[RandomnessPool] = None,
    ) -> SecureInferenceResult:
        """Execute the online phase of a compiled plan on a query batch.

        Args:
            plan: a compiled :class:`InferencePlan` (sequential reference
                execution) or an optimized
                :class:`~repro.crypto.passes.ScheduledPlan` (round-coalescing
                execution; see :meth:`compile` with ``optimize=True``).  The
                two are bit-identical in logits; the scheduled path logs
                fewer communication rounds.
            weights: mapping layer-name -> parameter dict as produced by
                :func:`repro.models.builder.export_layer_weights`.
            inputs: plaintext client queries, NCHW float array whose batch
                dimension must equal ``plan.batch_size``.
            pool: the preprocessed randomness (see :meth:`preprocess`).
                When omitted, preprocessing runs implicitly first — the
                result is the same, only un-amortized.

        Returns:
            A :class:`SecureInferenceResult`; its communication counters are
            pure online cost (the dealer performs zero generation calls).
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[0] != plan.batch_size:
            raise ValueError(
                f"plan was compiled for batch size {plan.batch_size}, "
                f"got a batch of {inputs.shape[0]}"
            )
        if tuple(inputs.shape) != plan.input_shape:
            raise ValueError(
                f"plan expects input shape {plan.input_shape}, got {inputs.shape}"
            )
        if pool is None:
            pool = self.preprocess(plan)

        ctx = self.ctx
        ctx.reset_communication()
        shared = share(inputs, ctx.ring, ctx.rng)
        # online phase: the pool serves every draw, the dealer generates nothing
        run = run_plan(ctx, plan, weights, shared, pool=pool)
        return self._result(ctx, run, plan.batch_size, plan.manifest)

    # ------------------------------------------------------------------ #
    # Interpretive mode (lazy dealer, reference semantics)
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: ModelSpec,
        weights: Dict[str, Dict[str, np.ndarray]],
        inputs: np.ndarray,
    ) -> SecureInferenceResult:
        """Execute private inference layer by layer with a lazy dealer.

        Args:
            spec: the model layer specification (a *derived* architecture —
                every activation is concretely ReLU or X^2act).
            weights: mapping layer-name -> parameter dict as produced by
                :func:`repro.models.builder.export_layer_weights`.
            inputs: plaintext client query, NCHW float array.

        Returns:
            A :class:`SecureInferenceResult` with plaintext logits and the
            measured communication.
        """
        ctx = self.ctx
        ctx.reset_communication()
        inputs = np.asarray(inputs, dtype=np.float64)
        shared = share(inputs, ctx.ring, ctx.rng)
        run = run_plan(ctx, spec, weights, shared)
        return self._result(ctx, run, int(inputs.shape[0]))

    @staticmethod
    def _result(
        ctx: TwoPartyContext,
        run: OnlineExecution,
        batch_size: int,
        manifest: Optional[PreprocessingManifest] = None,
    ) -> SecureInferenceResult:
        """Package one online execution with the context's communication log
        (and, for compiled runs, the plan's offline cost)."""
        offline = {}
        if manifest is not None:
            offline = dict(
                offline_material_bytes=manifest.material_bytes,
                offline_triple_elements=manifest.triple_elements,
                offline_square_pair_elements=manifest.square_pair_elements,
                offline_bit_triple_elements=manifest.bit_triple_elements,
                offline_dabit_elements=manifest.dabit_elements,
            )
        return SecureInferenceResult(
            logits=reconstruct(run.output),
            communication_bytes=ctx.communication_bytes,
            communication_rounds=ctx.communication_rounds,
            per_layer_bytes=run.per_op_bytes,
            batch_size=batch_size,
            communication_unpacked_bytes=ctx.channel.log.total_unpacked_bytes,
            cpu_time_ns=run.cpu_time_ns,
            per_op_cpu_ns=run.per_op_cpu_ns,
            fused_kernel_calls=run.fused_kernel_calls,
            **offline,
        )
