"""The online-phase executor.

:func:`run_plan` is the one executor behind every online phase — the
in-process engine (:meth:`repro.crypto.secure_model.SecureInferenceEngine.execute`
and the interpretive :meth:`~repro.crypto.secure_model.SecureInferenceEngine.run`)
and the networked party runtime (:func:`repro.runtime.party.execute_plan_as_party`).
It accepts three artifacts:

- a :class:`~repro.crypto.passes.ScheduledPlan` (or its
  :class:`~repro.crypto.passes.LoweredPlan` subclass): the round-coalescing
  execution.  The executor walks the :class:`~repro.crypto.passes.PlanSchedule`
  level by level, drives the phase generators of all the level's ops in
  lock-step, and hands each round's merged event group to
  :meth:`repro.crypto.channel.Channel.run_round` — so the *scheduler*, not
  the protocol handlers, decides what hits the wire, and every coalesced
  round is one framed message per direction.  Events carry their wire
  element width (``element_bits``), so the per-op byte attribution and the
  round frames themselves both account sub-byte payloads at packed widths —
  identical to the manifest's round trace;
- a bare :class:`~repro.crypto.plan.InferencePlan`: the sequential
  reference, one protocol handler call per op;
- a :class:`~repro.models.specs.ModelSpec`: the same sequential loop over
  the spec's layers, with no compilation (the interpretive path).

Bit-identity with the sequential path
-------------------------------------

Each op must consume exactly the correlated randomness it would have drawn
in a sequential execution (local truncation makes the reconstructed logits
sensitive to the dealer stream).  When the online phase runs against a
:class:`~repro.crypto.dealer.RandomnessPool`, the pool is first partitioned
per op **in manifest order** (:meth:`RandomnessPool.partition`), so an op's
draws are independent of how the scheduler interleaves the level's
generators.  For chain-structured plans (every zoo model) the context RNG
stream is also consumed in sequential order — levels hold one op — making
scheduled execution bit-identical to the unoptimized compiled path, which
the round-coalescing benchmark asserts zoo-wide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool
from repro.crypto.events import as_group, group_direction_bytes
from repro.crypto.kernels import KernelContext, arena_for
from repro.crypto.passes import LoweredPlan, ScheduledPlan
from repro.crypto.plan import PLAN_INPUT, InferencePlan
from repro.crypto.protocols.registry import get_handler
from repro.crypto.sharing import SharePair
from repro.models.specs import LayerSpec, ModelSpec


@dataclass
class OnlineExecution:
    """What one online-phase execution produced."""

    #: the final op's output shares
    output: SharePair
    #: exact per-op online bytes (independent of how rounds were merged)
    per_op_bytes: Dict[str, int]
    #: per-op local-compute time (protocol handler time, wire waits excluded)
    per_op_cpu_ns: Dict[str, int]
    #: fused-kernel invocations (0 on the reference, un-lowered path)
    fused_kernel_calls: int = 0

    @property
    def cpu_time_ns(self) -> int:
        return sum(self.per_op_cpu_ns.values())


def arena_key(splan: ScheduledPlan) -> Tuple:
    """The workspace-arena key of one plan: same model, batch and ring
    parameters share scratch buffers and encoded-constant caches across
    jobs (see :func:`repro.crypto.kernels.arena_for`)."""
    ring = splan.ring
    return (splan.model_name, splan.batch_size, ring.ring_bits, ring.frac_bits)


def predicted_rounds(plan) -> int:
    """The round count :func:`run_plan` logs executing ``plan``.

    A :class:`~repro.crypto.passes.ScheduledPlan` executes coalesced, so its
    scheduled count applies; a bare :class:`InferencePlan` executes
    sequentially and must match the legacy trace-derived count.
    """
    if isinstance(plan, ScheduledPlan):
        return plan.online_rounds
    return plan.legacy_online_rounds


def run_plan(
    ctx: TwoPartyContext,
    plan: Union[InferencePlan, ScheduledPlan, ModelSpec],
    weights: Dict[str, Dict],
    shared: SharePair,
    pool: Optional[RandomnessPool] = None,
) -> OnlineExecution:
    """Execute the online phase of ``plan`` on the input shares ``shared``.

    Args:
        ctx: the party's (or the simulation's) two-party context; for a
            scheduled plan its channel must support
            :meth:`~repro.crypto.channel.Channel.run_round`.
        plan: a scheduled or lowered plan, a bare compiled plan, or a model
            spec (see the module docstring).
        weights: mapping layer-name -> parameter dict.
        shared: the share pair of the client query batch.
        pool: the preprocessed randomness.  Installed as ``ctx.dealer`` for
            the duration of the run; when omitted the context's own dealer
            serves (generating lazily for a live dealer).

    For a :class:`~repro.crypto.passes.LoweredPlan` the executor installs a
    :class:`~repro.crypto.kernels.KernelContext` on ``ctx`` for the duration
    of the run (unless the caller already installed one): the protocol
    handlers then dispatch their local compute to the plan's fused kernels,
    sharing one per-``(plan, batch)`` workspace arena across jobs.
    """
    outer_dealer, outer_kernels = ctx.dealer, ctx.kernels
    if pool is not None:
        ctx.dealer = pool
    if outer_kernels is None and isinstance(plan, LoweredPlan):
        ctx.kernels = KernelContext(arena=arena_for(arena_key(plan)))
    kernels = ctx.kernels
    fused_before = kernels.fused_calls if kernels is not None else 0
    try:
        if isinstance(plan, ScheduledPlan):
            run = _run_scheduled(ctx, plan, weights, shared)
        elif isinstance(plan, ModelSpec):
            run = _run_sequential(ctx, plan.layers, weights, shared)
        else:
            run = _run_sequential(ctx, [op.layer for op in plan.ops], weights, shared)
    finally:
        ctx.dealer = outer_dealer
        ctx.kernels = outer_kernels
    if kernels is not None:
        run.fused_kernel_calls = kernels.fused_calls - fused_before
    return run


def _run_sequential(
    ctx: TwoPartyContext,
    layers: Sequence[LayerSpec],
    weights: Dict[str, Dict],
    shared: SharePair,
) -> OnlineExecution:
    """One protocol handler call per layer, in order."""
    cache: Dict[str, SharePair] = {}
    per_op_bytes: Dict[str, int] = {}
    per_op_cpu: Dict[str, int] = {}
    clock = time.perf_counter_ns
    for layer in layers:
        before = ctx.communication_bytes
        handler = get_handler(layer.kind)
        started = clock()
        shared = handler.execute(ctx, layer, weights.get(layer.name, {}), shared, cache)
        per_op_cpu[layer.name] = clock() - started
        cache[layer.name] = shared
        per_op_bytes[layer.name] = ctx.communication_bytes - before
    return OnlineExecution(shared, per_op_bytes, per_op_cpu)


def _run_scheduled(
    ctx: TwoPartyContext,
    splan: ScheduledPlan,
    weights: Dict[str, Dict],
    shared: SharePair,
) -> OnlineExecution:
    """Level-by-level lock-step execution of the round schedule.

    Swaps ``ctx.dealer`` per op; :func:`run_plan` restores it.
    """
    plan = splan.plan
    if not plan.ops:
        return OnlineExecution(shared, {}, {})
    cache: Dict[str, SharePair] = {}
    values: Dict[str, SharePair] = {PLAN_INPUT: shared}
    per_op_bytes: Dict[str, int] = {op.name: 0 for op in plan.ops}
    per_op_cpu: Dict[str, int] = {op.name: 0 for op in plan.ops}

    outer_dealer = ctx.dealer
    if isinstance(outer_dealer, RandomnessPool):
        op_pools = outer_dealer.partition([op.requests for op in plan.ops])
    else:
        # lazy dealer: generation order equals consumption order, which for
        # chain plans (one op per level) matches the sequential stream
        op_pools = [outer_dealer] * len(plan.ops)

    clock = time.perf_counter_ns
    rounds_executed = 0
    for level in splan.schedule.levels:
        live: Dict[int, Tuple[object, Optional[tuple]]] = {}
        for op_index in level:
            op = plan.ops[op_index]
            handler = get_handler(op.kind)
            gen = handler.phases(
                ctx, op.layer, weights.get(op.name, {}), values[op.uses[0]], cache
            )
            live[op_index] = (gen, None)
        while live:
            round_entries = []
            for op_index in sorted(live):
                gen, feed = live[op_index]
                ctx.dealer = op_pools[op_index]
                started = clock()
                try:
                    group = as_group(gen.send(feed))
                except StopIteration as stop:
                    op = plan.ops[op_index]
                    per_op_cpu[op.name] += clock() - started
                    values[op.name] = stop.value
                    cache[op.name] = stop.value
                    del live[op_index]
                    continue
                per_op_cpu[plan.ops[op_index].name] += clock() - started
                round_entries.append((op_index, group))
            if round_entries:
                flat = [event for _, group in round_entries for event in group]
                results = ctx.channel.run_round(flat)
                rounds_executed += 1
                position = 0
                for op_index, group in round_entries:
                    count = len(group)
                    live[op_index] = (
                        live[op_index][0],
                        tuple(results[position : position + count]),
                    )
                    position += count
                    from_0, from_1 = group_direction_bytes(
                        group, ctx.channel.element_bytes
                    )
                    per_op_bytes[plan.ops[op_index].name] += from_0 + from_1

    if rounds_executed != splan.schedule.num_rounds:
        raise RuntimeError(
            f"scheduled execution of {plan.model_name!r} performed "
            f"{rounds_executed} rounds but the schedule predicted "
            f"{splan.schedule.num_rounds} — a protocol handler's phase "
            "generator has drifted from its trace"
        )
    return OnlineExecution(values[plan.ops[-1].name], per_op_bytes, per_op_cpu)
