"""One computing party of the networked 2PC runtime.

The paper deploys a searched network on *two physically separate* computing
parties.  This module is the per-party half of that deployment: a worker
that holds exactly one share-world (its input share, its half of the
correlated randomness) and jointly executes a compiled
:class:`~repro.crypto.plan.InferencePlan` with the peer over a
:class:`~repro.crypto.transport.Transport`.

How one program serves both parties
-----------------------------------

Every protocol in :mod:`repro.crypto.protocols` is written in SPMD form:
expressions that produce party-*i* values read only party-*i* inputs plus
values opened on the channel.  A party process therefore runs the *same*
program as the single-process simulation, with:

- its own share-world genuine and the other world zero-filled (the other
  world's expressions compute garbage that is never consumed and never put
  on the wire);
- a :class:`~repro.crypto.channel.PartyChannel`, so every opened value is
  recombined from the share that genuinely crossed the transport;
- a :class:`~repro.crypto.dealer.RandomnessPool` regenerated from the shared
  session seed and then restricted to this party's world
  (:meth:`~repro.crypto.dealer.RandomnessPool.restrict_to_party`).

Because the randomness streams and openings are identical to the
single-process compiled path, the reconstructed logits are bit-identical to
it — and the measured on-wire payload bytes equal the manifest prediction,
which :func:`verify_against_plan` asserts after every run.

Invariants (relied on by the persistent server and the serving pool):

1. **one share-world per process** — a party process never holds, receives
   or derives the peer's genuine shares; the other world's lanes of the
   SPMD program carry zero-filled garbage that is never consumed and never
   put on the wire (``RandomnessPool.restrict_to_party`` enforces this for
   the dealer material);
2. **canonical-order exchange** — party 0 sends first, party 1 receives
   first, and both parties log the full conversation in that order, so the
   two logs are identical to each other and to the simulated channel's,
   and the transport needs no concurrent send/receive to be deadlock-free;
3. **payload == manifest** — after every execution, logged bytes, logged
   rounds and per-direction on-wire payload bytes must equal the compiled
   plan's static prediction exactly; a deviation is an error, not a
   warning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.crypto.channel import PartyChannel
from repro.crypto.context import TwoPartyContext
from repro.crypto.dealer import RandomnessPool, TrustedDealer
from repro.crypto.events import bytes_saved_pct as _bytes_saved_pct
from repro.crypto.passes import serving_plan
from repro.crypto.ring import DEFAULT_RING, FixedPointRing
from repro.crypto.scheduler import predicted_rounds, run_plan
from repro.crypto.sharing import SharePair
from repro.crypto.transport import TcpListener, TransportEndpoint, WireStats
from repro.models.specs import ModelSpec


@dataclass
class PartyJob:
    """Everything one party needs to join a two-process inference session.

    Both parties compile the job into the same serving plan
    (:func:`repro.crypto.passes.serving_plan`) and execute its
    round-coalescing, kernel-lowered schedule.
    """

    spec: ModelSpec
    weights: Dict[str, Dict[str, np.ndarray]]
    batch_size: int
    seed: int
    input_share: np.ndarray
    ring: FixedPointRing = DEFAULT_RING


@dataclass
class PartyExecution:
    """Outcome of one plan execution from a single party's perspective."""

    party: int
    logit_share: np.ndarray
    communication_bytes: int
    communication_rounds: int
    per_layer_bytes: Dict[str, int] = field(default_factory=dict)
    #: frame-format-v1 equivalent of ``communication_bytes`` (no sub-byte
    #: packing) — the denominator of the ``bytes_saved`` serving stats
    unpacked_bytes: int = 0
    #: local-compute time of the online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: per-op attribution of ``cpu_time_ns``
    per_op_cpu_ns: Dict[str, int] = field(default_factory=dict)
    #: fused-kernel invocations (0 on the un-lowered path)
    fused_kernel_calls: int = 0


@dataclass
class PartyReport:
    """What a party worker sends back to the driver after a session."""

    party: int
    logit_share: np.ndarray
    communication_bytes: int
    communication_rounds: int
    per_layer_bytes: Dict[str, int]
    payload_bytes_sent: int
    payload_bytes_received: int
    wire_bytes_sent: int
    wire_bytes_received: int
    frames_sent: int
    offline_seconds: float
    online_seconds: float
    pool_served: int
    #: unpacked (frame format v1) equivalent of ``communication_bytes``
    unpacked_payload_bytes: int = 0
    #: local-compute time of the online phase (wire waits excluded)
    cpu_time_ns: int = 0
    #: fused-kernel invocations of the session (0 on the un-lowered path)
    fused_kernel_calls: int = 0

    @property
    def bytes_saved_pct(self) -> float:
        """Percent of payload the packed wire format saved this session."""
        return _bytes_saved_pct(self.communication_bytes, self.unpacked_payload_bytes)


def predicted_direction_bytes(plan, sender: int) -> int:
    """Manifest-predicted online payload bytes flowing out of ``sender``."""
    return sum(
        num_bytes
        for op in plan.ops
        for msg_sender, num_bytes in op.messages
        if msg_sender == sender
    )


def verify_against_plan(
    plan, execution: PartyExecution, stats: WireStats
) -> None:
    """Assert the measured traffic equals the plan's static prediction.

    ``plan`` is the executed artifact — a
    :class:`~repro.crypto.plan.InferencePlan` for the sequential path or a
    :class:`~repro.crypto.passes.ScheduledPlan` for the round-coalescing
    path; byte predictions are identical, round predictions are
    mode-specific (see :func:`repro.crypto.scheduler.predicted_rounds`).
    Checks three layers of accounting against the manifest: the party's
    communication log (both directions), the payload bytes its transport
    actually serialized onto the wire, and the payload bytes it received.
    """
    party = execution.party
    checks = [
        ("logged online bytes", execution.communication_bytes, plan.online_bytes),
        ("logged online rounds", execution.communication_rounds, predicted_rounds(plan)),
        (
            "on-wire payload bytes sent",
            stats.payload_bytes_sent,
            predicted_direction_bytes(plan, party),
        ),
        (
            "on-wire payload bytes received",
            stats.payload_bytes_received,
            predicted_direction_bytes(plan, 1 - party),
        ),
    ]
    for name, measured, predicted in checks:
        if measured != predicted:
            raise RuntimeError(
                f"party {party}: {name} = {measured} does not match the "
                f"manifest prediction {predicted} for plan "
                f"{plan.model_name!r} (batch {plan.batch_size})"
            )


def execute_plan_as_party(
    ctx: TwoPartyContext,
    party: int,
    plan,
    weights: Dict[str, Dict[str, np.ndarray]],
    input_share: np.ndarray,
    pool: Optional[RandomnessPool] = None,
) -> PartyExecution:
    """Run the online phase of ``plan`` holding only ``party``'s share-world.

    ``plan`` is anything :func:`repro.crypto.scheduler.run_plan` executes:
    the serving path's :class:`~repro.crypto.passes.LoweredPlan`
    (round-coalescing execution over multi-tensor round frames), or a bare
    :class:`~repro.crypto.plan.InferencePlan` (the sequential reference) —
    the reconstructed logits are bit-identical either way.

    ``ctx.channel`` must be a :class:`PartyChannel` for the same party (or a
    simulated channel in tests).  ``input_share`` is this party's additive
    share of the encoded query batch; the peer holds the complementary one.
    One RNG draw of the input shape is burned first to keep ``ctx.rng``
    aligned with the reference stream of the single-process path (which
    draws the sharing mask from the same generator).
    """
    input_share = np.asarray(input_share, dtype=np.uint64)
    if tuple(input_share.shape) != plan.input_shape:
        raise ValueError(
            f"plan expects input share of shape {plan.input_shape}, "
            f"got {input_share.shape}"
        )
    if pool is None:
        pool = ctx.dealer.preprocess(plan)

    ring = ctx.ring
    ring.random(plan.input_shape, ctx.rng)  # burn the sharing-mask draw
    zeros = np.zeros(plan.input_shape, dtype=np.uint64)
    if party == 0:
        shared = SharePair(input_share, zeros, ring)
    else:
        shared = SharePair(zeros, input_share, ring)

    ctx.reset_communication()
    run = run_plan(ctx, plan, weights, shared, pool=pool)
    return PartyExecution(
        party=party,
        logit_share=run.output.share0 if party == 0 else run.output.share1,
        communication_bytes=ctx.communication_bytes,
        communication_rounds=ctx.communication_rounds,
        per_layer_bytes=run.per_op_bytes,
        unpacked_bytes=ctx.channel.log.total_unpacked_bytes,
        cpu_time_ns=run.cpu_time_ns,
        per_op_cpu_ns=run.per_op_cpu_ns,
        fused_kernel_calls=run.fused_kernel_calls,
    )


def run_party_session(
    job: PartyJob, endpoint: TransportEndpoint, verify: bool = True
) -> PartyReport:
    """Execute one inference session as the party given by ``endpoint``.

    Establishes the inter-party connection, deterministically regenerates
    the offline randomness from the shared session seed, restricts it to
    this party's share-world, runs the online phase and (by default)
    verifies the measured traffic against the plan manifest.
    """
    party = endpoint.party
    transport = endpoint.open()
    try:
        channel = PartyChannel(transport, party, ring=job.ring)
        ctx = TwoPartyContext(ring=job.ring, seed=job.seed, channel=channel)

        offline_start = time.perf_counter()
        plan = serving_plan(job.spec, job.batch_size, job.ring)
        dealer = TrustedDealer(ring=job.ring, seed=job.seed)
        pool = dealer.preprocess(plan).restrict_to_party(party)
        offline_seconds = time.perf_counter() - offline_start

        online_start = time.perf_counter()
        execution = execute_plan_as_party(
            ctx, party, plan, job.weights, job.input_share, pool=pool
        )
        online_seconds = time.perf_counter() - online_start

        if verify:
            verify_against_plan(plan, execution, transport.stats)
        return PartyReport(
            party=party,
            logit_share=execution.logit_share,
            communication_bytes=execution.communication_bytes,
            communication_rounds=execution.communication_rounds,
            per_layer_bytes=execution.per_layer_bytes,
            payload_bytes_sent=transport.stats.payload_bytes_sent,
            payload_bytes_received=transport.stats.payload_bytes_received,
            wire_bytes_sent=transport.stats.wire_bytes_sent,
            wire_bytes_received=transport.stats.wire_bytes_received,
            frames_sent=transport.stats.frames_sent,
            offline_seconds=offline_seconds,
            online_seconds=online_seconds,
            pool_served=pool.served,
            unpacked_payload_bytes=execution.unpacked_bytes,
            cpu_time_ns=execution.cpu_time_ns,
            fused_kernel_calls=execution.fused_kernel_calls,
        )
    finally:
        transport.close()


def run_party_worker(conn, party: int, host: str, port: int, timeout: float = 120.0) -> None:
    """Entry point for one party OS process (``multiprocessing.Process``).

    Receives a :class:`PartyJob` over the driver's control pipe (the stand-in
    for the client/dealer provisioning path — *not* part of the measured
    inter-server traffic), runs the session over TCP, and sends back either a
    :class:`PartyReport` or the exception that ended the session.

    With ``port <= 0`` party 0 binds an ephemeral port itself and announces
    the kernel-assigned port over the pipe (``("bound-port", port)``) before
    accepting — the driver forwards it to party 1, so no free-then-bind race
    exists end to end.
    """
    try:
        job: PartyJob = conn.recv()
        listener = None
        if party == 0 and port <= 0:
            listener = TcpListener(host=host, port=0)
            conn.send(("bound-port", listener.port))
            port = listener.port
        endpoint = TransportEndpoint(
            party=party, host=host, port=port, timeout=timeout, listener=listener
        )
        report = run_party_session(job, endpoint)
        conn.send(report)
    except Exception as exc:  # surface the failure to the driver, then re-raise
        try:
            conn.send(exc)
        except Exception:
            pass
        raise
    finally:
        conn.close()
