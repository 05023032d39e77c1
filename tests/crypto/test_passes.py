"""Tests for the graph-plan IR, the optimizer pass pipeline and the
round-coalescing scheduler.

Key invariants:

- the compiled plan is a genuine DAG: explicit defs/uses, dependency
  indices, topological levelization;
- dead-op elimination drops unreachable ops *and* their manifest demand;
- the round schedule's predictions (rounds, per-round bytes) match the
  coalesced execution's log exactly, and scheduled execution is
  bit-identical to the sequential reference across the zoo;
- a compiled+optimized plan round-trips through to-dict/from-dict with
  bit-identical execution (plan serialization satellite);
- the kernel-lowering stage is a pure annotation: it preserves the plan,
  schedule and manifest, and the lowered execution is bit-identical to the
  sequential reference across the zoo while taking the fused path.
"""

from __future__ import annotations

import json
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.dealer import TrustedDealer
from repro.crypto.passes import (
    LoweredPlan,
    ScheduledPlan,
    dead_op_elimination,
    levelize,
    lower_plan,
    optimize_plan,
    schedule_rounds,
)
from repro.crypto.plan import PLAN_INPUT, InferencePlan, PlanOp, compile_plan
from repro.crypto.protocols.registry import get_handler
from repro.crypto.scheduler import run_plan
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import reconstruct, share
from repro.models.builder import build_model, export_layer_weights
from repro.models.mobilenet import mobilenetv2_tiny
from repro.models.resnet import resnet_tiny
from repro.models.specs import LayerKind, LayerSpec, ModelSpec
from repro.models.vgg import vgg_tiny


def _zoo_variants():
    variants = []
    for build in (vgg_tiny, resnet_tiny, mobilenetv2_tiny):
        spec = build(input_size=8)
        variants.append(spec)
        variants.append(spec.with_all_polynomial())
    return variants


def _trained_weights(spec: ModelSpec):
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


def _x2act_op(index: int, name: str, shape, ring, uses, deps) -> PlanOp:
    """A hand-built interactive op reading an arbitrary value (for branchy
    synthetic plans the sequential spec lowering cannot produce)."""
    layer = LayerSpec(
        name=name,
        kind=LayerKind.X2ACT,
        in_channels=shape[1],
        input_size=shape[2],
    )
    trace = get_handler(LayerKind.X2ACT).trace(layer, shape, ring)
    return PlanOp(
        index=index,
        name=name,
        kind=LayerKind.X2ACT,
        layer=layer,
        input_shape=tuple(shape),
        output_shape=tuple(shape),
        requests=tuple(trace.requests),
        messages=tuple(trace.messages),
        uses=tuple(uses),
        deps=tuple(deps),
        round_groups=tuple(trace.groups),
    )


def _add_op(index: int, name: str, shape, main: str, residual: str, uses, deps) -> PlanOp:
    layer = LayerSpec(
        name=name,
        kind=LayerKind.ADD,
        in_channels=shape[1],
        input_size=shape[2],
        residual_from=residual,
    )
    return PlanOp(
        index=index,
        name=name,
        kind=LayerKind.ADD,
        layer=layer,
        input_shape=tuple(shape),
        output_shape=tuple(shape),
        requests=(),
        messages=(),
        uses=tuple(uses),
        deps=tuple(deps),
        round_groups=(),
    )


def _branching_plan(ring, shape=(1, 2, 3, 3)) -> InferencePlan:
    """Two independent X^2act branches reading the plan input, joined by ADD."""
    ops = (
        _x2act_op(0, "branch-a", shape, ring, uses=(PLAN_INPUT,), deps=()),
        _x2act_op(1, "branch-b", shape, ring, uses=(PLAN_INPUT,), deps=()),
        _add_op(2, "join", shape, main="branch-a", residual="branch-b",
                uses=("branch-a", "branch-b"), deps=(0, 1)),
    )
    return InferencePlan(
        model_name="branchy",
        batch_size=shape[0],
        ring=ring,
        input_shape=tuple(shape),
        output_shape=tuple(shape),
        ops=ops,
    )


class TestGraphIR:
    def test_compiled_plan_has_explicit_defs_and_uses(self):
        plan = compile_plan(vgg_tiny(input_size=8), batch_size=2)
        assert plan.ops[0].uses == (PLAN_INPUT,)
        assert plan.ops[0].deps == ()
        for prev, cur in zip(plan.ops, plan.ops[1:]):
            assert cur.uses[0] == prev.defines
            assert cur.deps[0] == prev.index

    def test_residual_add_uses_both_producers(self):
        plan = compile_plan(resnet_tiny(input_size=8))
        adds = [op for op in plan.ops if op.kind == LayerKind.ADD]
        assert adds
        for op in adds:
            assert len(op.uses) == 2
            assert op.layer.residual_from in op.uses
            assert len(op.deps) == 2

    def test_round_groups_cover_all_messages(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        for op in plan.ops:
            flat = tuple(
                message
                for group in op.round_groups
                for event in group
                for message in event
            )
            assert flat == op.messages

    def test_levelize_chain_is_one_op_per_level(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        levels = levelize(plan)
        assert levels == tuple((op.index,) for op in plan.ops)

    def test_levelize_branches_share_a_level(self):
        plan = _branching_plan(make_context().ring)
        assert levelize(plan) == ((0, 1), (2,))

    def test_levelize_rejects_non_topological_plans(self):
        plan = _branching_plan(make_context().ring)
        broken = dc_replace(
            plan, ops=(dc_replace(plan.ops[0], deps=(2,)),) + plan.ops[1:]
        )
        with pytest.raises(ValueError, match="topological"):
            levelize(broken)


class TestDeadOpElimination:
    def test_chain_plans_are_untouched(self):
        plan = compile_plan(vgg_tiny(input_size=8))
        assert dead_op_elimination(plan) is plan

    def test_dead_branch_is_dropped_with_its_manifest_demand(self):
        ring = make_context().ring
        plan = _branching_plan(ring)
        # make the join read only branch-a: branch-b becomes dead
        ops = (
            plan.ops[0],
            plan.ops[1],
            _add_op(2, "join", plan.input_shape, main="branch-a",
                    residual="branch-a", uses=("branch-a",), deps=(0,)),
        )
        with_dead = dc_replace(plan, ops=ops)
        optimized = dead_op_elimination(with_dead)
        assert [op.name for op in optimized.ops] == ["branch-a", "join"]
        assert [op.index for op in optimized.ops] == [0, 1]
        assert optimized.ops[1].deps == (0,)
        assert (
            optimized.manifest.square_pair_elements
            == with_dead.manifest.square_pair_elements // 2
        )

    def test_pipeline_runs_dce_before_scheduling(self):
        ring = make_context().ring
        plan = _branching_plan(ring)
        splan = optimize_plan(plan)
        assert "dead-op-elimination" in splan.applied_passes
        assert splan.applied_passes[-2:] == ("levelize", "schedule-rounds")


class TestRoundScheduling:
    def test_schedule_merges_independent_ops_of_a_level(self):
        ring = make_context().ring
        plan = _branching_plan(ring)
        schedule = schedule_rounds(plan)
        # both X^2act branches have one round group (the square opening):
        # the scheduler must merge them into a single shared round
        assert schedule.num_rounds == 1
        entries = schedule.rounds[0].entries
        assert set(entries) == {(0, 0), (1, 0)}
        per_op = plan.ops[0].online_bytes
        assert schedule.rounds[0].online_bytes == 2 * per_op

    def test_schedule_round_bytes_sum_to_plan_bytes(self):
        splan = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
        assert sum(r.online_bytes for r in splan.schedule.rounds) == splan.online_bytes

    def test_scheduled_rounds_strictly_fewer_on_relu_models(self):
        splan = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
        assert splan.online_rounds < splan.legacy_online_rounds
        # The log-depth comparison tree already collapsed the *sequential*
        # round count ~4x (every tree level is one stacked event), so
        # coalescing has less intra-op redundancy left to exploit; the
        # combined acceptance is the absolute scheduled count — at most a
        # third of the pre-tree scheduled baseline of 884 rounds.
        assert splan.online_rounds <= 884 // 3

    def test_manifest_round_trace_matches_schedule(self):
        splan = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
        manifest = splan.manifest
        assert manifest.round_trace == splan.schedule.round_trace()
        assert manifest.online_rounds == splan.online_rounds
        assert manifest.legacy_online_rounds == splan.legacy_online_rounds
        assert manifest.online_bytes == splan.online_bytes

    def test_cross_op_coalescing_executes_correctly(self):
        """A branching plan executes with merged rounds and correct values."""
        ctx = make_context(seed=3)
        plan = _branching_plan(ctx.ring)
        splan = optimize_plan(plan)
        assert splan.schedule.num_rounds == 1

        x = np.random.default_rng(5).normal(size=plan.input_shape)
        shared = share(x, ctx.ring, ctx.rng)
        pool = TrustedDealer(ring=ctx.ring, seed=3).preprocess(splan)
        run = run_plan(ctx, splan, {}, shared, pool=pool)
        out, per_op = run.output, run.per_op_bytes
        # x2act with default params (w1=0, w2=1, b=0) is the identity map,
        # so join = branch_a + branch_b = 2x up to fixed-point noise
        np.testing.assert_allclose(reconstruct(out), 2 * x, atol=1e-3)
        assert per_op["branch-a"] == per_op["branch-b"] > 0
        assert per_op["join"] == 0
        assert ctx.channel.rounds == splan.online_rounds


class TestZooScheduledEquivalence:
    @pytest.mark.parametrize("spec", _zoo_variants(), ids=lambda s: s.name)
    def test_scheduled_execution_is_bit_identical_to_sequential(self, spec):
        """Acceptance: zoo-wide bit-identity of the coalesced path."""
        weights = _trained_weights(spec)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, spec.in_channels, spec.input_size, spec.input_size))

        sequential = SecureInferenceEngine(make_context(seed=11))
        plan = sequential.compile(spec, batch_size=2)
        reference = sequential.execute(plan, weights, x, pool=sequential.preprocess(plan))

        scheduled = SecureInferenceEngine(make_context(seed=11))
        splan = scheduled.compile(spec, batch_size=2, optimize=True)
        result = scheduled.execute(splan, weights, x, pool=scheduled.preprocess(splan))

        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.communication_bytes == reference.communication_bytes
        assert result.per_layer_bytes == reference.per_layer_bytes
        assert result.communication_rounds == splan.online_rounds
        assert reference.communication_rounds == plan.legacy_online_rounds
        assert result.communication_rounds <= reference.communication_rounds


class TestKernelLowering:
    def test_lowering_runs_last_and_preserves_the_schedule(self):
        """Lowering is a pure annotation stage after round scheduling: the
        plan, schedule and manifest are untouched, only bindings appear."""
        plan = compile_plan(vgg_tiny(input_size=8), batch_size=2)
        splan = optimize_plan(plan)
        lplan = optimize_plan(plan, lower=True)
        assert isinstance(lplan, LoweredPlan)
        assert lplan.applied_passes[-3:] == (
            "levelize",
            "schedule-rounds",
            "lower-kernels",
        )
        assert lplan.plan == splan.plan
        assert lplan.schedule == splan.schedule
        assert lplan.manifest == splan.manifest
        # one binding per op; the fused count covers the non-empty ones
        assert len(lplan.bindings) == len(lplan.plan.ops)
        assert lplan.fused_op_count == sum(
            1 for binding in lplan.bindings if binding.kernels
        )
        assert 0 < lplan.fused_op_count <= len(lplan.bindings)

    def test_lower_plan_annotates_an_existing_scheduled_plan(self):
        splan = optimize_plan(compile_plan(resnet_tiny(input_size=8)))
        lplan = lower_plan(splan)
        assert isinstance(lplan, LoweredPlan)
        assert lplan.applied_passes == splan.applied_passes + ("lower-kernels",)
        # bindings line up with the op table by index
        assert tuple(b.op_index for b in lplan.bindings) == tuple(
            op.index for op in splan.ops
        )
        assert any(binding.kernels for binding in lplan.bindings)

    @pytest.mark.parametrize("spec", _zoo_variants(), ids=lambda s: s.name)
    def test_lowered_execution_is_bit_identical_to_sequential(self, spec):
        """Acceptance: zoo-wide bit-identity of the fused-kernel path."""
        weights = _trained_weights(spec)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, spec.in_channels, spec.input_size, spec.input_size))

        sequential = SecureInferenceEngine(make_context(seed=11))
        plan = sequential.compile(spec, batch_size=2)
        reference = sequential.execute(plan, weights, x, pool=sequential.preprocess(plan))

        lowered = SecureInferenceEngine(make_context(seed=11))
        lplan = lowered.compile(spec, batch_size=2, optimize=True, lower=True)
        result = lowered.execute(lplan, weights, x, pool=lowered.preprocess(lplan))

        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.communication_bytes == reference.communication_bytes
        assert result.fused_kernel_calls > 0
        assert result.cpu_time_ns > 0


class TestPlanSerialization:
    def test_plan_round_trips_through_dict(self):
        plan = compile_plan(resnet_tiny(input_size=8), batch_size=2)
        data = json.loads(json.dumps(plan.to_dict()))
        restored = InferencePlan.from_dict(data)
        assert restored == plan

    def test_scheduled_plan_round_trips_through_dict(self):
        splan = optimize_plan(compile_plan(vgg_tiny(input_size=8), batch_size=2))
        data = json.loads(json.dumps(splan.to_dict()))
        restored = ScheduledPlan.from_dict(data)
        assert restored.plan == splan.plan
        assert restored.schedule == splan.schedule
        assert restored.applied_passes == splan.applied_passes
        assert restored.manifest == splan.manifest

    def test_rejects_unknown_formats(self):
        with pytest.raises(ValueError, match="format"):
            InferencePlan.from_dict({"format": "bogus"})
        with pytest.raises(ValueError, match="format"):
            ScheduledPlan.from_dict({"format": "bogus"})

    def test_deserialized_plan_executes_bit_identically(self):
        """Satellite: serialize a compiled+optimized plan, restore it, and
        assert the restored artifact's execution is bit-identical."""
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(9).normal(size=(2, 3, 8, 8))

        original_engine = SecureInferenceEngine(make_context(seed=23))
        splan = original_engine.compile(spec, batch_size=2, optimize=True)
        original = original_engine.execute(
            splan, weights, x, pool=original_engine.preprocess(splan)
        )

        restored = ScheduledPlan.from_dict(json.loads(json.dumps(splan.to_dict())))
        restored_engine = SecureInferenceEngine(make_context(seed=23))
        result = restored_engine.execute(
            restored, weights, x, pool=restored_engine.preprocess(restored)
        )

        np.testing.assert_array_equal(result.logits, original.logits)
        assert result.communication_bytes == original.communication_bytes
        assert result.communication_rounds == original.communication_rounds
        assert result.per_layer_bytes == original.per_layer_bytes
