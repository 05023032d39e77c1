"""Tests for the compiled plan runtime: offline/online split, manifest
exactness, registry dispatch and batched execution.

The key invariants:

- the compiled executor is **bit-identical** to the interpretive (lazy
  dealer) path — same logits, same communication log — for every executable
  model in the zoo, because preprocessing generates correlated randomness in
  consumption order;
- the online phase performs **zero** dealer generation calls once
  preprocessing ran;
- the manifest's predicted bytes/rounds match the executed
  :class:`CommunicationLog` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import (
    PreprocessingExhausted,
    compile_plan,
    make_context,
)
from repro.crypto.protocols.registry import get_handler, registered_kinds
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models.builder import build_model, export_layer_weights
from repro.models.mobilenet import mobilenetv2_tiny
from repro.models.resnet import resnet_tiny
from repro.models.specs import LayerKind, ModelSpec
from repro.models.vgg import vgg_tiny


def _zoo_variants():
    """Every executable tiny backbone, in ReLU and all-polynomial form."""
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
    for _ in range(2):  # move BN running stats off their init values
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return net, export_layer_weights(net)


class TestCompile:
    def test_plan_covers_every_layer_in_order(self):
        spec = vgg_tiny(input_size=8)
        plan = compile_plan(spec, batch_size=3)
        assert [op.name for op in plan.ops] == [layer.name for layer in spec.layers]
        assert plan.batch_size == 3
        assert plan.input_shape == (3, spec.in_channels, 8, 8)
        assert plan.output_shape == (3, spec.num_classes)

    def test_shapes_thread_through_the_network(self):
        spec = resnet_tiny(input_size=8)
        plan = compile_plan(spec)
        for prev, cur in zip(plan.ops, plan.ops[1:]):
            assert cur.input_shape == prev.output_shape

    def test_local_ops_have_empty_traces(self):
        plan = compile_plan(vgg_tiny(input_size=8).with_all_polynomial())
        for op in plan.ops:
            if op.kind in (LayerKind.CONV, LayerKind.LINEAR, LayerKind.FLATTEN,
                           LayerKind.AVGPOOL, LayerKind.GLOBAL_AVGPOOL, LayerKind.ADD):
                assert op.online_bytes == 0
                assert not op.requests

    def test_manifest_scales_with_batch_size(self):
        spec = vgg_tiny(input_size=8)
        m1 = compile_plan(spec, batch_size=1).manifest
        m4 = compile_plan(spec, batch_size=4).manifest
        assert m4.bit_triple_elements == 4 * m1.bit_triple_elements
        assert m4.triple_elements == 4 * m1.triple_elements
        assert compile_plan(spec, batch_size=4).online_bytes == 4 * compile_plan(spec).online_bytes

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            compile_plan(vgg_tiny(input_size=8), batch_size=0)

    def test_projection_shortcut_specs_fail_at_compile_time(self):
        from dataclasses import replace as dc_replace

        spec = resnet_tiny(input_size=8)
        stripped = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from="") if l.kind == LayerKind.ADD else l
                for l in spec.layers
            ),
        )
        with pytest.raises(NotImplementedError):
            compile_plan(stripped)

    def test_dangling_residual_reference_fails_at_compile_time(self):
        from dataclasses import replace as dc_replace

        spec = resnet_tiny(input_size=8)
        dangling = dc_replace(
            spec,
            layers=tuple(
                dc_replace(l, residual_from="no-such-layer")
                if l.kind == LayerKind.ADD
                else l
                for l in spec.layers
            ),
        )
        with pytest.raises(ValueError, match="no-such-layer"):
            compile_plan(dangling)

    def test_registry_covers_all_executable_kinds(self):
        kinds = set(registered_kinds())
        for kind in (LayerKind.CONV, LayerKind.LINEAR, LayerKind.RELU,
                     LayerKind.X2ACT, LayerKind.MAXPOOL, LayerKind.AVGPOOL,
                     LayerKind.GLOBAL_AVGPOOL, LayerKind.FLATTEN, LayerKind.ADD):
            assert kind in kinds
        with pytest.raises(KeyError):
            get_handler(LayerKind.BATCHNORM)


class TestCompiledExecutionEquivalence:
    @pytest.mark.parametrize(
        "spec", _zoo_variants(), ids=lambda s: s.name
    )
    def test_compiled_matches_interpretive_bit_for_bit(self, spec):
        """Bit-identical logits and identical comm logs across the whole zoo."""
        net, weights = _trained_weights(spec)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, spec.in_channels, spec.input_size, spec.input_size))

        interpretive = SecureInferenceEngine(make_context(seed=11))
        legacy = interpretive.run(spec, weights, x)

        compiled = SecureInferenceEngine(make_context(seed=11))
        plan = compiled.compile(spec, batch_size=2)
        pool = compiled.preprocess(plan)
        result = compiled.execute(plan, weights, x, pool=pool)

        np.testing.assert_array_equal(result.logits, legacy.logits)
        assert result.communication_bytes == legacy.communication_bytes
        assert result.communication_rounds == legacy.communication_rounds
        assert result.per_layer_bytes == legacy.per_layer_bytes

    def test_interpretive_run_reports_local_compute(self):
        """engine.run profiles every layer it executes, like execute does."""
        spec = vgg_tiny(input_size=8)
        _, weights = _trained_weights(spec)
        x = np.random.default_rng(3).normal(size=(1, 3, 8, 8))
        result = SecureInferenceEngine(make_context(seed=5)).run(spec, weights, x)

        assert list(result.per_op_cpu_ns) == [layer.name for layer in spec.layers]
        assert sum(result.per_op_cpu_ns.values()) == result.cpu_time_ns
        assert result.cpu_time_ns > 0
        assert result.fused_kernel_calls == 0

    @pytest.mark.parametrize(
        "build", [vgg_tiny, resnet_tiny], ids=["vgg-tiny", "resnet-tiny"]
    )
    def test_manifest_prediction_matches_observed_bytes_exactly(self, build):
        """Acceptance: predicted online bytes == CommunicationLog, per op.

        A sequential execution logs the legacy (uncoalesced) round count;
        ``plan.online_rounds`` reports the scheduled count, so the legacy
        metric lives in ``legacy_online_rounds``.
        """
        spec = build(input_size=8)
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=5))
        plan = engine.compile(spec, batch_size=2)
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        result = engine.execute(plan, weights, x)
        assert result.communication_bytes == plan.online_bytes
        assert result.communication_rounds == plan.legacy_online_rounds
        assert result.per_layer_bytes == plan.per_op_bytes()

    @pytest.mark.parametrize(
        "build", [vgg_tiny, resnet_tiny], ids=["vgg-tiny", "resnet-tiny"]
    )
    def test_scheduled_prediction_matches_observed_rounds_exactly(self, build):
        """The round-coalescing path logs exactly the scheduled prediction."""
        spec = build(input_size=8)
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=5))
        splan = engine.compile(spec, batch_size=2, optimize=True)
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        result = engine.execute(splan, weights, x)
        assert result.communication_bytes == splan.online_bytes
        assert result.communication_rounds == splan.online_rounds
        assert result.communication_rounds == splan.manifest.online_rounds
        assert result.per_layer_bytes == splan.per_op_bytes()
        assert splan.online_rounds < splan.legacy_online_rounds

    def test_online_phase_makes_zero_dealer_generation_calls(self):
        spec = vgg_tiny(input_size=8)  # ReLU + MaxPool: heavy randomness use
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=9))
        plan = engine.compile(spec, batch_size=2)
        pool = engine.preprocess(plan)
        dealer = engine.ctx.dealer
        generated_before = (dealer.triples_generated, dealer.bit_triples_generated)
        assert generated_before != (0, 0)  # preprocessing did the work

        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        result = engine.execute(plan, weights, x, pool=pool)
        generated_after = (dealer.triples_generated, dealer.bit_triples_generated)
        assert generated_after == generated_before
        assert pool.remaining == 0  # manifest is exact: nothing over-provisioned
        assert pool.served > 0
        assert result.offline_bit_triple_elements == plan.manifest.bit_triple_elements

    def test_pool_exhaustion_raises_instead_of_generating(self):
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=2))
        plan = engine.compile(spec, batch_size=1)
        pool = engine.preprocess(plan)
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        engine.execute(plan, weights, x, pool=pool)
        with pytest.raises(PreprocessingExhausted):
            engine.execute(plan, weights, x, pool=pool)  # pool is spent

    def test_pool_rejects_non_elementwise_products(self):
        """A matmul/conv triple request must not be served a Hadamard triple."""
        from repro.crypto.protocols.linear import ring_matmul

        engine = SecureInferenceEngine(make_context(seed=6))
        plan = engine.compile(vgg_tiny(input_size=8).with_all_polynomial())
        pool = engine.preprocess(plan)
        ring = engine.ctx.ring
        with pytest.raises(PreprocessingExhausted, match="elementwise"):
            pool.triple((4, 4), (4, 4), lambda a, b: ring_matmul(ring, a, b))

    def test_batch_size_mismatch_is_rejected(self):
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        engine = SecureInferenceEngine(make_context(seed=2))
        plan = engine.compile(spec, batch_size=2)
        with pytest.raises(ValueError):
            engine.execute(plan, weights, np.zeros((3, 3, 8, 8)))

    def test_batched_execution_matches_sequential_predictions(self):
        """One batched online pass classifies like per-query passes."""
        spec = vgg_tiny(input_size=8).with_all_polynomial()
        net, weights = _trained_weights(spec)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3, 8, 8))

        batched = SecureInferenceEngine(make_context(seed=21))
        plan = batched.compile(spec, batch_size=4)
        result = batched.execute(plan, weights, x)

        sequential = []
        for i in range(4):
            eng = SecureInferenceEngine(make_context(seed=31 + i))
            sequential.append(eng.run(spec, weights, x[i : i + 1]).logits[0])
        np.testing.assert_array_equal(
            result.logits.argmax(axis=1), np.stack(sequential).argmax(axis=1)
        )
        assert result.batch_size == 4
        assert result.online_bytes_per_query == result.communication_bytes / 4


class TestPlanHardwareRewiring:
    def test_plan_communication_report_matches_execution(self):
        from repro.hardware.comm import communication_report

        spec = vgg_tiny(input_size=8)
        net, weights = _trained_weights(spec)
        report = communication_report(spec, source="plan")
        engine = SecureInferenceEngine(make_context(seed=13))
        result = engine.run(spec, weights, np.zeros((1, 3, 8, 8)))
        assert report.source == "plan"
        assert report.total_bytes == result.communication_bytes
        assert report.per_layer_bytes == {
            k: float(v) for k, v in result.per_layer_bytes.items()
        }

    def test_plan_latency_table_prefers_polynomial_ops(self):
        from repro.hardware.lut import build_latency_table

        spec = vgg_tiny(input_size=8)
        table = build_latency_table(spec, source="plan")
        act = spec.layers_of_kind(LayerKind.RELU)[0]
        pool = spec.layers_of_kind(LayerKind.MAXPOOL)[0]
        assert table.seconds(act.name, LayerKind.RELU) > table.seconds(act.name, LayerKind.X2ACT)
        assert table.seconds(pool.name, LayerKind.MAXPOOL) > table.seconds(pool.name, LayerKind.AVGPOOL)

    def test_plan_latency_table_bytes_match_manifest(self):
        from repro.hardware.lut import build_latency_table

        spec = vgg_tiny(input_size=8)
        plan = compile_plan(spec)
        table = build_latency_table(spec, source="plan")
        total = sum(
            table.cost(layer.name, layer.kind).communication_bytes
            for layer in spec.layers
        )
        assert total == plan.online_bytes

    def test_supernet_accepts_plan_latency_source(self):
        from repro.core.supernet import Supernet

        spec = vgg_tiny(input_size=8)
        supernet = Supernet(spec, latency_source="plan")
        assert float(supernet.expected_latency_ms().data) > 0.0


class TestGroupedSecureConv:
    def test_depthwise_conv_matches_plaintext(self, rng):
        """Grouped ring convolution makes MobileNet executable under 2PC."""
        from repro.crypto.protocols.linear import secure_conv2d_public_weight
        from repro.crypto.sharing import reconstruct, share
        from repro.nn.functional import conv2d as plain_conv2d
        from repro.nn.tensor import Tensor

        ctx = make_context(seed=17)
        x = rng.normal(size=(2, 6, 8, 8))
        weight = rng.normal(size=(6, 1, 3, 3)) * 0.3
        shared = share(x, ctx.ring, ctx.rng)
        secure = reconstruct(
            secure_conv2d_public_weight(ctx, shared, weight, padding=1, groups=6)
        )
        plain = plain_conv2d(Tensor(x), Tensor(weight), padding=1, groups=6).data
        np.testing.assert_allclose(secure, plain, atol=1e-3)
