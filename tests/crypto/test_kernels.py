"""Tests for the fused local-compute kernel layer.

Key invariants:

- every fused kernel is bit-identical to the reference protocol chain it
  replaces (same uint64 values mod 2^64, per share lane);
- the protocol entry points take the fused path exactly when a
  :class:`~repro.crypto.kernels.KernelContext` is installed, and fall back
  to the reference path (bit-identically) when it is absent;
- the workspace arena reuses scratch buffers and encoded-constant caches
  across jobs with different seeds without leaking values between them;
- a :class:`~repro.crypto.passes.LoweredPlan` round-trips through
  to-dict/from-dict and rejects foreign formats.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crypto import make_context
from repro.crypto.kernels import (
    KERNELS,
    KernelContext,
    WorkspaceArena,
    active_kernels,
    arena_for,
    clear_arenas,
    kernels_for_kind,
    register_kernel,
)
from repro.crypto.passes import (
    LoweredPlan,
    ScheduledPlan,
    optimize_plan,
)
from repro.crypto.plan import compile_plan
from repro.crypto.protocols.activation import secure_relu
from repro.crypto.protocols.arithmetic import (
    add_public,
    multiply,
    multiply_public,
    square,
)
from repro.crypto.scheduler import arena_key
from repro.crypto.secure_model import SecureInferenceEngine
from repro.crypto.sharing import share
from repro.models.builder import build_model, export_layer_weights
from repro.models.vgg import vgg_tiny


def _trained_weights(spec):
    from repro.nn.tensor import Tensor

    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))))
    net.eval()
    return export_layer_weights(net)


def _paired_contexts(seed: int = 17):
    """Two contexts with identical randomness streams; one runs fused."""
    reference = make_context(seed=seed)
    fused = make_context(seed=seed)
    fused.kernels = KernelContext()
    return reference, fused


class TestRegistry:
    def test_layer_kind_bindings_name_registered_kernels(self):
        assert kernels_for_kind("CONV")
        assert kernels_for_kind("RELU")
        for kind in ("CONV", "LINEAR", "X2ACT", "RELU", "MAXPOOL"):
            for name in kernels_for_kind(kind):
                assert name in KERNELS, f"{kind} binds unknown kernel {name!r}"

    def test_kinds_without_fusible_compute_bind_nothing(self):
        assert kernels_for_kind("FLATTEN") == ()
        assert kernels_for_kind("ADD") == ()

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_kernel("truncate-pair")(lambda: None)

    def test_active_kernels_is_the_installed_context(self):
        ctx = make_context()
        assert active_kernels(ctx) is None
        ctx.kernels = KernelContext()
        assert active_kernels(ctx) is ctx.kernels


class TestWorkspaceArena:
    def test_get_reuses_buffer_by_name_and_shape(self):
        arena = WorkspaceArena()
        first, fresh_first = arena.get("scratch", (4, 4))
        second, fresh_second = arena.get("scratch", (4, 4))
        assert fresh_first and not fresh_second
        assert first is second
        assert arena.misses == 1 and arena.hits == 1
        assert arena.bytes_held == first.nbytes

    def test_get_reallocates_on_shape_change(self):
        arena = WorkspaceArena()
        first, _ = arena.get("scratch", (4, 4))
        second, fresh = arena.get("scratch", (8, 4))
        assert fresh and second is not first
        assert arena.misses == 2

    def test_cached_revalidates_by_source_identity(self):
        arena = WorkspaceArena()
        source = np.arange(4.0)
        built = arena.cached("enc", (source,), lambda: source * 2)
        again = arena.cached("enc", (source,), lambda: source * 3)
        assert again is built  # identical refs -> memo hit, builder not re-run
        replaced = arena.cached("enc", (source.copy(),), lambda: source * 3)
        assert replaced is not built  # new source object -> rebuilt

    def test_cached_stale_entry_is_replaced_not_accumulated(self):
        # Fresh source arrays per job (e.g. deserialized per request) must
        # replace the stale entry for the key, not pin it forever.
        arena = WorkspaceArena()
        for _ in range(8):
            source = np.arange(4.0)
            arena.cached("w-enc", (source,), lambda: source * 2)
        assert len(arena._cache) == 1

    def test_cached_is_lru_bounded(self):
        arena = WorkspaceArena()
        cap = WorkspaceArena.CACHE_MAX_ENTRIES
        hot = np.arange(2.0)
        arena.cached("hot", (hot,), lambda: hot * 2)
        for i in range(cap + 10):
            arena.cached(("cold", i), (), lambda: i)
            arena.cached("hot", (hot,), lambda: hot * 3)  # touch keeps it warm
        assert len(arena._cache) <= cap
        before = arena.misses
        arena.cached("hot", (hot,), lambda: hot * 4)
        assert arena.misses == before  # hot entry survived the churn

    def test_arena_for_is_keyed_and_resettable(self):
        clear_arenas()
        a = arena_for(("model", 2))
        assert arena_for(("model", 2)) is a
        assert arena_for(("model", 4)) is not a
        clear_arenas()
        assert arena_for(("model", 2)) is not a


class TestFusedKernelsBitIdentical:
    """Each protocol entry point: fused output == reference output, per lane."""

    def test_multiply(self):
        reference, fused = _paired_contexts()
        values_x = np.random.default_rng(1).normal(size=(3, 5))
        values_y = np.random.default_rng(2).normal(size=(3, 5))
        outputs = []
        for ctx in (reference, fused):
            x = share(values_x, ctx.ring, ctx.rng)
            y = share(values_y, ctx.ring, ctx.rng)
            outputs.append(multiply(ctx, x, y))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_multiply_untruncated(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(3).normal(size=(7,))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            y = share(values, ctx.ring, ctx.rng)
            outputs.append(multiply(ctx, x, y, truncate=False))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)

    def test_square(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(4).normal(size=(2, 6))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            outputs.append(square(ctx, x))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_multiply_public_and_add_public(self):
        reference, fused = _paired_contexts()
        values = np.random.default_rng(5).normal(size=(4, 3))
        scale = np.array(0.729)
        offset = np.array(-1.25)
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            scaled = multiply_public(ctx, x, scale)
            outputs.append(add_public(ctx, scaled, offset))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)

    def test_secure_relu(self):
        """Exercises the and-finish, b2a-finish and beaver-recombine kernels
        through the full comparison + mux flow."""
        reference, fused = _paired_contexts()
        values = np.random.default_rng(6).normal(size=(9,))
        outputs = []
        for ctx in (reference, fused):
            x = share(values, ctx.ring, ctx.rng)
            outputs.append(secure_relu(ctx, x))
        np.testing.assert_array_equal(outputs[0].share0, outputs[1].share0)
        np.testing.assert_array_equal(outputs[0].share1, outputs[1].share1)
        assert fused.kernels.fused_calls > 0

    def test_truncate_pair_kernel_matches_truncate_local(self):
        ring = make_context().ring
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 2**64, size=(64,), dtype=np.uint64)
        expected0 = ring.truncate_local(raw, party=0)
        expected1 = ring.truncate_local(raw, party=1)
        got0, got1 = KERNELS["truncate-pair"](ring, raw.copy(), raw.copy())
        np.testing.assert_array_equal(got0, expected0)
        np.testing.assert_array_equal(got1, expected1)

    def test_stacked_matmul_matches_per_lane(self):
        rng = np.random.default_rng(8)
        share0 = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
        share1 = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
        w_t = rng.integers(0, 2**64, size=(5, 4), dtype=np.uint64)
        got0, got1 = KERNELS["stacked-matmul"](share0, share1, w_t)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(got0, np.matmul(share0, w_t))
            np.testing.assert_array_equal(got1, np.matmul(share1, w_t))

    @pytest.mark.parametrize(
        "stride,padding,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 1), (1, 1, 4)]
    )
    def test_stacked_conv2d_matches_per_lane(self, stride, padding, groups):
        rng = np.random.default_rng(9)
        ic, oc = 4, 8
        share0 = rng.integers(0, 2**64, size=(2, ic, 6, 6), dtype=np.uint64)
        share1 = rng.integers(0, 2**64, size=(2, ic, 6, 6), dtype=np.uint64)
        w = rng.integers(0, 2**64, size=(oc, ic // groups, 3, 3), dtype=np.uint64)

        def reference(lane):
            pad = np.pad(lane, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
            n, _, hp, wp = pad.shape
            kh = kw = 3
            oh = (hp - kh) // stride + 1
            ow = (wp - kw) // stride + 1
            sn, sc, sh, sw = pad.strides
            windows = np.lib.stride_tricks.as_strided(
                pad,
                shape=(n, ic, kh, kw, oh, ow),
                strides=(sn, sc, sh, sw, sh * stride, sw * stride),
            )
            with np.errstate(over="ignore"):
                if groups == 1:
                    cols = np.ascontiguousarray(windows).reshape(n, ic * 9, oh * ow)
                    out = np.matmul(w.reshape(oc, -1)[None], cols)
                else:
                    icg, ocg = ic // groups, oc // groups
                    cols = np.ascontiguousarray(windows).reshape(
                        n, groups, icg * 9, oh * ow
                    )
                    out = np.matmul(w.reshape(groups, ocg, -1)[None], cols)
            return out.reshape(n, oc, oh, ow)

        got0, got1 = KERNELS["stacked-conv2d"](
            share0, share1, w, stride=stride, padding=padding, groups=groups
        )
        np.testing.assert_array_equal(got0, reference(share0))
        np.testing.assert_array_equal(got1, reference(share1))


class TestArenaReuseAcrossJobs:
    def test_warm_arena_serves_repeat_jobs_with_different_seeds(self):
        """Job 2 reuses job 1's scratch buffers and encoded-weight cache,
        and both jobs stay bit-identical to their sequential references."""
        clear_arenas()
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(10).normal(size=(2, 3, 8, 8))
        lplan = optimize_plan(compile_plan(spec, batch_size=2), lower=True)
        arena = arena_for(arena_key(lplan))

        warm_misses = None
        for seed in (5, 6):
            engine = SecureInferenceEngine(make_context(seed=seed))
            result = engine.execute(
                lplan, weights, x, pool=engine.preprocess(lplan)
            )
            sequential = SecureInferenceEngine(make_context(seed=seed))
            plan = sequential.compile(spec, batch_size=2)
            reference = sequential.execute(
                plan, weights, x, pool=sequential.preprocess(plan)
            )
            np.testing.assert_array_equal(result.logits, reference.logits)
            assert result.fused_kernel_calls > 0
            if warm_misses is None:
                warm_misses = arena.misses
                assert warm_misses > 0  # job 1 populated the arena
        # job 2 allocated nothing new: same shapes, same weight objects
        assert arena.misses == warm_misses
        assert arena.hits > 0
        clear_arenas()


class TestLoweredPlanSerialization:
    def test_round_trips_through_dict(self):
        lplan = optimize_plan(compile_plan(vgg_tiny(input_size=8), batch_size=2), lower=True)
        assert isinstance(lplan, LoweredPlan)
        assert lplan.fused_op_count > 0
        data = json.loads(json.dumps(lplan.to_dict()))
        restored = LoweredPlan.from_dict(data)
        assert restored.plan == lplan.plan
        assert restored.schedule == lplan.schedule
        assert restored.applied_passes == lplan.applied_passes
        assert restored.bindings == lplan.bindings

    def test_rejects_foreign_formats(self):
        lplan = optimize_plan(compile_plan(vgg_tiny(input_size=8)), lower=True)
        with pytest.raises(ValueError, match="format"):
            LoweredPlan.from_dict({"format": "bogus"})
        with pytest.raises(ValueError, match="format"):
            # a lowered dict is not a valid *scheduled* dict and vice versa
            ScheduledPlan.from_dict(lplan.to_dict())
        scheduled = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
        with pytest.raises(ValueError, match="format"):
            LoweredPlan.from_dict(scheduled.to_dict())

    def test_deserialized_lowered_plan_executes_bit_identically(self):
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(11).normal(size=(2, 3, 8, 8))
        lplan = optimize_plan(compile_plan(spec, batch_size=2), lower=True)

        original_engine = SecureInferenceEngine(make_context(seed=29))
        original = original_engine.execute(
            lplan, weights, x, pool=original_engine.preprocess(lplan)
        )
        restored = LoweredPlan.from_dict(json.loads(json.dumps(lplan.to_dict())))
        restored_engine = SecureInferenceEngine(make_context(seed=29))
        result = restored_engine.execute(
            restored, weights, x, pool=restored_engine.preprocess(restored)
        )
        np.testing.assert_array_equal(result.logits, original.logits)
        assert result.fused_kernel_calls == original.fused_kernel_calls > 0


class TestDisabledFallback:
    def test_optimize_plan_without_lower_returns_scheduled(self):
        splan = optimize_plan(compile_plan(vgg_tiny(input_size=8)))
        assert isinstance(splan, ScheduledPlan)
        assert not isinstance(splan, LoweredPlan)
        assert "lower-kernels" not in splan.applied_passes

    def test_unlowered_plan_runs_reference_path(self):
        """The un-lowered schedule stays on the reference path (zero fused
        calls) and its logits equal the lowered plan's bit for bit."""
        spec = vgg_tiny(input_size=8)
        weights = _trained_weights(spec)
        x = np.random.default_rng(12).normal(size=(2, 3, 8, 8))
        plan = compile_plan(spec, batch_size=2)
        splan = optimize_plan(plan)
        lplan = optimize_plan(plan, lower=True)

        reference_engine = SecureInferenceEngine(make_context(seed=31))
        reference = reference_engine.execute(
            splan, weights, x, pool=reference_engine.preprocess(splan)
        )
        assert reference.fused_kernel_calls == 0

        fused_engine = SecureInferenceEngine(make_context(seed=31))
        fused = fused_engine.execute(
            lplan, weights, x, pool=fused_engine.preprocess(lplan)
        )
        assert fused.fused_kernel_calls > 0
        np.testing.assert_array_equal(reference.logits, fused.logits)
