"""Secure linear algebra: 2PC convolution and fully-connected layers.

Both use the generic Beaver-triple multiplication of
:func:`repro.crypto.protocols.arithmetic.multiply` with the bilinear map set
to a ring convolution / matrix product, exactly as described for 2PC-Conv in
Section III-C.6 of the paper.  Batch normalization is folded into the
convolution weights before secure evaluation (the paper notes BN "can be
fused into the convolution layer").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.crypto.context import TwoPartyContext
from repro.crypto.kernels import KERNELS, active_kernels
from repro.crypto.protocols.arithmetic import add_public, multiply
from repro.crypto.protocols.registry import no_trace, register_protocol
from repro.crypto.ring import FixedPointRing
from repro.crypto.sharing import SharePair
from repro.models.specs import LayerKind, LayerSpec


# --------------------------------------------------------------------------- #
# Ring-element linear algebra (used as the Beaver bilinear maps)
# --------------------------------------------------------------------------- #
def ring_matmul(ring: FixedPointRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the ring (wrap-around uint64 arithmetic)."""
    with np.errstate(over="ignore"):
        return ring.wrap(np.matmul(a.astype(np.uint64), b.astype(np.uint64)))


def ring_conv2d(
    ring: FixedPointRing,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """NCHW convolution over the ring.

    ``x`` has shape (N, IC, H, W) and ``weight`` (OC, IC // groups, KH, KW);
    both are ring elements (uint64).  The accumulation wraps modulo 2^k,
    which is the correct semantics for secret-shared evaluation.  Grouped
    (including depthwise) convolution is supported so the MobileNetV2
    backbones are executable under 2PC.
    """
    n, ic, h, w = x.shape
    oc, icw, kh, kw = weight.shape
    if ic % groups or oc % groups:
        raise ValueError(f"channels ({ic}, {oc}) not divisible by groups={groups}")
    if icw != ic // groups:
        raise ValueError(
            f"weight expects {icw} input channels per group, input has {ic // groups}"
        )
    x = x.astype(np.uint64)
    weight = weight.astype(np.uint64)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, ic, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    with np.errstate(over="ignore"):
        if groups == 1:
            cols = cols.reshape(n, ic * kh * kw, oh * ow)
            w_mat = weight.reshape(oc, ic * kh * kw)
            out = np.matmul(w_mat[None, :, :], cols)
        else:
            icg, ocg = ic // groups, oc // groups
            cols = cols.reshape(n, groups, icg * kh * kw, oh * ow)
            w_mat = weight.reshape(groups, ocg, icg * kh * kw)
            out = np.matmul(w_mat[None, :, :, :], cols)
    return ring.wrap(out.reshape(n, oc, oh, ow))


# --------------------------------------------------------------------------- #
# Secure layers
# --------------------------------------------------------------------------- #
def secure_conv2d(
    ctx: TwoPartyContext,
    x: SharePair,
    weight: SharePair,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    tag: str = "conv",
) -> SharePair:
    """2PC-Conv: convolution between secret-shared activations and weights."""

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ring_conv2d(ctx.ring, a, b, stride=stride, padding=padding)

    out = multiply(ctx, x, weight, product=product, truncate=True, tag=tag)
    if bias is not None:
        out = add_public(ctx, out, np.asarray(bias).reshape(1, -1, 1, 1))
    return out


def secure_conv2d_public_weight(
    ctx: TwoPartyContext,
    x: SharePair,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    tag: Optional[str] = None,
) -> SharePair:
    """Convolution with a *public* (model-vendor) weight: no triple needed.

    Each server convolves its share with the public weight locally; only the
    fixed-point truncation is performed on the result.  ``tag`` (the layer
    name, passed by the plan runtime) keys the encoded-weight cache: with a
    stable tag, a caller that hands over freshly-deserialized weights every
    job *replaces* the layer's cache entry instead of accumulating one per
    array identity.
    """
    ring = ctx.ring
    kc = active_kernels(ctx)
    if kc is not None and ring.ring_bits == 64:
        arena = kc.arena
        w_enc = arena.cached(
            ("w-enc", id(weight) if tag is None else tag),
            (weight,),
            lambda: ring.encode(weight),
        )
        out0, out1 = KERNELS["stacked-conv2d"](
            x.share0,
            x.share1,
            w_enc,
            stride=stride,
            padding=padding,
            groups=groups,
            arena=arena,
        )
        out0, out1 = KERNELS["truncate-pair"](ring, out0, out1)
        if bias is not None:
            b_enc = arena.cached(
                ("b-enc-conv", id(bias) if tag is None else tag),
                (bias,),
                lambda: ring.encode(np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)),
            )
            out0, out1 = KERNELS["add-encoded"](out0, out1, b_enc)
        kc.count()
        return SharePair(out0, out1, ring)
    w_enc = ring.encode(weight)
    out0 = ring_conv2d(ring, x.share0, w_enc, stride=stride, padding=padding, groups=groups)
    out1 = ring_conv2d(ring, x.share1, w_enc, stride=stride, padding=padding, groups=groups)
    out = SharePair(
        ring.truncate_local(out0, party=0), ring.truncate_local(out1, party=1), ring
    )
    if bias is not None:
        out = add_public(ctx, out, np.asarray(bias).reshape(1, -1, 1, 1))
    return out


def secure_linear(
    ctx: TwoPartyContext,
    x: SharePair,
    weight: SharePair,
    bias: Optional[np.ndarray] = None,
    tag: str = "linear",
) -> SharePair:
    """2PC fully-connected layer: [Y] = [X] @ [W^T] + b."""

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ring_matmul(ctx.ring, a, np.swapaxes(b, -1, -2))

    out = multiply(ctx, x, weight, product=product, truncate=True, tag=tag)
    if bias is not None:
        out = add_public(ctx, out, np.asarray(bias).reshape(1, -1))
    return out


def secure_linear_public_weight(
    ctx: TwoPartyContext,
    x: SharePair,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    tag: Optional[str] = None,
) -> SharePair:
    """Fully-connected layer with a public weight matrix.

    ``tag`` keys the encoded-weight cache by layer name (see
    :func:`secure_conv2d_public_weight`).
    """
    ring = ctx.ring
    kc = active_kernels(ctx)
    if kc is not None and ring.ring_bits == 64:
        arena = kc.arena
        w_enc = arena.cached(
            ("w-enc-t", id(weight) if tag is None else tag),
            (weight,),
            lambda: ring.encode(weight).T,
        )
        out0, out1 = KERNELS["stacked-matmul"](x.share0, x.share1, w_enc, arena=arena)
        out0, out1 = KERNELS["truncate-pair"](ring, out0, out1)
        if bias is not None:
            b_enc = arena.cached(
                ("b-enc-lin", id(bias) if tag is None else tag),
                (bias,),
                lambda: ring.encode(np.asarray(bias, dtype=np.float64).reshape(1, -1)),
            )
            out0, out1 = KERNELS["add-encoded"](out0, out1, b_enc)
        kc.count()
        return SharePair(out0, out1, ring)
    w_enc = ring.encode(weight).T
    out0 = ring_matmul(ring, x.share0, w_enc)
    out1 = ring_matmul(ring, x.share1, w_enc)
    out = SharePair(
        ring.truncate_local(out0, party=0), ring.truncate_local(out1, party=1), ring
    )
    if bias is not None:
        out = add_public(ctx, out, np.asarray(bias).reshape(1, -1))
    return out


# --------------------------------------------------------------------------- #
# Batch-normalization folding
# --------------------------------------------------------------------------- #
def fold_batchnorm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    bn_scale: np.ndarray,
    bn_shift: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an inference-time batch norm into the preceding convolution.

    Given conv weight (OC, IC, KH, KW), conv bias (OC,) and the BN affine
    form ``y = scale * x + shift``, returns the fused (weight, bias).
    """
    weight = np.asarray(weight, dtype=np.float64)
    bn_scale = np.asarray(bn_scale, dtype=np.float64)
    bn_shift = np.asarray(bn_shift, dtype=np.float64)
    fused_weight = weight * bn_scale.reshape(-1, 1, 1, 1)
    base_bias = np.zeros(weight.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    fused_bias = base_bias * bn_scale + bn_shift
    return fused_weight, fused_bias


# --------------------------------------------------------------------------- #
# Plan-runtime handlers (public-weight deployment, no online communication)
# --------------------------------------------------------------------------- #
def _conv_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    n, _, h, w = input_shape
    oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
    ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
    return (n, layer.out_channels, oh, ow)


@register_protocol(LayerKind.CONV, infer_shape=_conv_infer_shape, trace=no_trace)
def _run_conv(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    weight = params["weight"]
    bias = params.get("bias")
    if "bn_scale" in params:
        bn_scale, bn_shift = params["bn_scale"], params["bn_shift"]
        kc = active_kernels(ctx)
        if kc is not None:
            # Cache the fold per layer: the fused arrays then keep a stable
            # identity across jobs, so the encoded-weight cache downstream
            # hits instead of re-encoding every query.
            weight, bias = kc.arena.cached(
                ("bn-fold", layer.name),
                (weight, bias, bn_scale, bn_shift),
                lambda: fold_batchnorm(weight, bias, bn_scale, bn_shift),
            )
        else:
            weight, bias = fold_batchnorm(weight, bias, bn_scale, bn_shift)
    return secure_conv2d_public_weight(
        ctx,
        x,
        weight,
        bias,
        stride=layer.stride,
        padding=layer.padding,
        groups=layer.groups,
        tag=layer.name,
    )


def _linear_infer_shape(layer: LayerSpec, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    return (input_shape[0], layer.out_channels)


@register_protocol(LayerKind.LINEAR, infer_shape=_linear_infer_shape, trace=no_trace)
def _run_linear(
    ctx: TwoPartyContext,
    layer: LayerSpec,
    params: Dict[str, np.ndarray],
    x: SharePair,
    cache: Dict[str, SharePair],
) -> SharePair:
    return secure_linear_public_weight(
        ctx, x, params["weight"], params.get("bias"), tag=layer.name
    )
