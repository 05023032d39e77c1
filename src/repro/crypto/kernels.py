"""Fused local-compute kernels for lowered plan execution.

The optimizer passes in :mod:`repro.crypto.passes` drive communication; the
lowering stage (:func:`repro.crypto.passes.lower_plan`) attacks the other
half of the online cost — the per-op numpy call chains of the protocol
handlers.  This module is the kernel layer that stage binds to:

- **fused composite kernels** (registered in :data:`KERNELS`) replace the
  per-op ``ring.add``/``ring.sub``/``ring.truncate_local`` chains with
  single in-place passes over freshly-owned arrays — Beaver/square
  recombination, SecureML truncation, public-constant scale/add and the
  GMW AND / daBit finishes;
- **two-lane stacking** runs both share-worlds of a public-weight
  convolution or matmul through *one* im2col + matmul over a ``2N`` batch
  (the bilinear maps are per-sample, so lane stacking is bit-identical to
  two separate calls);
- a per-``(plan, batch)`` :class:`WorkspaceArena` owns the im2col/padding
  scratch and the encoded-weight constants, so a warm server re-allocates
  nothing on the serving path.

Every kernel is exact modulo :math:`2^{64}`: it performs the same uint64
operations as the reference protocol code, only without the intermediate
copies (``ring.wrap`` re-``astype``\\ s every operand; ``truncate_local``
round-trips through three dtype conversions).  Fused execution is therefore
**bit-identical** to the reference path — asserted per protocol in
``tests/crypto/test_kernels.py`` and zoo-wide, in all four execution modes,
by ``benchmarks/bench_local_compute.py``.

Kernels require the 64-bit ring (dtype-view tricks assume no masking); the
protocol entry points fall back to the reference chains for narrower rings
or when no :class:`KernelContext` is active on the
:class:`~repro.crypto.context.TwoPartyContext`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.crypto.ring import FixedPointRing

#: registry of fused local-compute kernels, keyed by kernel name
KERNELS: Dict[str, Callable] = {}


def register_kernel(name: str) -> Callable:
    """Class-less registration decorator: ``KERNELS[name] = fn``."""

    def decorator(fn: Callable) -> Callable:
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} registered twice")
        KERNELS[name] = fn
        fn.kernel_name = name
        return fn

    return decorator


#: fused kernels each plan-op kind may invoke (consumed by ``lower_plan``
#: to build the :class:`~repro.crypto.passes.KernelBinding` table; keys are
#: :class:`~repro.models.specs.LayerKind` member names)
KERNELS_BY_LAYER_KIND: Dict[str, Tuple[str, ...]] = {
    "CONV": ("stacked-conv2d", "truncate-pair", "add-encoded"),
    "LINEAR": ("stacked-matmul", "truncate-pair", "add-encoded"),
    "X2ACT": ("square-recombine", "truncate-pair", "scale-encoded", "add-encoded"),
    "RELU": ("and-finish", "b2a-finish", "beaver-recombine"),
    "MAXPOOL": ("and-finish", "b2a-finish", "beaver-recombine"),
}


def kernels_for_kind(kind_name: str) -> Tuple[str, ...]:
    """The fused-kernel names an op of ``kind_name`` may invoke (may be empty)."""
    return KERNELS_BY_LAYER_KIND.get(kind_name, ())


# --------------------------------------------------------------------------- #
# Workspace arena
# --------------------------------------------------------------------------- #
class WorkspaceArena:
    """Reusable scratch buffers and identity-keyed constants for one plan key.

    Two facilities, both profiled through ``hits``/``misses``:

    - :meth:`get` — a named scratch buffer of a given shape/dtype, allocated
      once and handed back on every later request (the im2col workspace, the
      stacked-lane input buffer);
    - :meth:`cached` — a constant memo (encoded weights, folded batch norms)
      keyed by a name *and* the identity of its source arrays: the builder
      re-runs whenever the caller passes different source objects, so a
      cache hit can never serve stale math.  A stale entry is *replaced* in
      place (same key, new refs), and the memo is additionally LRU-bounded
      so callers whose keys churn (e.g. value-keyed constants) cannot grow a
      long-lived arena without bound.

    An arena belongs to one ``(plan, batch)`` key on one thread (see
    :func:`arena_for`); the scheduler activates it for the duration of a
    job, and a warm server reuses it across jobs.
    """

    #: LRU capacity of the constant memo — generous next to a real plan's
    #: working set (a few entries per layer), small next to unbounded growth
    CACHE_MAX_ENTRIES = 1024

    def __init__(self, key: object = None) -> None:
        self.key = key
        self._buffers: Dict[object, np.ndarray] = {}
        self._cache: Dict[object, Tuple[tuple, object]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: object, shape: Tuple[int, ...], dtype=np.uint64):
        """Return ``(buffer, fresh)`` — ``fresh`` is True on (re)allocation."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
            self.misses += 1
            return buffer, True
        self.hits += 1
        return buffer, False

    def cached(self, name: object, refs: tuple, build: Callable[[], object]):
        """Memoize ``build()`` under ``name``, revalidated by ``refs`` identity."""
        entry = self._cache.get(name)
        if entry is not None:
            cached_refs, value = entry
            if len(cached_refs) == len(refs) and all(
                a is b for a, b in zip(cached_refs, refs)
            ):
                # LRU touch: dicts iterate in insertion order, so re-inserting
                # keeps eviction pointed at the coldest entry
                self._cache[name] = self._cache.pop(name)
                self.hits += 1
                return value
            # stale refs: drop the old entry (and the source arrays it pins)
            # before rebuilding, so a churning key replaces instead of leaks
            del self._cache[name]
        value = build()
        while len(self._cache) >= self.CACHE_MAX_ENTRIES:
            self._cache.pop(next(iter(self._cache)))
        self._cache[name] = (tuple(refs), value)
        self.misses += 1
        return value

    @property
    def bytes_held(self) -> int:
        """Total bytes of the live scratch buffers (not the constant cache)."""
        return sum(buf.nbytes for buf in self._buffers.values())


_LOCAL = threading.local()


def arena_for(key: object) -> WorkspaceArena:
    """The calling thread's arena for ``key``, created on first use.

    Arenas are thread-local so a multi-threaded frontend can never hand two
    concurrent jobs the same scratch buffer; a party-server process (one
    serving thread) reuses one arena per ``(plan, batch)`` key across its
    whole lifetime.
    """
    registry = getattr(_LOCAL, "arenas", None)
    if registry is None:
        registry = _LOCAL.arenas = {}
    arena = registry.get(key)
    if arena is None:
        arena = registry[key] = WorkspaceArena(key)
    return arena


def clear_arenas() -> None:
    """Drop the calling thread's arenas (test isolation)."""
    _LOCAL.arenas = {}


# --------------------------------------------------------------------------- #
# Kernel context
# --------------------------------------------------------------------------- #
@dataclass
class KernelContext:
    """Per-execution kernel state the scheduler attaches to the 2PC context.

    While one is installed the protocol entry points take their fused paths;
    ``fused_calls`` counts fused-kernel invocations for the profile counters
    surfaced in engine results and serving stats.
    """

    arena: WorkspaceArena = field(default_factory=WorkspaceArena)
    fused_calls: int = 0

    def count(self, n: int = 1) -> None:
        self.fused_calls += n


def active_kernels(ctx) -> Optional[KernelContext]:
    """The context's kernel state, or None when fused execution is off."""
    return getattr(ctx, "kernels", None)


# --------------------------------------------------------------------------- #
# Fused elementwise kernels (exact uint64, in-place over fresh arrays)
# --------------------------------------------------------------------------- #
@register_kernel("truncate-pair")
def truncate_pair(
    ring: FixedPointRing, share0: np.ndarray, share1: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """In-place SecureML truncation of a *freshly owned* share pair.

    Bit-identical to ``(ring.truncate_local(share0, 0),
    ring.truncate_local(share1, 1))``: the int64 view replaces ``to_signed``
    (a reinterpretation either way) and the shift happens in place instead
    of through the wrap → shift → double-``astype`` copy chain.  Callers
    must own both arrays (they are mutated and returned).
    """
    if ring.ring_bits != 64:
        return ring.truncate_local(share0, 0), ring.truncate_local(share1, 1)
    frac = ring.frac_bits
    signed0 = share0.view(np.int64)
    np.right_shift(signed0, frac, out=signed0)
    signed1 = share1.view(np.int64)
    np.negative(signed1, out=signed1)
    np.right_shift(signed1, frac, out=signed1)
    np.negative(signed1, out=signed1)
    return share0, share1


@register_kernel("beaver-recombine")
def beaver_recombine(
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    e: np.ndarray,
    f: np.ndarray,
    z0: np.ndarray,
    z1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused Beaver recombination ``R_Si = -i·E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si``.

    One scratch temporary instead of six ``ring``-call intermediates; exact
    wrap-around uint64 arithmetic, so the result equals the reference chain
    bit for bit.  All operands must share one shape (the elementwise case).
    """
    with np.errstate(over="ignore"):
        r0 = np.multiply(x0, f)
        scratch = np.multiply(e, y0)
        np.add(r0, scratch, out=r0)
        np.add(r0, z0, out=r0)
        r1 = np.multiply(x1, f)
        np.multiply(e, y1, out=scratch)
        np.add(r1, scratch, out=r1)
        np.add(r1, z1, out=r1)
        np.multiply(e, f, out=scratch)
        np.subtract(r1, scratch, out=r1)
    return r0, r1


@register_kernel("square-recombine")
def square_recombine(
    e: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    z0: np.ndarray,
    z1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused square recombination ``R_Si = Z_Si + 2E⊙A_Si (+ E⊙E on lane 0)``."""
    with np.errstate(over="ignore"):
        two_e = np.multiply(e, np.uint64(2))
        r0 = np.multiply(two_e, a0)
        np.add(r0, z0, out=r0)
        scratch = np.multiply(e, e)
        np.add(r0, scratch, out=r0)
        r1 = np.multiply(two_e, a1)
        np.add(r1, z1, out=r1)
    return r0, r1


@register_kernel("scale-encoded")
def scale_encoded(
    ring: FixedPointRing,
    share0: np.ndarray,
    share1: np.ndarray,
    encoded: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply both lanes by a pre-encoded public constant, truncate in place."""
    with np.errstate(over="ignore"):
        r0 = np.multiply(share0, encoded)
        r1 = np.multiply(share1, encoded)
    return truncate_pair(ring, r0, r1)


@register_kernel("add-encoded")
def add_encoded(
    share0: np.ndarray, share1: np.ndarray, encoded: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Add a pre-encoded public constant onto a *freshly owned* lane-0 share."""
    with np.errstate(over="ignore"):
        np.add(share0, encoded, out=share0)
    return share0, share1


@register_kernel("and-finish")
def and_finish(
    d: np.ndarray,
    e: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    b0: np.ndarray,
    b1: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused GMW AND finish over opened masks ``d = x⊕a`` and ``e = y⊕b``."""
    scratch = np.bitwise_and(d, b0)
    z0 = np.bitwise_xor(c0, scratch)
    np.bitwise_and(e, a0, out=scratch)
    np.bitwise_xor(z0, scratch, out=z0)
    np.bitwise_and(d, e, out=scratch)
    np.bitwise_xor(z0, scratch, out=z0)
    np.bitwise_and(d, b1, out=scratch)
    z1 = np.bitwise_xor(c1, scratch)
    np.bitwise_and(e, a1, out=scratch)
    np.bitwise_xor(z1, scratch, out=z1)
    return z0, z1


@register_kernel("b2a-finish")
def b2a_finish(
    ones: np.ndarray,
    c_ring: np.ndarray,
    arith0: np.ndarray,
    arith1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused daBit bit-to-arithmetic finish ``s = c + (1 - 2c)·[b]``."""
    with np.errstate(over="ignore"):
        coeff = np.multiply(c_ring, np.uint64(2))
        np.subtract(ones, coeff, out=coeff)
        s0 = np.multiply(coeff, arith0)
        np.add(s0, c_ring, out=s0)
        s1 = np.multiply(coeff, arith1)
    return s0, s1


# --------------------------------------------------------------------------- #
# Stacked two-lane linear algebra
# --------------------------------------------------------------------------- #
@register_kernel("stacked-matmul")
def stacked_matmul(
    share0: np.ndarray,
    share1: np.ndarray,
    w_enc_t: np.ndarray,
    arena: Optional[WorkspaceArena] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both share lanes through one ``(2N, K) @ (K, M)`` ring matmul.

    Row blocks of a matmul are independent, so the two lane results are the
    same uint64 values two separate ``ring_matmul`` calls produce.  Returns
    views into one freshly allocated output (safe to truncate in place).
    """
    arena = arena if arena is not None else WorkspaceArena()
    n = share0.shape[0]
    stacked, _ = arena.get(("matmul-lanes", share0.shape), (2 * n,) + share0.shape[1:])
    stacked[:n] = share0
    stacked[n:] = share1
    with np.errstate(over="ignore"):
        out = np.matmul(stacked, w_enc_t)
    return out[:n], out[n:]


@register_kernel("stacked-conv2d")
def stacked_conv2d(
    share0: np.ndarray,
    share1: np.ndarray,
    w_enc: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    arena: Optional[WorkspaceArena] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both share lanes through one im2col convolution over a ``2N`` batch.

    Convolution is per-sample along the batch axis, so stacking the lanes is
    bit-identical to two :func:`repro.crypto.protocols.linear.ring_conv2d`
    calls — with one padded fill, one column gather and one matmul instead
    of two of each.  The padded input and the im2col column buffer live in
    the arena; the padding border is written once per buffer lifetime (the
    interior overwrite never touches it).  Returns views into one fresh
    output, safe to truncate in place.
    """
    arena = arena if arena is not None else WorkspaceArena()
    n, ic, h, w = share0.shape
    oc, icg, kh, kw = w_enc.shape
    if ic % groups or oc % groups:
        raise ValueError(f"channels ({ic}, {oc}) not divisible by groups={groups}")
    if icg != ic // groups:
        raise ValueError(
            f"weight expects {icg} input channels per group, input has {ic // groups}"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    lanes, fresh = arena.get(("conv-pad", (2 * n, ic, hp, wp), padding), (2 * n, ic, hp, wp))
    if padding:
        if fresh:
            lanes.fill(0)
        lanes[:n, :, padding : padding + h, padding : padding + w] = share0
        lanes[n:, :, padding : padding + h, padding : padding + w] = share1
    else:
        lanes[:n] = share0
        lanes[n:] = share1

    sn, sc, sh, sw = lanes.strides
    windows = np.lib.stride_tricks.as_strided(
        lanes,
        shape=(2 * n, ic, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    if groups == 1:
        cols, _ = arena.get(
            ("conv-cols", (2 * n, ic * kh * kw, oh * ow)),
            (2 * n, ic * kh * kw, oh * ow),
        )
        np.copyto(cols.reshape(2 * n, ic, kh, kw, oh, ow), windows)
        w_mat = w_enc.reshape(oc, ic * kh * kw)[None, :, :]
    else:
        ocg = oc // groups
        cols, _ = arena.get(
            ("conv-cols-g", (2 * n, groups, icg * kh * kw, oh * ow)),
            (2 * n, groups, icg * kh * kw, oh * ow),
        )
        np.copyto(cols.reshape(2 * n, ic, kh, kw, oh, ow), windows)
        w_mat = w_enc.reshape(groups, ocg, icg * kh * kw)[None, :, :, :]
    with np.errstate(over="ignore"):
        out = np.matmul(w_mat, cols).reshape(2 * n, oc, oh, ow)
    return out[:n], out[n:]
