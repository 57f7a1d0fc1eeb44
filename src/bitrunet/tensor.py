"""N-dimensional tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a C-contiguous numpy array. One that requires a gradient
also owns a ``Slot``, a small object holding its ``.grad``. Differentiable
operations are free functions; when a ``Tape`` is active and any input
requires a gradient, the op appends a node holding its output's slot and the
backward rule. ``Tape.backward(loss)`` walks the tape in exact reverse
recording order, accumulating into the slots.

A rule keeps its operands' slots and shapes and only the arrays its formula
reads (``relu`` its mask, ``layer_norm`` its ``xhat``, ``attention`` its
weights), never an operand or output Tensor. So an activation that no rule
reads is freed during the forward pass, as soon as Python drops the Tensor.
Token sequences are (..., d, N): each token is a column, and ``layer_norm``
and ``attention`` take that layout as is.

Backward consumes the tape: once a node's rule has run, its entry in
``tape.nodes`` becomes ``None`` and its output slot's gradient is cleared, so
each array a rule read and each intermediate gradient is freed as soon as
nothing upstream needs it. Only leaf gradients (the parameters') survive,
and a second ``backward`` on the same tape raises. Tape lifetime is one
forward pass: enter a fresh ``Tape`` context for each training step, run
inference with no tape at all.
"""

import math

import numpy as np

from . import kernels


class Slot:
    """Where the gradient of one Tensor accumulates, and its dtype. Holding a
    slot keeps no array of the forward pass alive."""

    __slots__ = ("grad", "dtype")

    def __init__(self, dtype):
        self.grad = None
        self.dtype = dtype


class Tensor:
    """Array container: shape, row-major data, dtype, and a gradient slot
    when it requires a gradient."""

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            # np.generic too: a full reduction of a float32 array is a
            # float32 scalar, not an ndarray
            is_float = isinstance(data, (np.ndarray, np.generic)) and data.dtype in (
                np.float32,
                np.float64,
            )
            dtype = data.dtype if is_float else np.float64
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.slot = Slot(self.data.dtype) if requires_grad else None

    @property
    def requires_grad(self):
        return self.slot is not None

    @property
    def grad(self):
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g):
        if self.slot is None:
            if g is None:
                return
            raise ValueError("cannot set the gradient of a tensor that does not require one")
        self.slot.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: its output's slot, whose gradient is the
    upstream gradient, and the backward rule that passes it on. The rule
    holds the slots of the operands it accumulates into and the arrays it
    reads; neither keeps the output array alive."""

    __slots__ = ("slot", "rule")

    def __init__(self, slot, rule):
        self.slot = slot
        self.rule = rule


_ACTIVE_TAPE = None


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss):
        """Populate the leaf grads of everything the scalar ``loss`` depends
        on, freeing each node as soon as its rule has run."""
        if loss.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        if None in self.nodes:
            raise RuntimeError("backward already ran on this tape")
        loss.grad = np.ones_like(loss.data)
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            nodes[i] = None
            gy = node.slot.grad
            if gy is not None:
                node.slot.grad = None
                node.rule(gy)


def _recording(*tensors):
    return _ACTIVE_TAPE is not None and any(
        isinstance(t, Tensor) and t.requires_grad for t in tensors
    )


def _record(output, rule):
    output.slot = Slot(output.dtype)
    _ACTIVE_TAPE.nodes.append(Node(output.slot, rule))


def _accum(slot, g):
    """Add ``g`` into ``slot``'s gradient; the first one is taken as the
    gradient itself, C-contiguous in the slot's dtype. The slot then owns
    ``g``, so a rule passes an array nothing else writes (``add`` copies
    ``gy`` when both operands would get it). A non-contiguous view, such as
    the transposed input gradient of ``layer_norm`` or ``attention``, is
    copied: kept strided, the matmuls and sums that later read it would
    round differently."""
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = np.ascontiguousarray(g, dtype=slot.dtype)
    else:
        slot.grad += g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting allowed for bias-add / attention maps)
# ---------------------------------------------------------------------------

def add(a, b):
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data)
    if _recording(a, b):
        sa, sb, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape
        def rule(gy):
            ga = None
            if sa is not None:
                ga = _unbroadcast(gy, a_shape)
                _accum(sa, ga)
            if sb is not None:
                gb = _unbroadcast(gy, b_shape)
                _accum(sb, gb.copy() if gb is ga else gb)
        _record(out, rule)
    return out


def mul(a, b):
    b = _as_tensor(b, a)
    out = Tensor(a.data * b.data)
    if _recording(a, b):
        sa, sb, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape
        # each operand's array is read only for the other's gradient
        ad = a.data if sb is not None else None
        bd = b.data if sa is not None else None
        def rule(gy):
            if sa is not None:
                _accum(sa, _unbroadcast(gy * bd, a_shape))
            if sb is not None:
                _accum(sb, _unbroadcast(gy * ad, b_shape))
        _record(out, rule)
    return out


def div(a, b):
    b = _as_tensor(b, a)
    out = Tensor(a.data / b.data)
    if _recording(a, b):
        sa, sb, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape
        ad = a.data if sb is not None else None
        bd = b.data
        def rule(gy):
            if sa is not None:
                _accum(sa, _unbroadcast(gy / bd, a_shape))
            if sb is not None:
                _accum(sb, _unbroadcast(-gy * ad / (bd * bd), b_shape))
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# matrix product
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; leading axes broadcast, last two contract."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))
    if _recording(a, b):
        sa, sb, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape
        ad = a.data if sb is not None else None
        bd = b.data if sa is not None else None
        def rule(gy):
            if sa is not None:
                _accum(sa, _unbroadcast(np.matmul(gy, bd.swapaxes(-1, -2)), a_shape))
            if sb is not None:
                _accum(sb, _unbroadcast(np.matmul(ad.swapaxes(-1, -2), gy), b_shape))
        _record(out, rule)
    return out


def attention(q, k, v):
    """Scaled dot-product attention over token columns, one tape op. q, k
    and v are (..., dh, N); output column i is v's columns weighted by
    softmax_j(q_i . k_j / sqrt(dh)). The rule keeps q's transpose, k, v and
    the weights, and takes the softmax gradient in place."""
    scale = np.asarray(1.0 / math.sqrt(q.shape[-2]), dtype=q.dtype)
    qt = np.ascontiguousarray(q.data.swapaxes(-1, -2))
    p = np.matmul(qt, k.data)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor(np.matmul(v.data, np.ascontiguousarray(p.swapaxes(-1, -2))))
    if _recording(q, k, v):
        sq, sk, sv, kd, vd = q.slot, k.slot, v.slot, k.data, v.data
        def rule(gy):
            # p enters as the transposed view of a contiguous p^T, the layout
            # of the composed reference in the tests, whose bits this keeps;
            # the copy is freed before gp is made
            _accum(sv, np.matmul(gy, np.ascontiguousarray(p.swapaxes(-1, -2)).swapaxes(-1, -2)))
            gp = np.ascontiguousarray(np.matmul(vd.swapaxes(-1, -2), gy).swapaxes(-1, -2))
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            gp *= scale
            _accum(sq, np.matmul(gp, kd.swapaxes(-1, -2)).swapaxes(-1, -2))
            _accum(sk, np.matmul(qt.swapaxes(-1, -2), gp))
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# activations and pointwise transcendentals
# ---------------------------------------------------------------------------

def relu(x):
    out = Tensor(np.maximum(x.data, 0.0))
    if _recording(x):
        sx, mask = x.slot, x.data > 0
        def rule(gy):
            _accum(sx, gy * mask)
        _record(out, rule)
    return out


# Cephes rational approximations (Moshier 1989), the ones scipy.special
# uses: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, erfc(x) = exp(-x^2) P(x) / Q(x)
# for 1 < x < 8; U and Q have a leading coefficient of 1, left out here
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# float64 elements per block: the five block buffers stay in cache
_ERF_BLOCK = 1 << 15


def _polevl(x, coefs, out, monic=False):
    """Horner's rule into ``out``, as Cephes' polevl (p1evl if ``monic``)."""
    if monic:
        np.add(x, coefs[0], out=out)
        rest = coefs[1:]
    else:
        np.multiply(x, coefs[0], out=out)
        np.add(out, coefs[1], out=out)
        rest = coefs[2:]
    for c in rest:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def erf(x):
    """The error function, elementwise, by Cephes' rational approximations.

    Computed in float64 and returned as float32 for a float32 input, float64
    otherwise (scipy.special.erf's loops do the same). In float64 it is within
    1 ulp of scipy.special.erf; the two differ only where numpy's exp does
    from the C library's. For float32 inputs the bits are scipy's (every one
    of the 2^32 values agreed with scipy 1.17). erf(-x) is -erf(x), |x| >= 6
    gives exactly +-1 (1 - erfc(x) rounds to 1 from x = 5.86 on) and nan
    stays nan. The flat array is worked through in blocks that stay in cache.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.float32 if x.dtype == np.float32 else np.float64)
    src, dst = x.reshape(-1), out.reshape(-1)
    block = max(1, min(_ERF_BLOCK, src.size))
    bufs = [np.empty(block) for _ in range(5)]
    for start in range(0, src.size, block):
        stop = min(start + block, src.size)
        xv, av, zv, yv, dv = (b[: stop - start] for b in bufs)
        xv[...] = src[start:stop]
        np.abs(xv, out=av)
        # |x| clipped to 1: the same bits where this branch holds, and no
        # overflow where it does not (those entries are overwritten below)
        np.minimum(av, 1.0, out=zv)
        np.multiply(zv, zv, out=zv)
        num = _polevl(zv, _ERF_T, yv)
        den = _polevl(zv, _ERF_U, dv, monic=True)
        np.multiply(xv, num, out=yv)
        np.divide(yv, den, out=yv)
        np.copysign(1.0, xv, out=yv, where=av >= 6.0)
        mid = np.flatnonzero((av > 1.0) & (av < 6.0))
        if mid.size:
            a = av[mid]
            erfc = np.exp(-(a * a)) * _polevl(a, _ERFC_P, np.empty_like(a))
            erfc /= _polevl(a, _ERFC_Q, np.empty_like(a), monic=True)
            yv[mid] = np.copysign(1.0 - erfc, xv[mid])
        dst[start:stop] = yv
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x):
    """Exact Gaussian error linear unit, x * Phi(x), with Phi(x) =
    (1 + erf(x / sqrt 2)) / 2 by ``erf`` above: the Cephes rational
    approximations, within 1 ulp of scipy.special.erf in float64 and bit-equal
    to it in float32."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)
    if _recording(x):
        sx, xd = x.slot, x.data
        def rule(gy):
            pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
            _accum(sx, gy * (cdf + xd * pdf))
        _record(out, rule)
    return out


def sigmoid(x):
    out = Tensor(1.0 / (1.0 + np.exp(-x.data)))
    if _recording(x):
        sx, y = x.slot, out.data
        def rule(gy):
            _accum(sx, gy * y * (1.0 - y))
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _normalize(x, eps):
    """(x - mean) / sqrt(var + eps) over the last axis; returns the result
    and the 1 / sqrt(var + eps) factor."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _norm_input_grad(dxh, xhat, inv):
    """Input gradient of ``_normalize`` given the gradient ``dxh`` of its
    output ``xhat``."""
    return inv * (
        dxh
        - dxh.mean(axis=-1, keepdims=True)
        - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
    )


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each token column of (..., d, N) over its d features to zero
    mean / unit variance, then affine. The statistics are taken on a
    contiguous (..., N, d) copy, and the result is transposed back."""
    m = x.shape[-2]
    if gamma.shape != (m,) or beta.shape != (m,):
        raise ValueError(
            f"layer_norm affine params must have shape ({m},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    xhat, inv = _normalize(np.ascontiguousarray(x.data.swapaxes(-1, -2)), eps)
    out = Tensor((gamma.data * xhat + beta.data).swapaxes(-1, -2))
    if _recording(x, gamma, beta):
        sx, sg, sb, gd = x.slot, gamma.slot, beta.slot, gamma.data
        lead = tuple(range(x.ndim - 1))
        def rule(gy):
            gy = np.ascontiguousarray(gy.swapaxes(-1, -2))
            if sg is not None:
                _accum(sg, (gy * xhat).sum(axis=lead))
            if sb is not None:
                _accum(sb, gy.sum(axis=lead))
            if sx is not None:
                _accum(sx, _norm_input_grad(gy * gd, xhat, inv).swapaxes(-1, -2))
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# 3D convolution
# ---------------------------------------------------------------------------

_KERNEL = (3, 3, 3)


def _check_conv(x, weight, cin_axis, opname):
    """Reject a non-5D input, a kernel that is not 3x3x3, an input whose
    channels differ from the weight's and an empty spatial axis."""
    if x.ndim != 5:
        raise ValueError(f"{opname}: input must be 5D (N,C,H,W,D), got {x.shape}")
    if weight.ndim != 5 or weight.shape[2:] != _KERNEL:
        raise ValueError(f"{opname}: weight shape {weight.shape} is not a 3x3x3 kernel")
    cin = weight.shape[cin_axis]
    if x.shape[1] != cin:
        raise ValueError(
            f"{opname}: channel axis 1 has size {x.shape[1]}, expected {cin}"
        )
    for ax in (2, 3, 4):
        if x.shape[ax] == 0:
            raise ValueError(f"{opname}: spatial axis {ax} has zero size")


def _with_bias(y, bias):
    """Add the per-channel ``bias`` (Cout,) or None to the fresh conv output
    array ``y`` in place."""
    if bias is not None:
        y += bias.data.reshape(-1, 1, 1, 1)
    return y


def _accum_bias(slot, gy):
    if slot is not None:
        _accum(slot, _unbroadcast(gy, (gy.shape[1], 1, 1, 1)).reshape(-1))


def conv3d(x, weight, bias, stride=1):
    """3x3x3 convolution with zero padding 1. Weight (Cout, Cin, 3, 3, 3),
    bias (Cout,) or None."""
    _check_conv(x, weight, 1, "conv3d")
    out = Tensor(_with_bias(kernels.conv3d_forward(x.data, weight.data, stride, 1), bias))
    if _recording(x, weight, bias):
        sx, sw = x.slot, weight.slot
        sb = None if bias is None else bias.slot
        xd, wd = x.data, weight.data
        in_spatial = x.shape[2:]
        def rule(gy):
            if sx is not None:
                _accum(sx, kernels.conv3d_input_grad(gy, wd, stride, 1, in_spatial))
            if sw is not None:
                _accum(sw, kernels.conv3d_weight_grad(xd, gy, stride, 1, _KERNEL))
            _accum_bias(sb, gy)
        _record(out, rule)
    return out


def conv_transpose3d(x, weight, bias, stride=1):
    """Transposed 3x3x3 convolution, the adjoint of ``conv3d`` with the same
    weight (Cin, Cout, 3, 3, 3); bias (Cout,) or None.

    Stride 2 doubles each spatial size exactly; stride 1 preserves it.
    """
    _check_conv(x, weight, 0, "conv_transpose3d")
    out_spatial = tuple(stride * n for n in x.shape[2:])
    out = Tensor(_with_bias(
        kernels.conv3d_input_grad(x.data, weight.data, stride, 1, out_spatial), bias
    ))
    if _recording(x, weight, bias):
        sx, sw = x.slot, weight.slot
        sb = None if bias is None else bias.slot
        xd, wd = x.data, weight.data
        def rule(gy):
            if sx is not None:
                _accum(sx, kernels.conv3d_forward(gy, wd, stride, 1))
            if sw is not None:
                _accum(sw, kernels.conv3d_weight_grad(gy, xd, stride, 1, _KERNEL))
            _accum_bias(sb, gy)
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# concatenation, shape moves
# ---------------------------------------------------------------------------

def concat(xs, axis):
    """Concatenate tensors along ``axis``."""
    if not xs:
        raise ValueError("concat of an empty sequence")
    if not -xs[0].ndim <= axis < xs[0].ndim:
        raise ValueError(f"concat axis {axis} invalid for shape {xs[0].shape}")
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis))
    if _recording(*xs):
        slots = [t.slot for t in xs]
        splits = np.cumsum([t.shape[axis] for t in xs])[:-1]
        def rule(gy):
            for slot, g in zip(slots, np.split(gy, splits, axis=axis)):
                _accum(slot, g)
        _record(out, rule)
    return out


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))
    if _recording(x):
        sx, old = x.slot, x.shape
        def rule(gy):
            _accum(sx, gy.reshape(old))
        _record(out, rule)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(x, axis=None, keepdims=False):
    """Sum over ``axis``, an int or a tuple of ints (all elements when None)."""
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if _recording(x):
        sx, shape = x.slot, x.shape
        def rule(gy):
            g = gy
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(sx, np.broadcast_to(g, shape).copy())
        _record(out, rule)
    return out


def tmax(x, axis, keepdims=False):
    """Max along one axis; gradient flows to the first maximal element."""
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"max axis {axis} invalid for shape {x.shape}")
    idx = x.data.argmax(axis=axis)
    out = Tensor(x.data.max(axis=axis, keepdims=keepdims))
    if _recording(x):
        sx, shape = x.slot, x.shape
        def rule(gy):
            g = np.zeros(shape, dtype=sx.dtype)
            gk = gy if keepdims else np.expand_dims(gy, axis)
            np.put_along_axis(g, np.expand_dims(idx, axis), gk, axis)
            _accum(sx, g)
        _record(out, rule)
    return out
