"""Hot numeric kernels: 3D convolution forward and both backward passes.

Three primitives cover everything the network needs. A transposed
convolution is the input-gradient computation run forward, so it reuses
``conv3d_input_grad``; its gradients in turn reuse ``conv3d_forward`` and
``conv3d_weight_grad`` with the argument roles swapped.

Each primitive is plain numpy: the forward pass is one einsum over a
strided sliding-window view, and both backward passes loop over the kernel
taps with one vectorized einsum per tap, so the contractions run on BLAS.

Conventions: input (N, Cin, H, W, D), weight (Cout, Cin, kh, kw, kd),
output (N, Cout, H', W', D'), all C-contiguous. No bias here; bias-add is a
separate tape op.
"""

import numpy as np


def conv_out_size(n, k, stride, pad):
    """Spatial output size of a forward convolution along one axis."""
    return (n + 2 * pad - k) // stride + 1


def _pad_spatial(x, pad):
    if pad == 0:
        return x
    p = ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad))
    return np.pad(x, p)


def conv3d_forward(x, w, stride, pad):
    kh, kw, kd = w.shape[2:]
    xp = _pad_spatial(x, pad)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw, kd), axis=(2, 3, 4))
    win = win[:, :, ::stride, ::stride, ::stride]
    # win: (N, Cin, H', W', D', kh, kw, kd)
    return np.einsum("ncxyzijk,ocijk->noxyz", win, w, optimize=True)


def conv3d_weight_grad(x, gy, stride, pad, kernel):
    kh, kw, kd = kernel
    xp = _pad_spatial(x, pad)
    oh, ow, od = gy.shape[2:]
    gw = np.empty((gy.shape[1], x.shape[1], kh, kw, kd), dtype=x.dtype)
    # one contraction per kernel tap keeps the operands contiguous-ish and
    # avoids materializing the full sliding-window tensor
    for i in range(kh):
        for j in range(kw):
            for k in range(kd):
                win = xp[
                    :,
                    :,
                    i : i + stride * oh : stride,
                    j : j + stride * ow : stride,
                    k : k + stride * od : stride,
                ]
                gw[:, :, i, j, k] = np.einsum(
                    "ncxyz,noxyz->oc", win, gy, optimize=True
                )
    return gw


def conv3d_input_grad(gy, w, stride, pad, in_spatial):
    n, cout = gy.shape[:2]
    cin = w.shape[1]
    kh, kw, kd = w.shape[2:]
    oh, ow, od = gy.shape[2:]
    ih, iw, idp = in_spatial
    gxp = np.zeros(
        (n, cin, ih + 2 * pad, iw + 2 * pad, idp + 2 * pad), dtype=gy.dtype
    )
    # scatter one kernel offset at a time; each add is fully vectorized
    for i in range(kh):
        for j in range(kw):
            for k in range(kd):
                contrib = np.einsum("noxyz,oc->ncxyz", gy, w[:, :, i, j, k])
                gxp[
                    :,
                    :,
                    i : i + stride * oh : stride,
                    j : j + stride * ow : stride,
                    k : k + stride * od : stride,
                ] += contrib
    if pad == 0:
        return gxp
    return np.ascontiguousarray(gxp[:, :, pad:-pad, pad:-pad, pad:-pad])
