"""Hot numeric kernels: 3D convolution forward and both backward passes.

Three primitives cover everything the network needs. A transposed
convolution is the input-gradient computation run forward, so it reuses
``conv3d_input_grad``; its gradients in turn reuse ``conv3d_forward`` and
``conv3d_weight_grad`` with the argument roles swapped.

Each primitive is one BLAS GEMM (``np.matmul``) per kernel tap, the
unfold/GEMM convolution done one tap at a time so that no tensor of all
taps is ever built. Inside a primitive the channel axis leads and the batch
is folded into the GEMM's column axis, so a tap's GEMM covers the whole
batch:

- forward: the tap's strided input slab is copied into one reused
  (Cin, N*P) buffer, P being the output voxels per sample, and
  ``W[:, :, i, j, k] @ slab`` is added to the output;
- weight gradient: ``gy @ slab.T`` for the same slabs, which sums over the
  batch inside the GEMM;
- input gradient: ``W[:, :, i, j, k].T @ gy`` into one reused buffer,
  added into the tap's strided slice of the padded gradient.

Conventions: input (N, Cin, H, W, D), weight (Cout, Cin, kh, kw, kd),
output (N, Cout, H', W', D'), all C-contiguous. No bias here; bias-add is a
separate tape op.
"""

import math

import numpy as np


def conv_out_size(n, k, stride, pad):
    """Spatial output size of a forward convolution along one axis."""
    return (n + 2 * pad - k) // stride + 1


def _channels_first_2d(a):
    """(N, C, ...) -> (C, N * spatial), a view when N == 1."""
    return a.transpose(1, 0, 2, 3, 4).reshape(a.shape[1], -1)


def _taps(kernel, stride, out_spatial):
    """Yield, per kernel tap, its index into a weight and the strided
    window of a padded (C, N, ...) volume that the tap meets."""
    for i in range(kernel[0]):
        for j in range(kernel[1]):
            for k in range(kernel[2]):
                window = tuple(
                    slice(t, t + stride * n, stride)
                    for t, n in zip((i, j, k), out_spatial)
                )
                yield (..., i, j, k), (slice(None), slice(None)) + window


def _slabs(x, pad, stride, kernel, out_spatial, dtype):
    """Yield, per kernel tap, its weight index and the tap's strided input
    window copied into one reused (Cin, N * P) buffer."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    xp = x.transpose(1, 0, 2, 3, 4)
    slab = np.empty(xp.shape[:2] + tuple(out_spatial), dtype=dtype)
    slab2d = slab.reshape(slab.shape[0], -1)
    for tap, window in _taps(kernel, stride, out_spatial):
        slab[...] = xp[window]
        yield tap, slab2d


def conv3d_forward(x, w, stride, pad):
    n, cout = x.shape[0], w.shape[0]
    kernel = w.shape[2:]
    out_spatial = tuple(
        conv_out_size(s, k, stride, pad) for s, k in zip(x.shape[2:], kernel)
    )
    dtype = np.result_type(x, w)
    out = np.zeros((cout, n * math.prod(out_spatial)), dtype=dtype)
    prod = np.empty_like(out)
    for tap, slab in _slabs(x, pad, stride, kernel, out_spatial, dtype):
        np.matmul(w[tap], slab, out=prod)
        out += prod
    out = out.reshape((cout, n) + out_spatial).transpose(1, 0, 2, 3, 4)
    return np.ascontiguousarray(out)


def conv3d_weight_grad(x, gy, stride, pad, kernel):
    dtype = np.result_type(x, gy)
    gy2d = _channels_first_2d(gy)
    gw = np.empty((gy.shape[1], x.shape[1]) + tuple(kernel), dtype=dtype)
    for tap, slab in _slabs(x, pad, stride, kernel, gy.shape[2:], dtype):
        gw[tap] = gy2d @ slab.T
    return gw


def conv3d_input_grad(gy, w, stride, pad, in_spatial):
    n, cin = gy.shape[0], w.shape[1]
    out_spatial = gy.shape[2:]
    dtype = np.result_type(gy, w)
    gxp = np.zeros((cin, n) + tuple(s + 2 * pad for s in in_spatial), dtype=dtype)
    gy2d = _channels_first_2d(gy)
    contrib = np.empty((cin, gy2d.shape[1]), dtype=dtype)
    contrib5d = contrib.reshape((cin, n) + out_spatial)
    for tap, window in _taps(w.shape[2:], stride, out_spatial):
        np.matmul(w[tap].T, gy2d, out=contrib)
        gxp[window] += contrib5d
    gx = gxp.transpose(1, 0, 2, 3, 4)
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad, pad:-pad]
    return np.ascontiguousarray(gx)
