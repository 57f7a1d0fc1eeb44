"""Hot numeric kernels: 3D convolution forward and both backward passes.

Three primitives cover everything the network needs. A transposed
convolution is the input-gradient computation run forward, so it reuses
``conv3d_input_grad``; its gradients in turn reuse ``conv3d_forward`` and
``conv3d_weight_grad`` with the argument roles swapped.

Each primitive is a sum of BLAS GEMMs (``np.matmul``) whose input operands
are views: no tap's window is copied (implicit GEMM; Chetlur et al. 2014,
arXiv:1410.0759; Cho & Brand 2017, arXiv:1706.06873).

- Layout. A volume is zero-padded once onto a grid and flattened channels
  last, to (N * H' * W' * D', C). A tap that shifts by (a, b, c) voxels
  reads row ``m + off`` for grid voxel m, with ``off = a*W'D' + b*D' + c``.
  Results are computed on the grid, and only the rows of output voxels are
  kept.
- Runs. The taps of one (i, j) along the last kernel axis read rows one
  apart, so a run of n of them reads n * C contiguous values per voxel. For
  the voxels m = r, r + n, r + 2n, ... these blocks tile memory, so each r
  is one GEMM of a contiguous (voxels, n * C) slice against the run's n
  weight matrices stacked. This cuts the accumulations into the output to
  one per run.
- Stride. A stride s runs on the input's s**3 parity phases, split once
  from the padded input onto one common grid. Tap (i, j, k) reads phase
  (i % s, j % s, k % s) shifted by (i // s, j // s, k // s). Stride 1 is
  the one-phase case.

The primitives:

- forward: each output voxel sums its runs' window rows times the stacked
  (Cin, Cout) weights;
- weight gradient: per run, ``window.T @ gy``, with ``gy`` placed on the
  grid and zeros elsewhere, so the GEMM sums over the voxels and the batch;
- input gradient: each parity phase of the input is a forward pass over
  ``gy`` on its own grid, with that phase's taps flipped and
  channel-transposed; each phase is then written into the result once.

Conventions: input (N, Cin, H, W, D), weight (Cout, Cin, kh, kw, kd),
output (N, Cout, H', W', D'), all C-contiguous. The kernels take no bias:
the tape ops ``tensor.conv3d`` and ``tensor.conv_transpose3d`` add it in
place to the kernel's output and take its gradient in their own rule.
"""

import numpy as np


def conv_out_size(n, k, stride, pad):
    """Spatial output size of a forward convolution along one axis."""
    return (n + 2 * pad - k) // stride + 1


def _steps(grid):
    """Row step of each spatial axis of a flattened (N * prod(grid), C) volume."""
    return np.array((grid[1] * grid[2], grid[2], 1))


def _runs(kernel, stride):
    """Yield the runs of kernel taps that read one parity phase at
    consecutive shifts along the last axis: the run's (i, j, k-slice) index
    into a kernel whose last axis is in run order (see ``_run_order``), the
    phase's flat index and the shift of the run's first tap."""
    s = stride
    start = 0
    for r in range(s):
        n = len(range(r, kernel[2], s))
        for i, j in np.ndindex(kernel[0], kernel[1]):
            run = (i, j, slice(start, start + n))
            yield run, ((i % s) * s + j % s) * s + r, np.array((i // s, j // s, 0))
        start += n


def _run_order(k, stride, flip=False):
    """The last kernel axis grouped by parity, each group in shift order
    (reversed when ``flip``), so that the taps of a run are adjacent."""
    groups = [range(r, k, stride) for r in range(stride)]
    return [t for g in groups for t in (g[::-1] if flip else g)]


def _run_weights(w, stride, flip, dtype):
    """(Cout, Cin, kh, kw, kd) -> (Cout, kh, kw, kd, Cin) with the last
    kernel axis in run order, so that ``[:, i, j, k-slice]`` of a run, a
    (Cout, n, Cin) view, reshapes to its taps stacked along Cin without a
    copy."""
    out = np.empty((w.shape[0],) + w.shape[2:] + (w.shape[1],), dtype=dtype)
    out[:, :, :, np.argsort(_run_order(w.shape[4], stride, flip))] = w.transpose(
        0, 2, 3, 4, 1
    )
    return out


def _transposing_copy(dst, src):
    """``dst[...] = src`` for two (N, H, W, D, C) views, one of them a
    channels-first array seen channels last, one H-slab at a time: numpy's
    transposing copy of a whole volume is several times slower once the
    volume outgrows the cache."""
    for h in range(dst.shape[1]):
        dst[:, h] = src[:, h]


def _to_grid(a, grid, corner, dtype):
    """(N, C, spatial) -> (N * prod(grid), C): ``a`` at ``corner`` of a zero
    grid, channels last."""
    n, c = a.shape[:2]
    out = np.zeros((n,) + tuple(grid) + (c,), dtype=dtype)
    window = tuple(slice(o, o + e) for o, e in zip(corner, a.shape[2:]))
    _transposing_copy(out[(slice(None),) + window], a.transpose(0, 2, 3, 4, 1))
    return out.reshape(-1, c)


def _phases(x, stride, pad, dtype):
    """The zero-padded input split into its stride**3 parity phases, channels
    last: (stride**3, N * prod(grid), C) and the grid. Phase (r1, r2, r3)
    holds padded voxel stride * m + r at grid voxel m."""
    s = stride
    n, c = x.shape[:2]
    grid = tuple(-(-(e + 2 * pad) // s) for e in x.shape[2:])
    xp = _to_grid(x, [s * g for g in grid], (pad,) * 3, dtype)
    split = xp.reshape(n, grid[0], s, grid[1], s, grid[2], s, c)
    phases = np.ascontiguousarray(split.transpose(2, 4, 6, 0, 1, 3, 5, 7))
    return phases.reshape(s**3, -1, c), grid


def _windows(src, off, n, span):
    """Per r < n, the view (voxels, n * C) of ``src`` whose row t holds rows
    off + m .. off + m + n - 1 for grid voxel m = r + n * t < span."""
    c = src.shape[1]
    flat = src.reshape(-1)
    for r in range(n):
        count = len(range(r, span, n))
        yield r, flat[(off + r) * c : (off + r + n * count) * c].reshape(count, n * c)


def _tap_sum(terms, rows, cols, dtype):
    """(rows, cols) array whose first ``span`` rows hold, per grid voxel m,
    the sum over the ``(w, src, off)`` terms, w being n taps' weights
    (cols, n, C), of the rows ``src[m + off .. m + off + n - 1]``
    concatenated times ``w.reshape(cols, -1).T``. ``span`` is the longest
    run every term leaves inside ``rows``; the rows past it are not set."""
    out = np.empty((rows, cols), dtype=dtype)
    span = rows - max(off + w.shape[1] - 1 for w, _, off in terms)
    head = out[:span]
    prod = np.empty_like(head)
    for t, (w, src, off) in enumerate(terms):
        n = w.shape[1]
        into = prod if t else head
        for r, view in _windows(src, off, n, span):
            np.matmul(view, w.reshape(cols, -1).T, out=into[r::n])
        if t:
            head += prod
    return out


def conv3d_forward(x, w, stride, pad):
    n, cout = x.shape[0], w.shape[0]
    kernel = w.shape[2:]
    out_spatial = tuple(
        conv_out_size(s, k, stride, pad) for s, k in zip(x.shape[2:], kernel)
    )
    dtype = np.result_type(x, w)
    phases, grid = _phases(x, stride, pad, dtype)
    wr = _run_weights(w, stride, False, dtype)
    step = _steps(grid)
    terms = [
        (wr[(slice(None),) + run], phases[p], int(shift @ step))
        for run, p, shift in _runs(kernel, stride)
    ]
    out = _tap_sum(terms, phases.shape[1], cout, dtype)
    out = out.reshape((n,) + grid + (cout,))
    y = np.empty((n, cout) + out_spatial, dtype=dtype)
    _transposing_copy(
        y.transpose(0, 2, 3, 4, 1),
        out[(slice(None),) + tuple(slice(e) for e in out_spatial)],
    )
    return y


def conv3d_weight_grad(x, gy, stride, pad, kernel):
    cout, cin = gy.shape[1], x.shape[1]
    dtype = np.result_type(x, gy)
    phases, grid = _phases(x, stride, pad, dtype)
    gyg = _to_grid(gy, grid, (0, 0, 0), dtype)
    step = _steps(grid)
    # (kh, kw, kd, Cin, Cout), the last kernel axis in run order
    gw = np.empty(tuple(kernel) + (cin, cout), dtype=dtype)
    runs = [
        (gw[run], p, int(shift @ step)) for run, p, shift in _runs(kernel, stride)
    ]
    span = len(gyg) - max(off + len(block) - 1 for block, _, off in runs)
    for block, p, off in runs:
        n = len(block)
        block.reshape(-1, cout)[...] = sum(
            view.T @ gyg[r:span:n] for r, view in _windows(phases[p], off, n, span)
        )
    out = np.empty((cout, cin) + tuple(kernel), dtype=dtype)
    out[..., _run_order(kernel[2], stride)] = gw.transpose(4, 3, 0, 1, 2)
    return out


def conv3d_input_grad(gy, w, stride, pad, in_spatial):
    n, cin = gy.shape[0], w.shape[1]
    kernel = w.shape[2:]
    s = stride
    dtype = np.result_type(gy, w)
    # Input voxel u of phase r sits at phase-grid voxel m = (u + pad - r) / s,
    # and tap s*q + r adds W^T gy[m - q]. The grid starts at m0, the lowest
    # m of an input voxel, and gy starts at reach - m0 on it, so that tap q
    # reads grid row m - m0 + reach - q >= 0. The grid holds every m - m0
    # plus the reach; gy fits in it as long as pad < kernel.
    m0 = pad // s
    reach = np.array([(k - 1) // s for k in kernel])
    grid = tuple(
        (e - 1 + pad) // s - m0 + 1 + q for e, q in zip(in_spatial, reach)
    )
    gyg = _to_grid(gy, grid, reach - m0, dtype)
    # the runs' shifts rise along the last axis, so their rows of gy fall:
    # the flipped run order takes them in rising row order
    wr = _run_weights(w.transpose(1, 0, 2, 3, 4), s, True, dtype)
    step = _steps(grid)
    runs = list(_runs(kernel, s))
    gx = np.empty((n, cin) + tuple(in_spatial), dtype=dtype)
    gx_last = gx.transpose(0, 2, 3, 4, 1)
    for p, r in enumerate(np.ndindex(s, s, s)):
        blocks = [
            (wr[(slice(None),) + run], int((reach - shift) @ step))
            for run, q, shift in runs
            if q == p
        ]
        terms = [(b, gyg, last - b.shape[1] + 1) for b, last in blocks]
        phase = _tap_sum(terms, len(gyg), cin, dtype).reshape((n,) + grid + (cin,))
        first = [-(-(pad - a) // s) - m0 for a in r]
        voxels = [slice(s * (f + m0) + a - pad, None, s) for f, a in zip(first, r)]
        counts = [len(range(e)[v]) for e, v in zip(in_spatial, voxels)]
        window = tuple(slice(f, f + c) for f, c in zip(first, counts))
        _transposing_copy(
            gx_last[(slice(None),) + tuple(voxels)], phase[(slice(None),) + window]
        )
    return gx
