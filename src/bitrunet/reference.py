"""Brute-force reference implementations.

These are deliberately naive (nested loops, exhaustive enumeration) and
share no code with the production paths they are checked against. The
``selftest`` CLI subcommand and the test suite both compare against them.
"""

import numpy as np


def naive_conv3d(x, w, stride, pad):
    """Direct 7-nested-loop convolution, (N,Cin,H,W,D) x (Cout,Cin,kh,kw,kd)."""
    n, cin, ih, iw, idp = x.shape
    cout, _, kh, kw, kd = w.shape
    oh = (ih + 2 * pad - kh) // stride + 1
    ow = (iw + 2 * pad - kw) // stride + 1
    od = (idp + 2 * pad - kd) // stride + 1
    out = np.zeros((n, cout, oh, ow, od), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for ox in range(oh):
                for oy in range(ow):
                    for oz in range(od):
                        acc = 0.0
                        for c in range(cin):
                            for i in range(kh):
                                for j in range(kw):
                                    for k in range(kd):
                                        xi = ox * stride - pad + i
                                        yj = oy * stride - pad + j
                                        zk = oz * stride - pad + k
                                        if (
                                            0 <= xi < ih
                                            and 0 <= yj < iw
                                            and 0 <= zk < idp
                                        ):
                                            acc += x[b, c, xi, yj, zk] * w[o, c, i, j, k]
                        out[b, o, ox, oy, oz] = acc
    return out


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def brute_force_vote(masks, probs):
    """Exhaustive per-voxel evaluation of mode voting with probability
    tie-breaks, looping over every voxel and category."""
    n = len(masks)
    k = probs[0].shape[0]
    shape = masks[0].shape
    out = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(shape):
        votes = [int(masks[i][idx]) for i in range(n)]
        counts = [votes.count(c) for c in range(k)]
        top = max(counts)
        tied = [c for c in range(k) if counts[c] == top]
        if len(tied) == 1:
            out[idx] = tied[0]
            continue
        best = tied[0]
        best_p = sum(probs[i][(best,) + idx] for i in range(n)) / n
        for c in tied[1:]:
            pc = sum(probs[i][(c,) + idx] for i in range(n)) / n
            if pc > best_p:
                best, best_p = c, pc
        out[idx] = best
    return out


def flood_fill_components(binary):
    """26-connected component labeling by breadth-first flood fill.

    Returns (labels, count); labels are 1..count, background 0.
    """
    binary = np.asarray(binary, dtype=bool)
    labels = np.zeros(binary.shape, dtype=np.int64)
    shape = binary.shape
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    current = 0
    for seed in np.ndindex(shape):
        if not binary[seed] or labels[seed]:
            continue
        current += 1
        stack = [seed]
        labels[seed] = current
        while stack:
            x, y, z = stack.pop()
            for dx, dy, dz in offsets:
                nx, ny, nz = x + dx, y + dy, z + dz
                if (
                    0 <= nx < shape[0]
                    and 0 <= ny < shape[1]
                    and 0 <= nz < shape[2]
                    and binary[nx, ny, nz]
                    and not labels[nx, ny, nz]
                ):
                    labels[nx, ny, nz] = current
                    stack.append((nx, ny, nz))
    return labels, current


def brute_force_postprocess(mask, thresholds):
    """Reference small-component removal built on the flood fill."""
    out = np.asarray(mask).copy()
    for cls, thr in thresholds.items():
        if thr <= 0:
            continue
        labels, count = flood_fill_components(out == cls)
        for comp in range(1, count + 1):
            sel = labels == comp
            if sel.sum() < thr:
                out[sel] = 0
    return out


def brute_force_surface(binary):
    """Surface voxels by the direct definition: any 6-neighbor background
    or volume boundary."""
    binary = np.asarray(binary, dtype=bool)
    out = np.zeros_like(binary)
    shape = binary.shape
    for idx in np.ndindex(shape):
        if not binary[idx]:
            continue
        x, y, z = idx
        on_surface = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            nx, ny, nz = x + dx, y + dy, z + dz
            if not (0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]):
                on_surface = True
                break
            if not binary[nx, ny, nz]:
                on_surface = True
                break
        out[idx] = on_surface
    return out


def brute_force_hd95(pred, truth, spacing=(1.0, 1.0, 1.0)):
    """All-pairs nearest-surface distances, pooled, 95th percentile; 373.1287
    when exactly one mask has no surface."""
    ps = np.argwhere(brute_force_surface(pred)).astype(np.float64)
    ts = np.argwhere(brute_force_surface(truth)).astype(np.float64)
    if len(ps) == 0 and len(ts) == 0:
        return 0.0
    if len(ps) == 0 or len(ts) == 0:
        return 373.1287
    sp = np.asarray(spacing, dtype=np.float64)
    dists = []
    for src, dst in ((ps, ts), (ts, ps)):
        for v in src:
            best = np.inf
            for u in dst:
                d = np.sqrt((((v - u) * sp) ** 2).sum())
                if d < best:
                    best = d
            dists.append(best)
    return float(np.percentile(np.asarray(dists), 95))
