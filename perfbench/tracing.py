"""Tracing from outside the program.

``Tracer.install()`` wraps the public functions of every module of the
``bitrunet`` package, plus a few methods named in ``METHODS`` and the CLI
command table, and rebinds each wrapped object under every name a module
of the package looks it up by. ``uninstall()`` puts the originals back.

While installed, each call records a span (name, start, end, parent) and
the counts derived from its arguments (computed GFLOP of a convolution
kernel, float64 kernel operands, tape nodes, bytes of files written or
read). Everything stays in memory until ``summary()`` and ``write()``.
``summary()`` has a row for every layer that was ever installed, with
zeros for one that was never called, so a layer that is missing from it
was not found in the package.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "bitrunet"

# methods traced under a layer name of their own
METHODS = {
    ("model", "BiTrUnetModel", "forward"): "model.forward",
    ("model", "ConvBlock", "__call__"): "model.ConvBlock",
    ("model", "UpBlock", "__call__"): "model.UpBlock",
    ("model", "VitBlock", "__call__"): "model.VitBlock",
    ("tensor", "Tape", "backward"): "tensor.Tape.backward",
}

# entry points the benchmark itself calls; the command span below is the root
_SKIP = {"cli.cli", "cli.main"}


def _conv_gflop(n, cout, cin, kernel, out_spatial):
    return 2.0 * n * cout * cin * int(np.prod(kernel)) * int(np.prod(out_spatial)) / 1e9


def _forward_gflop(x, w, stride, pad):
    out = [(s + 2 * pad - k) // stride + 1 for s, k in zip(x.shape[2:], w.shape[2:])]
    return _conv_gflop(x.shape[0], w.shape[0], w.shape[1], w.shape[2:], out)


def _input_grad_gflop(gy, w, stride, pad, in_spatial):
    return _conv_gflop(gy.shape[0], w.shape[0], w.shape[1], w.shape[2:], gy.shape[2:])


def _weight_grad_gflop(x, gy, stride, pad, kernel):
    return _conv_gflop(x.shape[0], gy.shape[1], x.shape[1], kernel, gy.shape[2:])


# name -> function of the call's arguments giving its computed GFLOP
_GFLOP = {
    "kernels.conv3d_forward": _forward_gflop,
    "kernels.conv3d_input_grad": _input_grad_gflop,
    "kernels.conv3d_weight_grad": _weight_grad_gflop,
}

# name -> position of the file path argument whose size is counted after the call
_FILE_ARG = {
    "checkpoint.save_checkpoint": 1,
    "checkpoint.load_checkpoint": 0,
    "data.load_case": 0,
    "nifti.read_nifti": 0,
    "nifti.write_nifti": 0,
}


def _modules():
    """Every module of the package, by full name."""
    pkg = importlib.import_module(PACKAGE)
    mods = {PACKAGE: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        full = f"{PACKAGE}.{info.name}"
        mods[full] = importlib.import_module(full)
    return mods


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, outermost]
        self.counts = defaultdict(Counter)  # name -> quantity -> total
        self._stack = []
        self._open = Counter()  # name -> spans of that name now open
        self._patches = []  # (setter, original) pairs, for uninstall
        self.installed = {}  # name -> quantities counted for it beyond calls and times

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name):
        gflop = _GFLOP.get(name)
        file_arg = _FILE_ARG.get(name)
        is_kernel = name.startswith("kernels.conv3d_")
        is_backward = name == "tensor.Tape.backward"
        counted = self.installed.setdefault(name, set())
        if gflop is not None:
            counted.add("gflop")
        if file_arg is not None:
            counted.add("bytes")
        if is_kernel:
            self.installed.setdefault("kernels", set()).add("f64_calls")
        if is_backward:
            self.installed.setdefault("tensor", set()).add("tape_nodes")
        spans, stack, open_names, counts = self.spans, self._stack, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if gflop is not None:
                counts[name]["gflop"] += gflop(*args, **kwargs)
            if is_kernel and any(
                isinstance(a, np.ndarray) and a.dtype == np.float64 for a in args
            ):
                counts["kernels"]["f64_calls"] += 1
            if is_backward:
                counts["tensor"]["tape_nodes"] += len(args[0].nodes)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, open_names[name] == 0]
            spans.append(span)
            stack.append(index)
            open_names[name] += 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                open_names[name] -= 1
                if file_arg is not None:
                    path = args[file_arg] if len(args) > file_arg else None
                    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                        counts[name]["bytes"] += os.path.getsize(path)

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind it wherever it is looked up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = _modules()
        # id(original) -> (original, name); where a module binds one function
        # under two names, the later name wins (kernels.conv3d_forward, not
        # the conv3d_forward_np it aliases)
        found = {}
        for full, mod in mods.items():
            short = full.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == full
                    and not attr.startswith("_")
                    and name not in _SKIP
                ):
                    found[id(obj)] = (obj, name)
        wrappers = {key: self.wrap(obj, name) for key, (obj, name) in found.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[f"{PACKAGE}.{short}"], cls_name)
            self._set(cls, meth, self.wrap(vars(cls)[meth], name))
        cli = mods[f"{PACKAGE}.cli"]
        for command, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = self.wrap(fn, f"cli.{command}")
            self._patches.append((functools.partial(cli._COMMANDS.__setitem__, command), fn))

    def _set(self, owner, attr, value):
        self._patches.append((functools.partial(setattr, owner, attr), getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -- results ---------------------------------------------------------

    def summary(self):
        """name -> {calls, busy_s, self_s, and any counts}, for every name
        ever installed.

        ``busy_s`` sums the outermost spans of a name, so a call nested in
        another of the same name is not counted twice; ``self_s`` is each
        span's time minus the time of its child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, quantities in self.installed.items():
            out[name].update(dict.fromkeys(quantities, 0))
        for i, (name, start, end, parent, outer) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            if outer:
                row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, quantities in self.counts.items():
            out[name].update(quantities)
        return dict(out)

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
