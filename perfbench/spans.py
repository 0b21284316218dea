"""Per-layer spans recorded from outside the splinegauss package.

A layer is one module of the package, plus ``linalg`` for the dense
factor/solve entry points of ``scipy.linalg`` and ``numpy.linalg``.  The
tracer wraps every public function and public method of each layer and
rebinds the wrapper under every name that refers to the original in the
package's modules: ``gauss`` calls ``evaluate`` through its own
``from .basis import evaluate``, so wrapping ``basis.evaluate`` alone would
miss the ``source_rule`` self-check.

Spans are aggregated as they close (no per-span storage), so memory stays
flat however many basis evaluations a round makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np
import numpy.linalg
import scipy.linalg

LAYERS = (
    "knots",
    "basis",
    "gauss",
    "continuation",
    "asymptotic",
    "galerkin",
    "rules",
    "serialization",
    "cli",
    "linalg",
)

# factor/solve entry points the package calls or may call
LINALG_FUNCTIONS = ("lu_factor", "lu_solve", "lstsq", "solve", "solve_banded")
# entry points that factorize their matrix (lu_solve reuses a factor)
FACTORIZING = {"lu_factor", "lstsq", "solve", "solve_banded"}

# basis kernels and how many points one call evaluates; counted only at the
# outermost kernel so a scalar kernel built on a batched one counts once
POINT_KERNELS = {
    "evaluate": lambda args: 1,
    "evaluate_many": lambda args: len(args[1]),
}

SERIALIZATION_WRITE = {
    "from_rule",
    "from_pattern",
    "to_dict",
    "to_json",
    "to_csv",
    "matrix_to_csv",
    "matrix_to_triplets",
}
SERIALIZATION_READ = {"from_json", "from_dict", "space", "rule"}

COUNTS = (
    "continuation.steps",
    "continuation.newton_failures",
    "linalg.factorizations",
    "linalg.bytes_computed",
)


def _matrix_bytes(args) -> int:
    total = 0
    for arg in args:
        parts = arg if isinstance(arg, tuple) else (arg,)
        for part in parts:
            if isinstance(part, np.ndarray) and part.ndim >= 2:
                total += part.nbytes
    return total


class Tracer:
    """Wraps the layers' public callables and sums span times per layer.

    ``install`` patches, ``uninstall`` restores every original binding.
    While installed, spans are recorded only when ``active`` is true; with
    it false a wrapper just forwards the call, so correctness checks can
    run between recorded ops without being counted.
    """

    def __init__(self):
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        # per layer [calls, self seconds, inclusive seconds, open spans];
        # wrappers hold these lists, so reset() zeroes them in place
        self._stats = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        self._stack: list[list[float]] = []  # child seconds of open spans
        self._points = [0, 0]  # [open point-kernel spans, points counted]
        self.reset()

    def reset(self) -> None:
        for stats in self._stats.values():
            stats[:] = [0, 0.0, 0.0, 0]
        self._stack.clear()
        self._points[:] = [0, 0]
        self.counts = Counter()
        self.serialization_s = Counter()

    # -- recording ------------------------------------------------------

    def _count_linalg(self, name: str, args) -> None:
        if name in FACTORIZING:
            self.counts["linalg.factorizations"] += 1
        self.counts["linalg.bytes_computed"] += _matrix_bytes(args)

    def _on_trace_result(self, result) -> None:
        self.counts["continuation.steps"] += result.steps_taken
        self.counts["continuation.newton_failures"] += result.newton_failures

    def _wrap(self, layer: str, name: str, fn, on_return=None):
        tracer, stack, stats = self, self._stack, self._stats[layer]
        kernel = self._points
        clock = time.perf_counter
        points = POINT_KERNELS.get(name) if layer == "basis" else None
        direction = None
        if layer == "serialization":
            direction = (
                "write" if name in SERIALIZATION_WRITE
                else "read" if name in SERIALIZATION_READ
                else None
            )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats[0] += 1
            stats[3] += 1
            if points is not None:
                if kernel[0] == 0:
                    kernel[1] += points(args)
                kernel[0] += 1
            elif layer == "linalg":
                tracer._count_linalg(name, args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[1] += duration - frame[0]
                stats[3] -= 1
                if stats[3] == 0:
                    stats[2] += duration
                    if direction is not None:
                        tracer.serialization_s[direction] += duration
                if stack:
                    stack[-1][0] += duration
                if points is not None:
                    kernel[0] -= 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = self._wrap(layer, name, attr.__func__)
                self._patch(cls, name, type(attr)(wrapped))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(layer, name, attr))

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers wherever names point."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("splinegauss")
        modules = {
            layer: importlib.import_module(f"splinegauss.{layer}")
            for layer in LAYERS
            if layer != "linalg"
        }
        # keyed by id; the tuple keeps each original alive while installing
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in public:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    hook = (
                        self._on_trace_result
                        if (layer, name) == ("continuation", "trace")
                        else None
                    )
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj, hook))
        for lib in (scipy.linalg, numpy.linalg):
            for name in LINALG_FUNCTIONS:
                obj = getattr(lib, name, None)
                if obj is not None:
                    wrappers[id(obj)] = (obj, self._wrap("linalg", name, obj))
        owners = [package, *modules.values(), scipy.linalg, numpy.linalg]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    self._patch(owner, name, hit[1])

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        self.active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self and inclusive seconds, plus the counters."""
        out: dict[str, float] = {}
        for layer, (calls, self_s, incl_s, _) in self._stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.incl_s"] = incl_s
        out["basis.points"] = self._points[1]
        for name in COUNTS:
            out[name] = self.counts[name]
        steps = self.counts["continuation.steps"]
        tries = steps + self.counts["continuation.newton_failures"]
        out["continuation.accept_ratio"] = steps / tries if tries else 1.0
        out["serialization.write_s"] = self.serialization_s["write"]
        out["serialization.read_s"] = self.serialization_s["read"]
        return out
