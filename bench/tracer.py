"""Spans around the calls into each package layer, recorded from outside.

The traced run wraps module attributes of the package: every public
function of every module except ``report`` (a plain container), plus the
private helpers named in ``PRIVATE_LAYERS``. Every binding of a wrapped
function is patched - the defining module, each module that imported it
with ``from .x import f``, the package namespace and module-level dicts
such as the CLI's command table - so calls between modules are seen too.

A span has a name ``<module>.<function>``, a start, an end, a parent span
and the request id it belongs to. Spans are kept in memory and written out
when the run ends. Calls outside a request (the benchmark's own checks)
pass straight through and are not recorded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from time import perf_counter

# Private helpers that carry a layer's work or count its fallbacks.
PRIVATE_LAYERS = {
    "specfun": ("_krawtchouk_sign", "_dual_hahn_sign", "_hyp2f1_rational"),
    "fourier": ("_S_table",),
    "wavefunctions": ("_closed_row",),
    "suite": ("_sweep_checks", "_fixed_checks"),
}
UNTRACED_MODULES = ("report", "__main__")
# Spans kept in memory for the spans file; the stats count every call.
SPAN_LIMIT = 400_000


# Counters of each layer, by the layer they are read from; cli.output_bytes
# is counted by the client from the text cli.main returns.
COUNTERS = {
    "oracle.tridiag_eigen": ("oracle.tridiag_eigen.iterations",),
    "oscillator.momentum_matrix": ("oscillator.momentum_matrix.bytes_out",),
    "suite.run_suite": ("suite.checks",),
    "cli.main": ("cli.output_bytes",),
}


def _counters_of(name: str, result) -> dict[str, float]:
    # Counts read off a layer's return value; bytes are computed from nbytes.
    if name == "oracle.tridiag_eigen":
        return {"oracle.tridiag_eigen.iterations": result.iterations}
    if name == "oscillator.momentum_matrix":
        return {"oscillator.momentum_matrix.bytes_out": result.nbytes}
    if name == "suite.run_suite":
        return {"suite.checks": len(result.checks)}
    return {}


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


def traced_functions(modules) -> dict[int, object]:
    """The functions to wrap, by id, found on the given package modules."""
    found = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        if short in UNTRACED_MODULES:
            continue
        for attr, value in vars(module).items():
            if inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if not attr.startswith("_") or attr in PRIVATE_LAYERS.get(short, ()):
                found[id(value)] = value
    return found


class Tracer:
    """In-memory span recorder with per-layer calls, busy and self time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}   # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []             # [span id, child time]
        self._next_id = 0
        self._request = -1
        self._patches: list[tuple] = []
        self.layers: list[str] = []              # every wrapped layer, called or not

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], parent[0] if parent else None, self._request,
                               name, start, end))
        else:
            self.dropped += 1

    def request(self, request_id: int, call, *args):
        """Run one request under a top-level span named ``request``."""
        self._request = request_id
        frame = self._enter()
        start = perf_counter()
        try:
            return call(*args)
        finally:
            self._leave(frame, "request", start, perf_counter())

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn):
        name = layer_name(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name, start, perf_counter())
            for key, value in _counters_of(name, result).items():
                tracer.count(key, value)
            return result

        return traced

    def install(self, modules) -> None:
        """Patch every binding of every traced function on ``modules``."""
        functions = traced_functions(modules)
        self.layers = sorted(layer_name(fn) for fn in functions.values())
        wrappers = {key: self._wrap(fn) for key, fn in functions.items()}
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def remove(self) -> None:
        """Restore every patched binding."""
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def write(self, path, summary: dict) -> None:
        """Write the summary and every recorded span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"summary": summary, "spans_dropped": self.dropped}) + "\n")
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                         "name": name, "start": start, "end": end}) + "\n")
