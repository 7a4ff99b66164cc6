"""Traced daemon launcher: ``shex-serve start`` with layer timers around
the public entry points of each module.

Usage (the benchmark starts it; ``src`` must be on ``PYTHONPATH``)::

    E2EBENCH_TRACE_OUT=trace.json python3 e2ebench/launcher.py start --socket s.sock

Before serving, every function named in ``LAYERS`` is replaced by a timing
wrapper in its own module *and* under every alias a ``from ... import``
bound in another ``repro`` module, so a call cannot bypass its wrapper.
Methods are patched on their class.  Each thread keeps a stack of open
layer frames: a frame's self time is its duration minus the time of the
frames nested in it, and ``calls`` counts entries into a layer from outside
it.  A ``ping`` request carrying ``"mark": NAME`` snapshots the counters
under ``NAME``; at exit the snapshots, the final counters and the
[start, end] of every outermost frame are written to
``$E2EBENCH_TRACE_OUT`` as JSON.  No file of the program is changed.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

#: layer -> [(module, attribute)] or [(module, "Class.method")].
LAYERS = {
    "rdf": [("repro.rdf.parser", "parse_turtle_lite"), ("repro.rdf.parser", "parse_ntriples"),
            ("repro.rdf.convert", "rdf_to_simple_graph")],
    "compile": [("repro.schema.parser", "parse_schema"),
                ("repro.engine.compiled", "compile_schema")],
    "kernel": [("repro.engine.fixpoint", name) for name in (
        "maximal_typing_fixpoint", "maximal_typing_store", "retype_incremental",
        "retype_kinds_incremental", "kind_typing_for_view", "expand_kind_typing",
        "affected_region")] + [("repro.engine.vectorized", "stabilise")],
    "assignment": [("repro.util.assignment", "feasible_assignment")],
    "presburger": [("repro.presburger.solver", name) for name in (
        "solve_problems", "solve_problem", "is_satisfiable", "solve_existential")],
    "store": [("repro.graphs.store", "GraphStore.apply"), ("repro.graphs.store", "GraphStore.diff"),
              ("repro.graphs.store", "GraphStore.typing_view")],
    "partition": [("repro.graphs.partition", "PartitionMaintainer.update"),
                  ("repro.graphs.partition", "PartitionMaintainer.restore"),
                  ("repro.graphs.store", "kind_partition"), ("repro.graphs.store", "kind_compress")],
    "embedding": [("repro.embedding.simulation", "maximal_simulation"),
                  ("repro.embedding.simulation", "find_embedding"),
                  ("repro.embedding.simulation", "embeds"),
                  ("repro.containment.detshex", "contains_detshex0_minus")],
    "search": [("repro.containment.counterexample", "find_counterexample")],
    "wal": [("repro.persist.wal", "WriteAheadLog.append")],
    "checkpoint": [("repro.persist.store", "DurableStore.checkpoint")],
    "recover": [("repro.persist.store", "DurableStore.open")],
}


class Recorder:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.incl_s = {layer: 0.0 for layer in LAYERS}
        self.candidates = 0
        self.frames = []  # [start, end] of every outermost frame
        self.marks = {}

    def wrap(self, layer, func):
        recorder = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack = getattr(recorder.local, "stack", None)
            if stack is None:
                stack = recorder.local.stack = []
            outer = any(frame[0] == layer for frame in stack)
            entering = not stack or stack[-1][0] != layer
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - frame[1]
                with recorder.lock:
                    recorder.self_s[layer] += elapsed - frame[2]
                    if entering:
                        recorder.calls[layer] += 1
                    if not outer:
                        recorder.incl_s[layer] += elapsed
                    if layer == "search" and result is not None:
                        recorder.candidates += getattr(result, "candidates_checked", 0)
                    if stack:
                        stack[-1][2] += elapsed
                    else:
                        recorder.frames.append((frame[1], end))

        return timed

    def snapshot(self):
        with self.lock:
            return {"t": time.perf_counter(), "calls": dict(self.calls),
                    "self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                    "candidates": self.candidates, "frames": len(self.frames)}

    def dump(self, path):
        payload = {"marks": self.marks, "final": self.snapshot(), "frames": self.frames}
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _patch_function(recorder, layer, module, name):
    original = getattr(module, name)
    wrapper = recorder.wrap(layer, original)
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                patched += 1
    return patched


def _patch_method(recorder, layer, module, dotted):
    class_name, method = dotted.split(".")
    cls = getattr(module, class_name)
    raw = inspect.getattr_static(cls, method)
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(recorder.wrap(layer, raw.__func__)))
    else:
        setattr(cls, method, recorder.wrap(layer, raw))


def install(recorder):
    """Import every ``repro`` module the daemon uses, then patch the layers."""
    import repro  # noqa: F401 — pulls in the public surface and its aliases
    for name in ("repro.serve.cli", "repro.serve.daemon", "repro.persist.store",
                 "repro.persist.wal", "repro.graphs.partition", "repro.containment.api",
                 "repro.containment.counterexample", "repro.containment.detshex",
                 "repro.engine.containment", "repro.engine.validation",
                 "repro.embedding.witness", "repro.schema.typing"):
        importlib.import_module(name)
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                _patch_method(recorder, layer, module, attr)
            elif _patch_function(recorder, layer, module, attr) == 0:
                raise RuntimeError(f"{module_name}.{attr} could not be patched")

    from repro.serve.daemon import ValidationDaemon

    original_ping = ValidationDaemon._op_ping

    async def ping(self, message):
        mark = message.get("mark")
        if isinstance(mark, str):
            recorder.marks[mark] = recorder.snapshot()
        return await original_ping(self, message)

    ValidationDaemon._op_ping = ping


def main(argv):
    out = os.environ["E2EBENCH_TRACE_OUT"]
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, out)
    from repro.serve.cli import main as serve_main

    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
