"""In-memory spans around calls into the program's layers.

The benchmark does not change the program. It replaces, for the length of a
`with instrument(...)` block, every reference to a chosen public function in
the loaded `bridgeguard` modules by a wrapper, and puts the original back on
exit. References are found by identity, so a function re-exported or
imported by name into another module is wrapped wherever it is called from.

A span is (name, start_ns, end_ns, parent span index, transaction id). A
layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer name -> (module, function) pairs timed under that layer.
LAYER_FUNCTIONS = {
    "ingest": (("bridgeguard.ingest", "load_trace_file"),
               ("bridgeguard.ingest", "load_manifest")),
    "xteg": (("bridgeguard.xteg", "build_xteg"),),
    "wl": (("bridgeguard.wl", "wl_document"),),
    "graph2vec.infer": (("bridgeguard.graph2vec", "infer_embedding"),),
    "graph2vec.train": (("bridgeguard.graph2vec", "train_graph2vec"),),
    "features": (("bridgeguard.features", "graph_stats"),
                 ("bridgeguard.features", "direction_flag"),
                 ("bridgeguard.features", "assemble_global"),
                 ("bridgeguard.classify", "concat_features")),
    "motifs": (("bridgeguard.motifs", "local_feature"),),
    "classify.predict": (("bridgeguard.classify", "knn_predict"),
                         ("bridgeguard.classify", "dtree_predict")),
    "classify.scores": (("bridgeguard.classify", "knn_neighbor_stats"),
                        ("bridgeguard.classify", "dtree_leaf_distribution")),
    "classify.fit": (("bridgeguard.classify", "knn_train"),
                     ("bridgeguard.classify", "dtree_train")),
    "classify.eval": (("bridgeguard.classify", "split_dataset"),
                      ("bridgeguard.classify", "evaluate"),
                      ("bridgeguard.classify", "evaluate_binary")),
    "pipeline": (("bridgeguard.pipeline", "detect"),
                 ("bridgeguard.pipeline", "train_detector"),
                 ("bridgeguard.pipeline", "repeated_pipeline_eval")),
    "synthgen.gen": (("bridgeguard.synthgen", "gen_dataset"),),
    "synthgen.write": (("bridgeguard.synthgen", "write_corpus"),),
}


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    txid: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.txid]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.txid]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result
        return traced

    def self_ns(self) -> list[int]:
        """Self time per span, indexed like `spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, txid in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "tx": txid}) + "\n")


def _bridgeguard_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bridgeguard" or name.startswith("bridgeguard."))]


@contextmanager
def _patched(replacements: dict):
    """Replace each original function object by its wrapper in every loaded
    bridgeguard module for the length of the block."""
    undo = []
    for module in _bridgeguard_modules():
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                setattr(module, attr, wrapper[1])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def _resolve(module: str, attr: str):
    """The function object, or None when the program no longer has it."""
    mod = sys.modules.get(module)
    return getattr(mod, attr, None) if mod is not None else None


@contextmanager
def instrument(tracer: Tracer | None, hooks: dict | None = None):
    """Span every layer function (when `tracer` is given) and call
    `hooks[(module, attr)](args, result)` after each matching call."""
    hooks = hooks or {}
    replacements = {}
    missing = []
    for layer, targets in LAYER_FUNCTIONS.items():
        for module, attr in targets:
            fn = _resolve(module, attr)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            hook = hooks.get((module, attr))
            if tracer is not None:
                replacements[id(fn)] = (fn, tracer.wrap(fn, f"{layer}:{attr}", hook))
            elif hook is not None:
                replacements[id(fn)] = (fn, _hook_only(fn, hook))
    if missing and tracer is not None:
        print(f"perfbench: not traced (missing in program): {', '.join(missing)}",
              file=sys.stderr)
    with _patched(replacements):
        yield


def _hook_only(fn, hook):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result
    return hooked
