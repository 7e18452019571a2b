"""Per-layer metrics from a traced run.

Busy times are self times of the layer's spans; in the timed phase each
span is scaled to the reference host speed by its operation's factor (see
hostspeed.py), while set-up spans are as measured. Per-operation figures divide
by the operations of the traced timed phase (one transaction, or one
protocol run on train-eval); per-call figures divide by the calls made in the
whole run, set-up included, because training and fitting happen in set-up
on heldout and large. Work counts are taken from the captured arguments and
results after the timed phase, so that counting adds nothing to the spans.
"""

from __future__ import annotations

import os

import numpy as np

from . import checks
from .tracer import Tracer

SETUP_TX = "setup"

# (name, unit, better) in report order.
PER_LAYER = (
    ("ingest.busy_ms", "ms", "lower"),
    ("ingest.bytes", "bytes", "lower"),
    ("ingest.frames", "count", "lower"),
    ("xteg.busy_ms", "ms", "lower"),
    ("xteg.vertices", "count", "lower"),
    ("xteg.edges", "count", "lower"),
    ("xteg.logs", "count", "lower"),
    ("wl.busy_ms", "ms", "lower"),
    ("wl.tokens", "count", "lower"),
    ("graph2vec.infer_hit_ms", "ms", "lower"),
    ("graph2vec.infer_miss_ms", "ms", "lower"),
    ("graph2vec.hit_frac", "ratio", "higher"),
    ("graph2vec.oov_frac", "ratio", "lower"),
    ("graph2vec.train_s", "s", "lower"),
    ("graph2vec.train_docs", "count", "lower"),
    ("graph2vec.vocab", "count", "lower"),
    ("features.busy_ms", "ms", "lower"),
    ("motifs.census_ms", "ms", "lower"),
    ("motifs.vertices", "count", "lower"),
    ("motifs.arcs", "count", "lower"),
    ("classify.predict_ms", "ms", "lower"),
    ("classify.scores_ms", "ms", "lower"),
    ("classify.fit_ms", "ms", "lower"),
    ("pipeline.glue_ms", "ms", "lower"),
    ("synthgen.gen_s", "s", "lower"),
    ("synthgen.write_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# The paper's per-stage cost (ms per transaction) and the layers that do
# that stage's work here. A comparison column only, never a gate.
PAPER_STAGES = (
    ("xTEG construction", 0.253, ("ingest", "xteg")),
    ("Global graph mining", 0.332, ("wl", "graph2vec.infer", "features")),
    ("Local graph mining", 14.6, ("motifs",)),
    ("Attack detection classifier", 0.027, ("classify.predict", "classify.scores")),
)
PAPER_TOTAL_MS = 15.212


class LayerCounts:
    """Arguments and results kept from layer calls, counted afterwards."""

    def __init__(self) -> None:
        self.loads: list = []  # (path, record)
        self.graphs: list = []
        self.docs: list = []
        self.infers: list = []  # (model, doc), in call order
        self.trains: list = []  # (n docs, vocab size)
        self.censuses: list = []

    def hooks(self) -> dict:
        return {
            ("bridgeguard.ingest", "load_trace_file"):
                lambda args, result: self.loads.append((args[0], result)),
            ("bridgeguard.xteg", "build_xteg"):
                lambda args, result: self.graphs.append(result),
            ("bridgeguard.wl", "wl_document"):
                lambda args, result: self.docs.append(result),
            ("bridgeguard.graph2vec", "infer_embedding"):
                lambda args, result: self.infers.append((args[0], args[1])),
            ("bridgeguard.graph2vec", "train_graph2vec"):
                lambda args, result: self.trains.append((len(args[0]), len(result.vocab))),
            ("bridgeguard.motifs", "local_feature"):
                lambda args, result: self.censuses.append(args[0]),
        }


def merge_hooks(*tables: dict) -> dict:
    merged: dict = {}
    for table in tables:
        for key, fn in table.items():
            if key in merged:
                first = merged[key]
                merged[key] = lambda args, result, a=first, b=fn: (a(args, result),
                                                                  b(args, result))
            else:
                merged[key] = fn
    return merged


def count_frames(record) -> int:
    total, stack = 0, [record.root_frame]
    while stack:
        frame = stack.pop()
        total += 1
        stack.extend(frame.children)
    return total


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, setup_counts: LayerCounts,
                  timed_counts: LayerCounts, n_ops: int,
                  overhead_frac: float, op_scale: dict[str, float]) -> tuple[dict, dict]:
    """(per-layer metrics, self ms per op by layer) for a traced run.
    Timed-phase spans are scaled to the reference host speed by their
    operation's factor in `op_scale`, keyed by span transaction id; set-up
    spans are not."""
    self_ns = tracer.self_ns()
    # A call made from inside the same module family (knn_predict calling
    # knn_neighbor_stats) counts toward the outer call's layer.
    layers: list[str] = []
    calls: dict[str, list[int]] = {}  # layer -> [self ns, outermost calls], whole run
    for name, _, _, parent, _ in tracer.spans:
        layer = name.split(":")[0]
        nested = parent >= 0 and layers[parent].split(".")[0] == layer.split(".")[0]
        layer = layers[parent] if nested else layer
        layers.append(layer)
        calls.setdefault(layer, [0, 0])[1] += not nested
    timed: dict[str, float] = {}  # layer -> self ns in the timed phase
    infer_ns: list[int] = []
    for (_, _, _, _, tx), layer, own in zip(tracer.spans, layers, self_ns):
        if tx != SETUP_TX:
            own = own * op_scale[tx]
            timed[layer] = timed.get(layer, 0) + own
            if layer == "graph2vec.infer":
                infer_ns.append(own)
        calls[layer][0] += own

    def per_call(layer: str, scale: float) -> float:
        ns, n = calls.get(layer, (0, 0))
        return ns / scale / n if n else 0.0

    def per_op_ms(layer: str) -> float:
        return timed.get(layer, 0) / 1e6 / max(n_ops, 1)

    hits = [model.lookup(doc) is not None for model, doc in timed_counts.infers]
    tokens = sum(len(doc) for _, doc in timed_counts.infers)
    oov = sum(sum(t not in model.vocab for t in doc.tokens)
              for model, doc in timed_counts.infers)
    trains = setup_counts.trains + timed_counts.trains
    census_sizes = [(len(g.vertices), len(checks.simple_arcs(g)))
                    for g in timed_counts.censuses]
    values = {
        "ingest.busy_ms": per_op_ms("ingest"),
        "ingest.bytes": _mean(os.path.getsize(path) for path, _ in timed_counts.loads),
        "ingest.frames": _mean(count_frames(rec) for _, rec in timed_counts.loads),
        "xteg.busy_ms": per_op_ms("xteg"),
        "xteg.vertices": _mean(len(g.vertices) for g in timed_counts.graphs),
        "xteg.edges": _mean(len(g.edges) for g in timed_counts.graphs),
        "xteg.logs": _mean(sum(e.multiplicity for e in g.edges if e.kind == "EMIT")
                           for g in timed_counts.graphs),
        "wl.busy_ms": per_op_ms("wl"),
        "wl.tokens": _mean(len(doc) for doc in timed_counts.docs),
        "graph2vec.infer_hit_ms": _mean(ns / 1e6 for ns, hit in zip(infer_ns, hits) if hit),
        "graph2vec.infer_miss_ms": _mean(ns / 1e6 for ns, hit in zip(infer_ns, hits)
                                         if not hit),
        "graph2vec.hit_frac": _mean(hits),
        "graph2vec.oov_frac": oov / tokens if tokens else 0.0,
        "graph2vec.train_s": per_call("graph2vec.train", 1e9),
        "graph2vec.train_docs": _mean(n for n, _ in trains),
        "graph2vec.vocab": _mean(v for _, v in trains),
        "features.busy_ms": per_op_ms("features"),
        "motifs.census_ms": per_op_ms("motifs"),
        "motifs.vertices": _mean(n for n, _ in census_sizes),
        "motifs.arcs": _mean(a for _, a in census_sizes),
        "classify.predict_ms": per_op_ms("classify.predict"),
        "classify.scores_ms": per_op_ms("classify.scores"),
        "classify.fit_ms": per_call("classify.fit", 1e6),
        "pipeline.glue_ms": per_op_ms("pipeline"),
        "synthgen.gen_s": per_call("synthgen.gen", 1e9),
        "synthgen.write_s": per_call("synthgen.write", 1e9),
        "trace.overhead_frac": overhead_frac,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    by_layer = {layer: per_op_ms(layer) for layer in timed}
    return metrics, by_layer


def paper_table(by_layer: dict) -> list[str]:
    lines = [f"{'stage':<30} {'here ms/op':>11} {'paper ms/tx':>12}"]
    total = 0.0
    for stage, paper_ms, layers in PAPER_STAGES:
        here = sum(by_layer.get(layer, 0.0) for layer in layers)
        total += here
        lines.append(f"{stage:<30} {here:>11.3f} {paper_ms:>12.3f}")
    lines.append(f"{'total':<30} {total:>11.3f} {PAPER_TOTAL_MS:>12.3f}")
    return lines
