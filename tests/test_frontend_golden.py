"""One pinned digest over everything the per-transaction front end makes.

Trace files are read with `load_trace_file`, built with `build_xteg`, turned
into WL documents with `wl_document` and counted with `local_feature`. The
digest covers, per input: the record's fields, its frames in pre-order with
every field and child count, its logs; the xTEG's vertices and edges with
their order and multiplicity; the WL tokens at the default and a deeper
iteration count; and the census counts. Labels can stay the same when a
token or an edge moves; this digest cannot.

The inputs are a small fixed `synthgen` corpus, a few `largegen` documents
(one with the depth-320 reentrancy chain), random conftest traces and a few
hand-written documents that take the parser's less common branches.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from bridgeguard.errors import BridgeGuardError
from bridgeguard.ingest import flatten_frames, load_trace_file
from bridgeguard.motifs import local_feature
from bridgeguard.synthgen import GenConfig, gen_dataset, write_corpus
from bridgeguard.wl import wl_document
from bridgeguard.xteg import build_xteg
from conftest import random_trace_doc

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from perfbench import largegen  # noqa: E402
finally:
    sys.dont_write_bytecode = _write_bytecode

GOLDEN = "11b19f8b867d58cec918360d0db8d1e43476f345c0255364dbfad6240fdfe230"

# (index, vertex count, chain depth) of the largegen inputs, seed 2024.
LARGE_INPUTS = ((0, 64, 0), (1, 97, 320), (2, 150, 0), (3, 256, 0))

A = "0x" + "aA" * 20
B = "0x" + "bb" * 20
C = "0x" + "cc" * 20
T = "0x" + "0F" * 32
HAND_WRITTEN = [
    # upper-case hex, decimal quantities, a reverted frame, a CREATE without
    # `to`, an anonymous log, a log from an address no frame enters
    {"tx_hash": "0x" + "Ab" * 32, "chain_id": "56", "block_number": "0x10",
     "trace": {"type": "call", "from": A, "to": B, "input": "0xDEADBEEF00",
               "value": "1000", "calls": [
                   {"type": "CREATE2", "from": B, "input": "0x6080", "value": None},
                   {"type": "STATICCALL", "from": B, "to": C, "input": "0x",
                    "error": "execution reverted"},
                   {"type": "DELEGATECALL", "from": B, "to": B, "input": "0xdeadbeef",
                    "revertReason": "no"}]},
     "logs": [{"address": C, "topics": [], "data": "0x", "logIndex": "0x2"},
              {"address": B, "topics": [T, T.lower()], "data": "0xFF", "logIndex": 0},
              {"address": "0x" + "dd" * 20, "topics": [T], "logIndex": 1}]},
    # a root self-send whose logs make the graph
    {"trace": {"type": "CALL", "from": A, "to": A, "value": "0x1"},
     "logs": [{"address": A, "topics": [T], "data": "0x"},
              {"address": B, "topics": [T], "data": "0x"}]},
    # a hub with parallel edges, self-loops and callbacks to the sender
    {"trace": {"type": "CALL", "from": A, "to": B, "input": "0x12345678", "calls": [
        {"type": "CALL", "from": B, "to": B, "input": "0x12345678"},
        {"type": "CALL", "from": B, "to": B, "input": "0x12345678"},
        {"type": "CALL", "from": B, "to": C, "input": "0x"},
        {"type": "CALL", "from": B, "to": C, "input": "0x"},
        {"type": "CALL", "from": B, "to": A, "input": "0x", "value": "0x5"},
        {"type": "SELFDESTRUCT", "from": B, "to": ""}]},
     "logs": [{"address": C, "topics": [T], "data": "0x", "logIndex": i}
              for i in range(3)]},
]


def _front_end_lines(record) -> list[str]:
    lines = [json.dumps(["tx", record.tx_hash, record.chain_id, record.block_number,
                         record.sender])]
    for frame in flatten_frames(record):
        lines.append(json.dumps(["frame", frame.frame_kind, frame.caller, frame.callee,
                                 frame.selector, str(frame.value), frame.depth,
                                 frame.order, frame.reverted, len(frame.children)]))
    for log in record.logs:
        lines.append(json.dumps(["log", log.emitter, log.topic0, log.topics_rest,
                                 log.data, log.log_index]))
    try:
        graph = build_xteg(record)
    except BridgeGuardError as exc:
        return lines + [json.dumps(["xteg-error", type(exc).__name__, str(exc)])]
    for v in graph.vertices:
        lines.append(json.dumps(["vertex", v.id, v.kind, v.address, v.detail]))
    for e in graph.edges:
        lines.append(json.dumps(["edge", e.src, e.dst, e.kind, e.order, e.multiplicity]))
    for iterations in (2, 3):
        lines.append(json.dumps(["wl", iterations,
                                 list(wl_document(graph, iterations).tokens)]))
    lines.append(json.dumps(["census", list(local_feature(graph).counts)]))
    return lines


def _input_files(tmp_path: Path) -> list[Path]:
    cfg = GenConfig(n_normal=40, attack_rate=0.1, seed=17)
    samples, manifest = gen_dataset(cfg)
    manifest_path = write_corpus(samples, manifest, tmp_path / "corpus", cfg)
    files = [manifest_path.parent / entry.source for entry in manifest.entries]
    docs = [largegen.large_document(2024, index, n, depth)
            for index, n, depth in LARGE_INPUTS]
    rng = np.random.default_rng(20240601)
    docs += [random_trace_doc(rng, max_frames=40) for _ in range(20)]
    docs += HAND_WRITTEN
    for i, doc in enumerate(docs):
        path = tmp_path / f"doc-{i}.json"
        path.write_text(largegen.dumps(doc))
        files.append(path)
    return files


def test_front_end_outputs_are_pinned(tmp_path):
    files = _input_files(tmp_path)
    digest = hashlib.sha256()
    for path in files:
        for line in _front_end_lines(load_trace_file(path)):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN

