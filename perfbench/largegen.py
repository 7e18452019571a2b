"""Large transaction documents for the `large` workload.

Each document is a call-tracer trace plus receipt logs whose execution graph
has an exact vertex count. Vertex counts are log-uniform over
[V_MIN, V_MAX], drawn by stratified sampling so that every seed gets the
same size profile and only the graph structure changes with the seed. The
structure stresses the layers that grow with graph size:

* wide fan-out: a few hub frames take a large share of the children;
* reentrant callbacks: frames call back into their parent's or an older
  ancestor's function, which makes mutual dyads and directed cycles;
* many logs: about a quarter of the vertices are (emitter, topic0) events,
  each emitted one to three times.

A fixed set of positions also carries a ping-pong reentrancy chain of fixed
call depth, up to the EVM limit of 1024 frames. The chain adds two function
vertices, so it changes nesting depth and not the graph's size.

The generator uses only numpy and the standard library, so the inputs do not
change when the program under test changes.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

V_MIN = 64
V_MAX = 256
N_TX = 44
# (position in size order, call depth of the reentrancy chain)
DEEP_CHAINS = ((5, 320), (16, 576), (27, 832), (38, 1024))

CALL_KINDS = ("CALL", "CALL", "CALL", "STATICCALL", "DELEGATECALL")


def size_targets(seed: int, n_tx: int = N_TX, v_min: int = V_MIN,
                 v_max: int = V_MAX) -> list[int]:
    """Stratified log-uniform vertex counts, in increasing order."""
    rng = np.random.default_rng([seed, 0])
    span = math.log(v_max / v_min)
    return [int(round(v_min * math.exp(span * (i + rng.random()) / n_tx)))
            for i in range(n_tx)]


def chain_depths(n_tx: int = N_TX) -> list[int]:
    depths = [0] * n_tx
    for position, depth in DEEP_CHAINS:
        if position < n_tx:
            depths[position] = depth
    return depths


def _address(rng: np.random.Generator) -> str:
    return "0x" + rng.bytes(20).hex()


def _frame(kind: str, frm: str, to: str, selector: str,
           rng: np.random.Generator) -> dict:
    args = rng.bytes(32).hex()
    return {"type": kind, "from": frm, "to": to, "input": "0x" + selector + args,
            "value": hex(int(rng.integers(0, 10**12))), "calls": []}


def large_document(seed: int, index: int, n_vertices: int,
                   chain_depth: int = 0) -> dict:
    """One transaction whose execution graph has exactly `n_vertices` vertices."""
    rng = np.random.default_rng([seed, 1, index])
    n_events = n_vertices // 4
    n_functions = n_vertices - 1 - n_events  # the sender is the last vertex
    n_body = n_functions - (2 if chain_depth else 0)
    if n_body < 2:
        raise ValueError(f"n_vertices={n_vertices} too small")

    sender = _address(rng)
    contracts = [_address(rng) for _ in range((n_body + 1) // 2)]
    # Function vertex j is (contracts[j // 2], selectors[j]); selectors are
    # distinct per contract because they are distinct overall.
    selectors: list[str] = []
    seen: set[str] = set()
    while len(selectors) < n_body:
        sel = rng.bytes(4).hex()
        if sel not in seen:
            seen.add(sel)
            selectors.append(sel)
    vertex_of = [(contracts[j // 2], selectors[j]) for j in range(n_body)]

    # Spanning call tree: every function vertex gets one frame.
    frames = [_frame("CALL", sender, *vertex_of[0], rng)]
    frame_vertex = [0]
    parents = [-1]
    n_hubs = max(1, n_body // 32)
    for j in range(1, n_body):
        if rng.random() < 0.5:
            parent = int(rng.integers(min(n_hubs, len(frames))))
        else:
            parent = int(rng.integers(len(frames)))
        kind = CALL_KINDS[int(rng.integers(len(CALL_KINDS)))]
        frames.append(_frame(kind, frames[parent]["to"], *vertex_of[j], rng))
        frames[parent]["calls"].append(frames[-1])
        frame_vertex.append(j)
        parents.append(parent)

    # Reentrant callbacks into the parent (mutual dyad) or an older ancestor
    # (cycle), plus cross calls into arbitrary existing functions.
    n_tree = len(frames)
    for _ in range(n_body // 2):
        host = int(rng.integers(1, n_tree))
        if rng.random() < 0.75:
            target = parents[host]
            for _ in range(int(rng.integers(0, 3))):
                if parents[target] >= 0:
                    target = parents[target]
            target_vertex = frame_vertex[target]
        else:
            target_vertex = int(rng.integers(n_body))
        child = _frame("CALL", frames[host]["to"], *vertex_of[target_vertex], rng)
        frames[host]["calls"].append(child)

    if chain_depth:
        ping = (_address(rng), "70696e67")
        pong = (_address(rng), "706f6e67")
        host = frames[0]
        for depth in range(1, chain_depth + 1):
            target = ping if depth % 2 else pong
            link = _frame("CALL", host["to"], *target, rng)
            host["calls"].append(link)
            host = link

    logs = []
    for e in range(n_events):
        emitter = contracts[int(rng.integers(len(contracts)))]
        topic0 = "0x" + rng.bytes(32).hex()
        for _ in range(int(rng.integers(1, 4))):
            logs.append({"address": emitter, "topics": [topic0],
                         "data": "0x" + rng.bytes(32).hex(),
                         "logIndex": len(logs)})
    order = rng.permutation(len(logs))
    logs = [dict(logs[i], logIndex=k) for k, i in enumerate(order)]

    return {
        "tx_hash": "0x" + rng.bytes(32).hex(),
        "chain_id": 1,
        "block_number": int(rng.integers(15_000_000, 20_000_000)),
        "sender": sender,
        "trace": frames[0],
        "logs": logs,
    }


def large_corpus(seed: int, n_tx: int = N_TX) -> list[tuple[int, int, dict]]:
    """(vertex target, chain depth, document) per transaction."""
    return [(n, depth, large_document(seed, i, n, depth))
            for i, (n, depth) in enumerate(zip(size_targets(seed, n_tx),
                                               chain_depths(n_tx)))]


def dumps(doc: dict) -> str:
    """Compact JSON. The recursion limit is raised for the duration, since the
    encoder recurses once per nesting level and the deepest chains nest
    about two thousand levels."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        return json.dumps(doc, separators=(",", ":"))
    finally:
        sys.setrecursionlimit(limit)
