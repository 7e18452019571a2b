import numpy as np
import pytest

from bridgeguard.ingest import record_from_document


def random_trace_doc(rng: np.random.Generator, max_frames: int = 200,
                     with_logs: bool = True) -> dict:
    """Random call-tracer document: a rooted tree of plausible frames."""
    n_frames = int(rng.integers(1, max_frames + 1))
    addresses = ["0x" + format(int(rng.integers(1, 1 << 62)), "040x")
                 for _ in range(max(2, n_frames // 2 + 1))]
    sender = addresses[0]

    def pick_addr() -> str:
        return addresses[int(rng.integers(1, len(addresses)))]

    def make_node(frm: str) -> dict:
        kind = str(rng.choice(["CALL", "CALL", "CALL", "STATICCALL", "DELEGATECALL"]))
        to = pick_addr()
        input_len = int(rng.integers(0, 40))
        input_hex = "0x" + "".join(rng.choice(list("0123456789abcdef"), input_len * 2))
        return {"type": kind, "from": frm, "to": to, "input": input_hex,
                "value": hex(int(rng.integers(0, 10**12))), "calls": []}

    root = make_node(sender)
    nodes = [root]
    for _ in range(n_frames - 1):
        parent = nodes[int(rng.integers(len(nodes)))]
        child = make_node(parent["to"])
        parent["calls"].append(child)
        nodes.append(child)

    logs = []
    if with_logs:
        for i in range(int(rng.integers(0, 6))):
            logs.append({
                "address": pick_addr(),
                "topics": ["0x" + format(int(rng.integers(1, 1 << 62)), "064x")],
                "data": "0x",
                "logIndex": i,
            })
    return {"trace": root, "logs": logs, "chain_id": 1}


def random_record(rng: np.random.Generator, max_frames: int = 30):
    return record_from_document(random_trace_doc(rng, max_frames=max_frames))


def random_digraph(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    a = (rng.random((n, n)) < p).astype(np.int64)
    np.fill_diagonal(a, 0)
    return a


def xteg_adjacency(graph) -> np.ndarray:
    """The 0/1 adjacency of an execution graph written out edge by edge: edge
    kinds and multiplicities dropped, self-loops left out."""
    a = np.zeros((len(graph.vertices),) * 2, dtype=np.int64)
    for e in graph.edges:
        if e.src != e.dst:
            a[e.src, e.dst] = 1
    return a


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
