import numpy as np
import pytest
from hypothesis import strategies as st

from bridgeguard.classify import KNNModel, LabeledSample, knn_train
from bridgeguard.config import RunConfig
from bridgeguard.errors import MalformedTrace
from bridgeguard.features import FEATURE_DIM
from bridgeguard.graph2vec import TrainParams, train_graph2vec
from bridgeguard.ingest import flatten_frames, record_from_document
from bridgeguard.pipeline import MODEL_FILE, DetectorBundle
from bridgeguard.wl import WLDocument

# Any JSON value, for a field that should hold something else.
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def nest(value, depth: int):
    """`value` inside `depth` one-item lists: a value built in memory can nest
    deeper than `repr` or a JSON decoder recurses."""
    for _ in range(depth):
        value = [value]
    return value


def json_slots(node):
    """(container, key) of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from json_slots(value)


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


def validate_record(record) -> None:
    """Assert the structural invariants of a normalized record."""
    if record.root_frame.depth != 0:
        raise MalformedTrace("root frame depth must be 0")
    if record.root_frame.caller != record.sender:
        raise MalformedTrace("root frame caller must equal sender")
    frames = flatten_frames(record)
    for pos, frame in enumerate(frames):
        if frame.order != pos:
            raise MalformedTrace(f"frame order {frame.order} != pre-order position {pos}")
        for child in frame.children:
            if child.depth != frame.depth + 1:
                raise MalformedTrace("child depth must be parent depth + 1")
        if frame.selector is not None and len(frame.selector) != 8:
            raise MalformedTrace("selector must be 4 bytes when present")


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


def tiny_bundle(embedding=None, classifier=None) -> DetectorBundle:
    """A detector bundle whose config holds the embedding's training params
    and seed and the classifier's kind and k. By default the embedding is a
    two-token one trained for one epoch, the classifier a one-row KNN."""
    if embedding is None:
        embedding = train_graph2vec([WLDocument(("a", "b"))], params=TrainParams(epochs=1))
    if classifier is None:
        classifier = knn_train([LabeledSample("t", np.zeros(FEATURE_DIM), "Normal")], k=1)
    params = embedding.params
    cfg = RunConfig(epochs=params.epochs, learning_rate=params.learning_rate,
                    negative=params.negative, seed=embedding.seed,
                    k=getattr(classifier, "k", 5),
                    classifier="knn" if isinstance(classifier, KNNModel) else "dtree")
    return DetectorBundle(embedding=embedding, classifier=classifier, config=cfg)


def rewrite_model(model_dir, **arrays) -> None:
    """Replace arrays of the `model.npz` in `model_dir`; None deletes one."""
    path = model_dir / MODEL_FILE
    with np.load(path) as data:
        saved = {key: data[key] for key in data.files}
    saved.update(arrays)
    np.savez(path, **{key: value for key, value in saved.items() if value is not None})
