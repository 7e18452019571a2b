import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeguard.ingest import record_from_document
from bridgeguard import wl
from bridgeguard.hashing import stable_hash64
from bridgeguard.wl import WLDocument, wl_document
from bridgeguard.xteg import XTEG, Vertex, XtegEdge, build_xteg
from conftest import random_trace_doc


def _relabel_addresses(node, mapping):
    if isinstance(node, dict):
        return {k: (mapping.get(v, v) if k in ("from", "to", "address") else
                    _relabel_addresses(v, mapping))
                for k, v in node.items()}
    if isinstance(node, list):
        return [_relabel_addresses(x, mapping) for x in node]
    return node


def _collect_addresses(node, out):
    if isinstance(node, dict):
        for k, v in node.items():
            if k in ("from", "to", "address") and isinstance(v, str):
                out.add(v)
            else:
                _collect_addresses(v, out)
    elif isinstance(node, list):
        for x in node:
            _collect_addresses(x, out)


def test_invariant_under_address_bijection(rng):
    for _ in range(30):
        doc = random_trace_doc(rng, max_frames=25)
        addresses = set()
        _collect_addresses(doc, addresses)
        base = (1 << 62) + int(rng.integers(1 << 40))  # disjoint from originals
        fresh = ["0x" + format(base + i, "040x") for i in range(len(addresses))]
        mapping = dict(zip(sorted(addresses), fresh))
        original = build_xteg(record_from_document(doc))
        relabeled = build_xteg(record_from_document(_relabel_addresses(doc, mapping)))
        assert wl_document(original) == wl_document(relabeled)


def _chain_graph(arcs, n, kind="CALL"):
    vertices = [Vertex(id=0, kind="eoa", address="0x00", detail="")]
    vertices += [Vertex(id=i, kind="function", address=f"0x{i:02x}", detail="f")
                 for i in range(1, n)]
    edges = [XtegEdge(src=s, dst=d, kind=kind, order=i)
             for i, (s, d) in enumerate(arcs)]
    return XTEG(tx_hash="0xtest", vertices=vertices, edges=edges)


def test_token_count_is_vertices_times_iterations_plus_one():
    graph = _chain_graph([(0, 1)], 2)
    assert len(wl_document(graph, iterations=2).tokens) == 2 * 3
    assert len(wl_document(graph, iterations=1).tokens) == 2 * 2
    star = _chain_graph([(0, 1), (0, 2), (0, 3)], 4)
    assert len(wl_document(star, iterations=3).tokens) == 4 * 4


def test_star_and_path_produce_different_documents():
    # Hand-run iteration 0: the star center carries three out-CALL marks,
    # no path vertex does, so the multisets already differ.
    star = _chain_graph([(0, 1), (0, 2), (0, 3)], 4)
    path = _chain_graph([(0, 1), (1, 2), (2, 3)], 4)
    star_doc = wl_document(star, iterations=2)
    path_doc = wl_document(path, iterations=2)
    assert star_doc != path_doc
    assert "0:eoa|o:CALL,o:CALL,o:CALL" in star_doc.tokens
    assert "0:eoa|o:CALL" in path_doc.tokens


def test_iteration_zero_ignores_multiplicity_but_not_kind():
    single = _chain_graph([(0, 1)], 2, kind="CALL")
    created = _chain_graph([(0, 1)], 2, kind="CREATE")
    assert wl_document(single) != wl_document(created)


def test_requires_at_least_one_iteration():
    with pytest.raises(ValueError):
        wl_document(_chain_graph([(0, 1)], 2), iterations=0)


def test_content_hash_tracks_multiset(rng):
    doc = wl_document(_chain_graph([(0, 1), (1, 2)], 3))
    same = wl_document(_chain_graph([(0, 1), (1, 2)], 3))
    assert doc.content_hash == same.content_hash
    other = wl_document(_chain_graph([(0, 1), (0, 2)], 3))
    assert doc.content_hash != other.content_hash


def test_content_hash_is_computed_once_per_document():
    doc = WLDocument(tokens=("0:a", "0:b", "1:c"))
    with mock.patch.object(wl, "stable_hash64", wraps=stable_hash64) as hashed:
        first = doc.content_hash
        assert doc.content_hash is first
        assert hashed.call_count == 1
    assert first == stable_hash64("\x1e".join(doc.tokens))  # the value is unchanged


def test_cached_content_hash_leaves_equality_hashing_and_pickling_alone():
    doc = WLDocument(tokens=("0:a", "0:b"))
    fresh = WLDocument(tokens=("0:a", "0:b"))
    _ = doc.content_hash  # cached on one side only
    assert doc == fresh and hash(doc) == hash(fresh)
    assert len({doc, fresh}) == 1
    assert doc != WLDocument(tokens=("0:a",))
    for original in (doc, fresh):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
        assert copy.content_hash == fresh.content_hash
    with pytest.raises(AttributeError):  # still frozen
        doc.tokens = ()


def plain_wl_document(graph: XTEG, iterations: int = 2) -> WLDocument:
    """WL relabeling that formats every neighbourhood entry afresh in each
    iteration."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = len(graph.vertices)
    out_inc = [[] for _ in range(n)]
    in_inc = [[] for _ in range(n)]
    for edge in graph.edges:
        out_inc[edge.src].append((edge.kind, edge.dst))
        in_inc[edge.dst].append((edge.kind, edge.src))
    labels = []
    for v in graph.vertices:
        profile = sorted([f"o:{kind}" for kind, _ in out_inc[v.id]]
                         + [f"i:{kind}" for kind, _ in in_inc[v.id]])
        labels.append(f"{v.kind}|{','.join(profile)}")
    tokens = [f"0:{label}" for label in labels]
    for it in range(1, iterations + 1):
        new_labels = []
        for vid in range(n):
            neighborhood = sorted([f"o:{kind}:{labels[dst]}" for kind, dst in out_inc[vid]]
                                  + [f"i:{kind}:{labels[src]}" for kind, src in in_inc[vid]])
            new_labels.append(stable_hash64(labels[vid] + "|" + ";".join(neighborhood)))
        labels = new_labels
        tokens.extend(f"{it}:{label}" for label in labels)
    return WLDocument(tokens=tuple(sorted(tokens)))


@st.composite
def _graphs(draw):
    """Small graphs with a hub, parallel edges of one or more kinds,
    self-loops and isolated vertices."""
    n = draw(st.integers(1, 12))
    kinds = st.sampled_from(["CALL", "STATICCALL", "DELEGATECALL", "CREATE", "EMIT"])
    vertices = [Vertex(i, draw(st.sampled_from(["eoa", "function", "event"])), f"0x{i:02x}",
                       "") for i in range(n)]
    ends = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(ends, ends, kinds), max_size=30))
    hub = draw(ends)
    arcs += [(hub, draw(ends), draw(kinds)) for _ in range(draw(st.integers(0, 20)))]
    return XTEG("0xtest", vertices, [XtegEdge(s, d, k, i) for i, (s, d, k) in enumerate(arcs)])


@settings(max_examples=300, deadline=None)
@given(graph=_graphs(), iterations=st.integers(1, 4))
def test_document_equals_the_plain_relabeling(graph, iterations):
    assert wl_document(graph, iterations) == plain_wl_document(graph, iterations)

