import numpy as np
import pytest

from bridgeguard.errors import DimensionMismatch
from bridgeguard.features import (
    DEFAULT_SIGNATURES,
    EMBED_DIM,
    FEATURE_DIM,
    FLAG_DEPOSIT,
    FLAG_UNKNOWN,
    FLAG_WITHDRAWAL,
    GLOBAL_DIM,
    GLOBAL_LAYOUT,
    assemble_global,
    direction_flag,
    graph_stats,
)
from bridgeguard.ingest import LogEntry
from bridgeguard.motifs import MOTIF_NAMES
from bridgeguard.synthgen import TOPIC_DEPOSIT, TOPIC_UNLOCK, gen_normal_deposit
from bridgeguard.xteg import XTEG, Vertex, XtegEdge, build_xteg
from conftest import random_record


def _graph(n, edges):
    vertices = [Vertex(id=i, kind="function", address=f"0x{i:02x}", detail="f")
                for i in range(n)]
    return XTEG(tx_hash="0xtest", vertices=vertices,
                edges=[XtegEdge(src=s, dst=d, kind=k, order=i, multiplicity=m)
                       for i, (s, d, k, m) in enumerate(edges)])


def _log(topic0, index=0):
    return LogEntry(emitter="0x" + "11" * 20, topic0=topic0, topics_rest=[],
                    data="0x", log_index=index)


def test_stats_formula_basic():
    g = _graph(5, [(0, 1, "CALL", 1), (1, 2, "CALL", 1),
                   (1, 3, "EMIT", 1), (2, 4, "EMIT", 1)])
    n_vertices, n_edges, n_logs, density = graph_stats(g)
    assert (n_vertices, n_edges, n_logs) == (5, 4, 2)
    assert density == 2 * 4 / (5 * 4) == 0.4


def test_stats_two_vertices_single_edge():
    g = _graph(2, [(0, 1, "CALL", 1)])
    assert graph_stats(g)[3] == 1.0


def test_density_exceeds_one_for_reciprocal_complete_digraph():
    # The documented convention: the undirected formula applied to arcs.
    edges = [(i, j, "CALL", 1) for i in range(3) for j in range(3) if i != j]
    g = _graph(3, edges)
    assert graph_stats(g)[3] == 2.0


def test_density_zero_for_degenerate_vertex_counts():
    assert graph_stats(_graph(1, []))[3] == 0.0
    assert graph_stats(_graph(0, []))[3] == 0.0


def test_density_matches_formula_randomized(rng):
    for _ in range(50):
        record = random_record(rng)
        g = build_xteg(record)
        n_vertices, n_edges, _, density = graph_stats(g)
        assert abs(density - 2 * n_edges / (n_vertices * (n_vertices - 1))) < 1e-12
        assert isinstance(n_vertices, int) and isinstance(n_edges, int)


def test_emit_multiplicity_counts_as_logs():
    g = _graph(3, [(0, 1, "CALL", 2), (1, 2, "EMIT", 3)])
    n_vertices, n_edges, n_logs, _ = graph_stats(g)
    assert (n_vertices, n_edges, n_logs) == (3, 2, 3)  # |E| merged, logs raw


def test_direction_flag_rules():
    assert direction_flag([_log(TOPIC_DEPOSIT)]) == FLAG_DEPOSIT
    assert direction_flag([_log(TOPIC_UNLOCK)]) == FLAG_WITHDRAWAL
    assert direction_flag([]) == FLAG_UNKNOWN
    assert direction_flag([_log(TOPIC_DEPOSIT, 0), _log(TOPIC_UNLOCK, 1)]) == FLAG_UNKNOWN
    assert direction_flag([_log("0x" + "ab" * 32)]) == FLAG_UNKNOWN
    assert direction_flag([_log(None)]) == FLAG_UNKNOWN


def test_direction_flag_respects_custom_config():
    topic = "0x" + "cd" * 32
    assert direction_flag([_log(topic)], {topic: "withdrawal"}) == FLAG_WITHDRAWAL
    assert topic not in DEFAULT_SIGNATURES


def test_assemble_dimensions_and_layout():
    stats = (6, 5, 2, 0.5)
    vec = assemble_global(np.zeros(EMBED_DIM), stats, FLAG_DEPOSIT)
    assert vec.dtype == np.float64
    assert vec.shape == (GLOBAL_DIM,) == (21,)
    assert list(vec[EMBED_DIM:]) == [6, 5, 2, 0.5, 1.0]
    assert GLOBAL_LAYOUT[0] == "embedding_0"
    assert GLOBAL_LAYOUT[-5:] == ("n_vertices", "n_edges", "n_logs",
                                  "density", "direction_flag")
    assert len(GLOBAL_LAYOUT) == 21
    assert FEATURE_DIM == GLOBAL_DIM + len(MOTIF_NAMES) == 37


def test_assemble_zero_inputs_zero_vector_except_flag():
    vec = assemble_global(np.zeros(EMBED_DIM), (0, 0, 0, 0.0), FLAG_UNKNOWN)
    assert vec[-1] == 0.5
    assert not vec[:-1].any()


def test_assemble_rejects_wrong_embedding_length():
    with pytest.raises(DimensionMismatch):
        assemble_global(np.zeros(8), (1, 1, 0, 1.0), 0.5)
    with pytest.raises(DimensionMismatch):
        assemble_global(np.zeros((4, 4)), (1, 1, 0, 1.0), 0.5)


def test_assemble_rejects_wrong_stats_length():
    with pytest.raises(DimensionMismatch):
        assemble_global(np.zeros(EMBED_DIM), (1, 1, 0), 0.5)


def test_generated_deposit_flags_deposit():
    tx = gen_normal_deposit(seed=3)
    assert direction_flag(tx.record.logs) == FLAG_DEPOSIT
