from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeguard.errors import GraphTooLarge, MultiEdgePresent, SelfLoopPresent
from bridgeguard.motifs import (
    MOTIF_ARCS,
    MOTIF_NAMES,
    catalog_markdown,
    classify_triad,
    local_feature,
    motif_census_matrix,
    triad_census_bruteforce,
)
from bridgeguard.synthgen import gen_attack_src, gen_normal_deposit
from bridgeguard.xteg import build_xteg
from conftest import random_digraph, xteg_adjacency

IDX = {name: i for i, name in enumerate(MOTIF_NAMES)}


def test_catalog_is_a_complete_partition_of_labeled_digraphs():
    # The 64 labeled 3-vertex digraphs fall into the 16 classes with the
    # known orbit sizes; every code maps to exactly one class.
    sizes = Counter(MOTIF_NAMES[classify_triad(code)] for code in range(64))
    assert sizes == {
        "003": 1, "012": 6, "102": 3, "021D": 3, "021U": 3, "021C": 6,
        "111D": 6, "111U": 6, "030T": 6, "030C": 2, "201": 3, "120D": 3,
        "120U": 3, "120C": 6, "210": 6, "300": 1,
    }
    assert len(MOTIF_NAMES) == 16
    assert set(MOTIF_ARCS) == set(MOTIF_NAMES)


def test_empty_graph_counts_only_empty_triads():
    a = np.zeros((4, 4), dtype=np.int64)
    census = motif_census_matrix(a)
    assert census.counts[IDX["003"]] == comb(4, 3) == 4
    assert sum(census.counts) == 4


def test_directed_three_cycle():
    a = np.zeros((3, 3), dtype=np.int64)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    census = motif_census_matrix(a)
    expected = [0] * 16
    expected[IDX["030C"]] = 1
    assert list(census.counts) == expected


def test_two_vertex_graph_all_zero():
    a = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert sum(triad_census_bruteforce(a).counts) == 0
    assert sum(motif_census_matrix(a).counts) == 0


def test_mutual_pair_plus_isolated_vertex():
    a = np.zeros((3, 3), dtype=np.int64)
    a[0, 1] = a[1, 0] = 1
    census = triad_census_bruteforce(a)
    assert census.counts[IDX["102"]] == 1
    assert sum(census.counts) == 1


def test_single_edge_has_no_connected_triads():
    a = np.zeros((5, 5), dtype=np.int64)
    a[0, 1] = 1
    census = motif_census_matrix(a)
    connected = [name for name in MOTIF_NAMES if name not in ("003", "012", "102")]
    assert all(census.counts[IDX[name]] == 0 for name in connected)
    assert census.counts[IDX["012"]] == 3  # one arc in each of the n-2 triples


def test_matrix_census_equals_bruteforce(rng):
    for _ in range(60):
        n = int(rng.integers(3, 13))
        a = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
        assert motif_census_matrix(a).counts == triad_census_bruteforce(a).counts


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=40))
def test_partition_invariant(seed, n):
    rng = np.random.default_rng(seed)
    a = random_digraph(rng, n, float(rng.uniform(0.0, 0.6)))
    assert sum(motif_census_matrix(a).counts) == comb(n, 3)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=20),
       density=st.floats(min_value=0.0, max_value=1.0))
@example(seed=0, n=20, density=1.0)  # complete digraph: every triple is 300
@example(seed=0, n=20, density=0.0)  # no arcs: every triple is 003
def test_census_equals_bruteforce_from_empty_to_complete(seed, n, density):
    a = random_digraph(np.random.default_rng(seed), n, density)
    census = motif_census_matrix(a)
    assert census.counts == triad_census_bruteforce(a).counts
    if density == 1.0:
        assert census.counts[IDX["300"]] == comb(n, 3)
    if density == 0.0:
        assert census.counts[IDX["003"]] == comb(n, 3)


# --- hubs: the census's cost grows with a vertex's fan-out ---------------------

HUB_KINDS = ("out", "in", "mutual", "mixed")
# The class of every triple {hub, leaf, leaf} of a star whose leaves all
# join the hub the same way.
STAR_CLASS = {"out": "021D", "in": "021U", "mutual": "201"}


def _with_hub(a: np.ndarray, kind: str, rng) -> np.ndarray:
    """`a` with vertex 0 joined to every other vertex by an out-, in- or
    mutual arc, or by a random one of the three ("mixed")."""
    a = a.copy()
    n = a.shape[0]
    way = {"out": np.zeros(n - 1), "in": np.ones(n - 1), "mutual": np.full(n - 1, 2),
           "mixed": rng.integers(0, 3, n - 1)}[kind]
    a[0, 1:] = way != 1  # out or mutual
    a[1:, 0] = way != 0  # in or mutual
    return a


@pytest.mark.parametrize("kind", HUB_KINDS)
def test_hub_census_equals_bruteforce(rng, kind):
    for n in (3, 4, 17, 40, 64):
        star = _with_hub(np.zeros((n, n), dtype=np.int64), kind, rng)
        hub = _with_hub(random_digraph(rng, n, float(rng.uniform(0.02, 0.3))), kind, rng)
        star_counts, hub_counts = (motif_census_matrix(a).counts for a in (star, hub))
        assert star_counts == triad_census_bruteforce(star).counts
        assert hub_counts == triad_census_bruteforce(hub).counts
        if kind in STAR_CLASS:
            assert star_counts[IDX[STAR_CLASS[kind]]] == comb(n - 1, 2)
            assert star_counts[IDX["003"]] == comb(n - 1, 3)


@pytest.mark.parametrize("kind", HUB_KINDS)
def test_hub_census_identities_at_n2000(rng, kind):
    # Too large for the brute force: each triple is counted once (partition)
    # and each arc lies in n - 2 triples (arc incidence).
    n = 2000
    star = _with_hub(np.zeros((n, n), dtype=np.int8), kind, rng)
    hub = _with_hub(random_digraph(rng, n, 4000 / (n * (n - 1))).astype(np.int8), kind, rng)
    star_counts, hub_counts = (motif_census_matrix(a).counts for a in (star, hub))
    for a, counts in ((star, star_counts), (hub, hub_counts)):
        assert sum(counts) == comb(n, 3)
        incidence = sum(c * len(MOTIF_ARCS[name]) for c, name in zip(counts, MOTIF_NAMES))
        assert incidence == int(a.sum(dtype=np.int64)) * (n - 2)
    if kind in STAR_CLASS:
        assert star_counts[IDX[STAR_CLASS[kind]]] == comb(n - 1, 2)
        assert star_counts[IDX["003"]] == comb(n - 1, 3)


def test_isomorphism_invariance(rng):
    for _ in range(25):
        n = int(rng.integers(3, 15))
        a = random_digraph(rng, n, 0.3)
        perm = rng.permutation(n)
        b = a[np.ix_(perm, perm)]
        assert motif_census_matrix(a).counts == motif_census_matrix(b).counts


def test_input_validation():
    loop = np.eye(3, dtype=np.int64)
    with pytest.raises(SelfLoopPresent):
        motif_census_matrix(loop)
    multi = np.zeros((3, 3), dtype=np.int64)
    multi[0, 1] = 2
    with pytest.raises(MultiEdgePresent):
        motif_census_matrix(multi)
    with pytest.raises(GraphTooLarge):
        triad_census_bruteforce(np.zeros((65, 65), dtype=np.int64))


def test_local_feature_attack_chain_shorter_than_normal():
    # The source-chain attack bypasses the token-transfer leg, so its graph
    # carries strictly fewer connected triads. Brute force is the oracle.
    normal = build_xteg(gen_normal_deposit(seed=4).record)
    attack = build_xteg(gen_attack_src(seed=4).record)
    connected = [i for i, name in enumerate(MOTIF_NAMES)
                 if name not in ("003", "012", "102")]

    def connected_total(graph):
        counts = triad_census_bruteforce(xteg_adjacency(graph)).counts
        return sum(counts[i] for i in connected)

    assert connected_total(normal) > connected_total(attack)
    # and the pipeline's census agrees with the oracle on both graphs
    for graph in (normal, attack):
        expected = triad_census_bruteforce(xteg_adjacency(graph)).counts
        assert local_feature(graph).counts == expected


def test_census_of_n1000_graph_within_budget(rng):
    import time
    a = random_digraph(rng, 1000, 5000 / (1000 * 999))
    start = time.perf_counter()
    census = motif_census_matrix(a)
    elapsed = time.perf_counter() - start
    assert sum(census.counts) == comb(1000, 3)
    assert elapsed < 5.0


def test_catalog_doc_in_sync():
    repo_doc = Path(__file__).resolve().parents[1] / "docs" / "motif_catalog.md"
    assert repo_doc.read_text() == catalog_markdown()


def test_local_feature_dimensionality():
    census = local_feature(build_xteg(gen_normal_deposit(seed=8).record))
    assert len(census.counts) == 16
    assert all(c >= 0 for c in census.counts)
