"""Directed 3-node motif census (16 isomorphism classes).

The catalog M1..M16 is the full directed triad census in the conventional
census order `003 .. 300`: the empty triad, the single-arc and mutual-pair
dyadic triads, and the 13 weakly connected classes. Each vertex triple is
counted once, in its exact class, so the counts always partition C(n, 3).

`_census` is the subquadratic census of Batagelj & Mrvar (2001), exact in
O(m·Δ) time from a set of arcs; it never builds an n×n matrix. Each
adjacent pair v < u adds its dyadic triads (the n − |S| − 2 third vertices
adjacent to neither, S = N(u) ∪ N(v) − {u, v}) and classifies every
w ∈ S whose triple this pair is the first to reach, so each connected
triple is seen once. `003` is what remains of C(n, 3).
`local_feature` runs it on an execution graph's arcs. `motif_census_matrix`
runs it on a 0/1 adjacency matrix, and `triad_census_bruteforce`, the
independent oracle, classifies every triple of one by canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

import numpy as np

from .errors import GraphTooLarge, MultiEdgePresent, SelfLoopPresent
from .xteg import XTEG

MOTIF_NAMES = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

# Canonical arc list of each class on vertices {a, b, c}.
MOTIF_ARCS: dict[str, tuple[tuple[str, str], ...]] = {
    "003": (),
    "012": (("a", "b"),),
    "102": (("a", "b"), ("b", "a")),
    "021D": (("b", "a"), ("b", "c")),
    "021U": (("a", "b"), ("c", "b")),
    "021C": (("a", "b"), ("b", "c")),
    "111D": (("a", "c"), ("c", "a"), ("b", "c")),
    "111U": (("a", "c"), ("c", "a"), ("c", "b")),
    "030T": (("a", "b"), ("c", "b"), ("a", "c")),
    "030C": (("b", "a"), ("c", "b"), ("a", "c")),
    "201": (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")),
    "120D": (("b", "a"), ("b", "c"), ("a", "c"), ("c", "a")),
    "120U": (("a", "b"), ("c", "b"), ("a", "c"), ("c", "a")),
    "120C": (("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")),
    "210": (("a", "b"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")),
    "300": (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")),
}

# Bit positions for the 6 ordered pairs of a triple (i, j, k).
_PAIR_BITS = {(0, 1): 0, (1, 0): 1, (0, 2): 2, (2, 0): 3, (1, 2): 4, (2, 1): 5}


@dataclass(frozen=True)
class LocalFeature:
    counts: tuple[int, ...]  # position i = occurrences of class M_{i+1}

    def __post_init__(self) -> None:
        if len(self.counts) != len(MOTIF_NAMES):
            raise ValueError(f"motif census must have {len(MOTIF_NAMES)} classes")


def _canonical_code(code: int) -> int:
    best = 63
    bits = [(code >> b) & 1 for b in range(6)]
    for perm in permutations(range(3)):
        mapped = 0
        for (i, j), b in _PAIR_BITS.items():
            if bits[_PAIR_BITS[(perm[i], perm[j])]]:
                mapped |= 1 << b
        best = min(best, mapped)
    return best


def _class_table() -> dict[int, int]:
    table: dict[int, int] = {}
    names = {"a": 0, "b": 1, "c": 2}
    for idx, name in enumerate(MOTIF_NAMES):
        code = 0
        for src, dst in MOTIF_ARCS[name]:
            code |= 1 << _PAIR_BITS[(names[src], names[dst])]
        table[_canonical_code(code)] = idx
    assert len(table) == len(MOTIF_NAMES)
    return table


_CANONICAL_TO_CLASS = _class_table()


def classify_triad(code: int) -> int:
    """Class index (0..15) of a triple given its 6-bit ordered-pair code."""
    return _CANONICAL_TO_CLASS[_canonical_code(code)]


# Class of every 6-bit code, for the census's inner loop.
_CODE_TO_CLASS = tuple(classify_triad(code) for code in range(64))


def _arcs(a: np.ndarray) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and arc list of an adjacency matrix, validated: a
    self-loop is SelfLoopPresent, a matrix that is not square or not 0/1 is
    MultiEdgePresent."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MultiEdgePresent("adjacency must be square")
    if not np.isin(a, (0, 1)).all():
        raise MultiEdgePresent("adjacency entries must be 0/1")
    if np.diagonal(a).any():
        raise SelfLoopPresent("self-loops are not allowed")
    src, dst = np.nonzero(a)
    return a.shape[0], tuple(zip(src.tolist(), dst.tolist()))


def motif_census_matrix(a: np.ndarray) -> LocalFeature:
    return _census(*_arcs(a))


def _census(n: int, arcs) -> LocalFeature:
    """The census of `n` vertices and distinct, in-range, loop-free `arcs`,
    in any order."""
    if n < 3:
        return LocalFeature(counts=(0,) * len(MOTIF_NAMES))

    # rel[v][w]: bit 0 for v->w, bit 1 for w->v; its keys are N(v). For a
    # triple (v, u, w) the code is rel[v][u] | rel[v][w] << 2 | rel[u][w] << 4,
    # the bit layout of _PAIR_BITS.
    rel: list[dict[int, int]] = [{} for _ in range(n)]
    for src, dst in arcs:
        rel[src][dst] = rel[src].get(dst, 0) | 1
        rel[dst][src] = rel[dst].get(src, 0) | 2

    counts = [0] * len(MOTIF_NAMES)
    for v, rv in enumerate(rel):
        for u, vu in rv.items():
            if u < v:
                continue
            ru = rel[u]
            s = rv.keys() | ru.keys()  # S plus u and v themselves
            counts[_CODE_TO_CLASS[vu]] += n - len(s)
            for w in s:
                if u < w or (v < w < u and w not in rv):
                    counts[_CODE_TO_CLASS[vu | rv.get(w, 0) << 2 | ru.get(w, 0) << 4]] += 1
    counts[0] = comb(n, 3) - sum(counts)
    return LocalFeature(counts=tuple(counts))


def triad_census_bruteforce(a: np.ndarray) -> LocalFeature:
    n, arcs = _arcs(a)
    if n > 64:
        raise GraphTooLarge(f"brute force capped at 64 vertices, got {n}")
    arc_set = set(arcs)
    counts = [0] * len(MOTIF_NAMES)
    for trio in combinations(range(n), 3):
        code = 0
        for (x, y), bit in _PAIR_BITS.items():
            if (trio[x], trio[y]) in arc_set:
                code |= 1 << bit
        counts[classify_triad(code)] += 1
    return LocalFeature(counts=tuple(counts))


def local_feature(graph: XTEG) -> LocalFeature:
    """Motif census of the graph's kind-free simple digraph: edge kinds and
    multiplicities dropped, self-loops removed, parallel arcs merged."""
    return _census(len(graph.vertices),
                   {(e.src, e.dst) for e in graph.edges if e.src != e.dst})


def catalog_markdown() -> str:
    """Reference table mapping M1..M16 to canonical arc lists."""
    lines = [
        "# Directed 3-node motif catalog",
        "",
        "Census classes in fixed order; arcs on canonical vertices a, b, c.",
        "Every simple 3-vertex digraph belongs to exactly one class.",
        "",
        "| Motif | Census name | Arcs |",
        "|-------|-------------|------|",
    ]
    for idx, name in enumerate(MOTIF_NAMES, start=1):
        arcs = ", ".join(f"{s}->{d}" for s, d in MOTIF_ARCS[name]) or "(none)"
        lines.append(f"| M{idx} | {name} | {arcs} |")
    return "\n".join(lines) + "\n"
