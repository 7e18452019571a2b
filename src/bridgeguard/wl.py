"""Weisfeiler-Lehman relabeling: turn a graph into a token multiset.

Initial labels are the vertex kind tag plus the sorted profile of incident
edge kinds (never raw addresses, so documents generalize across bridges and
are invariant under address relabeling). Each iteration hashes the label
together with the sorted in/out neighbor labels, edge kinds included.
Merged-edge multiplicity is ignored. The multiset over iterations 0..k is
the graph's document: exactly |V| * (k + 1) tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hashing import stable_hash64
from .xteg import XTEG


@dataclass(frozen=True)
class WLDocument:
    tokens: tuple[str, ...]  # sorted, so equality is multiset equality

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property  # stored in the instance dict: not a field, not compared
    def content_hash(self) -> str:
        return stable_hash64("\x1e".join(self.tokens))


def wl_document(graph: XTEG, iterations: int = 2) -> WLDocument:
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = len(graph.vertices)
    out_inc: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    in_inc: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for edge in graph.edges:
        out_inc[edge.src].append((edge.kind, edge.dst))
        in_inc[edge.dst].append((edge.kind, edge.src))

    labels = []
    for v in graph.vertices:
        profile = sorted(
            [f"o:{kind}" for kind, _ in out_inc[v.id]]
            + [f"i:{kind}" for kind, _ in in_inc[v.id]]
        )
        labels.append(f"{v.kind}|{','.join(profile)}")

    tokens = [f"0:{label}" for label in labels]
    for it in range(1, iterations + 1):
        new_labels = []
        for vid in range(n):
            neighborhood = sorted(
                [f"o:{kind}:{labels[dst]}" for kind, dst in out_inc[vid]]
                + [f"i:{kind}:{labels[src]}" for kind, src in in_inc[vid]]
            )
            new_labels.append(stable_hash64(labels[vid] + "|" + ";".join(neighborhood)))
        labels = new_labels
        tokens.extend(f"{it}:{label}" for label in labels)

    return WLDocument(tokens=tuple(sorted(tokens)))
