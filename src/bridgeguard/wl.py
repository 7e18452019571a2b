"""Weisfeiler-Lehman relabeling: turn a graph into a token multiset.

Initial labels are the vertex kind tag plus the sorted profile of incident
edge kinds (never raw addresses, so documents generalize across bridges and
are invariant under address relabeling). Each iteration hashes the label
together with the sorted in/out neighbor labels, edge kinds included.
Merged-edge multiplicity is ignored. The multiset over iterations 0..k is
the graph's document: exactly |V| * (k + 1) tokens.

Given a string table, `strings`, each token is the first equal string in it,
which gains the ones it lacks: `pipeline.prepare_corpus` passes one per
corpus. Without one, nothing is shared or kept.
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


def wl_document(graph: XTEG, iterations: int = 2,
                strings: dict[str, str] | None = None) -> WLDocument:
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Each vertex's neighbours as (prefix, neighbour id): a neighbourhood
    # entry is the prefix "o:KIND:" (out) or "i:KIND:" (in) plus the
    # neighbour's current label.
    adjacent: list[list[tuple[str, int]]] = [[] for _ in graph.vertices]
    for edge in graph.edges:
        adjacent[edge.src].append((f"o:{edge.kind}:", edge.dst))
        adjacent[edge.dst].append((f"i:{edge.kind}:", edge.src))

    labels = [f"{v.kind}|{','.join(sorted([prefix[:-1] for prefix, _ in adj]))}"
              for v, adj in zip(graph.vertices, adjacent)]
    tokens = [f"0:{label}" for label in labels]
    for it in range(1, iterations + 1):
        labels = [stable_hash64(label + "|" + ";".join(
                      sorted([prefix + labels[u] for prefix, u in adj])))
                  for label, adj in zip(labels, adjacent)]
        tokens += [f"{it}:{label}" for label in labels]

    tokens.sort()
    if strings is not None:
        tokens = map(strings.setdefault, tokens, tokens)
    return WLDocument(tokens=tuple(tokens))
