"""Transaction execution graph construction.

Vertices are EOA addresses, (contract address, function selector) pairs,
and (emitter, topic0) log events. Edges carry the call opcode kind or EMIT,
with parallel identical edges merged into a multiplicity count. Construction
is a pure function of the TxRecord: vertex ids follow first appearance, so
rebuilding the same record always yields the identical graph.

Each log hangs off a host frame: the deepest frame whose callee is the
log's emitter, the earliest in pre-order on ties, and the root frame when no
frame enters the emitter. An EMIT edge never precedes its host frame's
edge. The build is linear: one pre-order walk over the frames, which also
records each callee's host, then one pass over the logs.

`Vertex` and `XtegEdge` are slotted dataclasses built positionally. `Vertex`
is not frozen, so it is not hashable: nothing hashes a vertex, and the build
keys vertices by their `key` tuple (kind, address, detail).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraph, EmptyTrace
from .ingest import TxRecord

EMIT = "EMIT"

# vertex kind tags
EOA = "eoa"
FUNCTION = "function"
EVENT = "event"

FALLBACK = "fallback"  # contract entered with input < 4 bytes
ANONYMOUS = "anonymous"  # log without topic0


@dataclass(slots=True)
class Vertex:
    id: int
    kind: str  # EOA | FUNCTION | EVENT
    address: str  # account / contract / emitter address
    detail: str  # "" for EOA; selector-or-fallback; topic0-or-anonymous

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.address, self.detail)


@dataclass(slots=True)
class XtegEdge:
    src: int
    dst: int
    kind: str
    order: int  # execution sequence of first occurrence
    multiplicity: int = 1


@dataclass
class XTEG:
    tx_hash: str
    vertices: list[Vertex]  # indexed by vertex id
    edges: list[XtegEdge]  # sorted by order


def build_xteg(record: TxRecord) -> XTEG:
    """Build the execution graph: one edge per frame, one EMIT per log."""
    if record.root_frame is None:  # defensive; the parser already rejects this
        raise EmptyTrace(record.tx_hash)

    sender = record.sender
    vertices: list[Vertex] = []
    vid_of: dict[tuple[str, str, str], int] = {}  # Vertex.key -> id

    def intern(key: tuple[str, str, str]) -> int:
        vid = vid_of.get(key)
        if vid is None:
            vid = vid_of[key] = len(vertices)
            vertices.append(Vertex(vid, *key))
        return vid

    # Raw edges are (time, tie, log_index, src, dst, kind). Frame edges take
    # their pre-order entry time; log edges keep receipt (log_index) order
    # while never preceding their host frame's edge. Frame orders and log
    # indices are unique, so no two raw edges share their first three fields.
    raw: list[tuple[int, int, int, int, int, str]] = []
    host: dict[str, tuple[int, int, int]] = {}  # callee -> (depth, order, vid)
    stack = [(record.root_frame, intern((EOA, sender, "")))]
    while stack:  # pre-order
        frame, parent_vid = stack.pop()
        # The sender is the only address known to be an EOA; everything else
        # is treated as contract code keyed by (address, selector).
        callee = frame.callee
        vid = intern((EOA, sender, "") if callee == sender
                     else (FUNCTION, callee, frame.selector or FALLBACK))
        raw.append((frame.order, 0, 0, parent_vid, vid, frame.frame_kind))
        best = host.get(callee)
        if best is None or frame.depth > best[0]:  # deepest, earliest on ties
            host[callee] = (frame.depth, frame.order, vid)
        if frame.children:
            stack += [(child, vid) for child in reversed(frame.children)]

    root_host = (0, record.root_frame.order, raw[0][4])  # raw[0]: the root's edge
    emit_time = 0
    for log in record.logs:  # already sorted by log_index
        _, host_order, src = host.get(log.emitter, root_host)
        emit_time = max(emit_time, host_order)
        dst = intern((EVENT, log.emitter, log.topic0 or ANONYMOUS))
        raw.append((emit_time, 1, log.log_index, src, dst, EMIT))

    n = len(vertices)
    if n < 2:
        # A root self-send collapses caller and callee into one vertex;
        # such degenerate transactions carry no call structure to mine.
        raise DisconnectedGraph(f"{record.tx_hash}: graph has {n} vertex(es), need >= 2")
    # Weakly connected by construction: every vertex after the sender is
    # first interned as the head of an edge whose tail is already interned.

    raw.sort()
    edges: list[XtegEdge] = []
    merged: dict[tuple[int, int, str], XtegEdge] = {}
    for order, (_, _, _, src, dst, kind) in enumerate(raw):
        key = (src, dst, kind)
        existing = merged.get(key)
        if existing is not None:
            existing.multiplicity += 1
        else:
            edges.append(edge := XtegEdge(src, dst, kind, order))
            merged[key] = edge
    return XTEG(record.tx_hash, vertices, edges)


def dump_xteg(graph: XTEG) -> str:
    """Edge-list text dump plus vertex table, for debugging/visualization."""
    lines = [f"# tx {graph.tx_hash}", "# vertices: id kind address detail"]
    for v in graph.vertices:
        lines.append(f"v {v.id} {v.kind} {v.address} {v.detail or '-'}")
    lines.append("# edges: src_id dst_id kind order multiplicity")
    for e in graph.edges:
        lines.append(f"e {e.src} {e.dst} {e.kind} {e.order} {e.multiplicity}")
    return "\n".join(lines) + "\n"
