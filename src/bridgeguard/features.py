"""The 37-dim feature layout and its global block.

A transaction's feature vector is the global block followed by the local
block. The global block is fixed: [embedding(16), |V|, |E|, n_logs, density,
direction_flag], 21 dimensions total. The local block is the motif census,
one count per class of `MOTIF_NAMES` (16). Density uses 2|E| / (|V| (|V|-1)),
which on a directed graph can exceed 1; |V| < 2 maps to 0. Log-event
vertices count toward |V|, |E| counts merged edges, and n_logs counts raw
emissions (EMIT multiplicity included).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .hashing import event_topic
from .ingest import LogEntry
from .motifs import MOTIF_NAMES
from .xteg import EMIT, XTEG

EMBED_DIM = 16

GLOBAL_LAYOUT = tuple(
    [f"embedding_{i}" for i in range(EMBED_DIM)]
    + ["n_vertices", "n_edges", "n_logs", "density", "direction_flag"]
)
GLOBAL_DIM = len(GLOBAL_LAYOUT)  # 21
FEATURE_DIM = GLOBAL_DIM + len(MOTIF_NAMES)  # 37: global block, then local

DEPOSIT = "deposit"
WITHDRAWAL = "withdrawal"

FLAG_DEPOSIT = 1.0
FLAG_WITHDRAWAL = 0.0
FLAG_UNKNOWN = 0.5

# Bridge event signatures recognized out of the box. A config's
# `signatures` map replaces the topic0 -> class mapping whole; an empty or
# absent map keeps these defaults.
LOCK_EVENT = "Lock(address,uint256)"
DEPOSIT_EVENT = "Deposit(address,uint256,uint256)"
UNLOCK_EVENT = "Unlock(address,uint256)"
WITHDRAWAL_EVENT = "Withdrawal(address,uint256,uint256)"

BRIDGE_EVENTS = {
    LOCK_EVENT: DEPOSIT,
    DEPOSIT_EVENT: DEPOSIT,
    UNLOCK_EVENT: WITHDRAWAL,
    WITHDRAWAL_EVENT: WITHDRAWAL,
}

DEFAULT_SIGNATURES: dict[str, str] = {
    event_topic(sig): direction for sig, direction in BRIDGE_EVENTS.items()
}


def graph_stats(graph: XTEG) -> tuple[int, int, int, float]:
    """(|V|, merged |E|, raw log count, density)."""
    n_vertices = len(graph.vertices)
    n_edges = len(graph.edges)
    n_logs = sum(e.multiplicity for e in graph.edges if e.kind == EMIT)
    if n_vertices < 2:
        density = 0.0
    else:
        density = 2.0 * n_edges / (n_vertices * (n_vertices - 1))
    return n_vertices, n_edges, n_logs, density


def direction_flag(logs: list[LogEntry],
                   signatures: dict[str, str] | None = None) -> float:
    """1.0 deposit, 0.0 withdrawal, 0.5 when neither or both appear."""
    signatures = DEFAULT_SIGNATURES if signatures is None else signatures
    saw_deposit = saw_withdrawal = False
    for log in logs:
        direction = signatures.get(log.topic0 or "")
        if direction == DEPOSIT:
            saw_deposit = True
        elif direction == WITHDRAWAL:
            saw_withdrawal = True
    if saw_deposit and not saw_withdrawal:
        return FLAG_DEPOSIT
    if saw_withdrawal and not saw_deposit:
        return FLAG_WITHDRAWAL
    return FLAG_UNKNOWN


def assemble_global(embedding: np.ndarray, stats: tuple[int, int, int, float],
                    flag: float) -> np.ndarray:
    """The global block, a float64 array in `GLOBAL_LAYOUT` order."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.shape != (EMBED_DIM,):
        raise DimensionMismatch(f"embedding must have {EMBED_DIM} dims, got {embedding.shape}")
    if len(stats) != 4:
        raise DimensionMismatch("stats must be (|V|, |E|, n_logs, density)")
    vec = np.empty(GLOBAL_DIM, dtype=np.float64)
    vec[:EMBED_DIM] = embedding
    vec[EMBED_DIM:] = (*stats, flag)
    return vec
