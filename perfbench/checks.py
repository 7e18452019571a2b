"""Output checks: pinned references and independent oracles.

Every check returns a list of problems; an empty list means the output is
correct. The pinned references under `reference/` hold the outputs of the
program for the seeds listed there, so that a change to any layer that
changes a label or a metric shows. The oracles apply to every seed:

* the exhaustive KNN vote recomputed from the captured feature vector;
* the triad census against the brute-force census on graphs of at most 64
  vertices, and against two counting identities on every graph;
* the evaluation report against metrics recomputed by hand from its own
  confusion matrix and from the corpus's class counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

LABEL_ORDER = ("Normal", "AttackSrc", "AttackTgt")

# Arcs in each census class, in the census order 003 .. 300.
ARCS_PER_CLASS = (0, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 6)


def metrics_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f)


def save_reference(workload: str, seed: int, payload: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=0, sort_keys=True)
        f.write("\n")
    return path


def reference_key(tx_hash: str) -> str:
    """Pinned labels are keyed by the first 8 bytes of the transaction hash."""
    return tx_hash[:18]


# --- KNN oracle -------------------------------------------------------------


def knn_oracle(model, values: np.ndarray) -> str:
    """Exhaustive k-nearest vote over every training row.

    Majority label; ties break on the smaller summed distance, then on the
    fixed class order. Equal distances rank by training-row index.
    """
    z = (values - model.standardizer.mean) / model.standardizer.std
    dist = np.sqrt(((model.x - z) ** 2).sum(axis=1))
    nearest = np.lexsort((np.arange(dist.size), dist))[:model.k]
    votes: dict[str, list] = {}
    for i in nearest:
        entry = votes.setdefault(model.y[i], [0, 0.0])
        entry[0] += 1
        entry[1] += float(dist[i])

    def rank(label: str):
        order = LABEL_ORDER.index(label) if label in LABEL_ORDER else len(LABEL_ORDER)
        return (-votes[label][0], votes[label][1], order, label)
    return min(votes, key=rank)


# --- census -----------------------------------------------------------------


def simple_arcs(graph) -> set[tuple[int, int]]:
    return {(e.src, e.dst) for e in graph.edges if e.src != e.dst}


def census_problems(n: int, n_arcs: int, counts: tuple[int, ...]) -> list[str]:
    problems = []
    if sum(counts) != math.comb(n, 3):
        problems.append(f"census sums to {sum(counts)}, C({n},3) = {math.comb(n, 3)}")
    arc_incidence = sum(c * a for c, a in zip(counts, ARCS_PER_CLASS))
    if n >= 3 and arc_incidence != n_arcs * (n - 2):
        problems.append(f"census arc incidence {arc_incidence} != "
                        f"{n_arcs} arcs x (n-2) = {n_arcs * (n - 2)}")
    return problems


def bruteforce_census(n: int, arcs: set[tuple[int, int]]) -> tuple[int, ...]:
    from bridgeguard.motifs import triad_census_bruteforce

    a = np.zeros((n, n), dtype=np.int64)
    for src, dst in arcs:
        a[src, dst] = 1
    return tuple(triad_census_bruteforce(a).counts)


# --- evaluation report ------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _report_problems(name: str, report: dict, confusion: np.ndarray) -> list[str]:
    problems = []
    classes = report["classes"]
    got = np.asarray(report["confusion"], dtype=np.float64)
    if got.shape != confusion.shape or not np.array_equal(got, confusion):
        return [f"{name}: confusion {got.tolist()} != expected {confusion.tolist()}"]
    per_class = []
    for i, c in enumerate(classes):
        tp = confusion[i, i]
        col, row = confusion[:, i].sum(), confusion[i, :].sum()
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
        entry = report["per_class"][c]
        for key, want in (("precision", precision), ("recall", recall),
                          ("f1", f1), ("support", row)):
            if not _close(float(entry[key]), float(want)):
                problems.append(f"{name}/{c}/{key}: {entry[key]} != {want}")
    total = confusion.sum()
    want = {"accuracy": np.trace(confusion) / total,
            "macro_precision": np.mean([p for p, _, _ in per_class]),
            "macro_recall": np.mean([r for _, r, _ in per_class]),
            "macro_f1": np.mean([f for _, _, f in per_class])}
    for key, value in want.items():
        if not _close(float(report[key]), float(value)):
            problems.append(f"{name}/{key}: {report[key]} != {value}")
    return problems


def expected_support(labels: list[str], ratio: float) -> dict[str, int]:
    """Test-split size per class under the stratified split rule."""
    support = {}
    for c in LABEL_ORDER:
        n = labels.count(c)
        if not n:
            continue
        n_train = min(max(int(round(ratio * n)), 1), n)
        if n_train == n and n > 1:
            n_train -= 1
        support[c] = n - n_train
    return support


def eval_report_problems(out: dict, kinds: tuple[str, ...], labels: list[str],
                         ratio: float) -> list[str]:
    """A one-run `repeated_pipeline_eval` result against hand-computed metrics."""
    problems = []
    support = expected_support(labels, ratio)
    for kind in kinds:
        mean, std = out[kind]["mean"], out[kind]["std"]
        three = np.asarray(mean["confusion"], dtype=np.float64)
        rows = dict(zip(mean["classes"], three.sum(axis=1)))
        if {c: int(v) for c, v in rows.items() if v} != support:
            problems.append(f"{kind}: test support {rows} != {support}")
        problems += _report_problems(f"{kind}/three_class", mean, three)
        # Binary collapse: Normal stays, both attack classes merge.
        normal = mean["classes"].index("Normal")
        attack = [i for i in range(len(mean["classes"])) if i != normal]
        binary = np.array([
            [three[normal, normal], three[normal, attack].sum()],
            [three[attack, normal].sum(), three[np.ix_(attack, attack)].sum()]])
        problems += _report_problems(f"{kind}/binary", mean["binary"], binary)

        def nonzero(node):
            if isinstance(node, dict):
                return any(nonzero(v) for k, v in node.items() if k != "classes")
            if isinstance(node, list):
                return any(nonzero(v) for v in node)
            return node != 0
        if nonzero(std):
            problems.append(f"{kind}: std over one run is not zero")
    return problems
