"""Per-stage timing of the detection pipeline over a corpus.

Each transaction runs through `pipeline.detect` with a stage hook that
times the paper's stages: graph construction, global mining (WL document +
embedding + statistics + flow flag), local mining (motif census),
classification (feature vector + classifier scores and label). Times are
wall-clock milliseconds, single worker for stability. Published reference
timings for the original BridgeGuard benchmark are carried alongside for
comparison, never asserted.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import CorpusTooSmall
from .ingest import TxRecord
from .pipeline import STAGES, DetectorBundle, detect

# Original BridgeGuard benchmark, milliseconds per stage (total 15.212 -> ~65 TPS).
REFERENCE_STAGE_MS = {
    "xteg_construction": 0.253,
    "global_mining": 0.332,
    "local_mining": 14.6,
    "classification": 0.027,
}
REFERENCE_TOTAL_MS = 15.212
REFERENCE_TPS = 65.0


@dataclass
class BenchReport:
    n: int
    stage_ms: dict[str, float]  # mean per stage, STAGES order
    total_ms: float  # sum of stage means
    tps: float  # 1000 / total_ms
    median_total_ms: float  # median per-transaction end-to-end latency
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "stage_ms": {stage: self.stage_ms[stage] for stage in STAGES},
            "total_ms": self.total_ms,
            "tps": self.tps,
            "median_total_ms": self.median_total_ms,
            "reference_stage_ms": dict(REFERENCE_STAGE_MS),
            "reference_total_ms": REFERENCE_TOTAL_MS,
            "reference_tps": REFERENCE_TPS,
            "config_hash": self.config_hash,
        }


def run_bench(records: list[TxRecord], bundle: DetectorBundle,
              min_corpus: int = 100) -> BenchReport:
    if len(records) < min_corpus:
        raise CorpusTooSmall(f"bench needs >= {min_corpus} transactions, got {len(records)}")
    spent = dict.fromkeys(STAGES, 0)  # ns per stage over the corpus

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            spent[name] += time.perf_counter_ns() - t0

    totals = []  # ms per transaction
    for record in records:
        before = sum(spent.values())
        detect(bundle, [record], stage=stage)
        totals.append((sum(spent.values()) - before) / 1e6)

    n = len(records)
    stage_ms = {name: spent[name] / 1e6 / n for name in STAGES}
    total_ms = sum(stage_ms.values())
    return BenchReport(
        n=n,
        stage_ms=stage_ms,
        total_ms=total_ms,
        tps=1000.0 / total_ms if total_ms > 0 else float("inf"),
        median_total_ms=float(np.median(totals)),
        config_hash=bundle.config.config_hash(),
    )


def format_bench_table(report: BenchReport) -> str:
    rows = [
        ("Step", "Avg. time (ms)", "Reference (ms)"),
        ("-" * 34, "-" * 14, "-" * 14),
    ]
    names = {
        "xteg_construction": "xTEG construction",
        "global_mining": "Global graph mining",
        "local_mining": "Local graph mining",
        "classification": "Attack detection classifier",
    }
    for stage in STAGES:
        rows.append((names[stage], f"{report.stage_ms[stage]:.3f}",
                     f"{REFERENCE_STAGE_MS[stage]:.3f}"))
    rows.append(("Total", f"{report.total_ms:.3f}", f"{REFERENCE_TOTAL_MS:.3f}"))
    rows.append(("TPS", f"{report.tps:.1f}", f"{REFERENCE_TPS:.1f}"))
    rows.append(("Median per-tx latency", f"{report.median_total_ms:.3f}", "-"))
    width0 = max(len(r[0]) for r in rows)
    width1 = max(len(r[1]) for r in rows)
    lines = [f"{a:<{width0}}  {b:>{width1}}  {c:>14}" for a, b, c in rows]
    lines.append(f"(corpus: {report.n} transactions, config {report.config_hash})")
    return "\n".join(lines)
