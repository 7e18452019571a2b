"""Per-stage timing of the detection pipeline over a corpus.

Each transaction runs through `pipeline.detect` with a stage hook that
times the paper's stages: graph construction, global mining (WL document +
embedding + statistics + flow flag), local mining (motif census),
classification (feature vector + classifier scores and label). Times are
wall-clock milliseconds, single worker for stability: each stage's mean
over the corpus, and its p50, p95 and p99 over transactions. The report
also records the machine's CPU count (`nproc`) and the process's peak
resident set (`peak_rss_mb`); like the times, they are not part of any
determinism check. Published reference timings for the original
BridgeGuard benchmark are carried alongside for comparison, never asserted.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CorpusTooSmall
from .ingest import TxRecord
from .pipeline import STAGES, DetectorBundle, detect

# Each stage's table title and its time in the original BridgeGuard
# benchmark, milliseconds (total 15.212 -> ~65 TPS).
STAGE_TABLE = {
    "xteg_construction": ("xTEG construction", 0.253),
    "global_mining": ("Global graph mining", 0.332),
    "local_mining": ("Local graph mining", 14.6),
    "classification": ("Attack detection classifier", 0.027),
}
REFERENCE_TOTAL_MS = 15.212
REFERENCE_TPS = 65.0
MIN_CORPUS = 100  # the fewest transactions bench times


@dataclass
class BenchReport:
    n: int
    stage_ms: dict[str, float]  # mean per stage, STAGES order
    stage_p50_ms: dict[str, float]  # per-transaction percentiles per stage
    stage_p95_ms: dict[str, float]
    stage_p99_ms: dict[str, float]
    total_ms: float  # sum of stage means
    tps: float  # 1000 / total_ms
    median_total_ms: float  # median per-transaction end-to-end latency
    config_hash: str
    nproc: int | None  # os.cpu_count()
    peak_rss_mb: float  # the process's peak resident set so far, 1e6 bytes

    def to_dict(self) -> dict:
        return dict(asdict(self), reference_total_ms=REFERENCE_TOTAL_MS,
                    reference_tps=REFERENCE_TPS,
                    reference_stage_ms={stage: STAGE_TABLE[stage][1] for stage in STAGES})


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB of 1e6 bytes."""
    import resource  # POSIX only; only bench reads it

    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss * (1 if sys.platform == "darwin" else 1024) / 1e6  # bytes, else KiB


def run_bench(records: list[TxRecord], bundle: DetectorBundle) -> BenchReport:
    if len(records) < MIN_CORPUS:
        raise CorpusTooSmall(f"bench needs >= {MIN_CORPUS} transactions, got {len(records)}")
    column = {name: j for j, name in enumerate(STAGES)}
    per_tx_ns = np.zeros((len(records), len(STAGES)), dtype=np.int64)

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            per_tx_ns[row, column[name]] += time.perf_counter_ns() - t0

    for row, record in enumerate(records):  # `stage` adds to this row
        detect(bundle, [record], stage=stage)

    per_tx = per_tx_ns / 1e6  # ms per transaction and stage
    by_stage = lambda values: dict(zip(STAGES, values.tolist()))
    stage_ms = by_stage(per_tx.mean(axis=0))
    total_ms = sum(stage_ms.values())
    p50, p95, p99 = np.percentile(per_tx, [50, 95, 99], axis=0)
    return BenchReport(
        n=len(records),
        stage_ms=stage_ms,
        stage_p50_ms=by_stage(p50),
        stage_p95_ms=by_stage(p95),
        stage_p99_ms=by_stage(p99),
        total_ms=total_ms,
        tps=1000.0 / total_ms if total_ms > 0 else float("inf"),
        median_total_ms=float(np.median(per_tx.sum(axis=1))),
        config_hash=bundle.config.config_hash(),
        nproc=os.cpu_count(),
        peak_rss_mb=peak_rss_mb(),
    )


def format_bench_table(report: BenchReport) -> str:
    rows = [
        ("Step", "Avg. time (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "Reference (ms)"),
        ("-" * 34, "-" * 14, "-" * 8, "-" * 8, "-" * 8, "-" * 14),
    ]
    for stage in STAGES:
        title, reference_ms = STAGE_TABLE[stage]
        rows.append((title, f"{report.stage_ms[stage]:.3f}",
                     f"{report.stage_p50_ms[stage]:.3f}", f"{report.stage_p95_ms[stage]:.3f}",
                     f"{report.stage_p99_ms[stage]:.3f}", f"{reference_ms:.3f}"))
    rows.append(("Total", f"{report.total_ms:.3f}", "-", "-", "-", f"{REFERENCE_TOTAL_MS:.3f}"))
    rows.append(("TPS", f"{report.tps:.1f}", "-", "-", "-", f"{REFERENCE_TPS:.1f}"))
    rows.append(("Median per-tx latency", f"{report.median_total_ms:.3f}", "-", "-", "-", "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join([row[0].ljust(widths[0])]
                       + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])])
             for row in rows]
    lines.append(f"(corpus: {report.n} transactions, config {report.config_hash}; "
                 f"nproc {report.nproc}, peak RSS {report.peak_rss_mb:.1f} MB)")
    return "\n".join(lines)
