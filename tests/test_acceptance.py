"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from math import comb

import numpy as np
import pytest
from click.testing import CliRunner

from bridgeguard.bench import REFERENCE_TOTAL_MS, REFERENCE_TPS, STAGES, run_bench
from bridgeguard.classify import evaluate
from bridgeguard.cli import main as cli_main
from bridgeguard.config import RunConfig
from bridgeguard.features import graph_stats
from bridgeguard.ingest import record_from_document
from bridgeguard.motifs import motif_census_matrix, triad_census_bruteforce
from bridgeguard.pipeline import (
    feature_vector,
    prepare,
    repeated_pipeline_eval,
    train_detector,
)
from bridgeguard.synthgen import GenConfig, gen_dataset
from bridgeguard.wl import wl_document
from bridgeguard.xteg import build_xteg
from conftest import random_digraph, random_trace_doc
from test_wl import _collect_addresses, _relabel_addresses

EXPERIMENT_CFG = RunConfig(runs=10, seed=7)


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


@pytest.fixture(scope="module")
def corpus():
    samples, _ = gen_dataset(GenConfig(n_normal=4000, attack_rate=0.005, seed=2024))
    records = [s.record for s in samples]
    labels = [s.label for s in samples]
    assert sum(1 for lab in labels if lab != "Normal") == 20
    return records, labels


@pytest.fixture(scope="module")
def experiment(corpus):
    records, labels = corpus
    start = time.perf_counter()
    report = repeated_pipeline_eval(records, labels, EXPERIMENT_CFG,
                                    classifiers=("knn", "dtree"))
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_motif_oracle_equivalence():
    def check():
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(3, 13))
            a = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
            assert motif_census_matrix(a).counts == triad_census_bruteforce(a).counts
        assert time.perf_counter() - start < 10.0

    _report(1, "matrix census == brute-force triad census on 200 random "
               "digraphs (n<=12), under 10 s", check)


def test_criterion_02_census_partition_invariant():
    def check():
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(1, 41))
            a = random_digraph(rng, n, float(rng.uniform(0.0, 0.6)))
            assert sum(motif_census_matrix(a).counts) == comb(n, 3)

    _report(2, "census counts sum to C(n,3) exactly on 100 random graphs "
               "up to n=40", check)


def test_criterion_03_wl_isomorphism_invariance():
    def check():
        rng = np.random.default_rng(303)
        for _ in range(100):
            doc = random_trace_doc(rng, max_frames=30)
            addresses = set()
            _collect_addresses(doc, addresses)
            base = (1 << 62) + int(rng.integers(1 << 40))
            mapping = {a: "0x" + format(base + i, "040x")
                       for i, a in enumerate(sorted(addresses))}
            g1 = build_xteg(record_from_document(doc))
            g2 = build_xteg(record_from_document(_relabel_addresses(doc, mapping)))
            assert wl_document(g1) == wl_document(g2)

    _report(3, "WL documents are multiset-equal under random vertex "
               "relabelings for 100 random graphs", check)


def test_criterion_04_feature_dimensions(corpus):
    def check():
        records, labels = corpus
        cfg = RunConfig(seed=4, epochs=25)
        bundle, _ = train_detector(records[:300], labels[:300], cfg)
        for record in records[:300]:
            prep = prepare(record, cfg)
            assert len(prep.census.counts) == 16
            fv = feature_vector(prep, bundle.embedding)
            assert fv.values.shape == (37,)
            assert fv.values[:21].shape == (21,)

    _report(4, "feature dimensions are exactly 21 (global), 16 (local), "
               "37 (combined) on every pipeline run", check)


def test_criterion_05_density_formula():
    def check():
        rng = np.random.default_rng(505)
        for _ in range(100):
            record = record_from_document(random_trace_doc(rng, max_frames=40))
            graph = build_xteg(record)
            n_vertices, n_edges, _, density = graph_stats(graph)
            expected = 2 * n_edges / (n_vertices * (n_vertices - 1))
            assert abs(density - expected) < 1e-12

    _report(5, "graph density matches 2|E|/(|V|(|V|-1)) to 1e-12 on "
               "randomized inputs", check)


def test_criterion_06_pipeline_determinism(tmp_path):
    def check():
        runner = CliRunner()
        outputs = []
        for tag in ("run1", "run2"):
            corpus_dir = tmp_path / tag / "corpus"
            out_file = tmp_path / tag / "metrics.json"
            result = runner.invoke(cli_main, [
                "synth", "--out", str(corpus_dir), "--n-normal", "150",
                "--attack-rate", "0.04", "--noise-prob", "0.4", "--seed", "606"])
            assert result.exit_code == 0, result.output
            config_file = tmp_path / tag / "config.json"
            config_file.write_text(json.dumps({"epochs": 25, "runs": 2, "seed": 6}))
            result = runner.invoke(cli_main, [
                "evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--config", str(config_file), "--classifier", "knn",
                "--out", str(out_file)])
            assert result.exit_code == 0, result.output
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    _report(6, "synth -> features -> train -> evaluate twice with fixed "
               "seeds yields byte-identical metrics JSON", check)


def test_criterion_07_scaled_classification_experiment(experiment):
    def check():
        report, elapsed = experiment
        knn = report["knn"]["mean"]["binary"]["per_class"]["Attack"]
        dtree = report["dtree"]["mean"]["binary"]["per_class"]["Attack"]
        print(f"  knn attack mean F1={knn['f1']:.4f} recall={knn['recall']:.4f}; "
              f"dtree mean F1={dtree['f1']:.4f}; elapsed {elapsed:.0f}s")
        assert knn["f1"] >= 0.90
        assert knn["recall"] >= 0.85
        assert dtree["f1"] >= 0.80
        assert elapsed < 300.0

    _report(7, "4000+20 corpus, 7:3 split, 10 runs: KNN attack F1>=0.90 and "
               "recall>=0.85, decision tree F1>=0.80, under 5 minutes", check)


def test_criterion_08_three_class_reporting(experiment):
    def check():
        report, _ = experiment
        per_class = report["knn"]["mean"]["per_class"]
        assert list(per_class) == ["Normal", "AttackSrc", "AttackTgt"]
        for row in per_class.values():
            assert set(row) == {"precision", "recall", "f1", "support"}
        src = per_class["AttackSrc"]["recall"]
        tgt = per_class["AttackTgt"]["recall"]
        ordering = ">=" if tgt >= src else "<"
        print(f"  recorded: AttackTgt recall {tgt:.4f} {ordering} "
              f"AttackSrc recall {src:.4f} (recorded, not asserted)")

    _report(8, "evaluate emits per-class rows for Normal/AttackSrc/AttackTgt; "
               "AttackTgt-vs-AttackSrc recall ordering recorded", check)


def test_criterion_09_throughput(corpus):
    def check():
        records, labels = corpus
        cfg = RunConfig(seed=9)
        bundle, _ = train_detector(records, labels, cfg)
        bench_records = records[:1000]
        assert all(len(build_xteg(r).vertices) <= 200 for r in bench_records)
        report = run_bench(bench_records, bundle)
        assert tuple(report.stage_ms) == STAGES
        assert all(report.stage_ms[s] >= 0 for s in STAGES)
        assert report.tps > 0
        assert report.median_total_ms < 100.0
        print(f"  stages(ms)={ {s: round(report.stage_ms[s], 3) for s in STAGES} } "
              f"tps={report.tps:.0f} median={report.median_total_ms:.3f}ms "
              f"(reference total {REFERENCE_TOTAL_MS} ms / {REFERENCE_TPS:.0f} TPS)")

    _report(9, "bench over 1000 synthetic transactions reports all four "
               "stages + TPS; median per-tx latency < 100 ms", check)


def test_criterion_10_metric_identities():
    def check():
        rng = np.random.default_rng(1010)
        classes = ("Normal", "AttackSrc", "AttackTgt")
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            labels = [classes[i] for i in rng.integers(0, 3, n)]
            predictions = [classes[i] for i in rng.integers(0, 3, n)]
            metrics = evaluate(predictions, labels)
            assert metrics.micro_precision == metrics.micro_recall == metrics.accuracy
            for m in metrics.per_class.values():
                expected = (0.0 if m.precision + m.recall == 0 else
                            2 * m.precision * m.recall / (m.precision + m.recall))
                assert abs(m.f1 - expected) <= 1e-12

    _report(10, "on 1000 random confusion matrices micro-precision = "
                "micro-recall = accuracy and F1 matches its harmonic "
                "recomputation to 1e-12", check)
