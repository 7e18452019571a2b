"""Tests of the benchmark itself: input generators, the held-out split, the
large-graph shapes, the tracer and the output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bridgeguard.classify import evaluate, knn_predict  # noqa: E402
from bridgeguard.ingest import record_from_document  # noqa: E402
from bridgeguard.motifs import triad_census_bruteforce  # noqa: E402
from bridgeguard.wl import wl_document  # noqa: E402
from bridgeguard.xteg import build_xteg  # noqa: E402
from perfbench import checks, hostspeed, largegen, workloads  # noqa: E402
from perfbench.tracer import Tracer, instrument  # noqa: E402


def _tree_files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_roadmap_corpus_is_byte_identical_under_one_seed(tmp_path):
    workloads.write_corpus(7, tmp_path / "a")
    workloads.write_corpus(7, tmp_path / "b")
    files = _tree_files(tmp_path / "a")
    assert files == _tree_files(tmp_path / "b")
    assert len(files) == 4020 + 2  # traces, manifest, gen_config.json
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               [str(f) for f in files], shallow=False)
    assert not mismatch and not errors

    workloads.write_corpus(8, tmp_path / "c")
    assert (tmp_path / "a" / "manifest.jsonl").read_bytes() != \
        (tmp_path / "c" / "manifest.jsonl").read_bytes()


def test_large_corpus_is_byte_identical_under_one_seed():
    first = [largegen.dumps(doc) for _, _, doc in largegen.large_corpus(11)]
    again = [largegen.dumps(doc) for _, _, doc in largegen.large_corpus(11)]
    other = [largegen.dumps(doc) for _, _, doc in largegen.large_corpus(12)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_size_profile_is_log_uniform_and_stratified():
    for seed in (1, 2, 3):
        targets = largegen.size_targets(seed)
        assert len(targets) == largegen.N_TX
        assert targets == sorted(targets)
        assert largegen.V_MIN <= targets[0] and targets[-1] <= largegen.V_MAX
        span = math.log(largegen.V_MAX / largegen.V_MIN)
        for i, n in enumerate(targets):
            position = math.log(n / largegen.V_MIN) / span * largegen.N_TX
            assert i - 0.1 <= position <= i + 1.1


def _weak_components(n: int, arcs) -> int:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i
    for a, b in arcs:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(n)})


def _max_depth(node: dict) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        frame, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in frame["calls"])
    return deepest


def test_large_graphs_are_connected_and_hit_their_targets():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)  # the program's parser recurses per frame
    try:
        for n, depth, doc in largegen.large_corpus(2024):
            text = largegen.dumps(doc)
            assert json.loads(text) == doc
            graph = build_xteg(record_from_document(json.loads(text)))
            assert len(graph.vertices) == n
            arcs = checks.simple_arcs(graph)
            assert _weak_components(n, arcs) == 1
            assert any((b, a) in arcs for a, b in arcs), "no mutual dyad"
            assert _max_depth(doc["trace"]) >= depth
            if depth:
                assert _max_depth(doc["trace"]) == depth
    finally:
        sys.setrecursionlimit(limit)
    assert max(largegen.chain_depths()) == 1024


@pytest.fixture(scope="module")
def heldout(tmp_path_factory):
    return workloads.setup_heldout(2024, tmp_path_factory.mktemp("heldout"))


def test_heldout_stream_is_disjoint_from_the_training_split(heldout):
    from bridgeguard.config import RunConfig
    from bridgeguard.ingest import load_trace_file

    samples, _ = workloads.synthgen.gen_dataset(workloads.synthgen.GenConfig(
        n_normal=workloads.CORPUS_N_NORMAL,
        attack_rate=workloads.CORPUS_ATTACK_RATE, seed=2024))
    train_idx, test_idx = workloads.heldout_split([s.label for s in samples], RunConfig())
    train_hashes = {samples[i].record.tx_hash for i in train_idx}
    timed = [tx for _, tx in heldout.items]
    assert len(timed) == len(set(timed)) == 1206
    assert not train_hashes & set(timed)
    assert len(train_hashes) + len(timed) == len(samples)
    # The split replicated here is the one the detector was trained on.
    trained = [wl_document(build_xteg(samples[i].record)).content_hash
               for i in train_idx]
    assert heldout.bundle.embedding.doc_hashes == trained
    path, tx = heldout.items[0]
    assert load_trace_file(path).tx_hash == tx


def test_knn_oracle_agrees_with_the_program(heldout):
    model = heldout.bundle.classifier
    rng = np.random.default_rng(0)
    for row in rng.choice(model.x.shape[0], 50, replace=False):
        raw = model.x[row] * model.standardizer.std + model.standardizer.mean
        values = raw + rng.normal(0, 0.01, raw.shape)
        assert checks.knn_oracle(model, values) == knn_predict(model, values)


def test_detect_checks_flag_missing_features_and_reference_coverage(heldout):
    tx = "0x" + "ab" * 32
    phase = workloads.Phase(ops=[workloads.Op(tx, "Normal", 1)])
    pinned = {"labels": {checks.reference_key("0x" + "cd" * 32): "Normal"}}
    workloads.check_phase("heldout", heldout, phase, workloads.Capture(), pinned)
    assert any("no feature vector" in p for p in phase.problems)
    assert any("pinned transactions are not in this run" in p for p in phase.problems)
    assert any("no transaction of this run" in p for p in phase.problems)
    assert phase.failed == 1


def test_census_checks_accept_exact_census_and_reject_a_changed_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        a = (rng.random((n, n)) < 0.3).astype(np.int64)
        np.fill_diagonal(a, 0)
        counts = tuple(triad_census_bruteforce(a).counts)
        arcs = {(int(i), int(j)) for i, j in zip(*np.nonzero(a))}
        assert checks.census_problems(n, len(arcs), counts) == []
        assert checks.bruteforce_census(n, arcs) == counts
        changed = list(counts)
        changed[0] -= 1
        changed[1] += 1
        assert checks.census_problems(n, len(arcs), tuple(changed))


def test_eval_report_check_accepts_real_metrics_and_rejects_tampering():
    labels = ["Normal"] * 20 + ["AttackSrc"] * 3 + ["AttackTgt"] * 3
    support = checks.expected_support(labels, 0.7)
    truth = [c for c, k in support.items() for _ in range(k)]
    predictions = list(truth)
    predictions[0], predictions[-1] = "AttackSrc", "Normal"
    report = evaluate(predictions, truth,
                      classes=("Normal", "AttackSrc", "AttackTgt")).to_dict()
    binary = evaluate(["Normal" if p == "Normal" else "Attack" for p in predictions],
                      ["Normal" if t == "Normal" else "Attack" for t in truth],
                      classes=("Normal", "Attack")).to_dict()
    report["binary"] = binary
    zeros = json.loads(json.dumps(report),
                       parse_float=lambda _: 0.0, parse_int=lambda _: 0)
    out = {"knn": {"mean": report, "std": zeros}}
    assert checks.eval_report_problems(out, ("knn",), labels, 0.7) == []
    report["per_class"]["AttackSrc"]["recall"] += 0.01
    assert checks.eval_report_problems(out, ("knn",), labels, 0.7)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(txid="t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    own = tracer.self_ns()
    (_, s0, e0, p0, _), (_, s1, e1, p1, _), (_, s2, e2, p2, _) = tracer.spans
    assert (p0, p1, p2) == (-1, 0, 0)
    assert own[0] == (e0 - s0) - (e1 - s1) - (e2 - s2)
    assert own[1] == e1 - s1


def test_instrument_wraps_every_reference_and_restores_it():
    import bridgeguard
    from bridgeguard import ingest, pipeline

    original = pipeline.build_xteg
    tracer = Tracer(txid="t")
    seen = []
    hooks = {("bridgeguard.xteg", "build_xteg"): lambda args, result: seen.append(result)}
    doc = largegen.large_document(1, 0, 70)
    with instrument(tracer, hooks):
        assert pipeline.build_xteg is not original
        graph = pipeline.build_xteg(record_from_document(doc))
        assert bridgeguard.load_trace_file is ingest.load_trace_file
    assert pipeline.build_xteg is original
    assert seen == [graph]
    assert [s[0] for s in tracer.spans] == ["xteg:build_xteg"]


def test_spread_order_is_a_permutation_whose_prefixes_span_the_sizes():
    for n in (1, 5, 44):
        order = workloads.spread_order(n)
        assert sorted(order) == list(range(n))
    order = workloads.spread_order(44)
    assert max(order[:4]) >= 30 and min(order[:4]) == 0


def test_host_speed_scaling_weights_each_stretch_by_its_samples():
    calibrator = hostspeed.Calibrator()
    ref = hostspeed.REFERENCE_NS
    calibrator.samples = [ref, 2 * ref, 2 * ref]
    assert calibrator.scale(0) == pytest.approx(1 / 1.5)
    assert calibrator.scale(2) == pytest.approx(0.5)
    # Two stretches of 1 s, between marks, at mean kernel times 1.5 and 2
    # times the reference; the time inside the marks does not count.
    marks = [(0, 10, 0), (1_000_000_010, 1_000_000_020, 1), (2_000_000_020, 0, 2)]
    assert hostspeed.scaled_seconds(calibrator, marks) == pytest.approx(1 / 1.5 + 0.5)


def test_sampled_brackets_the_body_and_restores_the_signal_handler():
    import signal
    import time

    calibrator = hostspeed.Calibrator()
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.sampled(calibrator) as marks:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(marks) >= 3 and [m[2] for m in marks] == list(range(len(marks)))
    assert 0 < hostspeed.scaled_seconds(calibrator, marks) < 10
