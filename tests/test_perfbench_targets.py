"""The benchmark harness names program functions as (module, attribute)
pairs: the layers it times and the calls whose outputs it captures for its
checks. A name that no longer resolves only prints "not traced" when the
benchmark runs, and a missing capture target empties the capture, so every
output reads as incorrect. The detect checks' exhaustive KNN oracle also
reads the classifier's attributes, and compare the captured feature vector
and census with their own. These tests import the harness without writing
into it and check every name and captured value against the program."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgeguard import pipeline
from bridgeguard.classify import LabeledSample, knn_predict, knn_train
from bridgeguard.config import RunConfig
from bridgeguard.motifs import MOTIF_NAMES
from bridgeguard.synthgen import GenConfig, gen_dataset

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from perfbench import checks, perlayer, tracer, workloads  # noqa: E402
finally:
    sys.dont_write_bytecode = _write_bytecode

TRACED = sorted({target for targets in tracer.LAYER_FUNCTIONS.values()
                 for target in targets})
HOOKED = sorted(workloads.Capture().hooks().keys() | perlayer.LayerCounts().hooks().keys())


def _resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_layer_function_exists(module, attr):
    assert _resolves(module, attr)


@pytest.mark.parametrize("module, attr", HOOKED)
def test_capture_hook_target_is_traced_and_exists(module, attr):
    # `tracer.instrument` attaches hooks only to the layer functions.
    assert (module, attr) in TRACED
    assert _resolves(module, attr)


def test_knn_oracle_reads_the_attributes_the_program_keeps():
    """`checks.knn_oracle` scores from the classifier's `standardizer`, `x`,
    `y` and `k`; the detect checks mark every output incorrect without them."""
    rng = np.random.default_rng(11)
    labels = ["Normal", "AttackSrc", "AttackTgt"]
    rows = np.concatenate([rng.normal(3.0 * c, 1.0, (12, 4)) for c in range(3)])
    train = [LabeledSample(f"t{i}", row, labels[i // 12]) for i, row in enumerate(rows)]
    model = knn_train(train, k=5)
    probes = [*rows[::5], *rng.normal(3.0, 4.0, (30, 4))]
    for probe in probes:
        assert checks.knn_oracle(model, probe) == knn_predict(model, probe)


def test_capture_holds_the_vector_and_census_detect_computes():
    """The detect checks compare `Capture.features` with the program's
    feature vector and `Capture.census` with their own census."""
    samples, _ = gen_dataset(GenConfig(n_normal=40, attack_rate=0.1, seed=21))
    cfg = RunConfig(seed=2, epochs=10)
    bundle, _ = pipeline.train_detector([s.record for s in samples],
                                        [s.label for s in samples], cfg)
    record = samples[-1].record
    capture = workloads.Capture()
    capture.tx = record.tx_hash
    with tracer.instrument(None, capture.hooks()):
        pipeline.detect(bundle, [record])
    expected = pipeline.feature_vector(pipeline.prepare(record, cfg), bundle.embedding).values
    captured = capture.features[record.tx_hash]
    assert captured.dtype == expected.dtype
    assert captured.tobytes() == expected.tobytes()
    _, counts = capture.census[record.tx_hash]
    assert len(counts) == len(MOTIF_NAMES)


def test_train_eval_protocol_matches_its_pinned_digest(tmp_path):
    """The benchmark's `train-eval` workload scores knn and dtree under one
    protocol run; its metrics must hash to the digest pinned for seed 2024."""
    setup = workloads.setup_train_eval(2024, tmp_path)
    report, _ = workloads.eval_protocol(setup.manifest)
    assert checks.metrics_digest(report) == \
        checks.load_reference("train-eval", 2024)["metrics_digest"]
