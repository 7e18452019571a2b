"""Set-up and timed phases of the workloads.

One client drives the program's public functions in a closed loop: the next
input is loaded only after the previous one has its output. A timed phase
cycles through the workload's inputs until every input has run once and
`seconds` have passed, so each input runs several times, spread over the
whole phase. Every repetition's latency is scaled to a reference host speed
(see hostspeed.py), and an input's latency is the median of its scaled
repetitions. From these per-input latencies:

* tx_per_s is the number of inputs labelled over the sum of their latencies,
  the rate of one pass at the reference speed;
* latency_p50_ms is their median and latency_tail_ms a fixed percentile of
  them, so the count beyond the tail is a count of transactions.

The unscaled throughput and median over the whole phase are printed beside
them. An operation is one input: `attempted` counts inputs and `failed` the
inputs whose repetitions raised or gave a wrong output, so both are the
same on every run of one seed.

* heldout - the ROADMAP corpus (4000 normal, 0.5% attacks) written to trace
  files; a default-config KNN detector is trained on its 70% split and the
  1206 held-out files are labelled one at a time. About three quarters of
  the held-out documents hit a trained embedding vector and the rest take
  the slow inference path, so both cost modes show in one latency
  distribution. The motif census is cheap here (|V| <= 11).
* large - 44 transactions with 64..256 vertices (see largegen.py), labelled
  by the same detector. The dense census and embedding inference dominate;
  every embedding misses. Deep reentrancy chains up to call depth 1024 are
  part of the input, and those the program cannot parse count as failed.
* train-eval - one run of the evaluation protocol (`repeated_pipeline_eval`
  with runs=1, knn and dtree), loaded from the manifest the way
  `bridgeguard evaluate` loads it. This is the only workload whose timed
  phase trains graph2vec.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bridgeguard import classify, ingest, pipeline, synthgen
from bridgeguard.config import RunConfig

from . import checks, largegen
from .hostspeed import CAL_EVERY_NS, REFERENCE_NS, Calibrator, sampled, scaled_seconds
from .tracer import Tracer, instrument

CORPUS_N_NORMAL = 4000
CORPUS_ATTACK_RATE = 0.005
EVAL_CLASSIFIERS = ("knn", "dtree")
# A quarter of the ROADMAP corpus, with its 20 attacks, so that one timed
# phase holds several protocol runs; graph2vec training stays most of a run.
EVAL_N_NORMAL = 1000
EVAL_ATTACK_RATE = 0.02
# Highest percentile with at least ten inputs beyond it: 1206 held-out
# transactions; 41 of the 44 large ones parse today; one protocol run.
TAIL_PERCENTILE = {"heldout": 99.0, "large": 75.0, "train-eval": 100.0}
SETUP_REPEATS = {"heldout": 1, "large": 1, "train-eval": 3}


@dataclass
class Op:
    key: str  # transaction hash, or the protocol run's name
    output: str | None  # label or metrics digest; None when the operation raised
    ns: int
    error: str | None = None
    cal: int = 0  # index of the host-speed sample taken before the operation


@dataclass
class Phase:
    ops: list[Op] = field(default_factory=list)
    elapsed_ns: int = 0
    problems: list[str] = field(default_factory=list)
    mismatched: set[str] = field(default_factory=set)  # keys with a wrong output
    first_output: dict = field(default_factory=dict)  # train-eval report
    calibrator: Calibrator = field(default_factory=Calibrator)

    @property
    def attempted(self) -> int:
        """Inputs run; their repetitions are timing samples, not operations."""
        return len(self.outputs())

    @property
    def failed(self) -> int:
        return len(self.errors_by_key().keys() | self.mismatched)

    def errors_by_key(self) -> dict[str, str]:
        """First exception type raised by each input that raised."""
        first: dict[str, str] = {}
        for op in self.ops:
            if op.error is not None:
                first.setdefault(op.key, op.error)
        return first

    def errors(self) -> Counter:
        """Inputs that raised, by exception type."""
        return Counter(self.errors_by_key().values())

    def latencies_ns(self) -> dict[str, list[int]]:
        """Successful repetitions' latencies per key, in first-seen order."""
        per_key: dict[str, list[int]] = {}
        for op in self.ops:
            if op.error is None:
                per_key.setdefault(op.key, []).append(op.ns)
        return per_key

    def typical_ns(self) -> dict[str, float]:
        """Median of each key's successful repetitions, scaled to the
        reference host speed."""
        per_key: dict[str, list[float]] = {}
        for op in self.ops:
            if op.error is None:
                per_key.setdefault(op.key, []).append(
                    op.ns * self.calibrator.scale(op.cal))
        return {key: float(np.median(ns)) for key, ns in per_key.items()}

    def outputs(self) -> dict[str, str | None]:
        """Output of each key's first repetition."""
        first: dict[str, str | None] = {}
        for op in self.ops:
            first.setdefault(op.key, op.output)
        return first


class Capture:
    """Outputs captured from inside `detect` for the oracle checks, keyed by
    the transaction being labelled."""

    def __init__(self) -> None:
        self.tx = ""
        self.census: dict[str, tuple] = {}
        self.features: dict[str, np.ndarray] = {}

    def hooks(self) -> dict:
        def on_census(args, result):
            self.census.setdefault(self.tx, (args[0], tuple(result.counts)))

        def on_features(args, result):
            self.features.setdefault(self.tx, result.values)
        return {("bridgeguard.motifs", "local_feature"): on_census,
                ("bridgeguard.classify", "concat_features"): on_features}


# --- set-up ------------------------------------------------------------------


@dataclass
class Setup:
    items: list[tuple[Path, str]]  # (trace file, tx hash) in timed order
    bundle: object = None
    labels: list[str] = field(default_factory=list)
    manifest: Path | None = None


def heldout_split(labels: list[str], cfg: RunConfig) -> tuple[list[int], list[int]]:
    """The (train, test) indices `train_detector` uses for this corpus."""
    shells = [classify.LabeledSample(tx_hash=str(i), features=None, label=label)
              for i, label in enumerate(labels)]
    train, test = classify.split_dataset(shells, ratio=cfg.split_ratio, seed=cfg.seed)
    return [int(s.tx_hash) for s in train], [int(s.tx_hash) for s in test]


def write_corpus(seed: int, out: Path, n_normal: int = CORPUS_N_NORMAL,
                 attack_rate: float = CORPUS_ATTACK_RATE):
    gen_cfg = synthgen.GenConfig(n_normal=n_normal, attack_rate=attack_rate, seed=seed)
    samples, manifest = synthgen.gen_dataset(gen_cfg)
    manifest_path = synthgen.write_corpus(samples, manifest, out, gen_cfg)
    return samples, manifest_path


def setup_heldout(seed: int, work: Path) -> Setup:
    samples, _ = write_corpus(seed, work / "corpus")
    records = [s.record for s in samples]
    labels = [s.label for s in samples]
    cfg = RunConfig()
    bundle, _ = pipeline.train_detector(records, labels, cfg)
    _, test_idx = heldout_split(labels, cfg)
    items = [(work / "corpus" / "traces" / f"{records[i].tx_hash}.json",
              records[i].tx_hash) for i in test_idx]
    return Setup(items=items, bundle=bundle)


def setup_large(seed: int, work: Path) -> Setup:
    detector = setup_heldout(seed, work)
    out = work / "large"
    out.mkdir(parents=True, exist_ok=True)
    items = []
    for _, _, doc in largegen.large_corpus(seed):
        path = out / f"{doc['tx_hash']}.json"
        path.write_text(largegen.dumps(doc))
        items.append((path, doc["tx_hash"]))
    return Setup(items=[items[i] for i in spread_order(len(items))],
                 bundle=detector.bundle)


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix spans the whole size range,
    so the partial pass at the deadline does not favour small graphs."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def setup_train_eval(seed: int, work: Path) -> Setup:
    samples, manifest_path = write_corpus(seed, work / "corpus", EVAL_N_NORMAL,
                                          EVAL_ATTACK_RATE)
    return Setup(items=[], labels=[s.label for s in samples], manifest=manifest_path)


SETUPS = {"heldout": setup_heldout, "large": setup_large, "train-eval": setup_train_eval}


def run_setup(workload: str, seed: int, work: Path) -> tuple[Setup, list[float], list[float]]:
    """Set up SETUP_REPEATS times in fresh directories; keep the last.
    Returns it with each set-up's seconds, scaled to the reference host
    speed and as measured."""
    scaled, raw = [], []
    setup = None
    for k in range(SETUP_REPEATS[workload]):
        target = work / f"setup-{k}"
        calibrator = Calibrator()
        t0 = time.perf_counter()
        with sampled(calibrator) as marks:
            setup = SETUPS[workload](seed, target)
        raw.append(time.perf_counter() - t0)
        scaled.append(scaled_seconds(calibrator, marks))
        if k:
            shutil.rmtree(work / f"setup-{k - 1}")
    return setup, scaled, raw


# --- timed phases --------------------------------------------------------------


def label_file(path: Path, bundle) -> str:
    """One transaction from trace-file bytes to label."""
    record = ingest.load_trace_file(path)
    return pipeline.detect(bundle, [record])[0]["label"]


def eval_protocol(manifest_path: Path) -> tuple[dict, list[str]]:
    """Manifest -> metrics dict, loading files like `bridgeguard evaluate`."""
    manifest = ingest.load_manifest(manifest_path)
    records, labels = [], []
    for entry in manifest.entries:
        source = Path(entry.source)
        if not source.is_absolute():
            source = manifest_path.parent / source
        records.append(ingest.load_trace_file(source, chain_id=entry.chain_id))
        labels.append(entry.label)
    out = pipeline.repeated_pipeline_eval(records, labels, RunConfig(runs=1),
                                          classifiers=EVAL_CLASSIFIERS)
    return out, labels


def timed_phase(workload: str, setup: Setup, seconds: float,
                tracer: Tracer | None, hooks: dict, capture: Capture) -> Phase:
    """Cycle through the inputs until every one has run once and `seconds`
    have passed; the operation under way at the deadline completes."""
    if workload == "train-eval":
        items = [("protocol", setup.manifest)]
    else:
        items = [(tx, path) for path, tx in setup.items]
    phase = Phase()
    clock = time.perf_counter_ns
    calibrator = phase.calibrator
    with instrument(tracer, hooks):
        start = clock()
        deadline = start + int(seconds * 1e9)
        cal, cal_at = calibrator.sample(), clock()
        i = 0
        while i < len(items) or clock() < deadline:
            if clock() - cal_at >= CAL_EVERY_NS:
                cal, cal_at = calibrator.sample(), clock()
            key, source = items[i % len(items)]
            i += 1
            capture.tx = key
            if tracer is not None:
                tracer.txid = f"{key}#{i}"
            t0 = clock()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        result = _run_op(workload, source, setup)
                else:
                    result = _run_op(workload, source, setup)
            except Exception as exc:  # one operation's failure ends only it
                phase.ops.append(Op(key, None, clock() - t0, type(exc).__name__, cal))
                continue
            ns = clock() - t0
            if workload == "train-eval":
                out, labels = result
                phase.first_output.setdefault("report", (out, labels))
                result = checks.metrics_digest(out)
            phase.ops.append(Op(key, result, ns, cal=cal))
        calibrator.sample()
        phase.elapsed_ns = clock() - start
    return phase


def _run_op(workload: str, source: Path, setup: Setup):
    if workload == "train-eval":
        return eval_protocol(source)
    return label_file(source, setup.bundle)


# --- checks ------------------------------------------------------------------


def check_phase(workload: str, setup: Setup, phase: Phase, capture: Capture,
                reference: dict | None) -> None:
    """Record problems and count the operations whose output is wrong."""
    first = phase.outputs()
    bad: set[str] = set()
    for op in phase.ops:
        if op.error is None and op.output != first[op.key]:
            bad.add(op.key)
            phase.problems.append(f"{op.key}: output {op.output!r} on one repetition, "
                                  f"{first[op.key]!r} on the first")
    if workload == "train-eval":
        bad |= _check_eval(phase, reference)
    else:
        bad |= _check_detect(setup, phase, capture, reference, first)
    phase.mismatched = bad


def _check_detect(setup: Setup, phase: Phase, capture: Capture,
                  reference: dict | None, first: dict) -> set[str]:
    bad: set[str] = set()
    if reference is not None:
        run_keys = {checks.reference_key(tx) for tx in first}
        missing = set(reference["labels"]) - run_keys
        if missing:
            phase.problems.append(f"{len(missing)} pinned transactions are not in "
                                  f"this run, e.g. {sorted(missing)[0]}")
        matched = 0
        for tx, label in first.items():
            pinned = reference["labels"].get(checks.reference_key(tx))
            if pinned is None:
                continue
            matched += 1
            if pinned != label:
                bad.add(tx)
                phase.problems.append(f"{tx}: label {label!r}, reference {pinned!r}")
        if not matched:
            phase.problems.append("no transaction of this run is in the pinned reference")
    model = setup.bundle.classifier
    has_knn = all(hasattr(model, a) for a in ("standardizer", "x", "y", "k"))
    if not has_knn:
        phase.problems.append("classifier exposes no KNN training matrix")
    for tx, label in first.items():
        if label is None:
            continue
        problems = []
        values = capture.features.get(tx)
        if values is None:
            problems.append("no feature vector captured")
        elif has_knn:
            oracle = checks.knn_oracle(model, values)
            if oracle != label:
                problems.append(f"label {label!r} != exhaustive KNN {oracle!r}")
        if tx in capture.census:
            graph, counts = capture.census[tx]
            n, arcs = len(graph.vertices), checks.simple_arcs(graph)
            problems += checks.census_problems(n, len(arcs), counts)
            if n <= 64 and checks.bruteforce_census(n, arcs) != counts:
                problems.append("census != brute-force census")
        else:
            problems.append("no census captured")
        if problems:
            bad.add(tx)
            phase.problems += [f"{tx}: {p}" for p in problems]
    return bad


def _check_eval(phase: Phase, reference: dict | None) -> set[str]:
    problems = []
    digest = phase.outputs().get("protocol")
    if reference is not None and digest is not None \
            and digest != reference["metrics_digest"]:
        problems.append(f"metrics digest {digest} != reference {reference['metrics_digest']}")
    if "report" in phase.first_output:
        out, labels = phase.first_output["report"]
        problems += checks.eval_report_problems(out, EVAL_CLASSIFIERS, labels,
                                                RunConfig().split_ratio)
    phase.problems += problems
    return {"protocol"} if problems else set()


# --- metrics -------------------------------------------------------------------


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, setup: Setup, phase: Phase,
               setup_times: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the report)."""
    typical_ms = [ns / 1e6 for ns in phase.typical_ns().values()]
    per_input = len(setup.labels) if workload == "train-eval" else 1
    done = per_input * sum(op.error is None for op in phase.ops)
    pooled_ms = [ns / 1e6 for per_key in phase.latencies_ns().values() for ns in per_key]
    tail_p = TAIL_PERCENTILE[workload]
    scales = [REFERENCE_NS / ns for ns in phase.calibrator.samples]
    nan = float("nan")
    tail, beyond = percentile(typical_ms, tail_p) if typical_ms else (nan, 0)
    metrics = {
        "tx_per_s": (per_input * len(typical_ms) / (sum(typical_ms) / 1e3)
                     if typical_ms else nan, "1/s"),
        "latency_p50_ms": (float(np.median(typical_ms)) if typical_ms else nan, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (float(np.median(setup_times)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "wall_s": sum(typical_ms) / 1e3,
        "speed_scale": "{:.2f}..{:.2f}, median {:.2f}".format(
            min(scales), max(scales), float(np.median(scales))),
        "failed_frac": phase.failed / max(phase.attempted, 1),
        "phase_tx_per_s": done / (phase.elapsed_ns / 1e9),
        "phase_p50_ms": float(np.median(pooled_ms)) if pooled_ms else nan,
        "tail_percentile": tail_p,
        "samples": len(typical_ms),
        "samples_beyond_tail": beyond,
        "repetitions": len(phase.ops) / max(phase.attempted, 1),
        "errors": dict(phase.errors()),
    }
    return metrics, extra


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
