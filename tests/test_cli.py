import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import bridgeguard
from bridgeguard import cli
from bridgeguard.cli import main
from bridgeguard.hashing import canonical_json
from bridgeguard.ingest import load_manifest, record_from_document
from conftest import rewrite_model


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """Small corpus + trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    result = runner.invoke(main, [
        "synth", "--out", str(corpus), "--n-normal", "120", "--attack-rate", "0.1",
        "--noise-prob", "0.4", "--seed", "77",
    ])
    assert result.exit_code == 0, result.output

    config = root / "config.json"
    config.write_text(json.dumps({"epochs": 25, "runs": 2, "seed": 5}))

    model_dir = root / "model"
    result = runner.invoke(main, [
        "train", "--manifest", str(corpus / "manifest.jsonl"),
        "--model-dir", str(model_dir), "--config", str(config),
    ])
    assert result.exit_code == 0, result.output
    return {"root": root, "corpus": corpus, "config": config, "model": model_dir}


def test_synth_wrote_reproducible_corpus(workspace):
    corpus = workspace["corpus"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    labels = [e.label for e in manifest.entries]
    assert len(labels) == 132
    assert labels.count("AttackSrc") == 6 and labels.count("AttackTgt") == 6
    assert (corpus / "gen_config.json").exists()
    assert all((corpus / e.source).exists() for e in manifest.entries)


def test_train_wrote_bundle_and_metrics(workspace):
    model_dir = workspace["model"]
    assert sorted(path.name for path in model_dir.iterdir()) == [
        "bundle.json", "metrics.json", "model.npz"]
    metrics = json.loads((model_dir / "metrics.json").read_text())
    assert "config_hash" in metrics and "config" in metrics
    rows = metrics["metrics"]["per_class"]
    assert set(rows) == {"Normal", "AttackSrc", "AttackTgt"}
    assert metrics["metrics"]["binary"]["classes"] == ["Normal", "Attack"]


def test_detect_labels_attack_trace(workspace, runner):
    corpus, model_dir = workspace["corpus"], workspace["model"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    attack_entry = next(e for e in manifest.entries if e.label == "AttackTgt")
    result = runner.invoke(main, [
        "detect", str(corpus / attack_entry.source),
        "--model-dir", str(model_dir), "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["rows"][0]["label"] == "AttackTgt"
    assert payload["rows"][0]["scores"]


def test_detect_empty_input_succeeds(workspace, runner):
    result = runner.invoke(main, ["detect", "--model-dir", str(workspace["model"]),
                                  "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["rows"] == []


def test_detect_partial_failure_exit_code_2(workspace, runner, tmp_path):
    corpus, model_dir = workspace["corpus"], workspace["model"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    good = corpus / manifest.entries[0].source
    bad = tmp_path / "corrupt.json"
    bad.write_text("{broken")
    result = runner.invoke(main, [
        "detect", str(good), str(bad),
        "--model-dir", str(model_dir), "--format", "json",
    ])
    assert result.exit_code == 2
    payload = json.loads(result.output.split("failed:")[0])
    assert len(payload["rows"]) == 1  # the good input was still processed
    assert len(payload["failures"]) == 1


A = "0x" + "aa" * 20
B = "0x" + "bb" * 20
C = "0x" + "cc" * 20


def _deep_chain_text(depth: int) -> str:
    """A ping-pong reentrancy chain `depth` frames deep, like the deep
    documents of perfbench's `large` workload, built as text because
    json.dumps recurses once per nesting level."""
    frame = '{"type":"CALL","from":"%s","to":"%s","input":"0x","calls":['
    links = [frame % ((B, C) if d % 2 else (C, B)) for d in range(1, depth)]
    return ('{"trace":' + frame % (A, B) + "".join(links) + "]}" * depth
            + ',"logs":[]}')


@pytest.fixture
def hostile_inputs(workspace, tmp_path):
    """A good trace, then three that fail: a root self-send (a one-vertex
    graph), a file that is not UTF-8, and a call chain at the EVM depth limit."""
    corpus = workspace["corpus"]
    good = corpus / load_manifest(corpus / "manifest.jsonl").entries[0].source
    self_send = tmp_path / "self_send.json"
    self_send.write_text(json.dumps({"trace": {"type": "CALL", "from": A, "to": A,
                                               "input": "0x"}, "logs": []}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"trace": "\xff"}')
    deep = tmp_path / "deep.json"
    deep.write_text(_deep_chain_text(1024))
    return [str(p) for p in (good, self_send, latin1, deep)]


@pytest.mark.parametrize("command", [["ingest"], ["detect", "--model-dir"]])
def test_failing_inputs_end_only_themselves(workspace, runner, hostile_inputs, command):
    if command[0] == "detect":
        command = command + [str(workspace["model"])]
    result = runner.invoke(main, command + hostile_inputs + ["--format", "json"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert "Traceback" not in result.output
    payload = json.loads(result.output.split("failed:")[0])
    assert len(payload["rows"]) == 1
    assert [item for item, _ in payload["failures"]] == hostile_inputs[1:]
    assert result.output.count("failed: ") == 3


def test_ingest_out_fails_only_the_record_too_deep_to_write(workspace, runner, tmp_path,
                                                           monkeypatch):
    """A record the parser accepts but the JSON encoder cannot nest (a chain
    at the EVM depth limit, built in memory since a file that deep does not
    decode) fails only its own input; the good one is still written."""
    corpus = workspace["corpus"]
    good = str(corpus / load_manifest(corpus / "manifest.jsonl").entries[0].source)
    deep = str(tmp_path / "deep.json")
    root = node = {"type": "CALL", "from": A, "to": B, "input": "0x"}
    for d in range(1, 1025):
        node["calls"] = [{"type": "CALL", "from": node["to"], "to": (B, C)[d % 2],
                          "input": "0x"}]
        node = node["calls"][0]
    deep_record = record_from_document({"trace": root, "logs": [],
                                        "tx_hash": "0x" + "dd" * 32})
    load = cli.load_trace_file
    monkeypatch.setattr(cli, "load_trace_file",
                        lambda path: deep_record if path == deep else load(path))
    out = tmp_path / "out"
    result = runner.invoke(main, ["ingest", good, deep, "--out", str(out),
                                  "--format", "json"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    payload = json.loads(result.output.split("failed:")[0])
    assert [item for item, _ in payload["failures"]] == [deep]
    assert "nests too deep to write" in payload["failures"][0][1]
    written = sorted(p.name for p in out.iterdir())
    assert written == [payload["rows"][0]["tx_hash"] + ".json"]


def test_detect_malformed_hash_fails_that_input_without_a_request(
        workspace, runner, monkeypatch):
    posts = []

    class Session:
        def post(self, *args, **kwargs):
            posts.append(args)
            raise AssertionError("no request for a malformed hash")

    monkeypatch.setitem(sys.modules, "requests", SimpleNamespace(Session=Session))
    attack = next(e for e in load_manifest(workspace["corpus"] / "manifest.jsonl").entries
                  if e.label != "Normal")
    result = runner.invoke(main, [
        "detect", "0xabc", str(workspace["corpus"] / attack.source),
        "--model-dir", str(workspace["model"]), "--rpc-url", "http://node",
        "--format", "json",
    ])
    assert result.exit_code == 2, result.output
    assert posts == []
    # Not 0x and 64 hex digits, so a path, and a missing one.
    assert "failed: 0xabc: [Errno 2] No such file or directory" in result.stderr
    assert len(json.loads(result.stdout)["rows"]) == 1


def test_only_a_missing_path_of_0x_and_64_hex_digits_is_a_tx_hash(
        workspace, runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = workspace["corpus"]
    good = corpus / load_manifest(corpus / "manifest.jsonl").entries[0].source
    tx_hash = "0x" + "Ab" * 32
    shutil.copy(good, tmp_path / ("0x" + "cd" * 32))  # a file of that shape is a path
    inputs = ["0xdeadbeef.json", good.name, tx_hash + "0", tx_hash, "0x" + "cd" * 32]
    result = runner.invoke(main, ["ingest", *inputs, "--format", "json"])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == 1
    assert payload["failures"] == [
        ["0xdeadbeef.json", "[Errno 2] No such file or directory: '0xdeadbeef.json'"],
        [good.name, f"[Errno 2] No such file or directory: '{good.name}'"],
        [tx_hash + "0", f"[Errno 2] No such file or directory: '{tx_hash}0'"],
        [tx_hash, "tx-hash input requires --rpc-url or BRIDGEGUARD_RPC_URL"],
    ]


def test_importing_the_cli_does_not_import_requests():
    # Only an RPC client that builds its own session imports requests.
    code = "import sys, bridgeguard.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(bridgeguard.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


@pytest.fixture(scope="module")
def dtree_model(workspace, runner):
    model_dir = workspace["root"] / "dtree-model"
    result = runner.invoke(main, [
        "train", "--manifest", str(workspace["corpus"] / "manifest.jsonl"),
        "--model-dir", str(model_dir), "--config", str(workspace["config"]),
        "--classifier", "dtree",
    ])
    assert result.exit_code == 0, result.output
    return model_dir


@pytest.mark.parametrize("classes", [
    np.array([0, 1, 2]),
    np.array(["Normal", "Normal", "AttackTgt"]),
], ids=["not-strings", "duplicate"])
def test_detect_with_tree_classes_that_are_not_distinct_strings_is_one_error_line(
        workspace, runner, dtree_model, tmp_path, classes):
    # A tree file whose classes held a list once ended detect in a traceback.
    model_dir = tmp_path / "model"
    shutil.copytree(dtree_model, model_dir)
    with np.load(model_dir / "model.npz") as data:
        assert data["classes"].tolist() == ["Normal", "AttackSrc", "AttackTgt"]
    rewrite_model(model_dir, classes=classes)
    entry = load_manifest(workspace["corpus"] / "manifest.jsonl").entries[0]
    result = runner.invoke(main, ["detect", str(workspace["corpus"] / entry.source),
                                  "--model-dir", str(model_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "model.npz" in lines[0] and "classes" in lines[0]


def test_detect_missing_model_is_fatal(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(main, ["detect", "--model-dir", str(empty)])
    assert result.exit_code == 1


def test_evaluate_writes_deterministic_metrics(workspace, runner, tmp_path):
    corpus, config = workspace["corpus"], workspace["config"]
    outputs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "evaluate", "--manifest", str(corpus / "manifest.jsonl"),
            "--config", str(config), "--classifier", "knn", "--classifier", "dtree",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]  # byte-identical across reruns
    payload = json.loads(outputs[0])
    assert set(payload["report"]["knn"]["mean"]["per_class"]) == {
        "Normal", "AttackSrc", "AttackTgt"}
    assert "dtree" in payload["report"]


def test_ingest_summarizes_and_dumps(workspace, runner):
    corpus = workspace["corpus"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    source = corpus / manifest.entries[0].source
    result = runner.invoke(main, ["ingest", str(source), "--dump-graph"])
    assert result.exit_code == 0, result.output
    assert "vertices=" in result.output
    assert "\ne 0 1 " in result.output  # edge list dump

    result = runner.invoke(main, ["ingest", str(source), "--format", "json"])
    rows = json.loads(result.output)["rows"]
    assert rows[0]["frames"] >= 1
    # --format json prints the text the JSON files hold: one format, one home.
    assert result.output == canonical_json(json.loads(result.output)) + "\n"


def test_ingest_partial_failure(runner, workspace, tmp_path):
    corpus = workspace["corpus"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    good = corpus / manifest.entries[0].source
    bad = tmp_path / "nope.json"
    result = runner.invoke(main, ["ingest", str(good), str(bad)])
    assert result.exit_code == 2
    assert "failed:" in result.output


def test_bench_reports_stages_and_tps(workspace, runner, tmp_path):
    corpus, model_dir = workspace["corpus"], workspace["model"]
    out = tmp_path / "bench.json"
    result = runner.invoke(main, [
        "bench", "--manifest", str(corpus / "manifest.jsonl"),
        "--model-dir", str(model_dir), "--out", str(out), "--format", "json",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert set(report["stage_ms"]) == {
        "xteg_construction", "global_mining", "local_mining", "classification"}
    assert report["tps"] > 0
    assert abs(sum(report["stage_ms"].values()) - report["total_ms"]) < 1e-9
    assert report["reference_total_ms"] == 15.212
    assert list(report["stage_p50_ms"]) == list(report["stage_p95_ms"]) == list(
        report["stage_p99_ms"]) == list(report["stage_ms"])
    for stage in report["stage_ms"]:
        assert (0 <= report["stage_p50_ms"][stage] <= report["stage_p95_ms"][stage]
                <= report["stage_p99_ms"][stage])
    assert report["nproc"] == os.cpu_count()
    assert report["peak_rss_mb"] > 1.0  # the interpreter and numpy alone hold more

    table = runner.invoke(main, [
        "bench", "--manifest", str(corpus / "manifest.jsonl"),
        "--model-dir", str(model_dir)])
    assert table.exit_code == 0, table.output
    header = table.output.splitlines()[0]
    assert (header.index("Avg. time") < header.index("p50 (ms)") < header.index("p95 (ms)")
            < header.index("p99 (ms)"))
    footer = table.output.splitlines()[-1]
    assert f"nproc {os.cpu_count()}," in footer and re.search(r"peak RSS \d+\.\d MB\)$", footer)


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_bench_limit_below_one_is_a_usage_error(workspace, runner, limit):
    result = runner.invoke(main, [
        "bench", "--manifest", str(workspace["corpus"] / "manifest.jsonl"),
        "--model-dir", str(workspace["model"]), "--limit", limit,
    ])
    assert result.exit_code == 2  # click's usage error, before any trace is read
    assert "--limit" in result.output and "x>=1" in result.output


def test_evaluate_repeated_classifier_is_printed_once(workspace, runner):
    result = runner.invoke(main, [
        "evaluate", "--manifest", str(workspace["corpus"] / "manifest.jsonl"),
        "--config", str(workspace["config"]), "--runs", "1",
        "--classifier", "knn", "--classifier", "knn",
    ])
    assert result.exit_code == 0, result.output
    assert result.output.count("[knn] mean over 1 runs") == 1


def test_bench_too_small_corpus_fails(workspace, runner, tmp_path):
    corpus, model_dir = workspace["corpus"], workspace["model"]
    manifest = load_manifest(corpus / "manifest.jsonl")
    small = tmp_path / "small"
    (small / "traces").mkdir(parents=True)
    lines = []
    for entry in manifest.entries[:10]:
        (small / entry.source).write_bytes((corpus / entry.source).read_bytes())
        lines.append(json.dumps({"source": entry.source, "label": entry.label,
                                 "chain_id": entry.chain_id}))
    (small / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "bench", "--manifest", str(small / "manifest.jsonl"),
        "--model-dir", str(model_dir),
    ])
    assert result.exit_code == 1
    assert result.output == "error: bench needs >= 100 transactions, got 10\n"

    # --limit cuts the 132-transaction corpus below the same minimum
    result = runner.invoke(main, [
        "bench", "--manifest", str(corpus / "manifest.jsonl"),
        "--model-dir", str(model_dir), "--limit", "50",
    ])
    assert result.exit_code == 1
    assert result.output == "error: bench needs >= 100 transactions, got 50\n"
    help_text = " ".join(runner.invoke(main, ["bench", "--help"]).output.split())
    assert "bench needs at least 100." in help_text


def test_bench_missing_trace_file_is_one_error_line(workspace, runner, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"source": "traces/missing.json", "label": "Normal",
                                    "chain_id": 1}) + "\n")
    result = runner.invoke(main, ["bench", "--manifest", str(manifest),
                                  "--model-dir", str(workspace["model"])])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "missing.json" in lines[0]


@pytest.mark.parametrize("content", [
    b'{"source": "a.json", "label": "Normal"}\n[1]\n',
    b'{"source": "a.json", "label": "Normal"}\n{"source": "b\xff.json"}\n',
    b'{"source": "a.json", "label": "Normal"}\n'
    b'{"source": "b.json", "label": "Normal", "chain_id": "zz"}\n',
], ids=["not-an-object", "not-utf8", "bad-chain-id"])
def test_bad_manifest_line_is_one_error_line_naming_it(runner, tmp_path, content):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(content)
    result = runner.invoke(main, ["train", "--manifest", str(manifest),
                                  "--model-dir", str(tmp_path / "model")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{manifest}:2:" in lines[0]


@pytest.mark.parametrize("settings, names", [
    ({"wl_iterations": 0}, "wl_iterations"),
    ({"negative": -1}, "negative"),
    ({"embedding_dim": 8}, "embedding_dim"),
    ({"epochs": -1}, "epochs"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"learning_rate": 10**400}, "learning_rate"),  # too large for a float
    ({"learning_rate": 1e300, "epochs": 3}, "diverged"),
], ids=["wl-iterations", "negative", "embedding-dim", "epochs", "nan-rate", "huge-int-rate",
        "diverges"])
def test_bad_training_setting_is_one_error_line(workspace, runner, tmp_path, settings, names):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    manifest = workspace["corpus"] / "manifest.jsonl"
    result = runner.invoke(main, ["train", "--manifest", str(manifest), "--model-dir",
                                  str(tmp_path / "model"), "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("command", [
    ["train", "--seed", "-1"],
    ["evaluate", "--seed", "-3", "--runs", "1"],
], ids=["train", "evaluate"])
def test_negative_seed_is_one_error_line(workspace, runner, tmp_path, command):
    manifest = workspace["corpus"] / "manifest.jsonl"
    if command[0] == "train":
        command = command + ["--model-dir", str(tmp_path / "model")]
    result = runner.invoke(main, command + ["--manifest", str(manifest)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "seed must be >= 0" in lines[0]
    assert not (tmp_path / "model").exists()


def test_synth_negative_seed_is_one_error_line(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "corpus"), "--n-normal",
                                  "4", "--attack-rate", "0.25", "--seed", "-1"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "seed must be an int >= 0, got -1" in lines[0]
    assert not (tmp_path / "corpus").exists()


def test_unknown_classifier_in_config_is_one_error_line_before_training(
        workspace, runner, tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "train_detector", lambda *args: trained.append(args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": "svm"}))
    manifest = workspace["corpus"] / "manifest.jsonl"
    result = runner.invoke(main, ["train", "--manifest", str(manifest), "--model-dir",
                                  str(tmp_path / "model"), "--config", str(config)])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "classifier must be one of knn, dtree" in lines[0]
    assert not trained and not (tmp_path / "model").exists()


def test_version_and_help(runner):
    assert runner.invoke(main, ["--version"]).exit_code == 0
    result = runner.invoke(main, ["--help"])
    for sub in ("ingest", "synth", "train", "evaluate", "detect", "bench"):
        assert sub in result.output
