"""Command-line surface: ingest, synth, train, evaluate, detect, bench.

Exit codes: 0 success, 1 fatal error (one `error:` line on stderr), 2 some
inputs failed to load or process (listed on stderr, the rest processed). All
artifacts embed the resolved configuration and its hash.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import click

from . import __version__
from .bench import MIN_CORPUS, format_bench_table, run_bench
from .classify import CLASSIFIERS
from .config import RunConfig, resolve_config
from .errors import BridgeGuardError
from .hashing import canonical_json
from .ingest import (
    _HEX_VALUE,
    TxRecord,
    flatten_frames,
    load_corpus,
    load_trace_file,
    record_to_document,
    write_json,
)
from .pipeline import (
    detect,
    load_bundle,
    repeated_pipeline_eval,
    save_bundle,
    train_detector,
)
from .rpc import RpcClient
from .synthgen import GenConfig, gen_config_hash, gen_dataset, write_corpus
from .xteg import build_xteg, dump_xteg


def _guarded(command):
    """Report a BridgeGuardError or OSError that ends `command` as one
    `error:` line on stderr, with exit code 1."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (BridgeGuardError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise click.exceptions.Exit(1) from exc
    return run


def _emit(payload: dict, fmt: str, table: str) -> None:
    click.echo(canonical_json(payload) if fmt == "json" else table)


def _each_input(inputs, cfg: RunConfig, work) -> list[tuple[str, str]]:
    """Load each input and pass its record to `work`; a failure in either ends
    only that input and is returned. An input is a tx hash, fetched over RPC,
    when it is 0x and 64 hex digits and no such path exists; any other input
    is a file path."""
    failures: list[tuple[str, str]] = []
    client = None
    for item in inputs:
        try:
            if _HEX_VALUE[32](item) and not Path(item).exists():
                if not cfg.rpc_url:
                    raise BridgeGuardError("tx-hash input requires --rpc-url "
                                           "or BRIDGEGUARD_RPC_URL")
                if client is None:
                    client = RpcClient(cfg.rpc_url, cache_dir=cfg.cache_dir)
                work(client.fetch_tx_record(item))
            else:
                work(load_trace_file(item))
        except (BridgeGuardError, OSError) as exc:
            failures.append((item, str(exc)))
    return failures


def _report(rows: list[dict], failures: list[tuple[str, str]], config_hash: str,
            fmt: str, table: str, out_file=None) -> None:
    """Emit a batch command's rows and failures (and write them to `out_file`),
    list the failed inputs on stderr, and exit 2 if there are any."""
    payload = {"rows": rows, "failures": [list(f) for f in failures],
               "config_hash": config_hash}
    if out_file:
        write_json(out_file, payload)
    _emit(payload, fmt, table)
    for item, message in failures:
        click.echo(f"failed: {item}: {message}", err=True)
    if failures:
        raise click.exceptions.Exit(2)


@click.group()
@click.version_option(version=__version__, prog_name="bridgeguard")
def main() -> None:
    """Cross-chain bridge attack transaction detection toolkit."""


@main.command()
@click.argument("inputs", nargs=-1, required=False)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--rpc-url", default=None, help="Ethereum-style RPC endpoint.")
@click.option("--cache-dir", default=None, help="RPC response cache directory.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Write normalized trace documents here.")
@click.option("--dump-graph", is_flag=True, help="Print the execution graph dump.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def ingest(inputs, config_file, rpc_url, cache_dir, out_dir, dump_graph, fmt):
    """Normalize traces from files or tx hashes; optionally dump graphs."""
    cfg = resolve_config(config_file, rpc_url=rpc_url, cache_dir=cache_dir)
    rows = []

    def summarize(record: TxRecord) -> None:
        graph = build_xteg(record)
        if out_dir:
            write_json(Path(out_dir) / f"{record.tx_hash}.json", record_to_document(record))
        rows.append({
            "tx_hash": record.tx_hash,
            "chain_id": record.chain_id,
            "frames": len(flatten_frames(record)),
            "logs": len(record.logs),
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
        })
        if dump_graph:
            click.echo(dump_xteg(graph))

    failures = _each_input(inputs, cfg, summarize)
    table = "\n".join(
        f"{r['tx_hash']}  frames={r['frames']} logs={r['logs']} "
        f"vertices={r['vertices']} edges={r['edges']}" for r in rows)
    _report(rows, failures, cfg.config_hash(), fmt, table)


@main.command()
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--n-normal", type=int, default=GenConfig.n_normal, show_default=True)
@click.option("--attack-rate", type=float, default=GenConfig.attack_rate, show_default=True)
@click.option("--src-tgt-ratio", type=float, default=GenConfig.src_tgt_ratio,
              show_default=True)
@click.option("--noise-prob", type=float, default=GenConfig.noise[0], show_default=True)
@click.option("--depth-jitter", type=int, default=GenConfig.noise[1], show_default=True)
@click.option("--seed", type=int, default=GenConfig.seed, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def synth(out_dir, n_normal, attack_rate, src_tgt_ratio, noise_prob,
          depth_jitter, seed, fmt):
    """Generate a labeled synthetic corpus on disk."""
    gen_cfg = GenConfig(n_normal=n_normal, attack_rate=attack_rate,
                        src_tgt_ratio=src_tgt_ratio,
                        noise=(noise_prob, depth_jitter), seed=seed)
    samples, manifest = gen_dataset(gen_cfg)
    manifest_path = write_corpus(samples, manifest, out_dir, gen_cfg)
    counts: dict[str, int] = {}
    for tx in samples:
        counts[tx.label] = counts.get(tx.label, 0) + 1
    payload = {"manifest": str(manifest_path), "total": len(samples),
               "counts": counts, "config_hash": gen_config_hash(gen_cfg)}
    _emit(payload, fmt,
          f"wrote {len(samples)} transactions ({counts}) -> {manifest_path}")


@main.command()
@click.option("--manifest", "manifest_file", type=click.Path(exists=True), required=True)
@click.option("--model-dir", type=click.Path(), required=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--classifier", type=click.Choice(CLASSIFIERS), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def train(manifest_file, model_dir, config_file, classifier, seed, fmt):
    """Split, featurize, fit a detector; write the model bundle + metrics."""
    cfg = resolve_config(config_file, classifier=classifier, seed=seed)
    records, labels = load_corpus(manifest_file)
    bundle, metrics = train_detector(records, labels, cfg)
    save_bundle(bundle, model_dir)
    payload = {"metrics": metrics, "config": cfg.to_dict(),
               "config_hash": cfg.config_hash(), "model_dir": str(model_dir)}
    write_json(Path(model_dir) / "metrics.json", payload)
    _emit(payload, fmt, _metrics_table(metrics) + f"\nmodel bundle -> {model_dir}")


def _metrics_table(report: dict) -> str:
    lines = [f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}"]
    for cls in report["classes"]:
        m = report["per_class"][cls]
        lines.append(f"{cls:<10} {m['precision']:>9.4f} {m['recall']:>9.4f} "
                     f"{m['f1']:>9.4f} {m['support']:>8.0f}")
    lines.append(f"accuracy {report['accuracy']:.4f}  macro-F1 {report['macro_f1']:.4f}")
    return "\n".join(lines)


@main.command()
@click.option("--manifest", "manifest_file", type=click.Path(exists=True), required=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--classifier", "classifiers", type=click.Choice(CLASSIFIERS),
              multiple=True, help="Repeatable; defaults to the configured classifier.")
@click.option("--runs", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_file", type=click.Path(), default=None,
              help="Write the metrics JSON here.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def evaluate(manifest_file, config_file, classifiers, runs, seed, out_file, fmt):
    """Repeated split/train/eval protocol; mean and std of all metrics."""
    cfg = resolve_config(config_file, runs=runs, seed=seed)
    kinds = tuple(classifiers) or (cfg.classifier,)
    records, labels = load_corpus(manifest_file)
    report = repeated_pipeline_eval(records, labels, cfg, classifiers=kinds)
    payload = {"report": report, "config": cfg.to_dict(),
               "config_hash": cfg.config_hash()}
    if out_file:
        write_json(out_file, payload)
    tables = []
    for kind in dict.fromkeys(kinds):
        mean = report[kind]["mean"]
        tables.append(f"[{kind}] mean over {report['runs']} runs\n"
                      + _metrics_table(mean))
        binary = mean["binary"]["per_class"]["Attack"]
        tables.append(f"[{kind}] attack (binary): precision {binary['precision']:.4f} "
                      f"recall {binary['recall']:.4f} f1 {binary['f1']:.4f}")
    _emit(payload, fmt, "\n".join(tables))


@main.command()
@click.argument("inputs", nargs=-1, required=False)
@click.option("--model-dir", type=click.Path(exists=True), required=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--rpc-url", default=None)
@click.option("--cache-dir", default=None)
@click.option("--out", "out_file", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def detect_cmd(inputs, model_dir, config_file, rpc_url, cache_dir, out_file, fmt):
    """Label transactions with a trained detector."""
    cfg = resolve_config(config_file, rpc_url=rpc_url, cache_dir=cache_dir)
    bundle = load_bundle(model_dir)
    rows: list[dict] = []
    failures = _each_input(inputs, cfg,
                           lambda record: rows.extend(detect(bundle, [record])))
    table = "\n".join(f"{row['tx_hash']}  {row['label']}  {json.dumps(row['scores'])}"
                      for row in rows) or "(no inputs)"
    _report(rows, failures, bundle.config.config_hash(), fmt, table, out_file)


@main.command()
@click.option("--manifest", "manifest_file", type=click.Path(exists=True), required=True)
@click.option("--model-dir", type=click.Path(exists=True), required=True)
@click.option("--limit", type=click.IntRange(min=1), default=None,
              help=f"Bench only the first N transactions; bench needs at least "
                   f"{MIN_CORPUS}.")
@click.option("--out", "out_file", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_guarded
def bench(manifest_file, model_dir, limit, out_file, fmt):
    """Per-stage timing and TPS over a corpus (single worker)."""
    bundle = load_bundle(model_dir)
    records, _ = load_corpus(manifest_file)
    records = records[:limit]
    report = run_bench(records, bundle)
    payload = report.to_dict()
    if out_file:
        write_json(out_file, payload)
    _emit(payload, fmt, format_bench_table(report))


main.add_command(detect_cmd, name="detect")

if __name__ == "__main__":
    main()
