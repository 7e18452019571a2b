"""bridgeguard benchmark: held-out detection, large graphs, evaluation protocol.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload heldout --seed 2024 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

`--trace 0` measures the end-to-end metrics with nothing wrapped but the two
output captures the checks need. `--trace 1` runs the same timed phase
untraced and then traced, checks that both give the same labels, reports
the per-layer metrics and the tracing overhead, and writes the spans to
`.perfbench/spans/`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when every
output check passed, 1 when one failed and 2 when the benchmark could not
run (for example, when `src/bridgeguard` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("heldout", "large", "train-eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="pin this seed's outputs under perfbench/reference/")
    return parser.parse_args(argv)


def import_program() -> str | None:
    """Import bridgeguard from this checkout's src/; an error message if absent."""
    src = ROOT / "src"
    if not (src / "bridgeguard" / "__init__.py").is_file():
        return f"no program source at {src / 'bridgeguard'}"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    try:
        import bridgeguard
    except ImportError as exc:
        return f"cannot import bridgeguard: {exc}"
    if Path(bridgeguard.__file__).resolve().parent != (src / "bridgeguard").resolve():
        return f"bridgeguard imported from {bridgeguard.__file__}, not from {src}"
    return None


def git_commit() -> str:
    """HEAD of this checkout; "unknown" when it is not a git working tree."""
    if not (ROOT / ".git").exists():  # do not pick up an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_context(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the build-info layout differs between numpy versions
        pass
    threads = {var: os.environ.get(var) for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": threads,
        "commit": git_commit(),
        "clients": 1,
        "loop": "closed",
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_problems(workload: str, problems: list[str]) -> None:
    if not problems:
        return
    print(f"perfbench {workload}: OUTPUT CHECK FAILED ({len(problems)} problems)",
          file=sys.stderr)
    for problem in problems[:20]:
        print(f"  {problem}", file=sys.stderr)


def run_workload(args) -> int:
    import numpy as np

    from perfbench import checks, perlayer
    from perfbench import workloads as wl
    from perfbench.tracer import Tracer, instrument

    name, seed = args.workload, args.seed
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    print(f"perfbench {name}: seed {seed}, {args.seconds:g} s, trace {args.trace}")
    print("context " + json.dumps(run_context(args), sort_keys=True))
    try:
        tracer = Tracer(txid=perlayer.SETUP_TX) if args.trace else None
        setup_counts = perlayer.LayerCounts()
        with instrument(tracer, setup_counts.hooks() if tracer else {}):
            setup, setup_times, setup_raw = wl.run_setup(name, seed, work)
        reference = None if args.record_reference else checks.load_reference(name, seed)

        def timed(run_tracer, capture, hooks):
            phase = wl.timed_phase(name, setup, args.seconds, run_tracer, hooks, capture)
            wl.check_phase(name, setup, phase, capture, reference)
            return phase

        capture = wl.Capture()
        phase = timed(None, capture, capture.hooks() if name != "train-eval" else {})
        problems = list(phase.problems)
        attempted, failed = phase.attempted, phase.failed

        if args.trace:
            traced_capture, timed_counts = wl.Capture(), perlayer.LayerCounts()
            hooks = timed_counts.hooks()
            if name != "train-eval":
                hooks = perlayer.merge_hooks(traced_capture.hooks(), hooks)
            traced = timed(tracer, traced_capture, hooks)
            problems += [f"traced: {p}" for p in traced.problems]
            untraced_out, traced_out = phase.outputs(), traced.outputs()
            if any(untraced_out.get(key, out) != out for key, out in traced_out.items()):
                problems.append("traced run's outputs differ from the untraced run's")
            attempted += traced.attempted
            failed += traced.failed
            typ_u, typ_t = phase.typical_ns(), traced.typical_ns()
            common = [key for key in typ_t if key in typ_u]
            overhead = (sum(typ_t[k] for k in common)
                        / max(sum(typ_u[k] for k in common), 1) - 1.0)
            op_scale = {f"{op.key}#{n}": traced.calibrator.scale(op.cal)
                        for n, op in enumerate(traced.ops, 1)}
            metrics, by_layer = perlayer.layer_metrics(
                tracer, setup_counts, timed_counts, len(traced.ops), overhead, op_scale)
            spans_dir = ROOT / ".perfbench" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{name}-{seed}.jsonl")
            print(f"tracing overhead: {overhead:+.1%} over {len(common)} inputs, "
                  f"median scaled repetition of each, traced vs. untraced")
            if name != "train-eval":
                print("per-stage self time vs. the paper (comparison only):")
                for line in perlayer.paper_table(by_layer):
                    print("  " + line)
        else:
            metrics, extra = wl.end_to_end(name, setup, phase, setup_times)
            print(f"failed_frac {extra['failed_frac']:.4f} "
                  f"({failed} of {attempted} inputs; errors {extra['errors']})")
            print(f"wall_s {extra['wall_s']:.4f} s for one pass over the inputs")
            print(f"latencies are each input's median of {extra['repetitions']:.2f} "
                  f"repetitions on average, scaled to the reference host speed by "
                  f"{extra['speed_scale']}; latency_tail_ms is p{extra['tail_percentile']:g} "
                  f"of the {extra['samples']} inputs, {extra['samples_beyond_tail']} "
                  f"beyond")
            print("set-up seconds, scaled: " + ", ".join(f"{t:.3f}" for t in setup_times)
                  + "; unscaled: " + ", ".join(f"{t:.3f}" for t in setup_raw))
            print(f"unscaled, whole phase: {extra['phase_tx_per_s']:.4f} tx/s, "
                  f"p50 {extra['phase_p50_ms']:.4f} ms")

        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<26} {value:>14.6g} {unit}")
        print(f"pinned reference for seed {seed}: "
              f"{'checked' if reference else 'none, oracles only'}")
        print_problems(name, problems)

        if args.record_reference and not problems:
            outputs = phase.outputs()
            if name == "train-eval":
                payload = {"metrics_digest": outputs["protocol"]}
            else:
                payload = {"labels": {checks.reference_key(tx): label
                                      for tx, label in outputs.items() if label}}
            path = checks.save_reference(name, seed, dict(payload, workload=name, seed=seed))
            print(f"reference written to {path}")

        correct = not problems
        print(result_line(correct, attempted, failed, metrics))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
