"""End-to-end benchmark of AutoHEnsGNN fitting and serving.

Run from the repository root::

    python3 perfbench/run.py --workload fit-dense --seed 0 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1`` runs
the same workload with span wrappers around each layer's public calls and
prints the per-layer metrics instead.  Human-readable lines and one detailed
JSON record come first; the last line of standard output is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.  Each invocation is
one fresh process with BLAS pinned to one thread.  Scratch files go under
``.perfbench_work/`` and trace files under ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from measure import pin_blas_threads  # noqa: E402

pin_blas_threads()

import measure  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(ledger, metrics) -> str:
    return json.dumps({"correct": ledger.correct, "attempted": max(ledger.attempted, 1),
                       "failed": ledger.failed, "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    from repro.graph.shm import shared_store_paths
    stores_before = set(shared_store_paths())

    started = time.perf_counter()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        outcome = run.execute()
    except Exception:
        traceback.print_exc()
        run.ledger.record_failure("run aborted", traceback.format_exc(limit=3))
        outcome = run.out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(set(shared_store_paths()) - stores_before)
    if leaked:
        run.ledger.record_failure("shared-memory stores left behind", str(leaked))
    stray = measure.worker_pids(os.getpid())
    if stray:
        run.ledger.record_failure("worker processes left running", str(stray))
        for pid in stray:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)

    if args.trace:
        units = {name: unit for name, unit, *_ in PER_LAYER}
        values = outcome.per_layer
    else:
        units = {name: unit for name, unit, _ in workloads.END_TO_END}
        values = outcome.end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    if len(metrics) < len(units):
        missing = sorted(set(units) - set(metrics))
        run.ledger.record_failure("metrics not measured", str(missing))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "environment": measure.environment(ROOT),
        "timings": outcome.timings, "facts": outcome.facts,
        "checks": run.ledger.checks, "failures": run.ledger.failures,
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  wall {record['wall_s']:.1f}s")
    for name, summary in outcome.timings.items():
        tail = (f"  p{summary['tail_percentile']:g} {summary['tail']:.4f}"
                if summary["tail_percentile"] is not None else "")
        print(f"  {name:28s} median {summary['median']:.4f}{tail}  n={summary['n']}")
    tally = {}
    for name, ok in run.ledger.checks:
        passed, total = tally.get(name, (0, 0))
        tally[name] = (passed + ok, total + 1)
    for name, (passed, total) in tally.items():
        print(f"  check {'ok  ' if passed == total else 'FAIL'} {name} ({passed}/{total})")
    if args.trace:
        targets = {name: target for name, _, _, target in PER_LAYER}
        print("  per-layer metric -> end-to-end metric it should move")
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:.6g} {entry['unit']:6s} -> {targets[name]}")
        print("  self time per span (s)")
        for name, seconds in sorted(outcome.self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {seconds:.4f}")
        record["self_times"] = outcome.self_times
        outdir = ROOT / ".perfbench_out"
        outdir.mkdir(exist_ok=True)
        trace_path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        if outcome.tracer is not None:
            outcome.tracer.write(str(trace_path), extra={"record": record})
            print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({"record": record}, default=str))
    print(result_line(run.ledger, metrics))
    return 0 if run.ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
