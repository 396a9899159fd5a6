"""Benchmark of the pkisn log service, its monitors and its clients.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (flat-incremental or monitor-catchup) against
the log service in a child process, checks every answer, and prints the
figures as lines of text followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the same work runs with spans
recorded in both processes and the metrics are the per-layer ones, plus
the traced end-to-end figures (``traced.*``) for reading the tracing
overhead against an untraced run; the result lists exactly the metrics
BENCHMARK.json names for the mode. See perfbench/README.md.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNITS = {
    "setup_s": "s", "submit_p50_ms": "ms", "revoke_p50_ms": "ms",
    "update_p50_s": "s", "proof_p50_ms": "ms", "absence_p50_ms": "ms",
    "validate_p50_ms": "ms", "full_sync_entries_per_s": "1/s", "delta_apply_p50_ms": "ms",
    "recover_s": "s", "tcrl_check_p50_ms": "ms", "server_peak_rss_mb": "MB",
}


def environment() -> dict:
    import cryptography

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # a source tree outside git
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_sha": sha,
    }


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "pkisn" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'pkisn'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import report

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        result = harness.run(workload, args.seed, args.seconds, work, trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = result.checks
    e2e = harness.end_to_end(result)
    print(f"workload {args.workload} seed {args.seed} periods {result.periods} "
          f"environment {json.dumps(environment())}")
    for name, value in e2e.items():
        print(f"{'traced.' if args.trace else ''}{name} {value:.6g} {UNITS[name]}")
    print(f"failed_ops_ratio {checks.failed / max(1, checks.attempted):.6g} "
          f"({checks.failed} of {checks.attempted})")
    for message in checks.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"final signed root {result.final_root}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.per_layer(result).items()}
        for name, value in metrics.items():
            print(f"{name} {value['value']:.6g} {value['unit']}")
        metrics.update({f"traced.{k}": {"value": v, "unit": UNITS[k]} for k, v in e2e.items()})
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    # The result carries exactly the metrics BENCHMARK.json lists for the mode.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: metrics[m["name"]] for m in listed}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
