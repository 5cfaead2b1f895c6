"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a syzstab checkout; it imports the package from
``src/``.  One client, closed loop, single process.  A run repeats passes over
the workload's seeded batch until the next pass would end after ``--seconds``
(at least one pass), checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
BENCHMARK.json; with ``--trace 1`` the run alternates untraced and traced
passes and reports the ``per_layer`` metrics of the traced pass whose time is
the median.  Times are read on ``speed.RefClock``.  The line before the result
records the environment.  Spans and other scratch files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7


@dataclass
class Outcome:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    host_speed: float = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import syzstab and build the inputs; print the seconds taken")
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Import plus input generation, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "syzstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, prog, inputs, seconds: float, tracer: spans.Tracer | None = None) -> Outcome:
    """Passes until time is up; a traced run alternates untraced and traced passes."""
    outcome = Outcome()
    untraced, traced, latencies = [], [], []
    began = time.perf_counter()
    with speed.RefClock() as clock:
        while True:
            round_start = time.perf_counter()
            for trace in (False, True) if tracer else (False,):
                if trace:
                    tracer.reset()
                    tracer.install(clock.now)
                try:
                    lat, problems = workload.run_pass(prog, inputs, clock.now)
                finally:
                    if trace:
                        tracer.uninstall()
                wall = sum(lat)
                if trace:
                    traced.append((wall, tracer.metrics(wall), tracer.snapshot()))
                else:
                    untraced.append(wall)
                    latencies += lat
                outcome.attempted += len(lat)
                outcome.failed += len(problems)
                outcome.problems += problems
            took = time.perf_counter() - round_start
            if time.perf_counter() - began + took > seconds:
                break
    outcome.passes = len(untraced) + len(traced)
    outcome.host_speed = speed.REFERENCE_PROBE_S / statistics.median(clock.probes or [speed.REFERENCE_PROBE_S])
    if tracer is None:
        outcome.metrics = {
            "wall_s": statistics.median(untraced),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return outcome
    traced.sort(key=lambda t: t[0])
    wall, outcome.metrics, _ = traced[(len(traced) - 1) // 2]
    outcome.metrics["trace_overhead"] = wall / statistics.median(untraced) - 1
    family = workload.oracle_probe(prog, inputs)
    outcome.metrics["criterion.oracle_peak_mb"] = (
        0.0 if family is None else spans.oracle_peak_mb(prog, family)
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.tsv", [t[2] for t in traced])
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "syzstab" / "__init__.py").is_file():
        print(f"error: no syzstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("SYZ_ORACLE_MAX", None)
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        with speed.RefClock() as clock:
            start = clock.now()
            workload.prepare(workloads.load_program(ROOT))
            print(clock.now() - start)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prog = workloads.load_program(ROOT)
    inputs = workload.prepare(prog)
    outcome = run(workload, prog, inputs, args.seconds, spans.Tracer(prog) if args.trace else None)
    values = outcome.metrics
    if not args.trace:
        values["setup_s"] = statistics.median(
            setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        print(f"error: measured {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    for line in outcome.problems[:10]:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    info = environment(args.seed) | {
        "workload": args.workload, "trace": args.trace, "passes": outcome.passes,
        "failed_ops": outcome.failed / outcome.attempted, "host_speed": outcome.host_speed,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
