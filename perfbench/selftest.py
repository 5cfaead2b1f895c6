"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names is reported, that no op fails, and that the
layers' self times plus unattributed_s equal the traced wall time.  Then it
injects a fault (check_family reports a flipped verdict for one family) and
requires every workload to count failed ops.  Finally it checks that the
full-size batches hold at least 100 ops, so op_p90_ms has ten samples beyond
it, and that run.py refuses to run without the syzstab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import spans
import workloads

SELF_TIMES = (
    "monomials.self_s", "criterion.self_s", "constructions.self_s",
    "inequalities.self_s", "cli.overhead_s", "unattributed_s",
)
FLIP = {
    "StableCertified": "SEMISTABLE",
    "SemistableCertified": "STABLE",
    "CriterionViolated": "STABLE",
    "NotSemistable": "STABLE",
}


def tiny(name):
    return workloads.WORKLOADS[name](7, run.OUT, tiny=True)


def check_metrics(prog, spec) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        inputs = workload.prepare(prog)
        plain = run.run(workload, prog, inputs, 0)
        assert plain.failed == 0 and plain.attempted > 0, (name, plain.problems)
        assert set(plain.metrics) == end_to_end, (name, set(plain.metrics) ^ end_to_end)
        traced = run.run(workload, prog, inputs, 0, spans.Tracer(prog))
        assert traced.failed == 0, (name, traced.problems)
        values = traced.metrics
        assert set(values) == per_layer, (name, set(values) ^ per_layer)
        total = sum(values[k] for k in SELF_TIMES)
        assert abs(total - values["traced_wall_s"]) < 1e-9 * max(1.0, total), (name, total)
        assert run.setup_probe(name, 7) > 0
        print(f"ok   {name}: {plain.attempted} ops, metrics complete, self times add up")


def flipped_check_family(prog):
    """check_family that reports a flipped verdict for one family.

    The victim is the first family checked outside the plane search's own
    probing, where a wrong verdict only makes the search look further.
    """
    original = prog.caches[1]
    victim = []

    def check_family(fam):
        cert = original(fam)
        if not victim and sys._getframe(1).f_code.co_name != "gen_n2_search":
            victim.append(fam)
        if victim and fam == victim[0]:
            flipped = getattr(prog.criterion.Verdict, FLIP[cert.verdict.value])
            return replace(cert, verdict=flipped)
        return cert

    return original, check_family


def check_fault_injection(prog) -> None:
    for name in workloads.WORKLOADS:
        original, faulty = flipped_check_family(prog)
        modules = [prog.pkg, prog.criterion, prog.constructions, prog.cli]
        for module in modules:
            module.check_family = faulty
        try:
            workload = tiny(name)
            outcome = run.run(workload, prog, workload.prepare(prog), 0)
        finally:
            for module in modules:
                module.check_family = original
        assert outcome.failed > 0, f"{name}: a flipped verdict went unnoticed"
        print(f"ok   {name}: flipped verdict counted, {outcome.failed} of {outcome.attempted} ops failed")


def check_batch_sizes(prog) -> None:
    for name in ("verify", "plane-search", "oracle-audit"):
        ops = len(workloads.WORKLOADS[name](1, run.OUT).prepare(prog))
        assert ops >= 100, f"{name}: {ops} ops per pass, op_p90_ms needs 100"
    cells = len(workloads.Sweep(1, run.OUT).prepare(prog))
    assert cells == 716, cells
    print("ok   full-size batches hold at least 100 ops")


def check_refuses_without_sources(spec) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            spec["command"] + ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok   refuses to run without the sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    prog = workloads.load_program(run.ROOT)
    check_metrics(prog, spec)
    check_fault_injection(prog)
    check_batch_sizes(prog)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
