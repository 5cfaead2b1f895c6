"""Command-line front end: generate, check, sweep, audit.

Exit codes follow sysexits where they fit: 0 success, 1 check or audit
failure (or runtime error), 2 provable nonexistence of the requested family,
64 usage error, 65 malformed input file. A command raises its refusal and
main maps it to an exit code and one stderr line through REFUSALS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice

from .constructions import (
    InternalConsistencyError,
    NoFamilyExists,
    RoutingError,
    admissible_bounds,
    classify_route,
    dispatch,
)
from .criterion import (
    OracleSizeError,
    PreconditionError,
    Verdict,
    brute_force_check,
    check_family,
    is_semistable_p1,
    splitting_type_p1,
)
from .inequalities import FUNCTIONS, audit, audit_grid
from .monomials import FamilyFormatError, MonomialFamily

EX_OK = 0
EX_FAIL = 1
EX_NOFAMILY = 2
EX_USAGE = 64
EX_DATA = 65

# cells one sweep may run; the default grid has 716 and N <= 5, d <= 8 has 4865
SWEEP_CELL_LIMIT = 100_000
# points one audit may evaluate: each is kept as a trace until the audit ends
AUDIT_POINT_LIMIT = 500_000


class UsageError(Exception):
    """A request the command line refuses as malformed or out of range (exit 64)."""


# (exception classes, exit code, stderr prefix); main prints the first match
REFUSALS = (
    ((NoFamilyExists,), EX_NOFAMILY, "no family exists"),
    ((RoutingError, UsageError), EX_USAGE, "error"),
    ((FamilyFormatError, UnicodeDecodeError), EX_DATA, "parse error"),
    ((InternalConsistencyError, PreconditionError, OracleSizeError, OSError), EX_FAIL, "error"),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; reserve 2 for nonexistence instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _span(text: str) -> range:
    """Parse 'a..b' into the inclusive integer range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}") from exc


def _oracle_summary(cert) -> str:
    w = cert.worst
    worst = None if w is None else f"gcd {w.gcd} k {w.multiple_count} margin {w.margin}"
    return f"{cert.verdict.value}, {cert.witness_count} witnesses, worst {worst}"


def _print_certificate(cert, as_json: bool, route: str | None = None) -> None:
    if as_json:
        data = cert.to_json()
        if route is not None:
            data["route"] = route
        print(json.dumps(data, indent=2))
        return
    rank, c1 = cert.n - 1, -cert.d * cert.n
    print(f"verdict: {cert.verdict.value}")
    print(f"family: N={cert.N} d={cert.d} n={cert.n}")
    print(f"bundle: rank {rank}, c1 {c1}, slope {Fraction(c1, rank)}")
    print(f"m-primary: {'yes' if cert.primary else 'no'}")
    if route is not None:
        print(f"route: {route}")
    print(f"witnesses: {cert.witness_count}")
    if cert.worst is not None:
        w = cert.worst
        print(f"worst: gcd {w.gcd} (degree {w.gcd_degree}), k {w.multiple_count}, margin {w.margin}")


def cmd_generate(args) -> int:
    route, fam = dispatch(args.N, args.d, args.n)
    cert = check_family(fam)
    text = fam.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    _print_certificate(cert, args.json, route.value)
    return EX_OK


def cmd_check(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        fam = MonomialFamily.from_text(fh.read())

    wanted = (Verdict.STABLE,) if args.strict else (Verdict.STABLE, Verdict.SEMISTABLE)
    if fam.N == 1:
        # bundles on the line split; the splitting type decides exactly
        twists = splitting_type_p1(fam)
        verdict = is_semistable_p1(fam)
        if args.json:
            print(json.dumps({
                "verdict": verdict.value,
                "N": fam.N,
                "d": fam.d,
                "n": len(fam),
                "twists": list(twists),
            }, indent=2))
        else:
            print(f"verdict: {verdict.value}")
            print(f"family: N=1 d={fam.d} n={len(fam)}")
            print(f"splitting type: {', '.join(f'O({t})' for t in twists)}")
        if args.oracle:
            raise PreconditionError("--oracle applies to N >= 2 families")
        return EX_OK if verdict in wanted else EX_FAIL

    cert = check_family(fam)
    _print_certificate(cert, args.json)
    status = EX_OK
    if args.oracle:
        oracle = brute_force_check(fam)
        # the verdict, the witness count, the whole worst witness and the
        # per-degree summary
        if oracle == cert:
            print("oracle agrees")
        else:
            print(
                "oracle disagrees: "
                f"scan {_oracle_summary(cert)}, oracle {_oracle_summary(oracle)}",
                file=sys.stderr,
            )
            status = EX_FAIL
    if cert.verdict not in wanted:
        status = EX_FAIL
    return status


def _sweep_cell(cell: tuple[int, int, int]) -> dict:
    """Dispatch one grid cell; returns a plain row dict (picklable)."""
    N, d, n = cell
    row = {
        "N": N, "d": d, "n": n, "route": None, "verdict": None,
        "worst_margin": None, "wall_time": None, "failure": None,
    }
    start = time.perf_counter()
    try:
        route, fam = dispatch(N, d, n)
    except NoFamilyExists:
        row["route"], row["verdict"] = "P1Family", "NoFamilyExists"
    except Exception as exc:
        row["failure"] = f"{type(exc).__name__}: {exc}"
    else:
        # dispatch has already certified the family at its expected verdict
        cert = check_family(fam)
        row["route"], row["verdict"] = route.value, cert.verdict.value
        row["worst_margin"] = None if cert.worst is None else cert.worst.margin
    row["wall_time"] = round(time.perf_counter() - start, 6)
    return row


def cmd_sweep(args) -> int:
    if args.Nmax < 1 or args.dmax < 2:
        raise UsageError("need Nmax >= 1 and dmax >= 2")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    # C(d+N, N) grows in N and d, so the corner is the grid's largest cell
    admissible_bounds(args.Nmax, args.dmax)
    bounds = [
        (N, d, *admissible_bounds(N, d))
        for N in range(1, args.Nmax + 1)
        for d in range(2, args.dmax + 1)
    ]
    # counted before any cell is listed: a long thin grid passes the corner
    # ceiling yet holds tens of millions of cells
    total = sum(hi - lo + 1 for _, _, lo, hi in bounds)
    if total > SWEEP_CELL_LIMIT:
        raise UsageError(
            f"the grid has {total} cells, above the sweep budget of {SWEEP_CELL_LIMIT}"
        )
    cells = []
    for N, d, lo, hi in bounds:
        for n in range(lo, hi + 1):
            try:
                # generate refuses a recursive cell whose inner cell is refused
                classify_route(N, d, n)
            except RoutingError:
                continue
            cells.append((N, d, n))
    # opened before any cell runs, so a bad path is refused at once
    report_file = open(args.report, "w", encoding="utf-8") if args.report else nullcontext()
    with report_file as fh:
        # every worker is forked up front, so never ask for more than the CPUs
        jobs = min(args.jobs, os.cpu_count() or 1)
        if jobs > 1:
            # imported here: the pool pulls in multiprocessing, which only this path needs
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_cell, cells, chunksize=8))
        else:
            rows = [_sweep_cell(cell) for cell in cells]
        failures = [row for row in rows if row["failure"] is not None]
        if fh is not None:
            report = {
                "grid": {"Nmax": args.Nmax, "dmax": args.dmax},
                "rows": rows,
                "failures": failures,
            }
            json.dump(report, fh, indent=2)
            fh.flush()
    generated = sum(row["verdict"] not in (None, "NoFamilyExists") for row in rows)
    skipped = sum(row["verdict"] == "NoFamilyExists" for row in rows)
    print(
        f"sweep: {len(rows)} cells, {generated} families certified, "
        f"{skipped} nonexistent, {len(failures)} failures"
    )
    if len(cells) < total:
        print(f"  left out {total - len(cells)} cells whose recursion reaches a refused cell")
    for row in failures:
        print(f"  FAIL ({row['N']}, {row['d']}, {row['n']}): {row['failure']}")
    return EX_OK if not failures else EX_FAIL


def cmd_audit(args) -> int:
    ranges = FUNCTIONS[args.function].ranges
    if ranges is None and (args.N is not None or args.d is not None):
        # a sampled audit draws its own (N, d) pairs; see sample_P
        raise UsageError(
            f"the {args.function} audit takes no --N or --d, only --samples and --seed"
        )
    N_range, d_range = ranges or ((), ())
    if args.N is not None:
        N_range = args.N
    if args.d is not None:
        d_range = args.d
    # a sampled audit evaluates --samples points; a grid is counted up to the budget
    if ranges is None:
        points = args.samples
    else:
        grid = audit_grid(args.function, N_range, d_range)
        points = sum(1 for _ in islice(grid, AUDIT_POINT_LIMIT + 1))
    if points > AUDIT_POINT_LIMIT:
        raise UsageError(
            f"the {args.function} audit has more than {AUDIT_POINT_LIMIT} points, the audit budget"
        )
    _, summary = audit(args.function, N_range, d_range, args.samples, args.seed)
    if summary.count == summary.flagged:
        raise UsageError(f"the {args.function} audit grid has no in-range points")
    if args.json:
        print(json.dumps(summary.to_json(), indent=2))
    else:
        print(f"function: {summary.function}")
        print(f"points: {summary.count} ({summary.flagged} outside the proof range)")
        print(f"violations: {summary.violations}")
        if summary.min_value is not None:
            print(f"min: {summary.min_value} at {summary.argmin}")
    return EX_OK if summary.violations == 0 else EX_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syzstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct and certify a family")
    gen.add_argument("-N", type=int, required=True, help="projective dimension")
    gen.add_argument("-d", type=int, required=True, help="common degree")
    gen.add_argument("-n", type=int, required=True, help="family size")
    gen.add_argument("-o", "--output", help="write the family file here instead of stdout")
    gen.add_argument("--json", action="store_true", help="certificate as JSON")
    gen.set_defaults(func=cmd_generate)

    chk = sub.add_parser("check", help="certify a family file")
    chk.add_argument("path", help="family file in the plain text format")
    level = chk.add_mutually_exclusive_group()
    level.add_argument("--strict", action="store_true", help="require stability")
    level.add_argument("--semi", action="store_true", help="require semistability (default)")
    chk.add_argument("--oracle", action="store_true",
                     help="cross-check against every subset (work-bounded)")
    chk.add_argument("--json", action="store_true", help="certificate as JSON")
    chk.set_defaults(func=cmd_check)

    swp = sub.add_parser("sweep", help="certify every admissible cell of a grid")
    swp.add_argument("--Nmax", type=int, default=4)
    swp.add_argument("--dmax", type=int, default=6)
    swp.add_argument("--jobs", type=int, default=1,
                     help="worker processes, from 1 to the CPU count")
    swp.add_argument("--report", help="write the JSON report here")
    swp.set_defaults(func=cmd_sweep)

    aud = sub.add_parser("audit", help="positivity audit of one bound function")
    aud.add_argument("function", choices=sorted(FUNCTIONS))
    aud.add_argument("--N", type=_span, default=None, help="N range as a..b")
    aud.add_argument("--d", type=_span, default=None, help="d range as a..b")
    aud.add_argument("--samples", type=int, default=10_000,
                     help="random tuples for the P audit")
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--json", action="store_true", help="summary as JSON")
    aud.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for classes, code, prefix in REFUSALS:
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
