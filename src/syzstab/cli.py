"""Command-line front end: generate, check, sweep, audit.

Exit codes follow sysexits where they fit: 0 success, 1 check or audit
failure (or runtime error), 2 provable nonexistence of the requested family,
64 usage error, 65 malformed input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from .constructions import (
    NoFamilyExists,
    RoutingError,
    SearchExhausted,
    admissible_bounds,
    dispatch,
)
from .criterion import (
    DEFAULT_ORACLE_LIMIT,
    OracleSizeError,
    PreconditionError,
    SlopeData,
    Verdict,
    brute_force_check,
    check_family,
    is_semistable_p1,
    splitting_type_p1,
)
from .inequalities import FUNCTIONS, audit
from .monomials import FamilyFormatError, MonomialFamily

EX_OK = 0
EX_FAIL = 1
EX_NOFAMILY = 2
EX_USAGE = 64
EX_DATA = 65

ORACLE_LIMIT_MAX = 20


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


def _oracle_limit() -> int:
    # the oracle walks all 2^n subsets, so the override has a ceiling on time
    raw = os.environ.get("SYZ_ORACLE_MAX")
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if not 2 <= limit <= ORACLE_LIMIT_MAX:
        print(
            f"warning: ignoring SYZ_ORACLE_MAX={raw!r}, not an integer in 2..{ORACLE_LIMIT_MAX}",
            file=sys.stderr,
        )
        return DEFAULT_ORACLE_LIMIT
    return limit


def _print_certificate(cert, as_json: bool) -> None:
    if as_json:
        print(json.dumps(cert.to_json(), indent=2))
        return
    slopes = SlopeData(cert.n, cert.d)
    print(f"verdict: {cert.verdict.value}")
    print(f"family: N={cert.N} d={cert.d} n={cert.n}")
    print(f"bundle: rank {slopes.rank}, c1 {slopes.c1}, slope {slopes.slope}")
    print(f"m-primary: {'yes' if cert.primary else 'no'}")
    if cert.route is not None:
        print(f"route: {cert.route}")
    print(f"witnesses: {len(cert.witnesses)}")
    if cert.worst is not None:
        w = cert.worst
        print(f"worst: gcd {w.gcd} (degree {w.gcd_degree}), k {w.multiple_count}, margin {w.margin}")


def cmd_generate(args) -> int:
    try:
        route, fam = dispatch(args.N, args.d, args.n)
    except NoFamilyExists as exc:
        print(f"no family exists: {exc}", file=sys.stderr)
        return EX_NOFAMILY
    except RoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    cert = check_family(fam).with_route(route.value)
    text = fam.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EX_FAIL
    else:
        print(text, end="")
    _print_certificate(cert, args.json)
    return EX_OK


def cmd_check(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            fam = MonomialFamily.from_text(fh.read())
    except (FamilyFormatError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL

    if fam.N == 1:
        # bundles on the line split; the splitting type decides exactly
        try:
            split = splitting_type_p1(fam)
            verdict = is_semistable_p1(fam)
        except PreconditionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EX_FAIL
        if args.json:
            print(json.dumps({
                "verdict": verdict.value,
                "N": fam.N,
                "d": fam.d,
                "n": len(fam),
                "twists": list(split.twists),
            }, indent=2))
        else:
            print(f"verdict: {verdict.value}")
            print(f"family: N=1 d={fam.d} n={len(fam)}")
            print(f"splitting type: {', '.join(f'O({t})' for t in split.twists)}")
        if args.oracle:
            print("error: --oracle applies to N >= 2 families", file=sys.stderr)
            return EX_FAIL
        wanted = (Verdict.STABLE,) if args.strict else (Verdict.STABLE, Verdict.SEMISTABLE)
        return EX_OK if verdict in wanted else EX_FAIL

    try:
        cert = check_family(fam)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    _print_certificate(cert, args.json)
    status = EX_OK
    if args.oracle:
        try:
            oracle = brute_force_check(fam, _oracle_limit())
        except OracleSizeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EX_FAIL
        same_verdict = oracle.verdict is cert.verdict
        a, b = cert.worst, oracle.worst
        same_worst = (a is None and b is None) or (
            a is not None and b is not None and a.margin == b.margin
        )
        if same_verdict and same_worst:
            print("oracle agrees")
        else:
            print(
                "oracle disagrees: "
                f"scan {cert.verdict.value} worst {None if a is None else a.margin}, "
                f"oracle {oracle.verdict.value} worst {None if b is None else b.margin}",
                file=sys.stderr,
            )
            status = EX_FAIL
    wanted = (Verdict.STABLE,) if args.strict else (Verdict.STABLE, Verdict.SEMISTABLE)
    if cert.verdict not in wanted:
        status = EX_FAIL
    return status


def _sweep_cell(cell: tuple[int, int, int]) -> dict:
    """Dispatch one grid cell; returns a plain row dict (picklable)."""
    N, d, n = cell
    start = time.perf_counter()
    try:
        route, fam = dispatch(N, d, n)
    except NoFamilyExists:
        return {
            "N": N, "d": d, "n": n, "route": "P1Family",
            "verdict": "NoFamilyExists", "worst_margin": None,
            "wall_time": round(time.perf_counter() - start, 6), "failure": None,
        }
    except Exception as exc:
        return {
            "N": N, "d": d, "n": n, "route": None, "verdict": None,
            "worst_margin": None,
            "wall_time": round(time.perf_counter() - start, 6),
            "failure": f"{type(exc).__name__}: {exc}",
        }
    # dispatch has already certified the family at its expected verdict
    cert = check_family(fam)
    return {
        "N": N, "d": d, "n": n, "route": route.value,
        "verdict": cert.verdict.value,
        "worst_margin": None if cert.worst is None else cert.worst.margin,
        "wall_time": round(time.perf_counter() - start, 6),
        "failure": None,
    }


def cmd_sweep(args) -> int:
    if args.Nmax < 1 or args.dmax < 2:
        print("error: need Nmax >= 1 and dmax >= 2", file=sys.stderr)
        return EX_USAGE
    try:
        # C(d+N, N) grows in N and d, so the corner is the grid's largest cell
        admissible_bounds(args.Nmax, args.dmax)
    except RoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    cells = []
    for N in range(1, args.Nmax + 1):
        for d in range(2, args.dmax + 1):
            lo, hi = admissible_bounds(N, d)
            cells.extend((N, d, n) for n in range(lo, hi + 1))
    try:
        # opened before any cell runs, so a bad path is refused at once
        report_file = open(args.report, "w", encoding="utf-8") if args.report else nullcontext()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL
    with report_file as fh:
        # every worker is forked up front, so never ask for more than the CPUs
        jobs = min(args.jobs, os.cpu_count() or 1)
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_cell, cells, chunksize=8))
        else:
            rows = [_sweep_cell(cell) for cell in cells]
        rows.sort(key=lambda row: (row["N"], row["d"], row["n"]))
        failures = [row for row in rows if row["failure"] is not None]
        if fh is not None:
            report = {
                "grid": {"Nmax": args.Nmax, "dmax": args.dmax},
                "rows": rows,
                "failures": failures,
            }
            try:
                json.dump(report, fh, indent=2)
                fh.flush()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EX_FAIL
    generated = sum(row["verdict"] not in (None, "NoFamilyExists") for row in rows)
    skipped = sum(row["verdict"] == "NoFamilyExists" for row in rows)
    print(
        f"sweep: {len(rows)} cells, {generated} families certified, "
        f"{skipped} nonexistent, {len(failures)} failures"
    )
    for row in failures:
        print(f"  FAIL ({row['N']}, {row['d']}, {row['n']}): {row['failure']}")
    return EX_OK if not failures else EX_FAIL


_AUDIT_DEFAULTS = {
    "T": (range(3, 6), range(2, 11)),
    "U": (range(3, 6), range(2, 11)),
    "V": (range(3, 6), range(5, 13)),
    "Q": (range(3, 6), range(5, 13)),
    "brenner2": (range(1, 7), range(0, 21)),
}


def cmd_audit(args) -> int:
    if args.function == "P" and (args.N is not None or args.d is not None):
        # P draws its own (N, d) pairs; see sample_P
        print("error: the P audit takes no --N or --d, only --samples and --seed",
              file=sys.stderr)
        return EX_USAGE
    # P has no default ranges: audit_grid ignores them and calls sample_P
    N_range, d_range = _AUDIT_DEFAULTS.get(args.function, ((), ()))
    if args.N is not None:
        N_range = args.N
    if args.d is not None:
        d_range = args.d
    _, summary = audit(args.function, N_range, d_range, args.samples, args.seed)
    if summary.count == summary.flagged:
        print(f"error: the {args.function} audit grid has no in-range points", file=sys.stderr)
        return EX_USAGE
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
                     help="cross-check against subset enumeration (size-capped)")
    chk.add_argument("--json", action="store_true", help="certificate as JSON")
    chk.set_defaults(func=cmd_check)

    swp = sub.add_parser("sweep", help="certify every admissible cell of a grid")
    swp.add_argument("--Nmax", type=int, default=4)
    swp.add_argument("--dmax", type=int, default=6)
    swp.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most the CPU count")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
