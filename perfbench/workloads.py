"""The four seeded workloads of the syzstab benchmark.

Each workload turns a seed into a fixed batch of inputs (``prepare``) and
runs the whole batch once per pass (``run_pass``): it times each op on the
clock it is given and checks the op's output with code of its own
(``check``) right after, outside the timed region, so no output outlives its
check.  A pass starts with empty ``dispatch``/``check_family`` caches;
``verify``, ``plane-search`` and ``oracle-audit`` also empty them before
every op, so each op is as cold as a fresh ``syzstab check`` or
``syzstab generate`` even when a run repeats its batch.  No input repeats
within a batch.

Program modules are reached through attribute lookups at call time, so the
tracer's wrappers (and the self-test's fault injection) take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

PROGRAM_MODULES = ("monomials", "criterion", "constructions", "inequalities", "cli")
AUDIT_FUNCTIONS = ("P", "Q", "T", "U", "V", "brenner2")
REFERENCE_ROWS = Path(__file__).resolve().parent / "sweep_rows.json"


def load_program(root: Path) -> SimpleNamespace:
    """Import syzstab from ``root/src`` and nowhere else."""
    import importlib
    import sys

    src = root / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("syzstab")
    if Path(pkg.__file__).resolve().parent != (src / "syzstab").resolve():
        raise ImportError(f"syzstab was imported from {pkg.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"syzstab.{name}") for name in PROGRAM_MODULES}
    # the lru caches themselves, kept before any wrapper replaces the names
    caches = (mods["constructions"].dispatch, mods["criterion"].check_family)
    return SimpleNamespace(pkg=pkg, caches=caches, **mods)


def clear_caches(prog: SimpleNamespace) -> None:
    for cache in prog.caches:
        cache.cache_clear()


def exponent_vectors(N: int, d: int) -> list[tuple[int, ...]]:
    """Every exponent vector of degree d in N+1 variables."""
    if N == 0:
        return [(d,)]
    return [
        (first,) + rest
        for first in range(d, -1, -1)
        for rest in exponent_vectors(N - 1, d - first)
    ]


def pure_powers(N: int, d: int) -> list[tuple[int, ...]]:
    return [tuple(d if j == i else 0 for j in range(N + 1)) for i in range(N + 1)]


def family_text(N: int, d: int, rows: list[tuple[int, ...]]) -> str:
    lines = [f"{N} {d} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def random_primary_rows(rng: random.Random, N: int, d: int, n: int) -> list[tuple[int, ...]]:
    """n distinct degree-d rows holding every pure power, in random order."""
    pures = pure_powers(N, d)
    others = [v for v in exponent_vectors(N, d) if v not in pures]
    rows = pures + rng.sample(others, n - len(pures))
    rng.shuffle(rows)
    return rows


def expected_sweep_verdict(N: int, d: int, n: int) -> str:
    """The verdict every sweep row must reach, from the theory, not the program."""
    if N == 1:
        if d % (n - 1):
            return "NoFamilyExists"
        return "StableCertified" if n == 2 else "SemistableCertified"
    return "SemistableCertified" if (N, d, n) == (2, 2, 5) else "StableCertified"


def witness_problem(rows, d: int, n: int, verdict: str, worst) -> str | None:
    """Recompute the reported worst witness from the family itself.

    worst is None or (g, d_J, k, margin).  k is recounted by divisibility and
    the margin by (d - d_J) * n + d_J - d * k; the verdict must agree with its
    sign.  Returns a description of the first problem, or None.
    """
    if worst is None:
        return None if verdict == "StableCertified" else f"{verdict} without a witness"
    g, d_J, k, margin = worst
    g = tuple(g)
    if sum(g) != d_J or not 1 <= d_J <= d - 1:
        return f"witness {g} has degree {sum(g)}, reported {d_J}"
    multiples = [r for r in rows if all(a <= b for a, b in zip(g, r))]
    if len(multiples) != k or k < 2:
        return f"witness {g} divides {len(multiples)} members, reported {k}"
    if tuple(map(min, *multiples)) != g:
        return f"witness {g} is not the gcd of its multiples"
    if (d - d_J) * n + d_J - d * k != margin:
        return f"witness {g} has margin {(d - d_J) * n + d_J - d * k}, reported {margin}"
    wanted = (
        "CriterionViolated" if margin < 0
        else "SemistableCertified" if margin == 0
        else "StableCertified"
    )
    return None if verdict == wanted else f"verdict {verdict} but worst margin {margin}"


def primary_problem(fam, N: int, d: int, n: int) -> str | None:
    rows = [m.exponents for m in fam.members]
    if (fam.N, fam.d, len(rows)) != (N, d, n):
        return f"family is ({fam.N}, {fam.d}, {len(rows)}), requested ({N}, {d}, {n})"
    if len(set(rows)) != n or any(sum(r) != d or len(r) != N + 1 for r in rows):
        return "members are not distinct degree-d monomials"
    if not set(pure_powers(N, d)) <= set(rows):
        return "family is not m-primary"
    return None


def run_ops(prog, ops, call, check, clock, cold: bool):
    """Time call(op) on clock for every op and check each output.

    Returns the op times and one problem description per failed op.
    """
    latencies, problems = [], []
    clear_caches(prog)
    for op in ops:
        if cold:
            clear_caches(prog)
        t0 = clock()
        try:
            out = call(op)
        except Exception as exc:  # an unexpected exception is a failed op
            latencies.append(clock() - t0)
            problems.append(f"{op!s:.80}: raised {exc!r}")
            continue
        latencies.append(clock() - t0)
        problem = check(op, out)
        if problem:
            problems.append(f"{op!s:.80}: {problem}")
    return latencies, problems


class Workload:
    def oracle_probe(self, prog, inputs):
        """A family for the oracle's memory probe; None where no oracle runs."""
        return None


class Sweep(Workload):
    """The default ``syzstab sweep`` grid (N <= 4, d <= 6), ``--jobs 1``.

    The cells are those of the recorded rows, in the order the command visits
    them.  Each op is ``cli._sweep_cell``, the per-cell function that
    ``syzstab sweep --jobs 1`` runs; calling it cell by cell gives per-cell
    times on the benchmark's clock.  The grid is fixed, so the seed draws
    nothing here.
    """

    name = "sweep"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.grid = (2, 3) if tiny else (4, 6)

    def prepare(self, prog):
        rows = json.loads(REFERENCE_ROWS.read_text(encoding="utf-8"))
        return [r for r in rows if r[0] <= self.grid[0] and r[1] <= self.grid[1]]

    def run_pass(self, prog, rows, clock):
        return run_ops(prog, rows, lambda row: prog.cli._sweep_cell(tuple(row[:3])), self.check, clock, cold=False)

    @staticmethod
    def check(recorded, row):
        if row["failure"] is not None:
            return row["failure"]
        if row["verdict"] != expected_sweep_verdict(*recorded[:3]):
            return f"verdict {row['verdict']}"
        got = [row["N"], row["d"], row["n"], row["route"], row["verdict"], row["worst_margin"]]
        return None if got == recorded else f"row {got} differs from the recorded row"


class FamilyFile(NamedTuple):
    N: int
    d: int
    rows: list
    source: str  # the file's text for verify, its path for oracle-audit

    def __str__(self):
        return f"family ({self.N}, {self.d}, {len(self.rows)})"


# (N, degrees): random m-primary families, checked as `syzstab check` does
VERIFY_SHAPES = ((2, (8, 10, 12, 14)), (3, (6, 8, 10, 12)), (4, (4, 5, 6, 7)), (5, (3, 4, 5, 6)))
VERIFY_SIZES = 7


class Verify(Workload):
    """``MonomialFamily.from_text`` then ``check_family`` on random families.

    For each (N, d) the sizes are spread evenly over N+2 .. C(d+N, N), the
    last being the full family.  The scan's work depends on (N, d, n) and
    barely on the members, so every seed asks for the same work while
    drawing different families.
    """

    name = "verify"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed = seed
        self.shapes = ((2, (4,)), (3, (3,))) if tiny else VERIFY_SHAPES
        self.sizes = 2 if tiny else VERIFY_SIZES

    def prepare(self, prog):
        rng = random.Random(self.seed)
        ops = []
        for N, degrees in self.shapes:
            for d in degrees:
                lo, hi = N + 2, len(exponent_vectors(N, d))
                for b in range(1, self.sizes + 1):
                    rows = random_primary_rows(rng, N, d, lo + (hi - lo) * b // self.sizes)
                    ops.append(FamilyFile(N, d, rows, family_text(N, d, rows)))
        rng.shuffle(ops)
        return ops

    def run_pass(self, prog, ops, clock):
        def call(op):
            fam = prog.monomials.MonomialFamily.from_text(op.source)
            return fam, prog.criterion.check_family(fam)

        return run_ops(prog, ops, call, self.check, clock, cold=True)

    @staticmethod
    def check(op, out):
        fam, cert = out
        n = len(op.rows)
        if (fam.N, fam.d) != (op.N, op.d) or sorted(m.exponents for m in fam.members) != sorted(op.rows):
            return "parsed family differs from the file"
        if (cert.N, cert.d, cert.n, cert.primary) != (op.N, op.d, n, True):
            return "certificate is for another family"
        worst = cert.worst
        return witness_problem(
            op.rows, op.d, n, cert.verdict.value,
            None if worst is None else (
                worst.gcd.exponents, worst.gcd_degree, worst.multiple_count, worst.margin
            ),
        )


# (d, largest size of the innermost N = 2 search): kept small enough that a
# run at this commit holds more than 100 cold cells
PLANE_SIZES = ((6, 17), (7, 13), (8, 10))


class PlaneSearch(Workload):
    """Cold ``dispatch`` on N2Search cells and FaceVertex cells above them.

    A FaceVertex cell (N, d, n) recurses down to the search cell
    (2, d, n - N + 2).  The cell set is fixed by the size caps; the seed sets
    the order in which the cells run.
    """

    name = "plane-search"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed = seed
        self.sizes = ((6, 5),) if tiny else PLANE_SIZES

    def prepare(self, prog):
        cells = [
            (N, d, m + N - 2)
            for N in (2, 3, 4)
            for d, top in self.sizes
            for m in range(3, top + 1)
        ]
        random.Random(self.seed).shuffle(cells)
        return cells

    def run_pass(self, prog, cells, clock):
        return run_ops(prog, cells, lambda cell: prog.constructions.dispatch(*cell), self.check, clock, cold=True)

    @staticmethod
    def check(cell, out):
        route, fam = out
        wanted = "N2Search" if cell[0] == 2 else "FaceVertex"
        if route.value != wanted:
            return f"route {route.value}, expected {wanted}"
        return primary_problem(fam, *cell)


# (N, d) shapes for the oracle families; sizes run over 12..16
ORACLE_SHAPES = ((2, 5), (2, 6), (3, 3), (3, 4), (4, 3))
ORACLE_ROUNDS = 4


class OracleAudit(Workload):
    """``syzstab check --oracle`` on seeded families plus the six default audits."""

    name = "oracle-audit"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed = seed
        self.dir = out_dir / f"oracle-families-{seed}"
        self.sizes = (12,) if tiny else range(12, 17)
        self.rounds = 1 if tiny else ORACLE_ROUNDS
        self.shapes = ORACLE_SHAPES[:2] if tiny else ORACLE_SHAPES
        self.audits = AUDIT_FUNCTIONS[:2] if tiny else AUDIT_FUNCTIONS

    def prepare(self, prog):
        rng = random.Random(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        ops, seen = [], set()
        for _ in range(self.rounds):
            for N, d in self.shapes:
                for n in self.sizes:
                    rows = random_primary_rows(rng, N, d, n)
                    while frozenset(rows) in seen:
                        rows = random_primary_rows(rng, N, d, n)
                    seen.add(frozenset(rows))
                    path = self.dir / f"family-{len(ops):03d}.txt"
                    path.write_text(family_text(N, d, rows), encoding="utf-8")
                    ops.append(FamilyFile(N, d, rows, str(path)))
        ops += list(self.audits)
        rng.shuffle(ops)
        return ops

    def run_pass(self, prog, ops, clock):
        def call(op):
            argv = ["check", op.source, "--oracle", "--json"] if isinstance(op, FamilyFile) else ["audit", op, "--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = prog.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run_ops(prog, ops, call, self.check, clock, cold=True)

    @staticmethod
    def check(op, out):
        code, stdout, stderr = out
        if not isinstance(op, FamilyFile):
            try:
                summary = json.loads(stdout)
            except ValueError:
                return f"no summary in output (exit {code}): {stderr.strip()}"
            if code != 0 or summary["violations"] != 0 or summary["count"] < 1:
                return f"exit {code}, {summary['violations']} violations in {summary['count']} points"
            return None
        try:
            cert, end = json.JSONDecoder().raw_decode(stdout)
        except ValueError:
            return f"no certificate in output (exit {code}): {stderr.strip()}"
        if stdout[end:].strip() != "oracle agrees":
            return f"oracle does not agree: {stderr.strip()}"
        n = len(op.rows)
        if (cert["N"], cert["d"], cert["n"]) != (op.N, op.d, n):
            return "certificate is for another family"
        worst = cert["worst"]
        problem = witness_problem(
            op.rows, op.d, n, cert["verdict"],
            None if worst is None else (worst["g"], worst["d_J"], worst["k"], worst["margin"]),
        )
        if problem:
            return problem
        wanted = 0 if cert["verdict"] in ("StableCertified", "SemistableCertified") else 1
        return None if code == wanted else f"exit code {code} for {cert['verdict']}"

    def oracle_probe(self, prog, ops):
        """The largest family of the batch, for the oracle's memory probe."""
        largest = max((op for op in ops if isinstance(op, FamilyFile)), key=lambda op: len(op.rows))
        return prog.monomials.MonomialFamily.from_exponents(largest.rows)


WORKLOADS = {w.name: w for w in (Sweep, Verify, PlaneSearch, OracleAudit)}
