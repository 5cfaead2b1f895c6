"""Stability certification for syzygy bundles of equal-degree monomial families.

A family I of n distinct degree-d monomials generating an m-primary ideal in
N+1 variables has a syzygy bundle of rank n-1 and first Chern class -dn.  The
combinatorial test implemented here bounds, for every monomial g that is the
greatest common divisor of some subset of I, how many members g may divide:
writing e = deg(g) and k for the number of multiples of g in I, the margin

    (d - e) * n + e - d * k

must be non-negative for semistability and strictly positive on proper
subsets for stability.  Subsets with trivial gcd never bind (their margin is
d*(n-k) and the whole family itself always sits at margin zero), so the
checker scans gcd candidates of degree 1..d-1 and evaluates each candidate's
full multiple-set, which is the worst subset sharing that gcd.  The one scan
kernel, _degree_tallies, keeps a per-degree tally (count, largest k, first g
with it) inside its walk and yields only that tally, and check_family reads
the certificate off it.  The kernel and the oracle both read the family's
exponent rows; the only Monomial built here is a certificate's worst gcd.

The test is sufficient, not necessary, for N >= 2: CriterionViolated makes no
claim of non-semistability there.  On the projective line the splitting type
decides exactly, and both the criterion and the splitting decider agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterator, Sequence

from .monomials import MAX_DEGREE_MONOMIALS, DimensionMismatch, Monomial, MonomialFamily, binomial

# n * 2^n at n = 20: the most componentwise minima the oracle may take
MAX_ORACLE_WORK = 20 * 2**20

# The largest (N + 1) * d^2 of any cell generate admits: the line at
# d = MAX_DEGREE_MONOMIALS - 1, since no other admitted cell has both N + 1
# and d that large.  It does not bound the walk's nodes, which grow with the
# candidate gcds: a 3000-row plane file at d = 800 passes it and takes about
# 100 s to check on a 2-core host.
MAX_SCAN_WORK = 2 * (MAX_DEGREE_MONOMIALS - 1) ** 2


class PreconditionError(ValueError):
    """The family fails a checker precondition: fewer than two members, not
    m-primary, or a degree whose scan would exceed MAX_SCAN_WORK."""


class OracleSizeError(ValueError):
    """The brute-force oracle's work bound for the family exceeds MAX_ORACLE_WORK."""


class Verdict(enum.Enum):
    STABLE = "StableCertified"
    SEMISTABLE = "SemistableCertified"
    CRITERION_VIOLATED = "CriterionViolated"
    NOT_SEMISTABLE = "NotSemistable"


@dataclass(frozen=True)
class GcdWitness:
    """One evaluated subset: a gcd, its degree, its multiple count and margin."""

    gcd: Monomial
    gcd_degree: int
    multiple_count: int
    margin: int

    def to_json(self) -> dict:
        return {
            "g": list(self.gcd.exponents),
            "d_J": self.gcd_degree,
            "k": self.multiple_count,
            "margin": self.margin,
        }


def _gcd_witness(witness: tuple | None) -> GcdWitness | None:
    # the one object a certificate keeps of the (g, e, k, margin) tuples
    return None if witness is None else GcdWitness(Monomial(witness[0]), *witness[1:])


@dataclass(frozen=True)
class StabilityCertificate:
    """A checker's answer for one family.

    by_degree summarises the witnesses one entry per witness degree e, in
    ascending order: (e, count, k, g), count the number of witnesses of
    degree e, k their largest multiple count and g the first gcd in scan
    order with that k.  At fixed e the margin falls as k grows, so the worst
    witness at any n is the entry of least margin, a tie going to the lower
    e, and witness_count is the sum of the counts.
    """

    verdict: Verdict
    N: int
    d: int
    n: int
    witness_count: int
    worst: GcdWitness | None
    by_degree: tuple[tuple[int, int, int, tuple[int, ...]], ...]

    @property
    def primary(self) -> bool:
        """Always true: both checkers refuse a family that is not m-primary."""
        return True

    @property
    def conclusive(self) -> bool:
        """Whether the verdict settles (semi)stability.

        Positive verdicts always do.  CriterionViolated is conclusive only on
        the projective line, where the test is exact; for N >= 2 it records a
        failed sufficient condition and nothing more.
        """
        if self.verdict is Verdict.CRITERION_VIOLATED:
            return self.N == 1
        return True

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "N": self.N,
            "d": self.d,
            "n": self.n,
            "primary": self.primary,
            "conclusive": self.conclusive,
            "witness_count": self.witness_count,
            "worst": None if self.worst is None else self.worst.to_json(),
        }


def is_m_primary(fam: MonomialFamily) -> bool:
    """True when every pure power X_i^d belongs to the family.

    For monomial ideals generated in one degree this is exactly m-primality:
    the radical contains each variable iff some pure power of it appears.
    """
    exps = fam.exponent_set()
    N, d = fam.N, fam.d
    return all((0,) * i + (d,) + (0,) * (N - i) in exps for i in range(N + 1))


def _require_checkable(fam: MonomialFamily) -> None:
    # the preconditions both checkers share
    n = len(fam)
    if n < 2:
        raise PreconditionError(f"need at least two generators, got {n}")
    if not is_m_primary(fam):
        raise PreconditionError("family is not m-primary: some pure power X_i^d is missing")
    work = (fam.N + 1) * fam.d**2
    if work > MAX_SCAN_WORK:
        raise PreconditionError(
            f"(N + 1) * d^2 = {work} at N = {fam.N}, d = {fam.d} exceeds "
            f"MAX_SCAN_WORK = {MAX_SCAN_WORK}, the most of any cell generate admits"
        )


def _exponent_masks(rows: Sequence[tuple[int, ...]], num_vars: int, d: int) -> list[list[int]]:
    """ge[i][t] has bit j set when rows[j] has X_i-exponent >= t, for 0 <= t <= d + 1.

    The rows are exponent tuples of degree at most d, so ge[i][d + 1] is 0
    and ge[i][0] holds every row.  Only nonzero exponents set bits, so a row
    costs one OR per variable it has.
    """
    bits = [1 << j for j in range(len(rows))]
    everyone = (1 << len(rows)) - 1
    ge = []
    # no rows still make num_vars (empty) columns
    for column in zip(*rows) if rows else [()] * num_vars:
        at = [0] * (d + 2)
        for t, bit in compress(zip(column, bits), column):
            at[t] |= bit
        above = 0
        for t in range(d, 0, -1):
            above |= at[t]
            at[t] = above
        at[0] = everyone
        ge.append(at)
    return ge


def _degree_tallies(
    rows: Sequence[tuple[int, ...]], d: int
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """The scan kernel: (e, count, k, g) for each degree e in 1..d-1 that has a witness.

    count is the number of witnesses of degree e among the rows, that is of
    maximal multiple-sets whose gcd has degree e; k is their largest
    multiple count and g the first gcd in scan order with that k.  A
    witness's gcd counts only when at least two rows are divisible by it and
    it is exactly the gcd of those rows (otherwise the same subset reappears
    at the larger true gcd, with a smaller margin).  Scan order is canonical
    (descending) order of the gcd's exponent tuple.  The walk keeps this
    tally as it goes: a hit adds one to the count and builds its gcd's
    exponent tuple only when its k is strictly the largest so far, so a tie
    keeps the earlier gcd.

    Rows (all of degree d) are held as bitmasks: ge[i][t] has bit j set when
    row j has X_i-exponent >= t, so the multiples of g are the AND of
    ge[i][g_i] over i and their count is its popcount.  g is their exact gcd
    iff, for every i, some multiple has X_i-exponent exactly g_i, that is
    the multiples do not all lie in ge[i][g_i + 1].  Candidates are walked
    depth-first over exponent prefixes, and a prefix whose multiples number
    fewer than two is dropped with everything below it; once the prefix
    uses up the degree, the other coordinates are 0 and need no walk.  A
    coordinate of an exact gcd is some multiple's exponent, so each
    coordinate runs only over the exponents the rows have there: on the
    line that is at most n values per degree, not d.
    """
    if not rows:
        return
    last = len(rows[0]) - 1
    everyone = (1 << len(rows)) - 1
    ge = _exponent_masks(rows, last + 1, d)
    # rows with a positive X_i-exponent, and the all-zero exponents
    positive = [at[1] for at in ge]
    zero_exps = (0,) * (last + 1)
    # the X_i-exponents rows have, descending: where ge[i] steps down
    values = [[t for t in range(d, -1, -1) if at[t] != at[t + 1]] for at in ge]

    def walk(i: int, rest: int, mask: int, prefix: tuple[int, ...], highs: tuple[int, ...]) -> None:
        # highs holds ge[j][g_j + 1] for the coordinates of prefix
        nonlocal count, top_k, top_g
        at = ge[i]
        if i + 1 < last:
            if not rest:
                for high in (*highs, *positive[i:]):
                    if mask & high == mask:
                        return
                k = mask.bit_count()
                count += 1
                if k > top_k:
                    top_k, top_g = k, (*prefix, *zero_exps[i:])
                return
            for v in values[i]:
                if v > rest:
                    continue
                sub = mask & at[v]
                if sub.bit_count() >= 2:
                    walk(i + 1, rest - v, sub, (*prefix, v), (*highs, at[v + 1]))
            return
        # the last coordinate takes what is left of the degree
        tail = ge[last]
        for v in values[i]:
            if v > rest:
                continue
            w = rest - v
            sub = mask & at[v] & tail[w]
            k = sub.bit_count()
            if k < 2 or sub & at[v + 1] == sub or sub & tail[w + 1] == sub:
                continue
            for high in highs:
                if sub & high == sub:
                    break
            else:
                count += 1
                if k > top_k:
                    top_k, top_g = k, (*prefix, v, w)

    for e in range(1, d):
        count = top_k = 0
        top_g = None
        walk(0, e, everyone, (), ())
        if count:
            yield e, count, top_k, top_g


def _first_vertex_variable(rows: Sequence[tuple[int, ...]], N: int) -> int:
    """The first of the trailing variables X_m..X_N that each divide only
    their own pure power, with m >= 2, or N + 1 when X_N divides another row.

    The rows are m-primary, so every variable's pure power is a row, and a
    variable that only one row holds divides only that power.
    """
    m = N + 1
    while m > 2 and [r[m - 1] for r in rows].count(0) == len(rows) - 1:
        m -= 1
    return m


def _certificate(
    N: int, d: int, n: int, by_degree: tuple[tuple[int, int, int, tuple[int, ...]], ...]
) -> StabilityCertificate:
    # the verdict and the worst witness at n members, read off the summary
    worst = None
    for e, _, k, g in by_degree:
        margin = (d - e) * n + e - d * k
        if worst is None or margin < worst[3]:
            worst = g, e, k, margin
    if worst is None or worst[3] > 0:
        verdict = Verdict.STABLE
    elif worst[3] == 0:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.CRITERION_VIOLATED
    count = sum(entry[1] for entry in by_degree)
    return StabilityCertificate(verdict, N, d, n, count, _gcd_witness(worst), by_degree)


@lru_cache(maxsize=None)
def check_family(fam: MonomialFamily) -> StabilityCertificate:
    """Certify the family via the gcd-candidate scan.

    Raises PreconditionError unless the family has n >= 2 members, is
    m-primary and has (N + 1) * d^2 at most MAX_SCAN_WORK.  A two-member
    family presents a line bundle (rank 1), stable by convention; the scan
    gives that with no special case, since two members are m-primary only
    on the line, {X0^d, X1^d}, where no subset has a nontrivial gcd.

    Verdict logic over the evaluated witnesses, all of which are proper
    subsets: any negative margin gives CriterionViolated; otherwise a zero
    margin gives SemistableCertified; otherwise StableCertified.  The whole
    family always has margin exactly 0 via its trivial gcd and is excluded
    from the strictness requirement.  The worst witness is the first of
    least margin in scan order.

    The scan builds no witness list: its walk yields the certificate's
    by_degree summary, and the verdict and worst witness are read off it.
    A margin (d - e) * n + e - d * k depends on the witness only through
    (e, k), so the summary gives the worst witness at any n.

    Vertex lemma: if each of X_m..X_N divides only its own pure power, then
    any subset holding one of those powers and another member has gcd 1.
    The witnesses are then exactly those of the core, the other rows cut to
    X_0..X_{m-1}, with the same k and g padded with zeros; only n differs.
    So all such trailing variables are stripped in one step (the core keeps
    at least X_0 and X_1), the core is certified through this function,
    which is a cache hit when dispatch built the core's cell, and the
    family's certificate is read off the core's summary at its own n.
    """
    _require_checkable(fam)
    N, d, rows = fam.N, fam.d, fam.rows
    m = _first_vertex_variable(rows, N)
    if m <= N:
        core_rows = tuple(map(itemgetter(slice(m)), rows[:m - N - 1]))
        core = MonomialFamily._from_valid_rows(m - 1, d, core_rows)
        pad = (0,) * (N + 1 - m)
        by_degree = tuple((e, c, k, g + pad) for e, c, k, g in check_family(core).by_degree)
    else:
        by_degree = tuple(_degree_tallies(rows, d))
    return _certificate(N, d, len(rows), by_degree)


def brute_force_check(fam: MonomialFamily) -> StabilityCertificate:
    """Independent oracle: apply the margin inequality to every subset J with |J| >= 2.

    The margin of J depends only on the pair (gcd(J), |J|), so the oracle
    gathers those pairs for all 2^n - 1 non-empty subsets without visiting
    each subset.  It takes the members one at a time and keeps, for each gcd
    of a subset of the members taken so far, the sizes of the subsets that
    have it, as an int with bit k set for size k.  Taking member x keeps
    every entry (the subsets without x), adds (min(g, x), sizes << 1) for
    each entry g (the same subsets with x), and adds x at size 1.  Every
    non-empty subset is x alone, a subset without x, or one with x added, so
    the table ends holding exactly the (gcd(J), |J|) pairs.  That costs at
    most n times G componentwise minima, G the number of distinct gcds.  The
    oracle counts no divisibility and calls nothing of the scan.

    Raises PreconditionError as check_family does, and OracleSizeError when
    the work bound n * min(2^n, C(d+N+1, N+1)) exceeds MAX_ORACLE_WORK: each
    gcd is a non-empty subset's and a monomial of degree <= d in N+1
    variables, so G is at most both.  Every family of up to 20 members is
    admitted.  The bound is taken after the shared preconditions, whose cap
    on (N + 1) * d^2 keeps the binomial small.

    The verdict comes from the raw quantifiers over those pairs: any
    negative margin (any subset) refutes the certificate, a zero margin on a
    proper subset caps it at semistable.  The reported worst witness is a
    minimal-margin proper subset with nontrivial gcd, the same quantity
    check_family minimizes; trivial-gcd subsets are provably slack and the
    full family sits at margin zero.  Ties go to the lower gcd degree and
    then the larger exponent tuple, the scan's order, so both checkers
    report the same witness.  witness_count is the number of distinct
    nontrivial gcds of proper subsets: each such g = gcd(J) is also the gcd
    of all multiples of g, so these are exactly the witnesses check_family
    counts, and by_degree summarises them per degree as check_family does.
    """
    _require_checkable(fam)
    n, d = len(fam), fam.d
    if n * min(2**n, binomial(d + fam.N + 1, fam.N + 1)) > MAX_ORACLE_WORK:
        raise OracleSizeError(
            f"family has {n} members: the oracle's work bound "
            f"n * min(2^n, C(d+N+1, N+1)) at N = {fam.N}, d = {d} "
            f"exceeds MAX_ORACLE_WORK = {MAX_ORACLE_WORK}"
        )
    sizes_by_gcd: dict[tuple[int, ...], int] = {}
    for x in fam.rows:
        for g, sizes in list(sizes_by_gcd.items()):
            h = tuple(map(min, g, x))
            sizes_by_gcd[h] = sizes_by_gcd.get(h, 0) | sizes << 1
        sizes_by_gcd[x] = sizes_by_gcd.get(x, 0) | 0b10
    witnesses = []  # (g, e, k, margin): each nontrivial gcd at its largest proper subset
    negative = False
    zero_proper = False
    for g, sizes in sizes_by_gcd.items():
        e = sum(g)
        witness = None
        for k in range(2, n + 1):
            if not sizes >> k & 1:
                continue
            margin = (d - e) * n + e - d * k
            if margin < 0:
                negative = True
            if k < n:
                if margin == 0:
                    zero_proper = True
                if e >= 1:
                    # the margin falls as k grows: the largest k is g's witness
                    witness = g, e, k, margin
        if witness is not None:
            witnesses.append(witness)
    # the scan's order: degree ascending, then descending exponent tuples
    worst = min(witnesses, key=lambda w: (w[3], w[1], [-v for v in w[0]]), default=None)
    # per degree: the count, and the largest (k, g), g largest meaning first in scan order
    tally: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    for g, e, k, _ in witnesses:
        count, top_k, top_g = tally.get(e, (0, k, g))
        tally[e] = (count + 1, *max((top_k, top_g), (k, g)))
    by_degree = tuple((e, *tally[e]) for e in sorted(tally))
    if negative:
        verdict = Verdict.CRITERION_VIOLATED
    elif zero_proper:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.STABLE
    return StabilityCertificate(
        verdict, fam.N, fam.d, n, len(witnesses), _gcd_witness(worst), by_degree
    )


def splitting_type_p1(fam: MonomialFamily) -> tuple[int, ...]:
    """Exact splitting type of the syzygy bundle on the projective line.

    The family keeps its members in descending exponent-tuple order, which
    on the line is decreasing X0-exponent.  In that order the syzygy module
    is free on the n-1 consecutive-pair relations, so the bundle is a direct
    sum of line bundles O(-e_i), e_i the degree of the least common multiple
    of m_i and m_{i+1}; returns those n-1 twists, which sum to -d*n.
    """
    if fam.N != 1:
        raise DimensionMismatch(f"splitting type needs N = 1, got N = {fam.N}")
    if not is_m_primary(fam):
        raise PreconditionError("family is not m-primary: needs X0^d and X1^d")
    rows = fam.rows
    return tuple(-sum(map(max, a, b)) for a, b in zip(rows, rows[1:]))


def is_semistable_p1(fam: MonomialFamily) -> Verdict:
    """Exact decision on the projective line: semistable iff all twists agree.

    Stable only in the rank-1 case n = 2; a decomposable bundle of rank >= 2
    with equal twists is strictly semistable.
    """
    if len(set(splitting_type_p1(fam))) > 1:
        return Verdict.NOT_SEMISTABLE
    return Verdict.STABLE if len(fam) == 2 else Verdict.SEMISTABLE

