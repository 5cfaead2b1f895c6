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
full multiple-set, which is the worst subset sharing that gcd.

The test is sufficient, not necessary, for N >= 2: CriterionViolated makes no
claim of non-semistability there.  On the projective line the splitting type
decides exactly, and both the criterion and the splitting decider agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .monomials import MAX_DEGREE_MONOMIALS, DimensionMismatch, Monomial, MonomialFamily

# n * 2^n at n = 20: the most componentwise minima the oracle may take
MAX_ORACLE_WORK = 20 * 2**20

# The scan costs about (N + 1) * d^2.  The largest value over the cells that
# generate admits is on the line at d = MAX_DEGREE_MONOMIALS - 1; no other
# admitted cell has both N + 1 and d that large.
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
    verdict: Verdict
    N: int
    d: int
    n: int
    witness_count: int
    worst: GcdWitness | None

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
    d = fam.d
    return all(
        tuple(d if j == i else 0 for j in range(fam.N + 1)) in exps
        for i in range(fam.N + 1)
    )


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

    The rows are exponent tuples of degree at most d, so ge[i][d + 1] is 0.
    """
    ge = []
    for i in range(num_vars):
        at = [0] * (d + 2)
        for j, row in enumerate(rows):
            at[row[i]] |= 1 << j
        for t in range(d, -1, -1):
            at[t] |= at[t + 1]
        ge.append(at)
    return ge


def scan_witnesses(
    members: Sequence[Monomial], d: int
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Yield (g, e, k, margin) for every maximal multiple-set among the members.

    g is the gcd's exponent tuple, e its degree and k the number of members
    it divides.

    Candidates g run over all monomials of degree 1..d-1, degree ascending
    and then in canonical order; a candidate counts only when at least two
    members are divisible by g and g is exactly the gcd of those members
    (otherwise the same subset reappears at the larger true gcd, with a
    smaller margin).  Margins are those of a family of len(members)
    generators.

    Members (all of degree d) are held as bitmasks: ge[i][t] has bit j set
    when member j has X_i-exponent >= t, so the multiples of g are the AND of
    ge[i][g_i] over i and their count is its popcount.  g is their exact gcd
    iff, for every i, some multiple has X_i-exponent exactly g_i, i.e. the
    multiples are not all inside ge[i][g_i + 1].  Candidates are walked
    depth-first over exponent prefixes, and a prefix whose multiples number
    fewer than two is dropped with everything below it.
    """
    if not members:
        return
    n = len(members)
    last = members[0].num_vars - 1
    everyone = (1 << n) - 1
    ge = _exponent_masks([m.exponents for m in members], last + 1, d)

    def walk(i: int, rest: int, mask: int, prefix: tuple[int, ...], out: list) -> None:
        # coordinate i runs from rest down to 0: canonical (descending) order
        row = ge[i]
        if i + 1 < last:
            for v in range(rest, -1, -1):
                sub = mask & row[v]
                if sub.bit_count() >= 2:
                    walk(i + 1, rest - v, sub, (*prefix, v), out)
            return
        # the last coordinate takes what is left of the degree
        tail = ge[last]
        for v in range(rest, -1, -1):
            sub = mask & row[v] & tail[rest - v]
            if sub.bit_count() < 2:
                continue
            g = (*prefix, v, rest - v)
            for j, g_j in enumerate(g):
                if not sub & ~ge[j][g_j + 1]:
                    break
            else:
                out.append((g, sub.bit_count()))

    for e in range(1, d):
        hits: list[tuple[tuple[int, ...], int]] = []
        walk(0, e, everyone, (), hits)
        for g, count in hits:
            margin = (d - e) * n + e - d * count
            yield g, e, count, margin


@lru_cache(maxsize=None)
def check_family(fam: MonomialFamily) -> StabilityCertificate:
    """Certify the family via the gcd-candidate scan.

    Raises PreconditionError unless the family has n >= 2 members, is
    m-primary and has (N + 1) * d^2 at most MAX_SCAN_WORK.  A two-member
    family presents a line bundle (rank 1) and is StableCertified by
    convention without evaluating the criterion.

    Verdict logic over the evaluated witnesses, all of which are proper
    subsets: any negative margin gives CriterionViolated; otherwise a zero
    margin gives SemistableCertified; otherwise StableCertified.  The whole
    family always has margin exactly 0 via its trivial gcd and is excluded
    from the strictness requirement.
    """
    _require_checkable(fam)
    n = len(fam)
    if n == 2:
        return StabilityCertificate(Verdict.STABLE, fam.N, fam.d, n, 0, None)
    count = 0
    worst = None
    for w in scan_witnesses(fam.members, fam.d):
        count += 1
        if worst is None or w[3] < worst[3]:
            worst = w
    if worst is None or worst[3] > 0:
        verdict = Verdict.STABLE
    elif worst[3] == 0:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.CRITERION_VIOLATED
    return StabilityCertificate(verdict, fam.N, fam.d, n, count, _gcd_witness(worst))


def brute_force_check(fam: MonomialFamily) -> StabilityCertificate:
    """Independent oracle: apply the margin inequality to every subset J with |J| >= 2.

    The margin of J depends only on the pair (gcd(J), |J|), so the oracle
    collects those pairs for all 2^n - 1 non-empty subsets without visiting
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
    admitted.

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
    counts.
    """
    _require_checkable(fam)
    n, d = len(fam), fam.d
    cap = MAX_ORACLE_WORK // n
    if n >= cap.bit_length():  # 2^n > cap, so C(d+N+1, N+1) must fit
        gcds = 1
        for i in range(1, fam.N + 2):
            # C(d+i, i) grows with i: stop once it passes the cap, before a
            # huge d from the file header makes the product large
            gcds = gcds * (d + i) // i
            if gcds > cap:
                raise OracleSizeError(
                    f"family has {n} members: the oracle's work bound "
                    f"n * min(2^n, C(d+N+1, N+1)) at N = {fam.N}, d = {d} "
                    f"exceeds MAX_ORACLE_WORK = {MAX_ORACLE_WORK}"
                )
    sizes_by_gcd: dict[tuple[int, ...], int] = {}
    for m in fam.members:
        x = m.exponents
        for g, sizes in list(sizes_by_gcd.items()):
            h = tuple(map(min, g, x))
            sizes_by_gcd[h] = sizes_by_gcd.get(h, 0) | sizes << 1
        sizes_by_gcd[x] = sizes_by_gcd.get(x, 0) | 0b10
    witnesses = []  # (g, e, k, margin), as scan_witnesses yields
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
    if negative:
        verdict = Verdict.CRITERION_VIOLATED
    elif zero_proper:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.STABLE
    return StabilityCertificate(verdict, fam.N, fam.d, n, len(witnesses), _gcd_witness(worst))


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
    rows = [m.exponents for m in fam.members]
    return tuple(-sum(map(max, a, b)) for a, b in zip(rows, rows[1:]))


def is_semistable_p1(fam: MonomialFamily) -> Verdict:
    """Exact decision on the projective line: semistable iff all twists agree.

    Stable only in the rank-1 case n = 2; a decomposable bundle of rank >= 2
    with equal twists is strictly semistable.
    """
    if len(set(splitting_type_p1(fam))) > 1:
        return Verdict.NOT_SEMISTABLE
    return Verdict.STABLE if len(fam) == 2 else Verdict.SEMISTABLE

