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
the certificate off it.  check_family keeps a record of the last family
scanned (its rows, masks and tally) in each of the few columns (N, d)
scanned in last, and looks there first: a family with the recorded rows
gets the record's tally, and a family one row larger that holds every
recorded row, such as the next face cell of a sweep column, skips the
preconditions and gets its tally by the added-row walk over the new row's
divisors alone.  check_family.cache_clear() drops the records with the
cache.

Two more entry points certify a family from the family it was built from,
as dispatch builds most cells, without deriving it again:
check_vertex_family a face-vertex family from its base's certificate, and
check_grown_family a family one row larger from the scan record of the
family it grew from.  Each compares the rows against that source at C speed
and hands any other family to check_family.  The kernel and the oracle both
read the family's exponent rows; the only Monomial built here is a
certificate's worst gcd.

The test is sufficient, not necessary, for N >= 2: CriterionViolated makes no
claim of non-semistability there.  On the projective line the splitting type
decides exactly, and both the criterion and the splitting decider agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, repeat
from operator import add, eq, itemgetter, ne
from typing import Iterator, Sequence

from .monomials import MAX_DEGREE_MONOMIALS, DimensionMismatch, Monomial, MonomialFamily, binomial

# n * 2^n at n = 20: the most componentwise minima, each one AND of two
# exponent codes, the oracle may take
MAX_ORACLE_WORK = 20 * 2**20

# The largest (N + 1) * d^2 of any cell generate admits: the line at
# d = MAX_DEGREE_MONOMIALS - 1, since no other admitted cell has both N + 1
# and d that large.  It does not bound the walk's nodes, which grow with the
# candidate gcds: a 3000-row plane file at d = 800 passes it and takes about
# 100 s to check on a 2-core host.
MAX_SCAN_WORK = 2 * (MAX_DEGREE_MONOMIALS - 1) ** 2

# The most variables the full walk takes, after check_family strips the
# vertex variables: the walk recurses once per variable, so a wider family
# would overflow the interpreter's stack.  Every core that generate builds
# at d >= 2 has at most 140 variables, at N = 139; at d = 1 the core has 2.
MAX_WALK_VARIABLES = 512


class PreconditionError(ValueError):
    """The family fails a checker precondition: fewer than two members, not
    m-primary, a degree whose scan would exceed MAX_SCAN_WORK, or a core
    with more than MAX_WALK_VARIABLES variables."""


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
    ge: Sequence[Sequence[int]], d: int
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

    The rows (all of degree d) come as the bitmasks _exponent_masks builds,
    which the caller keeps: ge[i][t] has bit j set when row j has
    X_i-exponent >= t, so the multiples of g are the AND of ge[i][g_i] over
    i and their count is its popcount.  g is their exact gcd iff, for every
    i, some multiple has X_i-exponent exactly g_i, that is the multiples do
    not all lie in ge[i][g_i + 1].  Candidates are walked
    depth-first over exponent prefixes, and a prefix whose multiples number
    fewer than two is dropped with everything below it; once the prefix
    uses up the degree, the other coordinates are 0 and need no walk.  A
    coordinate of an exact gcd is some multiple's exponent, so each
    coordinate runs only over the exponents the rows have there: on the
    line that is at most n values per degree, not d.
    """
    last = len(ge) - 1
    everyone = ge[0][0]
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


def _added_row_tallies(
    ge: Sequence[Sequence[int]],
    by_degree: tuple[tuple[int, int, int, tuple[int, ...]], ...],
    row: tuple[int, ...],
    d: int,
) -> tuple[list[list[int]], tuple[tuple[int, int, int, tuple[int, ...]], ...]]:
    """The masks and the kernel's tally once row joins the rows that ge and by_degree describe.

    Only row's divisors change: an old witness that divides row gains one
    multiple and stays the exact gcd of its multiples, a divisor of row may
    become a witness, and every other witness keeps its k.  So this walks
    row's divisors alone, on the old masks with row's bit added (the bit
    after the old rows'), and merges what it finds into the old tally.  At a
    degree where the divisors' largest k equals the old largest k, the old
    first gcd does not divide row, so the first of the two in scan order,
    the larger tuple, keeps the entry.  A divisor counts as a new witness
    unless it was one before: at least two multiples without row, and
    exactly their gcd.  The walk goes depth-first over exponent prefixes,
    each coordinate descending, which is scan order.  A prefix with fewer
    than two multiples, or none of whose multiples has X_i-exponent exactly
    g_i, is dropped with every divisor that extends it, since those have
    fewer multiples still.
    """
    bit = ge[0][0] + 1
    ge = [[*(mask | bit for mask in at[:v + 1]), *at[v + 1:]] for at, v in zip(ge, row)]
    last = len(row) - 1
    found: dict[int, list] = {}  # e: [new witnesses, k, g]

    def walk(i: int, e: int, mask: int, prefix: tuple[int, ...], highs: tuple[int, ...]) -> None:
        at = ge[i]
        for v in range(row[i], -1, -1):
            sub = mask & at[v]
            high = at[v + 1]
            k = sub.bit_count()
            if k < 2 or sub & high == sub:
                continue
            if i < last:
                walk(i + 1, e + v, sub, (*prefix, v), (*highs, high))
                continue
            if not e + v:
                continue
            # g is a witness unless its multiples all lie above it in one
            # coordinate, and new unless those without row, old, were at
            # least two with g their exact gcd
            old = sub ^ bit
            new = k == 2 or old & high == old
            for h in highs:
                if old & h == old:
                    if sub & h == sub:
                        break
                    new = True
            else:
                entry = found.get(e + v)
                if entry is None:
                    found[e + v] = [new, k, (*prefix, v)]
                else:
                    entry[0] += new
                    if k > entry[1]:
                        entry[1:] = k, (*prefix, v)

    walk(0, 0, (bit << 1) - 1, (), ())
    tally = {e: (count, k, g) for e, count, k, g in by_degree}
    for e, (fresh, k, g) in found.items():
        count, old_k, old_g = tally.get(e, (0, 0, None))
        if k < old_k or k == old_k and old_g > g:
            k, g = old_k, old_g
        tally[e] = count + fresh, k, g
    return ge, tuple((e, *tally[e]) for e in sorted(tally))


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


def _vertex_certificate(
    N: int, d: int, n: int, core_tallies: tuple[tuple[int, int, int, tuple[int, ...]], ...]
) -> StabilityCertificate:
    # the certificate at n members of a family in N + 1 variables whose
    # witnesses are its core's (the vertex lemma, check_family): the core's
    # tally with each gcd padded with zeros
    by_degree = tuple((e, c, k, g + (0,) * (N + 1 - len(g))) for e, c, k, g in core_tallies)
    return _certificate(N, d, n, by_degree)


# How many columns (N, d) keep a record, of their last scan here and of
# their face order in constructions.  A recursive cell certifies its inner
# cell in another column, so a column certified in n order moves among a
# few: 4 is the least window that gives (4, 12), (5, 9) and (3, 14) as few
# full walks and face-order builds as 16 does.  It holds at most four scan
# records, each (N + 1)(d + 2) masks of at most n bits (163 KiB at
# (3, 37, 9880)), and four face orders of at most 10,000 rows each
# (11.4 MiB at (139, 2)).
_COLUMN_WINDOW = 4

# The records, newest first, at most one per column: (N, d, rows, masks,
# by_degree) of the last family scanned in that column, its masks holding
# one bit per row in the order the rows were recorded.  One tuple, replaced
# in one assignment, so a thread reads either the old window or the new
# one, never a mix, and each record is whole.
_last_scan: tuple = ()


def _remember(window: tuple, old: tuple | None, record: tuple) -> None:
    # the window read as window, with record first in place of old
    global _last_scan
    _last_scan = (record, *(r for r in window if r is not old))[:_COLUMN_WINDOW]


def _added_row_at(rows: tuple[tuple[int, ...], ...], old: tuple[tuple[int, ...], ...]) -> int | None:
    """The index in rows of the one row rows adds to old; None unless rows is old plus one row.

    Both are in canonical order.  The first position where they differ is
    found at C speed, by compress over count() and map(ne, rows, old), or is
    len(old) when old is a prefix of rows; one slice comparison confirms
    that the rows after it are the rest of old.
    """
    if len(rows) != len(old) + 1:
        return None
    i = next(compress(count(), map(ne, rows, old)), len(old))
    return i if rows[i + 1:] == old[i:] else None


def _record_added_row(
    window: tuple, record: tuple, rows: tuple[tuple[int, ...], ...], i: int
) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """The tally of rows, record's family plus its row i, by the added-row walk.

    The window, as read, then keeps the record of rows in place of record.
    """
    N, d, _, ge, by_degree = record
    ge, by_degree = _added_row_tallies(ge, by_degree, rows[i], d)
    _remember(window, record, (N, d, rows, ge, by_degree))
    return by_degree


@lru_cache(maxsize=None)
def check_family(fam: MonomialFamily) -> StabilityCertificate:
    """Certify the family via the gcd-candidate scan.

    Raises PreconditionError unless the family has n >= 2 members, is
    m-primary and has (N + 1) * d^2 at most MAX_SCAN_WORK, and, before the
    full walk, when its core (below) has more than MAX_WALK_VARIABLES
    variables.  A two-member family presents a line bundle (rank 1), stable
    by convention; the scan gives that with no special case, since two
    members are m-primary only on the line, {X0^d, X1^d}, where no subset
    has a nontrivial gcd.

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

    Records, looked at first: the function keeps a record of the last
    family scanned in each of the _COLUMN_WINDOW columns (N, d) scanned in
    most recently, with its masks and summary.  A family with the rows of
    its column's record gets the record's summary.  A family with one row
    more than the record and every recorded row (the next cell of a face
    column, whose families are prefixes of one face order) gets its summary
    by a walk over the new row's divisors alone, _added_row_tallies; the
    new row is found by _added_row_at.  Such families skip the
    preconditions and the vertex test, and rightly: the record holds only
    families that passed every precondition and had no vertex variable.
    One row more keeps the pure powers, so the family stays m-primary,
    with n >= 3 and the same (N + 1) * d^2; X_N still divides a row other
    than its own pure power, so the family still has no vertex variable.
    Any other family is checked and gets the full walk.
    check_family.cache_clear() drops the records along with the cache, so
    a certification after it never reads an earlier one.

    Vertex lemma: if each of X_m..X_N divides only its own pure power, then
    any subset holding one of those powers and another member has gcd 1.
    The witnesses are then exactly those of the core, the other rows cut to
    X_0..X_{m-1}, with the same k and g padded with zeros; only n differs.
    So all such trailing variables are stripped in one step (the core keeps
    at least X_0 and X_1), the core is certified through this function,
    which is a cache hit or its column's record when dispatch built the
    core's cell, and the family's certificate is read off the core's
    summary at its own n.  The trailing pure powers are the last rows, and
    the others have zeros in the stripped coordinates, so the cut rows keep
    their canonical order and the core is built from them unsorted.

    check_vertex_family and check_grown_family certify a family from the
    family it was built from; they fall back on this function, and what
    they certify is not in its cache.
    """
    N, d, rows = fam.N, fam.d, fam.rows
    n = len(rows)
    window = _last_scan
    record = next((r for r in window if r[0] == N and r[1] == d), None)
    if record is not None:
        if record[2] == rows:
            return _certificate(N, d, n, record[4])
        i = _added_row_at(rows, record[2])
        if i is not None:
            return _certificate(N, d, n, _record_added_row(window, record, rows, i))
    _require_checkable(fam)
    m = _first_vertex_variable(rows, N)
    if m <= N:
        core_rows = tuple(map(itemgetter(slice(m)), rows[:m - N - 1]))
        core = MonomialFamily._from_canonical_rows(m - 1, d, core_rows)
        return _vertex_certificate(N, d, n, check_family(core).by_degree)
    if N >= MAX_WALK_VARIABLES:
        raise PreconditionError(
            f"the scan would walk {N + 1} variables, more than "
            f"MAX_WALK_VARIABLES = {MAX_WALK_VARIABLES}"
        )
    ge = _exponent_masks(rows, N + 1, d)
    by_degree = tuple(_degree_tallies(ge, d))
    _remember(window, record, (N, d, rows, ge, by_degree))
    return _certificate(N, d, n, by_degree)


def _clear_checks(clear=check_family.cache_clear) -> None:
    """check_family.cache_clear: empty the cache and drop the scan records."""
    global _last_scan
    _last_scan = ()
    clear()


check_family.cache_clear = _clear_checks


def check_vertex_family(
    fam: MonomialFamily, base: MonomialFamily, base_cert: StabilityCertificate
) -> StabilityCertificate:
    """Certify fam as base with vertices added, from base_cert, base's certificate.

    fam must be the face-vertex family on base (Brenner's face-vertex
    lemma): base's rows padded with N - M zeros, then the N - M vertex
    powers X_{M+1}^d..X_N^d, where N and M are the two families' N.  That
    is checked with tuple comparisons, and base_cert must carry base's N, d
    and member count.  Each new vertex then divides only its own power, so
    by the vertex lemma (check_family) fam's witnesses are base's with
    their gcds padded, and the certificate is read off base_cert's summary
    at fam's n, as check_family reads a core's.  fam passes check_family's
    preconditions: it keeps base's pure powers and adds the others, and
    (N + 1) * d^2 is tested.  Any other family, or a base_cert that does
    not fit, goes to check_family.
    """
    N, d, rows = fam.N, fam.d, fam.rows
    M, m = base.N, len(base.rows)
    if (
        M < N
        and len(rows) == m + N - M
        and (base.d, base_cert.N, base_cert.d, base_cert.n) == (d, M, d, m)
        and (N + 1) * d**2 <= MAX_SCAN_WORK
        and rows[m:] == tuple((0,) * i + (d,) + (0,) * (N - i) for i in range(M + 1, N + 1))
        and all(map(eq, rows, map(add, base.rows, repeat((0,) * (N - M)))))
    ):
        return _vertex_certificate(N, d, len(rows), base_cert.by_degree)
    return check_family(fam)


def check_grown_family(fam: MonomialFamily, before: MonomialFamily) -> StabilityCertificate:
    """Certify fam as before plus one row, from before's scan record.

    The record is the window's whose rows are before's rows tuple itself,
    so before must be the family that was scanned: the last one certified
    in its column by check_family or by this function.  _added_row_at then
    confirms that fam is before plus one row, and fam's summary comes from
    the added-row walk over that row, with the window written in one
    assignment, as check_family's own record test does.  With no such
    record, or any other family, fam goes to check_family.
    """
    N, d, rows = fam.N, fam.d, fam.rows
    window = _last_scan
    old = before.rows
    record = next((r for r in window if r[2] is old), None)
    if record is not None and record[0] == N and record[1] == d:
        i = _added_row_at(rows, old)
        if i is not None:
            return _certificate(N, d, len(rows), _record_added_row(window, record, rows, i))
    return check_family(fam)


def _require_oracle_work(fam: MonomialFamily) -> None:
    """The oracle's refusals: the shared preconditions, then its work bound."""
    _require_checkable(fam)
    n, d = len(fam), fam.d
    if n * min(2**n, binomial(d + fam.N + 1, fam.N + 1)) > MAX_ORACLE_WORK:
        raise OracleSizeError(
            f"family has {n} members: the oracle's work bound "
            f"n * min(2^n, C(d+N+1, N+1)) at N = {fam.N}, d = {d} "
            f"exceeds MAX_ORACLE_WORK = {MAX_ORACLE_WORK}"
        )


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

    The table holds each monomial as its exponent code, an int whose field
    for X_i, d bits wide from bit (N - i) * d, holds x_i ones:
    ((1 << x_i) - 1) << ((N - i) * d).  An exponent is at most d, so the
    fields do not overlap, and the componentwise minimum min(g, x) is the
    AND of the two codes.  A code's degree is its popcount.  X_0 sits in the
    highest field, so codes compare as ints the way their exponent tuples
    compare, and the oracle ranks witnesses by their codes: it decodes a
    code to its exponent tuple, one popcount per field, only for the entries
    it reports, the worst witness and each degree's by_degree entry.

    Raises PreconditionError as check_family does, and OracleSizeError when
    the work bound n * min(2^n, C(d+N+1, N+1)) exceeds MAX_ORACLE_WORK: each
    gcd is a non-empty subset's and a monomial of degree <= d in N+1
    variables, so G is at most both.  Every family of up to 20 members is
    admitted.  The bound is taken after the shared preconditions, whose cap
    on (N + 1) * d^2 keeps the binomial small.

    The verdict comes from the raw quantifiers over those pairs.  For each
    gcd the oracle visits only the sizes that occur, the set bits of its
    sizes from 2 up, largest first: any negative margin (any subset)
    refutes the certificate, a zero margin on a proper subset caps it at
    semistable, and the largest proper size is the gcd's witness.  The
    reported worst witness is a minimal-margin proper subset with nontrivial
    gcd, the same quantity check_family minimizes; trivial-gcd subsets are
    provably slack and the full family sits at margin zero.  Ties go to the
    lower gcd degree and then the larger exponent tuple, the scan's order,
    so both checkers report the same witness.  witness_count is the number
    of distinct nontrivial gcds of proper subsets: each such g = gcd(J) is
    also the gcd of all multiples of g, so these are exactly the witnesses
    check_family counts, and by_degree summarises them per degree as
    check_family does.
    """
    _require_oracle_work(fam)
    n, d = len(fam), fam.d
    # X_0 in the highest field: codes order as exponent tuples do
    shifts = range(fam.N * d, -1, -d)
    field = (1 << d) - 1
    sizes_by_gcd: dict[int, int] = {}
    get = sizes_by_gcd.get
    for x in fam.rows:
        c = sum(((1 << v) - 1) << shift for shift, v in zip(shifts, x))
        for g, sizes in list(sizes_by_gcd.items()):
            h = g & c
            sizes_by_gcd[h] = get(h, 0) | sizes << 1
        sizes_by_gcd[c] = get(c, 0) | 0b10
    witness_count = 0
    least = None  # the least (margin, e, -code, k): the worst witness in the scan's order
    tally: dict[int, tuple[int, int, int]] = {}  # e: (count, k, code), the largest (k, code)
    negative = False
    zero_proper = False
    for c, sizes in sizes_by_gcd.items():
        e = c.bit_count()
        witness = None
        sizes &= ~0b11  # sizes 2 and up
        while sizes:
            k = sizes.bit_length() - 1
            sizes ^= 1 << k
            margin = (d - e) * n + e - d * k
            if margin < 0:
                negative = True
            if k < n:
                if margin == 0:
                    zero_proper = True
                if e >= 1 and witness is None:
                    # the margin falls as k grows: the largest k is the witness
                    witness = margin, e, -c, k
        if witness is not None:
            witness_count += 1
            if least is None or witness < least:
                least = witness
            k = witness[3]
            count, top_k, top_c = tally.get(e, (0, k, c))
            tally[e] = (count + 1, *max((top_k, top_c), (k, c)))

    def decode(code: int) -> tuple[int, ...]:
        return tuple((code >> shift & field).bit_count() for shift in shifts)

    by_degree = tuple((e, count, k, decode(c)) for e, (count, k, c) in sorted(tally.items()))
    worst = None
    if least is not None:
        margin, e, code, k = least
        worst = decode(-code), e, k, margin
    if negative:
        verdict = Verdict.CRITERION_VIOLATED
    elif zero_proper:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.STABLE
    return StabilityCertificate(
        verdict, fam.N, fam.d, n, witness_count, _gcd_witness(worst), by_degree
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

