"""Reference families, listings and certificates that the tests build from scratch.

The package ships the (2, 2, 5) family and the face rows its routes need
as literals or private helpers; these rebuild them from scratch so the
tests can check the shipped versions against an exhaustive construction.
reference_scan lists every witness of a set of rows by a flat loop over
all candidate gcds, sharing nothing with the scan kernel but its exponent
masks; reference_tallies and reference_certificate read the kernel's
per-degree tally and check_family's certificate (no core stripped) off
that listing, for the tests and CI that check both.
"""

import itertools
from functools import lru_cache, reduce
from operator import and_, getitem

from syzstab.criterion import (
    StabilityCertificate,
    Verdict,
    _exponent_masks,
    _gcd_witness,
    check_family,
    is_m_primary,
)
from syzstab.monomials import MonomialFamily, enumerate_monomials


@lru_cache(maxsize=None)
def _candidates(N: int, e: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # every degree-e gcd candidate in canonical order, and its exponents
    # each plus one, built once per (N, e)
    return tuple((g, tuple(v + 1 for v in g)) for g in enumerate_monomials(N, e))


def reference_scan(rows, d):
    """Every witness of the rows as (g, e, k, margin), in scan order.

    Scan order is degree e = 1..d-1 ascending, then canonical (descending)
    order of g.  Each degree-e monomial g is a candidate: its multiples are
    the AND of the exponent masks at g's exponents, and g is a witness when
    it divides k >= 2 rows and is exactly their gcd, that is for each i some
    multiple has X_i-exponent g_i.  The margin is that of a family of
    len(rows) generators.  Rows may come in any order.
    """
    if not rows:
        return
    N, n = len(rows[0]) - 1, len(rows)
    ge = _exponent_masks(rows, N + 1, d)
    for e in range(1, d):
        for g, above in _candidates(N, e):
            sub = reduce(and_, map(getitem, ge, g))
            k = sub.bit_count()
            # g is their gcd unless some X_i-exponent above g_i keeps them all
            if k >= 2 and sub not in map(and_, map(getitem, ge, above), itertools.repeat(sub)):
                yield g, e, k, (d - e) * n + e - d * k


def reference_tallies(witnesses) -> tuple:
    """Per witness degree e, (e, count, k, g) from a listing in scan order.

    count is the number of witnesses of degree e, k their largest multiple
    count and g the first of them with that k.
    """
    tally: dict[int, tuple] = {}
    for g, e, k, _ in witnesses:
        count, top_k, top_g = tally.get(e, (0, 0, None))
        tally[e] = (count + 1, k, g) if k > top_k else (count + 1, top_k, top_g)
    return tuple((e, *entry) for e, entry in tally.items())


def reference_certificate(fam: MonomialFamily) -> StabilityCertificate:
    """check_family's certificate, read off reference_scan over all of the family's rows.

    The worst witness is the first of least margin in scan order.
    Preconditions are not checked.
    """
    witnesses = list(reference_scan(fam.rows, fam.d))
    least = min((w[3] for w in witnesses), default=1)
    worst = next((w for w in witnesses if w[3] == least), None)
    if least > 0:
        verdict = Verdict.STABLE
    elif least == 0:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.CRITERION_VIOLATED
    return StabilityCertificate(
        verdict, fam.N, fam.d, len(fam), len(witnesses), _gcd_witness(worst),
        reference_tallies(witnesses),
    )


def with_vertices(core: MonomialFamily, t: int) -> MonomialFamily:
    """The core's rows padded with t zeros, plus the pure powers of the t new variables."""
    N, d = core.N + t, core.d
    rows = [r + (0,) * t for r in core.rows]
    rows += [(0,) * i + (d,) + (0,) * (N - i) for i in range(core.N + 1, N + 1)]
    return MonomialFamily(N, d, rows)


def survey_225_candidates() -> list[tuple[MonomialFamily, StabilityCertificate | None]]:
    """All six 5-subsets of the degree-2 quadrics in three variables.

    Returns (family, certificate) pairs in canonical order; the certificate
    is None for the three subsets that are not m-primary and hence present
    no bundle to certify.
    """
    out = []
    for combo in itertools.combinations(enumerate_monomials(2, 2), 5):
        fam = MonomialFamily.from_exponents(combo)
        out.append((fam, check_family(fam) if is_m_primary(fam) else None))
    return out


def faces_family(N: int, d: int) -> MonomialFamily:
    """The union of all N+1 faces: monomials with at least one zero exponent.

    Cardinality is C(d+N, N) - C(d-1, N); the subtracted term counts interior
    points and vanishes when d <= N.
    """
    return MonomialFamily.from_exponents(m for m in enumerate_monomials(N, d) if 0 in m)
