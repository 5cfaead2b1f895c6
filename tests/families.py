"""Reference families and certificates that the tests build from scratch.

The package ships the (2, 2, 5) family and the face rows its routes need
as literals or private helpers; these rebuild them from scratch so the
tests can check the shipped versions against an exhaustive construction.
scan_certificate reads a certificate straight off the scan kernel, with no
core stripped, for the tests (and CI) that check check_family's vertex
lemma.
"""

import itertools

from syzstab.criterion import (
    StabilityCertificate,
    Verdict,
    _gcd_witness,
    check_family,
    is_m_primary,
    witnesses_by_degree,
)
from syzstab.monomials import MonomialFamily, enumerate_monomials


def scan_certificate(fam: MonomialFamily) -> StabilityCertificate:
    """The certificate of one witnesses_by_degree scan over all of the family's rows.

    The worst witness is the first of least margin in scan order, and each
    degree's summary entry is its count, its largest k and the first g with
    that k.  Preconditions are not checked.
    """
    by_degree = []
    worst = None
    for hits in witnesses_by_degree(fam.rows, fam.d):
        if hits:
            top = max(hits, key=lambda w: w[2])
            by_degree.append((top[1], len(hits), top[2], top[0]))
            least = min(hits, key=lambda w: w[3])
            if worst is None or least[3] < worst[3]:
                worst = least
    if worst is None or worst[3] > 0:
        verdict = Verdict.STABLE
    elif worst[3] == 0:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.CRITERION_VIOLATED
    count = sum(entry[1] for entry in by_degree)
    return StabilityCertificate(
        verdict, fam.N, fam.d, len(fam), count, _gcd_witness(worst), tuple(by_degree)
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
