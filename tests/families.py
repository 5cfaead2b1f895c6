"""Reference families that the tests build by enumeration.

The package ships the (2, 2, 5) family and the face rows its routes need
as literals or private helpers; these rebuild them from scratch so the
tests can check the shipped versions against an exhaustive construction.
"""

import itertools

from syzstab.criterion import StabilityCertificate, check_family, is_m_primary
from syzstab.monomials import MonomialFamily, enumerate_monomials


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
