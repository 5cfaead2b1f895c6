"""Reference families, listings and certificates that the tests build from scratch.

The package builds the (2, 2, 5) family by its plane search and every face
family by one face order; these rebuild them from scratch so the tests can
check the shipped versions against an exhaustive construction.
full_family is every monomial of a degree, faces_family those on a face.
layered_prop_faces is Brenner's face-and-layer family built part by part
from the bracket coordinates of decompose_faces_case, and faces_and_dots all
faces plus the diagonal dots: the references for the package's
gen_prop_faces, which takes both as prefixes of one face order.
reference_scan lists every witness of a set of rows by a flat loop over
all candidate gcds, sharing nothing with the scan kernel but its exponent
masks; reference_tallies and reference_certificate read the kernel's
per-degree tally and check_family's certificate (no core stripped) off
that listing, for the tests and CI that check both.
"""

import itertools
from functools import lru_cache, reduce
from operator import and_, getitem

from syzstab.constructions import InternalConsistencyError
from syzstab.criterion import (
    StabilityCertificate,
    Verdict,
    _exponent_masks,
    _gcd_witness,
    check_family,
    is_m_primary,
)
from syzstab.monomials import MonomialFamily, binomial, enumerate_monomials


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


def full_family(N: int, d: int) -> MonomialFamily:
    """All C(d+N, N) monomials of degree d, the full hypertetrahedron."""
    return MonomialFamily.from_exponents(enumerate_monomials(N, d))


def faces_family(N: int, d: int) -> MonomialFamily:
    """The union of all N+1 faces: monomials with at least one zero exponent.

    Cardinality is C(d+N, N) - C(d-1, N); the subtracted term counts interior
    points and vanishes when d <= N.
    """
    return MonomialFamily.from_exponents(m for m in enumerate_monomials(N, d) if 0 in m)


def faces_and_dots(N: int, d: int, n: int) -> MonomialFamily:
    """All faces plus the first n - |F| diagonal dots X_j^(d-N) * prod(X_t, t != j), j = 0..N."""
    rows = faces_family(N, d).rows
    dots = [(1,) * j + (d - N,) + (1,) * (N - j) for j in range(n - len(rows))]
    return MonomialFamily.from_exponents(rows + tuple(dots))


def _last_faces_count(N: int, d: int, r: int) -> int:
    # monomials lying on at least one of the last r faces
    return binomial(d + N, N) - binomial(d - r + N, N)


def decompose_faces_case(N: int, d: int, n: int) -> tuple[int, int, int]:
    """Layer coordinates (r, l, i) locating n in the face-layer brackets.

    r counts whole faces taken, l the depth of the partial layer, i how many
    monomials of the capped sub-layer are included.  The bracket for (r, l) is
        |I'_r| + C(l+N-1, N-1) < n <= |I'_r| + C(l+N, N-1)
    with |I'_r| = C(d+N, N) - C(d-r+N, N), for 1 <= r <= min(d-1, N) and
    -1 <= l <= d-r-1.  l = -1 is the degenerate bottom bracket: the partial
    layer is empty and the sub-layer contributes the single monomial
    X_{N-r+1}...X_{N-1}*X_N^{d-r+1}.  Without it the brackets would skip
    n = |I'_r| + 1 for every r >= 2.  These tile the PropFaces range
    exactly; scanning r then l ascending still verifies membership and
    raises InternalConsistencyError on a gap.
    """
    for r in range(1, min(d - 1, N) + 1):
        base = _last_faces_count(N, d, r)
        for l in range(-1, d - r):
            lo = base + binomial(l + N - 1, N - 1)
            hi = base + binomial(l + N, N - 1)
            if lo < n <= hi:
                return r, l, n - lo
    raise InternalConsistencyError(
        f"face-layer brackets do not cover n={n} at (N, d) = ({N}, {d})"
    )


def layered_prop_faces(N: int, d: int, n: int) -> MonomialFamily:
    """Brenner's face-and-layer family, built part by part as the paper states it.

    With (r, l, i) = decompose_faces_case(N, d, n) the family is the union of

      I'_r    all monomials on one of the last r faces,
      I''     X_{N-r+1}...X_{N-1} * X_N^(d-r-l+1) * f, f of degree l
              avoiding X_{N-r},
      I'''    X_{N-r+1}...X_{N-1} * X_N^(d-r-l) * f, f of degree l+1
              avoiding X_{N-r} and X_N, taking the first i such f in
              canonical order (largest X0-exponent first).
    """
    r, l, i = decompose_faces_case(N, d, n)
    rows = [m for m in enumerate_monomials(N, d) if 0 in m[N - r + 1:]]

    def layer(xn_exponent: int, pool: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        # f has an exponent for every variable but X_{N-r}; the row is f times
        # X_{N-r+1}...X_{N-1} * X_N^xn_exponent, with X_{N-r}-exponent 0
        base = (1,) * (r - 1) + (xn_exponent,)
        return [(*f[:N - r], 0, *(a + b for a, b in zip(f[N - r:], base))) for f in pool]

    rows += layer(d - r - l + 1, enumerate_monomials(N - 1, l))
    # f also avoids X_N: a trailing zero keeps canonical order, so these
    # are the canonical first i
    rows += layer(d - r - l, [(*f, 0) for f in enumerate_monomials(N - 2, l + 1)[:i]])
    return MonomialFamily._from_valid_rows(N, d, rows)
