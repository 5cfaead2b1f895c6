"""Constructive generators covering every admissible (N, d, n) cell.

Each generator returns a family whose stability certificate is checked at
dispatch time, so a construction bug cannot silently ship an uncertified
family.  The cells are covered by disjoint n-ranges:

  N = 1           step families on the projective line (exist iff (n-1) | d)
  N = 2           deterministic search, plus the one strictly semistable cell
  N >= 3, small n stable family one dimension down, plus the opposite vertex
  middle n        whole faces plus one partial layer and a capped sub-layer
  top n           the full hypertetrahedron, reached directly or by recursion
  d > N+1         all faces plus interior diagonal points, or all faces plus
                  an interior copy of a degree-(d-N-1) family (recursion in d)

classify_route alone knows these ranges; each generator assumes it is called
on a cell that classify_route assigned to it, and checks nothing itself.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

from .criterion import (
    StabilityCertificate,
    Verdict,
    check_family,
    is_m_primary,
    is_semistable_p1,
    scan_witnesses,
)
from .monomials import (
    Monomial,
    MonomialFamily,
    binomial,
    enumerate_monomials,
    enumerate_monomials_without,
    faces_family,
    full_family,
)


class NoFamilyExists(Exception):
    """The requested cell provably has no semistable family."""


class SearchExhausted(Exception):
    """The deterministic search gave up without a certified family."""


class RoutingError(ValueError):
    """The requested (N, d, n) is outside the generator's admissible range."""


class InternalConsistencyError(RuntimeError):
    """A constructed family failed its own certification; indicates a bug."""


class Route(enum.Enum):
    P1_FAMILY = "P1Family"
    FACE_VERTEX = "FaceVertex"
    PROP_FACES = "PropFaces"
    FULL_SET = "FullSet"
    FACES_AND_DOTS = "FacesAndDots"
    BRENNER_RECURSION = "BrennerRecursion"
    CASE_3_2_6 = "Case326"
    N2_SEARCH = "N2Search"
    SEARCH_2_2_5 = "Search225"


@dataclass(frozen=True)
class CaseDecomposition:
    """Layer coordinates (r, l, i) locating n inside the face-layer brackets.

    r counts whole faces taken, l the depth of the partial layer, i how many
    monomials of the capped sub-layer are included.  l = -1 is the degenerate
    bottom bracket: the partial layer is empty and the sub-layer contributes
    the single monomial X_{N-r+1}...X_{N-1}*X_N^{d-r+1}.  Without it the
    brackets would skip n = |I'_r| + 1 for every r >= 2.
    """

    r: int
    l: int
    i: int


# Admission ceiling on C(d+N, N), the number of degree-d monomials.  Routes
# enumerate up to all of them, and the face-vertex chain recurses once per
# dimension: at d = 2 it overflows the default stack from N = 329
# (C = 54,615), while N = 139 (C = 9,870) fits even under a call tracer.
MAX_DEGREE_MONOMIALS = 10_000


def admissible_bounds(N: int, d: int) -> tuple[int, int]:
    """Inclusive n-range of cells the dispatcher accepts.

    Raises RoutingError when C(d+N, N) exceeds MAX_DEGREE_MONOMIALS, before
    anything is enumerated.
    """
    if N < 1:
        raise RoutingError(f"N must be at least 1, got {N}")
    if d < 1:
        raise RoutingError(f"d must be at least 1, got {d}")
    # C(d+N, N) > max(N, d), so a huge argument is refused before the
    # binomial, which alone would take seconds to compute
    if max(N, d) >= MAX_DEGREE_MONOMIALS or binomial(d + N, N) > MAX_DEGREE_MONOMIALS:
        raise RoutingError(
            f"(N, d) = ({N}, {d}) has more than {MAX_DEGREE_MONOMIALS} degree-d "
            "monomials, the admission ceiling on C(d+N, N)"
        )
    if N == 1:
        return 2, d + 1
    return N + 1, binomial(d + N, N)


def gen_p1(d: int, n: int) -> MonomialFamily:
    """Equal-step family {X0^d, X0^(d-e)X1^e, ..., X1^d} on the projective line.

    Exists iff (n-1) divides d; the splitting type is then O(-ne)^(n-1) with
    e = d/(n-1).  For any other n in range no semistable family exists at
    all, and NoFamilyExists is raised.
    """
    if d % (n - 1) != 0:
        raise NoFamilyExists(
            f"no semistable family of {n} degree-{d} monomials exists on the "
            f"projective line: {n - 1} does not divide {d}"
        )
    e = d // (n - 1)
    members = [Monomial((d - j * e, j * e)) for j in range(n)]
    return MonomialFamily.from_monomials(members)


def gen_full(N: int, d: int) -> MonomialFamily:
    """The full hypertetrahedron; stable for N >= 2, semistable on the line."""
    return full_family(N, d)


def gen_case326() -> MonomialFamily:
    """The exceptional stable cell (N, d, n) = (3, 2, 6).

    {X0^2, X1^2, X2^2, X3^2, X0*X1, X2*X3}: every variable divides exactly
    two members, all four witnesses have margin 3.  The face-vertex recursion
    cannot produce this cell because no stable (2, 2, 5) family exists.
    """
    rows = [
        (2, 0, 0, 0),
        (0, 2, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
        (1, 1, 0, 0),
        (0, 0, 1, 1),
    ]
    return MonomialFamily.from_exponents(rows)


def survey_225_candidates() -> list[tuple[MonomialFamily, StabilityCertificate | None]]:
    """All six 5-subsets of the degree-2 quadrics in three variables.

    Returns (family, certificate) pairs in canonical order; the certificate
    is None for the three subsets that are not m-primary and hence present
    no bundle to certify.
    """
    pool = enumerate_monomials(2, 2)
    out = []
    for combo in itertools.combinations(pool, 5):
        fam = MonomialFamily.from_monomials(combo)
        out.append((fam, check_family(fam) if is_m_primary(fam) else None))
    return out


def gen_225_semistable() -> MonomialFamily:
    """The canonical strictly semistable family at (2, 2, 5).

    Exhaustive search over all C(6, 5) candidates: every m-primary one has a
    variable dividing three members, a zero-margin witness, so none is
    stable; the canonically first semistable candidate is returned.
    """
    for fam, cert in survey_225_candidates():
        if cert is not None and cert.verdict is Verdict.SEMISTABLE:
            return fam
    raise InternalConsistencyError("no semistable 5-subset found at (2, 2, 5)")


_EXHAUSTIVE_LIMIT = 200_000


def _margin_profile(members: list[Monomial], d: int, target_n: int) -> list:
    """Sorted witness margins, padded with one +inf sentinel.

    Lexicographic comparison of profiles prefers the larger worst margin
    first, then the larger second-worst, and so on; the sentinel makes a
    family with fewer binding witnesses win over an extension of it.
    """
    margins = sorted(w.margin for w in scan_witnesses(members, d, target_n))
    margins.append(inf)
    return margins


def gen_n2_search(d: int, n: int) -> MonomialFamily:
    """Deterministic search for a stable family of n degree-d monomials, N = 2.

    Seeds with the three pure powers, then greedily adds the monomial whose
    margin profile (evaluated at the target size n) is lexicographically
    largest, breaking ties by canonical order.  Falls back to exhaustive
    search over m-primary n-subsets when the greedy result is not certified
    and the combination count is small.  Output is a pure function of (d, n).
    """
    pool = list(enumerate_monomials(2, d))
    pures = [Monomial.variable_power(3, i, d) for i in range(3)]
    chosen = list(pures)
    chosen_set = set(chosen)
    while len(chosen) < n:
        best: Monomial | None = None
        best_profile: list | None = None
        for cand in pool:
            if cand in chosen_set:
                continue
            profile = _margin_profile(chosen + [cand], d, n)
            if best_profile is None or profile > best_profile:
                best, best_profile = cand, profile
        assert best is not None
        chosen.append(best)
        chosen_set.add(best)
    fam = MonomialFamily.from_monomials(chosen)
    if check_family(fam).verdict is Verdict.STABLE:
        return fam
    others = [m for m in pool if m not in set(pures)]
    if comb(len(others), n - 3) <= _EXHAUSTIVE_LIMIT:
        for combo in itertools.combinations(others, n - 3):
            candidate = MonomialFamily.from_monomials(pures + list(combo))
            if check_family(candidate).verdict is Verdict.STABLE:
                return candidate
    raise SearchExhausted(f"no stable family found for (N, d, n) = (2, {d}, {n})")


def gen_face_vertex(N: int, d: int, n: int) -> MonomialFamily:
    """A stable family one dimension down, embedded, plus the vertex X_N^d.

    Adding the opposite vertex to a (semi)stable family in X0..X_{N-1} relaxes
    every subset margin by at least d - d_J > 0, so the result is stable.
    Covers N+1 <= n <= C(d+N-1, N-1) + 1, except (3, 2, 6) whose inner cell
    (2, 2, 5) admits no stable family.
    """
    _, inner = dispatch(N - 1, d, n - 1)
    members = [Monomial(m.exponents + (0,)) for m in inner.members]
    members.append(Monomial.variable_power(N + 1, N, d))
    return MonomialFamily.from_monomials(members)


def _last_faces_count(N: int, d: int, r: int) -> int:
    # monomials lying on at least one of the last r faces
    return binomial(d + N, N) - binomial(d - r + N, N)


def decompose_faces_case(N: int, d: int, n: int) -> CaseDecomposition:
    """Locate n in the face-layer brackets, scanning r then l ascending.

    The bracket for (r, l) is
        |I'_r| + C(l+N-1, N-1) < n <= |I'_r| + C(l+N, N-1)
    with |I'_r| = C(d+N, N) - C(d-r+N, N), for 1 <= r <= min(d-1, N) and
    -1 <= l <= d-r-1.  These tile the admissible range exactly; the scan
    still verifies membership and raises InternalConsistencyError on a gap.
    """
    for r in range(1, min(d - 1, N) + 1):
        base = _last_faces_count(N, d, r)
        for l in range(-1, d - r):
            lo = base + binomial(l + N - 1, N - 1)
            hi = base + binomial(l + N, N - 1)
            if lo < n <= hi:
                return CaseDecomposition(r, l, n - lo)
    raise InternalConsistencyError(
        f"face-layer brackets do not cover n={n} at (N, d) = ({N}, {d})"
    )


def gen_prop_faces(N: int, d: int, n: int) -> MonomialFamily:
    """Whole faces, one partial layer, and a capped sub-layer.

    With (r, l, i) = decompose_faces_case(N, d, n) the family is the union of

      I'_r    all monomials on one of the last r faces,
      I''     X_{N-r+1}...X_{N-1} * X_N^(d-r-l+1) * f, f of degree l
              avoiding X_{N-r},
      I'''    X_{N-r+1}...X_{N-1} * X_N^(d-r-l) * f, f of degree l+1
              avoiding X_{N-r} and X_N, taking the first i such f in
              canonical order (largest X0-exponent first).
    """
    case = decompose_faces_case(N, d, n)
    r, l, i = case.r, case.l, case.i
    members = [
        m
        for m in enumerate_monomials(N, d)
        if any(m.exponents[t] == 0 for t in range(N - r + 1, N + 1))
    ]

    def layer_base(xn_exponent: int) -> Monomial:
        exps = [0] * (N + 1)
        for t in range(N - r + 1, N):
            exps[t] = 1
        exps[N] = xn_exponent
        return Monomial(tuple(exps))

    partial_base = layer_base(d - r - l + 1)
    members.extend(partial_base * f for f in enumerate_monomials_without(N, l, {N - r}))
    sub_base = layer_base(d - r - l)
    sub_pool = enumerate_monomials_without(N, l + 1, {N - r, N})
    members.extend(sub_base * f for f in sub_pool[:i])
    return MonomialFamily.from_monomials(members)


def gen_faces_and_dots(N: int, d: int, n: int) -> MonomialFamily:
    """All faces plus the first n - |F| interior diagonal points.

    The dot sequence is X_j^(d-N) * prod(X_t, t != j) for j = 0..N; requires
    d > N + 1 so the dots are genuinely interior and distinct.
    """
    faces = faces_family(N, d)
    dots = []
    for j in range(n - len(faces)):
        exps = [1] * (N + 1)
        exps[j] = d - N
        dots.append(Monomial(tuple(exps)))
    return MonomialFamily.from_monomials(list(faces.members) + dots)


def gen_brenner(N: int, d: int, n: int) -> MonomialFamily:
    """All faces plus an interior copy of a lower-degree family (recursion in d).

    The complement of the faces is X0...XN times the degree-(d-N-1)
    hypertetrahedron, so a family of n' = n - |F| monomials of degree
    d' = d - N - 1 lifts to the interior; its subset margins dominate the
    lifted subsets' margins with room to spare, and the union is stable.
    """
    faces = faces_family(N, d)
    _, inner = dispatch(N, d - N - 1, n - len(faces))
    lift = Monomial((1,) * (N + 1))
    members = list(faces.members) + [lift * f for f in inner.members]
    return MonomialFamily.from_monomials(members)


def classify_route(N: int, d: int, n: int) -> Route:
    """Which generator covers the cell (N, d, n); raises RoutingError off-grid.

    The full-set test precedes the bracket routes because for d <= N the top
    cell n = C(d+N, N) lies inside the face-layer range but is generated
    directly.  The remaining ranges are disjoint and cover everything.
    """
    lo, hi = admissible_bounds(N, d)
    if not lo <= n <= hi:
        raise RoutingError(f"n={n} outside [{lo}, {hi}] for (N, d) = ({N}, {d})")
    if N == 1:
        return Route.P1_FAMILY
    if N == 2:
        return Route.SEARCH_2_2_5 if (d, n) == (2, 5) else Route.N2_SEARCH
    if (N, d, n) == (3, 2, 6):
        return Route.CASE_3_2_6
    total = binomial(d + N, N)
    if n == total and d <= N + 1:
        return Route.FULL_SET
    if n <= binomial(d + N - 1, N - 1) + 1:
        return Route.FACE_VERTEX
    if n <= total - binomial(d - 1, N):
        return Route.PROP_FACES
    if n <= total - binomial(d - 1, N) + N + 1:
        return Route.FACES_AND_DOTS
    return Route.BRENNER_RECURSION


def expected_verdict(N: int, d: int, n: int) -> Verdict:
    """The verdict a constructed family must certify at, cell by cell."""
    if N == 1:
        return Verdict.STABLE if n == 2 else Verdict.SEMISTABLE
    if (N, d, n) == (2, 2, 5):
        return Verdict.SEMISTABLE
    return Verdict.STABLE


@lru_cache(maxsize=None)
def dispatch(N: int, d: int, n: int) -> tuple[Route, MonomialFamily]:
    """Generate and certify a family for the cell (N, d, n).

    Returns the route taken and the family; raises NoFamilyExists for the
    projective-line cells with (n-1) not dividing d, RoutingError off-grid,
    and InternalConsistencyError if the constructed family fails to certify
    at its expected verdict (which would be a bug, and is tested not to
    happen on the supported grid).
    """
    route = classify_route(N, d, n)
    if route is Route.P1_FAMILY:
        fam = gen_p1(d, n)
    elif route is Route.SEARCH_2_2_5:
        fam = gen_225_semistable()
    elif route is Route.N2_SEARCH:
        fam = gen_n2_search(d, n)
    elif route is Route.CASE_3_2_6:
        fam = gen_case326()
    elif route is Route.FULL_SET:
        fam = gen_full(N, d)
    elif route is Route.FACE_VERTEX:
        fam = gen_face_vertex(N, d, n)
    elif route is Route.PROP_FACES:
        fam = gen_prop_faces(N, d, n)
    elif route is Route.FACES_AND_DOTS:
        fam = gen_faces_and_dots(N, d, n)
    else:
        fam = gen_brenner(N, d, n)
    if (fam.N, fam.d, len(fam)) != (N, d, n):
        raise InternalConsistencyError(
            f"route {route.value} built a ({fam.N}, {fam.d}, {len(fam)}) family "
            f"for cell ({N}, {d}, {n})"
        )
    cert = check_family(fam)
    expected = expected_verdict(N, d, n)
    if cert.verdict is not expected:
        raise InternalConsistencyError(
            f"cell ({N}, {d}, {n}) via {route.value} certified {cert.verdict.value}, "
            f"expected {expected.value}"
        )
    if N == 1 and is_semistable_p1(fam) not in (Verdict.STABLE, Verdict.SEMISTABLE):
        raise InternalConsistencyError(
            f"projective-line family for ({N}, {d}, {n}) has unequal twists"
        )
    return route, fam
