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

from .criterion import Verdict, _exponent_masks, check_family, is_semistable_p1
from .monomials import MAX_DEGREE_MONOMIALS, MonomialFamily, binomial, enumerate_monomials, full_family


class NoFamilyExists(Exception):
    """The requested cell provably has no semistable family."""


class RoutingError(ValueError):
    """The requested (N, d, n) is outside the generator's admissible range."""


class InnerCellRefused(RoutingError):
    """A recursive cell is refused because a cell it recurses into is refused.

    chain runs from the requested cell down to the refused one, and reason is
    that cell's own RoutingError message.
    """

    def __init__(self, chain: tuple[tuple[int, int, int], ...], reason: str):
        self.chain = chain
        self.reason = reason
        path = " -> ".join(map(str, chain))
        super().__init__(f"(N, d, n) = {chain[0]} is refused: it recurses along {path}, and {reason}")


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


# Admission rule for a plane cell (2, d, n): (n - 3) * C(d+5, 5) may be at
# most this, n - 3 greedy steps times the (divisor, monomial) pairs in three
# variables.  It admits every plane cell with d <= 14 (at most 1,360,476, at
# (2, 14, 120)) and shrinks the range above that.  The search no longer walks
# those pairs, and the slowest admitted cell, (2, 15, 131), dispatches in
# about 0.2 s on a 2-core host.
MAX_PLANE_SEARCH_WORK = 2_000_000


def admissible_bounds(N: int, d: int) -> tuple[int, int]:
    """Inclusive n-range of cells the dispatcher accepts.

    Raises RoutingError when C(d+N, N) exceeds MAX_DEGREE_MONOMIALS, before
    anything is enumerated.  For N = 2 the top is also capped so that
    (n - 3) * C(d+5, 5) stays within MAX_PLANE_SEARCH_WORK; n = 3, the pure
    powers alone, is always admitted.
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
    if N == 2:
        return 3, min(binomial(d + 2, 2), 3 + MAX_PLANE_SEARCH_WORK // binomial(d + 5, 5))
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
    return MonomialFamily.from_exponents((d - j * e, j * e) for j in range(n))


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


def gen_225_semistable() -> MonomialFamily:
    """The canonical strictly semistable family at (N, d, n) = (2, 2, 5).

    {X0^2, X0*X1, X0*X2, X1^2, X2^2}: X0 divides three members, a witness
    at margin 0.  No 5-subset of the six quadrics is stable, and this one is
    the canonically first semistable subset.
    """
    rows = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)]
    return MonomialFamily.from_exponents(rows)


def _least_net_change(live: int, gains: dict[int, list[int]], losses: dict[int, list[int]]) -> int:
    """The plane search's pick among the candidates in live, as a single bit.

    gains[v] and losses[v] are masks of candidates whose witness count at
    margin v rises or falls by one for each mask that holds them.  Walking
    the margins in ascending order, keep the candidates with the smallest net
    change at each; stop when one is left, and let a tie go to the lowest bit.
    Adding the number of losses to every net change at v leaves a count, the
    gains that hold c plus the losses that do not, kept as bit planes (plane
    b holds bit b of every candidate's count).  A mask that holds all or
    none of the kept candidates shifts them all alike and is skipped.
    """
    keep = live
    for v in sorted(gains.keys() | losses.keys()):
        planes: list[int] = []
        for masks, flip in ((gains.get(v, ()), 0), (losses.get(v, ()), keep)):
            for mask in masks:
                carry = mask & keep
                if not carry or carry == keep:
                    continue
                carry ^= flip
                for b, plane in enumerate(planes):
                    planes[b] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
        for plane in reversed(planes):
            if keep & ~plane:
                keep &= ~plane
        if not keep & (keep - 1):
            break
    return keep & -keep


def gen_n2_search(d: int, n: int) -> MonomialFamily:
    """Deterministic greedy search for a stable family of n degree-d monomials, N = 2.

    Seeds with the three pure powers, then adds one monomial at a time: the
    one whose family has the lexicographically largest margin profile (its
    sorted witness margins at the target size n, then +inf), ties going to
    the first in canonical order.  No profile is built.  Each gcd g of degree
    1..d-1 keeps the number k of chosen members it divides and their
    componentwise minimum low[g]; g is a witness iff k >= 2 and low[g] == g.
    Adding c changes only c's own divisors: an old witness leaves its margin
    m(k) and enters m(k) - d, and a non-witness g enters m(k) - d when
    min(low[g], c) == g.

    So candidates differ only in their net change in the number of witnesses
    at each margin.  Of two sorted profiles, the larger has fewer entries at
    the smallest margin where their counts differ.  Two candidates extend
    the same members, so that is the smallest margin where their nets
    differ, and the smaller net wins there: a loss beats no change, which
    beats a gain.  The best candidate thus has the lexicographically
    smallest vector of nets over ascending margins, the first in canonical
    order on a tie, and _least_net_change finds it for every candidate at
    once.  The candidates are the bits of one int in canonical order, with
    masks ge[i][t] of those whose X_i-exponent is at least t.  g divides the
    candidates in the AND of ge[i][g_i]; for a non-witness, min(low[g], c)
    == g also needs c_i == g_i wherever low[g]_i > g_i, which removes
    ge[i][g_i + 1].

    The search scans no witnesses; dispatch certifies the family it returns.
    Output is a pure function of (d, n).
    """
    count: dict[tuple[int, ...], int] = {}
    low: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add(c: tuple[int, ...]) -> None:
        for g in itertools.product(*(range(x + 1) for x in c)):
            if 0 < sum(g) < d:
                k = count.get(g, 0)
                count[g] = k + 1
                low[g] = tuple(map(min, low[g], c)) if k else c

    pool = [c for c in enumerate_monomials(2, d) if d not in c]
    ge0, ge1, ge2 = _exponent_masks(pool, 3, d)
    live = (1 << len(pool)) - 1
    chosen = [(d, 0, 0), (0, d, 0), (0, 0, d)]
    for c in chosen:
        add(c)
    while len(chosen) < n:
        gains: dict[int, list[int]] = {}
        losses: dict[int, list[int]] = {}
        for g, k in count.items():
            g0, g1, g2 = g
            mask = live & ge0[g0] & ge1[g1] & ge2[g2]
            if not mask:
                continue
            e = g0 + g1 + g2
            margin = (d - e) * n + e - d * k
            lo = low[g]
            if lo == g:
                # already a witness: k >= 2, as a lone member is its own minimum
                losses.setdefault(margin, []).append(mask)
            else:
                if lo[0] > g0:
                    mask &= ~ge0[g0 + 1]
                if lo[1] > g1:
                    mask &= ~ge1[g1 + 1]
                if lo[2] > g2:
                    mask &= ~ge2[g2 + 1]
                if not mask:
                    continue
            gains.setdefault(margin - d, []).append(mask)
        bit = _least_net_change(live, gains, losses)
        live ^= bit
        best = pool[bit.bit_length() - 1]
        chosen.append(best)
        add(best)
    return MonomialFamily.from_exponents(chosen)


def gen_face_vertex(N: int, d: int, n: int) -> MonomialFamily:
    """A stable family one dimension down, embedded, plus the vertex X_N^d.

    Adding the opposite vertex to a (semi)stable family in X0..X_{N-1} relaxes
    every subset margin by at least d - d_J > 0, so the result is stable.
    Covers N+1 <= n <= C(d+N-1, N-1) + 1, except (3, 2, 6) whose inner cell
    (2, 2, 5) admits no stable family, and the cells whose inner cell is
    refused.
    """
    _, inner = dispatch(N - 1, d, n - 1)
    # padding keeps the inner rows valid and in canonical order, and the
    # vertex is the least row
    rows = [m + (0,) for m in inner.rows]
    rows.append((0,) * N + (d,))
    return MonomialFamily._from_valid_rows(N, d, tuple(rows))


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
    return MonomialFamily.from_exponents(rows)


def _face_rows(N: int, d: int) -> list[tuple[int, ...]]:
    # the union of all N+1 faces: exponent tuples with at least one zero
    return [m for m in enumerate_monomials(N, d) if 0 in m]


def gen_faces_and_dots(N: int, d: int, n: int) -> MonomialFamily:
    """All faces plus the first n - |F| interior diagonal points.

    The dot sequence is X_j^(d-N) * prod(X_t, t != j) for j = 0..N; requires
    d > N + 1 so the dots are genuinely interior and distinct.
    """
    rows = _face_rows(N, d)
    rows += [(1,) * j + (d - N,) + (1,) * (N - j) for j in range(n - len(rows))]
    return MonomialFamily.from_exponents(rows)


def gen_brenner(N: int, d: int, n: int) -> MonomialFamily:
    """All faces plus an interior copy of a lower-degree family (recursion in d).

    The complement of the faces is X0...XN times the degree-(d-N-1)
    hypertetrahedron, so a family of n' = n - |F| monomials of degree
    d' = d - N - 1 lifts to the interior; its subset margins dominate the
    lifted subsets' margins with room to spare, and the union is stable.
    """
    rows = _face_rows(N, d)
    _, inner = dispatch(N, d - N - 1, n - len(rows))
    rows += [tuple(e + 1 for e in m) for m in inner.rows]
    return MonomialFamily.from_exponents(rows)


def classify_route(N: int, d: int, n: int) -> Route:
    """Which generator covers the cell (N, d, n); raises RoutingError off-grid.

    The full-set test precedes the bracket routes because for d <= N the top
    cell n = C(d+N, N) lies inside the face-layer range but is generated
    directly.  The remaining ranges are disjoint and cover everything.  A
    recursive route is refused with InnerCellRefused, naming the chain of
    cells down to the refused one, when its inner cell is refused; nothing
    is built to find out.
    """
    lo, hi = admissible_bounds(N, d)
    if not lo <= n <= hi:
        why = " (the plane search work bound)" if N == 2 and hi < n <= binomial(d + 2, 2) else ""
        raise RoutingError(f"n={n} outside [{lo}, {hi}] for (N, d) = ({N}, {d}){why}")
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
        _check_inner_cell((N, d, n), (N - 1, d, n - 1))
        return Route.FACE_VERTEX
    faces = total - binomial(d - 1, N)
    if n <= faces:
        return Route.PROP_FACES
    if n <= faces + N + 1:
        return Route.FACES_AND_DOTS
    _check_inner_cell((N, d, n), (N, d - N - 1, n - faces))
    return Route.BRENNER_RECURSION


def _check_inner_cell(cell: tuple[int, int, int], inner: tuple[int, int, int]) -> None:
    try:
        classify_route(*inner)
    except InnerCellRefused as exc:
        raise InnerCellRefused((cell, *exc.chain), exc.reason) from None
    except RoutingError as exc:
        raise InnerCellRefused((cell, inner), str(exc)) from None


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
