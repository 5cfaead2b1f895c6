"""Constructive generators covering every admissible (N, d, n) cell.

Each generator returns a family whose stability certificate is checked at
dispatch time, so a construction bug cannot silently ship an uncertified
family.  _route is the theorem's case split: a cell's route and the cell its
builder takes.  Only dispatch's worker, _certified_family, recurses: it
routes a cell once, takes the family of the cell that route names from its
own cache, hands it to a recursive route's builder, and certifies the
result once; sweep and generate take that certificate from it.  Each
generator assumes its route was chosen for the cell, and checks nothing
itself.  Nine routes run five builders: both plane routes run the plane
search, and the four face routes, FullSet, PropFaces, FacesAndDots and
BrennerRecursion, all take a prefix of one order of the face monomials and
lift an interior family of lower degree past it (gen_prop_faces), so the
PropFaces and FacesAndDots families nest along n.  That order is built once
per column (N, d) and kept, for the few columns built in last, by
_face_order, together with the column's last family built without an
interior family, from which the next face cell grows by one row.
dispatch.cache_clear() drops both with dispatch's cache, so a cold dispatch
builds them again.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from math import comb

from .criterion import (
    _COLUMN_WINDOW,
    StabilityCertificate,
    Verdict,
    _exponent_masks,
    check_family,
    is_semistable_p1,
)
from .monomials import MAX_DEGREE_MONOMIALS, MonomialFamily, enumerate_monomials


class NoFamilyExists(Exception):
    """The requested cell provably has no semistable family."""


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


# Admission rule for a plane cell (2, d, n): (n - 3) * C(d+5, 5) may be at
# most this, n - 3 greedy steps times the (divisor, monomial) pairs in three
# variables.  It admits every plane cell with d <= 14 (at most 1,360,476, at
# (2, 14, 120)) and shrinks the range above that.  The search no longer walks
# those pairs, and the slowest admitted cell, (2, 15, 131), dispatches in
# about 0.05 s on a 2-core host.
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
    if max(N, d) >= MAX_DEGREE_MONOMIALS or (top := comb(d + N, N)) > MAX_DEGREE_MONOMIALS:
        raise RoutingError(
            f"(N, d) = ({N}, {d}) has more than {MAX_DEGREE_MONOMIALS} degree-d "
            "monomials, the admission ceiling on C(d+N, N)"
        )
    if N == 2:
        return 3, min(top, 3 + MAX_PLANE_SEARCH_WORK // comb(d + 5, 5))
    return N + 1, top


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
    return MonomialFamily._from_valid_rows(1, d, [(d - j * e, j * e) for j in range(n)])


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
    return MonomialFamily._from_valid_rows(3, 2, rows)


def _least_net_change(live: int, buckets: Mapping[int, Mapping[int, int]]) -> int:
    """The plane search's pick among the candidates in live, as a single bit.

    buckets[v] holds the entries at margin v, each a mask of candidates: a
    gain holds those whose witness count at v rises by one, a loss is the
    complement of the mask of those whose count falls by one.  So an entry
    counts +1 for each candidate it holds, and a candidate's count is its
    net change at v plus the number of losses there, the same for all.
    Walking the margins in ascending order, keep the candidates with the
    least count at each; stop when one is left, and let a tie go to the
    lowest bit.  The order of the entries does not matter; the counts are
    kept as bit planes (plane b holds bit b of every candidate's count).  An
    entry that holds all or none of the kept candidates shifts them all
    alike and is skipped.
    """
    keep = live
    for v in sorted(buckets):
        planes: list[int] = []
        for mask in buckets[v].values():
            carry = mask & keep
            if not carry or carry == keep:
                continue
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
    """Deterministic greedy search for a family of n degree-d monomials, N = 2.

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

    The search keeps, for every divisor g of a chosen member, one record
    [k, low0, low1, low2] in a dict keyed by the int
    (g_0 * (d + 1) + g_1) * (d + 1) + g_2, and one map buckets[v] from the
    key of each divisor whose mask is not empty to its entry at margin v:
    g's gain, its mask, at m(k) - d, and a witness's loss, stored as its
    mask's complement, at m(k).  The two margins are d apart, so no bucket
    holds both of g's entries, and k and low[g] locate them.  A pick c
    changes only its own divisors: their k, low and margin move, and c's
    bit leaves live, which only their masks hold.  So each step updates the
    records of c's (c_0 + 1)(c_1 + 1)(c_2 + 1) divisors in place, moves
    their entries and leaves every other entry as it is.  The dict holds
    only the divisors the search touches, a small share of the (d + 1)^3
    keys when n is small and d large, so memory follows the picks and not
    d.  With n <= 3 there is no pick, and the pure powers are returned
    before any candidate is built.  At n = C(d + 2, 2), the full plane cell,
    every candidate is picked whatever the order of the picks, so every
    degree-d monomial is returned, again with no candidate built.  The
    search scans no witnesses; dispatch certifies the family it returns.
    Output is a pure function of (d, n).

    The family is stable on every admitted cell but (2, 2, 5), where no
    5-subset of the six quadrics is stable.  There both picks are ties,
    first among the three mixed quadrics and then between X0*X2 and X1*X2,
    and each goes to the lower bit: {X0^2, X0*X1, X0*X2, X1^2, X2^2}, the
    canonically first semistable subset, with X0 dividing three members at
    margin 0.
    """
    chosen = [(d, 0, 0), (0, d, 0), (0, 0, d)]
    if n <= 3:
        return MonomialFamily._from_valid_rows(2, d, chosen)
    if n == comb(d + 2, 2):
        # the search would take every candidate; canonical order throughout
        rows = tuple((a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1))
        return MonomialFamily._from_canonical_rows(2, d, rows)
    pool = [c for c in enumerate_monomials(2, d) if d not in c]
    ge0, ge1, ge2 = _exponent_masks(pool, 3, d)
    live = (1 << len(pool)) - 1
    # key of g -> [k, low0, low1, low2]; margin -> {key of g: gain mask, or
    # the complement of a loss mask}
    state: dict[int, list[int]] = {}
    buckets: dict[int, dict[int, int]] = {}

    def add(c: tuple[int, ...]) -> None:
        # c's bit has left live: move the entries of c's divisors alone
        c0, c1, c2 = c
        for g0 in range(c0 + 1):
            for g1 in range(c1 + 1):
                ge01 = live & ge0[g0] & ge1[g1]
                key01 = (g0 * (d + 1) + g1) * (d + 1)
                for g2 in range(c2 + 1):
                    e = g0 + g1 + g2
                    if not 0 < e < d:
                        continue
                    key = key01 + g2
                    # g's margin with c in: m(1) here, m(k + 1) on a revisit
                    margin = (d - e) * n + e - d
                    mask = ge01 & ge2[g2]
                    rec = state.get(key)
                    if rec is None:
                        # a lone member is its own minimum, so g is no witness
                        state[key] = [1, c0, c1, c2]
                        l0, l1, l2 = c0, c1, c2
                        witness = False
                    else:
                        k, l0, l1, l2 = rec
                        rec[0] = k + 1
                        margin -= d * k
                        # g's old gain sits at margin, an old witness's loss
                        # at margin + d, and an empty mask in no bucket.  If g
                        # is a witness now, c lay in its old masks (min(low, c)
                        # == g forces c_i == g_i where low_i > g_i), so they
                        # are indexed: a missing one raises
                        if l0 == g0 and l1 == g1 and l2 == g2:
                            bucket = buckets[margin + d]
                            del bucket[key]
                            if not bucket:
                                del buckets[margin + d]
                            witness = True
                        else:
                            if c0 < l0:
                                rec[1] = l0 = c0
                            if c1 < l1:
                                rec[2] = l1 = c1
                            if c2 < l2:
                                rec[3] = l2 = c2
                            witness = l0 == g0 and l1 == g1 and l2 == g2
                        if witness and mask:
                            # the witness's loss takes the old gain's place
                            buckets[margin][key] = ~mask
                        else:
                            bucket = buckets.get(margin)
                            if bucket and bucket.pop(key, 0) and not bucket:
                                del buckets[margin]
                    if not mask:
                        continue
                    if not witness:
                        if l0 > g0:
                            mask &= ~ge0[g0 + 1]
                        if l1 > g1:
                            mask &= ~ge1[g1 + 1]
                        if l2 > g2:
                            mask &= ~ge2[g2 + 1]
                        if not mask:
                            continue
                    bucket = buckets.get(margin - d)
                    if bucket is None:
                        buckets[margin - d] = {key: mask}
                    else:
                        bucket[key] = mask

    for c in chosen:
        add(c)
    while len(chosen) < n:
        bit = _least_net_change(live, buckets)
        live ^= bit
        best = pool[bit.bit_length() - 1]
        chosen.append(best)
        add(best)
    return MonomialFamily._from_valid_rows(2, d, chosen)


def gen_face_vertex(N: int, base: MonomialFamily) -> MonomialFamily:
    """A stable family one dimension down, embedded, plus the vertex X_N^d.

    Adding the opposite vertex to a (semi)stable family in X0..X_{N-1} relaxes
    every subset margin by at least d - d_J > 0, so the result is stable.
    Covers N+1 <= n <= C(d+N-1, N-1) + 1, except (3, 2, 6) whose inner cell
    (2, 2, 5) admits no stable family, and the cells whose inner cell is
    refused.  A run of k such levels is built in one step from its base,
    the family of the first cell (N-k, d, n-k) below the run, which _route
    names: the base's rows padded with k zeros, plus the k vertices
    X_{N-k+1}^d..X_N^d, are the family every level would build.
    """
    d, k = base.d, N - base.N
    rows = [m + (0,) * k for m in base.rows]
    rows += [(0,) * i + (d,) + (0,) * (N - i) for i in range(N - k + 1, N + 1)]
    return MonomialFamily._from_valid_rows(N, d, rows)


@lru_cache(maxsize=_COLUMN_WINDOW)
def _face_order(N: int, d: int) -> list:
    """[faces, order, last]: the column's face monomials in canonical order,
    their indices in face order, and its last family built without inner.

    The face monomials are those with a zero exponent.  Every face cell of
    the column takes a prefix of the same order, so a sweep that walks a
    column enumerates and sorts its C(d+N, N) monomials once, and the
    column's families share their face rows.  last starts as None, and
    gen_prop_faces replaces it with each family it builds without inner.
    The entries of the last _COLUMN_WINDOW columns are kept, so a column
    whose recursive cells build from other columns keeps its own;
    dispatch.cache_clear() drops them.
    """
    faces = tuple(m for m in enumerate_monomials(N, d) if 0 in m)
    # X_N's exponent is at most d, so p * (d + 1) - exponent orders as
    # (p, -exponent); it is 0 when X_N is absent, found without the slice
    key = [m[N] and m[::-1].index(0) * (d + 1) - m[N] for m in faces]
    return [faces, tuple(sorted(range(len(faces)), key=key.__getitem__)), None]


def gen_prop_faces(N: int, d: int, n: int, inner: MonomialFamily | None = None) -> MonomialFamily:
    """The first n face monomials in face order, then a lifted interior family.

    A cell built afresh takes the first n indices of its column's face
    order, _face_order(N, d), and sorts only those.  Face order sorts the
    face monomials stably from canonical order by the position p of the
    last zero exponent counted from X_N (p = 0 when X_N is absent), then by
    X_N-exponent descending.  Its prefixes are Brenner's face-and-layer
    families: the rows with p < r are the whole last r faces, those with a
    zero among X_{N-r+1}..X_N; the rows with p = r (X_{N-r} absent,
    X_{N-r+1}..X_N present) follow, a partial layer of the largest
    X_N-exponents and then the canonical first few of the next exponent
    down.

    The interior monomials are X0...XN times those of degree d - N - 1.  Past
    all the faces come the rows of inner, a family of that degree, each
    exponent raised by one: its subset margins dominate the lifted subsets'
    margins with room to spare, so the union is stable (Brenner's recursion
    in d).  Without inner the pure powers are lifted, the diagonal dots
    X_j^(d-N) * prod(X_t, t != j), j = 0..N, interior and distinct when
    d > N + 1.  So each family contains the one at n - 1 throughout a column
    (N, d) of PropFaces and FacesAndDots cells, and the whole face order,
    with X0...XN when d = N + 1, is the full set of degree-d monomials.

    A family built without inner is kept as the column's last one, with its
    face order.  A cell without inner that comes right after it, so that
    the kept family has n - 1 rows, adds one row to it: the face at index
    n - 1 of face order, or once the faces are used up the dot with
    j = n - 1 - (number of faces).  That row is inserted at its canonical
    position, found by bisection, so the cell sorts nothing and shares the
    other rows with the family before it.  The kept family is read once and
    replaced whole, so a thread that reads another thread's family grows
    from it only if it has n - 1 rows, and then it is this cell's
    predecessor: a family built without inner is a function of its cell.
    """
    column = _face_order(N, d)
    faces, order, last = column
    if inner is None and last is not None and len(last) == n - 1:
        if n <= len(faces):
            row = faces[order[n - 1]]
        else:
            j = n - 1 - len(faces)
            row = (1,) * j + (d - N,) + (1,) * (N - j)
        rows = last.rows
        # rows descend: the first position whose row is below the new one
        i = bisect_left(range(n - 1), True, key=lambda k: rows[k] < row)
        fam = MonomialFamily._from_canonical_rows(N, d, (*rows[:i], row, *rows[i:]))
    else:
        # the first n in face order, left in canonical order for the family's sort
        rows = [faces[j] for j in sorted(order[:n])]
        if inner is None:
            inner_rows = [(0,) * j + (d - N - 1,) + (0,) * (N - j) for j in range(N + 1)]
        else:
            inner_rows = inner.rows
        rows += [tuple(e + 1 for e in m) for m in inner_rows[:n - len(rows)]]
        fam = MonomialFamily._from_valid_rows(N, d, rows)
    if inner is None:
        column[2] = fam
    return fam


# A route's builder gets the cell and the family of the cell it builds from,
# None if it builds directly, as on FullSet, PropFaces and FacesAndDots, which
# lift the pure powers past the faces.  Builders call generators by
# module-level name, so a patched or wrapped generator is the one that runs.
_BUILDERS = {
    Route.P1_FAMILY: lambda N, d, n, fam: gen_p1(d, n),
    Route.N2_SEARCH: lambda N, d, n, fam: gen_n2_search(d, n),
    Route.SEARCH_2_2_5: lambda N, d, n, fam: gen_n2_search(d, n),
    Route.CASE_3_2_6: lambda N, d, n, fam: gen_case326(),
    Route.FACE_VERTEX: lambda N, d, n, fam: gen_face_vertex(N, fam),
    **dict.fromkeys(
        (Route.FULL_SET, Route.PROP_FACES, Route.FACES_AND_DOTS, Route.BRENNER_RECURSION),
        lambda N, d, n, fam: gen_prop_faces(N, d, n, fam),
    ),
}


def _route(N: int, d: int, n: int) -> tuple[Route, tuple[int, int, int] | None]:
    """The route covering (N, d, n) and the cell its builder takes, None if none.

    Past N = 2 and (3, 2, 6), Brenner's constructions split a column (N, d)
    by n: face-vertex cells up to C(d+N-1, N-1) + 1, then faces, all faces
    and up to N + 1 dots, and the recursion in d.  A FaceVertex cell builds
    from its base, the first cell (N-k, d, n-k) below its run.  Raises
    RoutingError for the cell itself but checks nothing below it.
    """
    lo, hi = admissible_bounds(N, d)
    if not lo <= n <= hi:
        why = " (the plane search work bound)" if N == 2 and hi < n <= comb(d + 2, 2) else ""
        raise RoutingError(f"n={n} outside [{lo}, {hi}] for (N, d) = ({N}, {d}){why}")
    if N == 1:
        return Route.P1_FAMILY, None
    if N == 2:
        return (Route.SEARCH_2_2_5 if (d, n) == (2, 5) else Route.N2_SEARCH), None
    if (N, d, n) == (3, 2, 6):
        return Route.CASE_3_2_6, None
    # hi is C(d+N, N) once N > 2
    if n == hi and d <= N + 1:
        return Route.FULL_SET, None
    if n <= comb(d + N - 1, N - 1) + 1:
        # a top cell lies in this range only at d = 1, so no level is FullSet
        M, m = N - 1, n - 1
        while M > 2 and m <= comb(d + M - 1, M - 1) + 1 and (M, d, m) != (3, 2, 6):
            M, m = M - 1, m - 1
        return Route.FACE_VERTEX, (M, d, m)
    faces = hi - comb(d - 1, N)  # math.comb is 0 at d <= N
    if n <= faces:
        return Route.PROP_FACES, None
    if n <= faces + N + 1:
        return Route.FACES_AND_DOTS, None
    return Route.BRENNER_RECURSION, (N, d - N - 1, n - faces)


def _chain(N: int, d: int, n: int) -> list[tuple[Route, tuple[int, int, int]]]:
    """The (route, cell) links from (N, d, n) down through the cells they build from.

    Raises RoutingError when a cell below (N, d, n) is refused, naming every
    cell down to it, each level of a FaceVertex run included; nothing is
    built to find out.
    """
    chain = []
    cell = (N, d, n)
    while cell is not None:
        try:
            route, inner = _route(*cell)
        except RoutingError as exc:
            if not chain:
                raise
            cells = [c for _, c in chain] + [cell]
            # a FaceVertex link stands for each level of its run
            path = " -> ".join(
                str((M - j, e, m - j))
                for (r, (M, e, m)), below in zip(chain, cells[1:])
                for j in range(M - below[0] if r is Route.FACE_VERTEX else 1)
            )
            raise RoutingError(
                f"(N, d, n) = {(N, d, n)} is refused: it recurses along {path} -> {cell}, and {exc}"
            ) from None
        chain.append((route, cell))
        cell = inner
    return chain


def classify_route(N: int, d: int, n: int) -> Route:
    """Which generator covers the cell (N, d, n); raises RoutingError off-grid.

    A recursive route is refused, naming the chain of cells down to the
    refused one, when a cell below it is refused.
    """
    return _chain(N, d, n)[0][0]


def expected_verdict(N: int, d: int, n: int) -> Verdict:
    """The verdict a constructed family must certify at, cell by cell."""
    if N == 1:
        return Verdict.STABLE if n == 2 else Verdict.SEMISTABLE
    if (N, d, n) == (2, 2, 5):
        return Verdict.SEMISTABLE
    return Verdict.STABLE


@lru_cache(maxsize=None)
def _certified_family(N: int, d: int, n: int) -> tuple[Route, MonomialFamily, StabilityCertificate]:
    """dispatch's work and cache: the route, the family and its certificate.

    One _route call names the route and the cell its builder takes, whose
    family comes from this function, so a cached inner cell is neither
    routed nor built again.  When a cell below is refused, _chain runs to
    word the refusal, naming every cell down to the refused one; the
    recursion reaches that cell before any builder runs.  The family is
    certified once, here; sweep and generate print this certificate.
    """
    route, below = _route(N, d, n)
    inner = None
    if below is not None:
        try:
            inner = _certified_family(*below)[1]
        except RoutingError:
            _chain(N, d, n)  # raises the refusal for the whole chain
            raise
    fam = _BUILDERS[route](N, d, n, inner)
    if len(fam) != n:
        raise InternalConsistencyError(f"{route.value} built {len(fam)} members for cell ({N}, {d}, {n})")
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
    return route, fam, cert


def dispatch(N: int, d: int, n: int) -> tuple[Route, MonomialFamily]:
    """Generate and certify a family for the cell (N, d, n).

    A recursive route builds from the family dispatched for the cell its
    route names: a Brenner cell's inner cell, a FaceVertex run's base.  The
    work and its cache are _certified_family's, which also keeps each
    family's certificate.

    Returns the route taken and the family; raises NoFamilyExists for the
    projective-line cells with (n-1) not dividing d, RoutingError off-grid,
    and InternalConsistencyError if the constructed family fails to certify
    at its expected verdict (which would be a bug, and is tested not to
    happen on the supported grid).
    """
    route, fam, _ = _certified_family(N, d, n)
    return route, fam


def _clear_dispatch(clear=_certified_family.cache_clear) -> None:
    """dispatch.cache_clear: empty the cache and drop the face orders' records."""
    _face_order.cache_clear()
    clear()


dispatch.cache_clear = _clear_dispatch
