"""Tests for the cell generators, the route classifier, and the dispatcher."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import inf

from syzstab.constructions import (
    MAX_DEGREE_MONOMIALS,
    MAX_PLANE_SEARCH_WORK,
    CaseDecomposition,
    NoFamilyExists,
    Route,
    RoutingError,
    _least_net_change,
    admissible_bounds,
    classify_route,
    decompose_faces_case,
    dispatch,
    expected_verdict,
    gen_225_semistable,
    gen_brenner,
    gen_case326,
    gen_face_vertex,
    gen_faces_and_dots,
    gen_n2_search,
    gen_p1,
    gen_prop_faces,
)
from syzstab.criterion import (
    MAX_SCAN_WORK,
    Verdict,
    brute_force_check,
    check_family,
    is_m_primary,
)
from syzstab.monomials import (
    MonomialFamily,
    binomial,
    enumerate_monomials,
)

from families import (
    faces_family,
    reference_certificate,
    reference_scan,
    survey_225_candidates,
    with_vertices,
)


def x0_dominates(fam):
    """Whether, in every degree e in 1..d-1, no monomial divides more members than X0^e.

    Families built face-first in the canonical variable order have this
    property, which collapses the criterion to the X0^e candidates.
    """
    exps = fam.rows
    for e in range(1, fam.d):
        x0_count = sum(1 for m in exps if m[0] >= e)
        for g in enumerate_monomials(fam.N, e):
            count = sum(1 for m in exps if all(a <= b for a, b in zip(g, m)))
            if count > x0_count:
                return False
    return True


def test_admissible_bounds():
    assert admissible_bounds(1, 6) == (2, 7)
    assert admissible_bounds(2, 3) == (3, 10)
    assert admissible_bounds(3, 4) == (4, 35)
    with pytest.raises(RoutingError):
        admissible_bounds(0, 3)
    with pytest.raises(RoutingError):
        admissible_bounds(2, 0)


@pytest.mark.parametrize(
    "cell,route",
    [
        ((1, 6, 4), Route.P1_FAMILY),
        ((2, 4, 9), Route.N2_SEARCH),
        ((2, 2, 5), Route.SEARCH_2_2_5),
        ((3, 2, 6), Route.CASE_3_2_6),
        ((3, 4, 4), Route.FACE_VERTEX),
        ((3, 4, 16), Route.FACE_VERTEX),
        ((3, 4, 17), Route.PROP_FACES),
        ((3, 4, 20), Route.PROP_FACES),
        ((3, 4, 34), Route.PROP_FACES),
        ((3, 4, 35), Route.FULL_SET),
        ((3, 2, 10), Route.FULL_SET),
        ((3, 5, 53), Route.FACES_AND_DOTS),
        ((3, 7, 104), Route.FACES_AND_DOTS),
        ((3, 7, 105), Route.BRENNER_RECURSION),
        ((3, 7, 120), Route.BRENNER_RECURSION),
        ((3, 4, 30), Route.PROP_FACES),
    ],
)
def test_classify_route(cell, route):
    assert classify_route(*cell) is route


def test_classify_route_rejects_out_of_range():
    # classify_route is the only range check; dispatch reaches no generator
    for cell in [(3, 4, 3), (3, 4, 36), (1, 6, 8), (1, 3, 6), (140, 2, 141)]:
        with pytest.raises(RoutingError):
            classify_route(*cell)
        with pytest.raises(RoutingError):
            dispatch(*cell)


def test_scan_work_bound_is_the_largest_admitted_cell():
    # the top of (N + 1) * d^2 over every (N, d) that generate admits
    largest = 0
    for N in range(1, MAX_DEGREE_MONOMIALS):
        d = 1
        while True:
            try:
                admissible_bounds(N, d + 1)
            except RoutingError:
                break
            d += 1
        largest = max(largest, (N + 1) * d**2)
    assert largest == MAX_SCAN_WORK == 2 * 9999**2 == 199_960_002


def test_admission_ceiling_refuses_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_monomials called")

    monkeypatch.setattr("syzstab.monomials.enumerate_monomials", refuse)
    monkeypatch.setattr("syzstab.constructions.enumerate_monomials", refuse)
    assert MAX_DEGREE_MONOMIALS == 10_000
    # C(d+N, N) is symmetric in N and d; each pair is the last admitted one.
    # At N = 2 the plane search work bound leaves only the pure powers.
    for (N, d), top in [((139, 2), 9870), ((2, 139), 3), ((1, 9999), 10_000)]:
        assert admissible_bounds(N, d)[1] == top
    for N, d in [(140, 2), (2, 140), (1, 10_000), (10**6, 10**6)]:
        with pytest.raises(RoutingError):
            admissible_bounds(N, d)
        with pytest.raises(RoutingError):
            classify_route(N, d, N + 1)
        with pytest.raises(RoutingError):
            dispatch(N, d, N + 1)


def test_plane_work_bound_refuses_without_searching(monkeypatch):
    class Searched(Exception):
        pass

    def search(d, n):
        raise Searched((d, n))

    monkeypatch.setattr("syzstab.constructions.gen_n2_search", search)
    assert MAX_PLANE_SEARCH_WORK == 2_000_000
    for d in range(2, 13):
        assert admissible_bounds(2, d) == (3, binomial(d + 2, 2))
    for d in (15, 16, 20, 30, 40, 139):
        top = admissible_bounds(2, d)[1]
        pairs = binomial(d + 5, 5)  # (divisor, monomial) pairs one step visits
        assert (top - 3) * pairs <= MAX_PLANE_SEARCH_WORK < (top - 2) * pairs
        assert top < binomial(d + 2, 2)
        with pytest.raises(Searched):
            dispatch(2, d, top)
        with pytest.raises(RoutingError, match="plane search work bound"):
            dispatch(2, d, top + 1)
        if d <= 37:
            # a face-vertex cell is refused with its inner plane cell
            assert classify_route(3, d, top + 1) is Route.FACE_VERTEX
            with pytest.raises(Searched):
                dispatch(3, d, top + 1)
            for refuse in (classify_route, dispatch):
                with pytest.raises(RoutingError, match="plane search work bound"):
                    refuse(3, d, top + 2)
    # a refused face-vertex cell refuses every cell that recurses into it:
    # (4, 15, 134) -> (3, 15, 133) and (3, 19, 857) -> (3, 15, 133)
    for cell, route in [((4, 15, 133), Route.FACE_VERTEX), ((3, 19, 856), Route.BRENNER_RECURSION)]:
        assert classify_route(*cell) is route
        with pytest.raises(RoutingError, match="plane search work bound"):
            classify_route(cell[0], cell[1], cell[2] + 1)


def test_deepest_admitted_face_vertex_chain_fits_the_stack():
    # (139, 2, 140) is a face-vertex chain 137 levels down to (2, 2, 3). It
    # is walked in one loop and only its base is dispatched below it, so
    # with about 60 frames to spare, classifying and dispatching it returns
    dispatch.cache_clear()
    check_family.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert classify_route(139, 2, 140) is Route.FACE_VERTEX
        route, fam = dispatch(139, 2, 140)
        assert dispatch(139, 2, 141)[0] is Route.FACE_VERTEX
    finally:
        sys.setrecursionlimit(limit)
    assert route is Route.FACE_VERTEX and len(fam) == 140


def test_classify_route_answers_are_pinned():
    # every route and refusal message on N 2..7, d 12..21: plane cells past
    # the search bound, face-vertex and Brenner chains into them, and the
    # (N, d) pairs past the admission ceiling
    digest = hashlib.sha256()
    for N in range(2, 8):
        for d in range(12, 22):
            top = binomial(d + N, N)
            for n in range(N, (top if top <= MAX_DEGREE_MONOMIALS else N) + 2):
                try:
                    line = classify_route(N, d, n).value
                except RoutingError as exc:
                    line = f"! {exc}"
                digest.update(f"{N} {d} {n} {line}\n".encode())
    assert digest.hexdigest() == "ab3b0aec45df2de9ad9ab71a9ab11b3075bb396e2d5001e32847c498f78fb87f"


def test_recursive_generators_build_from_the_family_they_are_handed(monkeypatch):
    # (4, 4, 11) is a face-vertex chain on the base (2, 4, 9), and
    # (3, 7, 105) lifts (3, 3, 5) inside its faces
    base, vertex = dispatch(2, 4, 9)[1], dispatch(4, 4, 11)[1]
    inner, brenner = dispatch(3, 3, 5)[1], dispatch(3, 7, 105)[1]

    def refuse(*args):
        raise AssertionError("a generator dispatched")

    monkeypatch.setattr("syzstab.constructions.dispatch", refuse)
    assert gen_face_vertex(4, base) == vertex
    assert gen_brenner(3, 7, inner) == brenner


def test_routes_partition_every_admissible_cell():
    for N in (3, 4, 5):
        for d in range(2, 9):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                classify_route(N, d, n)  # raises if uncovered


class TestP1:
    def test_step_family(self):
        fam = gen_p1(6, 4)
        assert fam.rows == ((6, 0), (4, 2), (2, 4), (0, 6))

    def test_nonexistence(self):
        with pytest.raises(NoFamilyExists):
            gen_p1(3, 3)


def test_case326_members_and_margins():
    fam = gen_case326()
    assert fam.exponent_set() == {
        (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
        (1, 1, 0, 0), (0, 0, 1, 1),
    }
    cert = check_family(fam)
    assert cert.verdict is Verdict.STABLE
    assert cert.witness_count == 4
    assert brute_force_check(fam).witness_count == 4
    # all four witnesses have degree 1 and k at most 2, so every margin is 3
    assert cert.by_degree == ((1, 4, 2, (1, 0, 0, 0)),)
    assert cert.worst.margin == 3


class TestSearch225:
    def test_survey_has_three_primary_candidates(self):
        results = survey_225_candidates()
        assert len(results) == 6
        primaries = [cert for _, cert in results if cert is not None]
        assert len(primaries) == 3
        assert all(cert.verdict is Verdict.SEMISTABLE for cert in primaries)

    def test_canonical_semistable_family(self):
        fam = gen_225_semistable()
        assert fam.exponent_set() == {
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2),
        }
        assert check_family(fam).worst.margin == 0
        # the literal is the canonically first semistable 5-subset
        first = next(f for f, cert in survey_225_candidates()
                     if cert is not None and cert.verdict is Verdict.SEMISTABLE)
        assert fam == first


def _margin_profile(rows: list[tuple[int, ...]], d: int, target_n: int) -> list:
    """Sorted witness margins, padded with one +inf sentinel.

    Lexicographic comparison of profiles prefers the larger worst margin
    first, then the larger second-worst, and so on; the sentinel makes a
    family with fewer binding witnesses win over an extension of it.
    """
    # the witnesses of the partial family, scored at the target size
    margins = sorted((d - e) * target_n + e - d * k for _, e, k, _ in reference_scan(rows, d))
    margins.append(inf)
    return margins


def reference_greedy(d: int, n: int) -> MonomialFamily:
    """The plane search's greedy as it was before witness deltas.

    Every step rescans the witnesses of each candidate extension of the
    chosen family and keeps the first candidate with the largest profile.
    """
    pool = enumerate_monomials(2, d)
    chosen = [m for m in pool if d in m]
    chosen_set = set(chosen)
    while len(chosen) < n:
        best: tuple[int, ...] | None = None
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
    return MonomialFamily.from_exponents(chosen)


class TestN2Search:
    def test_greedy_matches_reference_greedy(self):
        cells = 0
        for d in range(2, 9):
            for n in range(3, binomial(d + 2, 2) + 1):
                if (d, n) == (2, 5):
                    continue
                assert gen_n2_search(d, n).rows == reference_greedy(d, n).rows, (d, n)
                cells += 1
        assert cells == 146

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2**10 - 1),
        st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 2**10 - 1)), max_size=12),
    )
    def test_ranking_picks_the_least_net_vector(self, live, entries):
        # the candidate whose nets over ascending margins are least, the lowest on a tie
        gains, losses = {}, {}
        for v, loss, mask in entries:
            (losses if loss else gains).setdefault(v, []).append(mask & live)
        margins = sorted(gains.keys() | losses.keys())

        def nets(j):
            return [
                sum(m >> j & 1 for m in gains.get(v, ())) - sum(m >> j & 1 for m in losses.get(v, ()))
                for v in margins
            ]

        best = min((j for j in range(10) if live >> j & 1), key=nets)
        assert _least_net_change(live, gains, losses) == 1 << best

    def test_greedy_certifies_across_grid(self):
        for d in range(2, 7):
            lo, hi = admissible_bounds(2, d)
            for n in range(lo, hi + 1):
                if (d, n) == (2, 5):
                    continue
                fam = gen_n2_search(d, n)
                assert len(fam) == n
                assert check_family(fam).verdict is Verdict.STABLE


class TestFaceVertex:
    def test_vertex_is_added(self):
        fam = gen_face_vertex(3, dispatch(2, 4, 9)[1])
        assert (0, 0, 0, 4) in fam.rows
        inner = [m for m in fam.rows if m[3] == 0]
        assert len(inner) == 9

    def test_vertex_families_certify_as_their_direct_scan(self):
        # check_family certifies a family whose X_N divides only X_N^d from
        # its core; that must equal one scan over all the rows, on every
        # default-grid family it applies to
        dispatch.cache_clear()
        check_family.cache_clear()
        vertex = 0
        for N in range(2, 5):
            for d in range(2, 7):
                lo, hi = admissible_bounds(N, d)
                for n in range(lo, hi + 1):
                    _, fam = dispatch(N, d, n)
                    if [m[N] for m in fam.rows].count(0) == n - 1:
                        vertex += 1
                        assert check_family(fam) == reference_certificate(fam)
        assert vertex == 265

    def test_a_chain_builds_only_its_base(self):
        # the levels between (139, 2, 5000) and its base are neither built
        # nor cached
        dispatch.cache_clear()
        check_family.cache_clear()
        dispatch(139, 2, 5000)
        assert dispatch.cache_info().currsize == 2


def face_vertex_base(N, d, n):
    """The first inner cell of a face-vertex chain on another route, and its depth k."""
    k = 1
    while classify_route(N - k, d, n - k) is Route.FACE_VERTEX:
        k += 1
    return (N - k, d, n - k), k


def assert_route_rows_are_valid(cells):
    # routes build their rows unchecked: each family must be the one the
    # validating constructor makes of the same rows, and a face-vertex
    # family its base family with the vertices added
    routes = set()
    for cell in cells:
        route, fam = dispatch(*cell)
        routes.add(route)
        assert fam == MonomialFamily(fam.N, fam.d, fam.rows), cell
        if route is Route.FACE_VERTEX:
            base, k = face_vertex_base(*cell)
            assert fam == with_vertices(dispatch(*base)[1], k), cell
    return routes


def test_route_rows_are_valid_on_the_default_grid():
    # every route, the line cells with no family left out
    cells = []
    for N in range(1, 5):
        for d in range(2, 7):
            lo, hi = admissible_bounds(N, d)
            cells += [(N, d, n) for n in range(lo, hi + 1) if N > 1 or d % (n - 1) == 0]
    assert assert_route_rows_are_valid(cells) == set(Route)


def test_route_rows_are_valid_on_the_extreme_cells():
    # N = 139 (two face-vertex chains, PropFaces and the full set), the top
    # Brenner cell at d = 19, the slowest plane search and the line at its
    # top degree
    cells = [(139, 2, 141), (139, 2, 5000), (139, 2, 9869), (139, 2, 9870)]
    cells += [(3, 19, 856), (2, 15, 131), (1, 9998, 3)]
    assert_route_rows_are_valid(cells)


class TestDecomposeFacesCase:
    @pytest.mark.parametrize(
        "cell,coords",
        [
            ((3, 4, 17), (1, 0, 1)),
            ((3, 4, 20), (1, 1, 2)),
            ((3, 4, 26), (2, -1, 1)),
            ((3, 4, 32), (3, -1, 1)),
            ((3, 4, 34), (3, 0, 2)),
        ],
    )
    def test_known_coordinates(self, cell, coords):
        case = decompose_faces_case(*cell)
        assert (case.r, case.l, case.i) == coords

    def test_brackets_tile_their_range(self):
        # every n in the layer range has exactly one (r, l, i); i recovers n
        for N in (3, 4, 5):
            for d in range(2, 9):
                low = binomial(d + N - 1, N - 1) + 1
                top = binomial(d + N, N) - binomial(d - 1, N)
                for n in range(low + 1, top + 1):
                    if n == binomial(d + N, N):
                        continue
                    case = decompose_faces_case(N, d, n)
                    base = binomial(d + N, N) - binomial(d - case.r + N, N)
                    lo = base + binomial(case.l + N - 1, N - 1)
                    hi = base + binomial(case.l + N, N - 1)
                    assert lo < n <= hi
                    assert case.i == n - lo
                    assert 1 <= case.r <= min(d - 1, N)
                    assert -1 <= case.l <= d - case.r - 1


class TestPropFaces:
    def test_partial_layer_members(self):
        fam = gen_prop_faces(3, 4, 20)
        for exps in [(1, 0, 0, 3), (0, 1, 0, 3), (0, 0, 0, 4), (2, 0, 0, 2), (1, 1, 0, 2)]:
            assert exps in fam.rows

    def test_degenerate_bracket_family(self):
        # n one past the whole-faces count: one monomial beyond the faces
        fam = gen_prop_faces(3, 4, 26)
        faces_part = [m for m in fam.rows if m[2] == 0 or m[3] == 0]
        assert len(faces_part) == 25
        extra = [m for m in fam.rows if m not in faces_part]
        assert extra == [(0, 0, 1, 3)]

    def test_m_primary_across_layer_range(self):
        for d in (3, 4, 5):
            low = binomial(d + 2, 2) + 1
            top = binomial(d + 3, 3) - binomial(d - 1, 3)
            for n in range(low + 1, top + 1):
                if n == binomial(d + 3, 3):
                    continue
                fam = gen_prop_faces(3, d, n)
                assert len(fam) == n
                assert is_m_primary(fam)


def test_faces_and_dots_members():
    fam = gen_faces_and_dots(3, 5, 53)
    assert len(fam) == 53
    faces = faces_family(3, 5)
    assert set(faces.rows) <= set(fam.rows)
    extra = set(fam.rows) - set(faces.rows)
    assert extra == {(2, 1, 1, 1)}


class TestBrennerRecursion:
    def test_interior_lift(self):
        # the 100 faces leave (3, 3, 5) to lift inside them
        fam = gen_brenner(3, 7, dispatch(3, 3, 5)[1])
        faces = faces_family(3, 7)
        interior = [m for m in fam.rows if all(e >= 1 for e in m)]
        assert len(fam) == 105
        assert set(faces.rows) <= set(fam.rows)
        assert len(interior) == 5
        assert all(sum(m) == 7 for m in interior)

    def test_top_of_range_equals_full_set(self):
        for N, d in [(3, 6), (3, 7), (3, 8), (4, 7)]:
            # the faces leave the top cell of degree d - N - 1 inside them
            fam = gen_brenner(N, d, dispatch(N, d - N - 1, binomial(d - 1, N))[1])
            assert len(fam) == binomial(d + N, N)
            assert fam.exponent_set() == set(enumerate_monomials(N, d))


def test_expected_verdict():
    assert expected_verdict(1, 4, 2) is Verdict.STABLE
    assert expected_verdict(1, 4, 3) is Verdict.SEMISTABLE
    assert expected_verdict(2, 2, 5) is Verdict.SEMISTABLE
    assert expected_verdict(2, 2, 4) is Verdict.STABLE
    assert expected_verdict(3, 2, 6) is Verdict.STABLE


class TestDispatch:
    def test_returns_certified_families_on_small_grid(self):
        for N in (1, 2, 3):
            for d in (2, 3, 4):
                lo, hi = admissible_bounds(N, d)
                for n in range(lo, hi + 1):
                    try:
                        route, fam = dispatch(N, d, n)
                    except NoFamilyExists:
                        assert N == 1 and d % (n - 1) != 0
                        continue
                    assert (fam.N, fam.d, len(fam)) == (N, d, n)
                    assert is_m_primary(fam)
                    assert check_family(fam).verdict is expected_verdict(N, d, n)

    def test_deterministic(self):
        a = dispatch(2, 4, 9)
        dispatch.cache_clear()
        b = dispatch(2, 4, 9)
        assert a[0] is b[0]
        assert a[1] == b[1]

    def test_route_metadata_matches_classifier(self):
        for cell in [(3, 4, 10), (3, 4, 20), (3, 5, 53), (3, 7, 110), (4, 2, 7)]:
            route, _ = dispatch(*cell)
            assert route is classify_route(*cell)

    def test_strategy_x0_on_layer_and_dot_routes(self):
        for cell in [(3, 4, 17), (3, 4, 20), (3, 4, 26), (3, 5, 53), (4, 3, 30)]:
            route, fam = dispatch(*cell)
            assert route in (Route.PROP_FACES, Route.FACES_AND_DOTS)
            assert x0_dominates(fam)
        # X1 divides three members here, X0 only two
        skewed = MonomialFamily.from_exponents([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
        assert not x0_dominates(skewed)


def test_generated_families_are_pinned():
    # one digest over every family of the default sweep grid plus three large
    # plane searches: a change to any construction or to the witness order
    # that decides the plane search's greedy steps shows up here
    digest = hashlib.sha256()
    for N in range(1, 5):
        for d in range(2, 7):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                try:
                    route, fam = dispatch(N, d, n)
                except NoFamilyExists:
                    digest.update(f"{N} {d} {n} none\n".encode())
                    continue
                digest.update((route.value + "\n" + fam.to_text()).encode())
    for d, n in ((8, 30), (10, 40), (9, 25)):
        digest.update(dispatch(2, d, n)[1].to_text().encode())
    assert digest.hexdigest() == (
        "2c7ba0da4198f214b5aa69c40ee2e294a3580733d9e021612613cdf8864eed68"
    )


def test_case_decomposition_is_plain_data():
    case = CaseDecomposition(2, -1, 1)
    assert (case.r, case.l, case.i) == (2, -1, 1)
