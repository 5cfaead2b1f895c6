"""Tests for the cell generators, the route classifier, and the dispatcher."""

import hashlib
import sys
from collections import Counter
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import inf

from syzstab import constructions, criterion
from syzstab.constructions import (
    MAX_DEGREE_MONOMIALS,
    MAX_PLANE_SEARCH_WORK,
    NoFamilyExists,
    Route,
    RoutingError,
    _least_net_change,
    admissible_bounds,
    classify_route,
    dispatch,
    expected_verdict,
    gen_case326,
    gen_face_vertex,
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
    decompose_faces_case,
    faces_and_dots,
    faces_family,
    layered_prop_faces,
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


def test_a_face_vertex_run_is_one_link(monkeypatch):
    # _route names a FaceVertex cell's base, the first cell below its run,
    # so classifying (139, 2, 140) routes that cell and (2, 2, 3) alone
    route = constructions._route
    calls = []

    def counted(*cell):
        calls.append(cell)
        return route(*cell)

    monkeypatch.setattr("syzstab.constructions._route", counted)
    assert classify_route(139, 2, 140) is Route.FACE_VERTEX
    assert calls == [(139, 2, 140), (2, 2, 3)]
    assert route(139, 2, 140) == (Route.FACE_VERTEX, (2, 2, 3))
    # (3, 2, 6) is Case326 within the face-vertex range, so a run stops there
    assert route(4, 2, 7) == (Route.FACE_VERTEX, (3, 2, 6))
    assert route(3, 2, 6) == (Route.CASE_3_2_6, None)


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
    assert gen_prop_faces(3, 7, 105, inner) == brenner


def test_a_cached_inner_cell_is_not_routed_again(monkeypatch):
    # (3, 7, 105) builds from (3, 3, 5); once that is dispatched, the
    # Brenner cell routes itself alone
    calls = []

    def counted(*cell, real=constructions._route):
        calls.append(cell)
        return real(*cell)

    dispatch.cache_clear()
    dispatch(3, 3, 5)
    monkeypatch.setattr("syzstab.constructions._route", counted)
    assert dispatch(3, 7, 105)[0] is Route.BRENNER_RECURSION
    assert calls == [(3, 7, 105)]


@pytest.mark.parametrize(
    "cell, route, generator",
    [
        ((1, 6, 4), Route.P1_FAMILY, "gen_p1"),
        ((2, 4, 9), Route.N2_SEARCH, "gen_n2_search"),
        ((2, 2, 5), Route.SEARCH_2_2_5, "gen_n2_search"),
        ((3, 2, 6), Route.CASE_3_2_6, "gen_case326"),
        ((3, 4, 35), Route.FULL_SET, "gen_prop_faces"),
        ((4, 4, 11), Route.FACE_VERTEX, "gen_face_vertex"),
        ((3, 4, 20), Route.PROP_FACES, "gen_prop_faces"),
        ((3, 5, 53), Route.FACES_AND_DOTS, "gen_prop_faces"),
        ((3, 7, 105), Route.BRENNER_RECURSION, "gen_prop_faces"),
    ],
)
def test_every_route_reaches_its_generator_by_name(monkeypatch, cell, route, generator):
    # a route calls its generator through the module attribute, so a
    # generator patched or wrapped there (by a test or a tracer) is the one
    # that builds the cell
    class Reached(Exception):
        pass

    def sentinel(*args, **kwargs):
        raise Reached(generator)

    assert classify_route(*cell) is route
    dispatch.cache_clear()
    monkeypatch.setattr(f"syzstab.constructions.{generator}", sentinel)
    with pytest.raises(Reached):
        dispatch(*cell)


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
        # the search's two tied picks land on the canonically first
        # semistable 5-subset, and dispatch keeps the cell's own route name
        fam = gen_n2_search(2, 5)
        assert fam.exponent_set() == {
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2),
        }
        assert check_family(fam).worst.margin == 0
        first = next(f for f, cert in survey_225_candidates()
                     if cert is not None and cert.verdict is Verdict.SEMISTABLE)
        assert fam == first
        assert dispatch(2, 2, 5) == (Route.SEARCH_2_2_5, first)


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
                assert gen_n2_search(d, n).rows == reference_greedy(d, n).rows, (d, n)
                cells += 1
        assert cells == 147

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2**10 - 1),
        st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 2**10 - 1)), max_size=12),
    )
    def test_ranking_picks_the_least_net_vector(self, live, entries):
        # the candidate whose nets over ascending margins are least, the lowest on a tie
        gains, losses, buckets = {}, {}, {}
        for i, (v, loss, mask) in enumerate(entries):
            (losses if loss else gains).setdefault(v, []).append(mask & live)
            # the search's encoding: a loss is stored as its mask's complement
            buckets.setdefault(v, {})[i] = ~(mask & live) if loss else mask & live
        margins = sorted(gains.keys() | losses.keys())

        def nets(j):
            return [
                sum(m >> j & 1 for m in gains.get(v, ())) - sum(m >> j & 1 for m in losses.get(v, ()))
                for v in margins
            ]

        best = min((j for j in range(10) if live >> j & 1), key=nets)
        assert _least_net_change(live, buckets) == 1 << best

    def test_pure_powers_build_no_pool(self, monkeypatch):
        # n = 3 picks nothing, so the search returns the seed before it
        # builds its candidates; every FaceVertex cell (N, d, N + 1) ends here
        def refuse(*args):
            raise AssertionError("the search built its pool")

        full = {d: MonomialFamily.from_exponents(enumerate_monomials(2, d)) for d in range(2, 15)}
        monkeypatch.setattr("syzstab.constructions.enumerate_monomials", refuse)
        monkeypatch.setattr("syzstab.constructions._exponent_masks", refuse)
        dispatch.cache_clear()
        powers = MonomialFamily.from_exponents([(139, 0, 0), (0, 139, 0), (0, 0, 139)])
        assert dispatch(2, 139, 3) == (Route.N2_SEARCH, powers)
        # the full plane cell takes every candidate whatever the order of
        # its picks, so it is every degree-d monomial, found without a search
        for d, fam in full.items():
            n = binomial(d + 2, 2)
            assert admissible_bounds(2, d)[1] == n
            assert gen_n2_search(d, n) == fam
            assert dispatch(2, d, n) == (Route.N2_SEARCH, fam)

    def test_search_memory_follows_the_divisors_it_touches(self):
        # the admitted plane cell with the largest d that makes a pick: the
        # search touches a few thousand of the (d + 1)^3 = 91,125 divisor keys
        assert admissible_bounds(2, 44) == (3, 4)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            gen_n2_search(44, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_families_past_the_admission_bound_are_pinned(self):
        # margins collide densely at these sizes, so many picks move a divisor
        # out of a bucket that other divisors still share
        digest = hashlib.sha256()
        for d, n in ((20, 150), (25, 200), (30, 300)):
            digest.update(gen_n2_search(d, n).to_text().encode())
        assert digest.hexdigest() == (
            "834dc664a7f4752d5c1dd19523e071307832fa405963fa73240a59054320d409"
        )

    def test_greedy_certifies_across_grid(self):
        for d in range(2, 7):
            lo, hi = admissible_bounds(2, d)
            for n in range(lo, hi + 1):
                fam = gen_n2_search(d, n)
                assert len(fam) == n
                assert check_family(fam).verdict is expected_verdict(2, d, n)


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
        assert len(constructions._dispatched) == 2


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
        assert decompose_faces_case(*cell) == coords

    def test_brackets_tile_their_range(self):
        # every n in the layer range has exactly one (r, l, i); i recovers n
        for N in (3, 4, 5):
            for d in range(2, 9):
                low = binomial(d + N - 1, N - 1) + 1
                top = binomial(d + N, N) - binomial(d - 1, N)
                for n in range(low + 1, top + 1):
                    if n == binomial(d + N, N):
                        continue
                    r, l, i = decompose_faces_case(N, d, n)
                    base = binomial(d + N, N) - binomial(d - r + N, N)
                    lo = base + binomial(l + N - 1, N - 1)
                    hi = base + binomial(l + N, N - 1)
                    assert lo < n <= hi
                    assert i == n - lo
                    assert 1 <= r <= min(d - 1, N)
                    assert -1 <= l <= d - r - 1


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


def face_cells(N, d):
    """The PropFaces and FacesAndDots cells of the column (N, d), each with its reference."""
    references = {Route.PROP_FACES: layered_prop_faces, Route.FACES_AND_DOTS: faces_and_dots}
    lo, hi = admissible_bounds(N, d)
    routes = ((n, classify_route(N, d, n)) for n in range(lo, hi + 1))
    return [((N, d, n), references[route]) for n, route in routes if route in references]


def test_face_order_gives_the_layered_families_nested_along_n():
    # every PropFaces and FacesAndDots cell with N 3..6 and d <= 8: the face
    # order's prefixes are the paper's three-part families, past the faces
    # the dots follow in order, and down each column (N, d) the family at
    # n + 1 contains the one at n
    counts = {layered_prop_faces: 0, faces_and_dots: 0}
    for N in range(3, 7):
        for d in range(2, 9):
            last = set()
            for cell, reference in face_cells(N, d):
                counts[reference] += 1
                fam = gen_prop_faces(*cell)
                assert fam == reference(*cell), cell
                rows = set(fam.rows)
                assert last < rows and len(rows) == cell[2], cell
                last = rows
    assert counts == {layered_prop_faces: 6062, faces_and_dots: 50}


def test_face_order_is_built_once_per_column(monkeypatch):
    # every face cell of (4, 6) and of (3, 7), the columns taken in turns of
    # four cells: each column keeps its own order, so each enumerates its
    # degree once however often the columns switch, and each family is
    # Brenner's
    enumerated = []

    def counted(N, e):
        enumerated.append((N, e))
        return enumerate_monomials(N, e)

    monkeypatch.setattr("syzstab.constructions.enumerate_monomials", counted)
    columns = [face_cells(4, 6), face_cells(3, 7)]
    assert list(map(len, columns)) == [125, 67]
    dispatch.cache_clear()
    switches, last = 0, None
    for i in range(0, 125, 4):
        for column in columns:
            for cell, reference in column[i:i + 4]:
                switches += cell[:2] != last
                last = cell[:2]
                assert gen_prop_faces(*cell) == reference(*cell), cell
    assert switches == 35
    assert enumerated == [(4, 6), (3, 7)]
    # clearing dispatch drops the order too, so a cold dispatch builds it
    # again even for the column last built
    dispatch.cache_clear()
    dispatch(*cell)
    assert enumerated[2:] == [cell[:2]]


def test_a_face_column_sorts_only_its_first_family(monkeypatch):
    # the face cells of (4, 6) dispatched in n order: each grows from the
    # one before it by inserting its new row, so only the first sorts
    sorted_builds = []

    def counted(cls, N, d, rows, real=MonomialFamily._from_valid_rows.__func__):
        sorted_builds.append((N, d))
        return real(cls, N, d, rows)

    cells = [(cell, reference(*cell)) for cell, reference in face_cells(4, 6)]
    assert len(cells) == 125
    monkeypatch.setattr(MonomialFamily, "_from_valid_rows", classmethod(counted))
    dispatch.cache_clear()
    for cell, reference in cells:
        assert dispatch(*cell)[1] == reference, cell
    assert sorted_builds == [(4, 6)]


def test_a_direct_build_sorts_once_whatever_was_built_before(monkeypatch):
    # every face cell of (4, 6) built directly, after the column was
    # dispatched in n order and after nothing: each is one sorted build of
    # Brenner's family.  Given the family at n - 1 it sorts nothing and
    # gives the same family
    cells = [(cell, reference(*cell)) for cell, reference in face_cells(4, 6)]
    sorted_builds = []

    def counted(cls, N, d, rows, real=MonomialFamily._from_valid_rows.__func__):
        sorted_builds.append((N, d))
        return real(cls, N, d, rows)

    dispatch.cache_clear()
    for cell, _ in cells:
        dispatch(*cell)
    monkeypatch.setattr(MonomialFamily, "_from_valid_rows", classmethod(counted))
    for warm in (True, False):
        if not warm:
            dispatch.cache_clear()
        for cell, reference in cells:
            sorted_builds.clear()
            assert gen_prop_faces(*cell) == reference, cell
            assert sorted_builds == [(4, 6)], cell
    sorted_builds.clear()
    for (_, before), (cell, reference) in zip(cells, cells[1:]):
        assert gen_prop_faces(*cell, last=before) == reference, cell
    assert sorted_builds == []
    dispatch.cache_clear()


def test_threads_racing_on_dispatch_build_the_layered_families():
    # more threads than cores, switching often, each dispatching the face
    # cells of (4, 6) in n order from its own start: whichever cells the
    # others have cached, each cell must get Brenner's family
    cells = [(cell, reference(*cell)) for cell, reference in face_cells(4, 6)]
    walks = [cells[t * 31:] + cells[:t * 31] for t in range(4)]
    built = [[] for _ in walks]

    def walk(me):
        built[me].extend(dispatch(*cell)[1] for cell, _ in walks[me])

    dispatch.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(me,)) for me in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
        dispatch.cache_clear()
    for walk, families in zip(walks, built):
        assert families == [reference for _, reference in walk]


def test_face_families_of_a_column_share_their_rows():
    # all 776 face families of (5, 8) held at once: each takes its rows from
    # the column's one face order, about 5.5 MiB in all, where rows built
    # afresh per cell took about 63 MiB
    cells = face_cells(5, 8)
    assert len(cells) == 776
    dispatch.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        families = [gen_prop_faces(*cell) for cell, _ in cells]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(families) == 776
    assert peak < 16 * 2**20


def test_full_set_is_the_whole_face_order():
    # every FullSet cell with N <= 20 below the admission ceiling: the face
    # order with X0...XN past the faces when d = N + 1 is every monomial
    cells = 0
    for N in range(3, 21):
        for d in range(1, N + 2):
            top = binomial(d + N, N)
            if top > MAX_DEGREE_MONOMIALS or classify_route(N, d, top) is not Route.FULL_SET:
                continue
            cells += 1
            assert gen_prop_faces(N, d, top).rows == tuple(enumerate_monomials(N, d)), (N, d)
    assert cells == 91


def test_the_dots_are_the_lifted_pure_powers():
    # every FacesAndDots cell with all N + 1 dots, N 3..7 and d <= N + 12:
    # the dots are the pure powers of degree d - N - 1 lifted by X0...XN
    cells = 0
    for N in range(3, 8):
        for d in range(N + 2, N + 13):
            top = binomial(d + N, N)
            n = top - binomial(d - 1, N) + N + 1
            if top > MAX_DEGREE_MONOMIALS or classify_route(N, d, n) is not Route.FACES_AND_DOTS:
                continue
            cells += 1
            pure_powers = dispatch(N, d - N - 1, N + 1)[1]
            assert gen_prop_faces(N, d, n) == gen_prop_faces(N, d, n, pure_powers), (N, d, n)
    assert cells == 32


def test_brenner_cells_are_the_faces_and_their_lifted_inner_family():
    # every BrennerRecursion cell of the default sweep grid, N <= 4, d <= 6
    cells = 0
    for N in range(3, 5):
        for d in range(2, 7):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                if classify_route(N, d, n) is not Route.BRENNER_RECURSION:
                    continue
                cells += 1
                faces = faces_family(N, d).rows
                inner = dispatch(N, d - N - 1, n - len(faces))[1]
                lifted = [tuple(e + 1 for e in m) for m in inner.rows]
                assert dispatch(N, d, n)[1] == MonomialFamily.from_exponents(faces + tuple(lifted)), (N, d, n)
    assert cells == 6


def dispatched_columns(columns):
    """(cell, route, family, certificate) of each cell of the columns, dispatched in n order."""
    made = []
    for N, d in columns:
        lo, hi = admissible_bounds(N, d)
        for n in range(lo, hi + 1):
            try:
                route, fam, cert = constructions._certified_family(N, d, n)
            except NoFamilyExists:
                continue
            made.append(((N, d, n), route, fam, cert))
    return made


def test_dispatch_certificates_equal_a_fresh_scan(monkeypatch):
    # the default grid, then column (3, 8) with its 31 Brenner cells, each
    # from cold caches.  A FaceVertex cell certifies from its base's
    # certificate and a face or Brenner cell from the scan record of its
    # cell at n - 1; only (3, 6, 81), the first Brenner cell of (3, 6), is
    # not one row more than that cell and falls back on check_family.  Each
    # certificate must be the one check_family derives from a copy of the
    # rows once its cache and records are cleared
    calls = Counter()

    def shortcut(name, real):
        def certify(*args):
            calls[name] += 1
            checks = calls["check_family"]
            cert = real(*args)
            calls["fallback"] += calls["check_family"] > checks
            return cert

        return certify

    def check(fam, real=check_family):
        calls["check_family"] += 1
        return real(fam)

    grid = [(N, d) for N in range(1, 5) for d in range(2, 7)]
    made = []
    for columns, want in (
        (grid, {"check_vertex_family": 259, "check_grown_family": 356, "fallback": 1}),
        ([(3, 8)], {"check_vertex_family": 55, "check_grown_family": 136, "fallback": 0}),
    ):
        dispatch.cache_clear()
        check_family.cache_clear()
        calls.clear()
        for name in ("check_vertex_family", "check_grown_family"):
            monkeypatch.setattr(constructions, name, shortcut(name, getattr(constructions, name)))
        monkeypatch.setattr(criterion, "check_family", check)
        made += dispatched_columns(columns)
        monkeypatch.undo()
        assert {name: calls[name] for name in want} == want, columns
    routes = Counter(route for _, route, _, _ in made)
    assert len(made) == 709 + 162
    assert (routes[Route.FACE_VERTEX], routes[Route.BRENNER_RECURSION]) == (259 + 43, 6 + 31)
    dispatch.cache_clear()
    check_family.cache_clear()
    for cell, _, fam, cert in made:
        assert check_family(MonomialFamily.from_exponents(fam.rows)) == cert, cell
    check_family.cache_clear()


def swapped(fam):
    """The family with X0 and X1 exchanged: as stable as fam, with other rows."""
    return MonomialFamily.from_exponents((r[1], r[0], *r[2:]) for r in fam.rows)


@pytest.mark.parametrize(
    "generator, cell",
    [("gen_face_vertex", (4, 4, 11)), ("gen_prop_faces", (3, 4, 20)), ("gen_prop_faces", (3, 8, 140))],
)
def test_a_patched_builder_gets_its_own_certificate(monkeypatch, generator, cell):
    # a FaceVertex, a PropFaces and a Brenner cell whose builder returns
    # another valid family of the cell: neither certification from the
    # source cell vouches for it, so it gets the full scan's certificate
    N, d, n = cell
    dispatch.cache_clear()
    check_family.cache_clear()
    _, genuine, genuine_cert = constructions._certified_family(*cell)
    dispatch.cache_clear()
    constructions._certified_family(N, d, n - 1)
    real = getattr(constructions, generator)
    monkeypatch.setattr(constructions, generator, lambda *args: swapped(real(*args)))
    try:
        _, fam, cert = constructions._certified_family(*cell)
    finally:
        dispatch.cache_clear()
        check_family.cache_clear()
    assert fam == swapped(genuine) != genuine
    assert cert == check_family(MonomialFamily.from_exponents(fam.rows)) != genuine_cert
    check_family.cache_clear()


def test_brenner_cells_grow_by_one_lifted_row(monkeypatch):
    # the 31 Brenner cells of (3, 8) in n order, after their inner column
    # (3, 4) and the cells before them: each but the first inserts its one
    # lifted row into the family at n - 1 and sorts nothing, and each is the
    # family a fresh build on its inner family gives
    sorted_builds = []

    def counted(cls, N, d, rows, real=MonomialFamily._from_valid_rows.__func__):
        sorted_builds.append((N, d))
        return real(cls, N, d, rows)

    lo, hi = admissible_bounds(3, 8)
    cells = [n for n in range(lo, hi + 1) if classify_route(3, 8, n) is Route.BRENNER_RECURSION]
    assert len(cells) == 31
    faces = cells[0] - 5  # the faces and all four dots come first
    dispatch.cache_clear()
    dispatched_columns([(3, 4)])
    for n in range(lo, cells[0]):
        dispatch(3, 8, n)
    monkeypatch.setattr(MonomialFamily, "_from_valid_rows", classmethod(counted))
    built = [dispatch(3, 8, n)[1] for n in cells]
    assert sorted_builds == [(3, 8)]
    monkeypatch.undo()
    for n, fam in zip(cells, built):
        assert fam == gen_prop_faces(3, 8, n, dispatch(3, 4, n - faces)[1]), n
    dispatch.cache_clear()


def test_faces_and_dots_members():
    fam = gen_prop_faces(3, 5, 53)
    assert len(fam) == 53
    faces = faces_family(3, 5)
    assert set(faces.rows) <= set(fam.rows)
    extra = set(fam.rows) - set(faces.rows)
    assert extra == {(2, 1, 1, 1)}


class TestBrennerRecursion:
    def test_interior_lift(self):
        # the 100 faces leave (3, 3, 5) to lift inside them
        fam = gen_prop_faces(3, 7, 105, dispatch(3, 3, 5)[1])
        faces = faces_family(3, 7)
        interior = [m for m in fam.rows if all(e >= 1 for e in m)]
        assert len(fam) == 105
        assert set(faces.rows) <= set(fam.rows)
        assert len(interior) == 5
        assert all(sum(m) == 7 for m in interior)

    def test_top_of_range_equals_full_set(self):
        for N, d in [(3, 6), (3, 7), (3, 8), (4, 7)]:
            # the faces leave the top cell of degree d - N - 1 inside them
            fam = gen_prop_faces(N, d, binomial(d + N, N), dispatch(N, d - N - 1, binomial(d - 1, N))[1])
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
