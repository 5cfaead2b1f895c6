"""Tests for the cell generators, the route classifier, and the dispatcher."""

import hashlib

import pytest

from syzstab.constructions import (
    MAX_DEGREE_MONOMIALS,
    CaseDecomposition,
    NoFamilyExists,
    Route,
    RoutingError,
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
    survey_225_candidates,
)
from syzstab.criterion import Verdict, check_family, is_m_primary
from syzstab.monomials import (
    Monomial,
    MonomialFamily,
    binomial,
    enumerate_monomials,
    faces_family,
    full_family,
)


def x0_dominates(fam):
    """Whether, in every degree e in 1..d-1, no monomial divides more members than X0^e.

    Families built face-first in the canonical variable order have this
    property, which collapses the criterion to the X0^e candidates.
    """
    exps = [m.exponents for m in fam.members]
    for e in range(1, fam.d):
        x0_count = sum(1 for m in exps if m[0] >= e)
        for g in enumerate_monomials(fam.N, e):
            count = sum(1 for m in exps if all(a <= b for a, b in zip(g.exponents, m)))
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


def test_admission_ceiling_refuses_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_monomials called")

    monkeypatch.setattr("syzstab.monomials.enumerate_monomials", refuse)
    monkeypatch.setattr("syzstab.constructions.enumerate_monomials", refuse)
    assert MAX_DEGREE_MONOMIALS == 10_000
    # C(d+N, N) is symmetric in N and d; each pair is the first refused one
    for (N, d), top in [((139, 2), 9870), ((2, 139), 9870), ((1, 9999), 10_000)]:
        assert admissible_bounds(N, d)[1] == top
    for N, d in [(140, 2), (2, 140), (1, 10_000), (10**6, 10**6)]:
        with pytest.raises(RoutingError):
            admissible_bounds(N, d)
        with pytest.raises(RoutingError):
            classify_route(N, d, N + 1)
        with pytest.raises(RoutingError):
            dispatch(N, d, N + 1)


def test_deepest_admitted_face_vertex_chain_fits_the_stack():
    # (139, 2, 140) recurses once per dimension down to (2, 2, 3)
    route, fam = dispatch(139, 2, 140)
    assert route is Route.FACE_VERTEX and len(fam) == 140


def test_routes_partition_every_admissible_cell():
    for N in (3, 4, 5):
        for d in range(2, 9):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                classify_route(N, d, n)  # raises if uncovered


class TestP1:
    def test_step_family(self):
        fam = gen_p1(6, 4)
        assert [m.exponents for m in fam.members] == [(6, 0), (4, 2), (2, 4), (0, 6)]

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
    assert [w.margin for w in cert.witnesses] == [3, 3, 3, 3]


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


class TestN2Search:
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
        fam = gen_face_vertex(3, 4, 10)
        assert Monomial((0, 0, 0, 4)) in fam
        inner = [m for m in fam.members if m.exponents[3] == 0]
        assert len(inner) == 9


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
            assert Monomial(exps) in fam

    def test_degenerate_bracket_family(self):
        # n one past the whole-faces count: one monomial beyond the faces
        fam = gen_prop_faces(3, 4, 26)
        faces_part = [m for m in fam.members if m.exponents[2] == 0 or m.exponents[3] == 0]
        assert len(faces_part) == 25
        extra = [m for m in fam.members if m not in faces_part]
        assert [m.exponents for m in extra] == [(0, 0, 1, 3)]

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
    assert set(faces.members) <= set(fam.members)
    extra = set(fam.members) - set(faces.members)
    assert {m.exponents for m in extra} == {(2, 1, 1, 1)}


class TestBrennerRecursion:
    def test_interior_lift(self):
        fam = gen_brenner(3, 7, 105)
        faces = faces_family(3, 7)
        interior = [m for m in fam.members if all(e >= 1 for e in m.exponents)]
        assert len(fam) == 105
        assert set(faces.members) <= set(fam.members)
        assert len(interior) == 5
        assert all(m.degree() == 7 for m in interior)

    def test_top_of_range_equals_full_set(self):
        for N, d in [(3, 6), (3, 7), (3, 8), (4, 7)]:
            n = binomial(d + N, N)
            fam = gen_brenner(N, d, n)
            assert fam.exponent_set() == full_family(N, d).exponent_set()


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
