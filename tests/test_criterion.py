"""Tests for the subset-margin checker, the brute-force oracle, and the
splitting-type checker on the projective line."""

import dataclasses
import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzstab.constructions import Route, dispatch, gen_full
from syzstab.criterion import (
    MAX_ORACLE_WORK,
    MAX_SCAN_WORK,
    OracleSizeError,
    PreconditionError,
    StabilityCertificate,
    Verdict,
    _certificate,
    _degree_tallies,
    _exponent_masks,
    _gcd_witness,
    brute_force_check,
    check_family,
    is_m_primary,
    is_semistable_p1,
    splitting_type_p1,
)
from syzstab.monomials import (
    DimensionMismatch,
    MonomialFamily,
    binomial,
    enumerate_monomials,
)

from families import reference_certificate, reference_scan, reference_tallies, with_vertices


def fam(*rows):
    return MonomialFamily.from_exponents(rows)


def degree_30_family(size=21):
    """size members of degree 30 in six variables; 21 is past the oracle's work bound."""
    pures = [tuple(30 * (k == i) for k in range(6)) for i in range(6)]
    pairs = list(itertools.permutations(range(6), 2))[:size - 6]
    return MonomialFamily.from_exponents(
        pures + [tuple(29 * (k == i) + (k == j) for k in range(6)) for i, j in pairs]
    )


def test_is_m_primary():
    assert is_m_primary(gen_full(2, 2))
    assert not is_m_primary(fam((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)))


def test_check_family_requires_m_primary():
    with pytest.raises(PreconditionError):
        check_family(fam((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)))


def test_check_family_requires_two_members():
    with pytest.raises(PreconditionError):
        check_family(MonomialFamily.from_exponents([(2, 0)]))


def test_scan_work_bound_refuses_before_allocating():
    # (N + 1) * d^2 = 3 * 10^18: one mask per exponent would exhaust memory
    huge = fam((10**9, 0, 0), (0, 10**9, 0), (0, 0, 10**9))
    for checker in (check_family, brute_force_check):
        with pytest.raises(PreconditionError, match=f"exceeds MAX_SCAN_WORK = {MAX_SCAN_WORK}"):
            checker(huge)
    # the line's top admitted degree sits exactly at the bound
    assert 2 * 9999**2 == MAX_SCAN_WORK
    assert check_family(fam((9999, 0), (0, 9999))).verdict is Verdict.STABLE
    # the oracle work-bound family, far below the scan's bound, still scans
    assert check_family(degree_30_family()).n == 21


def test_rank_one_bundle_is_stable_by_convention():
    # the scan needs no special case: the two pure powers' gcd is 1, so no
    # subset has a witness, up to the line's top admitted degree
    for d in (3, 9999):
        f = fam((d, 0), (0, d))
        cert = check_family(f)
        assert cert.verdict is Verdict.STABLE
        assert cert.witness_count == 0
        assert cert.worst is None
        assert brute_force_check(f) == cert
        route, built = dispatch(1, d, 2)
        assert route is Route.P1_FAMILY and built == f
        assert check_family(built) == cert


def test_full_quadrics_plane_worst_witness():
    # six quadrics in three variables: each variable divides three of them
    cert = check_family(gen_full(2, 2))
    assert cert.verdict is Verdict.STABLE
    assert cert.worst is not None
    assert cert.worst.gcd.exponents == (1, 0, 0)
    assert cert.worst.multiple_count == 3
    assert cert.worst.margin == 1
    assert cert.witness_count == 3


def test_scan_skips_non_maximal_gcds():
    # in {X0^3, X0^2 X1, X1^3} the multiples of X0 have gcd X0^2, so the
    # kernel reports X0^2 at degree 2 and, at degree 1, only X1
    rows = [(3, 0), (2, 1), (0, 3)]
    assert tuple(_degree_tallies(rows, 3)) == ((1, 1, 2, (0, 1)), (2, 1, 2, (2, 0)))
    assert [g for g, *_ in reference_scan(rows, 3)] == [(0, 1), (2, 0)]


@st.composite
def member_sets(draw):
    # any non-empty set in any order, m-primary or not
    N = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=1, max_value=7))
    pool = enumerate_monomials(N, d)
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    return rows, d


@settings(max_examples=200, deadline=None)
@given(member_sets())
def test_scan_matches_reference_loop(case):
    # the kernel's per-degree tally, entry for entry, against the one built
    # from the flat candidate loop's listing
    rows, d = case
    assert tuple(_degree_tallies(rows, d)) == reference_tallies(reference_scan(rows, d))


def test_scan_matches_reference_loop_on_full_families():
    for N, d in ((1, 9), (2, 8), (3, 6), (4, 5)):
        family = gen_full(N, d)
        listing = list(reference_scan(family.rows, d))
        assert listing
        assert tuple(_degree_tallies(family.rows, d)) == reference_tallies(listing)
        assert check_family(family).witness_count == len(listing)


def test_tally_keeps_the_first_gcd_with_its_degrees_largest_k():
    # at degree 1 the scan meets X0 (k 2), then X1 (k 3), then X2 (k 3):
    # X1 reaches the largest k first and X2's tie does not replace it
    f = fam((3, 0, 0), (1, 1, 1), (0, 3, 0), (0, 2, 1), (0, 0, 3))
    assert [(g, e, k) for g, e, k, _ in reference_scan(f.rows, 3)] == [
        ((1, 0, 0), 1, 2), ((0, 1, 0), 1, 3), ((0, 0, 1), 1, 3),
        ((0, 2, 0), 2, 2), ((0, 1, 1), 2, 2),
    ]
    cert = check_family(f)
    assert cert.by_degree == ((1, 3, 3, (0, 1, 0)), (2, 2, 2, (0, 2, 0)))
    assert cert == reference_certificate(f)


def reference_masks(rows, num_vars, d):
    """ge[i][t] built entry by entry, as the masks were before only nonzero exponents set bits."""
    ge = []
    for i in range(num_vars):
        at = [0] * (d + 2)
        for j, row in enumerate(rows):
            at[row[i]] |= 1 << j
        for t in range(d, -1, -1):
            at[t] |= at[t + 1]
        ge.append(at)
    return ge


@st.composite
def sparse_rows(draw):
    # rows of degree at most d over up to a dozen variables: mostly zeros
    num_vars = draw(st.integers(min_value=1, max_value=12))
    d = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        row = [0] * num_vars
        budget = draw(st.integers(min_value=0, max_value=d))
        while budget:
            v = draw(st.integers(min_value=1, max_value=budget))
            row[draw(st.integers(min_value=0, max_value=num_vars - 1))] += v
            budget -= v
        rows.append(tuple(row))
    return rows, num_vars, d


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_exponent_masks_match_per_entry_reference(case):
    assert _exponent_masks(*case) == reference_masks(*case)


def test_witness_json_keys():
    cert = check_family(gen_full(2, 2))
    blob = cert.worst.to_json()
    assert set(blob) == {"g", "d_J", "k", "margin"}
    assert blob == {"g": [1, 0, 0], "d_J": 1, "k": 3, "margin": 1}


def test_certificate_json_shape():
    cert = check_family(gen_full(2, 2))
    blob = cert.to_json()
    assert list(blob) == [
        "verdict", "N", "d", "n", "primary", "conclusive", "witness_count", "worst",
    ]
    # a certificate holds what the criterion decides, and nothing else
    assert [f.name for f in dataclasses.fields(StabilityCertificate)] == [
        "verdict", "N", "d", "n", "witness_count", "worst", "by_degree",
    ]
    # the per-degree summary stays out of the JSON
    assert cert.by_degree == ((1, 3, 3, (1, 0, 0)),)


def test_criterion_violation_is_inconclusive_for_plane():
    # seven cubics heavy on X0: the multiples of X0 give a negative margin
    f = fam((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (1, 1, 1),
            (0, 3, 0), (0, 0, 3))
    cert = check_family(f)
    assert cert.verdict is Verdict.CRITERION_VIOLATED
    assert cert.worst.margin < 0
    assert not cert.conclusive
    assert cert.to_json()["conclusive"] is False
    assert brute_force_check(f) == cert


def test_zero_margin_is_semistable_not_stable():
    f = fam((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2))
    cert = check_family(f)
    assert cert.verdict is Verdict.SEMISTABLE
    assert cert.worst.margin == 0


def test_check_family_is_memoized():
    f = gen_full(2, 3)
    assert check_family(f) is check_family(gen_full(2, 3))


def reference_oracle(fam: MonomialFamily, limit: int = 16) -> StabilityCertificate:
    """The depth-first walk over all 2^n - n - 1 subsets the dynamic program replaced.

    Kept as it was apart from its name and these first lines.  It breaks
    ties in the worst witness by walk order, so only the worst margin is
    compared with it.

    Walks all 2^n - n - 1 subsets depth-first over index sets, carrying the
    running gcd and member count down one path at a time, so memory stays
    O(n) plus one entry per distinct gcd.  Applies the margin inequality to
    each subset and derives the verdict from the raw quantifiers: any
    negative margin (any subset) refutes the certificate, a zero margin on a
    proper subset caps it at semistable.  The reported worst witness is a
    minimal-margin proper subset with nontrivial gcd, the same quantity
    check_family minimizes; trivial-gcd subsets are provably slack and the
    full family sits at margin zero.  witness_count is the number of distinct
    nontrivial gcds of proper subsets: each such g = gcd(J) is also the gcd of
    all multiples of g, so these are exactly the witnesses check_family
    counts.
    """
    n = len(fam)
    if n > limit:
        raise OracleSizeError(
            f"family has {n} members, oracle limit is {limit}; "
            "raise the limit explicitly to force enumeration"
        )
    if n < 2:
        raise PreconditionError(f"need at least two generators, got {n}")
    if not is_m_primary(fam):
        raise PreconditionError("family is not m-primary: some pure power X_i^d is missing")
    d = fam.d
    exps = fam.rows
    worst: tuple | None = None  # (g, e, k, margin), as reference_scan lists them
    gcds: dict[tuple[int, ...], int] = {}  # each proper subset's gcd and its largest size
    negative = False
    zero_proper = False

    def extend(start: int, g: tuple[int, ...], k: int) -> None:
        # every extension of the current path (gcd g, k members) by indices >= start
        nonlocal worst, negative, zero_proper
        k += 1
        for j in range(start, n):
            h = tuple(map(min, g, exps[j]))
            e = sum(h)
            margin = (d - e) * n + e - d * k
            if margin < 0:
                negative = True
            if k < n:
                if margin == 0:
                    zero_proper = True
                if e >= 1:
                    gcds[h] = max(gcds.get(h, 0), k)
                    if worst is None or margin < worst[3]:
                        worst = h, e, k, margin
            if j + 1 < n:
                extend(j + 1, h, k)

    for i in range(n - 1):
        extend(i + 1, exps[i], 1)
    if negative:
        verdict = Verdict.CRITERION_VIOLATED
    elif zero_proper:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.STABLE
    # per degree: the count, the largest k and, at that k, the largest g
    by_e: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for g, k in gcds.items():
        by_e.setdefault(sum(g), []).append((k, g))
    by_degree = tuple((e, len(kg), *max(kg)) for e, kg in sorted(by_e.items()))
    return StabilityCertificate(verdict, fam.N, fam.d, n, len(gcds), _gcd_witness(worst), by_degree)


class TestBruteForce:
    def test_admits_families_beyond_twenty_members(self):
        # 35 members, but at most C(8, 4) = 70 distinct subset gcds
        f = gen_full(3, 4)
        assert len(f) == 35
        assert brute_force_check(f) == check_family(f)

    def test_work_bound_admits_20_members_at_exactly_the_cap(self):
        # C(36, 6) >= 2^20, so the bound is 20 * 2^20, which equals the cap
        f = degree_30_family(20)
        assert len(f) == 20 and is_m_primary(f)
        assert binomial(36, 6) >= 2**20
        assert 20 * min(2**20, binomial(36, 6)) == MAX_ORACLE_WORK
        assert brute_force_check(f) == check_family(f)

    def test_work_bound_refuses_21_members_of_degree_30(self):
        # 21 * C(36, 6) = 40,903,632 componentwise minima at most
        f = degree_30_family()
        assert len(f) == 21 and is_m_primary(f)
        assert 21 * binomial(36, 6) > MAX_ORACLE_WORK
        with pytest.raises(OracleSizeError, match=r"21 members.*C\(d\+N\+1, N\+1\).*N = 5, d = 30.*20971520"):
            brute_force_check(f)

    def test_worst_margin_restricted_to_nontrivial_gcds(self):
        # proper subsets with trivial gcd can have smaller margins than any
        # divisor-defined subset; the reported worst ignores them, matching
        # the scanning checker
        f, o = gen_full(2, 2), brute_force_check(gen_full(2, 2))
        cert = check_family(f)
        assert o.worst == cert.worst
        assert o.worst.gcd_degree >= 1

    def test_ties_break_in_scan_order(self):
        # X0^2 (k 3) and X0^3 (k 2) both sit at margin 0; the scan meets the
        # lower degree first, and the depth-first walk met X0^3 first
        f = fam((4, 0, 0), (3, 0, 1), (2, 1, 1), (0, 4, 0), (0, 0, 4))
        o = brute_force_check(f)
        assert o.worst == check_family(f).worst
        assert o.worst.gcd.exponents == (2, 0, 0) and o.worst.margin == 0
        assert reference_oracle(f).worst.gcd.exponents == (3, 0, 0)
        # X0, X1 and X2 tie at degree 1: the larger exponent tuple comes first
        assert brute_force_check(gen_full(2, 2)).worst.gcd.exponents == (1, 0, 0)

    def test_memory_stays_linear(self):
        # a 2^n gcd table would take megabytes at n = 16
        pool = enumerate_monomials(3, 4)
        pures = [m for m in pool if 4 in m]
        f = MonomialFamily.from_exponents(pures + [m for m in pool if m not in pures][:12])
        assert len(f) == 16
        tracemalloc.start()
        try:
            oracle = brute_force_check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        cert = check_family(f)
        assert oracle.verdict is cert.verdict
        assert oracle.worst.margin == cert.worst.margin
        assert oracle.witness_count == cert.witness_count

    def test_agrees_on_semistable(self):
        f = fam((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2))
        o = brute_force_check(f)
        assert o.verdict is Verdict.SEMISTABLE
        assert o.worst.margin == 0
        assert o == check_family(f)

    def test_answers_without_the_scan(self, monkeypatch):
        # the oracle is an independent check only while it shares no code
        # with the scan; the walk is patched, and check_family goes through it
        def scan(*args, **kwargs):
            raise AssertionError("the oracle called the scan")

        f = gen_full(2, 3)
        cert = check_family(f)
        check_family.cache_clear()
        monkeypatch.setattr("syzstab.criterion._degree_tallies", scan)
        assert brute_force_check(f) == cert
        with pytest.raises(AssertionError, match="called the scan"):
            check_family(f)


@st.composite
def primary_families(draw, max_N=4, max_d=5, max_members=14):
    N = draw(st.integers(min_value=2, max_value=max_N))
    d = draw(st.integers(min_value=2, max_value=max_d))
    pool = enumerate_monomials(N, d)
    pures = [m for m in pool if d in m]
    others = [m for m in pool if d not in m]
    if draw(st.booleans()):
        # members heavy on X0 crowd its multiples: many CriterionViolated
        others = [m for m in others if m[0] >= 1]
    extra = draw(st.integers(min_value=0, max_value=min(len(others), max_members - len(pures))))
    chosen = draw(st.permutations(others))[:extra]
    return MonomialFamily.from_exponents(pures + list(chosen))


@settings(max_examples=80, deadline=None)
@given(primary_families())
def test_oracle_agrees_with_scan(f):
    # the certificates are equal field by field, the worst witness included
    assert brute_force_check(f) == check_family(f)


@settings(max_examples=100, deadline=None)
@given(primary_families(max_N=5, max_d=7, max_members=40))
def test_certificate_matches_the_reference_loop(f):
    # the whole certificate, by_degree included, against the candidate x
    # member loop; families heavy on X0 give CriterionViolated
    assert check_family(f) == reference_certificate(f)


@st.composite
def vertex_families(draw):
    # an m-primary core, on the line or from primary_families, then one to
    # three variables that divide only their own pure powers
    if draw(st.booleans()):
        core = draw(primary_families())
    else:
        d = draw(st.integers(min_value=2, max_value=6))
        inner = draw(st.lists(st.sampled_from(enumerate_monomials(1, d)[1:-1]), unique=True))
        core = MonomialFamily.from_exponents([(d, 0), (0, d), *inner])
    return with_vertices(core, draw(st.integers(min_value=1, max_value=3)))


# cores that certify SemistableCertified and CriterionViolated: X0 divides
# three of the quadrics, and 15 of the 17 quintics
SEMISTABLE_CORE = fam((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2))
VIOLATED_CORE = MonomialFamily.from_exponents(
    [m for m in enumerate_monomials(2, 5) if m[0]] + [(0, 5, 0), (0, 0, 5)]
)


@settings(max_examples=80, deadline=None)
@given(vertex_families())
@example(with_vertices(SEMISTABLE_CORE, 2))
@example(with_vertices(VIOLATED_CORE, 1))
@example(with_vertices(VIOLATED_CORE, 3))
def test_vertex_families_agree_with_the_oracle(f):
    # check_family reads these off the core's certificate; the oracle
    # enumerates every subset of the whole family
    assert brute_force_check(f) == check_family(f)


def test_each_vertex_adds_d_minus_e_to_every_margin():
    # the core's summary, padded, at the larger n: X0's margin 0 becomes 1,
    # and its -6 becomes -2, then 2
    cases = (
        (SEMISTABLE_CORE, [Verdict.SEMISTABLE, Verdict.STABLE], [0, 1]),
        (VIOLATED_CORE, [Verdict.CRITERION_VIOLATED] * 2 + [Verdict.STABLE], [-6, -2, 2]),
    )
    for core, verdicts, margins in cases:
        for t, (verdict, margin) in enumerate(zip(verdicts, margins)):
            cert = check_family(with_vertices(core, t))
            assert (cert.verdict, cert.worst.margin) == (verdict, margin)
            assert cert.worst.gcd.exponents == (1, 0, 0) + (0,) * t
            padded = tuple((e, c, k, g + (0,) * t) for e, c, k, g in check_family(core).by_degree)
            assert cert.by_degree == padded


def test_long_vertex_chains_certify_in_one_step():
    # one call per stripped variable would recurse 600 deep
    pures = MonomialFamily(600, 2, [(0,) * i + (2,) + (0,) * (600 - i) for i in range(601)])
    _, plane = dispatch(2, 4, 10)
    chain = with_vertices(plane, 600)
    check_family.cache_clear()
    for f in (pures, chain):
        start = time.perf_counter()
        cert = check_family(f)
        assert time.perf_counter() - start < 1
        # the kernel over all the rows, no core stripped; the flat reference
        # loop would try C(605, 3) degree-3 candidates in the chain
        assert cert == _certificate(f.N, f.d, len(f), tuple(_degree_tallies(f.rows, f.d)))
    assert cert.N == 602 and cert.n == 610 and cert.verdict is Verdict.STABLE
    assert check_family(pures).witness_count == 0


@settings(max_examples=80, deadline=None)
@given(primary_families())
def test_oracle_agrees_with_reference_walk(f):
    oracle, walk = brute_force_check(f), reference_oracle(f)
    assert oracle.verdict is walk.verdict
    assert oracle.witness_count == walk.witness_count
    assert oracle.by_degree == walk.by_degree
    a = None if oracle.worst is None else oracle.worst.margin
    b = None if walk.worst is None else walk.worst.margin
    assert a == b


class TestSplittingType:
    def test_balanced_family(self):
        f = fam((4, 0), (2, 2), (0, 4))
        twists = splitting_type_p1(f)
        assert twists == (-6, -6)
        assert sum(twists) == -12
        assert len(set(twists)) <= 1
        assert is_semistable_p1(f) is Verdict.SEMISTABLE

    def test_unbalanced_family(self):
        f = fam((3, 0), (2, 1), (0, 3))
        twists = splitting_type_p1(f)
        assert twists == (-4, -5)
        assert len(set(twists)) > 1
        assert is_semistable_p1(f) is Verdict.NOT_SEMISTABLE

    def test_two_members_are_stable(self):
        assert is_semistable_p1(fam((5, 0), (0, 5))) is Verdict.STABLE

    def test_total_equals_full_degree(self):
        # the twists always sum to -dn
        f = fam((6, 0), (5, 1), (3, 3), (0, 6))
        assert sum(splitting_type_p1(f)) == -6 * 4

    def test_requires_line(self):
        with pytest.raises(DimensionMismatch):
            splitting_type_p1(gen_full(2, 2))

    def test_requires_m_primary(self):
        with pytest.raises(PreconditionError):
            splitting_type_p1(fam((3, 0), (2, 1)))


def test_strategy_x0_on_full_family():
    # in every degree e, no monomial divides more members than X0^e does
    fam = gen_full(3, 3)
    exps = fam.rows
    for e in range(1, fam.d):
        x0_count = sum(1 for m in exps if m[0] >= e)
        for g in enumerate_monomials(fam.N, e):
            count = sum(1 for m in exps if all(a <= b for a, b in zip(g, m)))
            assert count <= x0_count
