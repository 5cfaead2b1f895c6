"""Unit tests for the monomial enumeration and the family container."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab.monomials import (
    DimensionMismatch,
    FamilyFormatError,
    Monomial,
    MonomialFamily,
    binomial,
    enumerate_monomials,
    monomial_text,
)

from families import faces_family


def test_binomial_matches_math_comb_on_valid_args():
    from math import comb

    for a in range(10):
        for b in range(a + 1):
            assert binomial(a, b) == comb(a, b)


def test_binomial_vanishes_outside_pascal_triangle():
    assert binomial(-1, 2) == 0
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, -1) == 0


class TestMonomial:
    def test_degree_and_str(self):
        assert monomial_text((2, 0, 1)) == "X0^2*X2"
        assert monomial_text((0, 0, 0)) == "1"
        assert str(Monomial((2, 0, 1))) == "X0^2*X2"
        assert MonomialFamily.from_exponents([(2, 0, 1)]).d == 3

    def test_validation(self):
        bad = [
            [(3,)],  # a single variable is not a projective space
            [(2, 0), (2,)],
            [(3, -1), (0, 2)],  # negative exponent, degree still 2
            [(2, 0), (3, -1)],
            [(1.5, 0.5)],
            [("1", 1)],
            [(1, 1), ("1", 1)],
        ]
        for rows in bad:
            with pytest.raises(ValueError):
                MonomialFamily.from_exponents(rows)
            with pytest.raises(ValueError):
                MonomialFamily.from_monomials(Monomial(r) for r in rows)


def test_enumerate_monomials_count_and_order():
    # a multiset of variable indices in lex order is an exponent tuple in
    # descending order, so the reference needs no sort
    for N in range(1, 6):
        for e in range(-1, 9):
            multisets = itertools.combinations_with_replacement(range(N + 1), e) if e >= 0 else []
            reference = [tuple(c.count(i) for i in range(N + 1)) for c in multisets]
            assert enumerate_monomials(N, e) == reference, (N, e)
            assert len(reference) == binomial(e + N, N)


def test_enumerate_monomials_edge_cases():
    assert enumerate_monomials(2, -1) == []
    assert enumerate_monomials(2, 0) == [(0, 0, 0)]
    with pytest.raises(ValueError):
        enumerate_monomials(0, 2)


def test_full_family_size():
    for N in (1, 2, 3):
        for d in (1, 2, 3):
            assert len(MonomialFamily(N, d, enumerate_monomials(N, d))) == binomial(d + N, N)


def test_faces_family_size_formula():
    for N in (2, 3, 4):
        for d in range(1, 7):
            fam = faces_family(N, d)
            assert len(fam) == binomial(d + N, N) - binomial(d - 1, N)
            assert all(0 in m for m in fam.rows)


class TestMonomialFamily:
    def test_from_exponents_canonicalizes(self):
        fam = MonomialFamily.from_exponents([(0, 2), [2, 0], (1, 1)])
        assert fam.rows == ((2, 0), (1, 1), (0, 2))
        assert fam.N == 1 and fam.d == 2 and len(fam) == 3

    def test_from_monomials_canonicalizes(self):
        # kept for perfbench/ only, as is the members view built from the rows
        fam = MonomialFamily.from_monomials([Monomial((0, 2)), Monomial((2, 0)), Monomial((1, 1))])
        assert fam.rows == ((2, 0), (1, 1), (0, 2))
        assert fam.members == (Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2)))
        assert fam.N == 1 and fam.d == 2 and len(fam) == 3

    def test_constructor_canonicalizes(self):
        unsorted = ((0, 2), (2, 0), (1, 1))
        fam = MonomialFamily(1, 2, unsorted)
        assert fam.rows == ((2, 0), (1, 1), (0, 2))
        assert fam == MonomialFamily.from_exponents(unsorted)
        with pytest.raises(FamilyFormatError, match=r"^duplicate member X0\*X1$"):
            MonomialFamily(1, 2, unsorted + ((1, 1),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_exponents([(2, 0), (2, 0)])

    def test_empty_rows_rejected(self):
        with pytest.raises(FamilyFormatError, match="^cannot infer N and d from an empty family$"):
            MonomialFamily.from_exponents([])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_exponents([(2, 0), (1, 0)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_exponents([(2, 0), (0, 2, 0)])

    def test_contains_and_exponent_set(self):
        fam = MonomialFamily(2, 2, enumerate_monomials(2, 2))
        assert (1, 1, 0) in fam.rows
        assert (2, 0, 0) in fam.exponent_set()

    def test_text_round_trip(self):
        fam = MonomialFamily(2, 3, enumerate_monomials(2, 3))
        again = MonomialFamily.from_text(fam.to_text())
        assert again == fam

    def test_from_text_reorders_to_canonical(self):
        text = "1 2 3\n0 2\n2 0\n1 1\n"
        fam = MonomialFamily.from_text(text)
        assert fam.rows == ((2, 0), (1, 1), (0, 2))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "garbage\n2 0\n",
            "1 2 2\n2 0\n",  # count mismatch
            "1 2 2\n2 0\n1 0\n",  # degree mismatch
            "2 2 2\n2 0\n0 2\n",  # dimension mismatch
            "1 2 2\n2 0\n2 0\n",  # duplicate row
            "1 2 2\n2 0\nx y\n",
            "1 2 2\n2 0\n3 -1\n",  # negative exponent, degree still 2
            "0 2 1\n2\n",  # N below 1
            "1 0 1\n0 0\n",  # d below 1
            "1 2 0\n",  # no members
        ],
    )
    def test_from_text_rejects_malformed(self, text):
        with pytest.raises(FamilyFormatError):
            MonomialFamily.from_text(text)


@st.composite
def families(draw):
    N = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=4))
    pool = list(enumerate_monomials(N, d))
    size = draw(st.integers(min_value=1, max_value=min(len(pool), 8)))
    members = draw(st.permutations(pool))[:size]
    return MonomialFamily.from_exponents(members)


@settings(max_examples=60)
@given(families())
def test_family_text_round_trip_property(fam):
    assert MonomialFamily.from_text(fam.to_text()) == fam


@settings(max_examples=60)
@given(families())
def test_family_members_strictly_descending(fam):
    rows = list(fam.rows)
    assert rows == sorted(rows, reverse=True)
    assert len(set(rows)) == len(fam)


def reference_validate(N, d, rows):
    """The per-member checks the family constructor made before it held rows."""
    if N < 1:
        raise FamilyFormatError(f"N must be at least 1, got {N}")
    if d < 1:
        raise FamilyFormatError(f"d must be at least 1, got {d}")
    members = tuple(Monomial(r) for r in rows)
    for m in members:
        exps = m.exponents
        if len(exps) != N + 1:
            raise DimensionMismatch(
                f"member {exps!r} has {len(exps)} variables, family expects {N + 1}"
            )
        if not all(isinstance(e, int) and e >= 0 for e in exps):
            raise FamilyFormatError(f"exponents must be non-negative integers, got {exps!r}")
        if sum(exps) != d:
            raise FamilyFormatError(f"member {m} has degree {sum(exps)}, family expects {d}")
    members = tuple(sorted(members, key=lambda m: m.exponents, reverse=True))
    for a, b in zip(members, members[1:]):
        if a.exponents == b.exponents:
            raise FamilyFormatError(f"duplicate member {a}")
    return tuple(m.exponents for m in members)


@st.composite
def malformed_rows(draw):
    # mostly valid rows, a few of them spoiled one way or another
    N = draw(st.integers(min_value=0, max_value=3))
    d = draw(st.integers(min_value=0, max_value=4))
    pool = enumerate_monomials(max(N, 1), max(d, 0))
    rows = [list(r) for r in draw(st.lists(st.sampled_from(pool), max_size=6))]
    spoil = st.sampled_from(["short", "long", "negative", "float", "str", "bool", "degree", "repeat"])
    spoiled = set()
    for how in draw(st.lists(spoil, max_size=3)):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        if k in spoiled:
            continue
        spoiled.add(k)
        row = rows[k]
        j = draw(st.integers(0, len(row) - 1))
        if how == "short":
            row.pop()
        elif how == "long":
            row.append(0)
        elif how == "negative":
            # X_j drops to -1 and the next variable makes up the degree
            row[(j + 1) % len(row)] += row[j] + 1
            row[j] = -1
        elif how == "float":
            row[j] = row[j] + 0.5
        elif how == "str":
            row[j] = str(row[j])
        elif how == "bool":
            row[j] = bool(row[j] % 2)
        elif how == "degree":
            row[j] += 1
        else:
            rows.append(list(row))
    return N, d, [tuple(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(malformed_rows())
def test_constructor_raises_as_the_member_loop_did(case):
    N, d, rows = case
    try:
        expected = reference_validate(N, d, rows)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            MonomialFamily(N, d, rows)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
    else:
        assert MonomialFamily(N, d, rows).rows == expected
