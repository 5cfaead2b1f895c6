"""Unit tests for the monomial enumeration and the family container."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab.monomials import (
    FamilyFormatError,
    Monomial,
    MonomialFamily,
    binomial,
    enumerate_monomials,
    full_family,
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
        m = Monomial((2, 0, 1))
        assert MonomialFamily.from_monomials([m]).d == 3
        assert str(m) == "X0^2*X2"
        assert str(Monomial((0, 0, 0))) == "1"

    def test_validation(self):
        # a Monomial is a plain value; the family constructor checks members
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
            assert len(full_family(N, d)) == binomial(d + N, N)


def test_faces_family_size_formula():
    for N in (2, 3, 4):
        for d in range(1, 7):
            fam = faces_family(N, d)
            assert len(fam) == binomial(d + N, N) - binomial(d - 1, N)
            assert all(0 in m.exponents for m in fam.members)


class TestMonomialFamily:
    def test_from_monomials_canonicalizes(self):
        fam = MonomialFamily.from_monomials([Monomial((0, 2)), Monomial((2, 0)), Monomial((1, 1))])
        assert [m.exponents for m in fam.members] == [(2, 0), (1, 1), (0, 2)]
        assert fam.N == 1 and fam.d == 2 and len(fam) == 3

    def test_constructor_canonicalizes(self):
        unsorted = (Monomial((0, 2)), Monomial((2, 0)), Monomial((1, 1)))
        fam = MonomialFamily(1, 2, unsorted)
        assert [m.exponents for m in fam.members] == [(2, 0), (1, 1), (0, 2)]
        assert fam == MonomialFamily.from_monomials(unsorted)
        with pytest.raises(FamilyFormatError):
            MonomialFamily(1, 2, unsorted + (Monomial((1, 1)),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_exponents([(2, 0), (2, 0)])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_exponents([(2, 0), (1, 0)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MonomialFamily.from_monomials([Monomial((2, 0)), Monomial((0, 2, 0))])

    def test_contains_and_exponent_set(self):
        fam = full_family(2, 2)
        assert Monomial((1, 1, 0)) in fam.members
        assert (2, 0, 0) in fam.exponent_set()

    def test_text_round_trip(self):
        fam = full_family(2, 3)
        again = MonomialFamily.from_text(fam.to_text())
        assert again == fam

    def test_from_text_reorders_to_canonical(self):
        text = "1 2 3\n0 2\n2 0\n1 1\n"
        fam = MonomialFamily.from_text(text)
        assert [m.exponents for m in fam.members] == [(2, 0), (1, 1), (0, 2)]

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
    rows = [m.exponents for m in fam.members]
    assert rows == sorted(rows, reverse=True)
    assert len(set(rows)) == len(fam)
