"""Unit tests for exact monomial arithmetic and the family container."""

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
    enumerate_monomials_without,
    faces_family,
    full_family,
)


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
        assert m.degree() == 3
        assert str(m) == "X0^2*X2"
        assert str(Monomial((0, 0, 0))) == "1"

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial((3,))  # single variable is not a projective space
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_variable_power(self):
        assert Monomial.variable_power(4, 2, 5) == Monomial((0, 0, 5, 0))

    def test_gcd_lcm_divides(self):
        a = Monomial((2, 1, 0))
        b = Monomial((1, 2, 0))
        assert a.lcm(b) == Monomial((2, 2, 0))

    def test_mul(self):
        assert Monomial((1, 0)) * Monomial((2, 3)) == Monomial((3, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Monomial((1, 0)).lcm(Monomial((1, 0, 0)))

    def test_ordering_is_graded_then_lex(self):
        # higher degree wins; within a degree, larger exponent tuple wins
        assert Monomial((2, 0)) > Monomial((1, 0))
        assert Monomial((2, 0)) > Monomial((1, 1))
        assert Monomial((1, 1)) > Monomial((0, 2))


def test_enumerate_monomials_count_and_order():
    for N in range(1, 5):
        for e in range(0, 6):
            ms = enumerate_monomials(N, e)
            assert len(ms) == binomial(e + N, N)
            assert all(m.degree() == e for m in ms)
            assert list(ms) == sorted(ms, reverse=True)


def test_enumerate_monomials_edge_cases():
    assert enumerate_monomials(2, -1) == ()
    assert enumerate_monomials(2, 0) == (Monomial((0, 0, 0)),)
    with pytest.raises(ValueError):
        enumerate_monomials(0, 2)


def test_enumerate_monomials_without():
    ms = enumerate_monomials_without(2, 2, {1})
    assert all(m.exponents[1] == 0 for m in ms)
    assert len(ms) == binomial(2 + 1, 1)  # quadrics in X0, X2
    assert enumerate_monomials_without(2, 0, {0, 1}) == (Monomial((0, 0, 0)),)


def test_full_family_size():
    for N in (1, 2, 3):
        for d in (1, 2, 3):
            assert len(full_family(N, d)) == binomial(d + N, N)


def test_faces_family_size_formula():
    for N in (2, 3, 4):
        for d in range(1, 7):
            fam = faces_family(N, d)
            assert len(fam) == binomial(d + N, N) - binomial(d - 1, N)
            assert all(0 in m.exponents for m in fam)


class TestMonomialFamily:
    def test_from_monomials_canonicalizes(self):
        fam = MonomialFamily.from_monomials([Monomial((0, 2)), Monomial((2, 0)), Monomial((1, 1))])
        assert [m.exponents for m in fam.members] == [(2, 0), (1, 1), (0, 2)]
        assert fam.N == 1 and fam.d == 2 and len(fam) == 3

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
        assert Monomial((1, 1, 0)) in fam
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
    return MonomialFamily.from_monomials(members)


@settings(max_examples=60)
@given(families())
def test_family_text_round_trip_property(fam):
    assert MonomialFamily.from_text(fam.to_text()) == fam


@settings(max_examples=60)
@given(families())
def test_family_members_strictly_descending(fam):
    assert list(fam.members) == sorted(fam.members, reverse=True)
    assert len(set(fam.members)) == len(fam)
