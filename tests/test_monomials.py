"""Unit tests for the monomial enumeration and the family container."""

import itertools
import re
import time

import pytest
from hypothesis import example, given, settings
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

    def test_bool_exponents_rejected(self):
        # bool is an int subclass, but a family holding True would write the
        # row "True True", which from_text refuses
        for rows, bad in (
            ([(True, True), (2, 0)], "(True, True)"),
            ([(2, 0), (True, 1), (0, 2)], "(True, 1)"),
            ([(2, 0), (1, 1), (0, 2), (False, 2)], "(False, 2)"),
        ):
            message = rf"^exponents must be non-negative integers, got {re.escape(bad)}$"
            with pytest.raises(FamilyFormatError, match=message):
                MonomialFamily(1, 2, rows)
            with pytest.raises(FamilyFormatError, match=message):
                MonomialFamily.from_exponents(rows)

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
    """The per-member checks the family constructor made before it held rows.

    One check is stricter than it was: a bool exponent, which the old checks
    admitted as an int, is refused.
    """
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
        if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps):
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


def reference_parse(text):
    """The family file parser from_text was, one row at a time, then reference_validate."""
    lines = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not lines:
        raise FamilyFormatError("empty family file")
    header = lines[0].split()
    if len(header) != 3:
        raise FamilyFormatError(f"header must be 'N d n', got {lines[0]!r}")
    try:
        N, d, n = (int(x) for x in header)
    except ValueError as exc:
        raise FamilyFormatError(f"non-integer header field in {lines[0]!r}") from exc
    if n < 1:
        raise FamilyFormatError(f"header promises {n} members, need at least 1")
    body = lines[1:]
    if len(body) != n:
        raise FamilyFormatError(f"header promises {n} members, file has {len(body)}")
    rows = []
    for ln in body:
        fields = ln.split()
        if len(fields) != N + 1:
            raise FamilyFormatError(f"row {ln!r} must have {N + 1} exponents")
        try:
            rows.append(tuple(map(int, fields)))
        except ValueError as exc:
            raise FamilyFormatError(f"non-integer exponent in row {ln!r}") from exc
    return N, d, reference_validate(N, d, rows)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def spelled(draw, value):
    # one of the spellings int() reads as value
    text = str(value)
    how = draw(st.sampled_from(["plain", "plus", "zeros", "arabic-indic"]))
    if how == "plus" and value >= 0:
        return "+" + text
    if how == "zeros" and value >= 0:
        return "0" * draw(st.integers(1, 2)) + text
    if how == "arabic-indic":
        return text.translate(ARABIC_INDIC)
    return text


@st.composite
def family_texts(draw, spoils=()):
    """A family file with any row order, spacing and digit spelling, spoiled as asked."""
    N = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.sampled_from([1, 2, 3, 4, 10, 12]))
    pool = enumerate_monomials(N, d)
    size = draw(st.integers(min_value=1, max_value=min(len(pool), 8)))
    rows = [list(r) for r in draw(st.permutations(pool))[:size]]
    header = [N, d, None]
    for how in draw(st.lists(st.sampled_from(spoils), max_size=3)) if spoils else ():
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        if how == "short":
            row.pop()
        elif how == "long":
            row.append(0)
        elif how == "word":
            row[j] = draw(st.sampled_from(["x", "1.5", "--1", "2e1", "½"]))
        elif how == "negative" and len(row) > 1 and all(isinstance(e, int) for e in row):
            # X_j drops to -1 and the next variable makes up the degree
            row[(j + 1) % len(row)] += row[j] + 1
            row[j] = -1
        elif how == "degree" and isinstance(row[j], int):
            row[j] += 1
        elif how == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif how == "count":
            header[2] = len(rows) + draw(st.sampled_from([-1, 1]))
        elif how == "header":
            header[draw(st.integers(0, 2))] = draw(st.sampled_from([0, -1, "x", "1 1"]))
    if header[2] is None:
        header[2] = len(rows)
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    text = ""
    for fields in [header] + rows:
        words = [draw(spelled(f)) if isinstance(f, int) else f for f in fields]
        text += draw(st.sampled_from(["", " ", "\t"]))
        text += "".join(draw(space) + w if i else w for i, w in enumerate(words))
        text += draw(st.sampled_from(["", " "])) + "\n" * draw(st.integers(1, 2))
    return draw(st.sampled_from(["", "\n", "  \n"])) + text


@settings(max_examples=200, deadline=None)
@given(family_texts())
@example("1 2 3\n0 +2\n٢ 0\n001 1\n")
@example("2 12 2\n 10  1 1\n\n0\t0\t12 \n")
@example("1 2 2\r\n2 0\r\n\r\n0 2\r\n")
def test_from_text_reads_valid_files_as_the_per_row_parser_did(text):
    N, d, rows = reference_parse(text)
    fam = MonomialFamily.from_text(text)
    assert (fam.N, fam.d, fam.rows) == (N, d, rows)


@settings(max_examples=300, deadline=None)
@given(family_texts(("short", "long", "word", "negative", "degree", "repeat", "count", "header")))
@example("1 2 3\n2 0\nx 1\n1\n")  # the non-integer row comes first, so it is the one named
@example("1 2 3\n2 0\n1\nx 1\n")  # and here the short row does
@example("")
@example("1 2 0\n")
@example("0 2 1\n2\n")
@example("1 2 2\n2 0\n1 1\n2 0\n")  # one row too many, and it repeats
@example("2 3 2\n3 0 0\n-1 4 0\n")
def test_from_text_raises_as_the_per_row_parser_did(text):
    try:
        expected = reference_parse(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            MonomialFamily.from_text(text)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
    else:
        fam = MonomialFamily.from_text(text)
        assert (fam.N, fam.d, fam.rows) == expected


def test_text_work_is_not_sized_by_the_degree():
    # one string per distinct exponent and one int() per distinct field:
    # a table over range(d + 1) would exhaust memory here
    d = 10**9
    fam = MonomialFamily(2, d, [(d, 0, 0), (0, d, 0), (0, 0, d)])
    start = time.perf_counter()
    text = fam.to_text()
    wrote = time.perf_counter() - start
    assert text == f"2 {d} 3\n{d} 0 0\n0 {d} 0\n0 0 {d}\n"
    start = time.perf_counter()
    again = MonomialFamily.from_text(text)
    read = time.perf_counter() - start
    assert again == fam
    assert wrote < 0.5 and read < 0.5
