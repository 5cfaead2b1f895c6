"""Monomial families, their text format, and degree-level enumeration.

Monomials live in K[X0, ..., XN] and are plain exponent tuples.  A
MonomialFamily holds its members as rows, the canonical (descending) tuple
of those tuples, and everything downstream reads the rows.  Rows a library
caller passes are validated as a whole by the constructor, and rows read
from a family file by from_text, which checks only what its parse has not
already settled; rows the package builds itself (every route's, a certified
family's core) are valid by construction and only sorted, or kept as they
are when they come in canonical order (a grown face family, a core).
monomial_text writes one row as X0^2*X1.  Everything in this module is pure
integer combinatorics; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """A member, or a family, has the wrong number of variables."""


class FamilyFormatError(ValueError):
    """Family data, in memory or on disk, violates the family invariants."""


# Admission ceiling on C(d+N, N), the number of degree-d monomials, which
# routes enumerate up to all of.  The checker derives its own refusal from
# it (criterion._require_checkable).
MAX_DEGREE_MONOMIALS = 10_000


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), defined as 0 for out-of-range arguments.

    Vanishing instead of raising is essential here: cardinality formulas such
    as C(d+N, N) - C(d-1, N) for the union of faces rely on C(d-1, N) = 0
    whenever d <= N.  The one caller that passes a negative upper index, the
    layered face decomposition in its degenerate bottom layer, is a test
    reference in tests/families.py.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def monomial_text(exponents: Sequence[int]) -> str:
    """The monomial with these exponents as text: (2, 1, 0) is X0^2*X1, all zeros is 1."""
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"X{i}")
        elif e > 1:
            parts.append(f"X{i}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Monomial:
    """A monomial X0^e0 * ... * XN^eN stored as its exponent vector.

    The package builds one only as a certificate's worst gcd.  The
    MonomialFamily.members view and from_monomials also use it, for
    perfbench/; all three are deleted once perfbench/ stops reading them.
    """

    exponents: tuple[int, ...]

    # Only normalises to a tuple; it stays in the class body because
    # perfbench/spans.py patches it to count Monomials.
    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))

    def __str__(self) -> str:
        return monomial_text(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({self.exponents!r})"


def enumerate_monomials(N: int, e: int) -> list[tuple[int, ...]]:
    """Exponent tuples of every degree-e monomial in X0..XN, in canonical order.

    Canonical order is descending tuples.  Heads over the first half of the
    variables are extended one coordinate at a time, from what is left of the
    degree down to 0; tails[r] lists the tuples over the other variables that
    sum to r, in the same order.  Each head followed by each tail it leaves
    room for is then in descending order.  Splitting keeps the copying near
    the output size: extending whole rows would copy each prefix once per
    variable, most of a cell's time at N = 139.  Degree 1 is listed
    directly, the N + 1 unit vectors: there the heads' copies and sums grow
    as N^3 (1.2 s at N = 1000), while the output is (N + 1)^2 exponents.  A
    negative degree yields no tuple; degree 0 yields the unit's.
    """
    if N < 1:
        raise ValueError("need at least two variables (N >= 1)")
    if e < 0:
        return []
    if e == 1:
        return [(0,) * i + (1,) + (0,) * (N - i) for i in range(N + 1)]
    half = (N + 1) // 2
    heads: list[tuple[int, ...]] = [()]
    for _ in range(half):
        heads = [(*h, v) for h in heads for v in range(e - sum(h), -1, -1)]
    tails = [[(r,)] for r in range(e + 1)]
    for _ in range(N - half):
        tails = [[(v, *t) for v in range(r, -1, -1) for t in tails[r - v]] for r in range(e + 1)]
    return [h + t for h in heads for t in tails[e - sum(h)]]


@dataclass(frozen=True)
class MonomialFamily:
    """An ordered set of distinct monomials of one common degree d in X0..XN.

    rows holds the members' exponent tuples.  The constructor takes them in
    any order, checks that each has N+1 non-negative integer exponents
    summing to d and that none repeats, and stores them as a tuple in
    canonical descending order.  The family may be empty (N and d are carried
    explicitly), although the stability checker only accepts families with
    at least two members.
    """

    N: int
    d: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        N, d = self.N, self.d
        if N < 1:
            raise FamilyFormatError(f"N must be at least 1, got {N}")
        if d < 1:
            raise FamilyFormatError(f"d must be at least 1, got {d}")
        rows = list(map(tuple, self.rows))
        # the whole family is checked at once with builtins; only a family
        # that fails runs the per-row loop, which names the first bad row
        if rows and not (
            set(map(len, rows)) == {N + 1}
            # bool is an int subclass, but True would be written as "True"
            and all(issubclass(t, int) and t is not bool for t in set(map(type, chain.from_iterable(rows))))
            and min(map(min, rows)) >= 0
            and set(map(sum, rows)) == {d}
        ):
            _reject_row(N, d, rows)
        # within one degree, canonical order is descending exponent tuples
        rows.sort(reverse=True)
        if len(set(rows)) != len(rows):
            for a, b in zip(rows, rows[1:]):
                if a == b:
                    raise FamilyFormatError(f"duplicate member {monomial_text(a)}")
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_valid_rows(cls, N: int, d: int, rows: Iterable[tuple[int, ...]]) -> "MonomialFamily":
        """A family of rows known to be valid, sorted but not checked.

        rows must be distinct exponent tuples of degree d in N+1 variables;
        they are sorted into canonical order and nothing else is checked.
        Every route that builds its rows afresh builds its family here, with
        its cell's N and d, and from_text a file's rows once it has checked
        them.
        """
        return cls._from_canonical_rows(N, d, tuple(sorted(rows, reverse=True)))

    @classmethod
    def _from_canonical_rows(cls, N: int, d: int, rows: tuple[tuple[int, ...], ...]) -> "MonomialFamily":
        """A family of valid rows already in canonical order, kept as they are.

        rows must be a tuple that _from_valid_rows would accept and already
        in descending order; it becomes the family's rows unsorted and
        uncopied.  A face cell grown from the cell before it builds here, and
        check_family a core, whose rows cut to the leading variables keep
        their order.
        """
        fam = object.__new__(cls)
        object.__setattr__(fam, "N", N)
        object.__setattr__(fam, "d", d)
        object.__setattr__(fam, "rows", rows)
        return fam

    @property
    def members(self) -> tuple[Monomial, ...]:
        """The rows as Monomials, built on every read.

        Nothing in the package reads this; perfbench/ does.  The view goes
        with Monomial once perfbench/ stops reading it.
        """
        return tuple(map(Monomial, self.rows))

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "MonomialFamily":
        """Build a family from Monomials, as from_exponents does from rows.

        Kept for perfbench/, which wraps it; it goes with Monomial once
        perfbench/ stops reading it.
        """
        return cls.from_exponents(m.exponents for m in monomials)

    @classmethod
    def from_exponents(cls, rows: Iterable[Sequence[int]]) -> "MonomialFamily":
        """Build a family from exponent rows in any order, inferring N and d from the first."""
        rows = tuple(map(tuple, rows))
        if not rows:
            raise FamilyFormatError("cannot infer N and d from an empty family")
        first = rows[0]
        try:
            d = sum(first)
        except TypeError as exc:
            raise FamilyFormatError(f"exponents must be non-negative integers, got {first!r}") from exc
        return cls(len(first) - 1, d, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def exponent_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.rows)

    def to_text(self) -> str:
        """Serialize in the family file format.

        First line is "N d n"; then n lines of N+1 space-separated exponents,
        one member per line, in canonical order.  Each distinct exponent is
        turned into a string once.
        """
        field = {e: str(e) for e in set(chain.from_iterable(self.rows))}
        lines = [f"{self.N} {self.d} {len(self.rows)}"]
        lines += [" ".join(map(field.__getitem__, row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MonomialFamily":
        """Parse the family file format; raises FamilyFormatError on any defect.

        Each distinct field string is converted with int() once, and every
        row is built from those values.  The rest is checked on the whole
        file at once: the header's N, d and member count, the sign of each
        distinct value, and N + 1 fields, degree d and no repeat for the
        rows.  A file that fails any check is read again one row at a time
        by _parse_rows, and its syntax checks or the constructor raise for
        the first bad row in file order.
        """
        value = _FieldValues()
        try:
            rows = [tuple(map(value.__getitem__, r)) for r in map(str.split, text.splitlines()) if r]
        except ValueError:
            rows = None
        if rows and len(rows[0]) == 3:
            N, d, n = rows.pop(0)
            if (
                N >= 1
                and d >= 1
                and len(rows) == n
                and min(value.values()) >= 0
                and set(map(len, rows)) == {N + 1}
                and set(map(sum, rows)) == {d}
                and len(set(rows)) == n
            ):
                return cls._from_valid_rows(N, d, rows)
        return cls(*_parse_rows(text))


class _FieldValues(dict):
    """int() of each distinct field string, converted on its first lookup."""

    def __missing__(self, field: str) -> int:
        value = self[field] = int(field)
        return value


def _parse_rows(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    # the file's N, d and rows, read one row at a time; raise for the first
    # syntax defect in file order and leave the rows to the constructor
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
    return N, d, rows


def _reject_row(N: int, d: int, rows: list[tuple]) -> None:
    # raise for the first row that breaks a family invariant, checks in order
    for exps in rows:
        if len(exps) != N + 1:
            raise DimensionMismatch(
                f"member {exps!r} has {len(exps)} variables, family expects {N + 1}"
            )
        if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps):
            raise FamilyFormatError(f"exponents must be non-negative integers, got {exps!r}")
        if sum(exps) != d:
            raise FamilyFormatError(
                f"member {monomial_text(exps)} has degree {sum(exps)}, family expects {d}"
            )
