"""Monomial families, their text format, and degree-level enumeration.

Monomials live in K[X0, ..., XN] and are stored as dense exponent vectors.
Constructions build plain exponent tuples; a Monomial is a plain value that
checks nothing, and the MonomialFamily constructor alone checks members and
puts them in canonical order.  Everything in this module is pure integer
combinatorics; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """A member, or a family, has the wrong number of variables."""


class FamilyFormatError(ValueError):
    """Family data, in memory or on disk, violates the family invariants."""


# Admission ceiling on C(d+N, N), the number of degree-d monomials.  Routes
# enumerate up to all of them, and the face-vertex chain recurses once per
# dimension: at d = 2 it overflows the default stack from N = 329
# (C = 54,615), while N = 139 (C = 9,870) fits even under a call tracer.
# The checker derives its own refusal from it (criterion._require_checkable).
MAX_DEGREE_MONOMIALS = 10_000


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), defined as 0 for out-of-range arguments.

    Vanishing instead of raising is essential here: cardinality formulas such
    as C(d+N, N) - C(d-1, N) for the union of faces rely on C(d-1, N) = 0
    whenever d <= N, and the layered face decomposition evaluates binomials
    with negative upper index in its degenerate bottom layer.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class Monomial:
    """A monomial X0^e0 * ... * XN^eN stored as its exponent vector.

    Only a family's members and a certificate's worst gcd are Monomials;
    everything else works on bare exponent tuples.  Within one degree the
    canonical order is descending exponent tuples, so X0^2, X0*X1, X0*X2,
    X1^2, ...
    """

    exponents: tuple[int, ...]

    # Only normalises to a tuple (MonomialFamily checks members); it stays in
    # the class body because perfbench/spans.py patches it to count Monomials.
    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"X{i}")
            elif e > 1:
                parts.append(f"X{i}^{e}")
        return "*".join(parts) if parts else "1"

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
    variable, most of a cell's time at N = 139.  A negative degree yields no
    tuple; degree 0 yields the unit's.
    """
    if N < 1:
        raise ValueError("need at least two variables (N >= 1)")
    if e < 0:
        return []
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

    The constructor checks that each member has N+1 non-negative integer
    exponents summing to d, and stores the members, given in any order, in
    canonical descending order without duplicates.  The family may be empty
    (N and d are carried explicitly), although the stability checker only
    accepts families with at least two members.
    """

    N: int
    d: int
    members: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise FamilyFormatError(f"N must be at least 1, got {self.N}")
        if self.d < 1:
            raise FamilyFormatError(f"d must be at least 1, got {self.d}")
        members = tuple(self.members)
        for m in members:
            exps = m.exponents
            if len(exps) != self.N + 1:
                raise DimensionMismatch(
                    f"member {exps!r} has {len(exps)} variables, family expects {self.N + 1}"
                )
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise FamilyFormatError(f"exponents must be non-negative integers, got {exps!r}")
            if sum(exps) != self.d:
                raise FamilyFormatError(f"member {m} has degree {sum(exps)}, family expects {self.d}")
        # within one degree, canonical order is descending exponent tuples
        members = tuple(sorted(members, key=lambda m: m.exponents, reverse=True))
        for a, b in zip(members, members[1:]):
            if a.exponents == b.exponents:
                raise FamilyFormatError(f"duplicate member {a}")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "MonomialFamily":
        """Build a family from monomials in any order, inferring N and d from the first."""
        members = tuple(monomials)
        if not members:
            raise FamilyFormatError("cannot infer N and d from an empty family")
        first = members[0].exponents
        try:
            d = sum(first)
        except TypeError as exc:
            raise FamilyFormatError(f"exponents must be non-negative integers, got {first!r}") from exc
        return cls(len(first) - 1, d, members)

    @classmethod
    def from_exponents(cls, rows: Iterable[Sequence[int]]) -> "MonomialFamily":
        return cls.from_monomials(Monomial(tuple(r)) for r in rows)

    def __len__(self) -> int:
        return len(self.members)

    def exponent_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(m.exponents for m in self.members)

    def to_text(self) -> str:
        """Serialize in the family file format.

        First line is "N d n"; then n lines of N+1 space-separated exponents,
        one member per line, in canonical order.
        """
        lines = [f"{self.N} {self.d} {len(self.members)}"]
        for m in self.members:
            lines.append(" ".join(str(e) for e in m.exponents))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MonomialFamily":
        """Parse the family file format; raises FamilyFormatError on any defect.

        Checks the syntax; the constructor checks the rows against N and d.
        """
        rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
        if not rows:
            raise FamilyFormatError("empty family file")
        header = rows[0].split()
        if len(header) != 3:
            raise FamilyFormatError(f"header must be 'N d n', got {rows[0]!r}")
        try:
            N, d, n = (int(x) for x in header)
        except ValueError as exc:
            raise FamilyFormatError(f"non-integer header field in {rows[0]!r}") from exc
        if n < 1:
            raise FamilyFormatError(f"header promises {n} members, need at least 1")
        body = rows[1:]
        if len(body) != n:
            raise FamilyFormatError(f"header promises {n} members, file has {len(body)}")
        monomials = []
        for ln in body:
            fields = ln.split()
            if len(fields) != N + 1:
                raise FamilyFormatError(f"row {ln!r} must have {N + 1} exponents")
            try:
                monomials.append(Monomial(tuple(int(x) for x in fields)))
            except ValueError as exc:
                raise FamilyFormatError(f"non-integer exponent in row {ln!r}") from exc
        return cls(N, d, monomials)


def full_family(N: int, d: int) -> MonomialFamily:
    """Every monomial of degree d in X0..XN (the full hypertetrahedron)."""
    return MonomialFamily.from_exponents(enumerate_monomials(N, d))
