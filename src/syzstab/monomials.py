"""Exact monomial arithmetic and degree-level enumeration.

Monomials live in K[X0, ..., XN] and are stored as dense exponent vectors.
Everything in this module is pure integer combinatorics; no floating point
is used anywhere in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DimensionMismatch(ValueError):
    """Two monomials (or a monomial and a family) disagree on the variable count."""


class FamilyFormatError(ValueError):
    """Family data, in memory or on disk, violates the family invariants."""


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


@functools.total_ordering
@dataclass(frozen=True)
class Monomial:
    """A monomial X0^e0 * ... * XN^eN stored as its exponent vector.

    Ordering is graded lexicographic with X0 > X1 > ... > XN: monomials of
    higher degree compare greater, and within one degree the exponent vectors
    compare as plain tuples, so X0^2 > X0*X1 > X0*X2 > X1^2.  The canonical
    listing of an equal-degree set is therefore descending order.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 2:
            raise ValueError("a monomial needs at least two variables")
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {exps!r}")

    @classmethod
    def variable_power(cls, num_vars: int, index: int, exponent: int) -> "Monomial":
        """The pure power X_index^exponent in a ring with num_vars variables."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = [0] * num_vars
        exps[index] = exponent
        return cls(tuple(exps))

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def _check_dims(self, other: "Monomial") -> None:
        if len(self.exponents) != len(other.exponents):
            raise DimensionMismatch(
                f"monomials in {len(self.exponents)} and {len(other.exponents)} variables"
            )

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_dims(other)
        return Monomial(tuple(map(max, self.exponents, other.exponents)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_dims(other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        self._check_dims(other)
        return (self.degree(), self.exponents) < (other.degree(), other.exponents)

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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # first coordinate descending, recursively, which is descending lex
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_monomials(N: int, e: int) -> tuple[Monomial, ...]:
    """All monomials of degree e in X0..XN, in canonical (descending) order.

    A negative degree yields the empty tuple; degree 0 yields the unit.
    """
    if N < 1:
        raise ValueError("need at least two variables (N >= 1)")
    if e < 0:
        return ()
    return tuple(Monomial(v) for v in _compositions(e, N + 1))


def enumerate_monomials_without(N: int, e: int, excluded: Iterable[int]) -> tuple[Monomial, ...]:
    """Degree-e monomials in X0..XN whose exponent vanishes at every excluded index.

    Canonical order is preserved: the free coordinates run through descending
    lex and the pinned zeros do not affect comparisons.
    """
    excluded = frozenset(excluded)
    for i in excluded:
        if not 0 <= i <= N:
            raise ValueError(f"excluded index {i} out of range")
    free = [i for i in range(N + 1) if i not in excluded]
    if not free:
        raise ValueError("cannot exclude every variable")
    if e < 0:
        return ()
    out = []
    for comp in _compositions(e, len(free)):
        exps = [0] * (N + 1)
        for idx, val in zip(free, comp):
            exps[idx] = val
        out.append(Monomial(tuple(exps)))
    return tuple(out)


@dataclass(frozen=True)
class MonomialFamily:
    """An ordered set of distinct monomials of one common degree d in X0..XN.

    Members are kept in canonical descending order.  The family may be empty
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
        object.__setattr__(self, "members", members)
        for m in members:
            if m.num_vars != self.N + 1:
                raise DimensionMismatch(
                    f"member {m} has {m.num_vars} variables, family expects {self.N + 1}"
                )
            if m.degree() != self.d:
                raise FamilyFormatError(f"member {m} has degree {m.degree()}, family expects {self.d}")
        for a, b in zip(members, members[1:]):
            if not a > b:
                raise FamilyFormatError("members must be strictly descending in canonical order")

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "MonomialFamily":
        """Build a family from monomials in any order, inferring N and d."""
        members = sorted(monomials, reverse=True)
        if not members:
            raise FamilyFormatError("cannot infer N and d from an empty family")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise FamilyFormatError(f"duplicate member {a}")
        return cls(members[0].num_vars - 1, members[0].degree(), tuple(members))

    @classmethod
    def from_exponents(cls, rows: Iterable[Sequence[int]]) -> "MonomialFamily":
        return cls.from_monomials(Monomial(tuple(r)) for r in rows)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.members)

    def __contains__(self, m: object) -> bool:
        return m in self.members

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
        """Parse the family file format; raises FamilyFormatError on any defect."""
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
        if N < 1 or d < 1 or n < 1:
            raise FamilyFormatError(f"header values out of range: N={N} d={d} n={n}")
        body = rows[1:]
        if len(body) != n:
            raise FamilyFormatError(f"header promises {n} members, file has {len(body)}")
        monomials = []
        for ln in body:
            fields = ln.split()
            if len(fields) != N + 1:
                raise FamilyFormatError(f"row {ln!r} must have {N + 1} exponents")
            try:
                exps = tuple(int(x) for x in fields)
            except ValueError as exc:
                raise FamilyFormatError(f"non-integer exponent in row {ln!r}") from exc
            if any(e < 0 for e in exps):
                raise FamilyFormatError(f"negative exponent in row {ln!r}")
            if sum(exps) != d:
                raise FamilyFormatError(f"row {ln!r} has degree {sum(exps)}, expected {d}")
            monomials.append(Monomial(exps))
        return cls.from_monomials(monomials)


def full_family(N: int, d: int) -> MonomialFamily:
    """Every monomial of degree d in X0..XN (the full hypertetrahedron)."""
    return MonomialFamily(N, d, enumerate_monomials(N, d))


def faces_family(N: int, d: int) -> MonomialFamily:
    """The union of all N+1 faces: monomials with at least one zero exponent.

    Cardinality is C(d+N, N) - C(d-1, N); the subtracted term counts interior
    points and vanishes when d <= N.
    """
    members = tuple(m for m in enumerate_monomials(N, d) if 0 in m.exponents)
    return MonomialFamily(N, d, members)
