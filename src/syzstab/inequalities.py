"""Exact evaluators and positivity audits for the auxiliary bound functions.

The stability argument behind the constructive generators reduces, case by
case, to the positivity of five explicit binomial expressions (T, U, V, Q, P)
and one polynomial lower bound on a binomial difference.  This module turns
each of those reductions into something executable: evaluate the closed form
exactly on a finite grid and count sign violations.  A passing audit does not
replace the unbounded induction arguments, but any bookkeeping slip in the
case analysis would show up here as a concrete counterexample tuple.

The five main functions are integer-valued on integer arguments and return
the int they compute; brenner2_gap divides by factorials and returns a
Fraction. Both are exact, so no sign is rounded away. Wrapping the ints in
Fraction is not free: it made the default P audit about half again as slow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .monomials import binomial


def eval_T(N: int, d: int, gcd_degree: int, r: int, l: int) -> int:
    """Lower bound for the margin of a subset meeting r whole faces and a
    partial layer of depth l, when the subset gcd has degree gcd_degree <= l.

    Positive on 1 <= gcd_degree <= l <= d-r-1, 1 <= r <= min(d-1, N), N >= 3.
    """
    e = gcd_degree
    value = (
        (d - e) * (binomial(d + N, N) - binomial(d - r + N, N) + binomial(l + N - 1, N - 1))
        + e
        - d
        * (
            binomial(d - e + N, N)
            - binomial(d - e - r + N, N)
            + binomial(l - e + N - 1, N - 1)
        )
        - e * binomial(l - e + N - 1, N - 2)
    )
    return value


def eval_U(N: int, d: int, r: int, l: int) -> int:
    """Lower bound for the same margins when the subset gcd degree exceeds l.

    Positive on 0 <= l <= d-r-1, 1 <= r <= min(d-1, N), N >= 3.
    """
    value = (d - l - 1) * (
        binomial(d + N, N) - binomial(d - r + N, N) + binomial(l + N - 1, N - 1)
    ) - d * (binomial(d - l - 1 + N, N) - binomial(d - l - 1 - r + N, N))
    return value


def eval_V(d: int, gcd_degree: int, N: int) -> int:
    """Margin lower bound for the faces-plus-dots families.

    Positive on 1 <= gcd_degree <= d-N, d >= N+2, N >= 3; as a function of
    the gcd degree it is concave, so grid minima sit at interval endpoints.
    """
    e = gcd_degree
    value = (d - e) * (binomial(d + N, N) - binomial(d - 1, N)) - d * (
        binomial(d - e + N, N) - binomial(d - e, N)
    )
    return value


def eval_Q(N: int, d: int, gcd_degree: int, t: int) -> int:
    """Face contribution to the margin in the interior-recursion argument.

    t counts the zero exponents of the subset gcd; admissible pairs satisfy
    max(0, N+1-gcd_degree) <= t <= N with 1 <= gcd_degree <= d-1, d >= N+2.
    Nonincreasing in t; positive on the admissible grid.
    """
    e = gcd_degree
    value = (
        (d - e) * (binomial(d + N, N) - binomial(d - 1, N))
        - d * binomial(d - e + N, N)
        + (d - N - 1 + t) * binomial(d - e + N - t, N)
    )
    return value


def eval_P(n_prime: int, k_prime: int, N: int, d: int, gcd_degree: int, i: int) -> int:
    """Interior contribution to the margin in the interior-recursion argument.

    Nonnegative whenever k_prime is at most binomial(d - gcd_degree + N - i, N),
    the largest number of interior members the lifted gcd can divide.
    """
    value = i * (n_prime - k_prime) + (N + 1 - i) * (
        binomial(d - gcd_degree + N - i, N) - k_prime + 1
    )
    return value


def brenner2_gap(N: int, d: int) -> Fraction:
    """Binomial difference minus its polynomial lower bound; must be >= 0.

    Both sides are evaluated as polynomials in d (falling-factorial form for
    the binomials), which agrees with the combinatorial values for d >= 1 and
    extends the bound to d = 0 with equality at N = 1 for every d.
    """
    rising = 1
    falling = 1
    for s in range(1, N + 1):
        rising *= d + s
        falling *= d - s
    lhs = Fraction(rising - falling, factorial(N))
    rhs = Fraction((N + 1) * d ** (N - 1), factorial(N - 1))
    return lhs - rhs


def _t_in_range(args: Sequence[int]) -> bool:
    N, d, e, r, l = args
    return N >= 3 and 1 <= r <= min(d - 1, N) and 1 <= e <= l <= d - r - 1


def _u_in_range(args: Sequence[int]) -> bool:
    N, d, r, l = args
    return N >= 3 and 1 <= r <= min(d - 1, N) and 0 <= l <= d - r - 1


def _v_in_range(args: Sequence[int]) -> bool:
    d, e, N = args
    return N >= 3 and d >= N + 2 and 1 <= e <= d - N


def _q_in_range(args: Sequence[int]) -> bool:
    N, d, e, t = args
    return N >= 3 and d >= N + 2 and 1 <= e <= d - 1 and max(0, N + 1 - e) <= t <= N


def _p_in_range(args: Sequence[int]) -> bool:
    n_prime, k_prime, N, d, e, i = args
    if not (N >= 3 and d >= N + 2 and 1 <= e <= d - 1 and 0 <= i <= N):
        return False
    # the guard gives d - e + N - i >= 1, where comb is binomial without its range test
    return 1 <= k_prime <= comb(d - e + N - i, N) and n_prime >= k_prime


def _gap_in_range(args: Sequence[int]) -> bool:
    N, d = args
    return N >= 1 and d >= 0


def _binomial_form_bits(N: int, d: int) -> int:
    """Bits enough for a value of T, U, V or Q at an in-range point whose N
    and d are at most the given ones.

    Each binomial there is C(a, b) with a <= n = d + N and b in N-2..N, so
    j = min(b, a - b) <= k = min(N, d + 2), and C(a, b) <= (e * n / j)^j <=
    (e * n / k)^k, which has at most k * (bits(n) - bits(k) + 3) bits.  Each
    value is a sum of at most eight terms, each at most d times such a
    binomial.
    """
    k = min(N, d + 2)
    return k * ((d + N).bit_length() - k.bit_length() + 3) + d.bit_length() + 5


def _gap_bits(N: int, d: int) -> int:
    """Bits enough for the numerator and for the denominator of brenner2_gap
    at N >= 1, d >= 0, at most the given ones.

    Over the common denominator N!, the numerator is rising - falling -
    N(N+1)d^(N-1), of size at most (N + 3)(d + N)^N, and N! <= (d + N)^N.
    """
    return N * (d + N).bit_length() + (N + 3).bit_length()


@dataclass(frozen=True)
class FunctionSpec:
    """One auditable function: evaluator, proof range, sign requirement,
    default audit ranges, the grid of argument tuples over (N, d) ranges and
    a bound on the size of its values.

    strict means the proof needs value > 0 on the range; otherwise >= 0.
    ranges holds the (N, d) ranges an audit walks by default; grid walks
    them lazily, N outer and d inner, at one step per pair with no point.
    value_bits(N, d) bounds the bit length of every value (of a Fraction's
    numerator and of its denominator) at in-range points whose N and d are
    at most N and d, so an audit can refuse a grid before evaluating it.
    ranges, grid and value_bits are None for a function whose audit samples
    its argument tuples instead (P, see sample_P) and so takes no (N, d)
    ranges.
    """

    label: str
    evaluate: Callable[..., int | Fraction]
    in_range: Callable[[Sequence[int]], bool]
    strict: bool
    ranges: tuple[range, range] | None
    grid: Callable[[Sequence[int], Sequence[int]], Iterator[tuple[int, ...]]] | None
    value_bits: Callable[[int, int], int] | None


FUNCTIONS: dict[str, FunctionSpec] = {
    "T": FunctionSpec("T", eval_T, _t_in_range, True, (range(3, 6), range(2, 11)), lambda Ns, ds: (
        (N, d, e, r, l) for N in Ns for d in ds
        for r in range(1, min(d - 1, N) + 1) for e in range(1, d - r) for l in range(e, d - r)
    ), _binomial_form_bits),
    "U": FunctionSpec("U", eval_U, _u_in_range, True, (range(3, 6), range(2, 11)), lambda Ns, ds: (
        (N, d, r, l) for N in Ns for d in ds
        for r in range(1, min(d - 1, N) + 1) for l in range(d - r)
    ), _binomial_form_bits),
    "V": FunctionSpec("V", eval_V, _v_in_range, True, (range(3, 6), range(5, 13)), lambda Ns, ds: (
        (d, e, N) for N in Ns for d in ds if d >= N + 2 for e in range(1, d - N + 1)
    ), _binomial_form_bits),
    "Q": FunctionSpec("Q", eval_Q, _q_in_range, True, (range(3, 6), range(5, 13)), lambda Ns, ds: (
        (N, d, e, t) for N in Ns for d in ds if d >= N + 2
        for e in range(1, d) for t in range(max(0, N + 1 - e), N + 1)
    ), _binomial_form_bits),
    "P": FunctionSpec("P", eval_P, _p_in_range, False, None, None, None),
    "brenner2": FunctionSpec(
        "Brenner2Gap", brenner2_gap, _gap_in_range, False, (range(1, 7), range(0, 21)),
        lambda Ns, ds: ((N, d) for N in Ns for d in ds), _gap_bits,
    ),
}


class InequalityTrace(NamedTuple):
    """One grid point; value is None outside the proof range, where the
    closed form is not evaluated (it may not even be defined there).

    A NamedTuple: an audit builds one per point, and a tuple is built
    without a __setattr__ call per field, as a frozen dataclass needs.
    """

    function: str
    arguments: tuple[int, ...]
    value: int | Fraction | None
    in_range: bool


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate of one audit run.

    violations counts in-range points with the wrong sign; flagged counts
    points outside the proof range (not evaluated, never failing).
    min_value and argmin are taken over in-range points only.
    """

    function: str
    count: int
    flagged: int
    violations: int
    min_value: int | Fraction | None
    argmin: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "count": self.count,
            "flagged": self.flagged,
            "violations": self.violations,
            "min": None if self.min_value is None else str(self.min_value),
            "argmin": None if self.argmin is None else list(self.argmin),
        }


def sweep(
    name: str, grid: Iterable[Sequence[int]]
) -> tuple[list[InequalityTrace], SweepSummary]:
    """Evaluate one function on every in-range argument tuple of the grid.

    Returns a trace per tuple plus the violation summary; an empty grid
    yields an empty summary with no minimum.  The function's fields and the
    trace list's append are looked up once, before the loop, not per point.
    """
    fn = FUNCTIONS[name]
    label, in_range, evaluate, strict = fn.label, fn.in_range, fn.evaluate, fn.strict
    traces: list[InequalityTrace] = []
    append = traces.append
    flagged = violations = 0
    min_value: int | Fraction | None = None
    argmin: tuple[int, ...] | None = None
    for raw in grid:
        args = tuple(raw)
        if not in_range(args):
            append(InequalityTrace(label, args, None, False))
            flagged += 1
            continue
        value = evaluate(*args)
        append(InequalityTrace(label, args, value, True))
        bad = value <= 0 if strict else value < 0
        violations += bad
        if min_value is None or value < min_value:
            min_value, argmin = value, args
    summary = SweepSummary(label, len(traces), flagged, violations, min_value, argmin)
    return traces, summary


def sample_P(count: int, seed: int) -> list[tuple[int, int, int, int, int, int]]:
    """Deterministic random in-range argument tuples for the P audit.

    The grid for P is unbounded in the subset sizes, so the audit samples:
    draw the geometric parameters uniformly, then a subset size k' up to its
    admissible maximum and an ambient size n' >= k'.

    Each draw is Random.randint's own (randrange's _randbelow): for a width
    w, w.bit_length() random bits, redrawn until below w.  The six draws are
    written out in the loop rather than called, as a call per draw cost
    more than the draw, and the stream is the one randint gives every seed.
    """
    getrandbits = random.Random(seed).getrandbits
    out = []
    append = out.append
    while len(out) < count:
        # N = randint(3, 5)
        r = getrandbits(2)
        while r >= 3:
            r = getrandbits(2)
        N = 3 + r
        # d = randint(N + 2, 12)
        width = 11 - N
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        d = N + 2 + r
        # e = randint(1, d - 1)
        width = d - 1
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        e = 1 + r
        # i = randint(max(0, N + 1 - e), N)
        lo = N + 1 - e if e <= N else 0
        width = N - lo + 1
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        i = lo + r
        # d - e + N - i >= 1 here, where comb is binomial without its range test
        k_max = comb(d - e + N - i, N)
        if k_max < 1:
            continue
        # k_prime = randint(1, k_max)
        k = k_max.bit_length()
        r = getrandbits(k)
        while r >= k_max:
            r = getrandbits(k)
        k_prime = 1 + r
        # n_prime = k_prime + randint(0, 60)
        r = getrandbits(6)
        while r >= 61:
            r = getrandbits(6)
        append((k_prime + r, k_prime, N, d, e, i))
    return out


def audit_grid(
    name: str,
    N_range: Sequence[int],
    d_range: Sequence[int],
    samples: int = 10_000,
    seed: int = 0,
) -> Iterator[tuple[int, ...]]:
    """In-proof-range argument tuples for one function over (N, d) ranges,
    yielded lazily from its FUNCTIONS row's grid.

    For a sampled function (P: its proof range has no finite (N, d)-indexed
    grid) sampled tuples are yielded instead; samples and seed are ignored
    otherwise.
    """
    grid = FUNCTIONS[name].grid
    if grid is None:
        yield from sample_P(samples, seed)
        return
    yield from grid(N_range, d_range)


def audit(
    name: str,
    N_range: Sequence[int],
    d_range: Sequence[int],
    samples: int = 10_000,
    seed: int = 0,
) -> tuple[list[InequalityTrace], SweepSummary]:
    """Sweep one function over its proof range restricted to (N, d) ranges."""
    return sweep(name, audit_grid(name, N_range, d_range, samples, seed))
