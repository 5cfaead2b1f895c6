"""Tests for the bound-function evaluators and the positivity audit plumbing.

The closed forms are checked three ways: frozen spot values, algebraic
identities relating neighbouring arguments, and the margin decomposition that
ties Q and P back to actual witness margins of generated families.
"""

import random
from fractions import Fraction

import pytest

from syzstab.constructions import (
    Route,
    admissible_bounds,
    classify_route,
    decompose_faces_case,
    dispatch,
)
from syzstab.inequalities import (
    FUNCTIONS,
    audit,
    audit_grid,
    brenner2_gap,
    eval_P,
    eval_Q,
    eval_T,
    eval_U,
    eval_V,
    sample_P,
    sweep,
)
from syzstab.monomials import binomial

from families import faces_family, reference_scan


class TestSpotValues:
    def test_Q_values(self):
        assert eval_Q(3, 5, 2, 3) == 60
        assert eval_Q(3, 5, 1, 3) == 49
        assert eval_Q(3, 5, 4, 1) == 34

    def test_Q_closed_form_at_unit_gcd_degree(self):
        for N in (3, 4, 5):
            for d in range(N + 2, 13):
                expect = Fraction(((N - 2) * d + d - N), d) * binomial(d - 1 + N, N)
                assert eval_Q(N, d, 1, N) == expect

    def test_Q_closed_form_at_top_gcd_degree(self):
        for N in (3, 4, 5, 6):
            d = N + 2
            expect = binomial(2 * N + 2, N) - (N + 2) * (N + 1) - N + 1
            assert eval_Q(N, d, N + 1, 1) == expect

    def test_brenner2_gap_values(self):
        assert brenner2_gap(3, 5) == 2
        for d in range(0, 21):
            assert brenner2_gap(1, d) == 0

    def test_T_layer_increment_identity(self):
        for d in range(4, 11):
            for e in range(1, d - 2):
                for l in range(e, d - 2):
                    got = eval_T(3, d, e, 1, l + 1) - eval_T(3, d, e, 1, l)
                    assert got == (d - l - 3) * e

    def test_U_base_case_factorization(self):
        # the r = 1 positivity reduces to this cubic comparison
        for d in range(2, 11):
            for l in range(0, d - 1):
                lhs = (d - l - 1) * (d + 1) * (d + 2) - d * (d - l) * (d - l + 1)
                rhs = d * (d - l - 2) * l + d * (d - l - 2) + (d - 2) * l + (d - 2)
                assert lhs == rhs


class TestMonotonicity:
    def test_T_nondecreasing_in_r(self):
        for N in (3, 4):
            for d in range(2, 9):
                for r in range(1, min(d - 1, N)):
                    for e in range(1, d - r - 1):
                        for l in range(e, d - r - 1):
                            assert eval_T(N, d, e, r + 1, l) >= eval_T(N, d, e, r, l)

    def test_U_nondecreasing_in_r(self):
        for N in (3, 4):
            for d in range(2, 9):
                for r in range(1, min(d - 1, N)):
                    for l in range(0, d - r - 1):
                        assert eval_U(N, d, r + 1, l) >= eval_U(N, d, r, l)

    def test_Q_nonincreasing_in_t(self):
        for N in (3, 4):
            for d in range(N + 2, 11):
                for e in range(2, d):
                    lo = max(0, N + 1 - e)
                    for t in range(lo, N):
                        assert eval_Q(N, d, e, t + 1) <= eval_Q(N, d, e, t)

    def test_V_minimum_at_interval_endpoint(self):
        for N in (3, 4, 5):
            for d in range(N + 2, 13):
                values = [eval_V(d, e, N) for e in range(1, d - N + 1)]
                assert min(values) == min(values[0], values[-1])


class TestP:
    def test_maximal_subset_size_floor(self):
        # with k' at its ceiling the bracket term contributes exactly one
        for N in (3, 4):
            for d in (N + 2, N + 4):
                for e in (1, 2):
                    for i in (0, 1, N):
                        k_max = binomial(d - e + N - i, N)
                        assert eval_P(k_max, k_max, N, d, e, i) == N + 1 - i

    def test_sampled_tuples_are_nonnegative_and_in_range(self):
        fn = FUNCTIONS["P"]
        tuples = sample_P(500, seed=11)
        assert len(tuples) == 500
        for args in tuples:
            assert fn.in_range(args)
            assert eval_P(*args) >= 0

    @pytest.mark.parametrize("seed", [0, 1, 5, 11])
    def test_sample_stream_is_randints(self, seed):
        # the stream sample_P drew through random.Random.randint
        rng = random.Random(seed)
        reference = []
        while len(reference) < 3000:
            N = rng.randint(3, 5)
            d = rng.randint(N + 2, 12)
            e = rng.randint(1, d - 1)
            i = rng.randint(max(0, N + 1 - e), N)
            k_max = binomial(d - e + N - i, N)
            if k_max < 1:
                continue
            k_prime = rng.randint(1, k_max)
            reference.append((k_prime + rng.randint(0, 60), k_prime, N, d, e, i))
        assert sample_P(3000, seed) == reference

    def test_traces_are_immutable_named_fields(self):
        trace = audit("V", range(3, 4), range(5, 6))[0][0]
        assert (trace.function, trace.arguments, trace.in_range) == ("V", (5, 1, 3), True)
        assert trace.value == eval_V(5, 1, 3)
        with pytest.raises(AttributeError):
            trace.value = 0

    def test_sampling_is_deterministic(self):
        assert sample_P(50, seed=3) == sample_P(50, seed=3)
        assert sample_P(50, seed=3) != sample_P(50, seed=4)


def margin_decomposition_holds(N, d, n):
    """Exact witness-margin decomposition for an interior-recursion family.

    For every scanned witness of the family at (N, d, n), the margin splits
    into the inner family's margin at the shifted gcd degree plus P plus Q.
    """
    _, fam = dispatch(N, d, n)
    n_faces = len(faces_family(N, d))
    n_prime = n - n_faces
    d_prime = d - N - 1
    for g, e, k, _ in reference_scan(fam.rows, d):
        i = sum(1 for x in g if x == 0)
        k_prime = k - (binomial(d - e + N, N) - binomial(d - e + N - i, N))
        delta = e - N - 1 + i
        margin = (d - e) * n + e - d * k
        inner_part = (d_prime - delta) * n_prime + delta - d_prime * k_prime
        decomposed = inner_part + eval_P(n_prime, k_prime, N, d, e, i) + eval_Q(N, d, e, i)
        if margin != decomposed:
            return False
    return True


def test_margin_decomposition_on_interior_recursion_cells():
    cells = []
    for N, d_top in ((3, 8), (4, 7)):
        for d in range(2, d_top + 1):
            lo = len(faces_family(N, d)) + N + 2
            hi = binomial(d + N, N)
            cells.extend(
                (N, d, n)
                for n in range(lo, hi + 1)
                if classify_route(N, d, n) is Route.BRENNER_RECURSION
            )
    assert cells  # the grid must actually exercise the route
    for cell in cells:
        assert margin_decomposition_holds(*cell), cell


def test_generated_witnesses_respect_their_bounds():
    # every witness of the cells a bound speaks about, on the default grid
    # (N <= 4, d <= 6), paired with that bound where its arguments are in
    # the proof range; U and V with dots have no settled reading yet
    T, Q, V = (FUNCTIONS[name] for name in "TQV")
    paired = {"T": 0, "Q": 0, "V": 0}
    for N in (3, 4):
        for d in range(2, 7):
            faces = faces_family(N, d)
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                route, fam = dispatch(N, d, n)
                witnesses = list(reference_scan(fam.rows, d))
                if route is Route.PROP_FACES:
                    case = decompose_faces_case(N, d, n)
                    for g, e, k, margin in witnesses:
                        if T.in_range(args := (N, d, e, case.r, case.l)):
                            paired["T"] += 1
                            assert margin >= T.evaluate(*args), (N, d, n, g)
                    if fam == faces:
                        for g, e, k, margin in witnesses:
                            if V.in_range(args := (d, e, N)):
                                paired["V"] += 1
                                assert margin >= V.evaluate(*args), (N, d, n, g)
                elif route is Route.BRENNER_RECURSION:
                    for g, e, k, margin in witnesses:
                        if Q.in_range(args := (N, d, e, g.count(0))):
                            paired["Q"] += 1
                            assert margin >= Q.evaluate(*args), (N, d, n, g)
    assert paired == {"T": 6699, "Q": 747, "V": 68}


class TestSweepPlumbing:
    def test_empty_grid(self):
        traces, summary = sweep("T", [])
        assert traces == []
        assert summary.count == 0 and summary.violations == 0
        assert summary.min_value is None and summary.argmin is None

    def test_out_of_range_points_are_flagged_not_violations(self):
        # T at r = 0 is outside every proof case; its value is irrelevant
        traces, summary = sweep("T", [(3, 5, 1, 0, 1)])
        assert summary.flagged == 1
        assert summary.violations == 0
        assert not traces[0].in_range
        assert traces[0].value is None

    def test_summary_json(self):
        _, summary = audit("brenner2", range(1, 3), range(0, 4))
        blob = summary.to_json()
        assert set(blob) == {"function", "count", "flagged", "violations", "min", "argmin"}
        assert blob["function"] == "Brenner2Gap"
        assert blob["violations"] == 0

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            list(audit_grid("W", range(3, 4), range(5, 6)))


class TestAuditGrids:
    def test_T_grid_is_exactly_the_proof_range(self):
        fn = FUNCTIONS["T"]
        grid = list(audit_grid("T", range(3, 5), range(2, 8)))
        assert grid and all(fn.in_range(args) for args in grid)

    def test_small_audits_have_no_violations(self):
        for name in ("T", "U", "V", "Q"):
            _, summary = audit(name, range(3, 5), range(2, 10))
            assert summary.violations == 0, name
            assert summary.flagged == 0, name
            assert summary.min_value > 0, name

    def test_brenner2_minimum_is_zero_on_the_line(self):
        _, summary = audit("brenner2", range(1, 7), range(0, 21))
        assert summary.violations == 0
        assert summary.min_value == 0
        assert summary.argmin[0] == 1
