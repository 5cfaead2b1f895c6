"""Acceptance suite: eight checks, one printed PASS/FAIL line each.

Each criterion is verified from scratch inside its test (caches cleared where
timing matters) and ends by printing a single summary line, so a transcript
of this file doubles as the acceptance report.
"""

import itertools
import random
import sys
import time

from syzstab.constructions import (
    NoFamilyExists,
    admissible_bounds,
    dispatch,
    gen_brenner,
    gen_case326,
    gen_p1,
)
from syzstab.criterion import (
    Verdict,
    brute_force_check,
    check_family,
    is_semistable_p1,
    splitting_type_p1,
)
from syzstab.inequalities import audit
from syzstab.monomials import (
    MonomialFamily,
    binomial,
    enumerate_monomials,
)

from families import faces_family, survey_225_candidates


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_stable_families_for_every_cell():
    dispatch.cache_clear()
    check_family.cache_clear()
    start = time.perf_counter()
    cells = failures = 0
    for N in (3, 4):
        for d in range(2, 7):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                cells += 1
                _, fam = dispatch(N, d, n)
                cert = check_family(fam)
                if (fam.N, fam.d, len(fam)) != (N, d, n) or cert.verdict is not Verdict.STABLE:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 600
    _report(1, ok, f"{cells} cells (N in 3..4, d in 2..6) all StableCertified in {elapsed:.1f}s")
    assert ok


def test_criterion_2_plane_grid_with_one_semistable_cell():
    bad = []
    for d in range(2, 7):
        lo, hi = admissible_bounds(2, d)
        for n in range(lo, hi + 1):
            _, fam = dispatch(2, d, n)
            cert = check_family(fam)
            want = Verdict.SEMISTABLE if (d, n) == (2, 5) else Verdict.STABLE
            if cert.verdict is not want:
                bad.append((d, n, cert.verdict.value))
    cert225 = check_family(dispatch(2, 2, 5)[1])
    zero_witness = cert225.worst is not None and cert225.worst.margin == 0
    candidates = survey_225_candidates()
    ok = (
        not bad
        and zero_witness
        and len(candidates) == 6
        and not any(c is not None and c.verdict is Verdict.STABLE for _, c in candidates)
    )
    _report(2, ok, "N=2, d in 2..6 all stable except (2,5); all six 5-subsets at d=2 non-stable")
    assert ok, bad


def test_criterion_3_line_families_exist_with_balanced_twists():
    checked = 0
    ok = True
    for d in range(2, 13):
        for n in range(2, d + 2):
            if d % (n - 1) != 0:
                continue
            e = d // (n - 1)
            fam = gen_p1(d, n)
            twists = splitting_type_p1(fam)
            verdict = is_semistable_p1(fam)
            checked += 1
            if twists != tuple([-n * e] * (n - 1)):
                ok = False
            if (verdict is Verdict.STABLE) != (n == 2):
                ok = False
            if verdict is Verdict.NOT_SEMISTABLE:
                ok = False
    ok = ok and checked > 0
    _report(3, ok, f"{checked} line families, twists all O(-ne), stable exactly at n=2")
    assert ok


def test_criterion_4_no_balanced_family_when_step_does_not_divide():
    examined = counterexamples = 0
    for d in range(2, 11):
        pool = enumerate_monomials(1, d)
        top, bottom = (d, 0), (0, d)
        for n in range(3, d + 1):
            if d % (n - 1) == 0:
                continue
            for combo in itertools.combinations(pool, n):
                if top not in combo or bottom not in combo:
                    continue  # not m-primary, no bundle to destabilize
                fam = MonomialFamily.from_exponents(combo)
                examined += 1
                if len(set(splitting_type_p1(fam))) <= 1:
                    counterexamples += 1
    ok = counterexamples == 0 and examined > 0
    _report(4, ok, f"{examined} m-primary line families with (n-1) not dividing d, none balanced")
    assert ok


def test_criterion_5_oracle_equivalence():
    def agrees(fam):
        # verdict, witness_count and the whole worst witness
        return check_family(fam) == brute_force_check(fam)

    disagreements = generated = 0
    for N in (1, 2, 3, 4):
        for d in range(2, 13 if N == 1 else 7):
            lo, hi = admissible_bounds(N, d)
            # every family up to d = 5, and the rest up to 12 members
            for n in range(lo, (hi if d <= 5 else min(hi, 12)) + 1):
                try:
                    _, fam = dispatch(N, d, n)
                except NoFamilyExists:
                    continue
                generated += 1
                disagreements += not agrees(fam)

    rng = random.Random(4251)
    randomized = 0
    for N, d in itertools.product((2, 3), (2, 3, 4)):
        pool = enumerate_monomials(N, d)
        pures = [m for m in pool if d in m]
        others = [m for m in pool if d not in m]
        cap = min(12, len(pool))
        for _ in range(500):
            extra = rng.randint(0, cap - len(pures))
            fam = MonomialFamily.from_exponents(pures + rng.sample(others, extra))
            randomized += 1
            disagreements += not agrees(fam)
    ok = disagreements == 0
    _report(
        5, ok,
        f"scan == oracle on {generated} generated (d <= 5, or n <= 12) "
        f"+ {randomized} random families (n <= 12)",
    )
    assert ok


def test_criterion_6_exceptional_quadric_family():
    fam = gen_case326()
    cert = check_family(fam)
    hand_margin = (2 - 1) * 6 + 1 - 2 * 2
    ok = (
        cert.verdict is Verdict.STABLE
        and cert.worst is not None
        and cert.worst.margin == 3
        and hand_margin == 3
        # every witness has degree 1 and k at most 2: the hand margin is the least
        and [(e, k) for e, _, k, _ in cert.by_degree] == [(1, 2)]
    )
    _report(6, ok, "the six-quadric family in four variables is stable with worst margin 3")
    assert ok


def test_criterion_7_inequality_audits():
    results = {}
    for name, N_range, d_range in (
        ("T", range(3, 6), range(2, 11)),
        ("U", range(3, 6), range(2, 11)),
        ("V", range(3, 6), range(2, 13)),
        ("Q", range(3, 6), range(2, 13)),
        ("P", range(3, 6), range(2, 13)),
        ("brenner2", range(1, 7), range(0, 21)),
    ):
        _, summary = audit(name, N_range, d_range, samples=10_000, seed=0)
        results[name] = summary
    gap = results["brenner2"]
    ok = (
        all(s.violations == 0 for s in results.values())
        and results["P"].count >= 10_000
        and gap.min_value == 0
        and gap.argmin is not None
        and gap.argmin[0] == 1
    )
    points = sum(s.count for s in results.values())
    _report(7, ok, f"T, U, V, Q, P, gap audits: {points} points, zero violations, gap min 0 at N=1")
    assert ok


def test_criterion_8_structural_identities():
    faces_ok = True
    for N in range(2, 6):
        for d in range(1, 11):
            by_enumeration = sum(1 for m in enumerate_monomials(N, d) if 0 in m)
            closed_form = binomial(d + N, N) - binomial(d - 1, N)
            if by_enumeration != closed_form or len(faces_family(N, d)) != closed_form:
                faces_ok = False

    top_ok = True
    for N, d in ((3, 6), (3, 7), (3, 8), (4, 7)):
        # the faces leave the top cell of degree d - N - 1 inside them
        inner = dispatch(N, d - N - 1, binomial(d - 1, N))[1]
        if gen_brenner(N, d, inner).exponent_set() != set(enumerate_monomials(N, d)):
            top_ok = False

    tiling_ok = True
    for N in (3, 4, 5):
        for d in range(2, 9):
            covered = []
            for r in range(1, min(d - 1, N) + 1):
                base = binomial(d + N, N) - binomial(d - r + N, N)
                for l in range(-1, d - r):
                    lo = base + binomial(l + N - 1, N - 1)
                    hi = base + binomial(l + N, N - 1)
                    covered.extend(range(lo + 1, hi + 1))
            total = binomial(d + N, N)
            target = [
                n
                for n in range(binomial(d + N - 1, N - 1) + 1, total - binomial(d - 1, N) + 1)
                if n != total
            ]
            if sorted(covered) != target:
                tiling_ok = False

    ok = faces_ok and top_ok and tiling_ok
    _report(
        8, ok,
        "face-count formula (N<=5, d<=10), top-of-range recursion = full set, layer brackets tile (d<=8)",
    )
    assert ok
