"""End-to-end tests for the command-line interface and its exit codes."""

import dataclasses
import hashlib
import itertools
import json
import re
import time

import pytest

from syzstab import cli, constructions
from syzstab.cli import EX_DATA, EX_FAIL, EX_NOFAMILY, EX_OK, EX_USAGE, _sweep_cell, main
from syzstab.constructions import InternalConsistencyError, admissible_bounds, dispatch
from syzstab.criterion import (
    MAX_ORACLE_WORK,
    MAX_SCAN_WORK,
    GcdWitness,
    brute_force_check,
    check_family,
)
from syzstab.inequalities import FUNCTIONS, audit
from syzstab.monomials import Monomial, MonomialFamily


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_family_and_certificate(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, stdout, _ = run(
        ["generate", "-N", "3", "-d", "2", "-n", "6", "-o", str(out), "--json"], capsys
    )
    assert code == EX_OK
    blob = json.loads(stdout)
    assert blob["verdict"] == "StableCertified"
    assert blob["route"] == "Case326"
    assert blob["worst"] == {"g": [1, 0, 0, 0], "d_J": 1, "k": 2, "margin": 3}
    header = out.read_text().splitlines()[0]
    assert header == "3 2 6"


def test_text_certificate_lines(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, stdout, _ = run(["generate", "-N", "3", "-d", "2", "-n", "6", "-o", str(out)], capsys)
    assert code == EX_OK
    # rank n - 1 = 5, c1 = -d * n = -12, slope c1 / rank
    certificate = [
        "verdict: StableCertified",
        "family: N=3 d=2 n=6",
        "bundle: rank 5, c1 -12, slope -12/5",
        "m-primary: yes",
        "route: Case326",
        "witnesses: 4",
        "worst: gcd X0 (degree 1), k 2, margin 3",
    ]
    assert stdout.splitlines() == certificate
    code, stdout, _ = run(["check", str(out)], capsys)
    assert code == EX_OK
    assert stdout.splitlines() == [line for line in certificate if not line.startswith("route:")]


def test_generate_to_stdout(capsys):
    code, stdout, _ = run(["generate", "-N", "2", "-d", "2", "-n", "4"], capsys)
    assert code == EX_OK
    assert stdout.startswith("2 2 4\n")
    assert "verdict: StableCertified" in stdout


def test_generate_above_the_admission_ceiling_is_usage_error(capsys):
    # C(602, 2) monomials: this cell used to end in a RecursionError
    code, _, stderr = run(["generate", "-N", "600", "-d", "2", "-n", "601"], capsys)
    assert code == EX_USAGE
    assert "admission ceiling" in stderr


@pytest.mark.parametrize(
    "cell",
    [("2", "100", "4000"), ("2", "16", "102"), ("3", "16", "103"), ("4", "15", "134"), ("3", "19", "857")],
)
def test_generate_above_the_plane_work_bound_is_usage_error(cell, capsys, monkeypatch):
    # (3, 16, 103) is a face-vertex cell whose inner plane cell is refused;
    # (4, 15, 134) and (3, 19, 857) recurse into the refused (3, 15, 133)
    def build(*args):
        raise AssertionError("a generator ran")

    for name in ("gen_n2_search", "gen_face_vertex", "gen_prop_faces"):
        monkeypatch.setattr(f"syzstab.constructions.{name}", build)
    N, d, n = cell
    code, _, stderr = run(["generate", "-N", N, "-d", d, "-n", n], capsys)
    assert code == EX_USAGE
    assert "plane search work bound" in stderr


def test_generate_names_the_chain_to_a_refused_inner_cell(capsys):
    code, _, stderr = run(["generate", "-N", "3", "-d", "19", "-n", "857"], capsys)
    assert code == EX_USAGE
    assert "(N, d, n) = (3, 19, 857) is refused" in stderr
    assert "(3, 19, 857) -> (3, 15, 133) -> (2, 15, 132)" in stderr
    assert "n=132 outside [3, 131] for (N, d) = (2, 15) (the plane search work bound)" in stderr
    # a face-vertex chain two levels deep, in full
    code, _, stderr = run(["generate", "-N", "4", "-d", "15", "-n", "134"], capsys)
    assert code == EX_USAGE
    assert stderr == (
        "error: (N, d, n) = (4, 15, 134) is refused: it recurses along "
        "(4, 15, 134) -> (3, 15, 133) -> (2, 15, 132), and n=132 outside [3, 131] "
        "for (N, d) = (2, 15) (the plane search work bound)\n"
    )


def test_generate_unwritable_output_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "missing" / "fam.txt"
    code, _, stderr = run(["generate", "-N", "2", "-d", "2", "-n", "4", "-o", str(out)], capsys)
    assert code == EX_FAIL
    assert stderr.startswith("error: ")
    assert not out.exists()


def test_a_family_that_fails_its_certificate_is_refused(capsys, monkeypatch):
    # X0^2 divides X0^3 and X0^2*X1 at margin 0, so this (2, 3, 4) family is
    # only semistable; dispatch alone certifies what the plane search returns
    semistable = MonomialFamily.from_exponents([(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 3)])
    monkeypatch.setattr("syzstab.constructions.gen_n2_search", lambda d, n: semistable)
    dispatch.cache_clear()
    message = "cell (2, 3, 4) via N2Search certified SemistableCertified, expected StableCertified"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        dispatch(2, 3, 4)
    code, stdout, stderr = run(["generate", "-N", "2", "-d", "3", "-n", "4"], capsys)
    assert code == EX_FAIL
    assert stdout == ""
    assert stderr.splitlines() == [f"error: {message}"]
    row = _sweep_cell((2, 3, 4))
    assert row["failure"] == f"InternalConsistencyError: {message}"
    assert (row["route"], row["verdict"], row["worst_margin"]) == (None, None, None)


def test_a_builder_with_the_wrong_member_count_fails_its_sweep_cells(capsys, monkeypatch):
    # the plane search returns the three pure powers for every cell
    real = constructions.gen_n2_search
    monkeypatch.setattr("syzstab.constructions.gen_n2_search", lambda d, n: real(d, 3))
    dispatch.cache_clear()
    message = "N2Search built 3 members for cell (2, 3, 4)"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        dispatch(2, 3, 4)
    code, stdout, stderr = run(["sweep", "--Nmax", "2", "--dmax", "3"], capsys)
    dispatch.cache_clear()
    assert code == EX_FAIL
    assert stderr == ""
    lines = stdout.splitlines()
    assert lines[0] == "sweep: 17 cells, 6 families certified, 1 nonexistent, 10 failures"
    # every plane cell above the three pure powers, (2, 2, 5) by its own route
    cells = [(2, 4), (2, 5), (2, 6), *((3, n) for n in range(4, 11))]
    assert lines[1:] == [
        f"  FAIL (2, {d}, {n}): InternalConsistencyError: "
        f"{'Search225' if (d, n) == (2, 5) else 'N2Search'} built 3 members for cell (2, {d}, {n})"
        for d, n in cells
    ]


def test_round_trip_certificate_identical(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    code, gen_out, _ = run(
        ["generate", "-N", "3", "-d", "4", "-n", "20", "-o", str(out), "--json"], capsys
    )
    assert code == EX_OK
    code, chk_out, _ = run(["check", str(out), "--json"], capsys)
    assert code == EX_OK
    generated, checked = json.loads(gen_out), json.loads(chk_out)
    generated.pop("route")
    assert generated == checked


def test_check_strict_vs_semi(tmp_path, capsys):
    out = tmp_path / "p1.txt"
    run(["generate", "-N", "1", "-d", "2", "-n", "3", "-o", str(out)], capsys)
    strict_code, _, _ = run(["check", str(out), "--strict"], capsys)
    semi_code, stdout, _ = run(["check", str(out), "--semi"], capsys)
    assert strict_code == EX_FAIL
    assert semi_code == EX_OK
    assert "O(-3), O(-3)" in stdout


def test_check_line_family_json_has_twists(tmp_path, capsys):
    out = tmp_path / "p1.txt"
    run(["generate", "-N", "1", "-d", "4", "-n", "5", "-o", str(out)], capsys)
    code, stdout, _ = run(["check", str(out), "--json"], capsys)
    assert code == EX_OK
    blob = json.loads(stdout)
    assert blob["verdict"] == "SemistableCertified"
    assert blob["twists"] == [-5, -5, -5, -5]


def test_check_refuses_a_degree_beyond_the_scan_work_bound(tmp_path, capsys):
    # (N + 1) * d^2 = 3 * 10^18: the scan's masks alone would exhaust memory
    f = tmp_path / "huge.txt"
    f.write_text("2 1000000000 3\n1000000000 0 0\n0 1000000000 0\n0 0 1000000000\n")
    for extra in ([], ["--oracle"]):
        start = time.perf_counter()
        code, stdout, stderr = run(["check", str(f), *extra], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == EX_FAIL
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: (N + 1) * d^2 = 3000000000000000000 at N = 2")
        assert f"exceeds MAX_SCAN_WORK = {MAX_SCAN_WORK}" in stderr


def test_generate_certifies_the_line_at_the_top_degree_quickly(capsys):
    # three members at d = 9998: the scan takes each coordinate from the
    # exponents the rows have, not from every value up to d
    dispatch.cache_clear()
    check_family.cache_clear()
    start = time.perf_counter()
    code, stdout, _ = run(["generate", "-N", "1", "-d", "9998", "-n", "3", "--json"], capsys)
    assert time.perf_counter() - start < 2
    assert code == EX_OK
    cert = json.loads(stdout[stdout.index("{"):])
    assert cert["verdict"] == "SemistableCertified"
    assert cert["witness_count"] == 2
    assert cert["worst"] == {"g": [4999, 0], "d_J": 4999, "k": 2, "margin": 0}


def test_sweep_builds_at_most_one_monomial_per_certificate(monkeypatch):
    # families hold exponent rows: only a certificate's worst gcd is a Monomial
    built = []
    post_init = Monomial.__post_init__

    def counted(m):
        built.append(m.exponents)
        post_init(m)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    dispatch.cache_clear()
    check_family.cache_clear()
    for N in range(1, 4):
        for d in range(2, 7):
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                assert _sweep_cell((N, d, n))["failure"] is None
    certificates = check_family.cache_info().misses
    assert 0 < len(built) <= certificates


def test_sweep_and_generate_print_the_certificate_dispatch_made(capsys, monkeypatch):
    # dispatch certifies each family once and hands that certificate on:
    # with the cli's check_family refusing, every default-grid row and the
    # README's 20-member family print as before
    def sweep_rows():
        rows = []
        for N in range(1, 5):
            for d in range(2, 7):
                lo, hi = admissible_bounds(N, d)
                for n in range(lo, hi + 1):
                    row = _sweep_cell((N, d, n))
                    rows.append({k: v for k, v in row.items() if k != "wall_time"})
        return rows

    generate = ["generate", "-N", "3", "-d", "4", "-n", "20", "--json"]
    dispatch.cache_clear()
    rows, generated = sweep_rows(), run(generate, capsys)
    assert len(rows) == 716 and all(row["failure"] is None for row in rows)
    assert generated[0] == EX_OK

    def refuse(fam):
        raise AssertionError("the cli certified a family again")

    monkeypatch.setattr("syzstab.cli.check_family", refuse)
    dispatch.cache_clear()
    assert sweep_rows() == rows
    assert run(generate, capsys) == generated


def test_check_oracle_agreement(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    run(["generate", "-N", "2", "-d", "3", "-n", "8", "-o", str(out)], capsys)
    code, stdout, _ = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_OK
    assert "oracle agrees" in stdout


def test_check_oracle_admits_210_members(tmp_path, capsys):
    # 210 * C(11, 5) = 97,020 componentwise minima at most
    out = tmp_path / "fam.txt"
    assert run(["generate", "-N", "4", "-d", "6", "-n", "210", "-o", str(out)], capsys)[0] == EX_OK
    code, stdout, stderr = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_OK
    assert stdout.splitlines()[-1] == "oracle agrees"
    assert stderr == ""


def test_check_oracle_above_the_work_bound_fails(tmp_path, capsys):
    # 21 members of degree 30 in six variables: 21 * C(36, 6) > MAX_ORACLE_WORK
    pures = [tuple(30 * (k == i) for k in range(6)) for i in range(6)]
    pairs = list(itertools.permutations(range(6), 2))[:15]
    f = MonomialFamily.from_exponents(
        pures + [tuple(29 * (k == i) + (k == j) for k in range(6)) for i, j in pairs]
    )
    out = tmp_path / "fam.txt"
    out.write_text(f.to_text())
    code, stdout, stderr = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_FAIL
    assert stdout == ""
    assert f"exceeds MAX_ORACLE_WORK = {MAX_ORACLE_WORK}" in stderr


def test_check_oracle_requires_the_same_worst_witness(tmp_path, capsys, monkeypatch):
    # an oracle with the scan's verdict, count and worst margin but another
    # gcd does not agree
    out = tmp_path / "fam.txt"
    run(["generate", "-N", "2", "-d", "3", "-n", "8", "-o", str(out)], capsys)

    def other_gcd(fam):
        cert = brute_force_check(fam)
        w = cert.worst
        moved = GcdWitness(Monomial(w.gcd.exponents[::-1]), w.gcd_degree, w.multiple_count, w.margin)
        assert moved != w
        return dataclasses.replace(cert, worst=moved)

    monkeypatch.setattr("syzstab.cli.brute_force_check", other_gcd)
    code, stdout, stderr = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_FAIL
    assert "oracle agrees" not in stdout
    assert "oracle disagrees" in stderr


def test_sweep_row_count_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, stdout, _ = run(
        ["sweep", "--Nmax", "2", "--dmax", "3", "--report", str(report)], capsys
    )
    assert code == EX_OK
    assert "0 failures" in stdout
    blob = json.loads(report.read_text())
    rows = blob["rows"]
    # (2, 3): n ranges over [3, 10], giving 8 rows
    assert sum(1 for r in rows if (r["N"], r["d"]) == (2, 3)) == 8
    assert blob["failures"] == []
    keys = ["N", "d", "n", "route", "verdict", "worst_margin", "wall_time", "failure"]
    assert all(list(r) == keys for r in rows)
    assert all(
        (r["N"], r["d"], r["n"]) < (s["N"], s["d"], s["n"])
        for r, s in zip(rows, rows[1:])
    )


def test_wider_sweep_certifies_with_pinned_rows(tmp_path, capsys):
    # every cell with N <= 5, d <= 8, serially from empty caches; the digest
    # covers every row field except wall_time
    report = tmp_path / "wide.json"
    dispatch.cache_clear()
    check_family.cache_clear()
    try:
        code, stdout, _ = run(["sweep", "--Nmax", "5", "--dmax", "8", "--report", str(report)], capsys)
    finally:
        dispatch.cache_clear()
        check_family.cache_clear()
    assert code == EX_OK
    assert stdout == "sweep: 4865 cells, 4849 families certified, 16 nonexistent, 0 failures\n"
    rows = [{k: v for k, v in row.items() if k != "wall_time"} for row in json.loads(report.read_text())["rows"]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "fdd7d0a9ea64477a06b2b98622abc262860dda803e484c1f9153e5dbb0e12c6f"


@pytest.fixture
def dispatched(monkeypatch):
    """The cells `sweep` runs, recorded as they run."""
    import syzstab.cli

    cells, real = [], syzstab.cli._sweep_cell

    def recording(cell):
        cells.append(cell)
        return real(cell)

    monkeypatch.setattr(syzstab.cli, "_sweep_cell", recording)
    return cells


def test_sweep_unwritable_report_is_runtime_error(tmp_path, capsys, dispatched):
    report = tmp_path / "missing" / "report.json"
    code, _, stderr = run(
        ["sweep", "--Nmax", "1", "--dmax", "2", "--report", str(report)], capsys
    )
    assert code == EX_FAIL
    assert stderr.startswith("error: ")
    assert dispatched == []  # refused before any cell ran


@pytest.mark.parametrize("grid", [["--Nmax", "140", "--dmax", "2"], ["--Nmax", "2", "--dmax", "140"]])
def test_sweep_above_the_admission_ceiling_is_usage_error(grid, tmp_path, capsys, dispatched):
    report = tmp_path / "report.json"
    code, _, stderr = run(["sweep", *grid, "--report", str(report)], capsys)
    assert code == EX_USAGE
    assert "admission ceiling" in stderr
    assert dispatched == [] and not report.exists()


@pytest.mark.parametrize(
    "grid,cells",
    # both pass the corner ceiling: C(10000, 1) and C(40, 3) are at most 10,000
    [(["--Nmax", "1", "--dmax", "9999"], 49_994_999), (["--Nmax", "3", "--dmax", "37"], 103_143)],
)
def test_sweep_above_the_cell_budget_is_usage_error(grid, cells, tmp_path, capsys, dispatched):
    report = tmp_path / "report.json"
    code, _, stderr = run(["sweep", *grid, "--report", str(report)], capsys)
    assert code == EX_USAGE
    assert f"the grid has {cells} cells, above the sweep budget" in stderr
    assert dispatched == [] and not report.exists()


def test_sweep_cell_budget_admits_the_wider_grid(capsys, monkeypatch):
    # the cells are listed and handed out, but none is constructed
    def stub(cell):
        N, d, n = cell
        return {"N": N, "d": d, "n": n, "route": None, "verdict": "StableCertified",
                "worst_margin": None, "wall_time": 0.0, "failure": None}

    monkeypatch.setattr("syzstab.cli._sweep_cell", stub)
    code, stdout, _ = run(["sweep", "--Nmax", "5", "--dmax", "8"], capsys)
    assert code == EX_OK
    assert stdout.startswith("sweep: 4865 cells, 4865 families certified")


def test_sweep_lists_only_the_cells_generate_admits(tmp_path, capsys, monkeypatch):
    # (3, 15, 133) recurses into (2, 15, 132), above the plane work bound,
    # and is refused before any family is built
    def search(d, n):
        raise AssertionError("gen_n2_search called")

    monkeypatch.setattr("syzstab.constructions.gen_n2_search", search)
    assert _sweep_cell((3, 15, 133)) is None

    refused = {(3, 15, n) for n in range(133, 138)}
    listed = []

    def stub(cell):
        listed.append(cell)
        if cell in refused:
            return None
        N, d, n = cell
        return {"N": N, "d": d, "n": n, "route": None, "verdict": "StableCertified",
                "worst_margin": None, "wall_time": 0.0, "failure": None}

    monkeypatch.setattr("syzstab.cli._sweep_cell", stub)
    report = tmp_path / "report.json"
    code, stdout, _ = run(["sweep", "--Nmax", "3", "--dmax", "15", "--report", str(report)], capsys)
    assert code == EX_OK
    assert refused <= set(listed)
    rows = json.loads(report.read_text())["rows"]
    assert len(rows) == len(listed) - 5
    assert not refused & {(r["N"], r["d"], r["n"]) for r in rows}
    assert f"sweep: {len(rows)} cells" in stdout
    assert "left out 5 cells" in stdout


def test_sweep_jobs_do_not_change_rows(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["sweep", "--Nmax", "2", "--dmax", "3", "--report", str(a)], capsys)[0] == EX_OK
    assert run(
        ["sweep", "--Nmax", "2", "--dmax", "3", "--jobs", "2", "--report", str(b)], capsys
    )[0] == EX_OK
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
    assert strip(json.loads(a.read_text())["rows"]) == strip(json.loads(b.read_text())["rows"])


@pytest.mark.parametrize("cpus,workers", [(2, [2]), (None, [])])
def test_sweep_caps_jobs_at_cpu_count(cpus, workers, capsys, monkeypatch):
    # a pool that records its size and maps in this process, so nothing forks
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    code, stdout, _ = run(["sweep", "--Nmax", "1", "--dmax", "2", "--jobs", "1000000"], capsys)
    assert code == EX_OK
    assert "0 failures" in stdout
    assert sizes == workers


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_below_one_is_usage_error(jobs, capsys, monkeypatch):
    def no_cell(cell):
        raise AssertionError(f"cell {cell} ran")

    monkeypatch.setattr("syzstab.cli._sweep_cell", no_cell)
    code, stdout, stderr = run(["sweep", "--Nmax", "1", "--dmax", "3", "--jobs", jobs], capsys)
    assert code == EX_USAGE
    assert stdout == ""
    assert stderr == f"error: --jobs must be at least 1, got {jobs}\n"


def test_audit_passes_and_reports_json(capsys):
    code, stdout, _ = run(
        ["audit", "brenner2", "--N", "1..4", "--d", "0..10", "--json"], capsys
    )
    assert code == EX_OK
    blob = json.loads(stdout)
    assert blob["violations"] == 0
    assert blob["min"] == "0"
    assert blob["argmin"][0] == 1


def test_audit_human_output(capsys):
    code, stdout, _ = run(["audit", "V", "--N", "3..3", "--d", "5..8"], capsys)
    assert code == EX_OK
    assert "violations: 0" in stdout


@pytest.mark.parametrize(
    "name, N_range, d_range",
    [
        ("T", range(3, 6), range(2, 11)),
        ("U", range(3, 6), range(2, 11)),
        ("V", range(3, 6), range(5, 13)),
        ("Q", range(3, 6), range(5, 13)),
        ("brenner2", range(1, 7), range(0, 21)),
    ],
)
def test_audit_default_ranges(name, N_range, d_range, capsys):
    code, stdout, _ = run(["audit", name, "--json"], capsys)
    assert code == EX_OK
    assert json.loads(stdout) == audit(name, N_range, d_range)[1].to_json()


@pytest.mark.parametrize(
    "name, count, low, argmin",
    [
        ("T", 870, "4", [3, 3, 1, 1, 1]),
        ("U", 384, "1", [3, 2, 1, 0]),
        ("V", 106, "53", [5, 1, 3]),
        ("Q", 618, "32", [3, 5, 4, 2]),
        ("brenner2", 126, "0", [1, 0]),
    ],
)
def test_audit_default_summary_is_pinned(name, count, low, argmin, capsys):
    code, stdout, _ = run(["audit", name, "--json"], capsys)
    assert code == EX_OK
    assert json.loads(stdout) == {
        "function": FUNCTIONS[name].label,
        "count": count,
        "flagged": 0,
        "violations": 0,
        "min": low,
        "argmin": argmin,
    }


# the text each default audit prints; the JSON summaries are pinned above
DEFAULT_AUDIT_TEXT = {
    "T": "function: T\npoints: 870 (0 outside the proof range)\nviolations: 0\n"
         "min: 4 at (3, 3, 1, 1, 1)\n",
    "U": "function: U\npoints: 384 (0 outside the proof range)\nviolations: 0\n"
         "min: 1 at (3, 2, 1, 0)\n",
    "V": "function: V\npoints: 106 (0 outside the proof range)\nviolations: 0\n"
         "min: 53 at (5, 1, 3)\n",
    "Q": "function: Q\npoints: 618 (0 outside the proof range)\nviolations: 0\n"
         "min: 32 at (3, 5, 4, 2)\n",
    "P": "function: P\npoints: 10000 (0 outside the proof range)\nviolations: 0\n"
         "min: 1 at (1, 1, 3, 6, 3, 3)\n",
    "brenner2": "function: Brenner2Gap\npoints: 126 (0 outside the proof range)\nviolations: 0\n"
                "min: 0 at (1, 0)\n",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_AUDIT_TEXT))
def test_audit_default_text_is_pinned(name, capsys):
    assert run(["audit", name], capsys) == (EX_OK, DEFAULT_AUDIT_TEXT[name], "")


def test_audit_p_samples(capsys):
    code, stdout, _ = run(["audit", "P", "--samples", "300", "--seed", "5", "--json"], capsys)
    assert code == EX_OK
    assert json.loads(stdout)["count"] == 300


def test_audit_p_default_summary_is_pinned(capsys):
    code, stdout, _ = run(["audit", "P", "--json"], capsys)
    assert code == EX_OK
    assert json.loads(stdout) == {
        "function": "P",
        "count": 10000,
        "flagged": 0,
        "violations": 0,
        "min": "1",
        "argmin": [1, 1, 3, 6, 3, 3],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "Q", "--d", "2..4"],
        ["audit", "T", "--N", "5..3"],
        ["audit", "brenner2", "--N", "0..0"],
    ],
)
def test_audit_without_in_range_points_is_usage_error(argv, capsys):
    code, stdout, stderr = run(argv, capsys)
    assert code == EX_USAGE
    assert "no in-range points" in stderr
    assert "violations" not in stdout


def test_audit_flags_points_where_the_function_is_undefined(capsys):
    # brenner2_gap divides by (N - 1)!, so N = 0 must be flagged, not evaluated
    code, stdout, _ = run(["audit", "brenner2", "--N", "0..2", "--d", "0..4", "--json"], capsys)
    assert code == EX_OK
    blob = json.loads(stdout)
    assert (blob["count"], blob["flagged"], blob["violations"]) == (15, 5, 0)


@pytest.mark.parametrize("flag", ["--N", "--d"])
def test_audit_p_rejects_ranges(flag, capsys):
    code, stdout, stderr = run(["audit", "P", flag, "9..9"], capsys)
    assert code == EX_USAGE
    assert "--N or --d" in stderr
    assert stdout == ""


def test_audit_unknown_function_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "W"])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


def test_bad_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


def test_bad_span_is_usage_error(capsys):
    for span in ("3-5", "3..x"):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "T", "--N", span])
        assert f"expected a..b, got {span!r}" in capsys.readouterr().err
        assert exc.value.code == EX_USAGE


def test_main_reraises_what_is_no_refusal(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, "cmd_audit", broken)
    with pytest.raises(RuntimeError, match="^not a refusal$"):
        main(["audit", "T"])
    assert capsys.readouterr() == ("", "")


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of main, a usage error's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    family = tmp_path / "semistable.txt"
    run(["generate", "-N", "2", "-d", "2", "-n", "5", "-o", str(family)], capsys)
    argvs = [
        ["check", str(family), "--strict"],
        ["check", str(family)],
        ["audit", "T", "--N", "3"],
        ["audit", "T", "--N", "3..3"],
        ["audit", "T"],
    ]
    # each argv on a freshly built parser
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [outcome(argv, capsys) for argv in argvs]
    monkeypatch.undo()
    assert [code for code, _, _ in fresh] == [EX_FAIL, EX_OK, EX_USAGE, EX_OK, EX_OK]

    shared = cli.build_parser()
    calls = []
    original = cli.cmd_audit
    for k, argv in enumerate(argvs):
        assert outcome(argv, capsys) == fresh[k]
        assert cli.build_parser() is shared
        if k == 0:
            # a wrapper installed after the parser was built still runs
            def recording(args):
                calls.append(args.function)
                return original(args)

            monkeypatch.setattr(cli, "cmd_audit", recording)
    assert calls == ["T", "T"]


def test_entry_point_runs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import syzstab

    # the child imports the same package as this process, whatever put it on the path
    root = str(Path(syzstab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "syzstab.cli", "generate", "-N", "2", "-d", "2", "-n", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "StableCertified" in proc.stdout


# 21 members of degree 30 in six variables: 21 * C(36, 6) > MAX_ORACLE_WORK
_OVERSIZED_FOR_THE_ORACLE = MonomialFamily.from_exponents(
    [tuple(30 * (k == i) for k in range(6)) for i in range(6)]
    + [tuple(29 * (k == i) + (k == j) for k in range(6))
       for i, j in list(itertools.permutations(range(6), 2))[:15]]
).to_text()

# argv and the content of {path} (absent when None; {dir} is an existing
# directory), then the exit code and the one stderr line; stdout stays empty
REFUSALS = [
    pytest.param(
        ["generate", "-N", "1", "-d", "3", "-n", "3"], None, EX_NOFAMILY,
        "no family exists: no semistable family of 3 degree-3 monomials exists"
        " on the projective line: 2 does not divide 3", id="generate-nonexistent",
    ),
    pytest.param(
        ["generate", "-N", "3", "-d", "4", "-n", "36"], None, EX_USAGE,
        "error: n=36 outside [4, 35] for (N, d) = (3, 4)", id="generate-out-of-range",
    ),
    pytest.param(
        ["generate", "-N", "2", "-d", "100", "-n", "4000"], None, EX_USAGE,
        "error: n=4000 outside [3, 3] for (N, d) = (2, 100) (the plane search work bound)",
        id="generate-plane-work-bound",
    ),
    pytest.param(
        ["generate", "-N", "2", "-d", "2", "-n", "4", "-o", "{dir}/missing/fam.txt"], None, EX_FAIL,
        "error: [Errno 2] No such file or directory: '{dir}/missing/fam.txt'",
        id="generate-unwritable-output",
    ),
    pytest.param(
        ["check", "{path}"], "not a family\n", EX_DATA,
        "parse error: non-integer header field in 'not a family'", id="check-malformed",
    ),
    pytest.param(
        ["check", "{path}"], b"\xff\xfe" + "2 2 4\n".encode("utf-16-le"), EX_DATA,
        "parse error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        id="check-not-utf8",
    ),
    pytest.param(
        ["check", "{path}"], "1 2 2\n2 0\n3 -1\n", EX_DATA,
        "parse error: exponents must be non-negative integers, got (3, -1)",
        id="check-negative-exponent",
    ),
    pytest.param(
        ["check", "{path}"], None, EX_FAIL,
        "error: [Errno 2] No such file or directory: '{path}'", id="check-missing-path",
    ),
    pytest.param(
        ["check", "{dir}"], None, EX_FAIL,
        "error: [Errno 21] Is a directory: '{dir}'", id="check-directory",
    ),
    pytest.param(
        ["check", "{path}"], "2 2 1\n2 0 0\n", EX_FAIL,
        "error: need at least two generators, got 1", id="check-one-member",
    ),
    pytest.param(
        ["check", "{path}"], "1 2 2\n2 0\n1 1\n", EX_FAIL,
        "error: family is not m-primary: needs X0^d and X1^d", id="check-line-not-primary",
    ),
    pytest.param(
        ["check", "{path}"], "2 2 4\n2 0 0\n1 1 0\n0 2 0\n0 1 1\n", EX_FAIL,
        "error: family is not m-primary: some pure power X_i^d is missing",
        id="check-plane-not-primary",
    ),
    pytest.param(
        ["check", "{path}", "--oracle"], "1 2 3\n2 0\n1 1\n0 2\n", EX_FAIL,
        "error: --oracle applies to N >= 2 families", id="check-line-oracle",
    ),
    pytest.param(
        ["check", "{path}", "--oracle"], _OVERSIZED_FOR_THE_ORACLE, EX_FAIL,
        "error: family has 21 members: the oracle's work bound n * min(2^n, C(d+N+1, N+1))"
        f" at N = 5, d = 30 exceeds MAX_ORACLE_WORK = {MAX_ORACLE_WORK}",
        id="check-oracle-work-bound",
    ),
    pytest.param(
        ["check", "{path}"], "2 1000000000 3\n1000000000 0 0\n0 1000000000 0\n0 0 1000000000\n",
        EX_FAIL,
        "error: (N + 1) * d^2 = 3000000000000000000 at N = 2, d = 1000000000 exceeds"
        f" MAX_SCAN_WORK = {MAX_SCAN_WORK}, the most of any cell generate admits",
        id="check-scan-work-bound",
    ),
    pytest.param(
        ["sweep", "--Nmax", "0"], None, EX_USAGE,
        "error: need Nmax >= 1 and dmax >= 2", id="sweep-degenerate",
    ),
    pytest.param(
        ["sweep", "--Nmax", "1", "--dmax", "3", "--jobs", "0"], None, EX_USAGE,
        "error: --jobs must be at least 1, got 0", id="sweep-jobs",
    ),
    pytest.param(
        ["sweep", "--Nmax", "2", "--dmax", "140"], None, EX_USAGE,
        "error: (N, d) = (2, 140) has more than 10000 degree-d monomials, the admission"
        " ceiling on C(d+N, N)", id="sweep-admission-ceiling",
    ),
    pytest.param(
        ["sweep", "--Nmax", "1", "--dmax", "9999"], None, EX_USAGE,
        "error: the grid has 49994999 cells, above the sweep budget of 100000",
        id="sweep-cell-budget",
    ),
    pytest.param(
        ["sweep", "--Nmax", "1", "--dmax", "2", "--report", "{dir}/missing/r.json"], None, EX_FAIL,
        "error: [Errno 2] No such file or directory: '{dir}/missing/r.json'",
        id="sweep-unwritable-report",
    ),
    pytest.param(
        ["audit", "P", "--N", "9..9"], None, EX_USAGE,
        "error: the P audit takes no --N or --d, only --samples and --seed",
        id="audit-P-ranges",
    ),
    pytest.param(
        ["audit", "Q", "--d", "2..4"], None, EX_USAGE,
        "error: the Q audit grid has no in-range points", id="audit-no-points",
    ),
    pytest.param(
        ["audit", "T", "--N", "3..30", "--d", "2..50"], None, EX_USAGE,
        "error: the T audit has more than 500000 points, the audit budget",
        id="audit-budget-grid",
    ),
    pytest.param(
        ["audit", "T", "--N", "3..1000000000", "--d", "2..2"], None, EX_USAGE,
        "error: the T audit grid has more than 500000 (N, d) pairs, the audit budget",
        id="audit-budget-pairs-T",
    ),
    pytest.param(
        ["audit", "V", "--N", "3..1000000000", "--d", "5..5"], None, EX_USAGE,
        "error: the V audit grid has more than 500000 (N, d) pairs, the audit budget",
        id="audit-budget-pairs-V",
    ),
    pytest.param(
        ["audit", "T", "--N", "3..600002", "--d", "2..2"], None, EX_USAGE,
        "error: the T audit grid has more than 500000 (N, d) pairs, the audit budget",
        id="audit-budget-pairs-T-empty",
    ),
    pytest.param(
        ["audit", "V", "--N", "3..600002", "--d", "5..5"], None, EX_USAGE,
        "error: the V audit grid has more than 500000 (N, d) pairs, the audit budget",
        id="audit-budget-pairs-V-two-points",
    ),
    pytest.param(
        ["audit", "Q", "--N", "1000000..1000000", "--d", "2..500001"], None, EX_USAGE,
        "error: the Q audit grid has no in-range points", id="audit-empty-pairs-at-budget",
    ),
    pytest.param(
        ["audit", "T", "--N", "0..100000000000000000000", "--d", "3..3"], None, EX_USAGE,
        "error: the T audit grid has more than 500000 (N, d) pairs, the audit budget",
        id="audit-budget-pairs-past-maxsize",
    ),
    pytest.param(
        ["audit", "T", "--N", "3..1000000000", "--d", "5..4"], None, EX_USAGE,
        "error: the T audit grid has no in-range points", id="audit-empty-d-long-N",
    ),
    pytest.param(
        ["audit", "V", "--N", "20000..20000", "--d", "20002..20003"], None, EX_USAGE,
        "error: the V audit's values may have 80020 bits, above the audit's value bound of"
        " 10000 bits", id="audit-value-bound-V",
    ),
    pytest.param(
        ["audit", "brenner2", "--N", "3000..3000", "--d", "5000..5000"], None, EX_USAGE,
        "error: the brenner2 audit's values may have 39012 bits, above the audit's value bound"
        " of 10000 bits", id="audit-value-bound-brenner2",
    ),
    pytest.param(
        ["audit", "brenner2", "--N", "1000000..1000000", "--d", "0..0"], None, EX_USAGE,
        "error: the brenner2 audit's values may have 20000020 bits, above the audit's value"
        " bound of 10000 bits", id="audit-value-bound-one-point",
    ),
    pytest.param(
        ["audit", "brenner2", "--N", "1..50", "--d", "0..9999"], None, EX_USAGE,
        "error: the brenner2 audit's 500000 points may hold 353000000 value bits, above the"
        " audit's work bound of 100000000 bits", id="audit-work-bound",
    ),
    pytest.param(
        ["audit", "P", "--samples", "500001"], None, EX_USAGE,
        "error: the P audit has more than 500000 points, the audit budget",
        id="audit-budget-samples",
    ),
    pytest.param(
        ["audit", "P", "--samples", "0"], None, EX_USAGE,
        "error: --samples must be at least 1, got 0", id="audit-samples-zero",
    ),
    pytest.param(
        ["audit", "P", "--samples", "-5"], None, EX_USAGE,
        "error: --samples must be at least 1, got -5", id="audit-samples-negative",
    ),
]


@pytest.mark.parametrize("argv, content, code, line", REFUSALS)
def test_refusal_table(argv, content, code, line, tmp_path, capsys):
    path = tmp_path / "family.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)

    def fill(text):
        return text.replace("{path}", str(path)).replace("{dir}", str(tmp_path))

    # every refusal comes before the work it refuses
    start = time.perf_counter()
    got, stdout, stderr = run([fill(arg) for arg in argv], capsys)
    assert time.perf_counter() - start < 2
    assert (got, stdout, stderr) == (code, "", fill(line) + "\n")
