"""End-to-end tests for the command-line interface and its exit codes."""

import dataclasses
import itertools
import json
import re
import time

import pytest

from syzstab.cli import EX_DATA, EX_FAIL, EX_NOFAMILY, EX_OK, EX_USAGE, _sweep_cell, main
from syzstab.constructions import InternalConsistencyError, admissible_bounds, dispatch
from syzstab.criterion import (
    MAX_ORACLE_WORK,
    MAX_SCAN_WORK,
    GcdWitness,
    brute_force_check,
    check_family,
)
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


def test_generate_nonexistent_line_family(capsys):
    code, _, stderr = run(["generate", "-N", "1", "-d", "3", "-n", "3"], capsys)
    assert code == EX_NOFAMILY
    assert "does not divide" in stderr


def test_generate_out_of_range_is_usage_error(capsys):
    code, _, _ = run(["generate", "-N", "3", "-d", "4", "-n", "36"], capsys)
    assert code == EX_USAGE


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

    for name in ("gen_n2_search", "gen_face_vertex", "gen_brenner"):
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


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a family\n")
    code, _, stderr = run(["check", str(bad)], capsys)
    assert code == EX_DATA
    assert "parse error" in stderr


def test_check_negative_exponent_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "negative.txt"
    bad.write_text("1 2 2\n2 0\n3 -1\n")
    code, _, stderr = run(["check", str(bad)], capsys)
    assert code == EX_DATA
    assert "parse error" in stderr


def test_check_non_utf8_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "2 2 4\n".encode("utf-16-le"))
    code, _, stderr = run(["check", str(bad)], capsys)
    assert code == EX_DATA
    assert "parse error" in stderr


def test_check_missing_file(tmp_path, capsys):
    code, _, _ = run(["check", str(tmp_path / "absent.txt")], capsys)
    assert code == EX_FAIL


def test_check_non_primary_family(tmp_path, capsys):
    f = tmp_path / "nonprimary.txt"
    f.write_text("2 2 4\n2 0 0\n1 1 0\n0 2 0\n0 1 1\n")
    code, _, stderr = run(["check", str(f)], capsys)
    assert code == EX_FAIL
    assert "m-primary" in stderr


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
    assert "verdict:" in stdout and "oracle agrees" not in stdout
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


def test_sweep_lists_only_the_cells_generate_admits(capsys, monkeypatch):
    # (3, 15, 133..137) recurse into plane cells above the work bound
    listed = []

    def stub(cell):
        listed.append(cell)
        N, d, n = cell
        return {"N": N, "d": d, "n": n, "route": None, "verdict": "StableCertified",
                "worst_margin": None, "wall_time": 0.0, "failure": None}

    def search(d, n):
        raise AssertionError("gen_n2_search called")

    monkeypatch.setattr("syzstab.cli._sweep_cell", stub)
    monkeypatch.setattr("syzstab.constructions.gen_n2_search", search)
    code, stdout, _ = run(["sweep", "--Nmax", "3", "--dmax", "15"], capsys)
    assert code == EX_OK
    assert (3, 15, 132) in listed
    assert not {(3, 15, n) for n in range(133, 138)} & set(listed)
    assert f"sweep: {len(listed)} cells" in stdout
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


def test_sweep_rejects_degenerate_grid(capsys):
    code, _, _ = run(["sweep", "--Nmax", "0"], capsys)
    assert code == EX_USAGE


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


def test_audit_p_samples(capsys):
    code, stdout, _ = run(["audit", "P", "--samples", "300", "--seed", "5", "--json"], capsys)
    assert code == EX_OK
    assert json.loads(stdout)["count"] == 300


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "Q", "--d", "2..4"],
        ["audit", "P", "--samples", "0"],
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
    with pytest.raises(SystemExit) as exc:
        main(["audit", "T", "--N", "3-5"])
    capsys.readouterr()
    assert exc.value.code == EX_USAGE


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
