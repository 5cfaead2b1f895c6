"""End-to-end tests for the command-line interface and its exit codes."""

import json

import pytest

from syzstab.cli import EX_DATA, EX_FAIL, EX_NOFAMILY, EX_OK, EX_USAGE, main


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


def test_generate_unwritable_output_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "missing" / "fam.txt"
    code, _, stderr = run(["generate", "-N", "2", "-d", "2", "-n", "4", "-o", str(out)], capsys)
    assert code == EX_FAIL
    assert stderr.startswith("error: ")
    assert not out.exists()


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


def test_check_oracle_agreement(tmp_path, capsys):
    out = tmp_path / "fam.txt"
    run(["generate", "-N", "2", "-d", "3", "-n", "8", "-o", str(out)], capsys)
    code, stdout, _ = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_OK
    assert "oracle agrees" in stdout


def test_check_oracle_respects_env_limit(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fam.txt"
    run(["generate", "-N", "2", "-d", "3", "-n", "8", "-o", str(out)], capsys)
    monkeypatch.setenv("SYZ_ORACLE_MAX", "5")
    code, _, stderr = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_FAIL
    assert "limit" in stderr
    monkeypatch.setenv("SYZ_ORACLE_MAX", "20")
    code, stdout, _ = run(["check", str(out), "--oracle"], capsys)
    assert code == EX_OK
    assert "oracle agrees" in stdout


@pytest.mark.parametrize("limit", ["1", "21", "1000"])
def test_check_oracle_env_limit_outside_2_to_20_is_ignored(limit, tmp_path, capsys, monkeypatch):
    out = tmp_path / "fam.txt"
    run(["generate", "-N", "2", "-d", "5", "-n", "17", "-o", str(out)], capsys)
    monkeypatch.setenv("SYZ_ORACLE_MAX", limit)
    code, _, stderr = run(["check", str(out), "--oracle"], capsys)
    # the override is ignored, and the default limit of 16 refuses 17 members
    assert code == EX_FAIL
    assert f"ignoring SYZ_ORACLE_MAX='{limit}'" in stderr
    assert "limit is 16" in stderr


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

    monkeypatch.setattr("syzstab.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    code, stdout, _ = run(["sweep", "--Nmax", "1", "--dmax", "2", "--jobs", "1000000"], capsys)
    assert code == EX_OK
    assert "0 failures" in stdout
    assert sizes == workers


def test_sweep_rejects_degenerate_grid(capsys):
    code, _, _ = run(["sweep", "--Nmax", "0"], capsys)
    assert code == EX_USAGE


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
