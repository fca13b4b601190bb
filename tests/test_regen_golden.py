"""tests/regen_golden.py rewrites only what the golden comparison rejects:
an aligned line whose numbers it accepts keeps its old text, a new line is
written, a vanished one dropped, and an unchanged file is not touched."""
from regen_golden import _csv_units, merge, refresh


def test_text_merge_keeps_accepted_lines():
    old = ("status = ok\nrho = 4.483519404476925\nresidual_norm = 1e-10\n"
           "energy = 2.0\nconverged = True\n\n")
    new = ("status = ok\nrho = 4.483519404476924\nresidual_norm = 3e-11\n"
           "norm = 1.5\nenergy = 2.5\n\n")
    # drift within 1e-10 and a residual under the solver tolerance keep their
    # old text; the new line is written, the vanished one dropped
    assert merge(old, new) == ("status = ok\nrho = 4.483519404476925\nresidual_norm = 1e-10\n"
                               "norm = 1.5\nenergy = 2.5\n\n")
    assert merge(old, old) == old


def test_csv_merge_goes_row_by_row():
    old = "x1,u\n0.0,1.0000000000000002\n0.5,2.0\n1.0,0.0\n"
    new = "x1,u\n0.0,1.0\n0.5,2.1\n"
    assert merge(old, new, _csv_units) == "x1,u\n0.0,1.0000000000000002\n0.5,2.1\n"
    summary = "lambda,max_residual\n18.0,1e-10\n"
    assert merge(summary, "lambda,max_residual\n18.0,4e-9\n", _csv_units) == summary
    assert merge(summary, "lambda,max_residual\n18.0,2e-8\n", _csv_units) == \
        "lambda,max_residual\n18.0,2e-8\n"


def test_refresh_touches_only_changed_files(tmp_path):
    golden, out = tmp_path / "golden", tmp_path / "out"
    golden.mkdir()
    out.mkdir()
    (golden / "a.csv").write_text("x1,u\n0.0,1.0000000000000002\n")
    (golden / "report.txt").write_text("count = 3\nconverged = True\n")
    (golden / "gone.csv").write_text("x1,u\n")
    (out / "a.csv").write_text("x1,u\r\n0.0,1.0\r\n")
    (out / "report.txt").write_text("count = 3\n")
    (out / "new.csv").write_text("x1,u\r\n0.5,2.0\r\n")
    stamp = (golden / "a.csv").stat().st_mtime_ns
    assert refresh(golden, out) == ["gone.csv", "new.csv", "report.txt"]
    assert (golden / "a.csv").stat().st_mtime_ns == stamp
    assert (golden / "a.csv").read_text() == "x1,u\n0.0,1.0000000000000002\n"
    assert (golden / "report.txt").read_text() == "count = 3\n"
    assert (golden / "new.csv").read_text() == "x1,u\n0.5,2.0\n"
    assert refresh(golden, out) == []
