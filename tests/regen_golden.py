"""Rewrite golden outputs under tests/golden/ from the current code.

    python3 tests/regen_golden.py oracle          # one directory
    python3 tests/regen_golden.py check solve2d   # several

Each name is a directory of tests/golden/; its run uses the same config
(the shipped file or the variant built by tests/test_cli.py) as the test that
compares against it.  Only what the golden comparison rejects is rewritten:
old and new lines (CSV rows) are aligned by their text between numbers, an
aligned line whose numbers the comparison accepts keeps its old text, new
lines are written and vanished ones dropped, and a file the merge leaves as
it was is not touched.  So last-digit drift between machines rewrites
nothing, and the diff of a refresh shows only the lines a change moved.  A
refresh changes what the tests accept, so run it only for an output change
that is declared and explained."""
import argparse
import csv
import difflib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import (BOX2D, FAST_ORACLE, GOLDEN, SHIPPED, _NUMBER,  # noqa: E402
                      _RESIDUAL_KEY, _check_number, _normalised, run_cli, variant)


def golden_runs(tmp: Path) -> dict:
    """{golden directory: CLI argv without --out}, variant configs in tmp."""
    box2d = variant(tmp, "box2d.cfg", *BOX2D)
    return {"check": ("check", "--config", SHIPPED),
            "solve": ("solve", "--config", SHIPPED),
            "scan": ("scan", "--config", SHIPPED),
            "oracle": ("oracle", "--config", variant(tmp, "fast_oracle.cfg", FAST_ORACLE)),
            "check2d": ("check", "--config", box2d),
            "solve2d": ("solve", "--config", box2d)}


def _accepts(numbers) -> bool:
    """Whether _check_number passes every (got, want, residual) of numbers."""
    try:
        for got, want, residual in numbers:
            _check_number(got, want, residual, "")
    except AssertionError:
        return False
    return True


def _text_units(text: str):
    """Per line: (the text between its numbers, a function of the aligned
    new line giving the (got, want, residual) triples of _compare_text)."""
    out = []
    for line in text.splitlines():
        parts = _NUMBER.split(line)
        out.append((tuple(parts[::2]), lambda new, parts=parts: [
            (got, parts[j], bool(_RESIDUAL_KEY.search(parts[j - 1])))
            for j, got in zip(range(1, len(parts), 2), _NUMBER.split(new)[1::2])]))
    return out


def _csv_units(text: str):
    """Per row, as _text_units: its non-number cells in place, the numbers
    checked by column as _compare_csv checks them."""
    lines = text.splitlines()
    header = next(csv.reader(lines[:1]), [])
    out = []
    for line in lines:
        cells = next(csv.reader([line]), [])
        numeric = [bool(_NUMBER.fullmatch(cell)) for cell in cells]
        key = tuple(None if num else cell for cell, num in zip(cells, numeric))
        out.append((key, lambda new, cells=cells, numeric=numeric: [
            (got, want, "residual" in col)
            for got, want, col, num in zip(next(csv.reader([new])), cells, header, numeric)
            if num]))
    return out


def merge(old: str, new: str, units=_text_units) -> str:
    """new, with every line aligned to an old line of the same text between
    numbers, and whose numbers the golden comparison accepts, as its old text."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    old_units = units(old)
    matcher = difflib.SequenceMatcher(None, [key for key, _ in old_units],
                                      [key for key, _ in units(new)], autojunk=False)
    out = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            out += new_lines[j1:j2]
            continue
        for i, j in zip(range(i1, i2), range(j1, j2)):
            numbers = old_units[i][1](new_lines[j])
            out.append(old_lines[i] if _accepts(numbers) else new_lines[j])
    return "\n".join(out) + "\n" if out else ""


def refresh(target: Path, out: Path) -> list:
    """Bring golden directory target to the run in out; the names changed."""
    target.mkdir(parents=True, exist_ok=True)
    new = {path.name: _normalised(path) for path in out.iterdir()}
    changed = []
    for old in sorted(target.iterdir()):
        if old.name not in new:
            old.unlink()
            changed.append(old.name)
    for name, text in sorted(new.items()):
        path = target / name
        if path.exists():
            units = _csv_units if name.endswith(".csv") else _text_units
            text = merge(path.read_text(), text, units)
            if text == path.read_text():
                continue
        path.write_text(text)
        changed.append(name)
    return changed


def regenerate(names) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = golden_runs(tmp)
        for name in names:
            out = tmp / name
            if run_cli(*runs[name], "--out", out) != 0:
                raise SystemExit(f"{name}: the run exited nonzero; golden left as it was")
            changed = refresh(GOLDEN / name, out)
            print(f"{GOLDEN / name}: " + (", ".join(changed) if changed else "unchanged"))


def main(argv=None) -> None:
    names = ("check", "solve", "scan", "oracle", "check2d", "solve2d")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="+", choices=names,
                        help="golden directory to rewrite")
    regenerate(parser.parse_args(argv).command)


if __name__ == "__main__":
    main()
