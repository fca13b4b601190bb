"""Rewrite golden outputs under tests/golden/ from the current code.

    python3 tests/regen_golden.py oracle          # one directory
    python3 tests/regen_golden.py check solve2d   # several

Each name is a directory of tests/golden/; its run uses the same config
(the shipped file or the variant built by tests/test_cli.py) as the test that
compares against it.  A refresh changes what the tests accept, so run it only
for an output change that is declared and explained."""
import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import BOX2D, FAST_ORACLE, GOLDEN, SHIPPED, _normalised, run_cli, variant  # noqa: E402


def golden_runs(tmp: Path) -> dict:
    """{golden directory: CLI argv without --out}, variant configs in tmp."""
    box2d = variant(tmp, "box2d.cfg", *BOX2D)
    return {"check": ("check", "--config", SHIPPED),
            "solve": ("solve", "--config", SHIPPED),
            "scan": ("scan", "--config", SHIPPED),
            "oracle": ("oracle", "--config", variant(tmp, "fast_oracle.cfg", FAST_ORACLE)),
            "check2d": ("check", "--config", box2d),
            "solve2d": ("solve", "--config", box2d)}


def regenerate(names) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = golden_runs(tmp)
        for name in names:
            out = tmp / name
            if run_cli(*runs[name], "--out", out) != 0:
                raise SystemExit(f"{name}: the run exited nonzero; golden left as it was")
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for old in target.iterdir():
                old.unlink()
            for path in sorted(out.iterdir()):
                (target / path.name).write_text(_normalised(path))
            print(f"rewrote {target}")


def main(argv=None) -> None:
    names = ("check", "solve", "scan", "oracle", "check2d", "solve2d")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="+", choices=names,
                        help="golden directory to rewrite")
    regenerate(parser.parse_args(argv).command)


if __name__ == "__main__":
    main()
