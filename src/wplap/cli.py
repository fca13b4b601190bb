"""Command line driver.

Subcommands: check (hypothesis certificate), solve (one (lambda, mu) cell),
scan (full grid sweep), oracle (1D shooting cross-check).  Exit codes:
0 pass, 2 certificate fail, 3 inconclusive, 4 solver failure, 64 config
error (a usage error of the flags among them), 65 unsupported domain.

Every CSV file and certificate.txt has a reader in this module so results
can be reloaded programmatically (write_solution_csv writes, and
read_solution_csv reads, every profile: solutions, scan solutions, oracle
roots and the best iterate); the *_report.txt files have none.  Floats are
written with repr for bit-identical reruns.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .certificate import (CertificateReport, Constants, ProblemSpec, RefinementRequiredError,
                          RegimeError, build_certificate, build_ustar, check_H3, compute_r)
from .config import ConfigError, RunConfig, _located, config_errors, load_config
from .energy import EnergyAssembler
from .geometry import Mesh, UnsupportedDomainError, build_mesh
from .oracle1d import ShootingProfile, enumerate_solutions
from .solver import CoercivityError, SolutionSet, SolverFailure, scan, solve_cell
from .space import k_upper_bound

__all__ = [
    "main",
    "read_certificate",
    "read_constants_csv",
    "read_oracle_profile",
    "read_scan_summary",
    "read_solution_csv",
]


def _fmt(x) -> str:
    return repr(float(x))


def build_problem_mesh(cfg: RunConfig) -> Mesh:
    """Mesh with the u* kink radii inserted as exact vertices (1D)."""
    breakpoints = ()
    if cfg.ball is not None and cfg.domain.dim == 1:
        x0 = cfg.ball.x0[0]
        breakpoints = (x0 - cfg.ball.r2, x0 - cfg.ball.r1,
                       x0 + cfg.ball.r1, x0 + cfg.ball.r2)
    return build_mesh(cfg.domain, cfg.h, grading_depth=cfg.grading_depth,
                      breakpoints=breakpoints)


def _problem_spec(cfg: RunConfig) -> ProblemSpec | None:
    """The certificate's instance, or None without [ball] and [constants];
    a spec outside the theorem's regime is a config error at the key at
    fault (p, s in [space]; c, d, gamma in [constants])."""
    if cfg.ball is None or cfg.c is None or cfg.d is None:
        return None
    try:
        return ProblemSpec(domain=cfg.domain, weight=cfg.weight, p=cfg.p, s=cfg.s,
                           ball=cfg.ball, c=cfg.c, d=cfg.d, gamma=cfg.gamma,
                           nl_f=cfg.nl_f, nl_g=cfg.nl_g,
                           zero_order_term=cfg.zero_order_term)
    except RegimeError as exc:
        section = "space" if exc.key in ("p", "s") else "constants"
        raise _located(cfg.path, str(exc), section, exc.key) from exc

# -- writers / readers ----------------------------------------------------

def _write_table(path, header, columns):
    """One CSV file in a single write: the header, then one row per entry of
    the columns, each a sequence of cell texts (see _columns), labels or
    Python floats and ints (as from ndarray.tolist()), each written with str
    (for a float its repr, as _fmt writes it), and CRLF line ends as
    csv.writer writes them."""
    rows = map(",".join, zip(*(map(str, column) for column in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows]) + "\r\n")


def _columns(points) -> list:
    """The cell texts of points (n,) or (n, N), one list per coordinate: a
    mesh's vertices or the oracle's march grid, formed once per command for
    every file that lists them."""
    columns = np.atleast_2d(np.asarray(points, dtype=float).T)
    return [list(map(str, col)) for col in columns.tolist()]


def _read_table(path, what: str, header_ok, min_rows: int = 0) -> list:
    """The rows after the header of a CSV file; ValueError saying the file is
    not what when the header fails header_ok or fewer than min_rows follow."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) <= min_rows or not header_ok(rows[0]):
        raise ValueError(f"{path}: not {what}")
    return rows[1:]


def write_solution_csv(path, coords: list, values: np.ndarray):
    """A profile: values (n,) at the points whose _columns are coords (a
    mesh's vertices or the oracle's march grid)."""
    _write_table(path, [f"x{i + 1}" for i in range(len(coords))] + ["u"],
                 [*coords, values.tolist()])


def read_solution_csv(path):
    """Returns (coords (n, N), values (n,))."""
    body = _read_table(path, "a solution file", lambda header: header[-1:] == ["u"], 1)
    data = np.array([[float(tok) for tok in row] for row in body])
    return data[:, :-1], data[:, -1]


# the certificate's scalar constants, in the order constants.csv and
# certificate.txt list them
_CONSTANTS = [f.name for f in fields(Constants)]


def write_constants_csv(path, report: CertificateReport):
    c = report.constants
    rows = [(key, float(getattr(c, key))) for key in _CONSTANTS]
    lower, upper = c.sandwich_margins
    rows += [("sandwich_margin_lower", float(lower)), ("sandwich_margin_upper", float(upper))]
    _write_table(path, ["name", "value"], zip(*rows))


def read_constants_csv(path) -> dict:
    body = _read_table(path, "a constants file", lambda header: header == ["name", "value"])
    return {name: float(val) for name, val in body}


def write_certificate_txt(path, report: CertificateReport, meta: dict):
    c = report.constants
    lines = ["[certificate]"]
    for key, val in meta.items():
        lines.append(f"{key} = {val}")
    lines += [f"overall = {report.overall}", f"exit_code = {report.exit_code}", ""]
    lines.append("[constants]")
    lines += [f"{key} = {_fmt(getattr(c, key))}" for key in _CONSTANTS]
    lines += ["k_mode = certified", ""]
    for e in report.entries:
        lines += [f"[check:{e.name}]", f"verdict = {e.verdict}",
                  f"margin = {_fmt(e.margin)}", f"mode = {e.mode}"]
        if e.note:
            lines.append(f"note = {e.note}")
        lines.append("")
    lines.append("[notes]")
    for i, note in enumerate(report.notes):
        lines.append(f"note_{i} = {note}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_certificate(path) -> dict:
    """Returns {'meta': {...}, 'constants': {...}, 'checks': {name: {...}},
    'notes': [...]}; floats parsed back.  ValueError when the file is no INI
    text with [certificate] and [constants] sections."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
        meta, constants = dict(cp["certificate"]), cp["constants"]
    except (configparser.Error, KeyError) as exc:
        raise ValueError(f"{path}: not a certificate") from exc
    out = {"meta": meta, "constants": {}, "checks": {}, "notes": []}
    for key, val in constants.items():
        out["constants"][key] = val if key == "k_mode" else float(val)
    for section in cp.sections():
        if section.startswith("check:"):
            entry = dict(cp[section])
            entry["margin"] = float(entry["margin"])
            out["checks"][section.split(":", 1)[1]] = entry
    if cp.has_section("notes"):
        out["notes"] = [v for _, v in sorted(cp["notes"].items())]
    return out


_SCAN_COLUMNS = ["lambda", "mu", "count", "count_nontrivial", "rho_observed",
                 "min_pairwise_distance", "max_residual"]


def _scan_row(cell) -> list:
    """A scan cell's _SCAN_COLUMNS values, for the summary table and the report."""
    sol = cell.solutions
    return [float(cell.lam), float(cell.mu), sol.count, sol.count_nontrivial,
            float(sol.rho_observed), float(sol.min_distance), float(sol.max_residual)]


def write_scan_summary(path, cells):
    _write_table(path, _SCAN_COLUMNS, zip(*map(_scan_row, cells)))


def read_scan_summary(path) -> list:
    """One dict per cell, keyed by _SCAN_COLUMNS: the two counts ints, the rest floats."""
    return [{key: (int if key.startswith("count") else float)(tok)
             for key, tok in zip(_SCAN_COLUMNS, row)}
            for row in _read_table(path, "a scan summary",
                                   lambda header: header == _SCAN_COLUMNS)]


def write_oracle_profile(path, profile: ShootingProfile):
    _write_table(path, ["sigma", "terminal", "diverged"],
                 [profile.sigma_grid.tolist(), profile.terminal_values.tolist(),
                  profile.diverged.astype(int).tolist()])


def read_oracle_profile(path):
    data = _read_table(path, "an oracle profile",
                       lambda header: header == ["sigma", "terminal", "diverged"])
    sigma = np.array([float(r[0]) for r in data])
    terminal = np.array([float(r[1]) for r in data])
    diverged = np.array([bool(int(r[2])) for r in data])
    return sigma, terminal, diverged


# -- subcommands ----------------------------------------------------------

def _report_lines(report: CertificateReport):
    lines = []
    for e in report.entries:
        extra = f" [{e.note}]" if e.note else ""
        lines.append(f"{e.name}: {e.verdict} (margin={e.margin:.6g}, mode={e.mode}){extra}")
    lines.append(f"overall: {report.overall}")
    return lines


def cmd_check(cfg: RunConfig, out: Path) -> int:
    spec = _problem_spec(cfg)
    if spec is None:
        raise _located(cfg.path, "check requires [ball] and [constants] sections")
    mesh = build_problem_mesh(cfg)
    with config_errors(cfg.path, "mesh", "h", errors=RefinementRequiredError):
        report = build_certificate(spec, mesh)
    meta = {"config": cfg.path, "lambda": _fmt(cfg.run_lambda), "mu": _fmt(cfg.run_mu),
            "h": _fmt(cfg.h), "p": _fmt(cfg.p), "seed": cfg.solver.seed}
    write_certificate_txt(out / "certificate.txt", report, meta)
    write_constants_csv(out / "constants.csv", report)
    for line in _report_lines(report):
        print(line)
    if report.overall != "pass":
        bad = [e.name for e in report.entries if e.verdict in ("fail", "inconclusive")]
        print(f"failing or inconclusive conditions: {', '.join(bad)}")
    print(f"wrote {out / 'certificate.txt'} and {out / 'constants.csv'}")
    return report.exit_code


def _solver_inputs(cfg: RunConfig, lams, mus):
    """The problem mesh's assembler at (lams[0], mus[0]) and the theorem's
    pieces for the solvers: (asm, spec, r, ustar), the last three None
    without a problem spec.  The level r = (1/p)(c/k)^p takes only the
    closed-form k_upper.  Warns when H3 is not established.

    The Newton tangent needs the t-derivative of f when a lambda in lams is
    nonzero, and of g when a mu in mus is; one the expression language
    cannot form is a config error naming the section, raised before any
    check runs."""
    for nl, coefs, section in ((cfg.nl_f, lams, "nonlinearity_f"),
                               (cfg.nl_g, mus, "nonlinearity_g")):
        if nl is not None and any(coefs):
            with config_errors(cfg.path, section, "expr"):
                nl.f_t
    mesh = build_problem_mesh(cfg)
    r = ustar = None
    spec = _problem_spec(cfg)
    if spec is not None:
        with config_errors(cfg.path, "mesh", "h", errors=RefinementRequiredError):
            ustar = build_ustar(cfg.d, cfg.ball, mesh)
        k_upper = k_upper_bound(spec.weight, spec.p, spec.s, mesh)
        r = compute_r(spec.c, k_upper, spec.p)
        if check_H3(spec.nl_f, spec.gamma, spec.domain).verdict not in ("pass", "heuristic-pass"):
            print("warning: H3 growth bound not established; coercivity unknown, "
                  "proceeding anyway", file=sys.stderr)
    asm = EnergyAssembler(mesh, cfg.weight, cfg.p, lams[0], mus[0], cfg.nl_f, cfg.nl_g,
                          cfg.zero_order_term, cfg.solver.eps_reg)
    return asm, spec, r, ustar


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    lam, mu = cfg.run_lambda, cfg.run_mu
    asm, _, r, ustar = _solver_inputs(cfg, [lam], [mu])
    try:
        records, notes = solve_cell(asm, r, config=cfg.solver, ustar=ustar)
    except (SolverFailure, CoercivityError) as exc:
        lines = ["status = failed", f"lambda = {_fmt(lam)}", f"mu = {_fmt(mu)}",
                 f"error = {exc}"]
        best = getattr(exc, "best", None)
        if best is not None:
            write_solution_csv(out / "best_iterate.csv", _columns(best.mesh.vertices),
                               best.values)
            lines.append("best_iterate = best_iterate.csv")
            lines.append(f"best_residual = {_fmt(exc.residual_norm)}")
        (out / "solve_report.txt").write_text("\n".join(lines) + "\n")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4

    sset = SolutionSet(records, cfg.solver.delta_dist)
    distinct = sset.distinct_records()
    lines = ["status = ok", f"lambda = {_fmt(lam)}", f"mu = {_fmt(mu)}",
             f"count = {sset.count}", f"count_nontrivial = {sset.count_nontrivial}",
             f"rho_observed = {_fmt(sset.rho_observed)}", ""]
    coords = _columns(asm.mesh.vertices)
    for i, rec in enumerate(distinct):
        name = f"solution_{i:03d}.csv"
        write_solution_csv(out / name, coords, rec.u.values)
        lines += [f"[solution_{i:03d}]", f"file = {name}",
                  f"classification = {rec.classification}",
                  f"energy = {_fmt(rec.energy)}",
                  f"residual_norm = {_fmt(rec.residual_norm)}",
                  f"norm = {_fmt(rec.norm)}",
                  f"sup_norm = {_fmt(np.max(np.abs(rec.u.values)))}", ""]
    for note in notes:
        lines.append(f"note = {note}")
    (out / "solve_report.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(distinct)} distinct solution(s) at lambda={lam:g}, mu={mu:g}; "
          f"reports in {out}")
    return 0


def cmd_scan(cfg: RunConfig, out: Path) -> int:
    if not cfg.lambda_grid:
        raise _located(cfg.path, "scan requires a non-empty [lambda_grid]")
    asm, spec, r, ustar = _solver_inputs(cfg, cfg.lambda_grid, cfg.mu_values)
    report = None if spec is None else build_certificate(spec, asm.mesh)
    result = scan(asm, cfg.lambda_grid, cfg.mu_values, r, config=cfg.solver, ustar=ustar)
    write_scan_summary(out / "scan_summary.csv", result.cells)

    lines = [f"config = {cfg.path}", f"cells = {len(result.cells)}"]
    if report is not None:
        lines.append(f"certificate_overall = {report.overall}")
    lines.append("lambda_window = " + "; ".join(
        f"({lam:g}, {mu:g})" for lam, mu in result.lambda_window))
    lines.append("")
    coords = _columns(asm.mesh.vertices)
    for ci, cell in enumerate(result.cells):
        # str of a float is its repr, as _fmt writes it
        lines += [f"[cell_{ci:03d}]"] + [f"{key} = {value}" for key, value
                                          in zip(_SCAN_COLUMNS, _scan_row(cell))]
        for si, rec in enumerate(cell.solutions.distinct_records()):
            name = f"scan_c{ci:03d}_s{si}.csv"
            write_solution_csv(out / name, coords, rec.u.values)
            lines.append(f"solution_{si} = {name} "
                         f"({rec.classification}, energy={_fmt(rec.energy)}, "
                         f"residual={_fmt(rec.residual_norm)})")
        for note in cell.notes:
            lines.append(f"note = {note}")
        lines.append("")
    (out / "scan_report.txt").write_text("\n".join(lines) + "\n")

    succeeded = sum(1 for cell in result.cells if cell.solutions.count >= 1)
    best = max((cell.solutions.count for cell in result.cells), default=0)
    print(f"scan: {succeeded}/{len(result.cells)} cells succeeded, "
          f"max distinct count {best}; window cells: {len(result.lambda_window)}")
    print(f"wrote {out / 'scan_summary.csv'}")
    return 0 if succeeded >= 1 else 4


def cmd_oracle(cfg: RunConfig, out: Path) -> int:
    lam, mu = cfg.run_lambda, cfg.run_mu
    profile = enumerate_solutions(cfg.domain, cfg.weight, cfg.p, lam, mu,
                                  f=cfg.nl_f, g=cfg.nl_g,
                                  zero_order=cfg.zero_order_term,
                                  sigma_range=cfg.sigma_range, n_scan=cfg.n_scan,
                                  steps_per_unit=cfg.steps_per_unit)
    write_oracle_profile(out / "oracle_profile.csv", profile)
    lines = [f"config = {cfg.path}", f"lambda = {_fmt(lam)}", f"mu = {_fmt(mu)}",
             f"sigma_range = {_fmt(cfg.sigma_range[0])} .. {_fmt(cfg.sigma_range[1])}",
             f"n_scan = {cfg.n_scan}", f"roots = {len(profile.roots)}",
             f"degenerate_flat = {profile.degenerate_flat}",
             f"unconverged_brackets = {len(profile.unconverged)}", ""]
    grid = None    # every root is marched on the same grid
    for i, root in enumerate(profile.roots):
        name = f"oracle_root_{i:03d}.csv"
        grid = grid or _columns(root.x)
        write_solution_csv(out / name, grid, root.u)
        lines += [f"[root_{i:03d}]", f"file = {name}", f"sigma = {_fmt(root.sigma)}",
                  f"terminal = {_fmt(root.terminal)}",
                  f"sup_norm = {_fmt(np.max(np.abs(root.u)))}", ""]
    (out / "oracle_report.txt").write_text("\n".join(lines) + "\n")
    print(f"oracle: {len(profile.roots)} root(s) at lambda={lam:g}, mu={mu:g}; "
          f"profile in {out / 'oracle_profile.csv'}")
    return 0


# -- entry point ----------------------------------------------------------

def _usage_error(message: str):
    """Each parser's error hook: a usage error is the config error naming the
    flag at fault (exit 64), not argparse's usage text and exit 2, the code
    of a certificate failure.  message is "argument --mu: expected one
    argument", or "<what>: <flags>" as in "the following arguments are
    required: --config"."""
    head, _, tail = message.partition(": ")
    if head.startswith("argument "):
        raise _located(head.removeprefix("argument "), tail)
    raise _located(tail, head)


# the flags that take a number; argparse reads a value such as -1e-3 or -inf
# as another flag, but never the text after "=" in "--mu=-1e-3"
_NUMBER_FLAGS = ("--lambda", "--mu", "--seed")
# every long option of a subcommand (_build_parser's, and argparse's --help);
# argparse reads a unique prefix of one, such as --lam, as that option
_LONG_OPTIONS = ("--config", "--out") + _NUMBER_FLAGS + ("--help",)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _number_flag(token: str) -> str | None:
    """The number flag that argparse reads token as: the flag itself, or a
    prefix of it and of no other long option; None for any other token."""
    hits = [opt for opt in _LONG_OPTIONS if opt.startswith(token)]
    if token not in _LONG_OPTIONS and len(hits) == 1:
        token = hits[0]
    return token if token in _NUMBER_FLAGS else None


def _join_numbers(argv: list) -> list:
    """argv with each number flag, or its unique prefix, joined to a
    following number text as "--flag=value", so any number is that flag's
    value."""
    out = []
    for token in argv:
        flag = _number_flag(out[-1]) if out else None
        if flag is not None and _is_number(token):
            out[-1] = flag + "=" + token
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wplap",
        description="Variational solver and hypothesis certificates for the "
                    "weighted p-Laplacian Dirichlet problem.")
    parser.error = _usage_error
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [("check", cmd_check, "compute the hypothesis certificate"),
             ("solve", cmd_solve, "solve one (lambda, mu) cell"),
             ("scan", cmd_scan, "sweep the (lambda, mu) grid"),
             ("oracle", cmd_oracle, "1D shooting cross-check")]
    for name, func, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.error = _usage_error
        sp.add_argument("--config", required=True, help="problem config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="override lambda from [run]")
        sp.add_argument("--mu", type=float, default=None,
                        help="override mu from [run]")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the multistart seed")
        sp.set_defaults(func=func)
    return parser


def _apply_overrides(cfg: RunConfig, args):
    """The --seed, --lambda and --mu flags on cfg; a value the config key
    would reject (a seed outside [0, 2**64), a non-finite lambda or mu) is a
    config error that names the flag in place of a file."""
    if args.seed is not None:
        with config_errors("--seed"):
            cfg.solver = replace(cfg.solver, seed=args.seed)
    for flag, value in (("--lambda", args.lam), ("--mu", args.mu)):
        if value is not None and not math.isfinite(value):
            raise _located(flag, f"not finite: {value!r}")
    if args.lam is not None:
        cfg.run_lambda = args.lam
    if args.mu is not None:
        cfg.run_mu = args.mu


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except UnsupportedDomainError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 65
    except (SolverFailure, CoercivityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
