"""Command line driver.

Subcommands: check (hypothesis certificate), solve (one (lambda, mu) cell),
scan (full grid sweep), oracle (1D shooting cross-check).  Exit codes:
0 pass, 2 certificate fail, 3 inconclusive, 4 solver failure, 64 config
error, 65 unsupported domain.

Every CSV file and certificate.txt has a reader in this module so results
can be reloaded programmatically (read_solution_csv also reads the oracle's
root profiles); the *_report.txt files have none.  Floats are written with
repr for bit-identical reruns.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .certificate import (CertificateReport, ProblemSpec, RefinementRequiredError,
                          build_certificate, build_ustar, check_H3, compute_r)
from .config import ConfigError, RunConfig, _line_of, load_config
from .energy import EnergyAssembler
from .expressions import ParseError
from .geometry import Mesh, UnsupportedDomainError, build_mesh
from .oracle1d import ShootingProfile, enumerate_solutions
from .solver import CoercivityError, SolutionSet, SolverFailure, scan, solve_cell
from .space import DiscreteFunction, k_upper_bound

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
    a spec outside the theorem's regime is a config error."""
    if cfg.ball is None or cfg.c is None or cfg.d is None:
        return None
    try:
        return ProblemSpec(domain=cfg.domain, weight=cfg.weight, p=cfg.p, s=cfg.s,
                           ball=cfg.ball, c=cfg.c, d=cfg.d, gamma=cfg.gamma,
                           nl_f=cfg.nl_f, nl_g=cfg.nl_g,
                           zero_order_term=cfg.zero_order_term)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from exc


# -- writers / readers ----------------------------------------------------

def _write_table(path, header, rows):
    """One numeric CSV file in a single write: the header, then rows of
    Python floats and ints (as from ndarray.tolist()), each value written
    with repr as _fmt does, and CRLF line ends as csv.writer writes them."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_solution_csv(path, u: DiscreteFunction):
    mesh = u.mesh
    _write_table(path, [f"x{i + 1}" for i in range(mesh.dim)] + ["u"],
                 np.column_stack([mesh.vertices, u.values]).tolist())


def read_solution_csv(path):
    """Returns (coords (n, N), values (n,))."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if not header or header[-1] != "u":
        raise ValueError(f"{path}: not a solution file")
    data = np.array([[float(tok) for tok in row] for row in body])
    return data[:, :-1], data[:, -1]


def write_constants_csv(path, report: CertificateReport):
    c = report.constants
    rows = [("w_N", c.w_N), ("a_L1_annulus", c.a_L1_annulus),
            ("k", c.k), ("k_lower", c.k_lower),
            ("xi", c.xi), ("eta", c.eta), ("r", c.r),
            ("ustar_norm_p", c.ustar_norm_p),
            ("ustar_norm_formula", c.ustar_norm_formula),
            ("ustar_norm_formula_corrected", c.ustar_norm_formula_corrected),
            ("sandwich_lower", c.sandwich_lower),
            ("sandwich_upper", c.sandwich_upper),
            ("sandwich_margin_lower", c.ustar_norm_p - c.sandwich_lower),
            ("sandwich_margin_upper", c.sandwich_upper - c.ustar_norm_p)]
    for label, var in c.k_variants.items():
        for key in ("k", "xi", "eta", "r"):
            rows.append((f"{key}[{label}]", var[key]))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["name", "value"])
        for name, val in rows:
            wr.writerow([name, _fmt(val)])


def read_constants_csv(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["name", "value"]:
        raise ValueError(f"{path}: not a constants file")
    return {name: float(val) for name, val in rows[1:]}


def write_certificate_txt(path, report: CertificateReport, meta: dict):
    c = report.constants
    lines = ["[certificate]"]
    for key, val in meta.items():
        lines.append(f"{key} = {val}")
    lines += [f"overall = {report.overall}", f"exit_code = {report.exit_code}", ""]
    lines.append("[constants]")
    for key in ("w_N", "a_L1_annulus", "k", "k_lower", "xi", "eta", "r",
                "ustar_norm_p", "ustar_norm_formula",
                "ustar_norm_formula_corrected", "sandwich_lower", "sandwich_upper"):
        lines.append(f"{key} = {_fmt(getattr(c, key))}")
    lines += ["k_mode = certified", ""]
    for label, var in c.k_variants.items():
        lines.append(f"[variant:{label}]")
        for key in ("k", "xi", "eta", "r"):
            lines.append(f"{key} = {_fmt(var[key])}")
        lines.append("")
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
    """Returns {'meta': {...}, 'constants': {...}, 'variants': {...},
    'checks': {name: {...}}, 'notes': [...]}; floats parsed back."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    with open(path) as fh:
        cp.read_file(fh)
    out = {"meta": dict(cp["certificate"]), "constants": {}, "variants": {},
           "checks": {}, "notes": []}
    for key, val in cp["constants"].items():
        out["constants"][key] = val if key == "k_mode" else float(val)
    for section in cp.sections():
        if section.startswith("variant:"):
            out["variants"][section.split(":", 1)[1]] = {
                k: float(v) for k, v in cp[section].items()}
        elif section.startswith("check:"):
            entry = dict(cp[section])
            entry["margin"] = float(entry["margin"])
            out["checks"][section.split(":", 1)[1]] = entry
    if cp.has_section("notes"):
        out["notes"] = [v for _, v in sorted(cp["notes"].items())]
    return out


_SCAN_COLUMNS = ["lambda", "mu", "count", "count_nontrivial", "rho_observed",
                 "min_pairwise_distance", "max_residual"]


def write_scan_summary(path, cells):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(_SCAN_COLUMNS)
        for cell in cells:
            wr.writerow([_fmt(cell.lam), _fmt(cell.mu), cell.count,
                         cell.count_nontrivial, _fmt(cell.rho),
                         _fmt(cell.min_distance), _fmt(cell.max_residual)])


def read_scan_summary(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != _SCAN_COLUMNS:
        raise ValueError(f"{path}: not a scan summary")
    out = []
    for row in rows[1:]:
        rec = dict(zip(_SCAN_COLUMNS, row))
        for key in ("lambda", "mu", "rho_observed", "min_pairwise_distance",
                    "max_residual"):
            rec[key] = float(rec[key])
        for key in ("count", "count_nontrivial"):
            rec[key] = int(rec[key])
        out.append(rec)
    return out


def write_oracle_profile(path, profile: ShootingProfile):
    rows = np.column_stack([profile.sigma_grid, profile.terminal_values]).tolist()
    for row, dv in zip(rows, profile.diverged.tolist()):
        row.append(int(dv))
    _write_table(path, ["sigma", "terminal", "diverged"], rows)


def read_oracle_profile(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["sigma", "terminal", "diverged"]:
        raise ValueError(f"{path}: not an oracle profile")
    data = rows[1:]
    sigma = np.array([float(r[0]) for r in data])
    terminal = np.array([float(r[1]) for r in data])
    diverged = np.array([bool(int(r[2])) for r in data])
    return sigma, terminal, diverged


def write_oracle_root_csv(path, root):
    _write_table(path, ["x1", "u"], np.column_stack([root.x, root.u]).tolist())


# -- subcommands ----------------------------------------------------------

def _report_lines(report: CertificateReport):
    lines = []
    for e in report.entries:
        extra = f" [{e.note}]" if e.note else ""
        lines.append(f"{e.name}: {e.verdict} (margin={e.margin:.6g}, mode={e.mode}){extra}")
    lines.append(f"overall: {report.overall}")
    return lines


def cmd_check(cfg: RunConfig, args, out: Path) -> int:
    spec = _problem_spec(cfg)
    if spec is None:
        raise ConfigError(f"{cfg.path}: check requires [ball] and [constants] sections")
    mesh = build_problem_mesh(cfg)
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
            try:
                nl.f_t
            except ParseError as exc:
                raise ConfigError(f"{cfg.path} [{section}]: {exc}"
                                  + _line_of(cfg.path, section, "expr")) from exc
    mesh = build_problem_mesh(cfg)
    r = ustar = None
    spec = _problem_spec(cfg)
    if spec is not None:
        ustar = build_ustar(cfg.d, cfg.ball, mesh)
        k_upper = k_upper_bound(spec.domain, spec.weight, spec.p, spec.s, mesh)
        r = compute_r(spec.c, k_upper, spec.p)
        if check_H3(spec.nl_f, spec.gamma, spec.domain).verdict not in ("pass", "heuristic-pass"):
            print("warning: H3 growth bound not established; coercivity unknown, "
                  "proceeding anyway", file=sys.stderr)
    asm = EnergyAssembler(mesh, cfg.weight, cfg.p, lams[0], mus[0], cfg.nl_f, cfg.nl_g,
                          cfg.zero_order_term, cfg.solver.eps_reg)
    return asm, spec, r, ustar


def cmd_solve(cfg: RunConfig, args, out: Path) -> int:
    lam, mu = cfg.run_lambda, cfg.run_mu
    asm, _, r, ustar = _solver_inputs(cfg, [lam], [mu])
    try:
        records, notes = solve_cell(asm, r, config=cfg.solver, ustar=ustar)
    except (SolverFailure, CoercivityError) as exc:
        lines = ["status = failed", f"lambda = {_fmt(lam)}", f"mu = {_fmt(mu)}",
                 f"error = {exc}"]
        best = getattr(exc, "best", None)
        if best is not None:
            write_solution_csv(out / "best_iterate.csv", best)
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
    for i, rec in enumerate(distinct):
        name = f"solution_{i:03d}.csv"
        write_solution_csv(out / name, rec.u)
        lines += [f"[solution_{i:03d}]", f"file = {name}",
                  f"classification = {rec.classification}",
                  f"energy = {_fmt(rec.energy)}",
                  f"residual_norm = {_fmt(rec.residual_norm)}",
                  f"norm = {_fmt(rec.norm)}",
                  f"sup_norm = {_fmt(np.max(np.abs(rec.u.values)))}",
                  f"converged = {rec.converged}",
                  f"inconclusive = {rec.inconclusive}", ""]
    for note in notes:
        lines.append(f"note = {note}")
    (out / "solve_report.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(distinct)} distinct solution(s) at lambda={lam:g}, mu={mu:g}; "
          f"reports in {out}")
    return 0


def cmd_scan(cfg: RunConfig, args, out: Path) -> int:
    if not cfg.lambda_grid:
        raise ConfigError(f"{cfg.path}: scan requires a non-empty [lambda_grid]")
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
    for ci, cell in enumerate(result.cells):
        lines += [f"[cell_{ci:03d}]", f"lambda = {_fmt(cell.lam)}",
                  f"mu = {_fmt(cell.mu)}", f"count = {cell.count}",
                  f"count_nontrivial = {cell.count_nontrivial}",
                  f"rho_observed = {_fmt(cell.rho)}",
                  f"min_pairwise_distance = {_fmt(cell.min_distance)}",
                  f"max_residual = {_fmt(cell.max_residual)}"]
        for si, rec in enumerate(cell.records):
            name = f"scan_c{ci:03d}_s{si}.csv"
            write_solution_csv(out / name, rec.u)
            lines.append(f"solution_{si} = {name} "
                         f"({rec.classification}, energy={_fmt(rec.energy)}, "
                         f"residual={_fmt(rec.residual_norm)})")
        for note in cell.notes:
            lines.append(f"note = {note}")
        lines.append("")
    (out / "scan_report.txt").write_text("\n".join(lines) + "\n")

    succeeded = sum(1 for cell in result.cells if cell.count >= 1)
    best = max((cell.count for cell in result.cells), default=0)
    print(f"scan: {succeeded}/{len(result.cells)} cells succeeded, "
          f"max distinct count {best}; window cells: {len(result.lambda_window)}")
    print(f"wrote {out / 'scan_summary.csv'}")
    return 0 if succeeded >= 1 else 4


def cmd_oracle(cfg: RunConfig, args, out: Path) -> int:
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
    for i, root in enumerate(profile.roots):
        name = f"oracle_root_{i:03d}.csv"
        write_oracle_root_csv(out / name, root)
        lines += [f"[root_{i:03d}]", f"file = {name}", f"sigma = {_fmt(root.sigma)}",
                  f"terminal = {_fmt(root.terminal)}",
                  f"sup_norm = {_fmt(np.max(np.abs(root.u)))}", ""]
    (out / "oracle_report.txt").write_text("\n".join(lines) + "\n")
    print(f"oracle: {len(profile.roots)} root(s) at lambda={lam:g}, mu={mu:g}; "
          f"profile in {out / 'oracle_profile.csv'}")
    return 0


# -- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wplap",
        description="Variational solver and hypothesis certificates for the "
                    "weighted p-Laplacian Dirichlet problem.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [("check", cmd_check, "compute the hypothesis certificate"),
             ("solve", cmd_solve, "solve one (lambda, mu) cell"),
             ("scan", cmd_scan, "sweep the (lambda, mu) grid"),
             ("oracle", cmd_oracle, "1D shooting cross-check")]
    for name, func, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.solver = replace(cfg.solver, seed=args.seed)
        if args.lam is not None:
            cfg.run_lambda = args.lam
        if args.mu is not None:
            cfg.run_mu = args.mu
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, args, out)
    except (ConfigError, RefinementRequiredError, ParseError) as exc:
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
