"""Variational solver and hypothesis certificates for the weighted
p-Laplacian Dirichlet problem

    -div(a(x) |grad u|^{p-2} grad u) + |u|^{p-2} u = lambda f(x,u) + mu g(x,u)

on intervals and boxes, with a possibly degenerate weight a.  The package
computes the explicit constants (k, xi, eta, r) of the three-critical-points
argument, machine-checks the hypotheses on a concrete instance, searches for
the three critical points by minimization / constrained minimization /
mountain pass, and cross-checks 1D instances with a shooting oracle.
"""
from .certificate import (CertificateReport, Constants, ProblemSpec,
                          RefinementRequiredError, build_certificate,
                          build_ustar, compute_eta, compute_r, compute_xi,
                          ustar_norm_p)
from .config import ConfigError, RunConfig, load_config
from .energy import (EnergyAssembler, Nonlinearity, gradient_check,
                     make_nonlinearity, primitive_F)
from .expressions import Expression, ParseError, parse_expression
from .geometry import (BallSpec, Domain, Mesh, UnsupportedDomainError,
                       build_mesh, distance_to_boundary, domain_measure,
                       unit_ball_volume)
from .oracle1d import enumerate_solutions, profile_on_mesh, shoot
from .solver import (CoercivityError, SolutionRecord, SolutionSet,
                     SolverConfig, SolverFailure, invert_phi_prime,
                     minimize_energy, mountain_pass, scan, solve_cell,
                     sublevel_minimize)
from .space import (DiscreteFunction, EmbeddingEstimate, estimate_k, sup_norm,
                    weighted_norm)
from .weight import WeightSpec, check_admissibility, compute_ps, eval_weight

__version__ = "0.1.0"

__all__ = [
    "BallSpec", "CertificateReport", "CoercivityError", "ConfigError",
    "Constants", "DiscreteFunction", "Domain", "EmbeddingEstimate",
    "EnergyAssembler", "Expression", "Mesh", "Nonlinearity", "ParseError",
    "ProblemSpec", "RefinementRequiredError", "RunConfig", "SolutionRecord",
    "SolutionSet", "SolverConfig", "SolverFailure", "UnsupportedDomainError",
    "WeightSpec", "build_certificate", "build_mesh", "build_ustar",
    "check_admissibility", "compute_eta", "compute_ps", "compute_r",
    "compute_xi", "distance_to_boundary", "domain_measure",
    "enumerate_solutions", "estimate_k", "eval_weight", "gradient_check",
    "invert_phi_prime", "load_config", "make_nonlinearity", "minimize_energy",
    "mountain_pass", "parse_expression", "primitive_F", "profile_on_mesh",
    "scan", "shoot", "solve_cell", "sublevel_minimize", "sup_norm",
    "unit_ball_volume", "ustar_norm_p", "weighted_norm",
]
