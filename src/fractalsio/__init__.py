"""Singular integral operators with homogeneous kernels on self-similar sets.

Build an IFS attractor with its natural measure, evaluate truncated and
symbolic singular integrals with certified error brackets, test periodic
points for nonvanishing, assemble divergence certificates, perturb kernels,
and sample orbits ergodically.  The ``fractalsio`` console script exposes the
same drivers over JSON configs.
"""

from .errors import (ConfigError, EvaluationError, FractalsioError, InputError,
                     ResourceLimitError)
from .geometry import Euclidean, Heisenberg1, geometry_from_config
from .symbolic import EPWord, validate_word
from .ifs import IFS, SeparationReport, similarity_dimension
from .measure import (CellBlock, QuadratureResult, cells_for_words, complement_base_words,
                      integrate, integrate_ball_complement, integrate_cells,
                      integrate_complement, integrate_cylinder, mc_integrate,
                      net, pairwise_sum, region_cells)
from .kernels import (ConstantOmega, HomogeneousKernel, PerturbedOmega,
                      PolynomialOverNorm, RieszComponent, SignOmega,
                      bump_profile, omega_from_config)
from .sio import (CriterionReport, DivergenceReport, MaximalEstimate, PVRow,
                  PVTrace, WitnessIntegrand, ball_cylinder_gap, criterion,
                  divergence_certificate, maximal_symbolic, pv_trace,
                  truncated)
from .ergodic import birkhoff_frequency, hitting_times, sample_orbit

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EvaluationError", "FractalsioError", "InputError",
    "ResourceLimitError",
    "Euclidean", "Heisenberg1", "geometry_from_config",
    "EPWord", "validate_word",
    "IFS", "SeparationReport", "similarity_dimension",
    "CellBlock", "QuadratureResult", "cells_for_words",
    "complement_base_words", "integrate",
    "integrate_ball_complement", "integrate_cells", "integrate_complement",
    "integrate_cylinder", "mc_integrate", "net", "pairwise_sum",
    "region_cells",
    "ConstantOmega", "HomogeneousKernel", "PerturbedOmega",
    "PolynomialOverNorm", "RieszComponent", "SignOmega", "bump_profile",
    "omega_from_config",
    "CriterionReport", "DivergenceReport", "MaximalEstimate", "PVRow",
    "PVTrace", "WitnessIntegrand", "ball_cylinder_gap", "criterion",
    "divergence_certificate", "maximal_symbolic", "pv_trace", "truncated",
    "birkhoff_frequency", "hitting_times", "sample_orbit",
    "__version__",
]
