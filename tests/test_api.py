import importlib
import inspect

import fractalsio

PUBLIC = [
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

REMOVED = [
    ("fractalsio", "CylinderNet"), ("fractalsio", "refine"),
    ("fractalsio", "cylinder_prob"), ("fractalsio", "eval_kernel"),
    ("fractalsio", "kernel_modulus_on"), ("fractalsio", "perturb"),
    ("fractalsio.measure", "CylinderNet"), ("fractalsio.measure", "refine"),
    ("fractalsio.symbolic", "cylinder_prob"), ("fractalsio.kernels", "eval_kernel"),
    ("fractalsio.kernels", "kernel_modulus_on"), ("fractalsio.kernels", "perturb"),
    ("fractalsio", "witness_g"), ("fractalsio.sio", "witness_g"),
    ("fractalsio.cli", "witness_g"),
    ("fractalsio", "power"), ("fractalsio", "concat"), ("fractalsio", "is_prefix"),
    ("fractalsio.symbolic", "power"), ("fractalsio.symbolic", "concat"),
    ("fractalsio.symbolic", "is_prefix"),
    ("fractalsio", "ModulusSpec"), ("fractalsio", "Similarity"),
    ("fractalsio", "OrbitSample"), ("fractalsio.measure", "ModulusSpec"),
    ("fractalsio.ifs", "Similarity"), ("fractalsio.ergodic", "OrbitSample"),
    ("fractalsio.sio", "pairwise_sum"),  # every bracket is summed in measure
    ("fractalsio", "export_net_csv"), ("fractalsio.measure", "export_net_csv"),
]


def test_all_is_pinned():
    assert fractalsio.__all__ == PUBLIC


def test_all_names_resolve():
    for name in fractalsio.__all__:
        assert getattr(fractalsio, name) is not None


def test_removed_names_are_gone(middle_thirds):
    for module, name in REMOVED:
        assert not hasattr(importlib.import_module(module), name), (module, name)
    assert not hasattr(fractalsio.IFS, "fixed_points_batch")
    assert not hasattr(fractalsio.HomogeneousKernel, "modulus_on")
    assert not hasattr(fractalsio.WitnessIntegrand, "value_at")
    assert not hasattr(fractalsio.kernels, "ModulusSpec")  # kernels knows no quadrature
    assert "region_sup" not in inspect.signature(
        fractalsio.integrate_ball_complement).parameters
    assert not hasattr(fractalsio.EPWord, "shift")
    assert not hasattr(middle_thirds, "maps")  # read ratios and shifts
    assert not hasattr(middle_thirds, "osc_ball")  # separation is only certified
    assert list(inspect.signature(fractalsio.IFS).parameters) == ["geometry", "maps"]
    assert not hasattr(fractalsio.PVTrace, "to_csv")  # the CLI writes to_csv_text()
    assert not hasattr(fractalsio.CellBlock, "word")  # read from letters()
    assert not hasattr(fractalsio.QuadratureResult, "__sub__")  # the gap's shell is one pass
    for func in (fractalsio.net, fractalsio.region_cells,
                 fractalsio.integrate_ball_complement, fractalsio.measure._ball_cells):
        assert "cap" not in inspect.signature(func).parameters, func
    kern = fractalsio.HomogeneousKernel(fractalsio.Euclidean(1), 1.0,
                                        fractalsio.SignOmega())
    assert not hasattr(kern, "analytic")
    for func, names in [(fractalsio.similarity_dimension, ("tol", "max_iter")),
                        (fractalsio.mc_integrate, ("depth",)),
                        (fractalsio.WitnessIntegrand, ("max_blocks",)),
                        (fractalsio.HomogeneousKernel, ("analytic",)),
                        (fractalsio.IFS.check_separation, ("max_nodes",)),
                        (fractalsio.IFS, ("dim_s",)),
                        (fractalsio.IFS.check_separation, ("depth",))]:
        params = inspect.signature(func).parameters
        assert not any(name in params for name in names), (func, names)
