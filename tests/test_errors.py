import math

import numpy as np
import pytest

import _helpers as h
from fractalsio import (IFS, ConstantOmega, Euclidean, FractalsioError, InputError,
                        PolynomialOverNorm, RieszComponent, ball_cylinder_gap, criterion,
                        integrate_ball_complement, mc_integrate, omega_from_config,
                        pv_trace, region_cells, sample_orbit, truncated)
from fractalsio.errors import integer, nonnegative, positive, real


def _coord(pts):
    return np.asarray(pts)[..., 0]


# Each call passes malformed input to a library entry point.
MALFORMED = {
    "region_cells depth 2.5": lambda mt: region_cells(mt, [()], 2.5),
    "criterion depth 2.5": lambda mt: criterion(mt, h.sign_kernel(mt), (1,), 2.5),
    "truncated depth 2.5": lambda mt: truncated(mt, h.sign_kernel(mt), [0.0], 0.1, 2.5),
    "gap depth 2.5": lambda mt: ball_cylinder_gap(mt, h.sign_kernel(mt), h.word1(),
                                                  1, 1, 2.5),
    "ball complement depth 2.5": lambda mt: integrate_ball_complement(
        mt, _coord, 1.0, [0.0], 0.1, 2.5),
    "pv_trace depth None": lambda mt: pv_trace(mt, h.sign_kernel(mt), h.word1(), 2, None),
    "mc_integrate n_samples 'x'": lambda mt: mc_integrate(mt, _coord, "x", 0),
    "IFS maps 5": lambda mt: IFS(Euclidean(1), 5),
    "config riesz axis 1.7": lambda mt: omega_from_config({"kind": "riesz", "axis": 1.7}),
    "riesz axis True": lambda mt: RieszComponent(True),
    "poly_over_norm exponent 1.5": lambda mt: PolynomialOverNorm(((1.0, (1.5,)),), 1),
    "config poly_over_norm exponent 1.5": lambda mt: omega_from_config(
        {"kind": "poly_over_norm", "coeffs": [[1.0, [1.5]]], "degree": 1}),
    "sample_orbit seed 1.5": lambda mt: sample_orbit(mt, 10, seed=1.5),
    "relative_net depth -1": lambda mt: mt.relative_net(-1),
    "relative_net depth 2.5": lambda mt: mt.relative_net(2.5),
    "constant omega c 'x'": lambda mt: ConstantOmega("x"),
    "config constant omega c '2'": lambda mt: omega_from_config(
        {"kind": "constant", "c": "2"}),
    "poly_over_norm coefficient nan": lambda mt: PolynomialOverNorm(((math.nan, (1,)),), 1),
    "poly_over_norm coefficient 'x'": lambda mt: PolynomialOverNorm((("x", (1,)),), 1),
    "config poly_over_norm coefficient '2'": lambda mt: omega_from_config(
        {"kind": "poly_over_norm", "coeffs": [["2", [1]]], "degree": 1}),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_library_input_is_refused(middle_thirds, case):
    with pytest.raises(FractalsioError):
        MALFORMED[case](middle_thirds)


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None, [2], -1, np.int64(-1)])
def test_integer_refuses(value):
    with pytest.raises(InputError, match="^count must be a nonnegative integer"):
        integer(value, "count", 0)


def test_integer_accepts_integral_numbers():
    for value in (0, 7, np.int64(7), np.uint8(7), 10 ** 30):
        got = integer(value, "count", 0)
        assert type(got) is int and got == value
    assert integer(-5, "shift", -math.inf) == -5
    with pytest.raises(InputError, match="^n must be an integer >= 2, got 1$"):
        integer(1, "n", 2)


@pytest.mark.parametrize("value", [True, "0.5", None, [0.5], math.nan, math.inf, -math.inf,
                                   10 ** 400, -1.0])
def test_float_readers_refuse(value):
    with pytest.raises(InputError, match="^eps must be a finite number > 0"):
        positive(value, "eps")
    with pytest.raises(InputError, match="^lip must be a finite number >= 0"):
        nonnegative(value, "lip")


@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, math.inf, 10 ** 400])
def test_real_refuses(value):
    with pytest.raises(InputError, match="^c must be a finite number, got"):
        real(value, "c")


def test_real_accepts_finite_numbers():
    for value in (-2.5, 0, np.float32(0.5), np.int64(-3)):
        got = real(value, "c")
        assert type(got) is float and got == float(value)


def test_float_readers_bounds():
    for value in (0.5, 2, np.float64(0.5), np.int64(3)):
        assert type(positive(value, "eps")) is float
        assert positive(value, "eps") == nonnegative(value, "lip") == float(value)
    assert nonnegative(0, "lip") == 0.0
    with pytest.raises(InputError, match="^eps must be a finite number > 0"):
        positive(0.0, "eps")
    assert positive(3.0, "rho", math.pi) == 3.0
    with pytest.raises(InputError, match=r"^rho must be a number in \(0, 3\.14159\)"):
        positive(math.pi, "rho", math.pi)
