"""Field-valued time polynomials and the exact resolvent solve."""

import math

import numpy as np
import pytest

from conftest import random_div_free_field, resolvent_oracle
from nsexpand import (
    DegreeCapError,
    FieldPolynomial,
    SpectralField,
    assemble,
    bilinear,
    poly_bilinear,
    resolvent_solve,
)
from nsexpand.fieldpoly import DEGREE_CAP


def const_field(c2=1.0):
    return SpectralField({(1, 1, 0): [c2, -c2, 0.5 * c2]})


# -- polynomial basics -----------------------------------------------------------


def test_trailing_zero_trim_and_degree():
    a = const_field()
    p = FieldPolynomial([a, SpectralField.zero(), SpectralField.zero()])
    assert p.degree == 0
    assert FieldPolynomial.zero().degree == -math.inf
    assert FieldPolynomial.zero().is_zero
    assert FieldPolynomial([a, a]).degree == 1


def test_eval_examples():
    a = const_field()
    assert FieldPolynomial.constant(a)(137.5) == a
    p = FieldPolynomial([a, 3.0 * a])
    assert p(0.0) == a
    # a + 2a t at t = 3 evaluates to 7a
    q = FieldPolynomial([a, 2.0 * a])
    assert q(3.0).allclose(7.0 * a, rtol=1e-15)


def test_derivative_examples():
    a = const_field()
    assert FieldPolynomial.constant(a).derivative().is_zero
    p = FieldPolynomial([a, 2.0 * a])
    assert p.derivative() == FieldPolynomial.constant(2.0 * a)
    t2 = FieldPolynomial([SpectralField.zero(), SpectralField.zero(), a])
    assert t2.derivative() == FieldPolynomial([SpectralField.zero(), 2.0 * a])


def test_algebra():
    a, b = const_field(), const_field(0.25)
    p = FieldPolynomial([a, b])
    q = FieldPolynomial([b])
    assert (p + q).coeff(0) == a + b
    assert (p - p).is_zero
    assert (2.0 * p).coeff(1) == 2.0 * b
    assert p.coeff(5).is_zero


def test_degree_cap():
    a = const_field()
    FieldPolynomial([a] * (DEGREE_CAP + 1))  # degree 64 is still allowed
    with pytest.raises(DegreeCapError):
        FieldPolynomial([a] * (DEGREE_CAP + 2))


def test_coefficients_must_be_fields():
    with pytest.raises(TypeError):
        FieldPolynomial([1.0])


# -- Cauchy product under the advection form ----------------------------------------


def test_poly_bilinear_zero_and_constant_cases():
    u = random_div_free_field(np.random.default_rng(1), 2, 4)
    v = random_div_free_field(np.random.default_rng(2), 2, 4)
    p = FieldPolynomial.constant(u)
    assert poly_bilinear(p, FieldPolynomial.zero()).is_zero
    got = poly_bilinear(p, FieldPolynomial.constant(v))
    assert got.degree <= 0
    assert got.coeff(0).allclose(bilinear(u, v), rtol=1e-14)


def test_poly_bilinear_square_of_linear():
    # (u + u t) with itself gives B(u,u) (1 + 2t + t^2)
    u = random_div_free_field(np.random.default_rng(3), 2, 4)
    p = FieldPolynomial([u, u])
    got = poly_bilinear(p, p)
    buu = bilinear(u, u)
    assert got.coeff(0).allclose(buu, rtol=1e-13)
    assert got.coeff(1).allclose(2.0 * buu, rtol=1e-13)
    assert got.coeff(2).allclose(buu, rtol=1e-13)
    assert got.degree == 2


def test_poly_bilinear_pointwise_agreement():
    rng = np.random.default_rng(5)
    p = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(3)])
    q = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(2)])
    prod = poly_bilinear(p, q)
    for t in rng.uniform(-2.0, 2.0, 5):
        direct = bilinear(p(float(t)), q(float(t)))
        assert prod(float(t)).allclose(direct, rtol=1e-10, atol=1e-14)


def test_poly_bilinear_rejects_non_divergence_free():
    bad = FieldPolynomial.constant(SpectralField({(1, 1, 0): [1, 0, 0]}))
    good = FieldPolynomial.constant(const_field())
    with pytest.raises(ValueError, match="divergence-free"):
        poly_bilinear(bad, good)


# -- resolvent solve -------------------------------------------------------------------


def test_resolvent_frozen_examples():
    a = const_field()
    # beta = 1, p = a t  ->  q = a (t - 1)
    p = FieldPolynomial([SpectralField.zero(), a])
    q = resolvent_solve(p, 1.0)
    assert q.coeff(0).allclose(-1.0 * a, rtol=1e-15)
    assert q.coeff(1).allclose(a, rtol=1e-15)
    # beta = -1, p = a  ->  q = -a
    q = resolvent_solve(FieldPolynomial.constant(a), -1.0)
    assert q == FieldPolynomial.constant(-1.0 * a)
    # beta = 0, p = a  ->  q = a t, zero constant term
    q = resolvent_solve(FieldPolynomial.constant(a), 0.0)
    assert q.coeff(0).is_zero
    assert q.coeff(1).allclose(a, rtol=1e-15)


def residual_scale(q, beta, p):
    r = q.derivative() + beta * q - p
    scale = max(q.max_abs(), p.max_abs(), 1e-30)
    return r.max_abs() / scale


@pytest.mark.parametrize("beta", [-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
def test_resolvent_exactness_nonzero_beta(beta):
    rng = np.random.default_rng(int(10 * abs(beta)) + 7)
    for deg in (0, 2, 6):
        p = FieldPolynomial([random_div_free_field(rng, 2, 3) for _ in range(deg + 1)])
        q = resolvent_solve(p, beta)
        assert q.degree == p.degree
        assert residual_scale(q, beta, p) <= 1e-12


def test_resolvent_exactness_beta_zero():
    rng = np.random.default_rng(29)
    for deg in (0, 3, 6):
        p = FieldPolynomial([random_div_free_field(rng, 2, 3) for _ in range(deg + 1)])
        q = resolvent_solve(p, 0.0)
        assert q.degree == p.degree + 1
        assert residual_scale(q, 0.0, p) <= 1e-12
        assert q.coeff(0).is_zero


@pytest.mark.parametrize("beta", [-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
def test_resolvent_matches_linear_system_oracle(beta):
    rng = np.random.default_rng(31)
    p = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(5)])
    got = resolvent_solve(p, beta)
    ref = resolvent_oracle(p, beta)
    scale = max(got.max_abs(), 1e-30)
    for j in range(len(p.coeffs())):
        assert (got.coeff(j) - ref.coeff(j)).max_abs() <= 1e-12 * scale


def test_resolvent_degree_cap_via_bump():
    a = const_field()
    p = FieldPolynomial([a] * (DEGREE_CAP + 1))  # degree 64
    with pytest.raises(DegreeCapError):
        resolvent_solve(p, 0.0)  # bump would reach 65


# -- terms and assembly -------------------------------------------------------------------


def test_expansion_term_validation():
    # one decay level is a plain (n, q_n) pair, and `assemble` evaluates the pair
    term = (2, FieldPolynomial.constant(const_field()))
    assert assemble([term], 0.0) == const_field()
    assert assemble([term], 1.0).allclose(math.exp(-2.0) * const_field(), rtol=1e-15)


def test_assemble_examples():
    assert assemble([], 3.0).is_zero
    q1 = const_field()
    q2 = const_field(-0.5)
    terms = [(1, FieldPolynomial.constant(q1)), (2, FieldPolynomial.constant(q2))]
    assert assemble(terms[:1], 0.0) == q1
    t = math.log(2.0)
    expect = 0.5 * q1 + 0.25 * q2
    assert assemble(terms, t).allclose(expect, rtol=1e-14)
