"""Field-valued time polynomials and the exact resolvent solve."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_POOL,
    assert_fields_close,
    levels_at,
    random_div_free_field,
    resolvent_oracle,
    small_fields,
)
from nsexpand import FieldPolynomial, SpectralField, assemble, bilinear, poly_bilinear
from nsexpand.fieldpoly import DEGREE_CAP, DegreeCapError, resolvent_solve
from nsexpand.serialize import dumps_json


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
    # levels_at at rate 0 is the bare polynomial, by Horner's rule
    assert levels_at([(0, FieldPolynomial.constant(a))], 137.5) == a
    p = FieldPolynomial([a, 3.0 * a])
    assert levels_at([(0, p)], 0.0) == a
    # a + 2a t at t = 3 evaluates to 7a
    q = FieldPolynomial([a, 2.0 * a])
    assert_fields_close(levels_at([(0, q)], 3.0), 7.0 * a, rtol=1e-15)


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
    assert (p + q).coeffs()[0] == a + b
    assert (p - p).is_zero
    assert (2.0 * p).coeffs()[1] == 2.0 * b
    assert p.coeffs() == (a, b)


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
    assert_fields_close(got.coeffs()[0], bilinear(u, v), rtol=1e-14)


def test_poly_bilinear_square_of_linear():
    # (u + u t) with itself gives B(u,u) (1 + 2t + t^2)
    u = random_div_free_field(np.random.default_rng(3), 2, 4)
    p = FieldPolynomial([u, u])
    got = poly_bilinear(p, p)
    buu = bilinear(u, u)
    assert_fields_close(got.coeffs()[0], buu, rtol=1e-13)
    assert_fields_close(got.coeffs()[1], 2.0 * buu, rtol=1e-13)
    assert_fields_close(got.coeffs()[2], buu, rtol=1e-13)
    assert got.degree == 2


def test_poly_bilinear_pointwise_agreement():
    rng = np.random.default_rng(5)
    p = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(3)])
    q = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(2)])
    prod = poly_bilinear(p, q)
    for t in rng.uniform(-2.0, 2.0, 5):
        direct = bilinear(levels_at([(0, p)], float(t)), levels_at([(0, q)], float(t)))
        assert_fields_close(levels_at([(0, prod)], float(t)), direct, rtol=1e-10, atol=1e-14)


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
    assert_fields_close(q.coeffs()[0], -1.0 * a, rtol=1e-15)
    assert_fields_close(q.coeffs()[1], a, rtol=1e-15)
    # beta = -1, p = a  ->  q = -a
    q = resolvent_solve(FieldPolynomial.constant(a), -1.0)
    assert q == FieldPolynomial.constant(-1.0 * a)
    # beta = 0, p = a  ->  q = a t, zero constant term
    q = resolvent_solve(FieldPolynomial.constant(a), 0.0)
    assert q.coeffs()[0].is_zero
    assert_fields_close(q.coeffs()[1], a, rtol=1e-15)


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
        assert q.coeffs()[0].is_zero


@pytest.mark.parametrize("beta", [-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
def test_resolvent_matches_linear_system_oracle(beta):
    rng = np.random.default_rng(31)
    p = FieldPolynomial([random_div_free_field(rng, 2, 4) for _ in range(5)])
    got = resolvent_solve(p, beta)
    ref = resolvent_oracle(p, beta)
    scale = max(got.max_abs(), 1e-30)
    assert (got - ref).max_abs() <= 1e-12 * scale


def test_resolvent_degree_cap_via_bump():
    a = const_field()
    p = FieldPolynomial([a] * (DEGREE_CAP + 1))  # degree 64
    with pytest.raises(DegreeCapError):
        resolvent_solve(p, 0.0)  # bump would reach 65


# -- terms and assembly -------------------------------------------------------------------


def test_expansion_term_validation():
    # one decay level is a plain (n, q_n) pair, and `assemble` evaluates the pair
    term = (2, FieldPolynomial.constant(const_field()))
    block = assemble([term], np.array([[1, 1, 0]]), [0.0, 1.0])
    assert block.shape == (2, 1, 3)
    held = const_field()._rows(np.array([(1, 1, 0)]))[0]
    assert block[0, 0].tolist() == held.tolist()
    want = math.exp(-2.0) * held
    assert np.allclose(block[1, 0], want, rtol=1e-15, atol=0.0)


def test_assemble_examples():
    modes = np.array([[1, 0, 0], [1, 1, 0]])   # (1, 0, 0) is held by no level
    assert assemble([], modes, [3.0]).tolist() == np.zeros((1, 2, 3)).tolist()
    assert assemble([], modes[:0], []).shape == (0, 0, 3)
    q1 = const_field()
    q2 = const_field(-0.5)
    terms = [(1, FieldPolynomial.constant(q1)), (2, FieldPolynomial.constant(q2))]
    held = q1._rows(np.array([(1, 1, 0)]))[0].tolist()
    assert assemble(terms[:1], modes, [0.0])[0].tolist() == [[0, 0, 0], held]
    t = math.log(2.0)
    expect = (0.5 * q1 + 0.25 * q2)._rows(np.array([(1, 1, 0)]))[0]
    assert np.allclose(assemble(terms, modes, [t])[0, 1], expect, rtol=1e-14, atol=0)


_levels = st.dictionaries(st.integers(1, 4), st.lists(small_fields, max_size=3), max_size=3).map(
    lambda d: [(n, FieldPolynomial(d[n])) for n in sorted(d)]
)
# (3, 0, 0) and (0, 2, 1) lie outside the pool: modes that no level holds
_modes = st.sets(st.sampled_from(FIELD_POOL + [(3, 0, 0), (0, 2, 1)])).map(
    lambda ks: np.array(sorted(ks), dtype=np.int64).reshape(-1, 3)
)
# t = 0, times where e^{-n t} underflows to zero, and 0.07 and 0.12, where numpy's exp
# rounds e^{-t} and e^{-2t} differently from math.exp
_times = st.lists(
    st.one_of(st.sampled_from([0.0, 0.07, 0.12, 200.0, 800.0]), st.floats(0.0, 60.0)), max_size=4
)
# q_1 = c_0 + c_1 t, where only c_1 holds (1, 0, 0) and its x component has a -0.0 real part:
# field arithmetic keeps that signed zero, a plain c_1 t + 0 would not
_SIGNED_ZERO = [(1, FieldPolynomial([SpectralField({(0, 1, 0): [1.0, 0, 0]}),
                                     SpectralField({(1, 0, 0): [complex(-0.0, 1.0), 2.0, 0]})]))]


@settings(max_examples=150)
@example([], np.array([[1, 0, 0]]), [0.0, 1.0])
@example(_SIGNED_ZERO, np.array([[0, 1, 0], [1, 0, 0]]), [0.0, 0.07])
@given(_levels, _modes, _times)
def test_assemble_equals_per_time_field_arithmetic(terms, modes, times):
    block = assemble(terms, modes, times)
    fields = [levels_at(terms, t) for t in times]
    want = np.array([f._rows(modes) for f in fields], dtype=np.complex128)
    # compared as text: every bit, signed zeros included
    got, want = (dumps_json(x.view(float).tolist()) for x in (block, want.reshape(block.shape)))
    assert got == want
