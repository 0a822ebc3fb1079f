"""Level recursion: sources, resonant branches, residual bookkeeping, plans."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    finite_approximation_plan,
    ladder_force,
    ladder_phi,
    random_div_free_field,
    small_fields,
)
from nsexpand import (
    FieldPolynomial,
    ForceExpansion,
    SpectralField,
    bilinear,
    build_expansion,
    eigenvalue,
    leray_project,
    level_support,
    poly_bilinear,
)
from nsexpand.expansion import (
    _stokes_shift,
    check_resonant_data,
    expansion_residual,
    level_source,
    solve_level,
)


def two_mode_unit_field():
    # Divergence-free, supported on two |k|^2 = 1 modes so its self-interaction
    # is nonzero (a single mode always self-advects to zero).
    return SpectralField({(1, 0, 0): [0, 0.25, 0.25j], (0, 1, 0): [0.5, 0, -0.125]})


# -- ForceExpansion ---------------------------------------------------------------


def test_force_levels_must_increase():
    p = FieldPolynomial.constant(ladder_phi())
    with pytest.raises(ValueError, match="strictly increasing"):
        ForceExpansion(((2, p), (2, p)))
    with pytest.raises(ValueError, match="positive integer"):
        ForceExpansion(((0, p),))


def test_force_coefficients_must_be_divergence_free():
    bad = FieldPolynomial.constant(SpectralField({(1, 1, 0): [1, 0, 0]}))
    with pytest.raises(ValueError, match="divergence"):
        ForceExpansion(((1, bad),))


def test_force_level_lookup():
    p1 = FieldPolynomial.constant(two_mode_unit_field())
    p3 = FieldPolynomial.constant(ladder_phi())
    force = ForceExpansion(((1, p1), (3, p3)))
    assert force.level(1) == p1
    assert force.level(2).is_zero
    # the union of the levels' supports, in key order; the ladder modes sit on |k|^2 = 2
    assert level_support(force.terms).tolist() == [[0, 1, 0], [1, 0, 0], [1, 0, 1], [1, 1, 0]]


# -- resonant data validation ------------------------------------------------------


def test_check_resonant_data_accepts_on_eigenspace():
    xi = two_mode_unit_field()
    out = check_resonant_data({1: xi})
    assert out[1] == xi
    assert check_resonant_data(None) == {}


def test_check_resonant_data_rejects_off_eigenspace():
    with pytest.raises(ValueError, match=r"\|k\|\^2 = 2"):
        check_resonant_data({1: ladder_phi()})


def test_check_resonant_data_rejects_gap_eigenvalue():
    # No lattice mode satisfies |k|^2 = 7, so any nonzero constant is off-space.
    with pytest.raises(ValueError, match="off the eigenspace"):
        check_resonant_data({7: ladder_phi()})


def test_check_resonant_data_names_the_level_of_a_compressible_constant():
    # on the |k|^2 = 2 eigenspace but parallel to its wavevector: the message names the level,
    # as the support error does, so a fitted constant that fails is traced to its level
    bad = SpectralField({(1, 1, 0): [1.0, 1.0, 0.0]})
    with pytest.raises(ValueError, match=r"^resonant constant for level 2: field is not divergence-free"):
        check_resonant_data({2: bad})


def test_check_resonant_data_type_and_range():
    with pytest.raises(TypeError):
        check_resonant_data({1: [1, 2, 3]})
    with pytest.raises(ValueError, match="positive"):
        check_resonant_data({0: SpectralField.zero()})


# -- single-level solves ------------------------------------------------------------


def test_level_one_constant_force_off_resonance():
    # f_1 = phi on |k|^2 = 2: the level-1 block has beta = 2 - 1 = 1, so q_1 = phi.
    phi = ladder_phi()
    force = ForceExpansion(((1, FieldPolynomial.constant(phi)),))
    result = build_expansion(force, 1)
    assert result.polynomial(1) == FieldPolynomial.constant(phi)
    assert result.resonance_log == ()
    assert result.max_residual() == 0.0


def test_level_one_resonant_default_grows_linearly():
    # Force on the resonant eigenspace with no supplied constant: the default
    # free constant is zero, so q_1 = f t and the log records the branch.
    f = two_mode_unit_field()
    force = ForceExpansion(((1, FieldPolynomial.constant(f)),))
    result = build_expansion(force, 1)
    q1 = result.polynomial(1)
    assert q1.coeffs()[0].is_zero
    assert q1.coeffs()[1] == f
    assert result.resonance_log == ((1, 1),)


def test_zero_force_zero_expansion():
    result = build_expansion(ForceExpansion(()), 3)
    assert all(q.is_zero for _, q in result.terms)
    assert result.max_residual() == 0.0
    assert result.resonance_log == ()


def test_solve_level_reports_resonant_hit():
    p = FieldPolynomial.constant(two_mode_unit_field())
    q, hit = solve_level(p, 1)
    assert hit
    assert q == FieldPolynomial([SpectralField.zero(), two_mode_unit_field()])
    q, hit = solve_level(p, 3)
    assert not hit
    assert solve_level(FieldPolynomial.zero(), 1) == (FieldPolynomial.zero(), False)


def test_supplied_constant_adds_to_the_zero_constant_level():
    # f_1 = phi lives on |k|^2 = 2, so level 1's resonant block |k|^2 = 1 has
    # no source; f_2 drives level 2's resonant block |k|^2 = 2.
    phi = ladder_phi()
    force = ForceExpansion(
        ((1, FieldPolynomial.constant(phi)), (2, FieldPolynomial([phi, phi * 0.5])))
    )
    on_2 = leray_project(SpectralField({(1, 1, 0): [0.2, 0.1, 0.3j], (0, 1, -1): [0.1, 0, 0.2]}))
    cases = (  # (level, constant, logged as a resonant hit)
        (2, on_2, True),
        (1, two_mode_unit_field(), True),
        (1, SpectralField.zero(), False),
    )
    for n, xi, hit in cases:
        result = build_expansion(force, n, {n: xi})
        p = level_source(result.terms[: n - 1], force, n)
        assert result.polynomial(n) == solve_level(p, n)[0] + FieldPolynomial.constant(xi)
        assert result.resonance_log == (((n, n),) if hit else ())
    assert solve_level(force.level(1), 1) == (FieldPolynomial.constant(phi), False)


# -- manufactured two-level expansion ---------------------------------------------


def test_manufactured_steady_profile():
    # Pick q on |k|^2 = 1 and force the system with f_2 = B~(q, q), xi_1 = q.
    # Then q_1 = q and level 2 cancels identically.
    q = two_mode_unit_field()
    f2 = poly_bilinear(FieldPolynomial.constant(q), FieldPolynomial.constant(q))
    assert not f2.is_zero
    force = ForceExpansion(((2, f2),))
    result = build_expansion(force, 2, resonant={1: q})
    assert result.polynomial(1) == FieldPolynomial.constant(q)
    assert result.polynomial(2).is_zero
    assert result.residuals[1] == 0.0
    assert result.residuals[2] == 0.0
    assert result.resonance_log == ((1, 1),)


def test_level_source_composition():
    q = two_mode_unit_field()
    f2 = poly_bilinear(FieldPolynomial.constant(q), FieldPolynomial.constant(q))
    force = ForceExpansion(((2, f2),))
    terms = [(1, FieldPolynomial.constant(q))]
    assert level_source([], force, 1).is_zero
    p2 = level_source(terms, force, 2)
    assert p2.is_zero  # f_2 - B~(q_1, q_1) cancels exactly


def test_expansion_is_linear_in_free_constant():
    f = two_mode_unit_field()
    force = ForceExpansion(((1, FieldPolynomial.constant(f)),))
    xi_a = two_mode_unit_field()
    xi_b = -0.5 * two_mode_unit_field()
    qa = build_expansion(force, 1, resonant={1: xi_a}).polynomial(1)
    qb = build_expansion(force, 1, resonant={1: xi_b}).polynomial(1)
    assert qa - qb == FieldPolynomial.constant(xi_a - xi_b)


# -- residual checker ---------------------------------------------------------------


def test_expansion_residual_detects_perturbation():
    phi = ladder_phi()
    force = ForceExpansion(((1, FieldPolynomial.constant(phi)),))
    result = build_expansion(force, 1)
    good = expansion_residual(result.terms, force, 1)
    assert good <= 1e-15
    tampered = [(1, 1.0001 * result.polynomial(1))]
    assert expansion_residual(tampered, force, 1) >= 5e-5


def test_expansion_residual_zero_scale():
    assert expansion_residual([], ForceExpansion(()), 1) == 0.0


@given(small_fields, st.integers(0, 5))
@example(SpectralField({(1, 0, 0): [-0.0, 0.5, -1j], (1, 1, 0): [0.25j, 0.0, -0.5]}), 1)
@example(SpectralField({(1, 0, 0): [-0.5, 0.5j, 0.0], (1, 1, 0): [-0.0, 0.5, -1j]}), 4)
def test_stokes_shift_equals_the_per_mode_constructor(c, n):
    # one row-scaled array against one SpectralField built mode by mode: the |k|^2 = n rows
    # drop and every other row is scaled by its single float |k|^2 - n, signed zeros included
    got = _stokes_shift(c, n)
    want = SpectralField({k: v * float(eigenvalue(k) - n) for k, v in c.modes()})
    assert got.support() == want.support()
    assert got._c.tobytes() == want._c.tobytes()


# -- ladder structure ----------------------------------------------------------------


def test_ladder_support_closure():
    # Ladder generators have even coordinate sums, so no level can ever reach
    # the |k|^2 = 1 eigenspace; level 2 self-interaction does hit |k|^2 = 2.
    result = build_expansion(ladder_force(), 3)
    assert result.polynomial(1) == FieldPolynomial.constant(ladder_phi())
    lams_by_level = {}
    for n, q in result.terms:
        lams = set()
        for c in q.coeffs():
            lams.update(eigenvalue(k) for k in c.support())
        lams_by_level[n] = lams
    assert all(1 not in lams for lams in lams_by_level.values())
    assert 2 in lams_by_level[2]
    assert result.resonance_log == ((2, 2),)


def test_ladder_degrees():
    # Resonant level 2 picks up one power of t; level 3 inherits it.
    result = build_expansion(ladder_force(), 3)
    assert result.polynomial(1).degree == 0
    assert result.polynomial(2).degree == 1
    assert result.polynomial(3).degree >= 1


# -- approximation plans ---------------------------------------------------------------


def test_plan_example():
    assert finite_approximation_plan(2.0, 2.0, 3) == [
        (1, 2.0, 2.0),
        (2, 1.5, 1.5),
        (3, 1.0, 1.0),
    ]


def test_plan_single_level():
    assert finite_approximation_plan(0.5, 1.0, 1) == [(1, 0.5, 1.0)]


def test_plan_rejects_violations():
    with pytest.raises(ValueError, match="alpha_\\* >= n_levels/2"):
        finite_approximation_plan(1.0, 2.0, 3)
    with pytest.raises(ValueError, match="mu_\\* >= alpha_\\*"):
        finite_approximation_plan(2.0, 1.0, 2)
    with pytest.raises(ValueError, match="n_levels"):
        finite_approximation_plan(2.0, 2.0, 0)


def test_build_expansion_levels_validation():
    with pytest.raises(ValueError):
        build_expansion(ForceExpansion(()), -1)
    assert build_expansion(ForceExpansion(()), 0).terms == ()


def test_random_force_residuals_close():
    # Mixed-level random forces: construction must satisfy its own equations.
    rng = np.random.default_rng(41)
    force = ForceExpansion(
        (
            (1, FieldPolynomial([random_div_free_field(rng, 2, 3)])),
            (2, FieldPolynomial(
                [random_div_free_field(rng, 2, 3), random_div_free_field(rng, 2, 2)]
            )),
        )
    )
    result = build_expansion(force, 3)
    assert result.max_residual() <= 1e-12
