"""Truncated integrating-factor RK4 solver and its dealiased advection kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_fields_close,
    eval_physical,
    ladder_force,
    ladder_phi,
    random_div_free_field,
)
from nsexpand import (
    BlowupError,
    FieldPolynomial,
    ForceExpansion,
    SolverConfig,
    SpectralField,
    Trajectory,
    bilinear,
    energy_ledger,
    evaluate_force,
    inner,
    integrate,
    leray_project,
    norm,
    truncate,
)
from nsexpand.galerkin import ModeTable


def single_mode(scale=1.0):
    # c perpendicular to k = (1, 0, 0): pure heat mode, self-advection vanishes.
    return SpectralField({(1, 0, 0): [0, scale, 0]})


# -- configuration -----------------------------------------------------------------


def test_solver_config_validation():
    SolverConfig(4, 0.5, 1.0)
    with pytest.raises(ValueError, match="mode_cutoff"):
        SolverConfig(0, 0.1, 1.0)
    with pytest.raises(ValueError, match="step"):
        SolverConfig(4, 0.6, 1.0)
    with pytest.raises(ValueError, match="step"):
        SolverConfig(4, 0.0, 1.0)
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(4, 0.1, 0.0)
    with pytest.raises(ValueError, match="shorter than one step"):
        SolverConfig(4, 0.01, 0.004)  # round(t_end / step) = 0 steps
    with pytest.raises(ValueError, match="shorter than one step"):
        SolverConfig(4, 0.01, 0.005)  # round half to even: still 0 steps
    assert SolverConfig(4, 0.01, 0.006).t_end == 0.006  # rounds to one step
    with pytest.raises(ValueError, match="sample_stride"):
        SolverConfig(4, 0.1, 1.0, 0)


def test_trajectory_length_mismatch():
    cfg = SolverConfig(4, 0.1, 1.0)
    with pytest.raises(ValueError):
        Trajectory.from_states(np.array([0.0, 0.1]), (SpectralField.zero(),), cfg)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), np.zeros((1, 3), np.int64), np.zeros((1, 1, 3)), cfg)


# -- mode table ---------------------------------------------------------------------


def test_mode_table_cutoff_one():
    table = ModeTable(1)
    assert table.reps == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert table.size == 3


def test_densify_round_trip_and_strictness():
    # densify is P_M and drops what lies outside the ball; integrate refuses
    # an initial state or a force level that would lose modes that way.
    table = ModeTable(4)
    u = SpectralField({(1, 0, 0): [0, 1j, 2], (1, 1, 0): [0.5, -0.5, 3]})
    dense = table.densify(u)
    assert table.to_field(dense) == u
    far = SpectralField({(3, 0, 0): [0, 1, 0]})
    assert not np.any(table.densify(far))
    cfg = SolverConfig(4, 0.01, 1.0)
    with pytest.raises(ValueError, match="reaches eigenvalue 9 beyond mode_cutoff 4"):
        integrate(single_mode() + far, ForceExpansion(()), cfg)
    force = ForceExpansion(((2, FieldPolynomial([single_mode(), far])),))
    with pytest.raises(ValueError, match="reaches eigenvalue 9 beyond mode_cutoff 4"):
        integrate(single_mode(), force, cfg)


def ball_field(rng, table, picks):
    """Divergence-free field with random coefficients on the given rows of a mode table."""
    coeffs = {
        table.reps[i]: rng.standard_normal(3) + 1j * rng.standard_normal(3) for i in picks
    }
    return leray_project(SpectralField(coeffs))


def reachable_rows(table, u):
    """Representatives of the table that some pair of live full modes m + l equals."""
    sums = {
        (m[0] + l[0], m[1] + l[1], m[2] + l[2])
        for m, _ in u.full_modes()
        for l, _ in u.full_modes()
    }
    return {k for k in table.reps if k in sums or (-k[0], -k[1], -k[2]) in sums}


def product_bound(table, u):
    """sqrt(M) (sum|c_u|)^2: bounds every coefficient of B(u, u) on the ball."""
    mu = sum(float(np.abs(c).sum()) for _, c in u.full_modes())
    return math.sqrt(table.cutoff) * mu * mu


# Grids n = 3 floor(sqrt(M)) + 1: 4, 4, 7, 7, 7, 10, 13 and 19 points per axis.
@pytest.mark.parametrize("cutoff", [1, 2, 4, 6, 8, 12, 24, 48])
def test_convolve_matches_projected_truncated_product(cutoff):
    rng = np.random.default_rng(cutoff)
    table = ModeTable(cutoff)
    for n_modes in (min(table.size, 12), table.size):
        u = ball_field(rng, table, rng.choice(table.size, n_modes, replace=False))
        want = truncate(bilinear(u, u), cutoff)
        assert_fields_close(table.to_field(table.convolve(table.densify(u))), want, atol=1e-15)


@pytest.mark.parametrize("cutoff", [6, 12, 48])
def test_grid_transforms_invert_each_other_on_the_ball(cutoff):
    # The pruned forward and inverse DFT matrices are mutual inverses on the ball.
    table = ModeTable(cutoff)
    rng = np.random.default_rng(cutoff)
    coeffs = table.densify(ball_field(rng, table, range(table.size))).T
    back = table._from_grid(table._to_grid(coeffs))
    assert np.abs(back - coeffs).max() <= 1e-14 * np.abs(coeffs).max()


@settings(max_examples=60)
@given(cutoff=st.integers(2, 24), seed=st.integers(0, 2**32 - 1), n_u=st.integers(1, 16))
def test_convolve_properties_on_random_supports(cutoff, seed, n_u):
    table = ModeTable(cutoff)
    rng = np.random.default_rng(seed)
    u = ball_field(rng, table, rng.choice(table.size, min(n_u, table.size), replace=False))
    got = table.to_field(table.convolve(table.densify(u)))
    want = truncate(bilinear(u, u), cutoff)
    floor = 1e-14 * product_bound(table, u)   # rounding level of any output coefficient

    assert_fields_close(got, want, rtol=1e-12, atol=floor)
    # exact zeros off the pairs' reach; elsewhere the supports differ only
    # where the exact sum cancels to rounding
    assert set(got.support()) <= reachable_rows(table, u)
    for k in set(got.support()) ^ set(want.support()):
        assert max(np.abs(got.coeff(k)).max(), np.abs(want.coeff(k)).max()) <= floor
    assert abs(inner(got, u)) <= floor * norm(u)


def test_convolve_cutoff_one_is_zero():
    # No sum of two modes with |k|^2 = 1 lies in the ball again.
    table = ModeTable(1)
    du = table.densify(SpectralField({(1, 0, 0): [0, 0.3, 0.1j], (0, 1, 0): [0.2, 0, -0.4]}))
    out = table.convolve(du)
    assert out.shape == (3, 3)
    assert not out.any()


def test_convolve_keeps_even_sublattice_exactly():
    # Modes with an even coordinate sum are closed under addition, so the
    # ladder force (on (1,1,0) and (1,0,1)) and its products never reach an
    # odd row: those rows must be exact zeros, not rounding noise.
    table = ModeTable(24)
    odd = np.array([sum(k) % 2 == 1 for k in table.reps])
    rng = np.random.default_rng(3)
    phi = table.densify(ladder_phi())
    picks = rng.choice(np.nonzero(~odd)[0], 10, replace=False)
    for du in (phi, table.densify(ball_field(rng, table, picks))):
        out = table.convolve(du)
        assert np.any(out)
        assert not np.any(out[odd])


def test_ladder_trajectory_stays_on_even_sublattice():
    traj = integrate(SpectralField.zero(), ladder_force(), SolverConfig(12, 0.01, 0.5, 10))
    assert traj.state(-1).n_modes > 2
    # the block's modes are the union of every sample's support
    assert all(sum(k) % 2 == 0 for k in traj.modes.tolist())


# -- force evaluation ----------------------------------------------------------------


def test_evaluate_force_levels_and_remainder():
    a = single_mode(1.0)
    b0 = single_mode(2.0)
    b1 = single_mode(-0.5)
    force = ForceExpansion(((1, FieldPolynomial.constant(a)), (2, FieldPolynomial([b0, b1]))))
    t = 0.7
    want = math.exp(-t) * a + math.exp(-2 * t) * (b0 + t * b1)
    modes = np.array([[1, 0, 0]])
    block = evaluate_force(force, modes, [0.0, t])
    assert block.shape == (2, 1, 3)
    assert_fields_close(SpectralField(zip(modes.tolist(), block[1])), want, rtol=1e-14)
    assert block[0, 0].tolist() == (a + b0).coeff((1, 0, 0)).tolist()


# -- exactness on the pure heat flow ---------------------------------------------------


def test_heat_decay_is_exact():
    # One conjugate pair, no force: the nonlinear term vanishes identically and
    # the integrating factor reproduces e^{-t} u0 to rounding.
    u0 = single_mode(0.8)
    cfg = SolverConfig(4, 0.02, 2.0, sample_stride=25)
    traj = integrate(u0, ForceExpansion(()), cfg)
    assert list(traj.times) == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    for i, t in enumerate(traj.times):
        assert_fields_close(traj.state(i), math.exp(-float(t)) * u0, rtol=1e-12)


def test_sample_times_follow_stride():
    cfg = SolverConfig(4, 0.01, 0.2, sample_stride=5)
    traj = integrate(single_mode(), ForceExpansion(()), cfg)
    assert np.allclose(traj.times, [0.0, 0.05, 0.10, 0.15, 0.20])
    assert traj.spacing == pytest.approx(0.05)
    assert traj.t_end == pytest.approx(0.2)


# -- convergence order ----------------------------------------------------------------


def test_rk4_fourth_order_on_nonlinear_flow():
    rng = np.random.default_rng(17)
    u0 = 0.4 * random_div_free_field(rng, 1, 4)
    force = ladder_force()

    def final_state(h):
        cfg = SolverConfig(6, h, 1.0, sample_stride=int(round(1.0 / h)))
        return integrate(u0, force, cfg).state(-1)

    ref = final_state(1.0 / 320)
    errs = [norm(final_state(h) - ref) for h in (0.05, 0.025)]
    order = math.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.5


# -- structure along trajectories -------------------------------------------------------


def test_trajectory_stays_divergence_free_and_real():
    rng = np.random.default_rng(23)
    u0 = 0.3 * random_div_free_field(rng, 1, 4)
    cfg = SolverConfig(6, 0.01, 2.0, sample_stride=50)
    traj = integrate(u0, ladder_force(), cfg)
    xs = rng.uniform(0.0, 2 * math.pi, (3, 3))
    for state in map(traj.state, range(len(traj))):
        assert state.divergence_defect() <= 1e-11 * max(state.max_abs(), 1e-30)
        for x in xs:
            value = eval_physical(state, x)
            assert np.max(np.abs(value.imag)) <= 1e-11 * max(norm(state), 1e-30)


def test_blowup_guard_trips():
    u0 = single_mode(1.5e6)  # norm ~ 2.1e6, still above 1e6 after one decay step
    cfg = SolverConfig(4, 0.01, 1.0)
    with pytest.raises(BlowupError) as err:
        integrate(u0, ForceExpansion(()), cfg)
    assert err.value.t == pytest.approx(0.01)
    assert err.value.value > 1e6


# -- input validation --------------------------------------------------------------------


def test_integrate_rejects_out_of_ball_force():
    force = ForceExpansion(
        ((1, FieldPolynomial.constant(SpectralField({(3, 0, 0): [0, 1, 0]}))),)
    )
    with pytest.raises(ValueError, match="beyond mode_cutoff"):
        integrate(single_mode(), force, SolverConfig(4, 0.01, 1.0))


def test_integrate_rejects_compressible_initial_state():
    bad = SpectralField({(1, 1, 0): [1, 0, 0]})
    with pytest.raises(ValueError, match="divergence"):
        integrate(bad, ForceExpansion(()), SolverConfig(4, 0.01, 1.0))


def test_integrate_rejects_subsample_horizon():
    # The config refuses a horizon under one step, so no such run reaches integrate.
    with pytest.raises(ValueError, match="shorter than one step"):
        integrate(single_mode(), ForceExpansion(()), SolverConfig(4, 0.01, 0.004))


def test_integration_is_deterministic():
    rng = np.random.default_rng(5)
    u0 = 0.3 * random_div_free_field(rng, 1, 4)
    cfg = SolverConfig(6, 0.01, 1.0, sample_stride=20)
    a = integrate(u0, ladder_force(), cfg)
    b = integrate(u0, ladder_force(), cfg)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.coeffs, b.coeffs)


# -- energy ledger -------------------------------------------------------------------------


def test_energy_ledger_matches_closed_form_on_heat_flow():
    # Fabricate the exact solution u(t) = u0 e^{-t} on a coarse grid; the ledger
    # must then equal the closed-form trapezoid defect of the energy balance.
    u0 = single_mode(0.8)
    n0 = norm(u0)
    cfg = SolverConfig(4, 0.1, 1.0, sample_stride=2)
    times = np.arange(0.0, 1.01, 0.2)
    states = tuple(math.exp(-float(t)) * u0 for t in times)
    traj = Trajectory.from_states(times, states, cfg)
    defects = energy_ledger(traj, ForceExpansion(()))
    for i, d in enumerate(defects):
        a, b = times[i], times[i + 1]
        exact = n0 ** 2 * (
            0.5 * (math.exp(-2 * b) - math.exp(-2 * a))
            + 0.5 * (b - a) * (math.exp(-2 * a) + math.exp(-2 * b))
        )
        assert d == pytest.approx(exact, rel=1e-12)


def test_energy_ledger_small_on_computed_trajectory():
    u0 = single_mode(0.8)
    cfg = SolverConfig(4, 0.01, 1.0, sample_stride=10)
    traj = integrate(u0, ForceExpansion(()), cfg)
    defects = energy_ledger(traj, ForceExpansion(()))
    # trapezoid error bound per interval: dt^3/12 * max|d^2/dt^2 n0^2 e^{-2t}| ~ 4.3e-4
    assert np.max(np.abs(defects)) <= 4.5e-4
