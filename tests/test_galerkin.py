"""Truncated integrating-factor RK4 solver and its dealiased advection kernel."""

import math
import tracemalloc

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
from nsexpand import galerkin
from nsexpand.fieldpoly import level_support
from nsexpand.galerkin import ModeTable, _closure
from nsexpand.spectral import _ball, _mode_rows, _mode_union, eigenvalue


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
    # the config's grid holds 11 samples, and a block is complex128
    with pytest.raises(ValueError, match=r"expected complex128 \(11, 0, 3\), got complex128 \(1, 0, 3\)"):
        Trajectory.from_states((SpectralField.zero(),), cfg)
    with pytest.raises(ValueError, match=r"got float64 \(11, 1, 3\)"):
        Trajectory(np.zeros((1, 3), np.int64), np.zeros((11, 1, 3)), cfg)
    assert len(Trajectory(np.zeros((1, 3), np.int64), np.zeros((11, 1, 3), complex), cfg)) == 11


@pytest.mark.parametrize("modes", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],   # distinct, but in reverse key order
    [[0, 1, 0], [1, 0, 0], [1, 0, 0]],   # a repeated mode
])
def test_trajectory_rejects_modes_out_of_key_order(modes):
    # the analysis looks modes up by binary search on their keys: out of order, a norm
    # series would weigh columns by the wrong |k|^2 and a level lookup would miss
    cfg = SolverConfig(4, 0.5, 1.0)
    with pytest.raises(ValueError, match="trajectory modes must be distinct and in key order"):
        Trajectory(np.array(modes, np.int64), np.ones((3, 3, 3), complex), cfg)
    keyed = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], np.int64)   # key order is tuple order
    assert len(Trajectory(keyed, np.ones((3, 3, 3), complex), cfg)) == 3


_POOL = [(0, 0, 1), (0, 1, -1), (0, 1, 0), (1, -1, 0), (1, 0, 0)]   # key order


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.sets(st.integers(0, len(_POOL) - 1)), max_size=4), seed=st.integers(0, 2**32 - 1))
def test_from_states_equals_the_per_sample_rows_block(picks, seed):
    # an empty sample (u0 = 0 on the ladder), the full support (every later ladder sample)
    # and partial ones: a full-support sample is stored as its own rows, the rest through
    # `_rows`, and the block must be the `_rows` block either way, signed zeros included
    rng = np.random.default_rng(seed)
    c = lambda: np.where(rng.random(3) < 0.3, -0.0, rng.standard_normal(3)) + 1j * rng.standard_normal(3)
    states = [SpectralField({_POOL[i]: c() for i in rows}) for rows in [set(), set(range(len(_POOL))), *picks]]
    cfg = SolverConfig(4, 0.5, 0.5 * (len(states) - 1))
    traj = Trajectory.from_states(states, cfg)
    assert traj.modes.tolist() == [list(k) for k in _POOL]
    want = np.stack([s._rows(traj.modes) for s in states])
    assert traj.coeffs.tobytes() == want.tobytes()


# -- mode table ---------------------------------------------------------------------


def test_mode_table_cutoff_one():
    table = ModeTable(1)
    assert table._k.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert table.size == 3


# Row counts 3, 40, 89, 242 and 682 at M = 1, 6, 12, 24 and 48.
@pytest.mark.parametrize("cutoff", range(1, 49))
def test_mode_table_rows_are_the_brute_force_ball(cutoff):
    axis = range(-math.isqrt(cutoff), math.isqrt(cutoff) + 1)
    want = [[a, b, c] for a in axis for b in axis for c in axis
            if (a, b, c) > (0, 0, 0) and a * a + b * b + c * c <= cutoff]
    assert _ball(cutoff).tolist() == want
    assert ModeTable(cutoff)._k.tolist() == want
    assert len(want) == {1: 3, 6: 40, 12: 89, 24: 242, 48: 682}.get(cutoff, len(want))


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
        tuple(table._k[i].tolist()): rng.standard_normal(3) + 1j * rng.standard_normal(3) for i in picks
    }
    return leray_project(SpectralField(coeffs))


def reachable_rows(table, u):
    """Representatives of the table that some pair of live full modes m + l equals."""
    sums = {
        (m[0] + l[0], m[1] + l[1], m[2] + l[2])
        for m, _ in u.full_modes()
        for l, _ in u.full_modes()
    }
    return {k for k in map(tuple, table._k.tolist()) if k in sums or (-k[0], -k[1], -k[2]) in sums}


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
    odd = np.array([sum(k) % 2 == 1 for k in table._k.tolist()])
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


# -- the closure table -----------------------------------------------------------------


def representative(k):
    return k if k > (0, 0, 0) else (-k[0], -k[1], -k[2])


@settings(max_examples=60, deadline=None)
@given(cutoff=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), n_u=st.integers(1, 3))
def test_closure_table_is_the_grid_product_on_the_closure(cutoff, seed, n_u):
    ball = ModeTable(cutoff)
    rng = np.random.default_rng(seed)
    u = ball_field(rng, ball, rng.choice(ball.size, n_u, replace=False))
    table = ModeTable(cutoff, u._k)
    rows = set(map(tuple, table._k.tolist()))
    assert set(u.support()) <= rows
    if not table._pairs:   # past the crossover: the whole ball and its grid product
        assert table.size == ball.size and np.array_equal(table._k, ball._k)
        return
    # S is closed under sums and differences that stay inside the ball
    full = [*rows, *((-a, -b, -c) for a, b, c in rows)]
    for m in full:
        for l in full:
            s = (m[0] + l[0], m[1] + l[1], m[2] + l[2])
            if s != (0, 0, 0) and eigenvalue(s) <= cutoff:
                assert representative(s) in rows

    got = table.convolve(table.densify(u))
    grid = ball.convolve(ball.densify(u))
    at = np.array([ball._k.tolist().index(k) for k in table._k.tolist()])
    off = np.ones(ball.size, dtype=bool)
    off[at] = False
    assert not grid[off].any()   # off S the grid product is exactly zero
    # a bound on every coefficient's sum of term magnitudes |c(m)| |l| |c(l)|
    scale = (sum(float(np.abs(c).sum()) for _, c in u.full_modes())
             * sum(float(np.abs(l).sum() * np.abs(c).max()) for l, c in u.full_modes()))
    assert np.abs(got - grid[at]).max() <= 1e-15 * scale
    # rows no pair of live modes reaches are +0.0, signs included
    dead = [i for i, k in enumerate(table._k.tolist()) if tuple(k) not in reachable_rows(table, u)]
    assert not got[dead].any() and not np.signbit(got[dead].view(float)).any()
    assert abs(inner(table.to_field(got), u)) <= 1e-15 * scale * norm(u)


def test_closure_of_the_ladder_force():
    # the ladder's pair sums lie in the plane {(a + b, a, b)}: 9 rows of the M = 12 ball
    # (of 89) and 21 of the M = 24 ball (of 242)
    for cutoff, size, pairs in ((12, 9, 81), (24, 21, 474)):
        table = ModeTable(cutoff, ladder_phi()._k)
        assert (table.size, len(table._p)) == (size, pairs)
        assert all(k[0] == k[1] + k[2] for k in table._k.tolist())


def test_closure_past_the_crossover_is_the_ball_and_its_grid():
    # the closure of the |k|^2 <= 3 shells fills the M = 12 ball: 7,257 pairs
    table, ball = ModeTable(12, _ball(3)), ModeTable(12)
    assert not table._pairs and np.array_equal(table._k, ball._k)
    u = table.densify(ball_field(np.random.default_rng(4), table, range(13)))
    assert np.array_equal(table.convolve(u), ball.convolve(u))


def test_closure_never_pairs_a_large_set():
    # the M = 48 ball pairs into 1,364^2 sums (45 MB as wavevectors); it is refused unpaired
    tracemalloc.start()
    try:
        assert _closure(48, _ball(48)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def convolve_oracle(table, u):
    """The pair sum without table buffers: fresh [u; conj u], gathered pairs and products."""
    both = np.concatenate((u, np.conj(u)))
    l = np.concatenate((table._k, -table._k))[table._q].astype(float)
    dots = 1j * np.einsum("pc,pc->p", both[table._p], l)
    acc = np.add.reduceat(dots[:, None] * both[table._q], table._starts, axis=0)
    out = np.zeros((table.size, 3), dtype=np.complex128)
    out[table._target] = np.einsum("tij,tj->ti", table._leray, acc)
    return out


@settings(max_examples=60, deadline=None)
@given(cutoff=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), n_u=st.integers(1, 3))
def test_pair_sum_buffers_leave_earlier_results_alone(cutoff, seed, n_u):
    ball = ModeTable(cutoff)
    rng = np.random.default_rng(seed)
    picks = rng.choice(ball.size, n_u, replace=False)
    u, v = (ball_field(rng, ball, picks) for _ in range(2))
    table = ModeTable(cutoff, u._k)
    if not table._pairs:
        return
    du, dv = table.densify(u), table.densify(v)
    first = table.convolve(du)
    kept = first.copy()
    second = table.convolve(dv)
    # the table reuses its buffers: a result is the caller's, unchanged by the next call
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == convolve_oracle(table, du).tobytes()
    assert second.tobytes() == convolve_oracle(table, dv).tobytes()


def test_force_times_are_the_step_expressions(monkeypatch):
    # the force is evaluated in chunks of steps, at the bits of (step - 1) h + h / 2 and step h
    calls = []

    def recorded(force, modes, times):
        calls.append(list(times))
        return evaluate_force(force, modes, times)

    monkeypatch.setattr(galerkin, "evaluate_force", recorded)
    h, steps = 0.01, 600
    integrate(SpectralField.zero(), ladder_force(), SolverConfig(12, h, steps * h, 100))
    want = [0.0] + [t for step in range(1, steps + 1) for t in ((step - 1) * h + h / 2.0, step * h)]
    assert [t for c in calls for t in c] == want
    assert len(calls) == 1 + math.ceil(steps / galerkin.FORCE_CHUNK)


def integrate_oracle(u0, force, config):
    """The march with real (R, 1) decay factors, broadcast over the components, and the
    buffer-free pair sum: the samples as fields, one per sample of `config`."""
    support = level_support(force.terms)
    table = ModeTable(config.mode_cutoff, _mode_union(u0._k, support))
    assert table._pairs
    at = _mode_rows(support, table._k)
    u = table.densify(u0)
    h = config.step
    half = np.exp(-(h / 2.0) * table.lam)[:, None]
    full = np.exp(-h * table.lam)[:, None]
    states = [table.to_field(u)]
    f_start = np.zeros((table.size, 3), dtype=np.complex128)
    f_start[at] = evaluate_force(force, support, (0.0,))[0]
    for first in range(1, config.steps + 1, galerkin.FORCE_CHUNK):
        chunk = np.arange(first, min(first + galerkin.FORCE_CHUNK, config.steps + 1))
        times = np.stack(((chunk - 1) * h + h / 2.0, chunk * h), axis=1).reshape(-1)
        forces = evaluate_force(force, support, times).reshape(len(chunk), 2, len(support), 3)
        for step, (mid, end) in zip(chunk.tolist(), forces):
            f_mid, f_end = np.zeros((2, table.size, 3), dtype=np.complex128)
            f_mid[at], f_end[at] = mid, end
            n1 = f_start - convolve_oracle(table, u)
            a2 = half * (u + (h / 2.0) * n1)
            n2 = f_mid - convolve_oracle(table, a2)
            a3 = half * u + (h / 2.0) * n2
            n3 = f_mid - convolve_oracle(table, a3)
            a4 = full * u + h * (half * n3)
            n4 = f_end - convolve_oracle(table, a4)
            f_start = f_end
            u = full * u + (h / 6.0) * (full * n1 + 2.0 * (half * (n2 + n3)) + n4)
            if step % config.sample_stride == 0:
                states.append(table.to_field(u))
    return states


@pytest.mark.parametrize("scale", [0.0, 20.0])   # u0 = 0 as on the ladder, or |u0| = 1 on the force's rows
def test_integrate_equals_the_real_factor_march_bit_for_bit(scale):
    # complex (R, 3) decay factors run numpy's complex multiply on the values that the real
    # (R, 1) factors are cast to, so the march must not move by a bit
    cfg = SolverConfig(6, 0.02, 1.0)   # 50 steps on the ladder's M = 6 closure
    u0 = scale * ladder_phi()
    traj = integrate(u0, ladder_force(), cfg)
    states = integrate_oracle(u0, ladder_force(), cfg)
    assert traj.modes.tolist() == _mode_union(*(s._k for s in states)).tolist()
    want = np.stack([s._rows(traj.modes) for s in states])
    assert traj.coeffs.tobytes() == want.tobytes()


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
    times = np.arange(6) * 2 * 0.1   # the config's sample grid
    states = tuple(math.exp(-float(t)) * u0 for t in times)
    traj = Trajectory.from_states(states, cfg)
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
