"""Norm series, rate fits, resonant-constant recovery, decay certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_fields_close, ladder_force, levels_at, small_fields
from nsexpand import (
    DecayCertificate,
    FieldPolynomial,
    ForceExpansion,
    NormSpec,
    SolverConfig,
    SpectralField,
    Trajectory,
    bilinear,
    build_expansion,
    certificate_check,
    fit_rate,
    fit_resonant_constant,
    integrate,
    leray_project,
    norm,
    norm_series,
    rate_claim_passes,
    remainder_series,
)
from nsexpand.analysis import FLOOR_FACTOR, FitError, NormSeries, RateFit, _fdot, tail_window
from nsexpand.expansion import coupling_products, level_source, solve_level
from nsexpand.galerkin import ModeTable
from nsexpand.serialize import dumps_json, field_to_literal
from nsexpand.spectral import eigenspace_project


def heat_trajectory(amplitude=0.8, t_end=3.0, stride=4):
    u0 = SpectralField({(1, 0, 0): [0, amplitude, 0]})
    cfg = SolverConfig(4, 0.05, t_end, sample_stride=stride)
    return u0, integrate(u0, ForceExpansion(()), cfg)


def fabricated_trajectory(states_fn, t_end=4.0, spacing=0.05):
    cfg = SolverConfig(8, spacing, t_end, sample_stride=1)
    times = np.arange(cfg.steps + 1) * spacing   # the config's sample grid
    return Trajectory.from_states([states_fn(float(t)) for t in times], cfg)


# -- windows and series ------------------------------------------------------------


def test_one_percent_error_in_q1_fails_the_second_rate_row():
    # The check behind verify's N = 2 row, on the mini-ladder flow: with q_1
    # scaled by 1.01 the remainder keeps 0.01 q_1 e^{-t} and decays at rate 1.
    traj = integrate(SpectralField.zero(), ladder_force(), SolverConfig(6, 0.01, 6.0, 10))

    def constant(n, levels):
        return fit_resonant_constant(traj, levels, n).constant if n == 2 else None

    (_, q1), level2 = build_expansion(ladder_force(), 2, constant).terms
    spec = NormSpec(0.5, 0.0)
    exact = fit_rate(remainder_series(traj, [(1, q1), level2], [spec])[0])
    scaled = fit_rate(remainder_series(traj, [(1, 1.01 * q1), level2], [spec])[0])
    assert rate_claim_passes(exact, 2.5)
    assert not rate_claim_passes(scaled, 2.5)
    assert scaled.slope == pytest.approx(-1.0, abs=0.1)


def test_tail_window_defaults():
    assert tail_window(10.0) == (6.0, 9.5)
    assert tail_window(12.0, 0.8, 0.95) == pytest.approx((9.6, 11.4), rel=1e-15)


def test_norm_series_heat_closed_form():
    u0, traj = heat_trajectory()
    n0 = norm(u0)
    series = norm_series(traj, NormSpec(0.0, 0.0))
    for t, v in zip(series.times, series.values):
        assert v == pytest.approx(n0 * math.exp(-float(t)), rel=1e-11)
    # |k|^2 = 1 modes: every weighted norm coincides with the flat one
    series_g = norm_series(traj, NormSpec(0.5, 0.0))
    assert np.allclose(series_g.values, series.values, rtol=1e-14)


def test_remainder_series_empty_terms_is_plain_norm():
    _, traj = heat_trajectory()
    (a,) = remainder_series(traj, (), [NormSpec(0.0, 0.0)])
    b = norm_series(traj, NormSpec(0.0, 0.0))
    assert np.array_equal(a.values, b.values)


def test_remainder_series_exact_term_hits_floor():
    u0, traj = heat_trajectory()
    term = (1, FieldPolynomial.constant(u0))
    (series,) = remainder_series(traj, (term,), [NormSpec(0.0, 0.0)])
    assert series.peak() <= 1e-12 * norm(u0)


def test_norm_series_length_guard():
    with pytest.raises(ValueError):
        NormSeries(np.array([0.0, 1.0]), np.array([1.0]))


# -- the block's batched series against per-sample field arithmetic --------------------

@st.composite
def _trajectory(draw, min_samples=2):
    """A block of drawn states at t = 0, h, 2h, ... (sometimes all zero) and its states."""
    samples = draw(st.integers(min_samples, 6))
    spacing = draw(st.sampled_from([0.125, 0.25, 0.5]))
    states = draw(st.lists(small_fields, min_size=samples, max_size=samples))
    if draw(st.booleans()):
        states = [SpectralField.zero()] * samples
    cfg = SolverConfig(4, spacing, spacing * (samples - 1))
    return Trajectory.from_states(states, cfg), states


@st.composite
def _terms(draw, levels, project=False):
    """(n, q_n) pairs at some of the given levels; their modes may lie off the trajectory."""
    fields = small_fields.map(leray_project) if project else small_fields
    chosen = sorted(draw(st.sets(st.sampled_from(levels), max_size=len(levels)))) if levels else []
    return [(n, FieldPolynomial(draw(st.lists(fields, max_size=3)))) for n in chosen]


@settings(max_examples=80)
@given(_trajectory(), _terms([1, 2, 3, 4]), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([0.0, 0.1]))
def test_batched_series_equal_per_sample_field_arithmetic(case, terms, alpha, sigma):
    traj, states = case
    spec = NormSpec(alpha, sigma)
    want = [norm(s - levels_at(terms, float(t)), spec) for t, s in zip(traj.times, states)]
    assert remainder_series(traj, terms, [spec])[0].values.tolist() == want
    assert norm_series(traj, spec).values.tolist() == [norm(s, spec) for s in states]


def test_remainder_series_forms_one_series_per_spec(ladder_run):
    # verify's call: both norm specs of the ladder scenario from one remainder, each series
    # the bits of its own single-spec call and of the README's per-sample identity
    traj, terms = ladder_run["traj"], ladder_run["terms"]
    specs = ladder_run["scenario"].expansion.norm_specs
    both = remainder_series(traj, terms, specs)
    assert len(both) == len(specs) == 2
    gaps = [traj.state(i) - levels_at(terms, t) for i, t in enumerate(traj.times.tolist())]
    for spec, series in zip(specs, both):
        alone = remainder_series(traj, terms, [spec])[0]
        assert np.array_equal(series.values.view(np.int64), alone.values.view(np.int64))
        assert np.array_equal(series.times, traj.times)
        assert series.values.tolist() == [norm(gap, spec) for gap in gaps]


def reference_resonant_fit(states, times, terms, n):
    """Constant, spread and drift of resonant level n over all samples, one field per sample."""
    samples = [
        eigenspace_project(s - levels_at(terms, float(t)), n) * math.exp(n * float(t))
        for t, s in zip(times, states)
    ]
    mean = SpectralField.zero()
    for w in samples:
        mean = mean + w
    mean = mean * (1.0 / len(samples))
    stddev = math.sqrt(math.fsum(norm(w - mean) ** 2 for w in samples) / len(samples))
    support = sorted(set().union(*(w.support() for w in samples)) | set(mean.support()))
    drift_norm = 0.0
    if support:
        tc = times - times.mean()
        stacked = np.array([w._rows(np.array(support)) for w in samples])
        slopes = np.einsum("s,skc->kc", tc, stacked) / math.fsum((tc * tc).tolist())
        drift_norm = norm(SpectralField(zip(support, slopes * float(times[-1]))))
    base = norm(mean)
    drift = drift_norm / base if base > 0 else (math.inf if drift_norm > 0 else 0.0)
    return mean, stddev, drift


@settings(max_examples=60)
@given(_trajectory(min_samples=3), st.sampled_from([1, 2]), st.data())
def test_resonant_fit_equals_per_sample_field_arithmetic(case, n, data):
    traj, states = case
    terms = data.draw(_terms([1, 2, 3]).filter(lambda ts: n in dict(ts)))
    fit = fit_resonant_constant(traj, terms, n, window=(0.0, traj.t_end))
    mean, stddev, drift = reference_resonant_fit(states, traj.times, terms, n)
    # compared as a level document writes them: every bit, signed zeros included
    assert dumps_json(field_to_literal(fit.constant)) == dumps_json(field_to_literal(mean))
    assert (fit.stddev, fit.drift) == (stddev, drift)



def test_resonant_fit_keeps_the_signed_zeros_of_field_arithmetic():
    # The mode is absent from the flow, so each sample is -q_1(t), whose x
    # component SpectralField arithmetic makes -0.0; a plain array sum would
    # turn it into +0.0 and the level document would change by that byte.
    phi = leray_project(SpectralField({(1, 0, 0): [0.3, 0.5 - 0.2j, 0.1j]}))
    terms = ((1, FieldPolynomial([SpectralField.zero(), phi])),)  # q_1 = phi t
    states = [SpectralField.zero()] * 4
    traj = Trajectory.from_states(states, SolverConfig(4, 0.25, 0.75))
    fit = fit_resonant_constant(traj, terms, 1, window=(0.0, 0.75))
    mean, _, _ = reference_resonant_fit(states, traj.times, terms, 1)
    assert dumps_json(field_to_literal(fit.constant)) == dumps_json(field_to_literal(mean))
    assert math.copysign(1.0, field_to_literal(fit.constant)[0]["re"][0]) == -1.0

# -- rate fitting ------------------------------------------------------------------


def test_fit_rate_pure_exponential():
    t = np.linspace(0.0, 10.0, 101)
    series = NormSeries(t, 3.0 * np.exp(-2.0 * t))
    fit = fit_rate(series)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.rms_residual <= 1e-10
    assert fit.window == (6.0, 9.5)
    assert not fit.floor_dominated
    assert rate_claim_passes(fit, 2.0)


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 10.0, 101)
    fit = fit_rate(NormSeries(t, np.full(101, 0.7)))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_polynomial_times_exponential():
    # t e^{-t} on [5, 10]: the honest least-squares slope on ln(t) - t is
    # about -0.8634 (the ln t term flattens the fit), with small residual.
    t = np.linspace(0.0, 10.0, 101)
    series = NormSeries(t, t * np.exp(-t))
    fit = fit_rate(series, window=(5.0, 10.0))
    assert -0.870 < fit.slope < -0.855
    assert fit.rms_residual < 0.05
    assert rate_claim_passes(fit, 0.85)
    assert not rate_claim_passes(fit, 1.0)


def test_fit_rate_floor_dominated():
    t = np.linspace(0.0, 10.0, 101)
    fit = fit_rate(NormSeries(t, np.zeros(101)))
    assert fit.floor_dominated
    assert math.isnan(fit.slope)
    assert fit.n_samples == 0
    assert not rate_claim_passes(fit, 1.0)
    # a series that decays under the relative floor inside the window
    v = np.exp(-40.0 * t)  # at t >= 6: e^{-240} << 1e-13 x peak
    fit = fit_rate(NormSeries(t, v))
    assert fit.floor_dominated


def test_fit_rate_too_few_samples():
    t = np.linspace(0.0, 10.0, 11)
    series = NormSeries(t, np.exp(-t))
    with pytest.raises(FitError, match="need >= 8"):
        fit_rate(series, window=(6.0, 9.5))


def test_fit_rate_empty_window_rejected():
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValueError, match="empty window"):
        fit_rate(NormSeries(t, np.exp(-t)), window=(5.0, 5.0))
    # a window past the horizon holds no sample: unusable, not a series at the floor
    with pytest.raises(FitError, match=r"window \[20, 30\] holds no samples; series ends at 10"):
        fit_rate(NormSeries(t, np.exp(-t)), window=(20.0, 30.0))


U = 2.0**-53   # unit roundoff of float64


def fit_samples(series, window):
    """The (t, ln value) samples fit_rate uses: in the window and above the floor."""
    t, v = series.times, series.values
    usable = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12) & (v > FLOOR_FACTOR * series.peak())
    return t[usable], np.log(v[usable])


def exact_line(x, y):
    """Means, centred sums and least-squares line of (x, y), in exact rational arithmetic
    on the float inputs: x_mean, y_mean, Sxx, Syy, slope, intercept, mean squared residual."""
    m = len(x)
    X, Y = [Fraction(a) for a in x.tolist()], [Fraction(b) for b in y.tolist()]
    sx, sy = sum(X), sum(Y)
    sxx = sum(a * a for a in X) - sx * sx / m
    sxy = sum(a * b for a, b in zip(X, Y)) - sx * sy / m
    syy = sum(b * b for b in Y) - sy * sy / m
    slope = sxy / sxx
    return sx / m, sy / m, sxx, syy, slope, (sy - slope * sx) / m, (syy - slope * sxy) / m


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(1, 1200),
    m=st.integers(8, 1201),
    level=st.floats(-10.0, 0.0),
    rate=st.floats(0.0, 5.0),
    power=st.floats(0.0, 3.0),
    wiggle=st.floats(0.0, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
@example(start=720, m=421, level=math.log(0.7), rate=0.0, power=0.0, wiggle=0.0, seed=0)  # constant
@example(start=1100, m=8, level=-3.0, rate=2.0, power=1.0, wiggle=1e-3, seed=1)  # 8 usable samples
def test_fit_rate_is_the_exact_line_to_rounding(start, m, level, rate, power, wiggle, seed):
    # ln-values like the ladder's remainders, level + ln(t^power e^{-rate t}) with small
    # wiggles, every 1e-2 over a window of m samples. Bound: each result lies within
    # 8 u (u = 2^-53) of its exact rational value, relative to the scale its rounding
    # errors carry. For the slope that scale is |slope| + sqrt(Syy / Sxx), plus the
    # second-order term of the two rounded means; for the intercept |y_mean| + |x_mean|
    # times the slope's scale; for the rms, the rms plus the largest |y - y_mean| and
    # the intercept's and slope's scales, since each residual is y - y_mean - slope (x - x_mean).
    t = np.arange(start, start + m) * 1e-2
    noise = wiggle * np.random.default_rng(seed).standard_normal(m)
    series = NormSeries(t, np.exp(level - rate * t + power * np.log(t) + noise))
    fit = fit_rate(series, (t[0], t[-1]))
    x, y = fit_samples(series, fit.window)
    assert fit.n_samples == len(x) >= 8
    x_mean, y_mean, sxx, syy, slope, intercept, msr = map(float, exact_line(x, y))
    reach = float(np.abs(x - x_mean).max())
    slope_scale = abs(slope) + math.sqrt(syy / sxx) + U * abs(y_mean) * len(x) * (abs(x_mean) + 2 * reach) / sxx
    intercept_scale = abs(y_mean) + abs(x_mean) * slope_scale
    rms = math.sqrt(msr)
    rms_scale = rms + float(np.abs(y - y_mean).max()) + intercept_scale + reach * slope_scale
    assert abs(fit.slope - slope) <= 8 * U * slope_scale
    assert abs(fit.intercept - intercept) <= 8 * U * intercept_scale
    assert abs(fit.rms_residual - rms) <= 8 * U * rms_scale


@settings(max_examples=40, deadline=None)
@given(start=st.integers(0, 1200), m=st.integers(8, 1201))
def test_resonant_trend_denominator_is_exactly_rounded(start, m):
    # the resonant fit's var = sum of its centred times squared: each square is rounded
    # once (relative error <= u) and the positive sum exactly, so var is within 2 u of
    # the exact rational sum
    t = np.arange(start, start + m) * 1e-2
    tc = t - t.mean()
    exact = sum(Fraction(c) ** 2 for c in tc.tolist())
    assert abs(Fraction(_fdot(tc, tc)) - exact) <= 2 * U * exact


def test_fit_rate_agrees_with_polyfit_on_the_ladder_rows(ladder_run):
    traj, terms = ladder_run["traj"], ladder_run["terms"]
    specs = ladder_run["scenario"].expansion.norm_specs
    for N, _ in terms:
        for series in remainder_series(traj, [(n, q) for n, q in terms if n <= N], specs):
            fit = fit_rate(series)
            x, y = fit_samples(series, fit.window)
            slope, intercept = np.polyfit(x, y, 1)
            rms = math.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
            assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0.0)
            assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0.0)
            # polyfit's residuals y - (slope x + intercept) each round on the scale of |y|
            # (~25), about 1e6 times the ~2.6e-5 rms of the N = 1 rows, whose polyfit rms is
            # 2.3e-12 off the exact rational one: rms is compared on the scale of y
            assert abs(fit.rms_residual - rms) <= 1e-12 * float(np.abs(y).max())


def test_rate_claim_tolerances():
    def fit(slope, rms=0.01):
        return RateFit(slope, 0.0, rms, (0.0, 1.0), 20)

    assert rate_claim_passes(fit(-1.46), 1.5)      # within the 0.05 slack
    assert not rate_claim_passes(fit(-1.44), 1.5)  # outside it
    assert not rate_claim_passes(fit(-2.0, rms=0.2), 1.5)  # fit too noisy


# -- resonant-constant recovery ------------------------------------------------------


def manufactured_two_levels():
    q1 = SpectralField({(1, 0, 0): [0, 0.25, 0.25j], (0, 1, 0): [0.5, 0, -0.125]})
    f2 = 2.0 * bilinear(q1, q1)
    force = ForceExpansion(((2, FieldPolynomial.constant(f2)),))
    term1 = (1, FieldPolynomial.constant(q1))
    xi2 = leray_project(
        SpectralField({(1, 1, 0): [0.03, -0.03, 0.01], (1, -1, 0): [0.02, 0.02, 0.005j]})
    )
    q2, hit = solve_level(level_source(force, 2, coupling_products([term1], 2)), 2)
    assert hit
    return term1, q2, xi2


def test_fit_resonant_constant_exact_recovery():
    term1, q2, xi2 = manufactured_two_levels()
    q1 = term1[1]

    def state(t):
        q1t, q2t = levels_at([(0, q1)], t), levels_at([(0, q2)], t)
        return math.exp(-t) * q1t + math.exp(-2 * t) * (q2t + xi2)

    traj = fabricated_trajectory(state)
    fit = fit_resonant_constant(traj, [term1, (2, q2)], 2)
    assert_fields_close(fit.constant, xi2, rtol=1e-10, atol=1e-14)
    assert fit.stddev <= 1e-10 * norm(xi2)
    assert fit.drift <= 1e-8
    assert not fit.contaminated
    assert fit.window == (3.2, 3.8)


def test_fit_resonant_constant_flags_contamination():
    term1, q2, xi2 = manufactured_two_levels()
    q1 = term1[1]
    eta = xi2  # contaminant the same size as the constant itself

    def state(t):
        q1t, q2t = levels_at([(0, q1)], t), levels_at([(0, q2)], t)
        clean = math.exp(-t) * q1t + math.exp(-2 * t) * (q2t + xi2)
        return clean + math.exp(-3 * t) * eta

    traj = fabricated_trajectory(state)
    fit = fit_resonant_constant(traj, [term1, (2, q2)], 2, window=(0.5, 1.5))
    assert fit.contaminated
    assert fit.drift > 0.1


def test_fit_resonant_constant_zero_excitation():
    # Single-mode level 1 self-advects to zero and nothing else drives level 2.
    q1 = SpectralField({(1, 0, 0): [0, 0.5, 0]})
    term1 = (1, FieldPolynomial.constant(q1))

    def state(t):
        return math.exp(-t) * q1

    traj = fabricated_trajectory(state)
    fit = fit_resonant_constant(traj, [term1, (2, FieldPolynomial.zero())], 2)
    assert fit.constant.is_zero
    assert fit.stddev == 0.0
    assert fit.drift == 0.0
    assert not fit.contaminated


def test_fit_resonant_constant_rejects_gap_level():
    _, traj = heat_trajectory()
    with pytest.raises(ValueError, match="not a Stokes eigenvalue"):
        fit_resonant_constant(traj, [(7, FieldPolynomial.zero())], 7)


def test_fit_resonant_constant_needs_level_n():
    _, traj = heat_trajectory()
    terms = [(1, FieldPolynomial.zero()), (3, FieldPolynomial.zero())]
    with pytest.raises(ValueError, match="must include level 2"):
        fit_resonant_constant(traj, terms, 2)


def test_fit_resonant_constant_needs_samples():
    term1, q2, _ = manufactured_two_levels()
    q1 = term1[1]

    def state(t):
        q1t, q2t = levels_at([(0, q1)], t), levels_at([(0, q2)], t)
        return math.exp(-t) * q1t + math.exp(-2 * t) * q2t

    traj = fabricated_trajectory(state)
    with pytest.raises(FitError, match="fewer than 2"):
        fit_resonant_constant(traj, [term1, (2, q2)], 2, window=(3.91, 3.94))


# -- certificates ---------------------------------------------------------------------


def test_certificate_constants_sigma_zero():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0, sigma=0.0, K=2.0)
    assert cert.C0 == pytest.approx(0.5 / (4.0 * math.sqrt(2.0)), rel=1e-15)
    assert cert.C1 == pytest.approx(0.0625, rel=1e-15)
    assert cert.t_star == 0.0


def test_certificate_constants_sigma_positive():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0, sigma=0.1, K=2.0)
    c0 = 0.5 / (6.0 * math.sqrt(2.0))
    assert cert.C0 == pytest.approx(c0, rel=1e-15)
    assert cert.C1 == pytest.approx((2.0 / math.sqrt(3.0)) * 0.5 * c0, rel=1e-15)
    assert cert.t_star == pytest.approx(1.2, rel=1e-15)


def test_certificate_parameter_validation():
    ok = dict(alpha=0.5, delta=0.5, lam=1.0)
    DecayCertificate(**ok)
    with pytest.raises(ValueError, match="delta"):
        DecayCertificate(**{**ok, "delta": 0.0})
    with pytest.raises(ValueError, match="delta"):
        DecayCertificate(**{**ok, "delta": 1.0})
    with pytest.raises(ValueError, match="lam"):
        DecayCertificate(**{**ok, "lam": 0.5})  # needs lam > 1 - delta
    with pytest.raises(ValueError, match="lam"):
        DecayCertificate(**{**ok, "lam": 1.2})
    with pytest.raises(ValueError, match="alpha"):
        DecayCertificate(**{**ok, "alpha": 0.4})
    with pytest.raises(ValueError, match="sigma"):
        DecayCertificate(**{**ok, "sigma": -0.1})
    with pytest.raises(ValueError, match="K"):
        DecayCertificate(**{**ok, "K": 1.0})


def test_certificate_verified_on_small_heat_flow():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    u0, traj = heat_trajectory(amplitude=0.5 * cert.C0 / math.sqrt(2.0))
    report = certificate_check(traj, cert, ForceExpansion(()))
    assert report.applicable
    assert report.verdict == "verified"
    assert report.min_margin() > 0
    assert report.pointwise_times[0] == 0.0  # t_star = 0, all samples gated
    assert len(report.integral_times) > 0    # spacing 0.2 divides 1
    assert not report.integral_skipped
    # sanity: the flow actually beats the certified rate
    vals = norm_series(traj, NormSpec(0.5, 0.0)).values
    assert np.all(vals <= vals[0] * np.exp(-traj.times) * (1 + 1e-9))


def test_certificate_inapplicable_large_data():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    _, traj = heat_trajectory(amplitude=2.0 * cert.C0)
    report = certificate_check(traj, cert, ForceExpansion(()))
    assert not report.applicable
    assert report.verdict == "inapplicable"
    assert any("initial data" in f for f in report.hypothesis_failures)


def test_certificate_force_hypothesis_gate():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    _, traj = heat_trajectory(amplitude=0.5 * cert.C0)
    big = SpectralField({(1, 0, 0): [0, 10.0 * cert.C1, 0]})
    force = ForceExpansion(((1, FieldPolynomial.constant(big)),))
    report = certificate_check(traj, cert, force)
    assert any("force at t" in f for f in report.hypothesis_failures)
    assert report.verdict == "inapplicable"


def test_certificate_names_the_first_time_the_force_exceeds_its_bound():
    # |f(t)| = |a + b t| e^{-t} against C1 e^{-t} (lam = 1): within the bound at t = 0
    # (|a| ~ 0.23 C1), past it from t ~ 0.34 on, so the first failing sample is t = 0.35
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    a = SpectralField({(1, 0, 0): [0, 0.01, 0]})
    b = SpectralField({(1, 0, 0): [0, 0.1, 0]})
    force = ForceExpansion(((1, FieldPolynomial([a, b])),))
    traj = fabricated_trajectory(lambda t: SpectralField.zero(), t_end=1.0)
    fval = norm(levels_at(force.terms, 0.35), NormSpec(0.0, 0.0))
    bound = cert.C1 * math.exp(-0.35)
    assert norm(levels_at(force.terms, 0.3)) < cert.C1 * math.exp(-0.3) and fval > bound
    report = certificate_check(traj, cert, force)
    assert report.hypothesis_failures == (
        f"force at t = 0.35: |f|_(alpha-1/2, sigma) = {fval:.6e} "
        f"exceeds C1 e^(-lam t) = {bound:.6e}",
    )


def test_certificate_violated_on_slow_fabricated_decay():
    # Hypotheses pass at t = 0 but the fabricated states decay slower than the
    # certified rate, so some margin must go negative.
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    u0 = SpectralField({(1, 0, 0): [0, cert.C0 / math.sqrt(2.0), 0]})

    def state(t):
        return math.exp(-0.1 * t) * u0

    traj = fabricated_trajectory(state, t_end=6.0, spacing=0.25)
    report = certificate_check(traj, cert, ForceExpansion(()))
    assert report.applicable
    assert report.verdict == "violated"
    assert report.min_margin() < 0


def test_certificate_skips_integral_when_spacing_does_not_divide():
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    u0, _ = heat_trajectory(amplitude=0.1 * cert.C0)
    cfg = SolverConfig(4, 0.15, 1.5, sample_stride=1)
    traj = integrate(u0, ForceExpansion(()), cfg)
    report = certificate_check(traj, cert, ForceExpansion(()))
    assert len(report.integral_times) == 0
    assert report.integral_skipped  # the report says the check did not run
    assert report.verdict == "verified"  # pointwise margins still checked


def test_certificate_inapplicable_when_t_star_is_past_the_horizon():
    # sigma = 0.3, delta = 0.1: t_star = 18 lies past the last sample at 3, so
    # no conclusion is checked and the certificate cannot be verified.
    cert = DecayCertificate(alpha=0.5, delta=0.1, lam=1.0, sigma=0.3)
    _, traj = heat_trajectory(amplitude=0.1 * cert.C0)
    report = certificate_check(traj, cert, ForceExpansion(()))
    assert len(report.pointwise_times) == 0 and len(report.integral_times) == 0
    assert report.verdict == "inapplicable"
    assert report.hypothesis_failures == (
        f"no sample at or after t_star = 18; last sample at {traj.t_end:.6g}",
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 601), st.floats(0.0, 3.0), st.floats(0.0, 20.0))
@example(7, 1, 0.5, 3.0)  # one sample
def test_certificate_integrals_equal_per_window_trapezoid(steps, samples, decay, freq):
    # the window sums of np.trapezoid's terms give each unit window's integral to the bit
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0)
    u0 = SpectralField({(1, 0, 0): [0, 0.1, 0.05j]})
    u1 = SpectralField({(1, 1, 0): [0.02, -0.02, 0.01j]})
    # spacing 1/steps as two steps of 0.5/steps (step <= 0.5 is the config's own bound);
    # the states are drawn on the config's grid, the only sample times a trajectory has.
    # One sample is a one-step horizon under stride 2: empty integral margins, not skipped
    cfg = SolverConfig(8, 0.5 / steps, max(samples - 1, 0.5) / steps, sample_stride=2)
    times = np.arange(samples) * 2 * (0.5 / steps)
    states = [math.exp(-decay * t) * (u0 + math.cos(freq * t) * u1) for t in times]
    traj = Trajectory.from_states(states, cfg)
    assert np.array_equal(traj.times, times)
    report = certificate_check(traj, cert, ForceExpansion(()))

    vals = norm_series(traj, NormSpec(1.0, 0.0)).values ** 2
    rate = 1.0 - cert.delta
    coef = 3.0 * cert.C0 * cert.C0 / (2.0 * rate)
    expect = [
        coef * math.exp(-2.0 * rate * float(t))
        - float(np.trapezoid(vals[i : i + steps + 1], dx=traj.spacing))
        for i, t in enumerate(times[: max(samples - steps, 0)])
    ]
    assert not report.integral_skipped
    assert report.integral_margins.tolist() == expect


def reference_certificate_check(traj, cert, force):
    """Failures, (t, margin) pairs and skip flag of certificate_check as per-sample loops over
    per-sample fields compute them: the oracle of its masked arrays."""
    c0, c1, t_star, rate = cert.C0, cert.C1, cert.t_star, 1.0 - cert.delta
    times, states = traj.times.tolist(), [traj.state(i) for i in range(len(traj))]
    failures = []
    lhs = norm(states[0], NormSpec(cert.alpha, 0.0))
    if lhs > c0 * (1 + 1e-12):
        failures.append(f"initial data: |A^alpha u0| = {lhs:.6e} exceeds C0 = {c0:.6e}")
    for t in times:
        fval = norm(levels_at(force.terms, t), NormSpec(cert.alpha - 0.5, cert.sigma))
        bound = c1 * math.exp(-cert.lam * t)
        if fval > bound * (1 + 1e-12) + 1e-300:
            failures.append(f"force at t = {t:.6g}: |f|_(alpha-1/2, sigma) = {fval:.6e} "
                            f"exceeds C1 e^(-lam t) = {bound:.6e}")
            break
    pointwise = [(t, math.sqrt(2.0) * c0 * math.exp(-rate * t) - norm(s, NormSpec(cert.alpha, cert.sigma)))
                 for t, s in zip(times, states) if t >= t_star - 1e-12]
    if not pointwise:
        failures.append(f"no sample at or after t_star = {t_star:.6g}; last sample at {traj.t_end:.6g}")
    steps = int(round(1.0 / traj.spacing))
    skipped = not (steps >= 1 and abs(steps * traj.spacing - 1.0) <= 1e-6)
    vals = np.array([norm(s, NormSpec(cert.alpha + 0.5, cert.sigma)) for s in states]) ** 2
    coef = 3.0 * c0 * c0 / (2.0 * rate)
    integral = [] if skipped else [
        (t, coef * math.exp(-2.0 * rate * t) - float(np.trapezoid(vals[i : i + steps + 1], dx=traj.spacing)))
        for i, t in enumerate(times[: max(len(times) - steps, 0)]) if t >= t_star - 1e-12
    ]
    return tuple(failures), pointwise, integral, skipped


@settings(max_examples=60, deadline=None)
@given(
    spacing=st.sampled_from([0.125, 0.2, 0.25, 0.3, 0.5]),   # 0.3 does not divide 1
    samples=st.integers(1, 40),
    amplitude=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    decay=st.floats(0.0, 2.0),
    alpha=st.sampled_from([0.5, 1.0]),
    delta=st.sampled_from([0.1, 0.5, 0.9]),
    lam_share=st.sampled_from([0.5, 1.0]),   # lam = 1 - delta + lam_share delta
    sigma=st.sampled_from([0.0, 0.05, 0.3]),
    a=st.sampled_from([0.0, 0.01, 0.1]),
    b=st.sampled_from([0.0, 0.1, 1.0]),
)
# t_star = 18 past the horizon at 4.75
@example(0.25, 20, 0.0, 0.5, 0.5, 0.1, 1.0, 0.3, 0.0, 0.0)
# spacing 0.3 does not divide 1: pointwise margins only
@example(0.3, 12, 0.01, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 0.0)
# |a + b t| e^{-t} first exceeds C1 e^{-t} at t = 0.375, the fourth of nine samples
@example(0.125, 9, 0.01, 0.5, 0.5, 0.5, 1.0, 0.0, 0.01, 0.1)
def test_certificate_check_equals_per_sample_loops(
    spacing, samples, amplitude, decay, alpha, delta, lam_share, sigma, a, b
):
    cert = DecayCertificate(alpha=alpha, delta=delta, lam=1.0 - delta + lam_share * delta, sigma=sigma)
    u0 = SpectralField({(1, 0, 0): [0, 1.0, 0.5j]})
    u1 = SpectralField({(1, 1, 0): [0.2, -0.2, 0.1j]})
    # spacing as two steps of spacing / 2, so that one sample is a one-step horizon
    cfg = SolverConfig(8, spacing / 2, max(samples - 1, 0.5) * spacing, sample_stride=2)
    times = np.arange(samples) * spacing
    states = [amplitude * math.exp(-decay * t) * (u0 + math.cos(t) * u1) for t in times]
    traj = Trajectory.from_states(states, cfg)
    e = SpectralField({(1, 0, 0): [0, 1.0, 0]})
    force = ForceExpansion(((1, FieldPolynomial([a * e, b * e])),))

    report = certificate_check(traj, cert, force)
    failures, pointwise, integral, skipped = reference_certificate_check(traj, cert, force)
    assert report.hypothesis_failures == failures
    assert report.integral_skipped == skipped
    for got_t, got_m, want in [
        (report.pointwise_times, report.pointwise_margins, pointwise),
        (report.integral_times, report.integral_margins, integral),
    ]:
        want_t, want_m = np.reshape(want, (-1, 2)).T
        assert got_t.dtype == got_m.dtype == np.float64
        assert (got_t.tobytes(), got_m.tobytes()) == (want_t.tobytes(), want_m.tobytes())


# -- long-horizon properties of the driven cascade -------------------------------------


def test_energy_bounds_along_ladder(ladder_run):
    # With zero initial data and force amplitude 0.05 at decay rate 1, the
    # energy inequality gives |u(t)|^2 <= e^{-t} M^2 (with M = 0.05) and
    # unit-window dissipation integrals <= 2 e^{-t} M^2; allow 5% quadrature
    # and truncation headroom.
    traj = ladder_run["traj"]
    msq = 0.05 * 0.05
    flat = norm_series(traj, NormSpec(0.0, 0.0)).values
    assert np.all(flat**2 <= 1.05 * msq * np.exp(-traj.times))

    h1 = norm_series(traj, NormSpec(0.5, 0.0)).values ** 2
    spacing = traj.spacing
    steps = int(round(1.0 / spacing))
    for anchor in range(0, 11):
        i = anchor * steps
        integral = float(np.trapezoid(h1[i : i + steps + 1], dx=spacing))
        assert integral <= 1.05 * 2.0 * msq * math.exp(-float(anchor))


def test_gevrey_and_advection_decay_rates_along_ladder(ladder_run):
    # Tail rates follow the certified pattern: the flow itself at rate at
    # least 1 - delta and its self-advection at twice that, for both
    # delta = 0.25 and delta = 0.5.
    traj = ladder_run["traj"]
    useries = norm_series(traj, NormSpec(1.0, 0.0))
    ufit = fit_rate(useries)

    table = ModeTable(48)  # products of ball-12 modes live in ball 48
    lo, hi = tail_window(traj.t_end)
    idx = np.nonzero((traj.times >= lo) & (traj.times <= hi))[0][::10]
    btimes, bvals = [], []
    spec = NormSpec(0.5, 0.0)
    for i in idx:
        dense = table.densify(traj.state(i))
        b = table.to_field(table.convolve(dense))
        btimes.append(float(traj.times[i]))
        bvals.append(norm(b, spec))
    bseries = NormSeries(np.array(btimes), np.array(bvals))
    bfit = fit_rate(bseries, window=(lo, hi))

    for delta in (0.25, 0.5):
        assert rate_claim_passes(ufit, 1.0 - delta)
        assert rate_claim_passes(bfit, 2.0 * (1.0 - delta))
