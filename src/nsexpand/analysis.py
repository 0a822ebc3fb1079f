"""Measurement side: norm series along trajectories, tail rate fits, and
decay certificates. Decay levels, the force's included, come from
`fieldpoly.assemble` as (samples, modes, 3) blocks; nothing here evaluates them.

Rates are fitted by least squares on (t, ln value). Values below a relative
floor (1e-13 of the series peak) are treated as numerically zero and excluded
from fits; a series that is entirely at the floor yields a flagged non-fit
rather than a meaningless slope. The tolerance convention used throughout:
a claim "slope <= -r" passes when the fitted slope is <= -r + 0.05 with rms
residual <= 0.1, which absorbs polynomial-in-t corrections on top of clean
exponentials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .expansion import ForceExpansion
from .fieldpoly import _decay, _plus, assemble, level_support
from .galerkin import Trajectory, evaluate_force
from .spectral import NormSpec, SpectralField, _mode_rows, _mode_union, _norms, eigenvalues_up_to, norm

__all__ = [
    "FLOOR_FACTOR",
    "FitError",
    "NormSeries",
    "RateFit",
    "ResonantConstantFit",
    "DecayCertificate",
    "CertificateReport",
    "tail_window",
    "norm_series",
    "remainder_series",
    "fit_rate",
    "rate_claim_passes",
    "fit_resonant_constant",
    "certificate_check",
]

FLOOR_FACTOR = 1e-13
RATE_SLACK = 0.05
RMS_MAX = 0.1


class FitError(ValueError):
    """Window unusable for a fit (too few samples above the floor)."""


@dataclass(frozen=True)
class NormSeries:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values length mismatch")

    def peak(self) -> float:
        return float(np.max(self.values)) if len(self.values) else 0.0


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    rms_residual: float
    window: tuple[float, float]
    n_samples: int
    floor_dominated: bool = False


@dataclass(frozen=True)
class ResonantConstantFit:
    """Estimated free constant of one resonant level, with fit quality.

    `constant` is the estimate (mean of the compensated series over the
    window); `stddev` its scatter in the unweighted norm; `drift` the fitted
    linear trend across the window relative to the constant's size. Drift
    above 10% marks the window as contaminated (too early: higher levels
    still visible; or too late: amplified simulation error).
    """

    constant: SpectralField
    stddev: float
    drift: float
    contaminated: bool
    window: tuple[float, float]
    n_samples: int


def tail_window(t_end: float, lo: float = 0.6, hi: float = 0.95) -> tuple[float, float]:
    """Default fitting window: the [lo, hi] fraction of the horizon."""
    return (lo * t_end, hi * t_end)


def _joined(traj: Trajectory, terms, idx=slice(None), n=None):
    """The trajectory's modes joined with the levels' support (on |k|^2 = n if given), as a
    (K, 3) array in key order, and per mode the trajectory's column at the samples idx."""
    modes = _mode_union(traj.modes, level_support(terms))
    modes = modes if n is None else modes[(modes * modes).sum(axis=1) == n]
    zero = np.zeros((len(traj.times[idx]), 3), dtype=np.complex128)
    rows = _mode_rows(modes, traj.modes).tolist()
    return modes, [traj.coeffs[idx, r] if r >= 0 else zero for r in rows]


def norm_series(traj: Trajectory, spec: NormSpec) -> NormSeries:
    values = _norms(traj.coeffs.transpose(1, 0, 2), traj.modes, spec, len(traj))
    return NormSeries(traj.times.copy(), values)


def remainder_series(traj: Trajectory, terms, spec: NormSpec) -> NormSeries:
    """|u(t_i) - sum_n q_n(t_i) e^{-n t_i}| in the given norm; empty terms = plain norm.
    Equal to norm(state_i - levels_i, spec) with field arithmetic, formed one mode at a time."""
    terms = tuple(terms)
    modes, u = _joined(traj, terms)
    held = _mode_rows(modes, level_support(terms)) >= 0
    columns = (_plus(c, assemble(terms, k[None], traj.times)[:, 0] * -1.0) if h else c
               for k, c, h in zip(modes, u, held))
    return NormSeries(traj.times.copy(), _norms(columns, modes, spec, len(traj)))


def fit_rate(series: NormSeries, window: tuple[float, float] | None = None) -> RateFit:
    """Least-squares slope of ln(value) over the window, floor-aware.

    Excludes samples below FLOOR_FACTOR x (series peak); if the whole window
    sits at the floor the result is flagged floor_dominated with NaN slope
    (no meaningful rate exists). A window without samples, or with fewer
    than 8 usable ones, is an error.
    """
    if window is None:
        window = tail_window(float(series.times[-1]))
    a, b = float(window[0]), float(window[1])
    if not (a < b):
        raise ValueError(f"empty window {window}")
    t, v = series.times, series.values
    in_win = (t >= a - 1e-12) & (t <= b + 1e-12)
    if not in_win.any():
        raise FitError(f"window [{a:.4g}, {b:.4g}] holds no samples; series ends at {t[-1]:.4g}")
    peak = series.peak()
    floor = FLOOR_FACTOR * peak
    usable = in_win & (v > floor)
    m = int(np.count_nonzero(usable))
    if m == 0 or peak == 0.0:
        return RateFit(math.nan, math.nan, math.nan, (a, b), 0, floor_dominated=True)
    if m < 8:
        raise FitError(
            f"only {m} usable samples in window [{a:.4g}, {b:.4g}]; need >= 8"
        )
    x = t[usable]
    y = np.log(v[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(float(slope), float(intercept), rms, (a, b), m)


def rate_claim_passes(fit: RateFit, rate: float) -> bool:
    """Tolerance convention for 'decays at least like e^{-rate t}'."""
    if fit.floor_dominated:
        return False
    return fit.slope <= -rate + RATE_SLACK and fit.rms_residual <= RMS_MAX


def fit_resonant_constant(
    traj: Trajectory, terms, n: int, window: tuple[float, float] | None = None
) -> ResonantConstantFit:
    """Estimate the free constant of resonant level n from a trajectory.

    `terms` holds built (k, q_k) levels, level n among them with a zero free
    constant. The flow minus all of them, rescaled by e^{n t} and projected on
    the |k|^2 = n eigenspace, is constant for the underlying solution up to
    faster-decaying levels, so its windowed mean estimates the constant and
    its linear trend measures contamination. If q_n already carries a
    constant, the mean is the correction to it.
    """
    spectrum = set(eigenvalues_up_to(int(n)))
    if int(n) not in spectrum:
        raise ValueError(
            f"{n} is not a Stokes eigenvalue (not a sum of three squares); "
            "no resonant constant exists at this level"
        )
    n = int(n)
    terms = tuple(terms)
    if n not in (k for k, _ in terms):
        raise ValueError(f"terms must include level {n}, solved with a zero constant")
    if window is None:
        window = tail_window(traj.t_end, 0.8, 0.95)
    a, b = float(window[0]), float(window[1])

    idx = np.nonzero((traj.times >= a - 1e-12) & (traj.times <= b + 1e-12))[0]
    if len(idx) < 2:
        raise FitError(f"window [{a:.4g}, {b:.4g}] holds fewer than 2 samples")
    t, m = traj.times[idx], len(idx)
    # w_i = (u_i - sum_k q_k(t_i) e^{-k t_i}) e^{n t_i} on the |k|^2 = n eigenspace
    kn, u = _joined(traj, terms, idx, n)
    u = np.reshape(u, (len(kn), m, 3)).transpose(1, 0, 2)   # (sample, mode, component)
    w = _plus(u, assemble(terms, kn, t) * -1.0) * _decay(-n, t)[:, None, None]

    mean_rows = functools.reduce(_plus, w) * (1.0 / m)   # summed in sample order
    mean = SpectralField(zip(kn.tolist(), mean_rows))
    spread = _norms(_plus(w, mean_rows * -1.0).transpose(1, 0, 2), kn, NormSpec(0.0), m)
    stddev = math.sqrt(math.fsum(v**2 for v in spread.tolist()) / m)

    # per-coefficient linear trend; drift = |trend x window length| / |constant|
    tc = t - t.mean()
    var = float(tc @ tc)
    drift_norm = 0.0
    if var > 0:
        slopes = np.einsum("s,skc->kc", tc, np.ascontiguousarray(w)) / var
        drift_norm = norm(SpectralField(zip(kn.tolist(), slopes * (b - a))))
    base = norm(mean)
    drift = drift_norm / base if base > 0 else (math.inf if drift_norm > 0 else 0.0)
    return ResonantConstantFit(mean, stddev, drift, drift > 0.1, (a, b), m)


@dataclass(frozen=True)
class DecayCertificate:
    """Smallness certificate: checked hypotheses imply quantified decay.

    With initial data |A^alpha u0| <= C0 and force |f(t)|_{alpha-1/2, sigma}
    <= C1 e^{-lam t}, the flow obeys
        |u(t)|_{alpha, sigma} <= sqrt(2) C0 e^{-(1-delta) t}     for t >= t_star
        int_t^{t+1} |u|^2_{alpha+1/2, sigma} <= 3 C0^2 / (2(1-delta)) e^{-2(1-delta) t}.
    C0, C1 are determined by (alpha, delta, lam, sigma) and the advection
    constant K; sigma > 0 costs a startup time t_star = 6 sigma / delta.
    """

    alpha: float
    delta: float
    lam: float
    sigma: float = 0.0
    K: float = 2.0

    def __post_init__(self):
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not (1 - self.delta < self.lam <= 1):
            raise ValueError(
                f"lam must lie in (1 - delta, 1] = ({1 - self.delta}, 1], got {self.lam}"
            )
        if not (self.alpha >= 0.5):
            raise ValueError(f"alpha must be >= 1/2, got {self.alpha}")
        if not (self.sigma >= 0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (self.K > 1):
            raise ValueError(f"K must exceed 1, got {self.K}")

    @property
    def C0(self) -> float:
        if self.sigma > 0:
            return self.delta / (6.0 * self.K**self.alpha)
        return self.delta / (4.0 * self.K**self.alpha)

    @property
    def C1(self) -> float:
        gap = self.delta * (self.lam - 1.0 + self.delta)
        if self.sigma > 0:
            return (2.0 / math.sqrt(3.0)) * math.sqrt(gap) * self.C0
        return math.sqrt(2.0) * math.sqrt(gap) * self.C0

    @property
    def t_star(self) -> float:
        return 6.0 * self.sigma / self.delta


@dataclass(frozen=True)
class CertificateReport:
    certificate: DecayCertificate
    hypothesis_failures: tuple[str, ...]
    pointwise_times: np.ndarray
    pointwise_margins: np.ndarray
    integral_times: np.ndarray
    integral_margins: np.ndarray
    integral_skipped: bool = False  # sample spacing does not divide 1

    @property
    def applicable(self) -> bool:
        return not self.hypothesis_failures

    @property
    def conclusions_hold(self) -> bool:
        return bool(
            np.all(self.pointwise_margins >= 0) and np.all(self.integral_margins >= 0)
        )

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        return "verified" if self.conclusions_hold else "violated"

    def min_margin(self) -> float:
        vals = np.concatenate([self.pointwise_margins, self.integral_margins])
        return float(np.min(vals)) if len(vals) else math.inf


def certificate_check(
    traj: Trajectory, cert: DecayCertificate, force: ForceExpansion
) -> CertificateReport:
    """Gate the hypotheses on the actual data, then measure the conclusions.

    Hypothesis failure yields verdict "inapplicable" (the certificate says
    nothing); margins are still computed for inspection. Conclusions are
    checked at every sample past t_star, the integral one on unit windows
    anchored at samples; when the sample spacing does not divide 1 the
    integral check is skipped and the report says so. A trajectory that ends
    before t_star leaves nothing to check, which is a hypothesis failure.
    """
    c0, c1, t_star = cert.C0, cert.C1, cert.t_star
    failures = []
    lhs = norm(traj.state(0), NormSpec(cert.alpha, 0.0))
    if lhs > c0 * (1 + 1e-12):
        failures.append(
            f"initial data: |A^alpha u0| = {lhs:.6e} exceeds C0 = {c0:.6e}"
        )
    modes = level_support(force.terms)
    forces = evaluate_force(force, modes, traj.times).transpose(1, 0, 2)
    fvals = _norms(forces, modes, NormSpec(cert.alpha - 0.5, cert.sigma), len(traj))
    bound = c1 * _decay(cert.lam, traj.times)
    over = np.flatnonzero(fvals > bound * (1 + 1e-12) + 1e-300)
    if over.size:
        i = over[0]
        failures.append(
            f"force at t = {traj.times[i]:.6g}: |f|_(alpha-1/2, sigma) = {fvals[i]:.6e} "
            f"exceeds C1 e^(-lam t) = {bound[i]:.6e}"
        )

    rate = 1.0 - cert.delta
    late = traj.times >= t_star - 1e-12
    pw_t = traj.times[late]
    values = norm_series(traj, NormSpec(cert.alpha, cert.sigma)).values[late]
    pw_m = math.sqrt(2.0) * c0 * _decay(rate, pw_t) - values
    if not pw_t.size:
        failures.append(f"no sample at or after t_star = {t_star:.6g}; last sample at {traj.t_end:.6g}")

    spacing = traj.spacing
    steps = int(round(1.0 / spacing))
    it_t = it_m = np.empty(0)
    skipped = not (steps >= 1 and abs(steps * spacing - 1.0) <= 1e-6)
    if not skipped:
        vals = norm_series(traj, NormSpec(cert.alpha + 0.5, cert.sigma)).values ** 2
        coef = 3.0 * c0 * c0 / (2.0 * rate)
        # np.trapezoid's own terms, summed once per unit window: the sum from sample i
        # equals np.trapezoid(vals[i : i + steps + 1], dx=spacing) to the bit
        terms = spacing * (vals[1:] + vals[:-1]) / 2.0
        if len(terms) >= steps:
            integrals = np.add.reduce(sliding_window_view(terms, steps), axis=1)
            late = late[: len(integrals)]
            it_t = traj.times[: len(integrals)][late]
            it_m = coef * _decay(2.0 * rate, it_t) - integrals[late]
    return CertificateReport(cert, tuple(failures), pw_t, pw_m, it_t, it_m, skipped)
