"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results through different code paths
than the package (plain-dict convolution, dense linear solves, the
three-square characterization) so agreement is evidence, not tautology.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from nsexpand import (
    FieldPolynomial,
    ForceExpansion,
    NormSpec,
    SolverConfig,
    SpectralField,
    Trajectory,
    eigenvalue,
    integrate,
    leray_project,
    norm,
    norm_series,
)
from nsexpand.cli import fitted_constants, write_expansion
from nsexpand.galerkin import evaluate_force
from nsexpand.scenario import scenario_from_doc
from nsexpand.serialize import dumps_json, field_to_literal, poly_to_literal
from nsexpand.spectral import eigenspace_project

# One profile for every property test: the same examples on every run, so two
# runs of the suite (say, before and after a change) test the same inputs, and
# no per-example deadline, since the first example pays for numpy and table setup.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


# -- shared strategies ----------------------------------------------------------

FIELD_POOL = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, -1), (1, 1, 0), (1, -1, 2), (2, 0, 0), (1, 2, -1)
]
# exact and signed zeros among the values, so absent modes and zero components are drawn
_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-3.0, 3.0))
small_fields = st.dictionaries(
    st.sampled_from(FIELD_POOL), st.lists(_value, min_size=6, max_size=6), max_size=4
).map(lambda d: SpectralField({k: np.array(v[:3]) + 1j * np.array(v[3:]) for k, v in d.items()}))


# -- independent oracles -------------------------------------------------------


def full_modes(u: SpectralField):
    """Iterate (k, coefficient) over both halves of every pair: c(-k) = conj c(k)."""
    for k, c in u.modes():
        yield k, c
        yield (-k[0], -k[1], -k[2]), np.conj(c)


def brute_force_bilinear(u: SpectralField, v: SpectralField) -> dict:
    """Reference convolution: plain dict over every ordered full-mode pair.

    Returns a representative-keyed dict of numpy 3-vectors (Leray-projected),
    built without using spectral.bilinear or the solver's FFT kernel.
    """
    full_u, full_v = dict(full_modes(u)), dict(full_modes(v))
    acc = {}
    for m, cu in full_u.items():
        for l, cv in full_v.items():
            k = (m[0] + l[0], m[1] + l[1], m[2] + l[2])
            if k == (0, 0, 0):
                continue
            term = 1j * (cu[0] * l[0] + cu[1] * l[1] + cu[2] * l[2]) * cv
            if k in acc:
                acc[k] = acc[k] + term
            else:
                acc[k] = term
    out = {}
    for k, c in acc.items():
        kv = np.array(k, dtype=float)
        lam = float(kv @ kv)
        proj = c - ((c @ kv) / lam) * kv
        if k > (0, 0, 0):
            out[k] = out.get(k, 0) + proj
        else:
            kr = (-k[0], -k[1], -k[2])
            out[kr] = out.get(kr, 0) + np.conj(proj)
    # both halves were accumulated; the pair contributes its projection once
    return {k: c / 2.0 for k, c in out.items()}


def sum_of_three_squares(n: int) -> bool:
    """Legendre's characterization: n is a sum of three squares iff n != 4^a (8b+7)."""
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


def resolvent_oracle(p: FieldPolynomial, beta: float) -> FieldPolynomial:
    """Solve q' + beta q = p for beta != 0 as a dense linear system per component.

    The coefficient identity beta q_j + (j+1) q_{j+1} = p_j is assembled as an
    upper-triangular matrix and solved with numpy, one (mode, component) at a
    time.
    """
    assert beta != 0
    d = len(p.coeffs())
    if d == 0:
        return FieldPolynomial.zero()
    support = sorted(set().union(*(c.support() for c in p.coeffs())))
    mat = np.zeros((d, d))
    for j in range(d):
        mat[j, j] = beta
        if j + 1 < d:
            mat[j, j + 1] = j + 1
    out_coeffs = [dict() for _ in range(d)]
    for k in support:
        rhs = np.array([c._rows(np.array([k]))[0] for c in p.coeffs()])  # (d, 3)
        sol = np.linalg.solve(mat, rhs)
        for j in range(d):
            out_coeffs[j][k] = sol[j]
    return FieldPolynomial([SpectralField(oc) for oc in out_coeffs])


def field_resolvent_oracle(p: FieldPolynomial, beta: float) -> FieldPolynomial:
    """Solve q' + beta q = p for one beta on every mode, in field arithmetic: the
    back-substitution q_j = (p_j - (j + 1) q_{j+1}) / beta, or for beta = 0 the
    antiderivative with zero constant term."""
    pc = p.coeffs()
    if beta == 0.0:
        return FieldPolynomial([SpectralField.zero()] + [c * (1.0 / (j + 1)) for j, c in enumerate(pc)])
    out = [SpectralField.zero()] * len(pc)
    above = SpectralField.zero()
    for j in range(len(pc) - 1, -1, -1):
        above = out[j] = (pc[j] - float(j + 1) * above) * (1.0 / beta)
    return FieldPolynomial(out)


def eigenspace_solve_oracle(p: FieldPolynomial, n: int) -> tuple[FieldPolynomial, bool]:
    """Level n's zero-constant solve of q' + (A - n) q = p eigenspace by eigenspace: each
    block |k|^2 = lam of p solved with beta = lam - n, the disjoint solutions summed.
    Also whether p has a block at lam = n."""
    lams = sorted({eigenvalue(k) for c in p.coeffs() for k in c.support()})
    q = FieldPolynomial.zero()
    for lam in lams:
        block = p.map_coeffs(lambda c, lam=lam: eigenspace_project(c, lam))
        q = q + field_resolvent_oracle(block, float(lam - n))
    return q, n in lams


def assert_same_bits(p: FieldPolynomial, q: FieldPolynomial):
    """The two polynomials hold the same modes and the same coefficient bits, signed zeros included."""
    assert len(p.coeffs()) == len(q.coeffs())
    for a, b in zip(p.coeffs(), q.coeffs()):
        assert a.support() == b.support()
        assert np.array_equal(a._c.view(np.int64), b._c.view(np.int64))


def emit_by_value(obj, level: int = 0) -> str:
    """`dumps_json`'s text of `obj` without its final newline, each sequence item emitted on
    its own: the generic per-value list branch, kept as the reference for the float-series
    template. Scalars take `dumps_json`'s own text."""
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        pad = "  " * (level + 1)
        items = [pad + emit_by_value(v, level + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]"
    return dumps_json(obj)[:-1]


def eval_physical(u: SpectralField, x) -> np.ndarray:
    """Evaluate the velocity field at a physical point by direct mode summation."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(3, dtype=complex)
    for k, c in full_modes(u):
        total += c * np.exp(1j * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]))
    return total


def random_div_free_field(rng, kmax=2, n_modes=4, scale=1.0) -> SpectralField:
    """Random field on representatives with |k|_inf <= kmax, Leray-projected."""
    reps = [
        (a, b, c)
        for a in range(-kmax, kmax + 1)
        for b in range(-kmax, kmax + 1)
        for c in range(-kmax, kmax + 1)
        if (a, b, c) > (0, 0, 0)
    ]
    picks = rng.choice(len(reps), size=min(n_modes, len(reps)), replace=False)
    coeffs = {}
    for i in picks:
        coeffs[reps[i]] = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return leray_project(SpectralField(coeffs))


# -- the shared rate-ladder scenario -------------------------------------------


def ladder_phi() -> SpectralField:
    """Constant force direction on |k|^2 = 2, non-colinear pair, |phi| = 0.05."""
    raw = SpectralField(
        {
            (1, 1, 0): [0.6 + 0.2j, -0.6 - 0.2j, 0.5 - 0.1j],
            (1, 0, 1): [0.4 - 0.3j, 0.7 + 0.1j, -0.4 + 0.3j],
        }
    )
    phi = leray_project(raw)
    return phi * (0.05 / norm(phi))


def ladder_force() -> ForceExpansion:
    return ForceExpansion(((1, FieldPolynomial.constant(ladder_phi())),))


def ladder_scenario_doc(
    name="rate-ladder",
    mode_cutoff=12,
    step=1e-3,
    t_end=12.0,
    sample_stride=10,
    n_max=2,
    norm_specs=((0.5, 0.0), (0.5, 0.1)),
    certificates=True,
    resonant=None,
):
    doc = {
        "name": name,
        "force": {"terms": [{"n": 1, "poly": poly_to_literal(FieldPolynomial.constant(ladder_phi()))}]},
        "initial": [],
        "expansion": {
            "N_max": n_max,
            "target_epsilon": 0.5,
            "norm_specs": [list(s) for s in norm_specs],
        },
        "solver": {
            "mode_cutoff": mode_cutoff,
            "step": step,
            "t_end": t_end,
            "sample_stride": sample_stride,
        },
    }
    if resonant:
        doc["expansion"]["resonant"] = {
            str(n): field_to_literal(f) for n, f in resonant.items()
        }
    if certificates:
        doc["certificates"] = [
            {"alpha": 0.5, "delta": 0.5, "lambda": 1.0, "sigma": 0.0, "K": 2.0}
        ]
    return doc


@pytest.fixture(scope="session")
def ladder_run(tmp_path_factory):
    """One full criterion-3 run shared by the analysis and acceptance tests.

    Integrates the M=12 ladder scenario (T=12, h=1e-3), then builds the
    two-level expansion with trajectory-fitted resonant constants, exactly as
    the verify pipeline does. Wall time of the integration is recorded.
    """
    scenario = scenario_from_doc(ladder_scenario_doc())
    t0 = time.perf_counter()
    traj = integrate(scenario.initial, scenario.force, scenario.solver)
    integrate_seconds = time.perf_counter() - t0
    run_dir = tmp_path_factory.mktemp("ladder")
    (run_dir / "expansion").mkdir()
    terms = write_expansion(scenario, run_dir, fitted_constants(scenario, traj, {})).terms
    return {
        "scenario": scenario,
        "traj": traj,
        "terms": terms,
        "integrate_seconds": integrate_seconds,
        "run_dir": run_dir,
    }


def assert_fields_close(a: SpectralField, b: SpectralField, rtol=1e-12, atol=0.0):
    scale = max(a.max_abs(), b.max_abs())
    gap = (a - b).max_abs()
    assert gap <= atol + rtol * scale, f"fields differ by {gap:.3e} (scale {scale:.3e})"


def levels_at(terms, t: float) -> SpectralField:
    """sum_n q_n(t) e^{-n t} as one field, each q_n(t) by Horner's rule in field
    arithmetic: the per-time reference for `assemble`."""
    total = SpectralField.zero()
    for n, q in terms:
        qt = SpectralField.zero()
        for c in reversed(q.coeffs()):
            qt = qt * t + c
        total = total + qt * math.exp(-n * t)
    return total


# -- the energy and regularity gates (criteria 6 and 9) -----------------------------


def energy_ledger(traj: Trajectory, force: ForceExpansion) -> np.ndarray:
    """Per-interval defect of the energy balance on the sample grid.

    Interval i reports
        1/2|u_{i+1}|^2 - 1/2|u_i|^2 + int ||u||^2 - int <F, u>
    with both integrals by the trapezoid rule, so the defect of an exact
    trajectory is pure quadrature error: O(spacing^2) per unit time.
    """
    t = traj.times
    energy = 0.5 * norm_series(traj, NormSpec(0.0, 0.0)).values ** 2
    enstrophy = norm_series(traj, NormSpec(0.5, 0.0)).values ** 2
    # <F, u> = 2 sum_k Re(F(k) . conj(u(k))) over the flow's modes; the force is zero off its own
    parts = 2.0 * np.vecdot(traj.coeffs, evaluate_force(force, traj.modes, t)).real
    work = sum(parts.T, np.zeros(len(traj)))
    dt = np.diff(t)
    return (
        energy[1:]
        - energy[:-1]
        + 0.5 * dt * (enstrophy[1:] + enstrophy[:-1])
        - 0.5 * dt * (work[1:] + work[:-1])
    )


def finite_approximation_plan(
    alpha_star: float, mu_star: float, n_levels: int
) -> list[tuple[int, float, float]]:
    """Per-level regularity budget (n, alpha_n, mu_n) for an n_levels expansion.

    Each level costs half an order of smoothness in both indices:
    alpha_n = alpha_* - (n-1)/2 and mu_n = mu_* - (n-1)/2. Admissibility
    requires mu_* >= alpha_* >= n_levels / 2, so that even the deepest level
    retains a positive budget.
    """
    n_levels = int(n_levels)
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if not (mu_star >= alpha_star):
        raise ValueError(
            f"inadmissible plan: need mu_* >= alpha_*, got mu_*={mu_star}, alpha_*={alpha_star}"
        )
    if not (alpha_star >= n_levels / 2):
        raise ValueError(
            f"inadmissible plan: need alpha_* >= n_levels/2 = {n_levels / 2}, "
            f"got alpha_*={alpha_star}; reduce the level count or raise the regularity"
        )
    return [
        (n, alpha_star - (n - 1) / 2, mu_star - (n - 1) / 2)
        for n in range(1, n_levels + 1)
    ]
