"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance and runtime budget; the
printed line survives pytest's capture so a plain `pytest tests/test_acceptance.py`
shows the scoreboard.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    energy_ledger,
    eval_physical,
    finite_approximation_plan,
    ladder_scenario_doc,
    levels_at,
    random_div_free_field,
    resolvent_oracle,
    sum_of_three_squares,
)
from nsexpand import (
    DecayCertificate,
    FieldPolynomial,
    ForceExpansion,
    NormSpec,
    SolverConfig,
    SpectralField,
    bilinear,
    build_expansion,
    certificate_check,
    eigenvalues_up_to,
    fit_rate,
    inner,
    integrate,
    leray_project,
    norm,
    poly_bilinear,
    rate_claim_passes,
    remainder_series,
)
from nsexpand.cli import fitted_constants, write_expansion
from nsexpand.fieldpoly import resolvent_solve
from nsexpand.scenario import scenario_from_doc
from nsexpand.spectral import eigenspace_project


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def ladder_m24_run(tmp_path_factory):
    """Criterion-3 scenario rerun at doubled cutoff, for the robustness check."""
    scenario = scenario_from_doc(ladder_scenario_doc(name="rate-ladder-m24", mode_cutoff=24))
    traj = integrate(scenario.initial, scenario.force, scenario.solver)
    run_dir = tmp_path_factory.mktemp("ladder24")
    (run_dir / "expansion").mkdir()
    terms = write_expansion(scenario, run_dir, fitted_constants(scenario, traj, {})).terms
    return {"traj": traj, "terms": terms}


def remainder_slopes(run, spec):
    traj, terms = run["traj"], run["terms"]
    out = {}
    for N in (1, 2):
        series = remainder_series(traj, [(n, q) for n, q in terms if n <= N], [spec])[0]
        out[N] = fit_rate(series)
    return out


# -- criterion 1: expansion exactness on random scenarios ---------------------------


def test_criterion_1_expansion_exactness(capsys):
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        present = sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        levels = {}
        for n in present:
            degree = int(rng.integers(0, 4))
            levels[int(n)] = FieldPolynomial(
                [random_div_free_field(rng, 2, 4) for _ in range(degree + 1)]
            )
        resonant = {}
        for n in (1, 2, 3):
            if rng.random() < 0.4:
                xi = eigenspace_project(random_div_free_field(rng, 2, 6), n)
                if not xi.is_zero:
                    resonant[n] = xi
        result = build_expansion(ForceExpansion(tuple(levels.items())), 3, resonant)
        worst = max(worst, result.max_residual())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(capsys, 1, ok, f"max residual {worst:.2e} over 20 scenarios in {elapsed:.2f}s")


# -- criterion 2: manufactured steady profile ---------------------------------------


def test_criterion_2_manufactured_solution(capsys):
    q = SpectralField({(1, 0, 0): [0, 0.25, 0.25j], (0, 1, 0): [0.5, 0, -0.125]})
    f2 = poly_bilinear(FieldPolynomial.constant(q), FieldPolynomial.constant(q))
    force = ForceExpansion(((2, f2),))
    result = build_expansion(force, 2, resonant={1: q})
    exact = (
        result.polynomial(1) == FieldPolynomial.constant(q)
        and result.polynomial(2).is_zero
    )

    t0 = time.perf_counter()
    traj = integrate(q, force, SolverConfig(8, 1e-3, 5.0, sample_stride=10))
    spec = NormSpec(0.0, 0.0)
    rel = 0.0
    for i, t in enumerate(traj.times):
        expect = levels_at(result.terms, float(t))
        rel = max(rel, norm(traj.state(i) - expect, spec) / norm(expect, spec))
    elapsed = time.perf_counter() - t0
    ok = exact and rel <= 1e-6 and elapsed < 30.0
    report(
        capsys, 2, ok,
        f"levels exact: {exact}; max relative reproduction error {rel:.2e} in {elapsed:.1f}s",
    )


# -- criteria 3/4: remainder decay ladder ---------------------------------------------


def test_criterion_3_rate_ladder(capsys, ladder_run):
    fits = remainder_slopes(ladder_run, NormSpec(0.5, 0.0))
    ok = (
        rate_claim_passes(fits[1], 1.5)
        and rate_claim_passes(fits[2], 2.5)
        and fits[1].slope <= -1.45
        and fits[2].slope <= -2.45
        and ladder_run["integrate_seconds"] < 120.0
    )
    report(
        capsys, 3, ok,
        f"slopes N=1: {fits[1].slope:.4f} (<= -1.45), N=2: {fits[2].slope:.4f} (<= -2.45); "
        f"integration {ladder_run['integrate_seconds']:.1f}s",
    )


def test_criterion_4_rate_ladder_gevrey(capsys, ladder_run):
    fits = remainder_slopes(ladder_run, NormSpec(0.5, 0.1))
    ok = (
        rate_claim_passes(fits[1], 1.5)
        and rate_claim_passes(fits[2], 2.5)
        and fits[1].slope <= -1.45
        and fits[2].slope <= -2.45
    )
    report(
        capsys, 4, ok,
        f"sigma=0.1 slopes N=1: {fits[1].slope:.4f}, N=2: {fits[2].slope:.4f}",
    )


# -- criterion 5: decay certificate ---------------------------------------------------


def test_criterion_5_certificate(capsys, ladder_run):
    cert = DecayCertificate(alpha=0.5, delta=0.5, lam=1.0, sigma=0.0, K=2.0)
    t0 = time.perf_counter()
    rep = certificate_check(ladder_run["traj"], cert, ladder_run["scenario"].force)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.verdict == "verified"
        and rep.min_margin() > 0
        and len(rep.pointwise_times) == len(ladder_run["traj"])  # t_star = 0
        and len(rep.integral_times) > 0
        and elapsed < 60.0
    )
    report(
        capsys, 5, ok,
        f"verdict {rep.verdict}, min margin {rep.min_margin():.2e}, {elapsed:.1f}s",
    )


# -- criterion 6: energy identity -----------------------------------------------------


def test_criterion_6_energy_ledger(capsys, ladder_run):
    traj = ladder_run["traj"]
    force = ladder_run["scenario"].force
    defects = energy_ledger(traj, force)
    base_rate = float(np.max(np.abs(defects))) / traj.spacing

    # halve the step at fixed stride: sample spacing halves, defect rate quarters
    cfg = SolverConfig(12, 5e-4, 3.0, sample_stride=10)
    fine = integrate(SpectralField.zero(), force, cfg)
    fine_defects = energy_ledger(fine, force)
    fine_rate = float(np.max(np.abs(fine_defects))) / fine.spacing
    early = defects[: int(round(3.0 / traj.spacing))]
    early_rate = float(np.max(np.abs(early))) / traj.spacing
    ratio = early_rate / fine_rate

    ok = base_rate <= 1e-6 and ratio >= 3.5
    report(
        capsys, 6, ok,
        f"defect {base_rate:.2e} per unit time at h=1e-3; halving h reduces {ratio:.2f}x",
    )


# -- criterion 7: structural suite ----------------------------------------------------


def test_criterion_7_structural_suite(capsys, ladder_run):
    rng = np.random.default_rng(7)
    checks = {}

    # Leray idempotence and orthogonality on raw (compressible) fields
    worst_idem, worst_orth = 0.0, 0.0
    for _ in range(20):
        raw = SpectralField(
            {
                k: rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for k in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)]
            }
        )
        p = leray_project(raw)
        worst_idem = max(worst_idem, (leray_project(p) - p).max_abs() / p.max_abs())
        w = raw - p
        scale = max(norm(p) * norm(w), 1e-30)
        worst_orth = max(worst_orth, abs(inner(p, w)) / scale)
    checks["leray"] = worst_idem <= 1e-14 and worst_orth <= 1e-12

    # advection orthogonality b(u, v, v) = 0
    worst_b = 0.0
    for _ in range(20):
        u = random_div_free_field(rng, 2, 4)
        v = random_div_free_field(rng, 2, 4)
        b = bilinear(u, v)
        worst_b = max(worst_b, abs(inner(b, v)) / max(norm(b) * norm(v), 1e-30))
    checks["b_orthogonality"] = worst_b <= 1e-12

    # conjugate-pair realness and incompressibility along the computed flow
    worst_div, worst_imag = 0.0, 0.0
    xs = rng.uniform(0, 2 * math.pi, (3, 3))
    traj = ladder_run["traj"]
    for state in map(traj.state, range(0, len(traj), 100)):
        if state.is_zero:
            continue
        worst_div = max(worst_div, state.divergence_defect() / state.max_abs())
        for x in xs:
            val = eval_physical(state, x)
            worst_imag = max(worst_imag, float(np.max(np.abs(val.imag))) / norm(state))
    checks["trajectory_structure"] = worst_div <= 1e-11 and worst_imag <= 1e-11

    # smoothing inequality |A^alpha u| <= (2 alpha / (e sigma))^(2 alpha) |e^(sigma A^(1/2)) u|
    worst_als = 0.0
    combos = [(0.5, 0.3), (1.0, 0.1), (2.0, 1.0), (0.75, 0.5)]
    for i in range(100):
        alpha, sigma = combos[i % len(combos)]
        u = random_div_free_field(rng, 2, 5)
        lhs = norm(u, NormSpec(alpha, 0.0))
        rhs = (2 * alpha / (math.e * sigma)) ** (2 * alpha) * norm(u, NormSpec(0.0, sigma))
        worst_als = max(worst_als, lhs / rhs)
    checks["smoothing_inequality"] = worst_als <= 1.0 + 1e-10

    # spectrum gaps match the sum-of-three-squares characterization
    got = eigenvalues_up_to(100)
    missing = sorted(set(range(1, 101)) - set(got))
    checks["spectrum"] = (
        missing == [7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95]
        and all(sum_of_three_squares(n) for n in got)
        and not any(sum_of_three_squares(n) for n in missing)
    )

    # resolvent solve against the dense linear-system oracle
    worst_res = 0.0
    for beta in (-2.5, -1.0, 0.5, 1.0, 3.0):
        p = FieldPolynomial([random_div_free_field(rng, 2, 3) for _ in range(5)])
        got_q = resolvent_solve(p, beta)
        ref_q = resolvent_oracle(p, beta)
        scale = max(got_q.max_abs(), 1e-30)
        gap = (got_q - ref_q).max_abs()
        worst_res = max(worst_res, gap / scale)
    checks["resolvent"] = worst_res <= 1e-12

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    report(
        capsys, 7, ok,
        "all structural checks within tolerance" if ok else f"failed: {failed}",
    )


# -- criterion 8: truncation robustness ------------------------------------------------


def test_criterion_8_truncation_robustness(capsys, ladder_run, ladder_m24_run):
    spec = NormSpec(0.5, 0.0)
    f12 = remainder_slopes(ladder_run, spec)
    f24 = remainder_slopes(ladder_m24_run, spec)
    d1 = abs(f12[1].slope - f24[1].slope)
    d2 = abs(f12[2].slope - f24[2].slope)
    ok = d1 < 0.02 and d2 < 0.02
    report(
        capsys, 8, ok,
        f"slope shifts under M 12 -> 24: N=1 {d1:.2e}, N=2 {d2:.2e} (< 0.02)",
    )


# -- criterion 9: finite-approximation bookkeeping -------------------------------------


def test_criterion_9_approximation_plans(capsys):
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(10):
        n_star = int(rng.integers(1, 7))
        alpha_star = n_star / 2 + float(rng.uniform(0.0, 3.0))
        mu_star = alpha_star + float(rng.uniform(0.0, 3.0))
        plan = finite_approximation_plan(alpha_star, mu_star, n_star)
        expected = [
            (n, alpha_star - (n - 1) / 2, mu_star - (n - 1) / 2)
            for n in range(1, n_star + 1)
        ]
        ok = ok and plan == expected
    rejected = 0
    for bad in [(0.9, 5.0, 2), (2.0, 1.5, 2), (3.0, 5.0, 0)]:
        try:
            finite_approximation_plan(*bad)
        except ValueError:
            rejected += 1
    ok = ok and rejected == 3
    report(capsys, 9, ok, f"10 random plans exact; {rejected}/3 invalid triples rejected")
