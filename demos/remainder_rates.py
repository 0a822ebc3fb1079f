"""Remainder decay rates: simulate, compensate, fit log-linear slopes.

Integrates the constant-profile-force flow from rest, builds expansion
levels 1 and 2 (fitting the level-2 free constant from the trajectory
itself), and fits the decay rate of |u - sum of first N levels| for
N = 0, 1, 2. Each extra level should steepen the fitted slope by roughly
one unit until simulation error takes over.
"""

import argparse

from nsexpand import (
    FieldPolynomial,
    ForceExpansion,
    NormSpec,
    SolverConfig,
    SpectralField,
    build_expansion,
    fit_rate,
    fit_resonant_constant,
    integrate,
    leray_project,
    norm,
    rate_claim_passes,
    remainder_series,
)


def ladder_force(amplitude):
    raw = SpectralField(
        {
            (1, 1, 0): [0.6 + 0.2j, -0.6 - 0.2j, 0.5 - 0.1j],
            (1, 0, 1): [0.4 - 0.3j, 0.7 + 0.1j, -0.4 + 0.3j],
        }
    )
    phi = leray_project(raw)
    phi = phi * (amplitude / norm(phi))
    return ForceExpansion(((1, FieldPolynomial.constant(phi)),))


def main():
    parser = argparse.ArgumentParser(description="remainder decay-rate fits")
    parser.add_argument("--t-end", type=float, default=6.0, help="integration horizon")
    parser.add_argument("--cutoff", type=int, default=6, help="Galerkin eigenvalue cutoff")
    parser.add_argument("--step", type=float, default=0.01, help="solver step")
    args = parser.parse_args()

    force = ladder_force(0.05)
    config = SolverConfig(args.cutoff, args.step, args.t_end, sample_stride=10)
    traj = integrate(SpectralField.zero(), force, config)
    print(f"integrated {len(traj)} samples to t = {args.t_end:g}")

    # level 1 is non-resonant here; level 2 needs its free constant fitted,
    # on the trajectory compensated by levels 1 and 2 (the latter built with
    # a zero constant)
    def fitted(n, levels):
        if n != 2:
            return None
        fit = fit_resonant_constant(traj, levels, n)
        print(f"level-2 free constant: |xi_2| = {norm(fit.constant):.6f} "
              f"(stddev {fit.stddev:.1e}, drift {fit.drift:.1e}, "
              f"contaminated: {fit.contaminated})")
        return fit.constant

    terms = build_expansion(force, 2, resonant=fitted).terms

    spec = NormSpec(0.5, 0.0)
    for n_levels in (0, 1, 2):
        series = remainder_series(traj, terms[:n_levels], [spec])[0]
        fit = fit_rate(series)
        claim = n_levels + 0.5
        verdict = "pass" if rate_claim_passes(fit, claim) else "fail"
        print(f"N = {n_levels}: slope {fit.slope:+.4f} (rms {fit.rms_residual:.1e}) "
              f"vs claim <= -{claim:g}: {verdict}")


if __name__ == "__main__":
    main()
