"""Build expansion levels for a constant-profile decaying force.

The force has a single level-1 term supported on the |k|^2 = 2 eigenspace,
so level 1 solves a plain resolvent equation while level 2 hits the
resonance lam = n = 2 produced by the self-interaction of level 1. Prints
each level's polynomial degree, support, and the exactness residual of the
level equation.
"""

import argparse

from nsexpand import (
    FieldPolynomial,
    ForceExpansion,
    SpectralField,
    build_expansion,
    eigenvalue,
    leray_project,
    norm,
)


def constant_profile(amplitude):
    raw = SpectralField(
        {
            (1, 1, 0): [0.6 + 0.2j, -0.6 - 0.2j, 0.5 - 0.1j],
            (1, 0, 1): [0.4 - 0.3j, 0.7 + 0.1j, -0.4 + 0.3j],
        }
    )
    phi = leray_project(raw)
    return phi * (amplitude / norm(phi))


def main():
    parser = argparse.ArgumentParser(description="asymptotic expansion ladder")
    parser.add_argument("--levels", type=int, default=3, help="levels to construct")
    parser.add_argument("--amplitude", type=float, default=0.05, help="|f_1| at t = 0")
    args = parser.parse_args()

    phi = constant_profile(args.amplitude)
    force = ForceExpansion(((1, FieldPolynomial.constant(phi)),))
    result = build_expansion(force, args.levels)

    print(f"force: level-1 constant profile on |k|^2 = 2, amplitude {args.amplitude}")
    for n, q in result.terms:
        lams = sorted({eigenvalue(k) for c in q.coeffs() for k in c.support()})
        print(
            f"level {n}: degree {q.degree}, eigenvalues {lams}, "
            f"residual {result.residuals[n]:.2e}"
        )
    if result.resonance_log:
        hits = ", ".join(f"level {n} at lam = {lam}" for n, lam in result.resonance_log)
        print(f"resonant branches taken: {hits} (free constants defaulted to zero)")
    else:
        print("no resonant branches hit")


if __name__ == "__main__":
    main()
