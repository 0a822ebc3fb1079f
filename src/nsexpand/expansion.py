"""Level-by-level construction of slow-decay expansions.

For a force F(t) = sum_n f_n(t) e^{-n t} with field-polynomial coefficients,
the flow admits an expansion u(t) ~ sum_n q_n(t) e^{-n t} whose levels
decouple once the exponential weight is factored out: level n must satisfy

    q_n' + (A - n) q_n = p_n,    p_n = f_n - sum_{k+m=n} B~(q_k, q_m),

with B~ the polynomial advection product and A the Stokes operator. On the
eigenspace |k|^2 = lam the left side is d/dt + (lam - n), inverted exactly by
the coefficient back-substitution in `resolvent_solve`. At lam = n the
inversion has a one-dimensional kernel per mode: the constant term is a free
parameter of the expansion (different choices track different solutions with
the same force). Each level is solved with a zero constant; the supplied or
fitted constant (zero by default) is then added to its constant term.

Everything here is exact linear algebra on finite mode sets; residuals of the
level equations are rounding-level by construction and are re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fieldpoly import FieldPolynomial, level_support, poly_bilinear, resolvent_solve
from .spectral import SpectralField, _eigenvalues, eigenspace_project, eigenvalue

__all__ = [
    "ForceExpansion",
    "ExpansionResult",
    "LevelEquationError",
    "check_resonant_data",
    "level_source",
    "solve_level",
    "build_expansion",
    "expansion_residual",
]

RESIDUAL_TOL = 1e-10


class LevelEquationError(RuntimeError):
    """Built levels fail their own equations by more than RESIDUAL_TOL."""


@dataclass(frozen=True)
class ForceExpansion:
    """Force given as decay levels f_n(t) e^{-n t}.

    `terms` maps strictly increasing level indices n >= 1 to field
    polynomials with divergence-free coefficients.
    """

    terms: tuple[tuple[int, FieldPolynomial], ...]

    def __post_init__(self):
        seen = -1
        for n, poly in self.terms:
            if n != int(n) or n < 1:
                raise ValueError(f"force level must be a positive integer, got {n}")
            if n <= seen:
                raise ValueError("force levels must be strictly increasing")
            seen = n
            for c in poly.coeffs():
                c.require_divergence_free()

    def level(self, n: int) -> FieldPolynomial:
        return dict(self.terms).get(n, FieldPolynomial.zero())


@dataclass(frozen=True)
class ExpansionResult:
    """Computed levels plus the exactness bookkeeping.

    `terms` holds (n, q_n) pairs in increasing n, the same decay-levels form
    as `ForceExpansion.terms`. residuals[n] is the max relative coefficient
    defect of the level-n equation; resonance_log lists (level, eigenvalue)
    for every solve that went through the free-constant branch.
    """

    terms: tuple[tuple[int, FieldPolynomial], ...]
    residuals: dict[int, float] = field(default_factory=dict)
    resonance_log: tuple[tuple[int, int], ...] = ()

    def polynomial(self, n: int) -> FieldPolynomial:
        return dict(self.terms).get(n, FieldPolynomial.zero())

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def check_resonant_data(resonant) -> dict[int, SpectralField]:
    """Validate a mapping n -> free constant: each field must live on |k|^2 = n exactly."""
    out: dict[int, SpectralField] = {}
    for n, f in (resonant or {}).items():
        n = int(n)
        if n < 1:
            raise ValueError(f"resonant level must be a positive integer, got {n}")
        if not isinstance(f, SpectralField):
            raise TypeError("resonant constants must be SpectralField values")
        bad = [k for k in f.support() if eigenvalue(k) != n]
        if bad:
            raise ValueError(
                f"resonant constant for level {n} has support off the eigenspace: "
                f"mode {bad[0]} has |k|^2 = {eigenvalue(bad[0])}"
            )
        try:
            f.require_divergence_free()
        except ValueError as exc:
            raise ValueError(f"resonant constant for level {n}: {exc}") from None
        out[n] = f
    return out


def _coupling_pairs(qmap: dict, n: int):
    """Nonzero (q_k, q_m) with k + m = n, by increasing k; callers form one product at a time."""
    for k in range(1, n):
        qk, qm = qmap.get(k), qmap.get(n - k)
        if qk is not None and qm is not None and not (qk.is_zero or qm.is_zero):
            yield qk, qm


def level_source(prior_terms, force: ForceExpansion, n: int) -> FieldPolynomial:
    """Driving polynomial p_n = f_n - sum_{k+m=n} B~(q_k, q_m) from built (k, q_k) levels."""
    p = force.level(n)
    for qk, qm in _coupling_pairs(dict(prior_terms), n):
        p = p - poly_bilinear(qk, qm)
    return p


def solve_level(p: FieldPolynomial, n: int) -> tuple[FieldPolynomial, bool]:
    """Solve q' + (A - n) q = p eigenspace by eigenspace, with a zero free constant.

    Blocks are enumerated from the support of p. Returns the level polynomial
    and whether the free-constant branch (the lam = n block) ran.
    """
    lams = set(map(eigenvalue, level_support([(n, p)]).tolist()))
    # the blocks' solutions have disjoint supports, so summing them is exact
    q = FieldPolynomial.zero()
    for lam in sorted(lams):
        block = p.map_coeffs(lambda c, lam=lam: eigenspace_project(c, lam))
        q = q + resolvent_solve(block, float(lam - n))
    return q, n in lams


def build_expansion(
    force: ForceExpansion, levels: int, resonant=None
) -> ExpansionResult:
    """Construct expansion levels 1..levels for the given force.

    Levels are built in order; each one only needs the earlier ones through
    the quadratic interaction. Level n is solved with a zero free constant,
    then its constant xi_n on the |k|^2 = n eigenspace is added to q_n's
    constant term; the lam = n block is the only one with support there, so
    this is the solve with xi_n pinned. The constants come from `resonant`:
    either a mapping n -> xi_n, or a callable (n, levels) -> xi_n or None,
    asked once per level with the (k, q_k) pairs up to and including the
    zero-constant level n. A missing constant is zero. Every constant passes
    `check_resonant_data`, and the result's level equations are re-checked
    independently and must hold to RESIDUAL_TOL relative (LevelEquationError
    otherwise).
    """
    levels = int(levels)
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if callable(resonant):
        constant = resonant
    else:
        supplied = check_resonant_data(resonant)

        def constant(n, below):
            return supplied.get(n)

    terms: list[tuple[int, FieldPolynomial]] = []
    log: list[tuple[int, int]] = []
    for n in range(1, levels + 1):
        q, hit = solve_level(level_source(terms, force, n), n)
        xi = constant(n, (*terms, (n, q)))
        if xi is not None and not check_resonant_data({n: xi})[n].is_zero:
            q, hit = q + FieldPolynomial.constant(xi), True
        if hit:
            log.append((n, n))
        terms.append((n, q))
    residuals = {
        n: expansion_residual(terms, force, n) for n in range(1, levels + 1)
    }
    worst = max(residuals.values(), default=0.0)
    if worst > RESIDUAL_TOL:
        raise LevelEquationError(
            f"level equations violated: max relative residual {worst:.3e} "
            f"(construction should be exact; this indicates a bug)"
        )
    return ExpansionResult(tuple(terms), residuals, tuple(log))


def _stokes_shift(c: SpectralField, n: int) -> SpectralField:
    """(A - n) applied to one coefficient field: each row times its one float |k|^2 - n."""
    return c._reweighted(c._c * (_eigenvalues(c._k) - n).astype(float)[:, None])


def expansion_residual(terms, force: ForceExpansion, n: int) -> float:
    """Max relative coefficient defect of level n's equation, checked from scratch.

    Forms q_n' + (A - n) q_n + sum_{k+m=n} B~(q_k, q_m) - f_n and compares
    its largest coefficient against the largest coefficient of the operands,
    so an exactly-solved level reports rounding-level numbers regardless of
    the force's scale. `terms` holds (k, q_k) pairs.
    """
    qmap = dict(terms)
    qn = qmap.get(n, FieldPolynomial.zero())
    fn = force.level(n)
    interaction = FieldPolynomial.zero()
    for qk, qm in _coupling_pairs(qmap, n):
        interaction = interaction + poly_bilinear(qk, qm)
    shifted = qn.map_coeffs(lambda c: _stokes_shift(c, n))
    r = qn.derivative() + shifted + interaction - fn
    scale = max(
        qn.derivative().max_abs(), shifted.max_abs(), interaction.max_abs(), fn.max_abs()
    )
    if scale == 0.0:
        return 0.0
    return r.max_abs() / scale

