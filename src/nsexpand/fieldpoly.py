"""Polynomials in time whose coefficients are spectral fields.

These carry the slow part of one decay level: a field-valued q(t) multiplying
e^{-n t}, and `assemble` is the one evaluator of such levels, the force's and the
expansion's. The resolvent solve below inverts d/dt + beta on such polynomials
exactly, coefficient by coefficient, which is the whole reason the expansion
construction is exact linear algebra rather than numerics.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spectral import SpectralField, _mode_union, bilinear

__all__ = [
    "DEGREE_CAP",
    "DegreeCapError",
    "FieldPolynomial",
    "poly_bilinear",
    "resolvent_solve",
    "level_support",
    "assemble",
]

DEGREE_CAP = 64


class DegreeCapError(ValueError):
    """Polynomial degree exceeded the hard cap (runaway resonance cascade)."""


class FieldPolynomial:
    """coeffs[j] multiplies t^j; trailing zero fields are trimmed away."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, SpectralField):
                raise TypeError("coefficients must be SpectralField values")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if len(coeffs) - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {len(coeffs) - 1} exceeds cap {DEGREE_CAP}"
            )
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "FieldPolynomial":
        return cls(())

    @classmethod
    def constant(cls, field: SpectralField) -> "FieldPolynomial":
        return cls((field,))

    @property
    def degree(self):
        """Polynomial degree; -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeffs(self) -> tuple[SpectralField, ...]:
        return self._coeffs

    def derivative(self) -> "FieldPolynomial":
        return FieldPolynomial(
            [c * float(j) for j, c in enumerate(self._coeffs) if j > 0]
        )

    def map_coeffs(self, fn) -> "FieldPolynomial":
        """Apply a field-to-field map to every coefficient."""
        return FieldPolynomial([fn(c) for c in self._coeffs])

    def __add__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return FieldPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, s):
        s = float(s)
        return FieldPolynomial([c * s for c in self._coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FieldPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def max_abs(self) -> float:
        return max((c.max_abs() for c in self._coeffs), default=0.0)


def poly_bilinear(p: FieldPolynomial, q: FieldPolynomial) -> FieldPolynomial:
    """Cauchy product of two field polynomials under the advection form.

    Coefficient r of the result is sum_{i+j=r} B(p_i, q_j); evaluating the
    result at any t equals B(p(t), q(t)).
    """
    if p.is_zero or q.is_zero:
        return FieldPolynomial.zero()
    pc, qc = p.coeffs(), q.coeffs()
    for c in pc:
        c.require_divergence_free()
    for c in qc:
        c.require_divergence_free()
    out = [SpectralField.zero()] * (len(pc) + len(qc) - 1)
    for i, a in enumerate(pc):
        if a.is_zero:
            continue
        for j, b in enumerate(qc):
            if b.is_zero:
                continue
            out[i + j] = out[i + j] + bilinear(a, b, check=False)
    return FieldPolynomial(out)


def resolvent_solve(p: FieldPolynomial, beta: float) -> FieldPolynomial:
    """Polynomial solution q of q' + beta q = p; for beta = 0, the one with zero constant term.

    beta != 0: the polynomial solution is unique, found by back-substitution
    from the top degree (q_d = p_d / beta, then each lower coefficient picks
    up the derivative of the one above). It matches the particular solutions
    e^{-beta t} integral_{-inf}^t e^{beta s} p(s) ds (beta > 0) and
    -e^{-beta t} integral_t^inf e^{beta s} p(s) ds (beta < 0); the degree of
    q equals the degree of p.

    beta = 0: q is the antiderivative of p with zero constant term, and the
    degree rises by one. Any other constant gives a solution too; the caller
    adds it.
    """
    beta = float(beta)
    if beta == 0.0:
        out = [SpectralField.zero()]
        for j, c in enumerate(p.coeffs()):
            out.append(c * (1.0 / (j + 1)))
        return FieldPolynomial(out)
    pc = p.coeffs()
    out: list[SpectralField] = [SpectralField.zero()] * len(pc)
    above = SpectralField.zero()
    for j in range(len(pc) - 1, -1, -1):
        cur = (pc[j] - float(j + 1) * above) * (1.0 / beta)
        out[j] = cur
        above = cur
    return FieldPolynomial(out)


def level_support(terms) -> np.ndarray:
    """The (K, 3) int64 wavevectors that any coefficient of the (n, q_n) pairs holds, key order."""
    return _mode_union(*(c._k for _, q in terms for c in q.coeffs()))


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b as SpectralField adds rows: an all-zero row is an absent mode, which passes the
    other side's row through untouched, signed zeros included."""
    out = a + b
    live_a, live_b = a.any(axis=-1, keepdims=True), b.any(axis=-1, keepdims=True)
    np.copyto(out, a, where=live_a & ~live_b)
    np.copyto(out, b, where=live_b & ~live_a)
    return out


def _decay(rate: float, times) -> np.ndarray:
    """e^{-rate t} at each of the times (any shape) by `math.exp`, as field arithmetic rounds it."""
    t = np.asarray(times, dtype=float)
    return np.reshape([math.exp(-rate * x) for x in t.ravel().tolist()], t.shape)


def assemble(terms, modes: np.ndarray, times) -> np.ndarray:
    """sum_n q_n(t) e^{-n t} over the (n, q_n) pairs at the (K, 3) key-ordered modes and the
    S times, as an (S, K, 3) block, zero where a mode is absent. Each step is the field
    arithmetic of Horner's rule, so each row equals the per-time field's bits."""
    t = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    acc = np.zeros((len(t), len(modes), 3), dtype=np.complex128)
    for n, q in terms:
        coeffs = [c._rows(modes) for c in reversed(q.coeffs())]
        if any(c.any() for c in coeffs):   # a level that lacks every mode adds nothing
            level = functools.reduce(lambda p, c: _plus(p * t, c), coeffs)   # Horner, top first
            acc = _plus(acc, level * _decay(n, t))
    return acc
