"""Polynomials in time whose coefficients are spectral fields.

These carry the slow part of one decay level: a field-valued q(t) multiplying
e^{-n t}, and `assemble` is the one evaluator of such levels, the force's and the
expansion's. The resolvent solve below inverts d/dt + beta on such polynomials
exactly, mode by mode, which is the whole reason the expansion
construction is exact linear algebra rather than numerics.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spectral import SpectralField, _mode_union, _pack, _pair_geometry, bilinear

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
    result at any t equals B(p(t), q(t)). Coefficients often share a support,
    so each pair of supports is enumerated once per call.
    """
    if p.is_zero or q.is_zero:
        return FieldPolynomial.zero()
    pc, qc = p.coeffs(), q.coeffs()
    for c in pc:
        c.require_divergence_free()
    for c in qc:
        c.require_divergence_free()
    out = [SpectralField.zero()] * (len(pc) + len(qc) - 1)
    geometry = {}   # (support of p_i, support of q_j) -> their pair geometry
    q_supports = [b._key.tobytes() for b in qc]
    for i, a in enumerate(pc):
        if a.is_zero:
            continue
        a_support = a._key.tobytes()
        for j, b in enumerate(qc):
            if b.is_zero:
                continue
            pair = (a_support, q_supports[j])
            if pair not in geometry:
                geometry[pair] = _pair_geometry(a._k, b._k)
            out[i + j] = out[i + j] + bilinear(a, b, check=False, geometry=geometry[pair])
    return FieldPolynomial(out)


def resolvent_solve(p: FieldPolynomial, beta) -> FieldPolynomial:
    """Polynomial solution q of q' + beta q = p, mode by mode, in one pass over p's rows.

    beta is one float per mode of `level_support([(n, p)])` (key order), or one
    float for every mode. Each row is solved as field arithmetic would solve it
    alone, so a row's bits do not depend on the others.

    beta != 0: the polynomial solution is unique, found by back-substitution
    from the top degree (q_d = p_d / beta, then each lower coefficient picks
    up the derivative of the one above). It matches the particular solutions
    e^{-beta t} integral_{-inf}^t e^{beta s} p(s) ds (beta > 0) and
    -e^{-beta t} integral_t^inf e^{beta s} p(s) ds (beta < 0); the row's
    degree stays.

    beta = 0: the row is the antiderivative of p's row with zero constant term,
    and its degree rises by one. Any other constant gives a solution too; the
    caller adds it.
    """
    pc = p.coeffs()
    if not pc:
        return FieldPolynomial.zero()
    k = level_support([(0, p)])
    beta = np.broadcast_to(beta, len(k))
    resonant = beta == 0.0
    # 1 / beta is 0 on beta = 0 rows: the back-substitution leaves them zero, constant term included
    inv = np.divide(1.0, beta, out=np.zeros(len(k)), where=~resonant)[:, None]
    if not np.isfinite(inv).all():
        raise ValueError(f"1 / beta overflows at {tuple(k[np.isfinite(inv).argmin()].tolist())}")
    # a coefficient that holds as many modes as the union holds all of them, in its order
    rows = [c._c if c.n_modes == len(k) else c._rows(k) for c in pc]
    d = len(pc) - 1
    out = np.zeros((d + 1 + resonant.any(), len(k), 3), dtype=np.complex128)   # beta = 0 rows rise
    out[d] = rows[d] * inv
    for j in range(d - 1, -1, -1):   # q_j = (p_j - (j + 1) q_{j+1}) / beta
        out[j] = _plus(rows[j], out[j + 1] * float(j + 1) * -1.0) * inv
    if resonant.any():
        for j, r in enumerate(rows):
            out[j + 1, resonant] = r[resonant] * (1.0 / (j + 1))
    key = _pack(k)
    return FieldPolynomial([SpectralField._adopt(k, key, c)._select(c.any(axis=1)) for c in out])


def level_support(terms) -> np.ndarray:
    """The (K, 3) int64 wavevectors that any coefficient of the (n, q_n) pairs holds, key order."""
    supports = {c._key.tobytes(): c._k for _, q in terms for c in q.coeffs()}
    if len(supports) == 1:   # one field's rows are distinct and in key order already
        return next(iter(supports.values()))
    return _mode_union(*supports.values())


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
    return np.reshape(list(map(math.exp, (-rate * t).ravel().tolist())), t.shape)


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
