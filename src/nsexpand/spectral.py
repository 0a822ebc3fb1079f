"""Fourier-side vector fields for zero-average periodic flow on the 2-pi torus.

A real field u(x) = sum_k c(k) e^{i k.x} with c(-k) = conj(c(k)) is stored
through one representative per conjugate pair: the lexicographically positive
wavevector. Realness is therefore structural and never re-checked. The k = 0
mode is excluded throughout (zero spatial average), so the Stokes operator
acts mode-wise as multiplication by |k|^2 >= 1 and every fractional power of
it is bounded on the fields we store.

Norms follow the Parseval convention without the volume factor: |u|^2 is the
plain sum of |c(k)|^2 over all modes, conjugate halves included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

__all__ = [
    "Wavevector",
    "NormSpec",
    "SpectralField",
    "eigenvalue",
    "is_representative",
    "leray_project",
    "stokes_power",
    "gevrey_weight",
    "norm",
    "inner",
    "bilinear",
    "bilinear_norm_ratio",
    "eigenspace_project",
    "truncate",
    "eigenvalues_up_to",
]

Wavevector = tuple[int, int, int]

_ZERO = (0, 0, 0)
DIVERGENCE_TOL = 1e-10  # relative to max_abs(), the scale that cannot overflow


def eigenvalue(k: Wavevector) -> int:
    """Stokes eigenvalue |k|^2 of the mode pair at +-k."""
    return k[0] * k[0] + k[1] * k[1] + k[2] * k[2]


def is_representative(k: Wavevector) -> bool:
    """True when k is the stored half of its conjugate pair (first nonzero component positive)."""
    return k > _ZERO


@dataclass(frozen=True)
class NormSpec:
    """Weight parameters for |A^alpha e^{sigma A^{1/2}} u|: mode k carries |k|^{2 alpha} e^{sigma |k|}."""

    alpha: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def weight(self, lam: float) -> float:
        """Coefficient weight at Stokes eigenvalue lam = |k|^2."""
        root = math.sqrt(lam)
        return lam**self.alpha * math.exp(self.sigma * root)


class SpectralField:
    """Immutable zero-average vector field, one coefficient per conjugate pair.

    The mapping passed to the constructor must key on representative
    wavevectors only; coefficients are complex 3-vectors. Exactly-zero
    coefficients are dropped so the stored support is meaningful. The split
    of the store by Stokes eigenvalue is built on first use and kept.
    """

    __slots__ = ("_coeffs", "_blocks")

    def __init__(self, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        keys, values = [], []
        for k, c in items:
            k = (int(k[0]), int(k[1]), int(k[2]))
            if k == _ZERO:
                raise ValueError("k = 0 is excluded (zero-average fields)")
            if not is_representative(k):
                raise ValueError(
                    f"wavevector {k} is not the stored half of its pair; "
                    "pass the lexicographically positive one"
                )
            keys.append(k)
            values.append(c)
        store = {}
        if keys:
            # one array for all coefficients; the per-entry pass only names the culprit
            try:
                arr = np.array(values, dtype=np.complex128)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != (len(keys), 3):
                for k, c in zip(keys, values):
                    if np.array(c, dtype=np.complex128).shape != (3,):
                        raise ValueError(f"coefficient at {k} must be a 3-vector")
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                raise ValueError(f"non-finite coefficient at {keys[int(np.argmin(finite))]}")
            arr.setflags(write=False)
            for k, row, keep in zip(keys, arr, arr.any(axis=1)):
                if k in store:
                    raise ValueError(f"duplicate wavevector {k}")
                if keep:
                    store[k] = row
        self._coeffs = dict(sorted(store.items()))
        self._blocks = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "SpectralField":
        return cls({})

    @classmethod
    def _adopt(cls, coeffs: dict) -> "SpectralField":
        """Internal fast path: adopt a store whose invariants the caller has
        already established (representative integer keys in lexicographic
        order, locked finite complex128 3-vectors, no exact-zero entries).
        """
        field = object.__new__(cls)
        field._coeffs = coeffs
        field._blocks = None
        return field

    @classmethod
    def from_modes(cls, items) -> "SpectralField":
        """Fold (k, coefficient) terms from either half of each pair, accumulating duplicates.

        Each item contributes c e^{i k.x}; items at a non-representative k are
        folded onto the conjugate of the stored half. Useful for assembling
        convolution output or hand-written full-mode descriptions.
        """
        acc: dict[Wavevector, np.ndarray] = {}
        for k, c in items:
            k = (int(k[0]), int(k[1]), int(k[2]))
            arr = np.asarray(c, dtype=np.complex128)
            if not is_representative(k):
                if k == _ZERO:
                    raise ValueError("k = 0 is excluded (zero-average fields)")
                k = (-k[0], -k[1], -k[2])
                arr = np.conj(arr)
            if k in acc:
                acc[k] = acc[k] + arr
            else:
                acc[k] = arr.copy()
        return cls(acc)

    # -- inspection -----------------------------------------------------------

    def modes(self):
        """Iterate (k, coefficient) over stored representatives, lexicographic order."""
        return iter(self._coeffs.items())

    def full_modes(self):
        """Iterate (k, coefficient) over both halves of every pair."""
        for k, c in self._coeffs.items():
            yield k, c
            yield (-k[0], -k[1], -k[2]), np.conj(c)

    def support(self) -> tuple[Wavevector, ...]:
        return tuple(self._coeffs.keys())

    def coeff(self, k) -> np.ndarray:
        """Coefficient at any wavevector, conjugating across the pair as needed."""
        k = (int(k[0]), int(k[1]), int(k[2]))
        if is_representative(k):
            c = self._coeffs.get(k)
            return c.copy() if c is not None else np.zeros(3, dtype=np.complex128)
        c = self._coeffs.get((-k[0], -k[1], -k[2]))
        return np.conj(c) if c is not None else np.zeros(3, dtype=np.complex128)

    @property
    def n_modes(self) -> int:
        return len(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def max_abs(self) -> float:
        """Largest coefficient-component magnitude; 0 for the zero field."""
        if not self._coeffs:
            return 0.0
        return float(np.abs(np.array(list(self._coeffs.values()))).max())

    def max_eigenvalue(self) -> int:
        return max((eigenvalue(k) for k in self._coeffs), default=0)

    def _eigen_blocks(self) -> dict:
        """Stores of the restrictions to each eigenspace, keyed by |k|^2, in one pass."""
        if self._blocks is None:
            blocks: dict[int, dict] = {}
            for k, c in self._coeffs.items():
                blocks.setdefault(eigenvalue(k), {})[k] = c
            self._blocks = blocks
        return self._blocks

    # -- algebra (real-linear: complex scalars would break conjugate pairing) --

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        mine, theirs = self._coeffs, other._coeffs
        # stored arrays are nonzero and locked already; shared keys are redone below
        out = {**mine, **theirs}
        shared = mine.keys() & theirs.keys()
        if shared:
            shared = list(shared)
            sums = np.array([mine[k] for k in shared]) + np.array([theirs[k] for k in shared])
            sums.setflags(write=False)
            for k, s, keep in zip(shared, sums, sums.any(axis=1)):
                if keep:
                    out[k] = s
                else:
                    del out[k]
        if len(shared) < len(theirs):  # new keys went in at the end
            out = dict(sorted(out.items()))
        return SpectralField._adopt(out)

    def __sub__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, s):
        s = float(s)
        if not math.isfinite(s):
            # validating path preserves the non-finite-coefficient error
            return SpectralField({k: c * s for k, c in self._coeffs.items()})
        if s == 0.0 or not self._coeffs:
            return SpectralField.zero()
        keys = list(self._coeffs)
        arr = np.array(list(self._coeffs.values())) * s
        nz = arr.any(axis=1)  # underflow can zero a row
        if not nz.all():
            keys = [k for k, keep in zip(keys, nz) if keep]
            arr = arr[nz]
        arr.setflags(write=False)
        return SpectralField._adopt(dict(zip(keys, arr)))

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __eq__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if self._coeffs.keys() != other._coeffs.keys():
            return False
        return all(np.array_equal(c, other._coeffs[k]) for k, c in self._coeffs.items())

    __hash__ = None

    def allclose(self, other, rtol=1e-12, atol=0.0) -> bool:
        scale = max(self.max_abs(), other.max_abs())
        return (self - other).max_abs() <= atol + rtol * scale

    def __repr__(self):
        return f"SpectralField({self.n_modes} mode pairs)"

    # -- pointwise constraints --------------------------------------------------

    def divergence_defect(self) -> float:
        """max_k |c(k).k| / |k|; zero exactly when the field is divergence-free."""
        worst = 0.0
        for k, c in self._coeffs.items():
            kv = np.array(k, dtype=float)
            worst = max(worst, abs(np.dot(c, kv)) / math.sqrt(eigenvalue(k)))
        return worst

    def require_divergence_free(self):
        """Raise unless the divergence defect is <= DIVERGENCE_TOL x the largest coefficient."""
        defect = self.divergence_defect()
        if defect > DIVERGENCE_TOL * self.max_abs():
            raise ValueError(
                f"field is not divergence-free: defect {defect:.3e} "
                f"exceeds {DIVERGENCE_TOL:g} x max |coefficient|"
            )


_H0 = NormSpec(0.0, 0.0)


# -- mode-wise operators ----------------------------------------------------


def leray_project(u: SpectralField) -> SpectralField:
    """Project every coefficient onto the plane orthogonal to its wavevector.

    Idempotent; annihilates gradient fields and fixes divergence-free ones.
    """
    out = {}
    for k, c in u.modes():
        kv = np.array(k, dtype=float)
        out[k] = c - (np.dot(c, kv) / eigenvalue(k)) * kv
    return SpectralField(out)


def stokes_power(u: SpectralField, alpha: float) -> SpectralField:
    """Apply A^alpha: scale the coefficient at k by |k|^{2 alpha}. Support unchanged."""
    return SpectralField({k: c * eigenvalue(k) ** float(alpha) for k, c in u.modes()})


def gevrey_weight(u: SpectralField, spec: NormSpec) -> SpectralField:
    """Apply A^alpha e^{sigma A^{1/2}}: scale the coefficient at k by |k|^{2 alpha} e^{sigma |k|}."""
    return SpectralField({k: c * spec.weight(eigenvalue(k)) for k, c in u.modes()})


def norm(u: SpectralField, spec: NormSpec = _H0) -> float:
    """Weighted l2 norm over all modes (both pair halves), compensated summation."""
    terms = []
    for k, c in u.modes():
        w = spec.weight(eigenvalue(k))
        mag2 = float(c.real @ c.real + c.imag @ c.imag)
        terms.append(2.0 * w * w * mag2)
    return math.sqrt(math.fsum(terms))


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2 pairing of two real fields: 2 sum_k Re(c_u(k) . conj(c_v(k))) over representatives."""
    terms = []
    for k, cu in u.modes():
        cv = v._coeffs.get(k)
        if cv is not None:
            terms.append(2.0 * float(np.real(np.dot(cu, np.conj(cv)))))
    return math.fsum(terms)


def bilinear(u: SpectralField, v: SpectralField, *, check: bool = True) -> SpectralField:
    """Projected advection term B(u, v): convolution sum_{m+l=k} i (c_u(m).l) c_v(l), then Leray.

    Exact over the finite supports, no truncation: the result lives on all
    pairwise mode sums. Requires divergence-free inputs; with those,
    inner(bilinear(u, v), v) vanishes to rounding.
    """
    if check:
        u.require_divergence_free()
        v.require_divergence_free()
    if u.is_zero or v.is_zero:
        return SpectralField.zero()
    mu, cu = _signed_mode_arrays(u)
    lv, cv = _signed_mode_arrays(v)
    n, m = len(mu), len(lv)
    ks = (mu[:, None, :] + lv[None, :, :]).reshape(n * m, 3)
    # zero mode dropped; negative half implied by conjugation
    keep = np.flatnonzero(
        (ks[:, 0] > 0)
        | ((ks[:, 0] == 0) & ((ks[:, 1] > 0) | ((ks[:, 1] == 0) & (ks[:, 2] > 0))))
    )
    ks = ks[keep]
    dots = (cu @ lv.T.astype(np.complex128)).reshape(n * m)[keep]
    contrib = (1j * dots)[:, None] * cv[keep % m]
    # one int64 key per row, ordered like the tuples; a stable sort keeps each
    # target's contributions in input order
    lo = ks.min()
    span = ks.max() - lo + 1
    shifted = ks - lo
    key = (shifted[:, 0] * span + shifted[:, 1]) * span + shifted[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    uniq = ks[order[starts]]
    acc = np.add.reduceat(contrib[order], starts, axis=0)
    kf = uniq.astype(float)
    lam = np.einsum("ij,ij->i", kf, kf)
    shear = np.einsum("ij,ij->i", acc, kf.astype(np.complex128))
    acc = acc - (shear / lam)[:, None] * kf
    nz = np.any(acc != 0, axis=1)
    if not nz.all():
        uniq, acc = uniq[nz], acc[nz]
    acc.setflags(write=False)
    # rows are in key order, which is lexicographic tuple order
    return SpectralField._adopt(dict(zip(map(tuple, uniq.tolist()), acc)))


def _signed_mode_arrays(u: SpectralField):
    """Wavevectors and coefficients over both halves of every pair, as arrays."""
    reps = list(u.modes())
    k = np.array([p[0] for p in reps], dtype=np.int64)
    c = np.array([p[1] for p in reps])
    return np.concatenate([k, -k]), np.concatenate([c, np.conj(c)])


def bilinear_norm_ratio(u: SpectralField, v: SpectralField, spec: NormSpec) -> float:
    """Diagnostic |B(u,v)|_{alpha,sigma} / (|u|_{alpha+1/2,sigma} |v|_{alpha+1/2,sigma}).

    The advection estimate bounds this by K^alpha for some K > 1 that the
    analysis takes as a user-supplied constant; this reports the observed
    ratio so a chosen K can be sanity-checked. NaN when either factor is zero.
    """
    up = NormSpec(spec.alpha + 0.5, spec.sigma)
    den = norm(u, up) * norm(v, up)
    if den == 0.0:
        return math.nan
    return norm(bilinear(u, v), spec) / den


def eigenspace_project(u: SpectralField, n: int) -> SpectralField:
    """Restrict to the Stokes eigenspace |k|^2 = n; zero field when n is not an eigenvalue."""
    if n != int(n) or n < 1:
        raise ValueError(f"eigenspace index must be a positive integer, got {n}")
    n = int(n)
    # a block of a valid store is a valid store, so no re-validation
    return SpectralField._adopt(u._eigen_blocks().get(n, {}))


def truncate(u: SpectralField, max_eigenvalue: int) -> SpectralField:
    """Drop every mode with |k|^2 > max_eigenvalue (Galerkin low-mode projection)."""
    return SpectralField({k: c for k, c in u.modes() if eigenvalue(k) <= max_eigenvalue})


def eigenvalues_up_to(nmax: int) -> list[int]:
    """Stokes eigenvalues <= nmax, ascending: integers expressible as a sum of three squares.

    Enumerated directly from the lattice, so gaps (7, 15, 23, ...) fall out of
    the enumeration rather than a number-theoretic formula.
    """
    nmax = int(nmax)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    hit = bytearray(nmax + 1)
    r = isqrt(nmax)
    for a in range(r + 1):
        aa = a * a
        for b in range(a, r + 1):
            ab = aa + b * b
            if ab > nmax:
                break
            for c in range(b, r + 1):
                s = ab + c * c
                if s > nmax:
                    break
                hit[s] = 1
    return [n for n in range(1, nmax + 1) if hit[n]]
