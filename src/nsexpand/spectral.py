"""Fourier-side vector fields for zero-average periodic flow on the 2-pi torus.

A real field u(x) = sum_k c(k) e^{i k.x} with c(-k) = conj(c(k)) is stored
through one representative per conjugate pair: the lexicographically positive
wavevector. Realness is therefore structural and never re-checked. The k = 0
mode is excluded throughout (zero spatial average), so the Stokes operator
acts mode-wise as multiplication by |k|^2 >= 1 and every fractional power of
it is bounded on the fields we store.

A field is stored as row-aligned arrays in lexicographic wavevector order: the
wavevectors, an int64 key for each (components offset by 2**20 into 21 bits, so
key order is tuple order) and the coefficients. Hence |k_i| < 2**20 throughout.
Mode sets are ordered, merged, looked up, paired and weighed only here
(`_mode_union`, `_mode_rows`, `_ball`, `_pair_sums`, `_norms`); every other module
calls these.

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
    "norm",
    "inner",
    "bilinear",
    "bilinear_norm_ratio",
    "eigenspace_project",
    "eigenvalues_up_to",
]

Wavevector = tuple[int, int, int]

_ZERO = (0, 0, 0)
DIVERGENCE_TOL = 1e-10  # relative to max_abs(), the scale that cannot overflow
_K_BOUND = 2**20  # |k_i| < _K_BOUND: a component offset by it fits 21 bits of a packed key
_PACK = np.array([1 << 42, 1 << 21, 1])  # 21 bits per component, derived from the bound
_KEY0 = _K_BOUND * int(_PACK.sum())  # the key of k = 0; packing is linear: key(k) = k @ _PACK + _KEY0
_NO_K, _NO_KEY, _NO_C = np.empty((0, 3), np.int64), np.empty(0, np.int64), np.empty((0, 3), complex)


def _pack(k: np.ndarray) -> np.ndarray:
    """One int64 per wavevector (last axis of k), ordered like the tuples."""
    return k @ _PACK + _KEY0


def _mode_union(*modes: np.ndarray) -> np.ndarray:
    """The distinct rows of the (n_i, 3) wavevector arrays, in key order."""
    k = np.concatenate((_NO_K, *modes))
    return k[np.unique(_pack(k), return_index=True)[1]]


def _mode_rows(modes: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Each row's index in the key-ordered (m, 3) `among`, or -1 where it is absent."""
    keys = _pack(among)
    i = np.searchsorted(keys, key := _pack(modes))
    return np.where(np.append(keys, -1)[i] == key, i, -1)   # keys are positive: -1 is no key


# the largest ball: 21 x the largest cutoff in use (48); the grid buffers of a mode table
# scale as (3 isqrt(M) + 1)^3
MAX_CUTOFF = 1024


def _ball(cutoff: int) -> np.ndarray:
    """The representatives with |k|^2 <= cutoff as an (n, 3) int64 array, in key order."""
    k = np.indices((2 * isqrt(cutoff) + 1,) * 3).reshape(3, -1).T - isqrt(cutoff)   # tuple order
    return k[(_pack(k) > _KEY0) & (_eigenvalues(k) <= cutoff)]


def _wavevectors(keys) -> np.ndarray:
    """The wavevectors as an (n, 3) int64 array; ValueError past the component bound."""
    if any(abs(x) >= _K_BOUND for k in keys for x in k):
        raise ValueError("wavevector components must lie strictly between -2**20 and 2**20")
    return np.array(keys, dtype=np.int64).reshape(-1, 3)


def _eigenvalues(k: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", k, k)


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
        return lam**self.alpha * math.exp(self.sigma * math.sqrt(lam))


class NormWeightError(ValueError):
    """`spec`'s squared weight is no finite double at a mode being measured."""

    def __init__(self, spec: NormSpec, lam: float):
        super().__init__(
            f"norm weight |k|^(2 alpha) e^(sigma |k|) for [alpha, sigma] = [{spec.alpha:g}, "
            f"{spec.sigma:g}] overflows a double when squared at |k|^2 = {lam:g}"
        )
        self.spec = spec


class SpectralField:
    """Immutable zero-average vector field, one coefficient per conjugate pair.

    The mapping passed to the constructor must key on representative
    wavevectors only; coefficients are complex 3-vectors. Exactly-zero
    coefficients are dropped so the stored support is meaningful. The store
    is the wavevectors ((n, 3) int64), their packed keys ((n,) int64) and the
    read-only coefficients ((n, 3) complex128); |k_i| >= 2**20 is rejected.
    """

    __slots__ = ("_k", "_key", "_c")

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
        if not keys:
            self._k, self._key, self._c = _NO_K, _NO_KEY, _NO_C
            return
        k = _wavevectors(keys)
        # one array for all coefficients; the per-entry pass only names the culprit
        try:
            arr = np.array(values, dtype=np.complex128)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.shape != (len(keys), 3):
            for key, c in zip(keys, values):
                if np.array(c, dtype=np.complex128).shape != (3,):
                    raise ValueError(f"coefficient at {key} must be a 3-vector")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite coefficient at {keys[int(np.argmin(finite))]}")
        key = _pack(k)
        order = np.argsort(key, kind="stable")
        repeat = key[order[1:]] == key[order[:-1]]
        if repeat.any():
            raise ValueError(f"duplicate wavevector {keys[int(order[1:][repeat].min())]}")
        order = order[arr[order].any(axis=1)]
        self._k, self._key, self._c = k[order], key[order], arr[order]
        self._c.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "SpectralField":
        return cls._adopt(_NO_K, _NO_KEY, _NO_C)

    @classmethod
    def _adopt(cls, k: np.ndarray, key: np.ndarray, c: np.ndarray) -> "SpectralField":
        """Internal fast path: adopt key-ordered rows whose invariants the caller
        has established (bounded representatives, finite nonzero coefficients)."""
        field = object.__new__(cls)
        c.setflags(write=False)
        field._k, field._key, field._c = k, key, c
        return field

    def _select(self, rows: np.ndarray) -> "SpectralField":
        """The field restricted to the rows where the boolean mask holds."""
        if rows.all():
            return self
        return SpectralField._adopt(self._k[rows], self._key[rows], self._c[rows])

    def _reweighted(self, c: np.ndarray) -> "SpectralField":
        """These wavevectors with new coefficient rows: non-finite is an error, zero rows drop."""
        if not np.isfinite(c).all():
            bad = int(np.argmin(np.isfinite(c).all(axis=1)))
            raise ValueError(f"non-finite coefficient at {tuple(self._k[bad].tolist())}")
        return SpectralField._adopt(self._k, self._key, c)._select(c.any(axis=1))

    def _rows(self, k: np.ndarray) -> np.ndarray:
        """Coefficients at the representative wavevectors k ((n, 3)), zero where unstored."""
        padded = np.concatenate((self._c, np.zeros((1, 3), complex)))   # row -1 is zero
        return padded[_mode_rows(k, self._k)]

    # -- inspection -----------------------------------------------------------

    def modes(self):
        """Iterate (k, coefficient) over stored representatives, lexicographic order."""
        return zip(self.support(), self._c)

    def support(self) -> tuple[Wavevector, ...]:
        return tuple(map(tuple, self._k.tolist()))

    @property
    def n_modes(self) -> int:
        return self._key.size

    @property
    def is_zero(self) -> bool:
        return not self._key.size

    def max_abs(self) -> float:
        """Largest coefficient-component magnitude; 0 for the zero field."""
        return float(np.abs(self._c).max(initial=0.0))

    def max_eigenvalue(self) -> int:
        return int(_eigenvalues(self._k).max(initial=0))

    # -- algebra (real-linear: complex scalars would break conjugate pairing) --

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if not other._key.size:
            return self
        if not self._key.size:
            return other
        if self._key.size == other._key.size and np.array_equal(self._key, other._key):
            k, key, c = self._k, self._key, self._c + other._c
        else:
            # a stable sort puts self's row first, so a shared key sums as self + other
            key = np.concatenate((self._key, other._key))
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            c = np.add.reduceat(np.concatenate((self._c, other._c))[order], starts, axis=0)
            k, key = np.concatenate((self._k, other._k))[order[starts]], key[starts]
        return SpectralField._adopt(k, key, c)._select(c.any(axis=1))

    def __sub__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, s):
        s = float(s)
        if s == 0.0:
            return SpectralField.zero()
        c = self._c * s
        if not math.isfinite(s):
            return self._reweighted(c)  # the non-finite-coefficient error
        return SpectralField._adopt(self._k, self._key, c)._select(c.any(axis=1))  # underflow

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        return np.array_equal(self._key, other._key) and np.array_equal(self._c, other._c)

    __hash__ = None

    # -- pointwise constraints --------------------------------------------------

    def divergence_defect(self) -> float:
        """max_k |c(k).k| / |k|; zero exactly when the field is divergence-free."""
        dots = np.matmul(self._c[:, None, :], self._k.astype(float)[:, :, None])[:, 0, 0]
        defects = np.hypot(dots.real, dots.imag) / np.sqrt(_eigenvalues(self._k))
        return float(defects.max(initial=0.0))

    def require_divergence_free(self):
        """Raise unless the divergence defect is <= DIVERGENCE_TOL x the largest coefficient."""
        defect = self.divergence_defect()
        if not defect <= DIVERGENCE_TOL * self.max_abs():   # a NaN defect fails too
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
    kf = u._k.astype(float)
    dots = np.matmul(u._c[:, None, :], kf[:, :, None])[:, 0, 0]  # each row rounded as np.dot
    return u._reweighted(u._c - (dots / _eigenvalues(u._k))[:, None] * kf)


def _norms(columns, modes: np.ndarray, spec: NormSpec, samples: int) -> np.ndarray:
    """norm(field_i, spec) per sample of the fields given by (S, 3) columns at the modes,
    or a NormWeightError if the weight squared overflows at any of them."""
    lams = _eigenvalues(modes).tolist()
    top = max(lams, default=1.0)   # the weight grows with lam: the largest bounds them all
    try:
        w = spec.weight(top)
    except OverflowError:   # lam**alpha or the exponential past the largest double
        w = math.inf
    if not math.isfinite(w * w):
        raise NormWeightError(spec, top)
    weights = map(spec.weight, lams)
    parts = [2.0 * w * w * (np.vecdot(c.real, c.real) + np.vecdot(c.imag, c.imag))
             for w, c in zip(weights, columns)]
    return np.sqrt([math.fsum(r.tolist()) for r in np.reshape(parts, (-1, samples)).T])


def norm(u: SpectralField, spec: NormSpec = _H0) -> float:
    """Weighted l2 norm over all modes (both pair halves), compensated summation."""
    return float(_norms(u._c[:, None], u._k, spec, 1)[0])


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2 pairing of two real fields: 2 sum_k Re(c_u(k) . conj(c_v(k))) over representatives."""
    # rounded as np.dot rounds one row; modes u has and v lacks add exact zeros
    dots = np.matmul(u._c[:, None, :], np.conj(v._rows(u._k))[:, :, None])[:, 0, 0].real
    return math.fsum((2.0 * dots).tolist())


def _pair_sums(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ordered pairs whose sum a[i] + b[j] is a representative, as flat indices
    i len(b) + j sorted by the sum's key, and those keys. The sort is stable, so each
    sum's pairs keep their input order."""
    # the key of each pair sum, without forming the (n m, 3) sums
    key = (_pack(a)[:, None] + (_pack(b) - _KEY0)[None, :]).reshape(-1)
    # representatives sort above k = 0: the zero mode is dropped and the negative half implied
    pair = np.flatnonzero(key > _KEY0)
    pair = pair[np.argsort(key[pair], kind="stable")]
    return pair, key[pair]


def _pair_geometry(uk: np.ndarray, vk: np.ndarray) -> tuple:
    """What `bilinear` needs of two nonempty supports alone: the transposed complex
    wavevectors of v's halves, the pair sums' flat indices, their columns and group starts,
    and the distinct targets (wavevectors, keys, float rows as real and complex, |k|^2)."""
    # the largest |component| of a pair sum is the sum of the factors' largest
    _wavevectors([np.abs(uk).max(axis=0) + np.abs(vk).max(axis=0)])
    # both halves of every pair
    mu, lv = np.concatenate((uk, -uk)), np.concatenate((vk, -vk))
    m = len(lv)
    pair, key = _pair_sums(mu, lv)
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = pair[starts]
    uniq = mu[first // m] + lv[first % m]
    kf = uniq.astype(float)
    return (lv.T.astype(np.complex128), pair, pair % m, starts,
            uniq, key[starts], kf, kf.astype(np.complex128), _eigenvalues(uniq))


def bilinear(u: SpectralField, v: SpectralField, *, check: bool = True,
             geometry: tuple | None = None) -> SpectralField:
    """Projected advection term B(u, v): convolution sum_{m+l=k} i (c_u(m).l) c_v(l), then Leray.

    Exact over the finite supports, no truncation: the result lives on all
    pairwise mode sums. Requires divergence-free inputs; with those,
    inner(bilinear(u, v), v) vanishes to rounding. `geometry` is
    `_pair_geometry(u._k, v._k)` when the caller already holds it.
    """
    if check:
        u.require_divergence_free()
        v.require_divergence_free()
    if u.is_zero or v.is_zero:
        return SpectralField.zero()
    lvT, pair, cols, starts, uniq, key, kf, kfc, lam = geometry or _pair_geometry(u._k, v._k)
    cu = np.concatenate((u._c, np.conj(u._c)))
    cv = np.concatenate((v._c, np.conj(v._c)))
    dots = np.multiply(1j, (cu @ lvT).reshape(-1)[pair])
    contrib = cv[cols]
    acc = np.add.reduceat(np.multiply(dots[:, None], contrib, out=contrib), starts, axis=0)
    shear = np.einsum("ij,ij->i", acc, kfc)
    acc = acc - (shear / lam)[:, None] * kf
    return SpectralField._adopt(uniq, key, acc)._select(np.any(acc != 0, axis=1))


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
    return u._select(_eigenvalues(u._k) == int(n))


def eigenvalues_up_to(nmax: int) -> list[int]:
    """Stokes eigenvalues <= nmax, ascending: integers expressible as a sum of three squares.

    Read off the mode ball, so gaps (7, 15, 23, ...) fall out of the lattice
    rather than a number-theoretic formula. nmax must lie in [0, MAX_CUTOFF].
    """
    nmax = int(nmax)
    if not 0 <= nmax <= MAX_CUTOFF:
        raise ValueError(f"nmax must lie in [0, {MAX_CUTOFF}], got {nmax}")
    return sorted(set(_eigenvalues(_ball(nmax)).tolist()))
