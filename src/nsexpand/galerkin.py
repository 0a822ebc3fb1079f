"""Spectral Galerkin simulation of the forced flow on a mode ball |k|^2 <= M.

The truncated system du/dt + A u + P_M B(u, u) = P_M F(t) is advanced with an
integrating-factor Runge-Kutta scheme: over each step the substitution
w(s) = e^{(s - t) A} u(s) removes the stiff Stokes term exactly, and classical
RK4 advances w. All exponential factors that appear are decaying, so the
scheme is stable for any step; accuracy is the usual O(h^4).

Coefficients live in a dense array over a fixed representative basis (one row
per conjugate pair, so realness stays structural). The advection term is a
pseudo-spectral product: B(u, u) = P div(u (x) u) is formed on a physical
grid sized by the 3/2 rule, so no aliased mode reaches the ball and the result
equals the exact finite-support sum of `spectral.bilinear` truncated to the
ball, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ForceExpansion
from .fieldpoly import assemble
from .spectral import SpectralField, eigenvalue, is_representative

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowupError",
    "ModeTable",
    "mode_table",
    "evaluate_force",
    "integrate",
]

BLOWUP_NORM = 1e6


class BlowupError(RuntimeError):
    """Trajectory norm crossed the blow-up guard; carries the time it happened."""

    def __init__(self, t: float, value: float):
        super().__init__(f"solution norm {value:.3e} exceeded {BLOWUP_NORM:.0e} at t = {t:.6g}")
        self.t = t
        self.value = value


@dataclass(frozen=True)
class SolverConfig:
    mode_cutoff: int
    step: float
    t_end: float
    sample_stride: int = 1

    def __post_init__(self):
        if self.mode_cutoff < 1 or self.mode_cutoff != int(self.mode_cutoff):
            raise ValueError(f"mode_cutoff must be a positive integer, got {self.mode_cutoff}")
        if not (0 < self.step <= 0.5):
            raise ValueError(f"step must lie in (0, 0.5], got {self.step}")
        if not (self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.sample_stride < 1 or self.sample_stride != int(self.sample_stride):
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states: times[i] = i * step * sample_stride."""

    times: np.ndarray
    states: tuple[SpectralField, ...]
    config: SolverConfig

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")

    def __len__(self):
        return len(self.states)

    @property
    def spacing(self) -> float:
        return self.config.step * self.config.sample_stride

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


class ModeTable:
    """Dense workspace over the representatives with |k|^2 <= cutoff.

    Rows follow lexicographic order of the representative wavevectors.
    `convolve` evaluates the advection term on an `rfftn` grid of n points
    per axis, the smallest size >= 3r + 1 with no prime factor above 5, where
    r = floor(sqrt(cutoff)) (prime sizes such as 13 and 19 transform much
    more slowly). Every stored mode has |k_i| <= r, so a product of two
    fields has |k_i| <= 2r, and a product mode that wraps around the grid
    lands at |k_i| >= n - 2r > r on some axis: outside the ball. This is the
    3/2 rule of dealiased pseudo-spectral products.

    Rows that no pair of live input modes m + l reaches are set to exact
    zero (the support mask), so the output support is that of the exact
    convolution and not a ball filled with rounding noise. The mask is the
    square of the live-row indicator and is recomputed only when the pattern
    changes.

    Transforms run in buffers owned by the table, so one table must not be
    used by two threads at once.
    """

    # Component pairs (i, j) whose products u_i u_j are transformed, and the
    # transformed product that holds each (i, j): by symmetry six suffice.
    _SYMMETRIC = (
        ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
        np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]),
    )

    def __init__(self, cutoff: int):
        cutoff = int(cutoff)
        reps = []
        r = math.isqrt(cutoff)
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                for c in range(-r, r + 1):
                    k = (a, b, c)
                    if is_representative(k) and eigenvalue(k) <= cutoff:
                        reps.append(k)
        reps.sort()
        self.cutoff = cutoff
        self.reps: list[tuple[int, int, int]] = reps
        self.index = {k: i for i, k in enumerate(reps)}
        self.size = len(reps)
        self.kvec = np.array(reps, dtype=float)            # (R, 3)
        self.lam = np.einsum("rc,rc->r", self.kvec, self.kvec)

        n = _smooth_size(3 * r + 1)
        shape = (n, n, n // 2 + 1)
        k = np.array(reps, dtype=np.intp).reshape(-1, 3)
        # rfftn keeps k_z >= 0: a row with k_z < 0 is read at -k, conjugated
        self._flip = k[:, 2] < 0
        half = np.where(self._flip[:, None], -k, k)
        self._slot = np.ravel_multi_index(tuple((half % n).T), shape)
        # Scatter over both pair halves (rows of [u; conj u]) that fall in the
        # half spectrum; the k_z = 0 plane needs both for a real inverse.
        full = np.concatenate([k, -k])
        keep = full[:, 2] >= 0
        self._scatter_src = np.nonzero(keep)[0]
        self._scatter_dst = np.ravel_multi_index(tuple((full[keep] % n).T), shape)
        self._spec = np.zeros((3,) + shape, dtype=np.complex128)
        self._phys = np.empty((3, n, n, n))
        self._prod = np.empty((6, n, n, n))
        self._prod_spec = np.empty((6,) + shape, dtype=np.complex128)
        self._pattern: np.ndarray | None = None
        self._dead: np.ndarray | None = None

    def densify(self, u: SpectralField) -> np.ndarray:
        """Coefficients of P_M u over the rows: modes outside the ball are dropped."""
        out = np.zeros((self.size, 3), dtype=np.complex128)
        for k, c in u.modes():
            i = self.index.get(k)
            if i is not None:
                out[i] = c
        return out

    def to_field(self, coeffs: np.ndarray) -> SpectralField:
        live = np.nonzero(np.any(coeffs != 0, axis=1))[0]
        return SpectralField({self.reps[i]: coeffs[i] for i in live})

    def _to_grid(self, coeffs: np.ndarray, spec: np.ndarray, phys: np.ndarray) -> None:
        """Physical values of the (C, R) representative coefficients on the grid, into phys."""
        flat = spec.reshape(len(spec), -1)
        flat[:, self._scatter_dst] = np.concatenate([coeffs, np.conj(coeffs)], axis=1)[
            :, self._scatter_src
        ]
        np.fft.irfftn(spec, s=phys.shape[1:], axes=(1, 2, 3), norm="forward", out=phys)

    def _from_grid(self, phys: np.ndarray, spec: np.ndarray) -> np.ndarray:
        """(C, R) representative coefficients of the physical values phys."""
        np.fft.rfftn(phys, axes=(1, 2, 3), norm="forward", out=spec)
        coeffs = spec.reshape(len(spec), -1)[:, self._slot]
        coeffs[:, self._flip] = np.conj(coeffs[:, self._flip])
        return coeffs

    def _dead_rows(self, live: np.ndarray) -> np.ndarray:
        """Rows no pair of live modes reaches, from the square of the live-row indicator."""
        if self._pattern is None or not np.array_equal(self._pattern, live):
            phys = self._phys[:1]
            self._to_grid(live[None].astype(np.complex128), self._spec[:1], phys)
            np.multiply(phys[0], phys[0], out=self._prod[0])
            pairs = self._from_grid(self._prod[:1], self._prod_spec[:1])[0]
            self._dead = pairs.real < 0.5
            self._pattern = live
        return self._dead

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """Projected advection B(u, u) of a dense coefficient array.

        The product is taken in divergence form, div(u (x) u), which equals
        (u . grad) u because u is divergence-free; pass only such u.
        """
        dead = self._dead_rows(np.any(u != 0, axis=1))
        phys = self._phys
        self._to_grid(u.T, self._spec, phys)
        pairs, slot = self._SYMMETRIC
        for p, (i, j) in enumerate(pairs):
            np.multiply(phys[i], phys[j], out=self._prod[p])
        w = self._from_grid(self._prod, self._prod_spec)[slot]
        # B_j(k) = i sum_i k_i (u_i u_j)^(k), then the Leray projection
        out = 1j * np.einsum("ri,ijr->rj", self.kvec, w)
        out[dead] = 0.0
        proj = np.einsum("rc,rc->r", out, self.kvec) / self.lam
        out -= proj[:, None] * self.kvec
        return out


def _smooth_size(n: int) -> int:
    """Smallest size >= n whose prime factors are all 2, 3 or 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


_TABLES: dict[int, ModeTable] = {}


def mode_table(cutoff: int) -> ModeTable:
    table = _TABLES.get(cutoff)
    if table is None:
        table = _TABLES[cutoff] = ModeTable(cutoff)
    return table


def evaluate_force(force: ForceExpansion, t: float) -> SpectralField:
    """Total force at time t: sum_n f_n(t) e^{-n t}, plus the unexpanded tail if any."""
    acc = assemble(force.terms, t)
    if force.remainder is not None:
        acc = acc + force.remainder(t)
    return acc


def integrate(u0: SpectralField, force: ForceExpansion, config: SolverConfig) -> Trajectory:
    """March the truncated system from u0 and return uniformly sampled states.

    u0 must be divergence-free and supported inside the cutoff; the expanded
    force levels must fit inside the cutoff too (otherwise the truncation
    would silently drop driven modes). A remainder force is truncated to the
    ball, which is exactly what the Galerkin right side prescribes.
    """
    table = mode_table(config.mode_cutoff)
    u0.require_divergence_free(1e-10)
    reach = max(u0.max_eigenvalue(), force.max_support_eigenvalue())
    if reach > config.mode_cutoff:
        raise ValueError(
            f"initial state or force reaches eigenvalue {reach} beyond mode_cutoff {config.mode_cutoff}"
        )
    u = table.densify(u0)

    h = config.step
    nsteps = int(round(config.t_end / h))
    if nsteps < 1:
        raise ValueError("t_end shorter than one step")
    stride = config.sample_stride
    half = np.exp(-(h / 2.0) * table.lam)[:, None]
    full = np.exp(-h * table.lam)[:, None]

    times = [0.0]
    states = [table.to_field(u)]
    for step in range(1, nsteps + 1):
        t = (step - 1) * h
        f_mid = table.densify(evaluate_force(force, t + h / 2.0))
        n1 = table.densify(evaluate_force(force, t)) - table.convolve(u)
        a2 = half * (u + (h / 2.0) * n1)
        n2 = f_mid - table.convolve(a2)
        a3 = half * u + (h / 2.0) * n2
        n3 = f_mid - table.convolve(a3)
        a4 = full * u + h * (half * n3)
        n4 = table.densify(evaluate_force(force, t + h)) - table.convolve(a4)
        u = full * u + (h / 6.0) * (full * n1 + 2.0 * (half * (n2 + n3)) + n4)
        value = math.sqrt(2.0 * float(np.vdot(u, u).real))
        if not (value <= BLOWUP_NORM):
            raise BlowupError(step * h, value)
        if step % stride == 0:
            times.append(step * h)
            states.append(table.to_field(u))
    return Trajectory(np.array(times), tuple(states), config)

