"""Spectral Galerkin simulation of the forced flow on a mode ball |k|^2 <= M.

The truncated system du/dt + A u + P_M B(u, u) = P_M F(t) is advanced with an
integrating-factor Runge-Kutta scheme: over each step the substitution
w(s) = e^{(s - t) A} u(s) removes the stiff Stokes term exactly, and classical
RK4 advances w. All exponential factors that appear are decaying, so the
scheme is stable for any step; accuracy is the usual O(h^4).

Coefficients live in a dense array over a fixed representative basis (one row
per conjugate pair, so realness stays structural). The advection term is a
pseudo-spectral product: B(u, u) = P div(u (x) u) is formed on a physical
grid of n = 3 floor(sqrt(M)) + 1 points per axis (the 3/2 rule), so no aliased
mode reaches the ball and the result equals the exact finite-support sum of
`spectral.bilinear` truncated to the ball, to rounding. The grid transforms
are pruned DFTs, one small matmul per axis, not FFTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ForceExpansion
from .fieldpoly import assemble, level_support
from .spectral import SpectralField, eigenvalue, is_representative

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowupError",
    "StepCountError",
    "ModeTable",
    "evaluate_force",
    "integrate",
]

BLOWUP_NORM = 1e6
MAX_STEPS = 10**7   # far past the longest run in the tests and benchmark (12,000 steps)


class BlowupError(RuntimeError):
    """Trajectory norm crossed the blow-up guard; carries the time it happened."""

    def __init__(self, t: float, value: float):
        super().__init__(f"solution norm {value:.3e} exceeded {BLOWUP_NORM:.0e} at t = {t:.6g}")
        self.t = t
        self.value = value


class StepCountError(ValueError):
    """t_end / step is not finite or exceeds MAX_STEPS."""


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
        if not (self.t_end / self.step > 0.5):  # round(t_end / step), the step count, is 0
            raise ValueError(f"t_end shorter than one step, got {self.t_end} with step {self.step}")
        if not (self.t_end / self.step <= MAX_STEPS):   # not finite, or a run without end
            raise StepCountError(f"t_end / step = {self.t_end:g} / {self.step:g} = "
                                 f"{self.t_end / self.step:.6g} steps, past the cap of {MAX_STEPS}")
        if self.sample_stride < 1 or self.sample_stride != int(self.sample_stride):
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states, times[i] = i * step * sample_stride, as one block: coeffs[i, l]
    is sample i's coefficient at modes[l] ((L, 3) int64, key order), zero where it has none."""

    times: np.ndarray
    modes: np.ndarray
    coeffs: np.ndarray
    config: SolverConfig

    def __post_init__(self):
        if self.coeffs.shape != (len(self.times), len(self.modes), 3):
            raise ValueError("coefficient block does not match times and modes")

    @classmethod
    def from_states(cls, times, states, config: SolverConfig) -> "Trajectory":
        """The block of per-sample fields over the union of their supports."""
        modes = np.array(sorted({k for s in states for k in s.support()}), np.int64).reshape(-1, 3)
        coeffs = np.zeros((len(states), len(modes), 3), dtype=np.complex128)
        for i, s in enumerate(states):   # one sample at a time: no list of row blocks
            coeffs[i] = s._rows(modes)
        return cls(np.asarray(times, float), modes, coeffs, config)

    def state(self, i: int) -> SpectralField:
        return SpectralField(zip(self.modes.tolist(), self.coeffs[i]))

    def __len__(self):
        return len(self.times)

    @property
    def spacing(self) -> float:
        return self.config.step * self.config.sample_stride

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


class ModeTable:
    """Dense workspace over the representatives with |k|^2 <= cutoff.

    Rows follow lexicographic order of the representative wavevectors.
    `convolve` evaluates the advection term on a grid of n = 3r + 1 points
    per axis, where r = floor(sqrt(cutoff)). Every stored mode has
    |k_i| <= r, so a product of two fields has |k_i| <= 2r, and a product
    mode that wraps around the grid lands at |k_i| >= n - 2r > r on some
    axis: outside the ball. This is the 3/2 rule of dealiased pseudo-spectral
    products.

    The ball fills only the frequencies |k_i| <= r of each axis, so the
    transforms are pruned separable DFTs on a (2r+1, r+1, 2r+1) cube (k_z >= 0;
    the rest follows by realness): one matmul per axis against a matrix built
    here, n x (2r+1) complex on x and y, and on z a real one over interleaved
    (re, im) columns, weight 2 off k_z = 0. Forward uses conjugates over n.

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
        self.size = len(reps)
        self.kvec = np.array(reps, dtype=float)            # (R, 3)
        self.lam = np.einsum("rc,rc->r", self.kvec, self.kvec)
        # B_j(k) = i sum_i k_i (u_i u_j)^(k), then the Leray projection: one (3, 6) map per row
        leray = np.eye(3)[:, :, None] - self.kvec.T[:, None] * self.kvec.T / self.lam
        div = np.einsum("ijp,ri->jpr", np.eye(6)[self._SYMMETRIC[1]], self.kvec)
        self._advect = 1j * np.einsum("jlr,lpr->jpr", leray, div)
        self._n = n = 3 * r + 1
        shape = (2 * r + 1, r + 1, 2 * r + 1)   # the spectral cube, axes (k_x, k_z, k_y)
        cube_at = lambda v: np.ravel_multi_index(tuple((v[:, [0, 2, 1]] + (r, 0, r)).T), shape)
        self._k = k = np.array(reps, dtype=np.intp).reshape(-1, 3)
        self._basis = SpectralField(zip(reps, np.ones((self.size, 3))))  # the rows as a field
        # The cube keeps k_z >= 0: a row with k_z < 0 is read at -k, conjugated
        self._flip = k[:, 2] < 0
        self._slot = cube_at(np.where(self._flip[:, None], -k, k))
        # Scatter over both pair halves (rows of [u; conj u]) that fall in the
        # half spectrum; the k_z = 0 plane needs both for a real inverse.
        full = np.concatenate([k, -k])
        self._scatter_src = np.nonzero(full[:, 2] >= 0)[0]
        self._scatter_dst = cube_at(full[self._scatter_src])
        # e^{2 pi i j k / n} for grid points j and frequencies k, from the roots of
        # unity (np.exp on complex pulls in resident code); z weighs 2 off k_z = 0
        grid = np.arange(n)
        root = np.array([complex(math.cos(a), math.sin(a)) for a in 2 * math.pi * grid / n])
        self._inv = root[np.outer(grid, np.arange(-r, r + 1)) % n]
        self._fwd = self._inv.conj().T / n
        ez = root[np.outer(np.arange(r + 1), grid) % n]
        ez = np.stack([ez.real, -ez.imag], axis=1).reshape(2 * r + 2, n)   # (re, im) rows
        self._inv_z, self._fwd_z = np.concatenate([ez[:2], 2.0 * ez[2:]]), ez.T / n
        self._cube = np.zeros((3,) + shape, dtype=np.complex128)   # scatter target only
        self._cube_out = np.empty((6,) + shape, dtype=np.complex128)
        self._mid = np.empty((6, n) + shape[1:], dtype=np.complex128)    # (x, k_z, k_y)
        self._plane = np.empty((6, n, n, r + 1), dtype=np.complex128)   # (y, x, k_z)
        self._phys = np.empty((3, n, n, n))                            # (y, x, z)
        self._prod = np.empty((6, n, n, n))
        self._pattern: np.ndarray | None = None
        self._dead: np.ndarray | None = None

    def densify(self, u: SpectralField) -> np.ndarray:
        """Coefficients of P_M u over the rows: modes outside the ball are dropped."""
        return u._rows(self._k)

    def to_field(self, coeffs: np.ndarray) -> SpectralField:
        return self._basis._reweighted(np.array(coeffs, dtype=np.complex128))

    def _to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Physical values of the (C, R) representative coefficients, C <= 3, in a table buffer."""
        c, n, w = len(coeffs), self._n, len(self._fwd)
        cube, mid, plane, phys = self._cube[:c], self._mid[:c], self._plane[:c], self._phys[:c]
        both = np.concatenate([coeffs, np.conj(coeffs)], axis=1)
        cube.reshape(c, -1)[:, self._scatter_dst] = both[:, self._scatter_src]
        np.matmul(self._inv, cube.reshape(c, w, -1), out=mid.reshape(c, n, -1))
        np.matmul(self._inv, mid.reshape(c, -1, w).transpose(0, 2, 1), out=plane.reshape(c, n, -1))
        np.matmul(plane.view(np.float64).reshape(-1, len(self._inv_z)), self._inv_z,
                  out=phys.reshape(-1, n))
        return phys

    def _from_grid(self, phys: np.ndarray) -> np.ndarray:
        """(C, R) representative coefficients of the physical values phys, C <= 6."""
        c, n, w = len(phys), self._n, len(self._fwd)
        cube, mid, plane = self._cube_out[:c], self._mid[:c], self._plane[:c]
        np.matmul(phys.reshape(-1, n), self._fwd_z,
                  out=plane.view(np.float64).reshape(-1, len(self._inv_z)))
        np.matmul(plane.reshape(c, n, -1).transpose(0, 2, 1), self._fwd.T, out=mid.reshape(c, -1, w))
        np.matmul(self._fwd, mid.reshape(c, n, -1), out=cube.reshape(c, w, -1))
        coeffs = cube.reshape(c, -1)[:, self._slot]
        coeffs[:, self._flip] = np.conj(coeffs[:, self._flip])
        return coeffs

    def _dead_rows(self, live: np.ndarray) -> np.ndarray:
        """Rows no pair of live modes reaches, from the square of the live-row indicator."""
        if self._pattern is None or not np.array_equal(self._pattern, live):
            phys = self._to_grid(live[None].astype(np.complex128))
            np.multiply(phys[0], phys[0], out=self._prod[0])
            self._dead = self._from_grid(self._prod[:1])[0].real < 0.5
            self._pattern = live
        return self._dead

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """Projected advection B(u, u) of a dense coefficient array.

        The product is taken in divergence form, div(u (x) u), which equals
        (u . grad) u because u is divergence-free; pass only such u.
        """
        dead = self._dead_rows(np.any(u != 0, axis=1))
        phys = self._to_grid(u.T)
        for p, (i, j) in enumerate(self._SYMMETRIC[0]):
            np.multiply(phys[i], phys[j], out=self._prod[p])
        out = np.einsum("jpr,pr->jr", self._advect, self._from_grid(self._prod))
        out[:, dead] = 0.0
        return out.T


def evaluate_force(force: ForceExpansion, modes: np.ndarray, times) -> np.ndarray:
    """Total force sum_n f_n(t) e^{-n t} at the (K, 3) modes and the times: `assemble` on the
    force's levels, under its own name because `bench/tracing.py` counts its calls."""
    return assemble(force.terms, modes, times)


def integrate(u0: SpectralField, force: ForceExpansion, config: SolverConfig) -> Trajectory:
    """March the truncated system from u0 and return uniformly sampled states.

    u0 must be divergence-free and supported inside the cutoff; the expanded
    force levels must fit inside the cutoff too (otherwise the truncation
    would silently drop driven modes).
    """
    table = ModeTable(config.mode_cutoff)
    u0.require_divergence_free()
    support = level_support(force.terms)
    reach = max([u0.max_eigenvalue(), *map(eigenvalue, support.tolist())])
    if reach > config.mode_cutoff:
        raise ValueError(
            f"initial state or force reaches eigenvalue {reach} beyond mode_cutoff {config.mode_cutoff}"
        )
    at = [table.reps.index(tuple(k)) for k in support.tolist()]   # the force's table rows
    u = table.densify(u0)

    h = config.step
    nsteps = int(round(config.t_end / h))
    stride = config.sample_stride
    half = np.exp(-(h / 2.0) * table.lam)[:, None]
    full = np.exp(-h * table.lam)[:, None]

    times = [0.0]
    states = [table.to_field(u)]
    f_start = np.zeros((table.size, 3), dtype=np.complex128)
    f_start[at] = evaluate_force(force, support, (0.0,))[0]
    for step in range(1, nsteps + 1):
        f_mid, f_end = np.zeros((2, table.size, 3), dtype=np.complex128)
        f_mid[at], f_end[at] = evaluate_force(force, support, ((step - 1) * h + h / 2.0, step * h))
        n1 = f_start - table.convolve(u)
        a2 = half * (u + (h / 2.0) * n1)
        n2 = f_mid - table.convolve(a2)
        a3 = half * u + (h / 2.0) * n2
        n3 = f_mid - table.convolve(a3)
        a4 = full * u + h * (half * n3)
        n4 = f_end - table.convolve(a4)
        f_start = f_end   # each force time is evaluated once
        u = full * u + (h / 6.0) * (full * n1 + 2.0 * (half * (n2 + n3)) + n4)
        value = math.sqrt(2.0 * float(np.vdot(u, u).real))
        if not (value <= BLOWUP_NORM):
            raise BlowupError(step * h, value)
        if step % stride == 0:
            times.append(step * h)
            states.append(table.to_field(u))
    return Trajectory.from_states(times, states, config)

