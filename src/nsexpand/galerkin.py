"""Spectral Galerkin simulation of the forced flow on a mode ball |k|^2 <= M.

The truncated system du/dt + A u + P_M B(u, u) = P_M F(t) is advanced with an
integrating-factor Runge-Kutta scheme: over each step the substitution
w(s) = e^{(s - t) A} u(s) removes the stiff Stokes term exactly, and classical
RK4 advances w. All exponential factors that appear are decaying, so the
scheme is stable for any step; accuracy is the usual O(h^4).

Coefficients live in a dense array over a fixed representative basis (one row
per conjugate pair, so realness stays structural). That basis is the closure
of the initial state's and the force's modes: the ball rows their sums and
differences reach, which are the only rows the flow can reach. Two kernels
give the advection term B(u, u) = P div(u (x) u) on it, both equal to the
exact finite-support sum of `spectral.bilinear` truncated to the ball, to
rounding:
- up to PAIR_CROSSOVER ordered pairs, that sum itself, over pairs fixed once;
- past it, on the whole ball, a pseudo-spectral product on a physical grid of
  n = 3 floor(sqrt(M)) + 1 points per axis (the 3/2 rule), so no aliased mode
  reaches the ball. Its transforms are pruned DFTs, one small matmul per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expansion import ForceExpansion
from .fieldpoly import _decay, assemble, level_support
from .spectral import MAX_CUTOFF, SpectralField, _ball, _mode_rows, _mode_union, _pair_sums, eigenvalue

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
# Steps whose force is evaluated in one call. A whole-run block grows with the run (2 x 10^7
# times at MAX_STEPS); on the ladder (M = 12, 1,200 steps) `integrate` took 271 minor page
# faults with one, 142 with 256-step chunks and 138 with one call per step.
FORCE_CHUNK = 256


class BlowupError(RuntimeError):
    """Trajectory norm crossed the blow-up guard; carries the time it happened."""

    def __init__(self, t: float, value: float):
        super().__init__(f"solution norm {value:.3e} exceeded {BLOWUP_NORM:.0e} at t = {t:.6g}")
        self.t = t
        self.value = value


class StepCountError(ValueError):
    """t_end / step is not finite or exceeds MAX_STEPS."""


class _CutoffError(ValueError):
    """mode_cutoff or a scenario's N_max is not an integer in [1, MAX_CUTOFF]."""


@dataclass(frozen=True)
class SolverConfig:
    mode_cutoff: int
    step: float
    t_end: float
    sample_stride: int = 1

    def __post_init__(self):
        if not 1 <= self.mode_cutoff <= MAX_CUTOFF or self.mode_cutoff != int(self.mode_cutoff):
            raise _CutoffError(f"mode_cutoff must be an integer in [1, {MAX_CUTOFF}], got {self.mode_cutoff}")
        if not (0 < self.step <= 0.5):
            raise ValueError(f"step must lie in (0, 0.5], got {self.step}")
        if not (self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (self.t_end / self.step <= MAX_STEPS):   # not finite, or a run without end
            raise StepCountError(f"t_end / step = {self.t_end:g} / {self.step:g} = "
                                 f"{self.t_end / self.step:.6g} steps, past the cap of {MAX_STEPS}")
        if self.steps == 0:
            raise ValueError(f"t_end shorter than one step, got {self.t_end} with step {self.step}")
        if self.sample_stride < 1 or self.sample_stride != int(self.sample_stride):
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.step)


@dataclass(frozen=True)
class Trajectory:
    """States at times[i] = i * sample_stride * step of config, as one block: coeffs[i, l] is
    sample i's coefficient at modes[l] ((L, 3) int64, distinct, key order), zero if absent."""

    modes: np.ndarray
    coeffs: np.ndarray
    config: SolverConfig

    def __post_init__(self):
        shape = (len(self.times), len(self.modes), 3)
        if self.coeffs.dtype != np.complex128 or self.coeffs.shape != shape:
            raise ValueError(f"expected complex128 {shape}, got {self.coeffs.dtype} {self.coeffs.shape}")
        if not np.array_equal(_mode_union(self.modes), self.modes):   # modes are looked up by key
            raise ValueError("trajectory modes must be distinct and in key order")

    @classmethod
    def from_states(cls, states, config: SolverConfig) -> "Trajectory":
        """The block of per-sample fields over the union of their supports."""
        modes = _mode_union(*{s._key.tobytes(): s._k for s in states}.values())   # each support once
        coeffs = np.zeros((len(states), len(modes), 3), dtype=np.complex128)
        for i, s in enumerate(states):   # one sample at a time: no list of row blocks
            coeffs[i] = s._c if len(s._c) == len(modes) else s._rows(modes)   # a full support is `modes`
        return cls(modes, coeffs, config)

    def state(self, i: int) -> SpectralField:
        return SpectralField(zip(self.modes.tolist(), self.coeffs[i]))

    def __len__(self):
        return len(self.coeffs)

    @cached_property
    def times(self) -> np.ndarray:
        c = self.config   # steps 0, sample_stride, 2 sample_stride, ... of the run
        return np.arange(c.steps // c.sample_stride + 1) * c.sample_stride * c.step

    @property
    def spacing(self) -> float:
        return self.config.step * self.config.sample_stride

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


# The pair count past which the exact pair sum costs more per `convolve` call than the grid
# product. Measured on the same rows (2 cores, numpy 2.4.6, best of 7 x 300 calls; pair sum
# vs grid): ladder closure at M = 12, 81 pairs, 36 vs 117 us; at M = 24, 474 pairs, 61 vs
# 215 us; ball M = 5, 645 pairs, 75 vs 89 us; ball M = 6, 1,461 pairs, 122 vs 93 us; ball
# M = 12, 7,257 pairs, 835 vs 109 us.
PAIR_CROSSOVER = 1000


def _closure(cutoff: int, seed: np.ndarray):
    """The rows S of the ball that hold the seed and every k + m and k - m of two of their
    rows that lies in the ball, in key order, with the pairs of [S; -S] that sum into S
    (`_pair_sums` indices and keys); None once those pairs pass PAIR_CROSSOVER."""
    s = _mode_union(seed)
    # S's (2 |S|)^2 candidate sums: a compact set keeps about a fifth of them (ball M = 3:
    # 132 of 676, M = 6: 1,461 of 6,400), so a set past this bound is past the crossover
    while 4 * len(s) ** 2 <= 16 * PAIR_CROSSOVER:
        full = np.concatenate((s, -s))
        pair, key = _pair_sums(full, full)
        sums = full[pair // len(full)] + full[pair % len(full)]
        inside = np.einsum("ij,ij->i", sums, sums) <= cutoff
        if np.count_nonzero(inside) > PAIR_CROSSOVER:
            return None
        grown = _mode_union(s, sums[inside])
        if len(grown) == len(s):
            return s, pair[inside], key[inside]
        s = grown
    return None


class ModeTable:
    """Dense workspace over representative rows with |k|^2 <= cutoff, and the projected
    advection on them. Rows follow the key order of the wavevectors.

    `ModeTable(cutoff)` holds the whole ball. `ModeTable(cutoff, seed)` holds the
    closure S of the seed wavevectors: the ball rows that sums and differences of
    S's rows reach. A flow whose initial state and force live on the seed stays on
    S, because every product mode outside S leaves the ball. While at most
    PAIR_CROSSOVER ordered pairs of S's modes (both halves) sum into S, `convolve`
    is the exact pair sum over them: the arithmetic of `spectral.bilinear`, with
    its pairs, their wavevectors and the targets' Leray maps fixed here. Past the
    crossover the table is the whole ball with the grid product below.

    The grid product evaluates the advection term on n = 3r + 1 points per
    axis, where r = floor(sqrt(cutoff)). Every stored mode has |k_i| <= r, so a
    product of two fields has |k_i| <= 2r, and a product mode that wraps around
    the grid lands at |k_i| >= n - 2r > r on some axis: outside the ball. This
    is the 3/2 rule of dealiased pseudo-spectral products.

    The ball fills only the frequencies |k_i| <= r of each axis, so the
    transforms are pruned separable DFTs on a (2r+1, r+1, 2r+1) cube (k_z >= 0;
    the rest follows by realness): one matmul per axis against a matrix built
    here, n x (2r+1) complex on x and y, and on z a real one over interleaved
    (re, im) columns, weight 2 off k_z = 0. Forward uses conjugates over n.

    With either kernel, rows that no pair of live input modes m + l reaches
    are +0.0, so the output support is that of the exact convolution and not a
    ball filled with rounding noise. The grid product sets them through a
    support mask, recomputed only when the live-row pattern changes.

    Both kernels run in buffers owned by the table, so one table must not be
    used by two threads at once.
    """

    # Component pairs (i, j) whose products u_i u_j are transformed, and the
    # transformed product that holds each (i, j): by symmetry six suffice.
    _SYMMETRIC = (
        ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
        np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]),
    )

    def __init__(self, cutoff: int, seed: np.ndarray | None = None):
        self.cutoff = cutoff = int(cutoff)
        closure = None if seed is None else _closure(cutoff, seed)
        self._k = k = _ball(cutoff) if closure is None else closure[0]
        self.size = len(k)
        self.kvec = k.astype(float)            # (R, 3)
        self.lam = np.einsum("rc,rc->r", self.kvec, self.kvec)
        self._basis = SpectralField(zip(k.tolist(), np.ones((self.size, 3))))  # the rows as a field
        self._pairs = closure is not None
        if self._pairs:
            pair, key = closure[1:]
            full = np.concatenate((k, -k))   # rows of [u; conj u]
            self._p, self._q = np.divmod(pair, len(full))
            self._il = 1j * full[self._q]   # i l for each pair's second mode l
            self._starts = np.flatnonzero(np.diff(key, prepend=0))   # keys are positive
            self._target = _mode_rows(full[self._p[self._starts]] + full[self._q[self._starts]], k)
            kt = self.kvec[self._target]
            self._leray = np.eye(3) - kt[:, :, None] * kt[:, None, :] / self.lam[self._target, None, None]
            self._pq = np.concatenate((self._p, self._q))
            buf = np.empty((2 * self.size + len(self._pq), 3), dtype=np.complex128)
            self._both, self._at_pq = np.split(buf, [2 * self.size])
            self._at_p, self._at_q = np.split(self._at_pq, 2)
            return
        r = math.isqrt(cutoff)
        # B_j(k) = i sum_i k_i (u_i u_j)^(k), then the Leray projection: one (3, 6) map per row
        leray = np.eye(3)[:, :, None] - self.kvec.T[:, None] * self.kvec.T / self.lam
        div = np.einsum("ijp,ri->jpr", np.eye(6)[self._SYMMETRIC[1]], self.kvec)
        self._advect = 1j * np.einsum("jlr,lpr->jpr", leray, div)
        self._n = n = 3 * r + 1
        shape = (2 * r + 1, r + 1, 2 * r + 1)   # the spectral cube, axes (k_x, k_z, k_y)
        cube_at = lambda v: np.ravel_multi_index(tuple((v[:, [0, 2, 1]] + (r, 0, r)).T), shape)
        # The cube keeps k_z >= 0: a row with k_z < 0 is read at -k, conjugated
        self._flip = k[:, 2] < 0
        self._slot = cube_at(np.where(self._flip[:, None], -k, k))
        # Scatter over both pair halves (rows of [u; conj u]) that fall in the
        # half spectrum; the k_z = 0 plane needs both for a real inverse.
        full = np.concatenate([k, -k])
        self._scatter_src = np.nonzero(full[:, 2] >= 0)[0]
        self._scatter_dst = cube_at(full[self._scatter_src])
        # e^{2 pi i j k / n} for grid points j and frequencies k, from the roots of
        # unity (numpy's complex exp pulls in resident code); z weighs 2 off k_z = 0
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

    # The grid product's DFTs are BLAS matmuls: a flow on a table past PAIR_CROSSOVER has
    # bits that follow the BLAS kernel. The pair sum below the crossover calls no BLAS routine.
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
        if self._pairs:   # sum over m + l = k of i (c(m) . l) c(l), then Leray
            both, at_q = self._both, self._at_q
            both[:self.size] = u
            np.conjugate(u, out=both[self.size:])
            both.take(self._pq, axis=0, out=self._at_pq)
            dots = np.einsum("pc,pc->p", self._at_p, self._il)
            acc = np.add.reduceat(np.multiply(dots[:, None], at_q, out=at_q), self._starts, axis=0)
            # einsum sums from +0.0, so a row that no pair of live modes reaches, whose
            # terms are all +-0.0, comes out +0.0
            leray = np.einsum("tij,tj->ti", self._leray, acc)
            if len(self._target) == self.size:   # every row is some pair's target
                return leray
            out = np.zeros((self.size, 3), dtype=np.complex128)
            out[self._target] = leray
            return out
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
    would silently drop driven modes). The march runs on the rows of
    `ModeTable(cutoff, supp u0 + supp force)`, the only rows the flow reaches.
    """
    u0.require_divergence_free()
    support = level_support(force.terms)
    reach = max([u0.max_eigenvalue(), *map(eigenvalue, support.tolist())])
    if reach > config.mode_cutoff:
        raise ValueError(f"initial state or force reaches eigenvalue {reach} "
                         f"beyond mode_cutoff {config.mode_cutoff}")
    table = ModeTable(config.mode_cutoff, _mode_union(u0._k, support))
    at = _mode_rows(support, table._k)   # the force's table rows
    u = table.densify(u0)

    h = config.step
    # complex (R, 3) factors: each product runs numpy's complex loop with no cast or broadcast;
    # `math.exp` rounds them, not a SIMD loop that numpy picks for the CPU
    half, full = (np.broadcast_to(_decay(s, table.lam)[:, None], u.shape).astype(np.complex128)
                  for s in (h / 2.0, h))

    states = [table.to_field(u)]
    f_start = np.zeros((table.size, 3), dtype=np.complex128)
    f_start[at] = evaluate_force(force, support, (0.0,))[0]
    for first in range(1, config.steps + 1, FORCE_CHUNK):
        chunk = np.arange(first, min(first + FORCE_CHUNK, config.steps + 1))
        # each step's midpoint and end, in the order of the steps
        times = np.stack(((chunk - 1) * h + h / 2.0, chunk * h), axis=1).reshape(-1)
        forces = evaluate_force(force, support, times).reshape(len(chunk), 2, len(support), 3)
        for step, (mid, end) in zip(chunk.tolist(), forces):
            f_mid, f_end = np.zeros((2, table.size, 3), dtype=np.complex128)
            f_mid[at], f_end[at] = mid, end
            n1 = f_start - table.convolve(u)
            a2 = half * (u + (h / 2.0) * n1)
            n2 = f_mid - table.convolve(a2)
            a3 = half * u + (h / 2.0) * n2
            n3 = f_mid - table.convolve(a3)
            a4 = full * u + h * (half * n3)
            n4 = f_end - table.convolve(a4)
            f_start = f_end   # each force time is evaluated once
            u = full * u + (h / 6.0) * (full * n1 + 2.0 * (half * (n2 + n3)) + n4)
            value = math.sqrt(2.0 * float(np.vdot(u, u).real))   # a BLAS dot: it reaches no output
            if not (value <= BLOWUP_NORM):
                raise BlowupError(step * h, value)
            if step % config.sample_stride == 0:
                states.append(table.to_field(u))
    return Trajectory.from_states(states, config)
