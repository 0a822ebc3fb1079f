"""The benchmark's workloads: seeded scenario files and the CLI calls one operation makes.

Every input is generated here from the workload seed; the program under test
only ever sees the scenario file. The generator uses numpy alone, so a change
inside `nsexpand` cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AMPLITUDE = 0.05  # |phi| of the ladder force, as in the Tier-1 rate-ladder scenario
NORM_SPECS = [[0.5, 0.0], [0.5, 0.1]]
CERTIFICATE = {"alpha": 0.5, "delta": 0.5, "lambda": 1.0, "sigma": 0.0, "K": 2.0}

# Raw coefficients of the Tier-1 `ladder_phi()` (tests/conftest.py); seed 0 reuses them.
TIER1_LADDER_RAW = {
    (1, 1, 0): [0.6 + 0.2j, -0.6 - 0.2j, 0.5 - 0.1j],
    (1, 0, 1): [0.4 - 0.3j, 0.7 + 0.1j, -0.4 + 0.3j],
}

# Input sizes. "full" is what BENCHMARK.json runs; "tiny" only feeds the self-test.
SIZES = {
    "full": {
        "ladder_cutoff": 12,
        "simulate_cutoff": 24,
        "simulate_t_end": 1.0,
        "expand_levels": 4,
    },
    "tiny": {
        "ladder_cutoff": 6,
        "simulate_cutoff": 8,
        "simulate_t_end": 0.2,
        "expand_levels": 2,
    },
}
STEP = 1e-2
LADDER_T_END = 12.0  # the Tier-1 horizon: 1201 samples at spacing STEP


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "ladder", "simulate" or "expand": which scenario and checks
    commands: tuple[str, ...]   # nse-expand subcommands run, in order, by one operation
    warm: bool = False          # each operation starts from a copy of a tree a cold operation left


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder-cold", "ladder", ("verify", "certify")),
        Workload("ladder-warm", "ladder", ("verify", "certify"), warm=True),
        Workload("simulate-m24", "simulate", ("simulate",)),
        Workload("expand-deep", "expand", ("expand",)),
    )
}


# -- divergence-free random fields ------------------------------------------------


def shell(n: int) -> list[tuple[int, int, int]]:
    """Representative wavevectors with |k|^2 = n, in lexicographic order."""
    r = math.isqrt(n)
    return [
        (a, b, c)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        for c in range(-r, r + 1)
        if a * a + b * b + c * c == n and (a, b, c) > (0, 0, 0)
    ]


def _project(raw: dict) -> dict:
    """Remove the component along k from each coefficient (same arithmetic as leray_project)."""
    out = {}
    for k, c in sorted(raw.items()):
        c = np.array(c, dtype=np.complex128)
        kv = np.array(k, dtype=float)
        out[k] = c - (np.dot(c, kv) / (k[0] ** 2 + k[1] ** 2 + k[2] ** 2)) * kv
    return out


def _l2_norm(field: dict) -> float:
    return math.sqrt(
        math.fsum(2.0 * float(c.real @ c.real + c.imag @ c.imag) for c in field.values())
    )


def _random_field(rng, modes, scale: float) -> dict:
    raw = {k: scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for k in modes}
    return _project(raw)


def _literal(field: dict) -> list[dict]:
    return [
        {"k": list(k), "re": [float(x) for x in c.real], "im": [float(x) for x in c.imag]}
        for k, c in sorted(field.items())
    ]


# -- scenarios -----------------------------------------------------------------------


def ladder_phi(seed: int) -> dict:
    """Force direction on two |k|^2 = 2 modes with |phi| = AMPLITUDE; seed 0 is Tier-1's."""
    if seed == 0:
        raw = TIER1_LADDER_RAW
    else:
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        raw = {(1, 1, 0): c[0], (1, 0, 1): c[1]}
    phi = _project(raw)
    scale = AMPLITUDE / _l2_norm(phi)
    return {k: c * scale for k, c in phi.items()}


def _ladder_doc(name: str, seed: int, cutoff: int, t_end: float) -> dict:
    return {
        "name": name,
        "force": {"terms": [{"n": 1, "poly": {"degree_coeffs": [_literal(ladder_phi(seed))]}}]},
        "initial": [],
        "expansion": {"N_max": 2, "target_epsilon": 0.5, "norm_specs": NORM_SPECS},
        "solver": {"mode_cutoff": cutoff, "step": STEP, "t_end": t_end, "sample_stride": 1},
        "certificates": [dict(CERTIFICATE)],
    }


# Fixed force supports for expand-deep, so every seed builds levels of nearly the same shape.
EXPAND_FORCE_MODES = {1: shell(1) + shell(2), 2: shell(1) + shell(3)}
EXPAND_SCALE = 0.1


def _expand_doc(seed: int, levels: int) -> dict:
    rng = np.random.default_rng(seed)
    terms = [
        {
            "n": n,
            "poly": {
                "degree_coeffs": [
                    _literal(_random_field(rng, modes, EXPAND_SCALE)) for _ in range(2)
                ]
            },
        }
        for n, modes in EXPAND_FORCE_MODES.items()
    ]
    resonant = {
        str(n): _literal(_random_field(rng, shell(n), EXPAND_SCALE))
        for n in range(1, levels + 1)
        if shell(n)
    }
    return {
        "name": "expand-deep",
        "force": {"terms": terms},
        "initial": [],
        "expansion": {"N_max": levels, "resonant": resonant},
        "solver": {"mode_cutoff": 12, "step": STEP, "t_end": 1.0},
    }


def scenario_doc(workload: Workload, seed: int, size: str = "full") -> dict:
    s = SIZES[size]
    if workload.kind == "ladder":
        return _ladder_doc("rate-ladder", seed, s["ladder_cutoff"], LADDER_T_END)
    if workload.kind == "simulate":
        return _ladder_doc("ladder-simulate", seed, s["simulate_cutoff"], s["simulate_t_end"])
    return _expand_doc(seed, s["expand_levels"])
