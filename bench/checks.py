"""Output checks for one benchmark operation, run outside the timed section.

Each check reads the output tree the CLI wrote and returns a list of failure
messages; an empty list means the operation's outputs are correct. Numbers
that depend on the seed are compared with a value recorded for that seed in
`references.json` when there is one, and otherwise with the analytic
leading-order value of the ladder scenario at a wider stated tolerance.
Everything here is numpy on the written files: no check calls into
`nsexpand`, so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import AMPLITUDE, CERTIFICATE

RESIDUAL_TOL = 1e-10          # level equations, as expansion.RESIDUAL_TOL
DIVERGENCE_TOL = 1e-10        # |k.c| / (|k| max|c|) of every sampled state
ENERGY_DEFECT_RATE = 1e-6     # max energy-ledger defect per unit time (Tier-1 criterion 6)

# Tolerances against a value recorded for the same seed (relative unless noted).
RECORDED_TOL = {"slope": 1e-3, "min_margin": 1e-9, "final_norm": 1e-9, "coef_norm": 1e-9}
# Tolerances against the analytic leading order, for seeds with no record.
ANALYTIC_SLOPE_TOL = {1: 0.02, 2: 0.4}   # absolute, around -(N + 1)
ANALYTIC_MIN_MARGIN_TOL = 1e-4
ANALYTIC_FINAL_NORM_TOL = 1e-4

REFERENCES_PATH = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _field(literal) -> dict:
    return {
        tuple(e["k"]): np.array(e["re"], dtype=float) + 1j * np.array(e["im"], dtype=float)
        for e in literal
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


# -- trajectory-level invariants ----------------------------------------------------------


def read_trajectory(run_dir: Path):
    """Times (S,), wavevectors (R,3) and coefficients (S,R,3) of trajectory.csv."""
    modes = np.array(_load(run_dir / "trajectory_modes.json")["modes"], dtype=float).reshape(-1, 3)
    data = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    vals = data[:, 1:].reshape(len(data), len(modes), 3, 2)
    return data[:, 0], modes, vals[..., 0] + 1j * vals[..., 1]


def divergence_defect(modes: np.ndarray, coeffs: np.ndarray) -> float:
    if coeffs.size == 0:
        return 0.0
    kdotc = np.abs(np.einsum("src,rc->sr", coeffs, modes)) / np.linalg.norm(modes, axis=1)
    scale = np.abs(coeffs).max(axis=(1, 2))
    live = scale > 0
    if not live.any():
        return 0.0
    return float((kdotc.max(axis=1)[live] / scale[live]).max())


def energy_defect_rate(times, modes, coeffs, phi: dict) -> float:
    """Max |energy-ledger defect| per unit time for the force phi e^{-t} (trapezoid rule)."""
    lam = np.einsum("rc,rc->r", modes, modes)
    mag2 = (np.abs(coeffs) ** 2).sum(axis=2)               # (S, R)
    energy = mag2.sum(axis=1)                                # 1/2 |u|^2, both pair halves
    enstrophy = 2.0 * (mag2 * lam).sum(axis=1)              # |A^(1/2) u|^2
    f = np.zeros(coeffs.shape[1:], dtype=np.complex128)
    index = {tuple(int(x) for x in k): i for i, k in enumerate(modes)}
    for k, c in phi.items():
        if k in index:
            f[index[k]] = c
    work = 2.0 * np.real(np.einsum("rc,src->s", f, np.conj(coeffs))) * np.exp(-times)
    dt = np.diff(times)
    defects = (
        energy[1:] - energy[:-1]
        + 0.5 * dt * (enstrophy[1:] + enstrophy[:-1])
        - 0.5 * dt * (work[1:] + work[:-1])
    )
    return float(np.max(np.abs(defects)) / dt.min()) if len(dt) else 0.0


def final_norm(coeffs: np.ndarray) -> float:
    return math.sqrt(2.0 * float((np.abs(coeffs[-1]) ** 2).sum()))


# -- observed values ---------------------------------------------------------------------------


def _slope_key(row) -> str:
    return f"N{row['level']}_alpha{row['alpha']:g}_sigma{row['sigma']:g}"


def observe(kind: str, run_dir: Path) -> dict:
    """The seed-dependent numbers of one output tree, as recorded in references.json."""
    if kind == "expand":
        levels = [_load(p) for p in sorted((run_dir / "expansion").glob("level_*.json"))]
        coeffs = [_field(c) for lv in levels for c in lv["poly"]["degree_coeffs"]]
        return {
            "degrees": [len(lv["poly"]["degree_coeffs"]) - 1 for lv in levels],
            "supports": [
                max((len(c) for c in lv["poly"]["degree_coeffs"]), default=0) for lv in levels
            ],
            "coef_norm": math.sqrt(
                math.fsum(2.0 * float(np.vdot(v, v).real) for f in coeffs for v in f.values())
            ),
        }
    _, _, coeffs = read_trajectory(run_dir)
    out = {"final_norm": final_norm(coeffs)}
    if kind == "ladder":
        out["slopes"] = {
            _slope_key(r): r.get("slope") for r in _load(run_dir / "reports" / "verify.json")["rows"]
        }
        out["min_margin"] = _load(run_dir / "reports" / "certify.json")["rows"][0]["min_margin"]
    return out


def analytic_reference(kind: str, doc: dict) -> dict:
    """Leading-order values every seed shares, slopes -(N + 1) and the linear flow from rest.

    With u(0) = 0 and the force phi e^{-t} on |k|^2 = 2, the linear part of the
    flow is phi (e^{-t} - e^{-2t}); the nonlinear correction is what the
    final-norm tolerance allows for.
    """
    t_end = doc["solver"]["t_end"]
    if kind == "expand":
        return {}
    ref = {"final_norm": AMPLITUDE * (math.exp(-t_end) - math.exp(-2.0 * t_end))}
    if kind == "ladder":
        a, d, k = CERTIFICATE["alpha"], CERTIFICATE["delta"], CERTIFICATE["K"]
        c0, rate = d / (4.0 * k**a), 1.0 - d
        # the last unit window of the integral conclusion is the tightest margin
        ref["min_margin"] = 3.0 * c0 * c0 / (2.0 * rate) * math.exp(-2.0 * rate * (t_end - 1.0))
    return ref


# -- the checks ---------------------------------------------------------------------------------


def _compare(observed: dict, recorded: dict | None, analytic: dict) -> list[str]:
    bad = []
    if recorded is not None:
        for key in ("final_norm", "min_margin", "coef_norm"):
            if key in recorded and _rel(observed[key], recorded[key]) > RECORDED_TOL[key]:
                bad.append(f"{key} {observed[key]!r} differs from recorded {recorded[key]!r}")
        for key in ("degrees", "supports"):
            if key in recorded and observed[key] != recorded[key]:
                bad.append(f"{key} {observed[key]} differ from recorded {recorded[key]}")
        for name, ref in recorded.get("slopes", {}).items():
            got = observed["slopes"].get(name)
            if got is None or abs(got - ref) > RECORDED_TOL["slope"]:
                bad.append(f"slope {name} {got!r} differs from recorded {ref!r}")
        return bad
    if "final_norm" in analytic:
        tol = ANALYTIC_FINAL_NORM_TOL
        if _rel(observed["final_norm"], analytic["final_norm"]) > tol:
            bad.append(
                f"final norm {observed['final_norm']!r} is not within {tol:g} of "
                f"|phi| (e^-T - e^-2T) = {analytic['final_norm']!r}"
            )
    if "min_margin" in analytic:
        if _rel(observed["min_margin"], analytic["min_margin"]) > ANALYTIC_MIN_MARGIN_TOL:
            bad.append(
                f"min margin {observed['min_margin']!r} is not within "
                f"{ANALYTIC_MIN_MARGIN_TOL:g} of {analytic['min_margin']!r}"
            )
    for name, got in observed.get("slopes", {}).items():
        n = int(name[1 : name.index("_")])
        if got is None or abs(got + (n + 1)) > ANALYTIC_SLOPE_TOL[n]:
            bad.append(f"slope {name} {got!r} is not within {ANALYTIC_SLOPE_TOL[n]} of {-(n + 1)}")
    return bad


def _check_expansion_dir(run_dir: Path, n_max: int, require_fits: bool) -> list[str]:
    bad = []
    res = _load(run_dir / "expansion" / "residuals.json")
    if not (res["max_residual"] <= RESIDUAL_TOL):
        bad.append(f"max residual {res['max_residual']!r} exceeds {RESIDUAL_TOL:g}")
    if sorted(int(n) for n in res["residuals"]) != list(range(1, n_max + 1)):
        bad.append(f"residuals cover levels {sorted(res['residuals'])}, expected 1..{n_max}")
    for lv in sorted((run_dir / "expansion").glob("level_*.json")):
        for c in _load(lv)["poly"]["degree_coeffs"]:
            f = _field(c)
            if f:
                modes = np.array(list(f), dtype=float)
                defect = divergence_defect(modes, np.array([list(f.values())]))
                if defect > DIVERGENCE_TOL:
                    bad.append(f"{lv.name}: divergence defect {defect:.3e}")
    if require_fits:
        fits = run_dir / "expansion" / "resonant_fits.json"
        if not fits.exists():
            bad.append("resonant_fits.json missing")
        else:
            for n, fit in _load(fits).items():
                if fit["contaminated"]:
                    bad.append(f"resonant fit of level {n} is contaminated (drift {fit['drift']!r})")
    return bad


def check_tree(kind: str, doc: dict, seed: int, codes: list[int], run_dir: Path,
               references: dict) -> list[str]:
    """Failure messages for one operation's output tree (empty when it is correct).

    `references` maps kind -> seed -> recorded values; pass {} for inputs that
    are not the full size the values were recorded at.
    """
    bad = []
    if any(c != 0 for c in codes):
        bad.append(f"exit codes {codes}, expected all 0")
    try:
        if kind == "ladder":
            rows = _load(run_dir / "reports" / "verify.json")["rows"]
            verdicts = [r["verdict"] for r in rows]
            if verdicts != ["pass"] * 4:
                bad.append(f"verify verdicts {verdicts}, expected 4x pass")
            cert = [r["verdict"] for r in _load(run_dir / "reports" / "certify.json")["rows"]]
            if cert != ["verified"]:
                bad.append(f"certify verdicts {cert}, expected ['verified']")
            bad += _check_expansion_dir(run_dir, doc["expansion"]["N_max"], require_fits=True)
        if kind in ("ladder", "simulate"):
            times, modes, coeffs = read_trajectory(run_dir)
            defect = divergence_defect(modes, coeffs)
            if not defect <= DIVERGENCE_TOL:
                bad.append(f"trajectory divergence defect {defect:.3e} exceeds {DIVERGENCE_TOL:g}")
            phi = _field(doc["force"]["terms"][0]["poly"]["degree_coeffs"][0])
            rate = energy_defect_rate(times, modes, coeffs, phi)
            if not rate <= ENERGY_DEFECT_RATE:
                bad.append(f"energy-ledger defect {rate:.3e} per unit time exceeds {ENERGY_DEFECT_RATE:g}")
        if kind == "simulate":
            for spec in doc["expansion"]["norm_specs"]:
                name = f"norm_alpha{spec[0]:g}_sigma{spec[1]:g}.csv"
                if not (run_dir / "norms" / name).exists():
                    bad.append(f"norms/{name} missing")
        if kind == "expand":
            n_max = doc["expansion"]["N_max"]
            bad += _check_expansion_dir(run_dir, n_max, require_fits=False)
            log = _load(run_dir / "expansion" / "residuals.json")["resonance_log"]
            if [n for n, _ in log] != list(range(1, n_max + 1)):
                bad.append(f"resonance log {log}, expected every level 1..{n_max}")
        observed = observe(kind, run_dir)
        recorded = references.get(kind, {}).get(str(seed))
        bad += _compare(observed, recorded, analytic_reference(kind, doc))
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        bad.append(f"output tree unreadable: {type(exc).__name__}: {exc}")
    return bad


def tree_facts(run_dir: Path) -> dict:
    """Work sizes read off an output tree, for the traced run's per-layer figures."""
    samples = 0
    if (run_dir / "trajectory.csv").exists():
        with open(run_dir / "trajectory.csv") as fh:
            samples = sum(1 for _ in fh) - 1
    levels = [_load(p) for p in sorted((run_dir / "expansion").glob("level_*.json"))]
    coeffs = [c for lv in levels for c in lv["poly"]["degree_coeffs"]]
    return {
        "analysis.samples": samples,
        "expansion.max_support": max((len(c) for c in coeffs), default=0),
        "expansion.max_degree": max((len(lv["poly"]["degree_coeffs"]) - 1 for lv in levels), default=0),
    }
