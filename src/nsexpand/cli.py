"""Command-line driver: scenario in, deterministic file tree out.

    nse-expand expand   --scenario s.json [--out DIR]
    nse-expand simulate --scenario s.json [--out DIR]
    nse-expand verify   --scenario s.json [--out DIR]
    nse-expand certify  --scenario s.json [--out DIR]
    nse-expand spectrum [--nmax N]

Outputs land under <out>/<scenario-name>/: expansion/ (per-level polynomial
documents), trajectory.csv and trajectory.npy (+ mode manifest), norms/ (series
CSVs), reports/ (verify.json and certify.json, the rate fits included; their
tables go to stdout only). simulate, verify and certify reuse the tree's
trajectory block when the tree holds both trajectory files and a manifest with
the key of the scenario's force, initial data and solver, so the subcommands
compose into a pipeline; trajectory.csv and expansion/ are output only.

Exit codes: 0 all checks passed, 1 input or runtime error, 2 at least one
check failed (including built levels that violate their own equations), 3
nothing failed but at least one check was inconclusive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis
from .analysis import (
    FitError,
    fit_rate,
    fit_resonant_constant,
    norm_series,
    rate_claim_passes,
    remainder_series,
)
from .expansion import ExpansionResult, LevelEquationError, build_expansion
from .galerkin import BlowupError, integrate
from .scenario import Scenario, ScenarioError, _norm_tag, load_scenario
from .serialize import (
    _at,
    _format_float,
    _object,
    level_to_doc,
    load_json,
    read_trajectory,
    trajectory_key,
    write_json,
    write_norm_csv,
    write_trajectory,
)
from .spectral import NormSpec, NormWeightError, SpectralField, eigenvalues_up_to, leray_project, norm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3

SNAP_FACTOR = 1e-8


def run_dir_for(scenario: Scenario, out: str) -> Path:
    d = Path(out) / scenario.name
    for sub in ("expansion", "norms", "reports"):
        (d / sub).mkdir(parents=True, exist_ok=True)
    return d


def _exit_code(verdicts, failed: str, undecided: str) -> int:
    if failed in verdicts:
        return EXIT_FAILED
    return EXIT_INCONCLUSIVE if undecided in verdicts else EXIT_OK


# -- trajectory reuse, expansion output ----------------------------------------


def ensure_trajectory(scenario: Scenario, run_dir: Path):
    """(trajectory, recomputed): the tree's block if the tree holds both trajectory files
    and a manifest with this scenario's key."""
    block, manifest = run_dir / "trajectory.npy", run_dir / "trajectory_modes.json"
    key = trajectory_key(scenario.force, scenario.initial, scenario.solver)
    missing = [p.name for p in (manifest, block, run_dir / "trajectory.csv") if not p.exists()]
    stored = None if manifest.name in missing else _object(load_json(manifest), str(manifest)).get("key")
    if not missing and stored == key:
        return read_trajectory(block, manifest, scenario.solver), False
    if len(missing) < 3:   # some trajectory file is there: say why it is not used
        why = f"no {missing[0]}" if missing else "key mismatch" if stored else "no key"
        print(f"recomputing the trajectory: {why}", file=sys.stderr)
    traj = integrate(scenario.initial, scenario.force, scenario.solver)
    write_trajectory(run_dir / "trajectory.csv", manifest, traj, key)
    return traj, True


def write_expansion(run_dir: Path, result: ExpansionResult):
    """Write the built levels with residuals.json. An earlier build's documents, its fit log
    too, are deleted first: expansion/ holds one build."""
    for stale in (run_dir / "expansion").glob("*.json"):
        stale.unlink()
    for n, poly in result.terms:
        write_json(run_dir / "expansion" / f"level_{n:02d}.json", level_to_doc(n, poly))
    write_json(
        run_dir / "expansion" / "residuals.json",
        {
            "residuals": {str(n): result.residuals[n] for n in sorted(result.residuals)},
            "resonance_log": [list(x) for x in result.resonance_log],
            "max_residual": result.max_residual(),
        },
    )


def fitted_constants(scenario: Scenario, traj, fit_log: dict):
    """Free-constant provider for verify: the scenario's constant, else one fitted on `traj`.

    Fits run on Stokes-eigenvalue levels only; a fitted constant no larger than
    SNAP_FACTOR x the trajectory's peak norm is snapped to zero, and any other is
    Leray-projected, since a window mean is divergence-free only to rounding. Each
    fit is recorded in `fit_log` under its level, in the resonant_fits.json format.
    """
    req = scenario.expansion
    spectrum = set(eigenvalues_up_to(req.n_max))
    traj_scale = norm_series(traj, NormSpec(0.0, 0.0)).peak()

    def constant(n, levels):
        if n in req.resonant or n not in spectrum:
            return req.resonant.get(n)
        try:
            fit = fit_resonant_constant(traj, levels, n, window=req.resonant_fit_window)
        except FitError as exc:
            default = "default " if req.resonant_fit_window is None else ""
            raise ScenarioError("expansion.resonant_fit_window", f"{default}{exc}") from None
        snapped = norm(fit.constant) <= SNAP_FACTOR * traj_scale
        fit_log[n] = {
            "stddev": fit.stddev,
            "drift": fit.drift,
            "contaminated": fit.contaminated,
            "window": list(fit.window),
            "n_samples": fit.n_samples,
            "snapped_to_zero": snapped,
        }
        return SpectralField.zero() if snapped else leray_project(fit.constant)

    return constant


# -- subcommands -----------------------------------------------------------------


def run_expand(scenario: Scenario, out: str) -> int:
    run_dir = run_dir_for(scenario, out)
    result = build_expansion(scenario.force, scenario.expansion.n_max, scenario.expansion.resonant)
    write_expansion(run_dir, result)
    hits = {n for n, _ in result.resonance_log}
    for n, poly in result.terms:
        marker = " (resonant)" if n in hits else ""
        print(
            f"level {n}: degree {poly.degree}, "
            f"residual {_format_float(result.residuals[n])}{marker}"
        )
    print(f"expansion written to {run_dir / 'expansion'}")
    return EXIT_OK


def run_simulate(scenario: Scenario, out: str) -> int:
    run_dir = run_dir_for(scenario, out)
    traj, fresh = ensure_trajectory(scenario, run_dir)
    for i, spec in enumerate(scenario.expansion.norm_specs):
        with _at(f"expansion.norm_specs[{i}]", NormWeightError):
            series = norm_series(traj, spec)
        write_norm_csv(run_dir / "norms" / f"norm_{_norm_tag(spec)}.csv", series)
    print(
        f"simulated {len(traj)} samples to t = {_format_float(traj.t_end)} "
        f"(cutoff {scenario.solver.mode_cutoff}, step {scenario.solver.step:g}); "
        f"final norm {_format_float(norm(traj.state(-1)))}"
    )
    print(f"trajectory written to {run_dir / 'trajectory.csv'}" if fresh
          else f"trajectory reused from {run_dir / 'trajectory.npy'}")
    return EXIT_OK


def _verify_row(series, N, spec, eps, window):
    target = N + eps
    row = {
        "level": N,
        "alpha": spec.alpha,
        "sigma": spec.sigma,
        "target_rate": target,
        "peak": series.peak(),
    }
    try:
        fit = fit_rate(series, window)
    except FitError as exc:
        row.update(verdict="inconclusive", annotation=f"unusable window: {exc}")
        return row
    if fit.floor_dominated:
        row.update(
            slope=None,
            verdict="inconclusive",
            annotation="series at numerical floor: remainder matches to solver precision",
        )
        return row
    ok = rate_claim_passes(fit, target)
    row.update(
        slope=fit.slope,
        intercept=fit.intercept,
        rms=fit.rms_residual,
        window=list(fit.window),
        n_samples=fit.n_samples,
        verdict="pass" if ok else "fail",
        annotation=(
            ""
            if ok
            else f"needs slope <= {-target + analysis.RATE_SLACK:g}"
            + (f" and rms <= {analysis.RMS_MAX:g}" if fit.rms_residual > analysis.RMS_MAX else "")
        ),
    )
    return row


def run_verify(scenario: Scenario, out: str) -> int:
    run_dir = run_dir_for(scenario, out)
    traj, fresh = ensure_trajectory(scenario, run_dir)
    req = scenario.expansion
    fits: dict = {}
    result = build_expansion(scenario.force, req.n_max, fitted_constants(scenario, traj, fits))
    terms = result.terms
    # a contaminated fit at level n (drift > 0.1) leaves every row with N >= n undecided
    tainted = [(n, f["drift"]) for n, f in fits.items() if f["contaminated"]]

    rows, series_files = [], []
    for N, _ in terms:
        terms_N = [(n, q) for n, q in terms if n <= N]
        try:
            series_N = remainder_series(traj, terms_N, req.norm_specs)
        except NormWeightError as exc:
            i = req.norm_specs.index(exc.spec)
            raise ScenarioError(f"expansion.norm_specs[{i}]", str(exc)) from None
        for spec, series in zip(req.norm_specs, series_N):
            row = _verify_row(series, N, spec, req.target_epsilon, req.fit_window)
            bad = ", ".join(f"level {n} (drift {d:.3g})" for n, d in tainted if n <= N)
            if bad:
                row.update(verdict="inconclusive", annotation=f"contaminated resonant fit: {bad}")
            rows.append(row)
            series_files.append((run_dir / "norms" / f"remainder_N{N}_{_norm_tag(spec)}.csv", series))

    # the tree changes only once every row is formed: bad input leaves the last run's files
    write_expansion(run_dir, result)
    if fits:  # filled level by level, so in level order
        write_json(run_dir / "expansion" / "resonant_fits.json", {str(n): f for n, f in fits.items()})
    for stale in (run_dir / "norms").glob("remainder_*.csv"):
        stale.unlink()  # an earlier run's rows, maybe for levels past this N_max
    for path, series in series_files:
        write_norm_csv(path, series)

    code = _exit_code([r["verdict"] for r in rows], "fail", "inconclusive")
    report = {
        "scenario": scenario.name,
        "target_epsilon": req.target_epsilon,
        "trajectory_recomputed": fresh,
        "rows": rows,
        "exit_code": code,
    }
    write_json(run_dir / "reports" / "verify.json", report)
    lines = [
        f"scenario {scenario.name}: remainder decay vs target N + {req.target_epsilon:g}",
        f"{'level':>5} {'alpha':>6} {'sigma':>6} {'slope':>10} {'rms':>8} {'target':>8} {'verdict':>13}",
    ]
    for r in rows:
        slope = format(r["slope"], ".4f") if r.get("slope") is not None else "at-floor"
        rms = format(r["rms"], ".4f") if "rms" in r else "-"
        note = f"  [{r['annotation']}]" if r.get("annotation") else ""
        lines.append(
            f"{r['level']:>5} {r['alpha']:>6g} {r['sigma']:>6g} {slope:>10} {rms:>8} "
            f"{-r['target_rate']:>8g} {r['verdict']:>13}{note}"
        )
    print("\n".join(lines))
    return code


def run_certify(scenario: Scenario, out: str) -> int:
    run_dir = run_dir_for(scenario, out)
    if not scenario.certificates:
        write_json(run_dir / "reports" / "certify.json",
                   {"scenario": scenario.name, "rows": [], "exit_code": EXIT_OK})
        print("no certificates configured")
        return EXIT_OK

    traj, _ = ensure_trajectory(scenario, run_dir)
    reports = []
    for i, cert in enumerate(scenario.certificates):
        with _at(f"certificates[{i}]", NormWeightError):
            reports.append(analysis.certificate_check(traj, cert, scenario.force))
    if any(rep.integral_skipped for rep in reports):
        print(
            f"certify: integral check skipped: sample spacing {traj.spacing:g} does not divide 1",
            file=sys.stderr,
        )

    rows = []
    for cert, rep in zip(scenario.certificates, reports):
        rows.append(
            {
                "alpha": cert.alpha,
                "delta": cert.delta,
                "lambda": cert.lam,
                "sigma": cert.sigma,
                "K": cert.K,
                "C0": cert.C0,
                "C1": cert.C1,
                "t_star": cert.t_star,
                "verdict": rep.verdict,
                "hypothesis_failures": list(rep.hypothesis_failures),
                "min_margin": rep.min_margin() if len(rep.pointwise_margins) else None,
                "pointwise": {
                    "times": list(rep.pointwise_times),
                    "margins": list(rep.pointwise_margins),
                },
                "integral": {
                    "times": list(rep.integral_times),
                    "margins": list(rep.integral_margins),
                },
            }
        )
    code = _exit_code([r["verdict"] for r in rows], "violated", "inapplicable")
    write_json(
        run_dir / "reports" / "certify.json",
        {"scenario": scenario.name, "rows": rows, "exit_code": code},
    )
    lines = [f"scenario {scenario.name}: decay certificates"]
    for r in rows:
        mm = _format_float(r["min_margin"]) if r["min_margin"] is not None else "-"
        lines.append(
            f"alpha={r['alpha']:g} delta={r['delta']:g} lambda={r['lambda']:g} "
            f"sigma={r['sigma']:g} K={r['K']:g}: {r['verdict']} (min margin {mm})"
        )
        for msg in r["hypothesis_failures"]:
            lines.append(f"  hypothesis not met: {msg}")
    print("\n".join(lines))
    return code


def run_spectrum(nmax: int) -> int:
    try:
        eigenvalues = eigenvalues_up_to(nmax)
    except ValueError as exc:
        raise ValueError(f"--nmax: {exc}") from None
    for n in eigenvalues:
        print(n)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: main reports it as one `error: ` line and exits 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="nse-expand",
        description="Slow-decay expansions, Galerkin simulation and decay verification "
        "for forced periodic flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("expand", "construct expansion levels and write per-level documents"),
        ("simulate", "integrate the truncated system and write the trajectory"),
        ("verify", "check remainder decay rates against the target ladder"),
        ("certify", "evaluate decay certificates on the trajectory"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scenario", required=True, help="path to scenario JSON")
        p.add_argument("--out", default="out", help="output root (default: out)")
    p = sub.add_parser("spectrum", help="print the Stokes eigenvalues up to a bound")
    p.add_argument("--nmax", type=int, default=100, help="largest eigenvalue to include")

    try:
        args = parser.parse_args(argv)
        if args.command == "spectrum":
            return run_spectrum(args.nmax)
        run = {"expand": run_expand, "simulate": run_simulate, "verify": run_verify,
               "certify": run_certify}[args.command]
        return run(load_scenario(args.scenario), args.out)
    except BlowupError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except LevelEquationError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
