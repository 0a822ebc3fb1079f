"""Scenario files: one JSON document that pins down a full experiment.

Schema (all field/polynomial values use the literal formats in `serialize`):

    {
      "name": "rate-ladder",
      "force": {"terms": [{"n": 1, "poly": <polynomial-literal>}, ...]},
      "initial": <field-literal>,
      "expansion": {
        "N_max": 2,
        "resonant": {"1": <field-literal>, ...},        # optional
        "target_epsilon": 0.5,                           # optional
        "norm_specs": [[alpha, sigma], ...],             # optional
        "fit_window": [a, b],                            # optional
        "resonant_fit_window": [a, b]                    # optional
      },
      "solver": {"mode_cutoff": 12, "step": 1e-3, "t_end": 12.0, "sample_stride": 10},
      "certificates": [{"alpha": 0.5, "delta": 0.5, "lambda": 1.0,
                        "sigma": 0.0, "K": 2.0}, ...],   # optional
      "output_dir": "runs"                               # optional
    }

Violations are reported with the path of the offending field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field

from .analysis import DecayCertificate
from .expansion import ForceExpansion, check_resonant_data
from .galerkin import SolverConfig
from .serialize import ScenarioError, _number, field_from_literal, poly_from_literal
from .spectral import NormSpec, SpectralField

__all__ = ["ExpansionRequest", "Scenario", "load_scenario", "scenario_from_doc"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class ExpansionRequest:
    n_max: int
    resonant: dict = dc_field(default_factory=dict)
    target_epsilon: float = 0.5
    norm_specs: tuple[NormSpec, ...] = (NormSpec(0.0, 0.0),)
    fit_window: tuple[float, float] | None = None
    resonant_fit_window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.n_max < 1 or self.n_max != int(self.n_max):
            raise ValueError(f"N_max must be a positive integer, got {self.n_max}")
        if not (0 < self.target_epsilon < 1):
            raise ValueError(
                f"target_epsilon must lie in (0, 1), got {self.target_epsilon}"
            )
        if not self.norm_specs:
            raise ValueError("at least one norm spec is required")


@dataclass(frozen=True)
class Scenario:
    name: str
    force: ForceExpansion
    initial: SpectralField
    expansion: ExpansionRequest
    solver: SolverConfig
    certificates: tuple[DecayCertificate, ...] = ()
    output_dir: str | None = None


def _expect_dict(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioError(path, "expected an object")
    return obj


def _get(doc: dict, key: str, path: str, required=True, default=None):
    if key not in doc:
        if required:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return doc[key]


def _window(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(path, "expected [start, end]")
    a = _number(value[0], f"{path}[0]")
    b = _number(value[1], f"{path}[1]")
    if not (a < b):
        raise ScenarioError(path, f"window start must precede end, got [{a}, {b}]")
    return (a, b)


def _parse_force(doc, path) -> ForceExpansion:
    doc = _expect_dict(doc, path)
    terms_doc = _get(doc, "terms", path)
    if not isinstance(terms_doc, list):
        raise ScenarioError(f"{path}.terms", "expected a list")
    pairs = []
    for i, entry in enumerate(terms_doc):
        epath = f"{path}.terms[{i}]"
        entry = _expect_dict(entry, epath)
        n = _number(_get(entry, "n", epath), f"{epath}.n", int)
        poly = poly_from_literal(_get(entry, "poly", epath), f"{epath}.poly")
        pairs.append((n, poly))
    try:
        return ForceExpansion(tuple(pairs))
    except ValueError as exc:
        raise ScenarioError(f"{path}.terms", str(exc)) from None


def _parse_expansion(doc, path) -> ExpansionRequest:
    doc = _expect_dict(doc, path)
    n_max = _number(_get(doc, "N_max", path), f"{path}.N_max", int)
    resonant = {}
    rdoc = _get(doc, "resonant", path, required=False, default={})
    rdoc = _expect_dict(rdoc, f"{path}.resonant")
    for key, lit in rdoc.items():
        try:
            n = int(key)
        except ValueError:
            raise ScenarioError(
                f"{path}.resonant.{key}", "keys must be integer level indices"
            ) from None
        resonant[n] = field_from_literal(lit, f"{path}.resonant.{key}")
    try:
        check_resonant_data(resonant)
    except ValueError as exc:
        raise ScenarioError(f"{path}.resonant", str(exc)) from None
    eps = _get(doc, "target_epsilon", path, required=False, default=0.5)
    eps = _number(eps, f"{path}.target_epsilon")
    specs_doc = _get(doc, "norm_specs", path, required=False, default=[[0.0, 0.0]])
    if not isinstance(specs_doc, list) or not specs_doc:
        raise ScenarioError(f"{path}.norm_specs", "expected a non-empty list")
    specs = []
    for i, pair in enumerate(specs_doc):
        spath = f"{path}.norm_specs[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ScenarioError(spath, "expected [alpha, sigma]")
        try:
            specs.append(NormSpec(_number(pair[0], spath), _number(pair[1], spath)))
        except ValueError as exc:
            raise ScenarioError(spath, str(exc)) from None
    fit_window = _get(doc, "fit_window", path, required=False)
    if fit_window is not None:
        fit_window = _window(fit_window, f"{path}.fit_window")
    rwin = _get(doc, "resonant_fit_window", path, required=False)
    if rwin is not None:
        rwin = _window(rwin, f"{path}.resonant_fit_window")
    try:
        return ExpansionRequest(n_max, resonant, eps, tuple(specs), fit_window, rwin)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_solver(doc, path) -> SolverConfig:
    doc = _expect_dict(doc, path)
    try:
        return SolverConfig(
            mode_cutoff=_number(_get(doc, "mode_cutoff", path), f"{path}.mode_cutoff", int),
            step=_number(_get(doc, "step", path), f"{path}.step"),
            t_end=_number(_get(doc, "t_end", path), f"{path}.t_end"),
            sample_stride=_number(
                _get(doc, "sample_stride", path, required=False, default=1),
                f"{path}.sample_stride",
                int,
            ),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_certificates(doc, path) -> tuple[DecayCertificate, ...]:
    if doc is None:
        return ()
    if not isinstance(doc, list):
        raise ScenarioError(path, "expected a list")
    certs = []
    for i, entry in enumerate(doc):
        epath = f"{path}[{i}]"
        entry = _expect_dict(entry, epath)
        try:
            certs.append(
                DecayCertificate(
                    alpha=_number(_get(entry, "alpha", epath), f"{epath}.alpha"),
                    delta=_number(_get(entry, "delta", epath), f"{epath}.delta"),
                    lam=_number(_get(entry, "lambda", epath), f"{epath}.lambda"),
                    sigma=_number(
                        _get(entry, "sigma", epath, required=False, default=0.0),
                        f"{epath}.sigma",
                    ),
                    K=_number(
                        _get(entry, "K", epath, required=False, default=2.0),
                        f"{epath}.K",
                    ),
                )
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(epath, str(exc)) from None
    return tuple(certs)


def scenario_from_doc(doc, path: str = "") -> Scenario:
    doc = _expect_dict(doc, path or "scenario")
    name = _get(doc, "name", path)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(
            "name", "must be a nonempty string of letters, digits, dot, dash, underscore"
        )
    force = _parse_force(_get(doc, "force", path), "force")
    initial = field_from_literal(_get(doc, "initial", path), "initial")
    try:
        initial.require_divergence_free(1e-10)
    except ValueError as exc:
        raise ScenarioError("initial", str(exc)) from None
    expansion = _parse_expansion(_get(doc, "expansion", path), "expansion")
    solver = _parse_solver(_get(doc, "solver", path), "solver")
    certificates = _parse_certificates(
        _get(doc, "certificates", path, required=False), "certificates"
    )
    output_dir = _get(doc, "output_dir", path, required=False)
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir", "expected a string")
    return Scenario(name, force, initial, expansion, solver, certificates, output_dir)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(str(path), "scenario file not found") from None
    except ValueError as exc:  # bad syntax, bad UTF-8, an integer too long to read
        raise ScenarioError(str(path), f"invalid JSON: {exc}") from None
    return scenario_from_doc(doc)
