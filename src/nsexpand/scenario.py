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

This module is the schema only: the checked readers in `serialize` turn each
value into its type, and every violation is a `ScenarioError` naming the path
of the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .analysis import DecayCertificate
from .expansion import ForceExpansion, check_resonant_data
from .galerkin import SolverConfig
from .serialize import (
    ScenarioError,
    _at,
    _list,
    _need,
    _number,
    _object,
    field_from_literal,
    load_json,
    poly_from_literal,
    solver_from_doc,
)
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


def _pair(value, path, what):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(path, f"expected {what}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _window(doc, key, path):
    value = _need(doc, key, path, None)
    if value is None:
        return None
    a, b = _pair(value, f"{path}.{key}", "[start, end]")
    if not (a < b):
        raise ScenarioError(f"{path}.{key}", f"window start must precede end, got [{a}, {b}]")
    return (a, b)


def _parse_force(doc, path) -> ForceExpansion:
    terms = _list(_need(_object(doc, path), "terms", path), f"{path}.terms")
    pairs = []
    for i, entry in enumerate(terms):
        epath = f"{path}.terms[{i}]"
        entry = _object(entry, epath)
        n = _number(_need(entry, "n", epath), f"{epath}.n", int)
        pairs.append((n, poly_from_literal(_need(entry, "poly", epath), f"{epath}.poly")))
    with _at(f"{path}.terms"):
        return ForceExpansion(tuple(pairs))


def _parse_expansion(doc, path) -> ExpansionRequest:
    doc = _object(doc, path)
    n_max = _number(_need(doc, "N_max", path), f"{path}.N_max", int)
    resonant = {}
    for key, lit in _object(_need(doc, "resonant", path, {}), f"{path}.resonant").items():
        with _at(f"{path}.resonant.{key}"):  # keys are integer level indices
            resonant[int(key)] = field_from_literal(lit, f"{path}.resonant.{key}")
    with _at(f"{path}.resonant"):
        check_resonant_data(resonant)
    eps = _number(_need(doc, "target_epsilon", path, 0.5), f"{path}.target_epsilon")
    specs_doc = _need(doc, "norm_specs", path, [[0.0, 0.0]])
    if not isinstance(specs_doc, list) or not specs_doc:
        raise ScenarioError(f"{path}.norm_specs", "expected a non-empty list")
    specs = []
    for i, pair in enumerate(specs_doc):
        spath = f"{path}.norm_specs[{i}]"
        with _at(spath):
            specs.append(NormSpec(*_pair(pair, spath, "[alpha, sigma]")))
    with _at(path):
        return ExpansionRequest(
            n_max,
            resonant,
            eps,
            tuple(specs),
            _window(doc, "fit_window", path),
            _window(doc, "resonant_fit_window", path),
        )


def _parse_certificates(doc, path) -> tuple[DecayCertificate, ...]:
    if doc is None:
        return ()
    certs = []
    for i, entry in enumerate(_list(doc, path)):
        epath = f"{path}[{i}]"
        entry = _object(entry, epath)
        with _at(epath):
            certs.append(
                DecayCertificate(
                    alpha=_number(_need(entry, "alpha", epath), f"{epath}.alpha"),
                    delta=_number(_need(entry, "delta", epath), f"{epath}.delta"),
                    lam=_number(_need(entry, "lambda", epath), f"{epath}.lambda"),
                    sigma=_number(_need(entry, "sigma", epath, 0.0), f"{epath}.sigma"),
                    K=_number(_need(entry, "K", epath, 2.0), f"{epath}.K"),
                )
            )
    return tuple(certs)


def scenario_from_doc(doc) -> Scenario:
    doc = _object(doc, "scenario")
    name = _need(doc, "name", "")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(
            "name", "must be a nonempty string of letters, digits, dot, dash, underscore"
        )
    force = _parse_force(_need(doc, "force", ""), "force")
    initial = field_from_literal(_need(doc, "initial", ""), "initial")
    with _at("initial"):
        initial.require_divergence_free()
    expansion = _parse_expansion(_need(doc, "expansion", ""), "expansion")
    solver = solver_from_doc(_need(doc, "solver", ""), "solver")
    certificates = _parse_certificates(_need(doc, "certificates", "", None), "certificates")
    output_dir = _need(doc, "output_dir", "", None)
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir", "expected a string")
    return Scenario(name, force, initial, expansion, solver, certificates, output_dir)


def load_scenario(path) -> Scenario:
    return scenario_from_doc(load_json(path))
